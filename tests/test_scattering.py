import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from catscatter.errors import MissingSigma
from catscatter.quadrature import QuadratureSpec
from catscatter.scattering import (
    EventDensity,
    ScatteringConfig,
    cross_section,
    event_density,
    event_density_cat_closed,
    event_density_cat_quadrature,
    event_density_gaussian,
    event_density_general,
    event_density_grid,
    validity_check,
)
from catscatter.states import BeamState, negativity_scan, wigner_grid, wigner_terms
from catscatter.targets import Kinematics, TargetProfile, hydrogen_amplitude

DEG = math.pi / 180.0
WIDE = TargetProfile.wide()
TIGHT1 = QuadratureSpec(rel_tol=1e-10)
TIGHT2 = QuadratureSpec(rel_tol=1e-8, max_subdivisions=20_000)


def wide_cfg(state, quad=TIGHT2):
    return ScatteringConfig(state=state, target=WIDE, quad=quad)


# -- independent scipy oracle ------------------------------------------------


def scipy_wide_cross_section(sigma_perp, r0, theta, phi, p, parity):
    """Wide-target cat cross section via scipy dblquad (independent route)."""
    qz = p * math.cos(theta) - p
    qperp = p * math.sin(theta)
    qx, qy = qperp * math.cos(phi), qperp * math.sin(phi)
    c = r0 ** 2 / (2.0 * sigma_perp ** 2)

    def integrand(py_, px_):
        q = math.sqrt((qx - px_) ** 2 + (qy - py_) ** 2 + qz ** 2)
        f2 = hydrogen_amplitude(q) ** 2
        w = math.exp(-2.0 * sigma_perp ** 2 * (px_ ** 2 + py_ ** 2))
        return f2 * w * (1.0 + parity * math.cos(2.0 * r0 * px_))

    lim = 4.0 / sigma_perp
    val, _ = dblquad(integrand, -lim, lim, -lim, lim, epsabs=1e-13, epsrel=1e-11)
    return (2.0 * sigma_perp ** 2 / math.pi) * val / (1.0 + parity * math.exp(-c))


def test_closed_form_against_scipy_oracle():
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.0)
    ours = event_density_cat_closed(wide_cfg(BeamState.even_cat(2.0, 4.0), TIGHT1), kin)
    ref = scipy_wide_cross_section(2.0, 4.0, 10.0 * DEG, 0.0, 10.0, +1)
    assert ours.value == pytest.approx(ref, rel=1e-9)


def test_quadrature2d_against_scipy_oracle():
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.7)
    ours = event_density_cat_quadrature(wide_cfg(BeamState.odd_cat(2.0, 3.0)), kin)
    ref = scipy_wide_cross_section(2.0, 3.0, 10.0 * DEG, 0.7, 10.0, -1)
    assert ours.value == pytest.approx(ref, rel=1e-8)


def test_gaussian_wide_against_scipy_quad():
    # Radial scipy reduction of the isotropic momentum average.
    sp = 2.0
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.0)
    ours = event_density_gaussian(wide_cfg(BeamState.gaussian(sp)), kin)
    qz = 10.0 * math.cos(10.0 * DEG) - 10.0
    qperp = 10.0 * math.sin(10.0 * DEG)

    def rad(u):  # angular average of f^2 at fixed |p| = u via quad
        def ang(t):
            q = math.sqrt(qperp ** 2 - 2 * qperp * u * math.cos(t) + u * u + qz * qz)
            return hydrogen_amplitude(q) ** 2
        av, _ = quad(ang, 0.0, 2.0 * math.pi, epsabs=1e-13, epsrel=1e-12, limit=200)
        return av * u * math.exp(-2.0 * sp * sp * u * u)

    val, _ = quad(rad, 0.0, 4.0 / sp, epsabs=1e-14, epsrel=1e-11, limit=200)
    ref = (2.0 * sp * sp / math.pi) * val
    assert ours.value == pytest.approx(ref, rel=1e-8)


# -- mutual method agreement -------------------------------------------------


@pytest.mark.parametrize("maker", [BeamState.even_cat, BeamState.odd_cat])
@pytest.mark.parametrize("sp,r0f,th", [
    (1.0, 1.0, 20.0), (2.0, 2.0, 10.0), (4.0, 3.0, 5.0),
])
def test_closed_vs_quadrature_finite_target(maker, sp, r0f, th):
    state = maker(sp, r0f * sp)
    target = TargetProfile.gaussian(20.0, (1.0, 0.0))
    kin = Kinematics.elastic(10.0, th * DEG, 0.9)
    c = event_density_cat_closed(ScatteringConfig(state, target, quad=TIGHT1), kin)
    q = event_density_cat_quadrature(ScatteringConfig(state, target, quad=TIGHT2), kin)
    assert c.value == pytest.approx(q.value, rel=1e-6)
    assert c.method == "closed_form" and q.method == "quadrature2d"


def test_general4d_vs_quadrature2d():
    state = BeamState.even_cat(2.0, 4.0)
    target = TargetProfile.gaussian(20.0)
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.7)
    g = event_density_general(ScatteringConfig(state, target), kin)
    q = event_density_cat_quadrature(ScatteringConfig(state, target, quad=TIGHT2), kin)
    assert g.value == pytest.approx(q.value, rel=1e-3)
    assert g.method == "general4d"


def test_general4d_phi_rotation_consistency():
    state = BeamState.gaussian(2.0)
    target = TargetProfile.gaussian(20.0)
    va = event_density_general(ScatteringConfig(state, target),
                               Kinematics.elastic(10.0, 10.0 * DEG, 0.0))
    vb = event_density_general(ScatteringConfig(state, target),
                               Kinematics.elastic(10.0, 10.0 * DEG, 137.0 * DEG))
    assert va.value == pytest.approx(vb.value, rel=1e-4)


def test_general4d_mixture_equals_mean_of_shifted_gaussians():
    r0 = 4.0
    target = TargetProfile.gaussian(20.0)
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.9)
    mix = event_density_general(
        ScatteringConfig(BeamState.incoherent_pair(2.0, r0), target), kin)
    parts = [
        event_density_general(
            ScatteringConfig(BeamState.gaussian(2.0),
                             TargetProfile.gaussian(20.0, (s * r0, 0.0))), kin)
        for s in (-1.0, 1.0)
    ]
    mean = 0.5 * (parts[0].value + parts[1].value)
    assert mix.value == pytest.approx(mean, rel=1e-4)


def test_general4d_anisotropic_off_axis_vs_analytic_route():
    # Validates the per-axis analytic target integration for the
    # anisotropic packet (any b0) against the brute-force 4-D oracle.
    state = BeamState.anisotropic(2.0, 2.6)
    target = TargetProfile.gaussian(12.0, (1.5, -0.8))
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.5)
    g = event_density_general(ScatteringConfig(state, target), kin)
    q = event_density_gaussian(ScatteringConfig(state, target, quad=TIGHT2), kin)
    assert g.value == pytest.approx(q.value, rel=1e-3)


def test_general4d_gaussian_vs_analytic_route():
    state = BeamState.gaussian(2.0)
    target = TargetProfile.gaussian(20.0, (2.0, 1.0))
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.3)
    g = event_density_general(ScatteringConfig(state, target), kin)
    q = event_density_gaussian(ScatteringConfig(state, target, quad=TIGHT2), kin)
    assert g.value == pytest.approx(q.value, rel=1e-3)


def test_negative_total_guard_fires_on_unphysical_density(monkeypatch):
    # A sign-flipped Wigner function gives an unphysical, negative total;
    # the nonnegativity guard on the brute-force total must trip.
    from catscatter.errors import NegativeTotal

    monkeypatch.setattr("catscatter.scattering.wigner_terms",
                        lambda *a: [(-p, m) for p, m in wigner_terms(*a)])
    state = BeamState.gaussian(2.0)
    target = TargetProfile.gaussian(20.0)
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.0)
    with pytest.raises(NegativeTotal):
        event_density_general(ScatteringConfig(state, target), kin)


def test_general4d_mixture_vs_quadrature2d():
    state = BeamState.incoherent_pair(2.0, 4.0)
    target = TargetProfile.gaussian(20.0, (2.0, 0.0))
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 1.3)
    g = event_density_general(ScatteringConfig(state, target), kin)
    q = event_density_cat_quadrature(ScatteringConfig(state, target, quad=TIGHT2), kin)
    assert g.value == pytest.approx(q.value, rel=1e-3)


def test_cat_quadrature_r0_to_zero_equals_gaussian():
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.4)
    cat = event_density_cat_quadrature(
        wide_cfg(BeamState.even_cat(2.0, 2e-6), TIGHT2), kin)
    gau = event_density_gaussian(wide_cfg(BeamState.gaussian(2.0), TIGHT2), kin)
    assert cat.value == pytest.approx(gau.value, rel=1e-8)


def test_cat_closed_r0_to_zero_equals_gaussian():
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.4)
    gau = event_density_gaussian(
        wide_cfg(BeamState.gaussian(2.0), QuadratureSpec(rel_tol=1e-10,
                                                         max_subdivisions=40_000)), kin)
    for r0 in (0.0, 2e-6):
        cat = event_density_cat_closed(
            wide_cfg(BeamState.even_cat(2.0, r0), TIGHT1), kin)
        assert cat.value == pytest.approx(gau.value, rel=1e-8)


# -- structure of the gaussian route ----------------------------------------


def test_offset_dependence_factors_out():
    sp = 2.0
    ssq = 20.0 ** 2 + sp ** 2
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.0)
    on = event_density_gaussian(
        ScatteringConfig(BeamState.gaussian(sp), TargetProfile.gaussian(20.0), quad=TIGHT2), kin)
    off = event_density_gaussian(
        ScatteringConfig(BeamState.gaussian(sp),
                         TargetProfile.gaussian(20.0, (3.0, 0.0)), quad=TIGHT2), kin)
    assert off.value / on.value == pytest.approx(math.exp(-9.0 / (2.0 * ssq)), rel=1e-6)


def test_gaussian_phi_scan_flat_even_off_axis():
    cfg = ScatteringConfig(BeamState.gaussian(2.0),
                           TargetProfile.gaussian(20.0, (3.0, 0.0)), quad=TIGHT2)
    vals = [event_density_gaussian(cfg, Kinematics.elastic(10.0, 10.0 * DEG, f)).value
            for f in np.linspace(0.0, 2.0 * math.pi, 9)]
    assert (max(vals) - min(vals)) / max(vals) <= 1e-8


def test_single_packet_ignores_a_stray_separation():
    # An r0 sweep applies with_r0 to any state; a single packet stays put.
    target = TargetProfile.gaussian(20.0, (3.0, 0.0))
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.4)
    for state in (BeamState.gaussian(2.0), BeamState.anisotropic(1.5, 2.5)):
        moved = ScatteringConfig(state.with_r0(4.0), target)
        assert event_density_gaussian(moved, kin) == event_density_gaussian(
            ScatteringConfig(state, target), kin)
        # The Wigner grids and scans keep their r0 = 0 boxes too.
        for mode, n in (("slice", 64), ("full", 16)):
            for a, b in zip(wigner_grid(moved.state, n, mode), wigner_grid(state, n, mode)):
                np.testing.assert_array_equal(a, b)
            assert negativity_scan(moved.state, mode=mode) == negativity_scan(state, mode=mode)


def test_mixture_phi_scan_flat():
    cfg = ScatteringConfig(BeamState.incoherent_pair(2.0, 4.0),
                           TargetProfile.gaussian(20.0, (2.0, 1.0)), quad=TIGHT2)
    vals = [event_density_cat_quadrature(cfg, Kinematics.elastic(10.0, 10.0 * DEG, f)).value
            for f in np.linspace(0.0, 2.0 * math.pi, 9)]
    assert (max(vals) - min(vals)) / max(vals) <= 1e-8


# -- symmetries of the cat event density -------------------------------------


def test_pi_periodicity_and_reflection():
    state = BeamState.odd_cat(2.0, 3.0, phi_r0=0.5)
    cfg = wide_cfg(state)

    def dnu(phi):
        return event_density_cat_quadrature(
            cfg, Kinematics.elastic(10.0, 10.0 * DEG, phi)).value

    for delta in (0.3, 1.1):
        assert dnu(0.5 + delta) == pytest.approx(dnu(0.5 + delta + math.pi), rel=1e-12)
        assert dnu(0.5 + delta) == pytest.approx(dnu(0.5 - delta), rel=1e-12)


def test_paraxial_limit_phi_flat():
    # Fixed physical separation, packet width 100a: interference fringes wash out.
    cfg = wide_cfg(BeamState.even_cat(100.0, 2.0), TIGHT1)
    vals = [event_density_cat_closed(cfg, Kinematics.elastic(10.0, 10.0 * DEG, f)).value
            for f in np.linspace(0.0, math.pi, 7)]
    assert (max(vals) - min(vals)) / max(vals) <= 1e-6


def test_separation_limit_phi_flat():
    cfg = wide_cfg(BeamState.even_cat(2.0, 20.0), TIGHT1)
    vals = [event_density_cat_closed(cfg, Kinematics.elastic(10.0, 10.0 * DEG, f)).value
            for f in np.linspace(0.0, math.pi, 7)]
    assert (max(vals) - min(vals)) / max(vals) <= 1e-3


def test_event_density_nonnegative_batch():
    rng = np.random.default_rng(5)
    for _ in range(12):
        sp = rng.uniform(1.0, 4.0)
        r0 = sp * rng.uniform(1.0, 3.0)
        th = rng.uniform(2.0, 30.0) * DEG
        maker = BeamState.even_cat if rng.uniform() < 0.5 else BeamState.odd_cat
        ed = event_density_cat_closed(wide_cfg(maker(sp, r0), TIGHT1),
                                      Kinematics.elastic(10.0, th, rng.uniform(0, 7)))
        assert ed.value >= -ed.err_est


@pytest.mark.parametrize("maker,target", [
    (BeamState.even_cat, WIDE),
    (BeamState.odd_cat, WIDE),
    (BeamState.odd_cat, TargetProfile.gaussian(20.0, (1.0, -2.0))),
])
def test_batched_closed_form_matches_one_at_a_time(maker, target):
    cfg = ScatteringConfig(maker(2.0, 3.0, phi_r0=0.4), target)
    thetas, phis = [0.05, 0.2], np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)
    for p in (8.0, 12.0):
        grid = event_density_grid(cfg, Kinematics(p, p, 1.0), thetas, phis)
        assert grid.value.shape == grid.err_est.shape == (2, 6)
        for (i, th), (j, phi) in itertools.product(enumerate(thetas), enumerate(phis)):
            one = event_density_cat_closed(cfg, Kinematics(p, p, th, phi))
            assert (grid.method, grid.sigma_sq, grid.wide_limit) == (one.method, one.sigma_sq,
                                                                     one.wide_limit)
            assert abs(grid.value[i, j] - one.value) <= grid.err_est[i, j] + one.err_est
    for th, ph in (([], phis), (thetas, [])):
        empty = event_density_grid(cfg, Kinematics(8.0, 8.0, 1.0), th, ph)
        assert empty.value.shape == empty.err_est.shape == (len(th), len(ph))


def test_batched_route_loops_for_other_methods():
    # The 2-D and 4-D grids are their routes run cell by cell, bit for bit;
    # so is a closed-form phi row of a beam without fringe rows, whose one
    # weight row serves every azimuth.
    for method, target in (("auto", WIDE), ("quadrature2d", WIDE),
                           ("general4d", TargetProfile.gaussian(20.0))):
        cfg = ScatteringConfig(BeamState.gaussian(2.0), target)
        grid = event_density_grid(cfg, Kinematics.elastic(10.0, 1.0), [0.1], [0.0, 1.0], method)
        eds = [event_density(cfg, Kinematics.elastic(10.0, 0.1, phi), method)
               for phi in (0.0, 1.0)]
        assert grid.method == eds[0].method == method.replace("auto", "closed_form")
        assert grid.value.tolist() == [[ed.value for ed in eds]]
        assert grid.err_est.tolist() == [[ed.err_est for ed in eds]]
    with pytest.raises(ValueError, match="unknown method"):
        event_density_grid(cfg, Kinematics.elastic(10.0, 0.1), [0.1], [0.0], method="nope")


@pytest.mark.parametrize("target", [WIDE, TargetProfile.gaussian(20.0, (1.0, -2.0))])
def test_cross_section_of_a_grid_is_the_per_point_values(target):
    # Converting the grid converts each cell as a one-point result would.
    cfg = ScatteringConfig(BeamState.even_cat(2.0, 3.0, phi_r0=0.4), target, n_e=3)
    grid = event_density_grid(cfg, Kinematics.elastic(10.0, 1.0), [0.05, 0.1, 0.2], [0.0, 0.7])
    per_point = [[cross_section(replace(grid, value=v, err_est=e)) for v, e in zip(*rows)]
                 for rows in zip(grid.value.tolist(), grid.err_est.tolist())]
    assert cross_section(grid).tolist() == per_point
    if not target.wide_limit:
        assert per_point[0][0] != grid.value[0, 0]


def test_a_grid_rejects_angles_outside_their_range():
    cfg = wide_cfg(BeamState.gaussian(2.0))
    kin = Kinematics.elastic(10.0, 0.1)
    for thetas, phis in (([-0.1], [0.0]), ([4.0], [0.0]), ([math.nan], [0.0]),
                         ([0.1], [math.inf])):
        with pytest.raises(ValueError, match="thetas must lie in"):
            event_density_grid(cfg, kin, thetas, phis)
    # Each axis is a 1-D sequence: no scalar, no nested list.
    for thetas, phis in ((0.1, [0.0]), ([0.1], 0.0), ([[0.1, 0.2]], [0.0]),
                         ([0.1], [[0.0], [1.0]])):
        with pytest.raises(ValueError, match="1-D sequence"):
            event_density_grid(cfg, kin, thetas, phis)


@pytest.mark.parametrize("method,target", [("auto", WIDE), ("quadrature2d", WIDE),
                                           ("general4d", TargetProfile.gaussian(20.0))])
def test_a_grid_warns_on_inelastic_momenta_once_per_call(method, target):
    with pytest.warns(UserWarning, match="inelastic"):
        kin = Kinematics(10.0, 10.5, 0.1)
    cfg = ScatteringConfig(BeamState.gaussian(2.0), target)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        event_density_grid(cfg, kin, [0.1], [0.0, 1.0, 2.0], method)
    assert ["inelastic" in str(w.message) for w in caught] == [True]


def test_each_route_name_is_a_view_of_event_density():
    cfg = ScatteringConfig(BeamState.even_cat(2.0, 3.0, phi_r0=0.3),
                           TargetProfile.gaussian(20.0, (3.0, -2.0)))
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.7)
    for route, method in ((event_density_cat_closed, "closed_form"),
                          (event_density_cat_quadrature, "quadrature2d"),
                          (event_density_gaussian, "quadrature2d"),
                          (event_density_general, "general4d")):
        ed, one = route(cfg, kin), event_density(cfg, kin, method)
        assert ed == one and ed.method == method
        assert (ed.value.hex(), ed.err_est.hex()) == (one.value.hex(), one.err_est.hex())


# -- closed form --------------------------------------------------------------


def test_wide_limit_even_cat_bracket_at_zero_separation():
    # With r0 -> 0 the interference factor is cos(0) e^0 = 1 and the whole
    # bracket reduces to 2 against the normalization 2.
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.0)
    cat = event_density_cat_closed(wide_cfg(BeamState.even_cat(2.0, 1e-9), TIGHT1), kin)
    sp = 2.0
    qz = 10.0 * (math.cos(10.0 * DEG) - 1.0)
    qp = 10.0 * math.sin(10.0 * DEG)

    def w(x):
        h = 1.0 + x / (8.0 * sp * sp)
        g = 1.0 + 0.25 * (qz * qz + qp * qp / h)
        return math.exp(-x * g) * (x + x * x + x ** 3 / 6.0) / h

    ref, _ = quad(w, 0.0, 80.0, epsabs=1e-14, epsrel=1e-12, limit=300)
    assert cat.value == pytest.approx(0.25 * ref, rel=1e-9)


# -- conversions and dispatch -------------------------------------------------


def test_cross_section_definition():
    ed = EventDensity(value=1.0, method="quadrature2d", err_est=0.0,
                      sigma_sq=1.0, wide_limit=False, n_e=1)
    assert cross_section(ed) == pytest.approx(2.0 * math.pi, rel=1e-15)
    zero = EventDensity(0.0, "quadrature2d", 0.0, 4.0, False, 3)
    assert cross_section(zero) == 0.0


def test_cross_section_wide_idempotent():
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.0)
    ed = event_density_cat_closed(wide_cfg(BeamState.even_cat(2.0, 4.0), TIGHT1), kin)
    assert ed.wide_limit
    assert cross_section(ed) == ed.value


def test_doubling_ne_scales_dnu_not_dsigma():
    state = BeamState.gaussian(2.0)
    target = TargetProfile.gaussian(20.0)
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.0)
    one = event_density_gaussian(ScatteringConfig(state, target, n_e=1, quad=TIGHT2), kin)
    two = event_density_gaussian(ScatteringConfig(state, target, n_e=2, quad=TIGHT2), kin)
    assert (one.n_e, two.n_e) == (1, 2)
    assert two.value == pytest.approx(2.0 * one.value, rel=1e-12)
    assert cross_section(two) == pytest.approx(cross_section(one), rel=1e-12)


def test_missing_sigma_for_finite_anisotropic():
    cfg = ScatteringConfig(BeamState.anisotropic(2.0, 2.3), TargetProfile.gaussian(20.0))
    ed = event_density_gaussian(cfg, Kinematics.elastic(10.0, 10.0 * DEG, 0.0))
    with pytest.raises(MissingSigma):
        cross_section(ed)


def test_dispatch_and_preconditions():
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.0)
    cfg = wide_cfg(BeamState.even_cat(2.0, 4.0))
    assert event_density(cfg, kin).method == "closed_form"
    gcfg = wide_cfg(BeamState.gaussian(2.0))
    assert event_density(gcfg, kin).method == "closed_form"
    for state in (BeamState.odd_cat(2.0, 4.0), BeamState.incoherent_pair(2.0, 4.0),
                  BeamState.anisotropic(1.0, 2.5)):
        assert event_density(wide_cfg(state), kin).method == "closed_form"
    with pytest.raises(ValueError):
        event_density_general(cfg, kin)  # wide target has no 4-D density


@pytest.mark.parametrize("state", [
    BeamState.gaussian(2.0), BeamState.even_cat(2.0, 3.0, phi_r0=0.3),
    BeamState.odd_cat(1.5, 3.0), BeamState.incoherent_pair(2.0, 4.0),
    BeamState.anisotropic(1.5, 2.5)])
@pytest.mark.parametrize("target", [WIDE, TargetProfile.gaussian(8.0, (3.0, -1.0))])
def test_one_2d_route_for_every_beam(state, target):
    # Both public names are one function, which takes every beam.
    assert event_density_gaussian is event_density_cat_quadrature
    cfg = ScatteringConfig(state, target)
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.7)
    q = event_density_cat_quadrature(cfg, kin)
    assert event_density_gaussian(cfg, kin) == q
    assert event_density(cfg, kin, "quadrature2d") == q
    c = event_density_cat_closed(cfg, kin)
    assert (q.method, q.wide_limit) == ("quadrature2d", target.wide_limit)
    assert abs(q.value - c.value) <= q.err_est + c.err_est


def test_anisotropic_wide_reduces_to_gaussian_when_round():
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.8)
    a = event_density_gaussian(wide_cfg(BeamState.anisotropic(2.0, 2.0), TIGHT2), kin)
    g = event_density_gaussian(wide_cfg(BeamState.gaussian(2.0), TIGHT2), kin)
    assert a.value == pytest.approx(g.value, rel=1e-8)


# -- validity ------------------------------------------------------------------


def test_validity_margins_match_arithmetic():
    state = BeamState.gaussian(2.0, sigma_z=10.0, p_i=10.0)
    conds = {c.condition: c for c in validity_check(state, TargetProfile.wide())}
    c1 = conds["a << sigma_z"]
    assert c1.satisfied and c1.margin == pytest.approx(10.0)
    c2 = conds["sigma_z << sigma_perp^2 p_i"]
    assert not c2.satisfied and c2.margin == pytest.approx(4.0)
    c3 = conds["theta_k = 1/(sigma_perp p_i) << 1"]
    assert c3.satisfied and c3.margin == pytest.approx(20.0)


def test_validity_cat_separation_condition():
    state = BeamState.even_cat(2.0, 0.4)  # r0 = 0.2 sigma_perp
    conds = {c.condition: c for c in validity_check(state, TargetProfile.wide())}
    cond = conds["r0 >~ sigma_perp"]
    assert not cond.satisfied
    assert cond.margin == pytest.approx(0.2)
    assert "vanishes" in cond.note
