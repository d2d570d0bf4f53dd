import math
import tracemalloc

import numpy as np
import pytest

from catscatter.errors import InvalidCatSeparation, NoPureState, UnsupportedVariant
from catscatter.quadrature import Interval, QuadratureSpec, integrate_nd
from catscatter.states import (
    BeamState,
    PhasePoint,
    kinetic_energy_keV,
    momentum_from_keV,
    momentum_wavefunction,
    negativity_scan,
    phase_space_box,
    phase_space_grid,
    phase_space_panels,
    wigner,
    wigner_grid,
    wigner_normalization,
    wigner_terms,
    wigner_values,
)

PI2 = 1.0 / math.pi ** 2
ORIGIN = PhasePoint((0.0, 0.0), (0.0, 0.0))
TIGHT2 = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12)


# -- wavefunctions ----------------------------------------------------------


def test_gaussian_wavefunction_at_origin():
    psi = momentum_wavefunction(BeamState.gaussian(1.0), (0.0, 0.0))
    assert psi == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-15)


def test_odd_cat_wavefunction_vanishes_at_origin():
    psi = momentum_wavefunction(BeamState.odd_cat(1.0, 1.5), (0.0, 0.0))
    assert psi == 0.0


def test_even_cat_wavefunction_origin_value():
    # Direct evaluation: sqrt(2/pi) * sqrt(2) / sqrt(1 + e^{-4.5}).
    psi = momentum_wavefunction(BeamState.even_cat(1.0, 3.0), (0.0, 0.0))
    expected = math.sqrt(2.0 / math.pi) * math.sqrt(2.0) / math.sqrt(1.0 + math.exp(-4.5))
    assert psi.real == pytest.approx(expected, rel=1e-15)
    assert psi.imag == 0.0


@pytest.mark.parametrize("state", [
    BeamState.gaussian(1.3),
    BeamState.even_cat(1.0, 2.2),
    BeamState.odd_cat(1.5, 1.9),
])
def test_wavefunction_normalization_by_quadrature(state):
    lim = 5.0 / state.sigma_perp

    def density(px, py):
        vals = np.fromiter(
            (abs(momentum_wavefunction(state, (a, b))) ** 2
             for a, b in zip(px.ravel(), py.ravel())),
            dtype=float, count=px.size)
        return vals.reshape(px.shape)

    r = integrate_nd(density, [Interval(-lim, lim)] * 2,
                     QuadratureSpec(rel_tol=1e-8), initial_splits=[8, 8])
    assert abs(r.value - 1.0) <= 1e-7


def test_mixed_state_has_no_wavefunction():
    with pytest.raises(NoPureState):
        momentum_wavefunction(BeamState.incoherent_pair(1.0, 2.0), (0.0, 0.0))


def test_anisotropic_wavefunction_unsupported():
    with pytest.raises(UnsupportedVariant):
        momentum_wavefunction(BeamState.anisotropic(1.0, 1.5), (0.0, 0.0))


# -- wigner values ----------------------------------------------------------


def test_gaussian_wigner_origin():
    assert wigner(BeamState.gaussian(1.0), ORIGIN) == pytest.approx(PI2, abs=1e-15)


@pytest.mark.parametrize("r0", [1.0, 2.0, 5.0])
def test_odd_cat_origin_is_minus_peak(r0):
    assert wigner(BeamState.odd_cat(1.0, r0), ORIGIN) == pytest.approx(-PI2, abs=1e-14)


def test_even_cat_origin_is_plus_peak():
    assert wigner(BeamState.even_cat(1.0, 3.0), ORIGIN) == pytest.approx(PI2, abs=1e-14)


def test_even_cat_interference_value():
    # Independent slice evaluation of the cat Wigner function at r = 0,
    # p = (pi/6, 0), sigma = 1, r0 = (3, 0): W1(0,p) (e^{-4.5}-1)/(1+e^{-4.5}).
    w = wigner(BeamState.even_cat(1.0, 3.0), PhasePoint((0.0, 0.0), (math.pi / 6.0, 0.0)))
    expected = PI2 * math.exp(-math.pi ** 2 / 18.0) \
        * (math.exp(-4.5) - 1.0) / (1.0 + math.exp(-4.5))
    assert expected == pytest.approx(-0.0572693309840492, abs=1e-13)
    assert w == pytest.approx(expected, rel=1e-14)


def test_parity_symmetry():
    rng = np.random.default_rng(7)
    states = [
        BeamState.gaussian(2.0),
        BeamState.even_cat(2.0, 3.0, phi_r0=0.7),
        BeamState.odd_cat(2.0, 2.5, phi_r0=-0.4),
        BeamState.incoherent_pair(2.0, 3.0, phi_r0=1.1),
        BeamState.anisotropic(2.0, 2.6),
    ]
    for state in states:
        for _ in range(12):
            x, y = rng.normal(scale=3.0, size=2)
            px, py = rng.normal(scale=0.8, size=2)
            wp = wigner(state, PhasePoint((x, y), (px, py)))
            wm = wigner(state, PhasePoint((-x, -y), (-px, -py)))
            assert wp == pytest.approx(wm, rel=1e-12, abs=1e-300)


def test_mixture_is_mean_of_displaced_packets():
    g = BeamState.gaussian(2.0)
    mix = BeamState.incoherent_pair(2.0, 3.0, phi_r0=0.3)
    r0x, r0y = mix.r0_vec
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, y = rng.normal(scale=4.0, size=2)
        px, py = rng.normal(scale=0.6, size=2)
        direct = wigner(mix, PhasePoint((x, y), (px, py)))
        shifted = 0.5 * (
            wigner(g, PhasePoint((x - r0x, y - r0y), (px, py)))
            + wigner(g, PhasePoint((x + r0x, y + r0y), (px, py)))
        )
        assert direct == pytest.approx(shifted, rel=1e-12, abs=1e-300)


def test_cat_minus_interference_is_mixture():
    # Dropping the cosine term and the cat normalization reproduces the
    # incoherent pair exactly.
    sp, r0 = 2.0, 3.5
    cat = BeamState.even_cat(sp, r0)
    mix = BeamState.incoherent_pair(sp, r0)
    pt = PhasePoint((1.2, -0.4), (0.3, 0.15))
    w1 = wigner_values(BeamState.gaussian(sp), *pt.r, *pt.p)
    cos_term = float(w1) * math.cos(2.0 * r0 * pt.p[0])
    rebuilt = wigner(cat, pt) * (1.0 + cat.packet_overlap) - cos_term
    assert rebuilt == pytest.approx(wigner(mix, pt), rel=1e-12)


@pytest.mark.parametrize("maker", [BeamState.even_cat, BeamState.odd_cat])
@pytest.mark.parametrize("pt", [
    PhasePoint((0.0, 0.0), (math.pi / 4.0, 0.0)),   # interference fringe
    PhasePoint((1.3, -0.6), (0.2, 0.4)),            # generic point
])
def test_wigner_matches_transform_of_wavefunction(maker, pt):
    # Definitional cross-check: W(r, p) recomputed from the momentum
    # wavefunction via the Weyl transform
    #   W = (2 pi)^-2 int d2k e^{i k.r} psi*(p - k/2) psi(p + k/2)
    # by 2-D quadrature must agree with the analytic Wigner function.
    state = maker(1.0, 2.0)

    def psi(px, py):
        vals = [momentum_wavefunction(state, (a, b))
                for a, b in zip(px.ravel(), py.ravel())]
        return np.array(vals, dtype=complex).reshape(px.shape)

    rx, ry = pt.r
    px, py = pt.p

    def integrand(kx, ky):
        prod = (np.conj(psi(px - kx / 2.0, py - ky / 2.0))
                * psi(px + kx / 2.0, py + ky / 2.0)
                * np.exp(1j * (kx * rx + ky * ry)))
        return prod.real / (2.0 * math.pi) ** 2

    lim = 10.0
    res = integrate_nd(integrand, [Interval(-lim, lim)] * 2,
                       QuadratureSpec(rel_tol=1e-8, abs_tol=1e-11),
                       initial_splits=[12, 12])
    assert res.value == pytest.approx(wigner(state, pt), abs=5e-9)


@pytest.mark.parametrize("r0", [0.5, 1.0, 2.0, 4.0])
def test_even_cat_sign_lemma(r0):
    # At r = 0 and 2 r0 . p = pi the even-cat numerator is e^{-c} - 1 < 0.
    p_star = math.pi / (2.0 * r0)
    w = wigner(BeamState.even_cat(1.0, r0), PhasePoint((0.0, 0.0), (p_star, 0.0)))
    assert w < 0.0


# -- normalization and marginals -------------------------------------------


@pytest.mark.parametrize("state", [
    BeamState.gaussian(2.0),
    BeamState.even_cat(2.0, 4.0),
    BeamState.odd_cat(2.0, 2.0),
    BeamState.incoherent_pair(2.0, 6.0),
    BeamState.anisotropic(2.0, 2.3),
])
def test_wigner_normalization(state):
    r = wigner_normalization(state)
    assert abs(r.value - 1.0) <= 1e-4


def test_oblique_separated_cat_normalization_panels():
    # A well-separated oblique cat: each momentum axis gets the fewest
    # panels holding at most pi/2 of fringe phase, ceil(2 |r0_j| * 16/3 / (pi/2))
    # on the normalization's box, and the normalization converges from them.
    state = BeamState.odd_cat(1.5, 4.0, phi_r0=0.3)
    box = phase_space_box(state.widths, state.r0_vec, 6.0, 4.0)
    assert phase_space_panels(state, box) == [9, 7, 26, 9]
    r = wigner_normalization(state)
    assert abs(r.value - 1.0) <= r.err_est


@pytest.mark.parametrize("state,p", [
    (BeamState.gaussian(1.5), (0.25, -0.1)),
    (BeamState.even_cat(1.5, 2.5), (0.4, 0.2)),
    (BeamState.odd_cat(1.5, 1.8), (0.0, 0.35)),
])
def test_position_marginal_gives_momentum_density(state, p):
    # int d2r W(r, p) = |psi(p)|^2 for the pure variants.
    lim = 8.0 * state.sigma_perp + state.r0

    def f(x, y):
        return wigner_values(state, x, y, p[0], p[1])

    r = integrate_nd(f, [Interval(-lim, lim)] * 2, TIGHT2, initial_splits=[12, 12])
    assert abs(r.value - abs(momentum_wavefunction(state, p)) ** 2) <= 1e-9


def test_momentum_marginal_matches_fourier_transform():
    # Gaussian case: the position wavefunction is computed by quadrature
    # Fourier transform and its modulus squared must equal int d2p W(r, p).
    sp = 1.5
    state = BeamState.gaussian(sp)
    r_pt = (0.7, -0.3)

    def ft_real(px, py):
        phase = px * r_pt[0] + py * r_pt[1]
        psi1 = math.sqrt(2.0 * sp * sp / math.pi) * np.exp(-sp * sp * (px * px + py * py))
        return psi1 * np.cos(phase) / (2.0 * math.pi)

    lim = 6.0 / sp
    psi_r = integrate_nd(ft_real, [Interval(-lim, lim)] * 2, TIGHT2,
                         initial_splits=[10, 10]).value

    def wp(px, py):
        return wigner_values(state, r_pt[0], r_pt[1], px, py)

    marg = integrate_nd(wp, [Interval(-lim, lim)] * 2, TIGHT2,
                        initial_splits=[10, 10]).value
    assert abs(marg - psi_r ** 2) <= 1e-9


# -- negativity scans -------------------------------------------------------


def test_gaussian_scan_everywhere_positive():
    s = negativity_scan(BeamState.gaussian(2.0))
    assert s.min_value >= 0.0
    assert s.negative_volume_fraction == 0.0


def test_odd_cat_minimum_at_origin():
    s = negativity_scan(BeamState.odd_cat(2.0, 2.0))
    assert s.min_value == pytest.approx(-PI2, abs=1e-13)
    assert s.min_location.r == (0.0, 0.0)
    assert s.min_location.p == (0.0, 0.0)


def test_even_cat_separated_has_negative_volume():
    s = negativity_scan(BeamState.even_cat(2.0, 6.0))
    assert s.negative_volume_fraction > 0.0
    assert s.min_value < -1e-3


def test_even_cat_close_packets_positive_on_scan():
    # Inside the analytic positivity region of the standard box
    # (8 r0 / sigma < pi requires r0 < ~0.39 sigma).
    s = negativity_scan(BeamState.even_cat(2.0, 0.6))
    assert s.min_value >= 0.0


@pytest.mark.parametrize("r0", [2.0, 6.0])
def test_mixture_scan_nonnegative(r0):
    s = negativity_scan(BeamState.incoherent_pair(2.0, r0))
    assert s.min_value >= 0.0
    assert s.negative_volume_fraction == 0.0


def test_full_mode_scan():
    s = negativity_scan(BeamState.even_cat(2.0, 6.0), mode="full", grid_n=24)
    assert s.negative_volume_fraction > 0.0
    assert s.mode == "full"


@pytest.mark.parametrize("phi_r0", [0.5, math.pi / 2])
def test_slice_scan_follows_the_separation_axis(phi_r0):
    # The default slice box spans 4 sigma + r0 along the separation axis,
    # so rotating a round cat's separation rotates the scanned plane.
    ref = negativity_scan(BeamState.even_cat(1.0, 6.0))
    s = negativity_scan(BeamState.even_cat(1.0, 6.0, phi_r0=phi_r0))
    assert s.negative_volume_fraction == ref.negative_volume_fraction
    assert s.min_value == pytest.approx(ref.min_value, rel=1e-12)


# All five beams; the cats and the mixture at oblique separations.
FIVE_BEAMS = [
    BeamState.gaussian(1.7),
    BeamState.even_cat(2.0, 3.1, phi_r0=0.7),
    BeamState.odd_cat(1.9, 2.6, phi_r0=2.3),
    BeamState.incoherent_pair(2.2, 3.5, phi_r0=1.1),
    BeamState.anisotropic(1.8, 2.6),
]


# A full grid of 16 is one block of W; 17 ends in a short block (289 rows,
# 226 to a block) and 32 runs 16 blocks.
DENSE_GRIDS = [("slice", 64), ("full", 16), ("full", 17), ("full", 32)]


def dense_grid(state, n, mode):
    """The dense meshgrid of ``wigner_grid``'s axes, W on it, and the lab
    coordinates W was evaluated at."""
    *views, _ = wigner_grid(state, n, mode)
    d = len(views)
    axes = [v[(0,) * k + (slice(None),) + (0,) * (d - 1 - k)] for k, v in enumerate(views)]
    dense = np.meshgrid(*axes, indexing="ij")
    lab = dense
    if mode == "slice":
        (u, pu), ex, ey = dense, math.cos(state.phi_r0), math.sin(state.phi_r0)
        lab = [u * ex, u * ey, pu * ex, pu * ey]
    return dense, wigner_values(state, *lab), lab


@pytest.mark.parametrize("mode,n", DENSE_GRIDS)
@pytest.mark.parametrize("state", FIVE_BEAMS, ids=lambda s: s.variant)
def test_open_mesh_grid_equals_the_dense_grid(state, mode, n):
    *coords, w = wigner_grid(state, n, mode)
    dense, w_dense, _ = dense_grid(state, n, mode)
    assert w.shape == w_dense.shape == (n,) * len(coords)
    assert np.array_equal(w, w_dense)
    for c, c_dense in zip(coords, dense):
        assert np.array_equal(c, c_dense)
        assert not c.flags.writeable


@pytest.mark.parametrize("mode,n", DENSE_GRIDS)
@pytest.mark.parametrize("state", FIVE_BEAMS, ids=lambda s: s.variant)
def test_negativity_scan_equals_a_scan_of_the_dense_grid(state, mode, n):
    _, w, lab = dense_grid(state, n, mode)
    flat = int(np.argmin(w))
    x, y, px, py = (float(c.ravel()[flat]) for c in lab)
    s = negativity_scan(state, grid_n=n, mode=mode)
    assert s.min_value == float(w.min())
    assert s.min_location == PhasePoint(r=(x, y), p=(px, py))
    assert s.negative_volume_fraction == float(np.count_nonzero(w < 0.0) / w.size)


def test_full_scan_memory_does_not_grow_with_the_grid():
    # A grid-48 W is 42 MB; the scan holds two blocks of 2^16 points.
    state = BeamState.odd_cat(2.0, 2.4, phi_r0=math.pi / 2)
    tracemalloc.start()
    try:
        negativity_scan(state, mode="full", grid_n=48)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


@pytest.mark.parametrize("state", FIVE_BEAMS, ids=lambda s: s.variant)
def test_wigner_values_returns_the_broadcast_shape(state):
    x, y = np.linspace(-3.0, 3.0, 5)[:, None, None], np.array([[[0.4]]])
    px, py = np.linspace(-1.0, 1.0, 3)[None, :, None], np.linspace(-0.5, 0.5, 2)
    w = wigner_values(state, x, y, px, py)
    assert w.shape == (5, 3, 2)
    assert np.array_equal(w, wigner_values(state, *np.broadcast_arrays(x, y, px, py)))
    assert type(wigner(state, PhasePoint((0.3, -0.2), (0.1, 0.05)))) is float


def textbook_wigner(state, x, y, px, py):
    """W written out in one expression per variant, as in the states docstring."""
    sx, sy = state.widths
    gauss = lambda u, v: np.exp(-2 * (sx * sx * px * px + sy * sy * py * py)
                                - u * u / (2 * sx * sx) - v * v / (2 * sy * sy)) / math.pi ** 2
    if state.variant in ("gaussian", "anisotropic"):
        return gauss(x, y)
    r0x, r0y = state.r0_vec
    bumps = 0.5 * (gauss(x - r0x, y - r0y) + gauss(x + r0x, y + r0y))
    if state.variant == "incoherent_pair":
        return bumps
    fringe = gauss(x, y) * np.cos(2 * (r0x * px + r0y * py))
    return (bumps + state.parity * fringe) / (1 + state.parity * state.packet_overlap)


@pytest.mark.parametrize("state", FIVE_BEAMS, ids=lambda s: s.variant)
def test_factors_gathered_to_the_4d_nodes_equal_wigner_values(state):
    # The position factors on random (x, y), the momentum factors on random
    # (p_x, p_y), each run without the other's coordinates as the two 2-D
    # cubatures of the product path run them, and their products summed on
    # every 4-D pair, against wigner_values and against W written out.
    rng = np.random.default_rng(5)
    sx, sy = state.widths
    x, y = (rng.uniform(-1, 1, (300, 1)) * r
            for r in (4 * sx + abs(state.r0_vec[0]), 4 * sy + abs(state.r0_vec[1])))
    px, py = (rng.uniform(-1, 1, (1, 300)) * r for r in (3 / sx, 3 / sy))
    p_k = [p for p, _ in wigner_terms(state, x, y, 0.0, 0.0)]
    m_k = [m for _, m in wigner_terms(state, 0.0, 0.0, px, py)]
    w = sum(p * m for p, m in zip(p_k, m_k))
    assert w.shape == (300, 300)
    np.testing.assert_allclose(w, wigner_values(state, x, y, px, py), rtol=1e-14, atol=0)
    ref = textbook_wigner(state, x, y, px, py)
    assert np.abs(w - ref).max() <= 1e-14 * np.abs(ref).max()


def test_scan_box_coverage_enforced():
    with pytest.raises(ValueError):
        negativity_scan(BeamState.gaussian(2.0), grid_n=8)
    # A fractional count would scan its ceiling and report the fraction.
    with pytest.raises(ValueError, match="integer"):
        negativity_scan(BeamState.gaussian(2.0), grid_n=16.5)
    with pytest.raises(ValueError, match="integer"):
        wigner_grid(BeamState.gaussian(2.0), 16.0, "full")
    with pytest.raises(ValueError, match="integer >= 1"):
        wigner_grid(BeamState.gaussian(2.0), 0, "full")


def test_phase_space_grid_contains_zero():
    g = phase_space_grid(-3.0, 3.0, 128)
    assert 0.0 in g
    assert len(g) == 128


# -- units and construction -------------------------------------------------


@pytest.mark.parametrize("p,expected", [(10.0, 1.4), (20.0, 5.6), (30.0, 12.5)])
def test_kinetic_energy_near_reported_values(p, expected):
    # Reported figure-caption energies are rounded; 5 percent tolerance.
    assert kinetic_energy_keV(p) == pytest.approx(expected, rel=0.05)


def test_energy_conversion_roundtrip():
    assert momentum_from_keV(kinetic_energy_keV(17.0)) == pytest.approx(17.0, rel=1e-14)


def test_odd_cat_separation_guards():
    with pytest.raises(InvalidCatSeparation):
        BeamState.odd_cat(2.0, 1e-5)
    with pytest.warns(UserWarning, match="r0 < sigma_perp"):
        BeamState.odd_cat(2.0, 1.0)


def test_state_field_validation():
    with pytest.raises(ValueError):
        BeamState.gaussian(-1.0)
    with pytest.raises(ValueError):
        BeamState.anisotropic(1.0, -2.0)
    with pytest.raises(ValueError):
        BeamState.gaussian(1.0, p_i=-3.0)


def test_anisotropic_state_rejects_a_separation_azimuth():
    # Its dnu is even about phi = 0, the axis every phi scan is centred on.
    with pytest.raises(ValueError, match="phi_r0 = 0"):
        BeamState("anisotropic", sigma_x=1.0, sigma_y=2.0, phi_r0=0.3)
    assert BeamState.anisotropic(1.0, 2.0).with_r0(3.0).phi_r0 == 0.0


@pytest.mark.parametrize("make", [
    lambda: BeamState.gaussian(math.nan),
    lambda: BeamState.gaussian(math.inf),
    lambda: BeamState.gaussian(2.0, p_i=math.nan),
    lambda: BeamState.gaussian(2.0, sigma_z=math.inf),
    lambda: BeamState.odd_cat(2.0, math.nan),
    lambda: BeamState.even_cat(2.0, math.inf),
    lambda: BeamState.even_cat(2.0, 3.0, phi_r0=math.nan),
    lambda: BeamState.incoherent_pair(math.nan, 3.0),
    lambda: BeamState.anisotropic(2.0, math.inf),
    lambda: BeamState.even_cat(2.0, 3.0).with_r0(math.nan),
])
def test_state_rejects_non_finite_fields(make):
    with pytest.raises(ValueError, match="finite"):
        make()
