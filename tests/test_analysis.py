import contextlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from catscatter import analysis, cli
from catscatter.analysis import (
    AsymmetrySpec,
    _phi_grid,
    azimuthal_asymmetry,
    detect_oscillation,
    find_peak,
    peak_theta,
    sweep,
)
from catscatter.errors import DegenerateDenominator, FlatDistribution, TooFewPoints
from catscatter import scattering
from catscatter.scattering import (
    EventDensity,
    ScatteringConfig,
    event_density,
    event_density_grid,
)
from catscatter.states import BeamState
from catscatter.targets import Kinematics, TargetProfile

DEG = math.pi / 180.0
WIDE = TargetProfile.wide()


def spec_for(state, theta_deg=10.0, p=10.0, metric="para_perp", phi_grid_n=16,
             method="auto"):
    return AsymmetrySpec(
        cfg=ScatteringConfig(state=state, target=WIDE),
        kin_base=Kinematics.elastic(p, theta_deg * DEG),
        phi_grid_n=phi_grid_n, metric=metric, method=method)


# -- zero tests ----------------------------------------------------------------


def test_gaussian_asymmetry_vanishes():
    res = azimuthal_asymmetry(spec_for(BeamState.gaussian(2.0)))
    assert abs(res.A) <= 1e-8
    assert all(v >= 0.0 for _, v in res.phi_scan)


def test_mixture_asymmetry_vanishes():
    res = azimuthal_asymmetry(spec_for(BeamState.incoherent_pair(2.0, 4.0)))
    assert abs(res.A) <= 1e-8


# -- magnitude bands ------------------------------------------------------------


def test_odd_cat_reference_band():
    res = azimuthal_asymmetry(spec_for(BeamState.odd_cat(2.0, 2.0)))
    assert 0.03 <= abs(res.A) <= 0.2
    assert abs(res.A) <= 1.0
    assert res.theta == pytest.approx(10.0 * DEG)


def test_metric_consistency():
    pp = azimuthal_asymmetry(spec_for(BeamState.odd_cat(2.0, 2.0)))
    mm = azimuthal_asymmetry(spec_for(BeamState.odd_cat(2.0, 2.0), metric="minmax"))
    assert mm.A >= abs(pp.A) - 1e-12
    assert 0.0 <= mm.A <= 1.0


def test_rotation_covariance():
    # Rotating the separation azimuth together with the kinematics leaves
    # the asymmetry unchanged.
    base = azimuthal_asymmetry(spec_for(BeamState.even_cat(2.0, 4.0)))
    rot = 0.8
    spec = AsymmetrySpec(
        cfg=ScatteringConfig(state=BeamState.even_cat(2.0, 4.0, phi_r0=rot), target=WIDE),
        kin_base=Kinematics.elastic(10.0, 10.0 * DEG, rot),
        phi_grid_n=16, metric="para_perp")
    res = azimuthal_asymmetry(spec)
    assert res.A == pytest.approx(base.A, rel=1e-10, abs=1e-14)


def test_degenerate_denominator(monkeypatch):
    monkeypatch.setattr("catscatter.scattering.hydrogen_amplitude", np.zeros_like)
    with pytest.raises(DegenerateDenominator):
        azimuthal_asymmetry(AsymmetrySpec(
            cfg=ScatteringConfig(state=BeamState.even_cat(2.0, 4.0), target=WIDE),
            kin_base=Kinematics.elastic(10.0, 10.0 * DEG),
            phi_grid_n=8, method="quadrature2d"))


def test_phi_scan_contains_reference_azimuths():
    res = azimuthal_asymmetry(spec_for(BeamState.even_cat(2.0, 4.0, phi_r0=0.3)))
    phis = [p for p, _ in res.phi_scan]
    assert any(abs(p - 0.3) < 1e-12 for p in phis)
    assert any(abs(p - (0.3 + math.pi / 2)) < 1e-12 for p in phis)


@pytest.mark.parametrize("phi_r0", [0.0, 0.3, 2.0, 5.9])
def test_phi_grid_holds_both_reference_azimuths_exactly(phi_r0):
    cfg = ScatteringConfig(state=BeamState.even_cat(2.0, 4.0, phi_r0=phi_r0), target=WIDE)
    for n in range(8, 129):
        grid = _phi_grid(AsymmetrySpec(cfg=cfg, kin_base=Kinematics.elastic(10.0, 0.1),
                                       phi_grid_n=n))
        assert len(grid) == 4 * math.ceil(n / 4)
        assert grid[0] == phi_r0
        assert grid[len(grid) // 4] == phi_r0 + 0.5 * math.pi


@pytest.mark.parametrize("method", ["closed_form", "quadrature2d"])
def test_para_perp_reads_the_scan_samples(method):
    res = azimuthal_asymmetry(spec_for(BeamState.odd_cat(2.0, 3.0, phi_r0=0.3),
                                       phi_grid_n=8, method=method))
    d_par, d_perp = res.phi_scan[0][1], res.phi_scan[2][1]
    assert res.A == (d_perp - d_par) / (d_perp + d_par)


FIVE_BEAMS = [BeamState.gaussian(2.0), BeamState.even_cat(2.0, 4.0, phi_r0=0.3),
              BeamState.odd_cat(2.0, 3.0, phi_r0=0.3),
              BeamState.incoherent_pair(2.0, 4.0, phi_r0=0.3), BeamState.anisotropic(1.0, 2.5)]


@pytest.mark.parametrize("method, n", [("closed_form", 64), ("quadrature2d", 8)])
@pytest.mark.parametrize("target", [WIDE, TargetProfile.gaussian(20.0, (3.0, -2.0))])
@pytest.mark.parametrize("state", FIVE_BEAMS, ids=lambda s: s.variant)
def test_reduced_scan_matches_a_full_scan(state, target, method, n):
    # The scan computes q + 1 azimuths and mirrors the rest; every entry
    # must agree with the whole grid evaluated point for point.
    spec = AsymmetrySpec(cfg=ScatteringConfig(state=state, target=target),
                         kin_base=Kinematics.elastic(10.0, 10.0 * DEG),
                         phi_grid_n=n, method=method)
    grid = _phi_grid(spec)
    full = event_density_grid(spec.cfg, spec.kin_base, [spec.kin_base.theta], grid,
                              method=method)
    vals, errs = full.value[0].tolist(), full.err_est[0].tolist()
    res = azimuthal_asymmetry(spec)
    q = len(grid) // 4
    assert [p for p, _ in res.phi_scan] == grid.tolist()
    for k, (_, v) in enumerate(res.phi_scan):
        m = min(k % (2 * q), 2 * q - k % (2 * q))  # the computed sample it copies
        assert abs(v - vals[k]) <= errs[k] + errs[m]
    # Each extreme may be off by two err_est, which moves (hi - lo)/(hi + lo)
    # by at most twice that over (hi + lo).
    hi, lo = max(vals), min(vals)
    off = 2.0 * max(errs)
    mm = azimuthal_asymmetry(replace(spec, metric="minmax"))
    assert abs(mm.A - (hi - lo) / (hi + lo)) <= 2.0 * off / (hi + lo)


@pytest.mark.parametrize("n, distinct", [(64, 17), (8, 3), (10, 4)])
def test_scan_evaluates_only_the_distinct_azimuths(monkeypatch, n, distinct):
    sizes = []

    def counting(cfg, kin_base, thetas, phis, method="auto"):
        sizes.append((len(thetas), len(phis)))
        return event_density_grid(cfg, kin_base, thetas, phis, method=method)

    monkeypatch.setattr(analysis, "event_density_grid", counting)
    res = azimuthal_asymmetry(spec_for(BeamState.odd_cat(2.0, 3.0), phi_grid_n=n))
    assert sizes == [(1, distinct)]
    assert len(res.phi_scan) == 4 * (distinct - 1)


# 300 samples hold 76 distinct azimuths, past the 64 kinematics of one batch.
@pytest.mark.parametrize("n", [10, 64, 300])
@pytest.mark.parametrize("target", [WIDE, TargetProfile.gaussian(20.0, (3.0, -2.0))],
                         ids=["wide", "offset"])
@pytest.mark.parametrize("state", FIVE_BEAMS, ids=lambda s: s.variant)
def test_array_scan_equals_the_list_path_bit_for_bit(state, target, n):
    # The phi scan's list holds the grid's values, mirrored, bit for bit.
    spec = AsymmetrySpec(cfg=ScatteringConfig(state=state, target=target),
                         kin_base=Kinematics.elastic(10.0, 10.0 * DEG),
                         phi_grid_n=n, method="closed_form")
    grid = _phi_grid(spec)
    q = len(grid) // 4
    values = event_density_grid(spec.cfg, spec.kin_base, [spec.kin_base.theta],
                                grid[:q + 1]).value[0].tolist()
    k = np.arange(4 * q) % (2 * q)
    want = [values[j] for j in np.minimum(k, 2 * q - k)]
    res = azimuthal_asymmetry(spec)
    assert [v for _, v in res.phi_scan] == want
    assert res.A == (want[q] - want[0]) / (want[q] + want[0])


@pytest.mark.parametrize("method", ["auto", "quadrature2d", "nope"])
def test_an_empty_scan_gives_empty_arrays(method):
    spec = spec_for(BeamState.even_cat(2.0, 4.0))
    for thetas, phis in (([0.1], []), ([], [0.0, 1.0])):
        if method == "nope":
            with pytest.raises(ValueError, match="unknown method"):
                event_density_grid(spec.cfg, spec.kin_base, thetas, phis, method=method)
            continue
        ed = event_density_grid(spec.cfg, spec.kin_base, thetas, phis, method=method)
        assert ed.value.shape == ed.err_est.shape == (len(thetas), len(phis))


@pytest.fixture
def construction_counts(monkeypatch):
    """Counts of closed-form integrals, Kinematics and EventDensity built."""
    counts = {"integrate_1d": 0, "Kinematics": 0, "EventDensity": 0}

    def count(owner, attr, name):
        fn = getattr(owner, attr)

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapped)

    count(scattering, "integrate_1d", "integrate_1d")
    count(Kinematics, "__post_init__", "Kinematics")
    count(EventDensity, "__init__", "EventDensity")
    return counts


@pytest.mark.parametrize("state", FIVE_BEAMS, ids=lambda s: s.variant)
def test_closed_form_scan_builds_no_per_azimuth_objects(construction_counts, state):
    cfg = ScatteringConfig(state=state, target=TargetProfile.gaussian(20.0, (3.0, -2.0)))
    spec = replace(spec_for(state, phi_grid_n=64), cfg=cfg)
    assert len(azimuthal_asymmetry(spec).phi_scan) == 64
    # One integral and one grid result; the spec's own kinematics is all there is.
    assert construction_counts == {"integrate_1d": 1, "Kinematics": 1, "EventDensity": 1}
    # The 2-D and 4-D grids build one result and nothing per cell either.
    for method in ("quadrature2d", "general4d"):
        for key in construction_counts:
            construction_counts[key] = 0
        ed = event_density_grid(cfg, spec.kin_base, [spec.kin_base.theta], [0.0, 1.0], method)
        assert ed.value.shape == (1, 2)
        assert construction_counts == {"integrate_1d": 0, "Kinematics": 0, "EventDensity": 1}
    # A one-point event density is one result too, not a grid result and its copy.
    for method in ("closed_form", "quadrature2d", "general4d"):
        construction_counts["EventDensity"] = 0
        assert isinstance(event_density(cfg, spec.kin_base, method).value, float)
        assert construction_counts["EventDensity"] == 1


@pytest.mark.parametrize("state", [FIVE_BEAMS[0], FIVE_BEAMS[2]], ids=lambda s: s.variant)
def test_peak_theta_and_cli_scatter_build_no_per_point_objects(construction_counts, state):
    # A 90-theta profile (90 or 180 cells, 64 to an integral) and a 3 x 16
    # CLI grid: one Kinematics for the momenta and one grid result each.
    cfg = ScatteringConfig(state=state, target=TargetProfile.gaussian(20.0, (3.0, -2.0)))
    peak_theta(cfg, 20.0)
    assert construction_counts == {"integrate_1d": 2 if state.parity == 0 else 3,
                                   "Kinematics": 1, "EventDensity": 1}
    for key in construction_counts:
        construction_counts[key] = 0
    flags = ["--state", "odd-cat", "--r0", "3"] if state.parity else []
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["scatter", *flags, "--sigma-t", "20", "--theta", "5:15:3"]) == 0
    assert construction_counts == {"integrate_1d": 1, "Kinematics": 1, "EventDensity": 1}


# -- sweeps ---------------------------------------------------------------------


def test_r0_sweep_reference_points():
    rows = sweep(spec_for(BeamState.odd_cat(2.0, 2.0)), "r0", [2.0, 3.0, 4.0])
    assert [r.value for r in rows] == [2.0, 3.0, 4.0]
    for row in rows:
        assert row.result is not None
        assert abs(row.result.A) > 0.005


def test_sigma_sweep_fixed_ratio_scaling():
    rows = sweep(spec_for(BeamState.even_cat(2.0, 4.0)), "sigma_perp",
                 [2.0, 4.0], r0_ratio=2.0)
    a2, a4 = (abs(r.result.A) for r in rows)
    assert a4 < a2
    ratio = a4 / a2
    assert 0.25 / 3.0 <= ratio <= 0.25 * 3.0


def test_sweep_errors_recorded_in_row():
    rows = sweep(spec_for(BeamState.odd_cat(2.0, 2.0)), "r0", [2.0, -1.0, 3.0])
    assert rows[0].result is not None and rows[2].result is not None
    assert rows[1].result is None and "Error" in rows[1].error


def test_sweep_workers_preserve_order():
    seq = sweep(spec_for(BeamState.even_cat(2.0, 4.0)), "r0", [2.0, 3.0, 4.0])
    par = sweep(spec_for(BeamState.even_cat(2.0, 4.0)), "r0", [2.0, 3.0, 4.0],
                workers=3)
    assert [r.value for r in par] == [r.value for r in seq]
    assert [r.result.A for r in par] == [r.result.A for r in seq]


def test_p_i_sweep_rejects_inelastic_kinematics():
    kin = Kinematics(10.0, 12.0, 8.0 * DEG)
    spec = replace(spec_for(BeamState.even_cat(2.0, 3.0)), kin_base=kin)
    with pytest.raises(ValueError, match="p_i sweep"):
        sweep(spec, "p_i", [10.0, 20.0])
    with pytest.warns(UserWarning, match="inelastic"):  # other axes keep p_f
        assert sweep(spec, "r0", [3.0])[0].result is not None


def test_sweep_rejects_bad_axis_and_empty_values():
    with pytest.raises(ValueError):
        sweep(spec_for(BeamState.gaussian(2.0)), "nope", [1.0])
    with pytest.raises(ValueError):
        sweep(spec_for(BeamState.gaussian(2.0)), "r0", [])
    with pytest.raises(ValueError, match="nonempty"):
        sweep(spec_for(BeamState.gaussian(2.0)), "r0", np.array([]))
    rows = sweep(spec_for(BeamState.odd_cat(2.0, 2.0)), "r0", np.array([2.0, 3.0]))
    assert [(r.value, r.error) for r in rows] == [(2.0, None), (3.0, None)]


def test_an_unknown_method_is_rejected_when_the_spec_is_built():
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        spec_for(BeamState.gaussian(2.0), method="nope")


def test_a_fractional_phi_grid_is_rejected_when_the_spec_is_built():
    for n in (8.5, 64.0):
        with pytest.raises(ValueError, match="phi_grid_n must be an integer"):
            spec_for(BeamState.gaussian(2.0), phi_grid_n=n)
    assert spec_for(BeamState.gaussian(2.0), phi_grid_n=np.int64(8)).phi_grid_n == 8


def test_an_anisotropic_sigma_perp_sweep_is_rejected():
    # The anisotropic beam never reads sigma_perp, so every row would be the same.
    spec = spec_for(BeamState.anisotropic(1.0, 2.0))
    with pytest.raises(ValueError, match="sigma_x and sigma_y"):
        sweep(spec, "sigma_perp", [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="nonempty"):
        sweep(spec, "sigma_perp", [])
    assert [r.error for r in sweep(spec, "theta", [0.1, 0.2])] == [None, None]


# -- oscillation detection --------------------------------------------------------


def test_constant_series_is_monotonic():
    rep = detect_oscillation([(float(i), 0.05) for i in range(6)])
    assert rep.sign_changes == 0
    assert rep.is_monotonic


def test_alternating_series_counts_changes():
    rep = detect_oscillation([(0, 1.0), (1, -1.0), (2, 1.0), (3, -1.0), (4, 1.0)])
    assert rep.sign_changes == 4
    assert not rep.is_monotonic


def test_too_few_points():
    with pytest.raises(TooFewPoints):
        detect_oscillation([(0, 1.0), (1, 2.0)])
    with pytest.raises(ValueError):
        detect_oscillation([(0, 1.0), (0, 2.0), (1, 1.0), (2, 1.0), (3, 1.0)])


def test_anisotropy_sweep_is_monotonic():
    series = []
    for ratio in np.linspace(1.0, 1.2, 5):
        res = azimuthal_asymmetry(spec_for(
            BeamState.anisotropic(2.0, 2.0 * ratio), metric="minmax", phi_grid_n=16))
        series.append((float(ratio), res.A))
    rep = detect_oscillation(series)
    assert rep.is_monotonic


def test_even_cat_r0_series_oscillates():
    th = peak_theta(ScatteringConfig(BeamState.even_cat(2.0, 2.0), WIDE), 20.0)
    rows = sweep(spec_for(BeamState.even_cat(2.0, 2.0), theta_deg=th.theta_star / DEG,
                          p=20.0),
                 "r0", list(np.linspace(2.0, 6.0, 9)))
    rep = detect_oscillation([(r.value, r.result.A) for r in rows])
    assert not rep.is_monotonic


# -- peak finding -----------------------------------------------------------------


def test_find_peak_parabolic_refinement():
    grid = np.linspace(0.0, 1.0, 51)
    true_peak = 0.437
    vals = np.exp(-0.5 * (grid - true_peak) ** 2 / 0.09)
    pk = find_peak(grid, vals)
    assert not pk.on_boundary
    assert pk.theta_star == pytest.approx(true_peak, abs=2e-4)


def test_find_peak_monotone_profile_flagged_on_boundary():
    grid = np.linspace(0.0, 1.0, 60)
    pk = find_peak(grid, np.exp(-3.0 * grid))
    assert pk.on_boundary
    assert pk.theta_star == 0.0


def test_find_peak_flat_profile_raises():
    grid = np.linspace(0.0, 1.0, 60)
    with pytest.raises(FlatDistribution):
        find_peak(grid, np.full_like(grid, 2.0) + 1e-6 * grid)


@pytest.mark.parametrize("make", [BeamState.even_cat, BeamState.odd_cat])
def test_identically_zero_asymmetry_profile_names_its_flat_value(make):
    # At r0/sigma_perp = 10 the damped fringe is below rounding: every A(theta) is 0.
    cfg = ScatteringConfig(make(2.0, 20.0), TargetProfile.wide())
    with pytest.raises(FlatDistribution) as exc:
        peak_theta(cfg, 10.0, profile="asymmetry")
    assert "inf" not in str(exc.value)
    assert str(exc.value) == "profile is flat: every value is 0.0"


def test_gaussian_rate_peak_moves_down_with_energy():
    cfgg = ScatteringConfig(BeamState.gaussian(2.0), WIDE)
    pk30 = peak_theta(cfgg, 30.0)
    pk10 = peak_theta(cfgg, 10.0)
    assert pk10.theta_star > pk30.theta_star
    assert not pk30.on_boundary and not pk10.on_boundary


def test_cat_asymmetry_peak_tracks_reported_angles():
    # The asymmetry profile peaks near 2/p radians: about 3.7 deg at
    # p = 30/a and near 10 deg at p = 10/a.
    cfg = ScatteringConfig(BeamState.even_cat(2.0, 2.0), WIDE)
    pk30 = peak_theta(cfg, 30.0)
    pk10 = peak_theta(cfg, 10.0)
    assert 3.0 * DEG <= pk30.theta_star <= 7.0 * DEG
    assert 8.0 * DEG <= pk10.theta_star <= 14.0 * DEG


@pytest.mark.parametrize("target", [WIDE, TargetProfile.gaussian(20.0, (1.0, -2.0))])
def test_peak_theta_profile_is_one_batch(monkeypatch, target):
    # The whole asymmetry profile is one event_density_grid call, and each
    # of its values agrees with a call per theta within the summed err_est.
    cfg = ScatteringConfig(BeamState.odd_cat(2.0, 3.0, phi_r0=0.4), target)
    calls = []

    def recording(cfg_, kin_base, thetas, phis, method="auto"):
        ed = event_density_grid(cfg_, kin_base, thetas, phis, method=method)
        calls.append((kin_base, list(thetas), list(phis), ed))
        return ed

    monkeypatch.setattr(analysis, "event_density_grid", recording)
    pk = peak_theta(cfg, 20.0)
    assert len(calls) == 1
    kin_base, thetas, phis, batch = calls[0]
    th = np.linspace(math.radians(1.0), math.radians(45.0), 90)
    assert (kin_base.p_i, kin_base.p_f) == (20.0, 20.0)
    assert thetas == th.tolist() and phis == [0.4, 0.4 + 0.5 * math.pi]
    per_theta = [event_density_grid(cfg, kin_base, [t], phis) for t in thetas]
    for i, one in enumerate(per_theta):
        assert np.all(abs(batch.value[i] - one.value[0]) <= batch.err_est[i] + one.err_est[0])
    profile = [abs((perp - par) / (perp + par)) for par, perp in
               (one.value[0].tolist() for one in per_theta)]
    assert abs(find_peak(th, profile).theta_star - pk.theta_star) <= 1e-6


def test_peak_theta_quadrature2d_rate_profile_matches_point_loop():
    cfg = ScatteringConfig(BeamState.gaussian(2.0), TargetProfile.gaussian(20.0, (1.0, -2.0)))
    th = np.linspace(math.radians(1.0), math.radians(45.0), 90)
    vals = [math.sin(t) * event_density(cfg, Kinematics(20.0, 20.0, float(t), 0.0),
                                        method="quadrature2d").value for t in th]
    assert peak_theta(cfg, 20.0, method="quadrature2d") == find_peak(th, vals)


def test_peak_theta_grid_contract():
    cfg = ScatteringConfig(BeamState.gaussian(2.0), WIDE)
    with pytest.raises(ValueError):
        peak_theta(cfg, 10.0, theta_grid=np.linspace(2 * DEG, 45 * DEG, 60))
    with pytest.raises(ValueError):
        peak_theta(cfg, 10.0, theta_grid=np.linspace(1 * DEG, 45 * DEG, 20))
