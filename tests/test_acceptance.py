"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Two sub-criteria are implemented exactly as stated although the
underlying claims are analytically unattainable (see the failing tests'
docstrings); they are expected to stay red and are reported honestly.
"""

import math
import subprocess
import sys
import time

import numpy as np

from catscatter.analysis import (
    AsymmetrySpec,
    azimuthal_asymmetry,
    detect_oscillation,
    peak_theta,
    sweep,
)
from catscatter.quadrature import QuadratureSpec
from catscatter.scattering import (
    ScatteringConfig,
    event_density_cat_closed,
    event_density_cat_quadrature,
    event_density_gaussian,
    event_density_general,
)
from catscatter.states import (
    BeamState,
    PhasePoint,
    negativity_scan,
    wigner,
    wigner_normalization,
)
from catscatter.targets import Kinematics, TargetProfile

DEG = math.pi / 180.0
PI2 = 1.0 / math.pi ** 2
WIDE = TargetProfile.wide()
TIGHT1 = QuadratureSpec(rel_tol=1e-10)
TIGHT2 = QuadratureSpec(rel_tol=1e-8, max_subdivisions=20_000)


def report(num: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


def asym(state, theta_deg=10.0, p=10.0, metric="para_perp", phi_grid_n=16):
    spec = AsymmetrySpec(
        cfg=ScatteringConfig(state=state, target=WIDE),
        kin_base=Kinematics.elastic(p, theta_deg * DEG),
        phi_grid_n=phi_grid_n, metric=metric)
    return azimuthal_asymmetry(spec)


def test_criterion_01_wigner_normalization():
    """Every variant's Wigner function integrates to 1 within 1e-4 by
    honest 4-D cubature, in seconds per state."""
    states = [("gaussian", BeamState.gaussian(2.0)),
              ("anisotropic", BeamState.anisotropic(2.0, 2.3))]
    for f in (1.0, 2.0, 3.0):
        states.append((f"even_cat r0={f}s", BeamState.even_cat(2.0, 2.0 * f)))
        states.append((f"odd_cat r0={f}s", BeamState.odd_cat(2.0, 2.0 * f)))
        states.append((f"mixture r0={f}s", BeamState.incoherent_pair(2.0, 2.0 * f)))
    worst, slowest = 0.0, 0.0
    ok = True
    for label, state in states:
        t0 = time.perf_counter()
        res = wigner_normalization(state)
        dt = time.perf_counter() - t0
        worst = max(worst, abs(res.value - 1.0))
        slowest = max(slowest, dt)
        ok &= abs(res.value - 1.0) <= 1e-4 and dt <= 60.0
    assert report("1", ok, f"max |norm-1| = {worst:.2e} <= 1e-4, "
                           f"slowest state {slowest:.2f}s")


def test_criterion_02_exact_origin_values():
    origin = PhasePoint((0.0, 0.0), (0.0, 0.0))
    wg = wigner(BeamState.gaussian(2.0), origin)
    wo = wigner(BeamState.odd_cat(2.0, 4.0), origin)
    we = wigner(BeamState.even_cat(2.0, 4.0), origin)
    ok = (abs(wg - PI2) <= 1e-12 and abs(wo + PI2) <= 1e-12
          and abs(we - PI2) <= 1e-12)
    assert report("2", ok, f"W(0,0): gaussian {wg:.15f}, odd {wo:.15f}, "
                           f"even {we:.15f} vs +/-1/pi^2 at 1e-12")


def test_criterion_03_negativity_structure():
    """Separated even cat shows negative volume; the incoherent mixture is
    nonnegative at every separation."""
    s_far = negativity_scan(BeamState.even_cat(2.0, 6.0))
    ok = s_far.negative_volume_fraction > 0.0
    mix_min = 0.0
    for f in (1.0, 2.0, 3.0):
        s_mix = negativity_scan(BeamState.incoherent_pair(2.0, 2.0 * f))
        mix_min = min(mix_min, s_mix.min_value)
        ok &= s_mix.min_value >= 0.0
    assert report("3", ok, f"even cat r0=3s negative fraction "
                           f"{s_far.negative_volume_fraction:.4f} > 0, "
                           f"mixture min {mix_min:.2e} >= 0")


def test_criterion_03_even_cat_half_sigma_positivity():
    """Criterion clause taken literally: an even cat at r0 = 0.5 sigma
    has min >= 0 on the standard scan.  Analytically false: the
    interference fringe at 2 r0 . p = pi lies inside the +/-4/sigma
    momentum box whenever r0 > pi sigma/8 ~ 0.3927 sigma, so at
    r0 = 0.5 sigma the scan floor is a genuine (if ~1e-10, nine decades
    below the peak) negative value.  Kept as stated; expected to stay
    red.  See the README for the analysis.
    """
    scan = negativity_scan(BeamState.even_cat(2.0, 1.0))
    report("3 (r0 = 0.5 sigma clause)", scan.min_value >= 0.0,
           f"min_value = {scan.min_value:.3e} (fringe floor, peak {PI2:.3f})")
    assert scan.min_value >= 0.0


def test_criterion_04_three_method_agreement():
    """closed_form vs quadrature2d within 1e-6 over the 27-point grid for
    both cats; general4d vs quadrature2d within 1e-3 on a 4-point subgrid."""
    t0 = time.perf_counter()
    target = TargetProfile.gaussian(20.0, (1.0, 0.0))
    worst12 = 0.0
    for maker in (BeamState.even_cat, BeamState.odd_cat):
        for sp in (1.0, 2.0, 4.0):
            for r0f in (1.0, 2.0, 3.0):
                for th in (5.0, 10.0, 20.0):
                    state = maker(sp, r0f * sp)
                    kin = Kinematics.elastic(10.0, th * DEG, 0.9)
                    c = event_density_cat_closed(
                        ScatteringConfig(state, target, quad=TIGHT1), kin)
                    q = event_density_cat_quadrature(
                        ScatteringConfig(state, target, quad=TIGHT2), kin)
                    worst12 = max(worst12, abs(c.value - q.value) / abs(q.value))
    ok = worst12 <= 1e-6

    worst4 = 0.0
    target0 = TargetProfile.gaussian(20.0)
    subgrid = [
        (BeamState.even_cat(2.0, 2.0), 10.0),
        (BeamState.odd_cat(2.0, 4.0), 5.0),
        (BeamState.even_cat(1.0, 1.0), 20.0),
        (BeamState.odd_cat(4.0, 4.0), 10.0),
    ]
    for state, th in subgrid:
        kin = Kinematics.elastic(10.0, th * DEG, 0.6)
        g = event_density_general(ScatteringConfig(state, target0), kin)
        q = event_density_cat_quadrature(
            ScatteringConfig(state, target0, quad=TIGHT2), kin)
        worst4 = max(worst4, abs(g.value - q.value) / abs(q.value))
    dt = time.perf_counter() - t0
    ok &= worst4 <= 1e-3 and dt <= 600.0
    assert report("4", ok, f"closed vs quad2d max rel {worst12:.2e} <= 1e-6 "
                           f"(54 pts), general4d vs quad2d max rel {worst4:.2e} "
                           f"<= 1e-3 (4 pts), {dt:.1f}s")


def test_criterion_05_phi_independence():
    """Round Gaussian (on- and off-axis) and the incoherent mixture carry
    no azimuthal dependence at theta = 10 deg."""
    phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    worst = 0.0
    cases = [
        ScatteringConfig(BeamState.gaussian(2.0),
                         TargetProfile.gaussian(20.0), quad=TIGHT2),
        ScatteringConfig(BeamState.gaussian(2.0),
                         TargetProfile.gaussian(20.0, (3.0, 0.0)), quad=TIGHT2),
    ]
    for cfg in cases:
        vals = [event_density_gaussian(cfg, Kinematics.elastic(10.0, 10 * DEG, f)).value
                for f in phis]
        worst = max(worst, (max(vals) - min(vals)) / max(vals))
    mcfg = ScatteringConfig(BeamState.incoherent_pair(2.0, 4.0),
                            TargetProfile.gaussian(20.0, (3.0, 0.0)), quad=TIGHT2)
    vals = [event_density_cat_quadrature(mcfg, Kinematics.elastic(10.0, 10 * DEG, f)).value
            for f in phis]
    worst = max(worst, (max(vals) - min(vals)) / max(vals))
    assert report("5", worst < 1e-6, f"max relative phi variation {worst:.2e} < 1e-6")


def test_criterion_06_asymmetry_magnitude():
    a_odd = asym(BeamState.odd_cat(2.0, 2.0)).A
    a_even = asym(BeamState.even_cat(2.0, 4.0)).A
    ok = 0.03 <= abs(a_odd) <= 0.2 and 0.01 <= abs(a_even) <= 0.2
    assert report("6", ok, f"|A| odd cat r0=s: {abs(a_odd):.4f} in [0.03,0.2]; "
                           f"even cat r0=2s: {abs(a_even):.4f} in [0.01,0.2]")


def test_criterion_07_width_scaling():
    """Doubling the packet width at fixed reduced separation r0 = 2 sigma
    drops the asymmetry into the 0.1-1 percent window, consistent with a
    1/sigma^2 law within a factor of 3 (both cats)."""
    ok = True
    details = []
    for maker, tag in ((BeamState.even_cat, "even"), (BeamState.odd_cat, "odd")):
        a2 = asym(maker(2.0, 4.0)).A
        a4 = asym(maker(4.0, 8.0)).A
        ratio = abs(a4 / a2)
        ok &= 0.001 <= abs(a4) <= 0.01
        ok &= 0.25 / 3.0 <= ratio <= 0.25 * 3.0
        details.append(f"{tag}: |A(4a)|={abs(a4):.5f}, ratio {ratio:.3f}")
    assert report("7", ok, "; ".join(details) + " (band [0.001,0.01], ratio vs 0.25 x3)")


def test_criterion_08_r0_oscillation():
    state = BeamState.even_cat(2.0, 2.0)
    pk = peak_theta(ScatteringConfig(state, WIDE), 20.0)
    spec = AsymmetrySpec(
        cfg=ScatteringConfig(state=state, target=WIDE),
        kin_base=Kinematics.elastic(20.0, pk.theta_star), phi_grid_n=16)
    rows = sweep(spec, "r0", list(np.linspace(2.0, 6.0, 9)))
    series = [(r.value, r.result.A) for r in rows]
    rep = detect_oscillation(series)
    a_str = " ".join(f"{a:+.4f}" for _, a in series)
    assert report("8", not rep.is_monotonic,
                  f"A(r0) at theta*={pk.theta_star / DEG:.2f} deg: {a_str} "
                  f"-> non-monotonic")


def test_criterion_09_peak_position():
    """Polar-angle peak of the azimuthal-interference profile: near 5 deg
    at p = 30/a and at larger angles for slower beams.  The reported peak
    belongs to the asymmetry-versus-theta curves of the cat states; the
    event-rate profile of a plain Gaussian is checked for the energy
    ordering clause."""
    cat = ScatteringConfig(BeamState.even_cat(2.0, 2.0), WIDE)
    pk30 = peak_theta(cat, 30.0)
    pk10 = peak_theta(cat, 10.0)
    ok = (3.0 * DEG <= pk30.theta_star <= 7.0 * DEG
          and pk10.theta_star > pk30.theta_star)
    gau = ScatteringConfig(BeamState.gaussian(2.0), WIDE)
    g30 = peak_theta(gau, 30.0)
    g10 = peak_theta(gau, 10.0)
    ok &= g10.theta_star > g30.theta_star
    assert report("9", ok,
                  f"asymmetry-profile theta*: p=30 {pk30.theta_star / DEG:.2f} deg "
                  f"in [3,7], p=10 {pk10.theta_star / DEG:.2f} deg > p=30; "
                  f"gaussian rate profile ordering {g10.theta_star / DEG:.2f} > "
                  f"{g30.theta_star / DEG:.2f}")


def test_criterion_09_gaussian_band_as_stated():
    """Criterion clause taken literally: the GAUSSIAN theta peak at
    p = 30/a lies in [3, 7] deg.  Verified unattainable: the Gaussian
    d nu/d Omega is monotone decreasing in theta (no interior peak at
    all), and the detected polar distribution sin(theta) dnu/dOmega
    peaks near 1.9 deg at p = 30/a.  The 5-degree figure belongs to the
    asymmetry profile of the cat states (tested green above).  Kept as
    stated; expected red.
    """
    gau = ScatteringConfig(BeamState.gaussian(2.0), WIDE)
    pk = peak_theta(gau, 30.0)
    ok = 3.0 * DEG <= pk.theta_star <= 7.0 * DEG
    report("9 (gaussian-band clause)", ok,
           f"gaussian rate-profile theta* = {pk.theta_star / DEG:.2f} deg, "
           f"band [3, 7] deg")
    assert ok


def test_criterion_10_false_asymmetry():
    res = asym(BeamState.anisotropic(2.0, 2.3), metric="minmax")
    ok = 0.002 <= res.A <= 0.05
    series = []
    for ratio in np.linspace(1.0, 1.2, 5):
        r = asym(BeamState.anisotropic(2.0, 2.0 * ratio), metric="minmax")
        series.append((float(ratio), r.A))
    rep = detect_oscillation(series)
    ok &= rep.is_monotonic
    assert report("10", ok, f"aniso 15% ellipticity A_minmax = {res.A:.4f} in "
                            f"[0.002,0.05]; ellipticity sweep monotonic "
                            f"(no oscillation)")


def test_criterion_11_limits():
    kin = Kinematics.elastic(10.0, 10.0 * DEG, 0.4)
    gau = event_density_gaussian(
        ScatteringConfig(BeamState.gaussian(2.0), WIDE,
                         quad=QuadratureSpec(rel_tol=1e-10, max_subdivisions=40_000)),
        kin)
    tiny = event_density_cat_closed(
        ScatteringConfig(BeamState.even_cat(2.0, 2e-6), WIDE, quad=TIGHT1), kin)
    rel0 = abs(tiny.value - gau.value) / gau.value
    ok = rel0 <= 1e-8

    def phi_var(state):
        cfg = ScatteringConfig(state, WIDE, quad=TIGHT1)
        vals = [event_density_cat_closed(
            cfg, Kinematics.elastic(10.0, 10.0 * DEG, f)).value
            for f in np.linspace(0.0, math.pi, 9)]
        return (max(vals) - min(vals)) / max(vals)

    var_sep = phi_var(BeamState.even_cat(2.0, 20.0))     # r0 = 10 sigma
    var_par = phi_var(BeamState.even_cat(100.0, 2.0))    # paraxial, physical r0
    ok &= var_sep < 1e-3 and var_par < 1e-6
    assert report("11", ok, f"r0->0 vs gaussian rel {rel0:.2e} <= 1e-8; "
                            f"r0=10s phi-var {var_sep:.2e} < 1e-3; "
                            f"sigma=100a phi-var {var_par:.2e} < 1e-6")


def test_criterion_12_cli_determinism(child_env):
    cmd = [sys.executable, "-m", "catscatter.cli", "validate"]
    r1 = subprocess.run(cmd, capture_output=True, timeout=600, env=child_env)
    r2 = subprocess.run(cmd, capture_output=True, timeout=600, env=child_env)
    ok = (r1.returncode == 0 and r2.returncode == 0
          and r1.stdout == r2.stdout and r1.stderr == r2.stderr)
    assert report("12", ok, f"validate exit {r1.returncode}, outputs bit-identical: "
                            f"{r1.stdout == r2.stdout}")
