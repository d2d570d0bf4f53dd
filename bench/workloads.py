"""The benchmark's workloads: seeded job lists, warm-up jobs and checks.

A workload turns a seed into a fixed list of jobs.  Every parameter of a
job kind is drawn stratified over its range: each job owns one 1/n slice
of the range, and the seed places the value within that slice.  So the
work of each job, and of a pass, varies little from seed to seed while
every seed still gives each job its own beam, target and kinematics.

Jobs call catscatter through module attributes (``an.azimuthal_asymmetry``,
``sc.event_density``, ...) at call time, so the traced run sees every call
through its wrappers.

Each job's output is checked after the timed passes against an
independent route at a tightened tolerance, the agreement that
``catscatter validate`` relies on: closed form against 2-D quadrature, 4-D
cubature against 2-D quadrature, the Wigner normalization against 1, and
Wigner grids against a second, independently written Wigner formula.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Callable

import numpy as np

import catscatter.analysis as an
import catscatter.cli as cli
import catscatter.scattering as sc
import catscatter.states as st
from catscatter.analysis import AsymmetrySpec
from catscatter.quadrature import (
    DEFAULT_SPEC_1D,
    DEFAULT_SPEC_2D,
    DEFAULT_SPEC_4D,
    QuadratureSpec,
)
from catscatter.scattering import ScatteringConfig
from catscatter.states import BeamState
from catscatter.targets import Kinematics, TargetProfile

DEG = math.pi / 180.0
EPS = 2.0 ** -52

# Tightened reference specs, as in ``catscatter validate``.
REF_CLOSED = QuadratureSpec(rel_tol=1e-10)
REF_QUAD2D = QuadratureSpec(rel_tol=1e-8, max_subdivisions=20_000)
WNORM_SPEC = QuadratureSpec(rel_tol=1e-4, abs_tol=1e-6)  # wigner_normalization default


# ---------------------------------------------------------------------------
# Jobs and checks
# ---------------------------------------------------------------------------


@dataclass
class Job:
    """One closed-loop request.  ``run`` is timed; ``collect`` (untimed)
    turns its return value into the output that is compared across passes
    and checked by ``verify(output, verdict, first_pass_outputs)``."""

    kind: str
    run: Callable[[], object]
    verify: Callable[[object, "Verdict", list], None]
    collect: Callable[[object], object] | None = None


class Verdict:
    """Failures of one job's checks, plus (err_est, true error) pairs."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.err_pairs: list[tuple[float, float]] = []

    def fail(self, msg: str) -> None:
        self.failures.append(msg)

    def value(self, label, value, err, tol, ref, ref_err, ref_tol) -> None:
        """Check one value against its reference.

        ``tol``/``ref_tol`` are the requested absolute tolerances.  The
        value fails if it misses them, or if the difference exceeds the
        two error estimates together (a dishonest error bound).
        """
        diff = abs(value - ref)
        self.err_pairs.append((err, max(diff, 4.0 * EPS * abs(ref))))
        if not diff <= tol + ref_tol:
            self.fail(f"{label}: |{value!r} - ref {ref!r}| = {diff:.3e} "
                      f"misses tolerance {tol + ref_tol:.3e}")
        if not diff <= err + ref_err:
            self.fail(f"{label}: |{value!r} - ref {ref!r}| = {diff:.3e} "
                      f"exceeds err_est {err:.3e} + ref err_est {ref_err:.3e}")


def freeze(obj):
    """Exact, comparable form of an output (floats by their bits, bytes by
    their SHA-256)."""
    if isinstance(obj, bytes):
        return hashlib.sha256(obj).digest()
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (list, tuple)):
        return tuple(freeze(v) for v in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, freeze(v)) for k, v in obj.items()))
    if is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            freeze(getattr(obj, f.name)) for f in fields(obj))
    return obj


def strata(rng: random.Random, n: int, lo: float, hi: float, name: str) -> list[float]:
    """n values in [lo, hi), one per 1/n slice of the range.  Which job gets
    which slice depends on ``name`` alone, so the seed moves each value only
    within its slice and every seed gives jobs of nearly the same costs."""
    order = random.Random(name).sample(range(n), n)
    return [lo + (hi - lo) * (k + rng.random()) / n for k in order]


def draws(rng: random.Random, n: int, ratio_hi: float = 2.0) -> list[dict]:
    """n parameter sets for one group of jobs, each parameter stratified
    over its range across the group."""
    ranges = {"sp": (1.6, 2.4), "ratio": (1.0, ratio_hi), "phi_r0": (0.0, math.pi),
              "theta": (5.0 * DEG, 15.0 * DEG), "p": (8.0, 12.0), "sigma_t": (15.0, 25.0),
              "b_r": (0.0, 3.0), "b_phi": (0.0, 2.0 * math.pi)}
    cols = {k: strata(rng, n, lo, hi, k) for k, (lo, hi) in ranges.items()}
    return [{k: v[i] for k, v in cols.items()} for i in range(n)]


def make_state(variant: str, d: dict) -> BeamState:
    sp, ratio = d["sp"], d["ratio"]
    if variant == "gaussian":
        return BeamState.gaussian(sp)
    if variant == "anisotropic":
        # Axis ratio tied to the drawn r0/sigma so the draw stays stratified.
        return BeamState.anisotropic(sp, sp * (0.5 + 0.5 * ratio))
    maker = {"even_cat": BeamState.even_cat, "odd_cat": BeamState.odd_cat,
             "incoherent_pair": BeamState.incoherent_pair}[variant]
    return maker(sp, ratio * sp, phi_r0=d["phi_r0"])


def make_target(wide: bool, d: dict) -> TargetProfile:
    if wide:
        return TargetProfile.wide()
    b_r, b_phi = d["b_r"], d["b_phi"]
    return TargetProfile.gaussian(d["sigma_t"], (b_r * math.cos(b_phi), b_r * math.sin(b_phi)))


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------


def _closed(state, target, kin):
    return sc.event_density_cat_closed(ScatteringConfig(state, target, quad=REF_CLOSED), kin)


def reference_dnu(state: BeamState, target: TargetProfile, kin: Kinematics,
                  route: str) -> tuple[float, float, float]:
    """(value, err_est, relative tolerance) of dnu by a route other than
    ``route``: closed form <-> 2-D quadrature, 4-D cubature <-> 2-D
    quadrature.  Round Gaussians and mixtures reach the closed form through
    exact identities: the Gaussian is the even cat at r0 = 0, and the
    mixture is the overlap-weighted mean of the even and odd cats."""
    v = state.variant
    if route in ("closed_form", "general4d"):
        cfg = ScatteringConfig(state, target, quad=REF_QUAD2D)
        if v in ("gaussian", "anisotropic"):
            ed = sc.event_density_gaussian(cfg, kin)
        else:
            ed = sc.event_density_cat_quadrature(cfg, kin)
        return ed.value, ed.err_est, REF_QUAD2D.rel_tol
    if v in ("even_cat", "odd_cat"):
        ed = _closed(state, target, kin)
        return ed.value, ed.err_est, REF_CLOSED.rel_tol
    if v == "gaussian":
        ed = _closed(BeamState.even_cat(state.sigma_perp, 0.0), target, kin)
        return ed.value, ed.err_est, REF_CLOSED.rel_tol
    if v == "incoherent_pair":
        ov = state.packet_overlap
        args = (state.sigma_perp, state.r0)
        e = _closed(BeamState.even_cat(*args, phi_r0=state.phi_r0), target, kin)
        o = _closed(BeamState.odd_cat(*args, phi_r0=state.phi_r0), target, kin)
        return (0.5 * ((1 + ov) * e.value + (1 - ov) * o.value),
                0.5 * ((1 + ov) * e.err_est + (1 - ov) * o.err_est),
                REF_CLOSED.rel_tol)
    ed = sc.event_density_general(ScatteringConfig(state, target), kin)
    return ed.value, ed.err_est, DEFAULT_SPEC_4D.rel_tol


def check_dnu(v: Verdict, label: str, state, target, kin, ed, job_rel_tol) -> None:
    ref, ref_err, ref_tol = reference_dnu(state, target, kin, ed.method)
    v.value(label, ed.value, ed.err_est, job_rel_tol * abs(ref), ref, ref_err,
            ref_tol * abs(ref))


def _asym(p_perp, p_par, e_perp, e_par):
    s = p_perp + p_par
    return (p_perp - p_par) / s, 2.0 * (p_par * e_perp + p_perp * e_par) / (s * s)


def asym_pair(cfg: ScatteringConfig, kin: Kinematics, route: str):
    """(A, err) from the para/perp dnu: by the job's closed form when
    ``route`` is closed_form, else by the 2-D reference quadrature."""
    phi0 = cfg.state.phi_r0
    out = []
    for phi in (phi0 + 0.5 * math.pi, phi0):
        k = kin.with_phi(phi)
        if route == "closed_form":
            ed = sc.event_density_cat_closed(cfg, k)
        else:
            ed = sc.event_density_cat_quadrature(replace(cfg, quad=REF_QUAD2D), k)
        out.append(ed)
    return _asym(out[0].value, out[1].value, out[0].err_est, out[1].err_est)


def check_asym(v: Verdict, label: str, cfg: ScatteringConfig, kin: Kinematics, a_val: float) -> None:
    """A from closed-form dnu against A recomputed from the reference dnu
    at phi_r0 and phi_r0 + pi/2."""
    _, a_err = asym_pair(cfg, kin, "closed_form")
    a_ref, ref_err = asym_pair(cfg, kin, "reference")
    span = 1.0 - a_ref * a_ref
    v.value(label, a_val, a_err, DEFAULT_SPEC_1D.rel_tol * span, a_ref, ref_err,
            REF_QUAD2D.rel_tol * span)


def wigner_ref(state: BeamState, x, y, px, py) -> np.ndarray:
    """Wigner function in the cosh form, written apart from catscatter."""
    if state.variant == "anisotropic":
        sx, sy = state.sigma_x, state.sigma_y
        return np.exp(-2 * (sx * px) ** 2 - 2 * (sy * py) ** 2
                      - x * x / (2 * sx * sx) - y * y / (2 * sy * sy)) / math.pi ** 2
    s2 = state.sigma_perp ** 2
    r2 = x * x + y * y
    gp = np.exp(-2.0 * s2 * (px * px + py * py)) / math.pi ** 2
    if state.variant == "gaussian":
        return gp * np.exp(-r2 / (2 * s2))
    r0x = state.r0 * math.cos(state.phi_r0)
    r0y = state.r0 * math.sin(state.phi_r0)
    disp = np.exp(-(r2 + state.r0 ** 2) / (2 * s2)) * np.cosh((r0x * x + r0y * y) / s2)
    if state.variant == "incoherent_pair":
        return gp * disp
    sign = 1.0 if state.variant == "even_cat" else -1.0
    ov = math.exp(-state.r0 ** 2 / (2 * s2))
    fringe = np.exp(-r2 / (2 * s2)) * np.cos(2.0 * (r0x * px + r0y * py))
    return gp * (disp + sign * fringe) / (1.0 + sign * ov)


def check_wigner(v: Verdict, label: str, state, coords, w) -> None:
    ref = wigner_ref(state, *coords)
    scale = float(np.max(np.abs(ref)))
    worst = float(np.max(np.abs(np.asarray(w) - ref)))
    if not worst <= 1e-12 * scale:
        v.fail(f"{label}: Wigner values off the reference by {worst:.3e} "
               f"(scale {scale:.3e})")


# ---------------------------------------------------------------------------
# scan_closed
# ---------------------------------------------------------------------------

CATS = ("even_cat", "odd_cat")
PEAK_GRID = tuple(np.linspace(1.0 * DEG, 45.0 * DEG, 50))


def _asym_job(spec: AsymmetrySpec) -> Job:
    def verify(res, v, _):
        check_asym(v, "A", spec.cfg, spec.kin_base, res.A)

    return Job("asymmetry", lambda: an.azimuthal_asymmetry(spec), verify)


def _peak_job(cfg: ScatteringConfig, p: float) -> Job:
    def verify(res, v, _):
        phi0 = cfg.state.phi_r0
        kins = [Kinematics(p, p, th, phi0) for th in PEAK_GRID]
        prof = [asym_pair(cfg, k, "closed_form") for k in kins]
        i = int(np.argmax([abs(a) for a, _ in prof]))
        lo = min(max(i - 1, 0), len(kins) - 3)
        win = range(lo, lo + 3)
        ref = [asym_pair(cfg, kins[j], "reference") for j in win]
        th = [PEAK_GRID[j] for j in win]
        y_ref = [abs(a) for a, _ in ref]
        eps_err = [prof[j][1] + r[1] for j, r in zip(win, ref)]
        eps_tol = [(DEFAULT_SPEC_1D.rel_tol + REF_QUAD2D.rel_tol) * (1 - y * y)
                   for y in y_ref]
        best = an.find_peak(th, y_ref)
        for what, eps in (("error bound", eps_err), ("tolerance", eps_tol)):
            d_th = d_val = 0.0
            for corner in range(8):
                ys = [y + (e if (corner >> k) & 1 else -e)
                      for k, (y, e) in enumerate(zip(y_ref, eps))]
                pk = an.find_peak(th, ys)
                d_th = max(d_th, abs(pk.theta_star - best.theta_star))
                d_val = max(d_val, abs(pk.dnu_star - best.dnu_star))
            if not abs(res.theta_star - best.theta_star) <= d_th + 1e-15:
                v.fail(f"peak theta* {res.theta_star!r} vs ref {best.theta_star!r} "
                       f"beyond the {what} ({d_th:.3e})")
            if not abs(res.dnu_star - best.dnu_star) <= d_val + 1e-15:
                v.fail(f"peak |A|* {res.dnu_star!r} vs ref {best.dnu_star!r} "
                       f"beyond the {what} ({d_val:.3e})")

    return Job("peak_theta", lambda: an.peak_theta(
        cfg, p, PEAK_GRID, profile="asymmetry", method="closed_form"), verify)


def _sweep_job(spec: AsymmetrySpec, values: list[float]) -> Job:
    def verify(rows, v, _):
        for row in rows:
            if row.result is None:
                v.fail(f"sweep r0={row.value!r} failed: {row.error}")
                continue
            cfg = replace(spec.cfg, state=spec.cfg.state.with_r0(row.value))
            check_asym(v, f"sweep r0={row.value!r} A", cfg, spec.kin_base, row.result.A)

    return Job("sweep", lambda: an.sweep(spec, "r0", values, workers=1), verify)


def scan_closed(seed: int) -> list[Job]:
    """56 closed-form 64-phi asymmetries, 2 asymmetry profiles, 1 r0 sweep."""
    rng = random.Random(seed)
    jobs = []
    for k, d in enumerate(draws(rng, 56)):
        cfg = ScatteringConfig(make_state(CATS[k % 2], d), make_target(k % 4 < 2, d))
        spec = AsymmetrySpec(cfg=cfg, kin_base=Kinematics.elastic(d["p"], d["theta"]),
                             phi_grid_n=64, method="closed_form")
        jobs.append(_asym_job(spec))
    # Profiles and the sweep go at fixed places so every pass has the same mix.
    for k, d in enumerate(draws(rng, 2, ratio_hi=1.5)):
        cfg = ScatteringConfig(make_state(CATS[k], d), TargetProfile.wide())
        jobs.insert(20 + 20 * k, _peak_job(cfg, 2.5 * d["p"]))  # p in [20, 30]
    d = draws(rng, 1, ratio_hi=1.0)[0]
    spec = AsymmetrySpec(cfg=ScatteringConfig(make_state("even_cat", d), TargetProfile.wide()),
                         kin_base=Kinematics.elastic(d["p"], d["theta"]),
                         phi_grid_n=64, method="closed_form")
    jobs.append(_sweep_job(spec, [f * d["sp"] for f in (1.0, 1.4, 1.8, 2.2)]))
    return jobs


def scan_closed_warmup() -> Job:
    spec = AsymmetrySpec(cfg=ScatteringConfig(BeamState.odd_cat(2.0, 3.0), TargetProfile.wide()),
                         kin_base=Kinematics.elastic(10.0, 10.0 * DEG),
                         phi_grid_n=64, method="closed_form")
    return _asym_job(spec)


# ---------------------------------------------------------------------------
# grid_quad2d
# ---------------------------------------------------------------------------

# (variant, wide target) of each row of a pass, in two groups: light rows
# and cat rows, each drawn stratified as a whole.  Anisotropic beams run on
# finite targets only: their one independent route is the 4-D cubature,
# which needs a finite target.  Light rows outnumber cat rows so that p50
# falls among the light rows and p90 among the cat rows, away from the
# boundary between them.
GRID_GROUPS = (
    (("gaussian", True),) * 3 + (("gaussian", False),) * 3 + (("anisotropic", False),) * 3
    + (("incoherent_pair", True),) * 3 + (("incoherent_pair", False),) * 3,
    (("even_cat", True),) * 2 + (("even_cat", False),) * 2
    + (("odd_cat", True),) * 2 + (("odd_cat", False),) * 2,
)
ROW_PHI = 16


def _row_job(cfg: ScatteringConfig, kin: Kinematics, phi_off: float) -> Job:
    phis = [phi_off + 2.0 * math.pi * k / ROW_PHI for k in range(ROW_PHI)]

    def run():
        return [sc.event_density(cfg, kin.with_phi(f), method="quadrature2d") for f in phis]

    def verify(row, v, _):
        for f, ed in zip(phis, row):
            check_dnu(v, f"dnu(phi={f!r})", cfg.state, cfg.target, kin.with_phi(f),
                      ed, DEFAULT_SPEC_2D.rel_tol)

    return Job(cfg.state.variant, run, verify)


def grid_quad2d(seed: int) -> list[Job]:
    """theta x phi rows of 16 phi by 2-D quadrature over five beam variants."""
    rng = random.Random(seed)
    jobs = []
    for group in GRID_GROUPS:
        for (variant, wide), d in zip(group, draws(rng, len(group))):
            cfg = ScatteringConfig(make_state(variant, d), make_target(wide, d))
            # The phi grid's offset reuses the stratified b0 azimuth draw.
            jobs.append(_row_job(cfg, Kinematics.elastic(d["p"], d["theta"]),
                                 d["b_phi"] / ROW_PHI))
    return jobs


def grid_quad2d_warmup() -> Job:
    cfg = ScatteringConfig(BeamState.gaussian(2.0), TargetProfile.wide())
    return _row_job(cfg, Kinematics.elastic(10.0, 10.0 * DEG), 0.0)


# ---------------------------------------------------------------------------
# oracle_4d
# ---------------------------------------------------------------------------

# (job, variants) of each group of a pass.  Cats keep their separation on a
# grid axis (phi_r0 in {0, pi/2}) and r0/sigma in [1, 1.3]: an oblique or
# wider separation multiplies the 4-D cost by 3-10x, and a handful of such
# draws would decide a pass's time by themselves.  The ~25 ms jobs (Gaussian
# and anisotropic 4-D dnu, light normalizations) are 61 % of a pass, so p50
# falls inside them; the cat jobs (130-320 ms) are the top 21 %, so p90
# falls inside those.
ORACLE_GROUPS = (
    ("general4d", ("gaussian",) * 7 + ("anisotropic",) * 7 + ("incoherent_pair",) * 3),
    ("general4d", ("even_cat",) * 2 + ("odd_cat",) * 2),
    ("wigner_normalization", ("gaussian", "anisotropic", "incoherent_pair")),
    ("wigner_normalization", CATS),
    ("negativity_scan", CATS),
)


def _g4_job(cfg: ScatteringConfig, kin: Kinematics) -> Job:
    def verify(ed, v, _):
        check_dnu(v, "dnu", cfg.state, cfg.target, kin, ed, DEFAULT_SPEC_4D.rel_tol)

    return Job("general4d", lambda: sc.event_density(cfg, kin, method="general4d"), verify)


def _wnorm_job(state: BeamState) -> Job:
    def verify(res, v, _):
        tol = max(WNORM_SPEC.abs_tol, WNORM_SPEC.rel_tol * abs(res.value))
        v.value("normalization", res.value, res.err_est, tol, 1.0, 0.0, 0.0)

    return Job("wigner_normalization", lambda: st.wigner_normalization(state), verify)


def _default_grid(state: BeamState, n: int):
    """Axes of the default negativity_scan box: 4 widths plus |r0| in
    position, 4 inverse widths in momentum, endpoint-exclusive."""
    sx, sy = state.widths
    r0x, r0y = abs(state.r0 * math.cos(state.phi_r0)), abs(state.r0 * math.sin(state.phi_r0))
    lims = (4.0 * sx + r0x, 4.0 * sy + r0y, 4.0 / sx, 4.0 / sy)
    return [-a + 2.0 * a * np.arange(n) / n for a in lims]


def _negscan_job(state: BeamState) -> Job:
    def verify(res, v, _):
        w = wigner_ref(state, *np.meshgrid(*_default_grid(state, res.grid_n), indexing="ij"))
        tau = 1e-12 * float(np.max(np.abs(w)))
        n = w.size
        if not abs(res.min_value - float(w.min())) <= tau:
            v.fail(f"negativity min {res.min_value!r} vs ref {float(w.min())!r}")
        lo, hi = np.count_nonzero(w < -tau) / n, np.count_nonzero(w < tau) / n
        if not lo <= res.negative_volume_fraction <= hi:
            v.fail(f"negative fraction {res.negative_volume_fraction!r} outside [{lo!r}, {hi!r}]")
        at = float(wigner_ref(state, *res.min_location.r, *res.min_location.p))
        if not abs(at - res.min_value) <= tau:
            v.fail(f"W at reported minimum {at!r} != min_value {res.min_value!r}")

    return Job("negativity_scan", lambda: st.negativity_scan(state, mode="full"), verify)


def oracle_4d(seed: int) -> list[Job]:
    """4-D cubature event densities, 4-D normalizations and 4-D grid scans."""
    rng = random.Random(seed)
    jobs = []
    for kind, variants in ORACLE_GROUPS:
        cat = variants[0] in CATS
        for variant, d in zip(variants, draws(rng, len(variants), 1.3 if cat else 2.0)):
            if cat:
                d["phi_r0"] = 0.5 * math.pi * (d["phi_r0"] > 0.5 * math.pi)
            state = make_state(variant, d)
            if kind == "general4d":
                cfg = ScatteringConfig(state, make_target(False, d))
                jobs.append(_g4_job(cfg, Kinematics.elastic(d["p"], d["theta"])))
            elif kind == "wigner_normalization":
                jobs.append(_wnorm_job(state))
            else:
                jobs.append(_negscan_job(state))
    return jobs


def oracle_4d_warmup() -> Job:
    cfg = ScatteringConfig(BeamState.gaussian(2.0), TargetProfile.gaussian(20.0))
    return _g4_job(cfg, Kinematics.elastic(10.0, 10.0 * DEG))


# ---------------------------------------------------------------------------
# cli_roundtrip
# ---------------------------------------------------------------------------

CLI_STATE_FLAG = {"gaussian": "gaussian", "even_cat": "even-cat", "odd_cat": "odd-cat",
                  "incoherent_pair": "mixture"}


@contextlib.contextmanager
def scratch_dir(path: str):
    """A directory for CLI outputs inside the checkout, removed afterwards."""
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _cli_call(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _state_args(state: BeamState) -> list[str]:
    args = ["--state", CLI_STATE_FLAG[state.variant], "--sigma-perp", repr(state.sigma_perp)]
    if state.variant != "gaussian":
        args += ["--r0", repr(state.r0), "--phi-r0", repr(state.phi_r0 / DEG)]
    return args


def _cli_state(state: BeamState) -> BeamState:
    """The state the CLI builds from ``_state_args`` (degrees round trip)."""
    if state.variant == "gaussian":
        return state
    return replace(state, phi_r0=(state.phi_r0 / DEG) * DEG)


def _cli_pair(kind: str, argv: list[str], out: str, check, write_index: int) -> list[Job]:
    """A CLI run written with --out (job ``write_index`` of the list) and
    its replay from the sidecar."""
    sidecar = out + ".config.json"

    def collect(code):
        return (code, _read(out), _read(sidecar))

    def verify_write(res, v, _):
        code, body, _ = res
        if code != 0:
            v.fail(f"catscatter {' '.join(argv)} exited {code}")
            return
        check(body.decode("utf-8"), v)

    write = Job(f"cli.{kind}", lambda: _cli_call(argv + ["--out", out]), verify_write, collect)

    def verify_replay(res, v, outs):
        if res[0] != 0:
            v.fail(f"replay of {sidecar} exited {res[0]}")
        elif res != outs[write_index]:
            v.fail(f"replay of {sidecar} did not reproduce the output byte for byte")

    replay = Job(f"cli.{kind}.replay", lambda: _cli_call(["--config", sidecar]),
                 verify_replay, collect)
    return [write, replay]


def _check_scatter(state, target, p):
    def check(text, v):
        for row in csv.DictReader(io.StringIO(text)):
            kin = Kinematics(p, p, float(row["theta_deg"]) * DEG, float(row["phi_deg"]) * DEG)
            value = float(row["dsigma"] if target.wide_limit else row["dnu"])
            ed = sc.EventDensity(value, row["method"], float(row["err_est"]), None,
                                 target.wide_limit)
            tol = DEFAULT_SPEC_1D.rel_tol if row["method"] == "closed_form" else DEFAULT_SPEC_2D.rel_tol
            check_dnu(v, f"scatter row {row['theta_deg']},{row['phi_deg']}", state, target,
                      kin, ed, tol)
    return check


def _check_asym_rows(state, p, theta_deg):
    def check(text, v):
        if text.lstrip().startswith("{"):
            rows = json.loads(text)["rows"]
        else:
            rows = [[float(r["axis_value"]), float(r["theta_deg"]), float(r["A"])]
                    for r in csv.DictReader(io.StringIO(text))]
        for row in rows:
            s = state.with_r0(row[0]) if state.r0 else state
            cfg = ScatteringConfig(s, TargetProfile.wide())
            check_asym(v, f"cli A(r0={row[0]!r})", cfg,
                       Kinematics(p, p, theta_deg * DEG, state.phi_r0), row[2])
    return check


def _check_wigner(state):
    def check(text, v):
        rows = list(csv.reader(io.StringIO(text)))
        data = np.array(rows[1:], dtype=float)
        if rows[0] == ["x", "px", "w"]:
            ex, ey = math.cos(state.phi_r0), math.sin(state.phi_r0)
            u, pu = data[:, 0], data[:, 1]
            coords = (u * ex, u * ey, pu * ex, pu * ey)
        else:
            coords = tuple(data[:, k] for k in range(4))
        check_wigner(v, "cli wigner", state, coords, data[:, -1])
    return check


def _check_validate(text, v):
    last = text.strip().splitlines()[-1]
    passed, total = last.split()[0].split("/")
    if passed != total:
        v.fail(f"validate: {last}")


def cli_roundtrip(seed: int, workdir: str) -> list[Job]:
    """In-process catscatter runs of all five subcommands, each replayed.

    Of the 86 runs of a pass, scatter runs (~10 ms) are the first 33 %,
    asymmetry runs (~20 ms) the next 51 % and r0 sweeps (~45 ms) the next
    9 %, so p50 falls among the asymmetries and p90 among the sweeps.  The
    Wigner exports and validate are the top 7 %; p90 stays off them because
    their row formatting and file traffic slow down far more than the
    closed-form jobs when the machine is busy.
    """
    rng = random.Random(seed)
    specs = []  # (kind, argv, check)
    # 14 scatter runs: 2 theta x 4 phi on wide targets, closed form (cats) or
    # 2-D quadrature (Gaussian, mixture).
    variants = ("gaussian", "incoherent_pair", "even_cat", "odd_cat")
    for k, d in enumerate(draws(rng, 14)):
        state = _cli_state(make_state(variants[k % 4], d))
        th = d["theta"] / DEG
        argv = ["scatter", *_state_args(state), "--pi", repr(d["p"]), "--wide",
                "--theta", f"{th!r}:{th + 2.0!r}:2", "--phi-grid", "4"]
        specs.append(("scatter", argv, _check_scatter(state, TargetProfile.wide(), d["p"])))
    # 22 asymmetry runs (JSON) and 4 r0 sweeps, closed form on wide targets.
    for k, d in enumerate(draws(rng, 26)):
        state = _cli_state(make_state(CATS[k % 2], d))
        th = d["theta"] / DEG
        common = [*_state_args(state), "--pi", repr(d["p"]), "--wide", "--theta", repr(th),
                  "--phi-grid", "16"]
        check = _check_asym_rows(state, d["p"], th)
        if k < 22:
            specs.append(("asymmetry", ["asymmetry", *common, "--format", "json"], check))
        else:
            values = ",".join(repr(f * state.sigma_perp) for f in (1.0, 1.5, 2.0))
            specs.append(("sweep", ["sweep", "--axis", "r0", "--values", values, *common], check))
    # Wigner exports: a slice and a full 4-D grid, plus validate.
    for k, d in enumerate(draws(rng, 2)):
        mode = "full" if k == 1 else "slice"
        state = _cli_state(make_state(CATS[k % 2], d))
        grid = "128" if mode == "slice" else "16"
        specs.append((f"wigner-{mode}", ["wigner", *_state_args(state), "--mode", mode,
                                         "--grid", grid], _check_wigner(state)))
    specs.append(("validate", ["validate"], _check_validate))

    jobs = []
    for i, (kind, argv, check) in enumerate(specs):
        ext = "json" if "--format" in argv else "csv"
        jobs += _cli_pair(kind, argv, os.path.join(workdir, f"run{i}.{ext}"), check, len(jobs))
    return jobs


def cli_roundtrip_warmup(workdir: str) -> Job:
    argv = ["asymmetry", "--state", "odd-cat", "--sigma-perp", "2", "--r0", "3", "--wide",
            "--phi-grid", "16"]
    check = _check_asym_rows(BeamState.odd_cat(2.0, 3.0), 10.0, 10.0)
    return _cli_pair("asymmetry", argv, os.path.join(workdir, "warmup.csv"), check, 0)[0]


def cli_rows(output) -> int:
    """Data rows of one CLI output (CSV lines, JSON rows or report lines)."""
    body = output[1].decode("utf-8")
    if body.lstrip().startswith("{"):
        return len(json.loads(body)["rows"])
    lines = body.count("\n")
    return lines if body.startswith(("PASS", "FAIL")) else lines - 1


WORKLOADS = ("scan_closed", "grid_quad2d", "oracle_4d", "cli_roundtrip")


def build(name: str, seed: int, workdir: str) -> tuple[list[Job], Job]:
    """(timed jobs, warm-up job) of a workload."""
    if name == "scan_closed":
        return scan_closed(seed), scan_closed_warmup()
    if name == "grid_quad2d":
        return grid_quad2d(seed), grid_quad2d_warmup()
    if name == "oracle_4d":
        return oracle_4d(seed), oracle_4d_warmup()
    if name == "cli_roundtrip":
        return cli_roundtrip(seed, workdir), cli_roundtrip_warmup(workdir)
    raise ValueError(f"unknown workload {name!r}; pick one of {WORKLOADS}")
