"""Azimuthal-asymmetry metrics, parameter sweeps, oscillation detection
and polar-angle peak finding.

The azimuthal asymmetry contrasts the event density parallel and
perpendicular to the packet-separation azimuth:

    A = [dnu(phi_r0 + pi/2) - dnu(phi_r0)] / [dnu(phi_r0 + pi/2) + dnu(phi_r0)]

(``para_perp`` metric, signed).  dnu(phi) is pi-periodic and reflection
symmetric about phi_r0, so these two azimuths are the extremes of the
interference term and a phi-vs-(phi+pi) contrast would vanish
identically.  The model-free ``minmax`` metric
``(max - min)/(max + min)`` over the phi scan is kept as a fallback; it
bounds the para/perp contrast from above whenever the scan contains both
azimuths (the generated grids always do).

For every beam dnu depends on phi only through |cos(phi - phi_r0)|
(the anisotropic beam has phi_r0 = 0), so a scan of 4q samples over the
whole turn holds q + 1 distinct values: only those azimuths are computed,
and the other entries are copies of their mirror images.

Every evaluation here is one ``scattering.event_density_grid`` call: an
asymmetry's phi scan is its 1 x (q + 1) grid, a ``peak_theta`` profile its
theta x 1 (rate) or theta x 2 (asymmetry) grid.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import DegenerateDenominator, FlatDistribution, TooFewPoints
from .scattering import METHOD_SPECS, ScatteringConfig, event_density_grid
from .targets import Kinematics

__all__ = [
    "AsymmetrySpec",
    "AsymmetryResult",
    "SweepRow",
    "OscillationReport",
    "PeakResult",
    "azimuthal_asymmetry",
    "sweep",
    "detect_oscillation",
    "find_peak",
    "peak_theta",
]

SWEEP_AXES = ("r0", "sigma_perp", "theta", "p_i")


@dataclass(frozen=True)
class AsymmetrySpec:
    """One asymmetry evaluation: configuration, base kinematics, phi grid."""

    cfg: ScatteringConfig
    kin_base: Kinematics
    phi_grid_n: int = 64
    metric: str = "para_perp"
    method: str = "auto"

    def __post_init__(self) -> None:
        if self.phi_grid_n < 8:
            raise ValueError("phi_grid_n must be >= 8")
        if self.metric not in ("para_perp", "minmax"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.method not in METHOD_SPECS:
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class AsymmetryResult:
    A: float
    phi_scan: tuple[tuple[float, float], ...]
    theta: float
    metric: str
    params_echo: dict = field(default_factory=dict)


def _phi_grid(spec: AsymmetrySpec) -> np.ndarray:
    # Whole quarter turns, so phi_r0 and phi_r0 + pi/2 sit exactly on the
    # grid (samples 0 and n/4): 2 pi k/n would round off the quarter turn.
    quarter = (spec.phi_grid_n + 3) // 4
    return spec.cfg.state.phi_r0 + 0.5 * math.pi * (np.arange(4 * quarter) / quarter)


def _para_perp(d_par: float, d_perp: float) -> float:
    denom = d_perp + d_par
    if abs(denom) < 1e-300:
        raise DegenerateDenominator("event density vanished at both reference azimuths")
    return (d_perp - d_par) / denom


def _echo(spec: AsymmetrySpec) -> dict:
    st, tg = spec.cfg.state, spec.cfg.target
    return {
        "variant": st.variant,
        "sigma_perp": st.sigma_perp,
        "sigma_x": st.sigma_x,
        "sigma_y": st.sigma_y,
        "r0": st.r0,
        "phi_r0": st.phi_r0,
        "p_i": spec.kin_base.p_i,
        "p_f": spec.kin_base.p_f,
        "theta": spec.kin_base.theta,
        "wide": tg.wide_limit,
        "sigma_t": tg.sigma_t,
        "b0": tuple(tg.b0),
        "metric": spec.metric,
        "method": spec.method,
    }


def azimuthal_asymmetry(spec: AsymmetrySpec) -> AsymmetryResult:
    """Evaluate the azimuthal asymmetry with its full phi scan.

    Only the q + 1 azimuths phi_r0 + (pi/2)(k/q), k = 0..q, are computed,
    as one row of :func:`~catscatter.scattering.event_density_grid`, which
    the closed form evaluates without a per-azimuth kinematics or result
    object.  dnu is pi-periodic and even about phi_r0, so scan entry
    k equals sample min(k mod 2q, 2q - k mod 2q) and is copied from it
    exactly.

    Raises ``DegenerateDenominator`` when both azimuthal samples vanish
    (below 1e-300), which can only happen for unphysical inputs.
    """
    phis = _phi_grid(spec)
    q = len(phis) // 4
    ed = event_density_grid(spec.cfg, spec.kin_base, [spec.kin_base.theta], phis[:q + 1],
                            method=spec.method)
    k = np.arange(4 * q) % (2 * q)
    vals = ed.value[0, np.minimum(k, 2 * q - k)].tolist()
    scan = tuple(zip(phis.tolist(), vals))
    if spec.metric == "para_perp":
        a_val = _para_perp(vals[0], vals[q])
    else:
        hi, lo = max(vals), min(vals)
        if abs(hi + lo) < 1e-300:
            raise DegenerateDenominator("event density vanished on the phi grid")
        a_val = (hi - lo) / (hi + lo)
    return AsymmetryResult(A=a_val, phi_scan=scan, theta=spec.kin_base.theta,
                           metric=spec.metric, params_echo=_echo(spec))


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    result: AsymmetryResult | None
    error: str | None = None


def _spec_at(spec: AsymmetrySpec, axis: str, value: float,
             r0_ratio: float | None) -> AsymmetrySpec:
    st, kin = spec.cfg.state, spec.kin_base
    if axis == "r0":
        st = st.with_r0(value)
    elif axis == "sigma_perp":
        st = replace(st, sigma_perp=value,
                     r0=r0_ratio * value if r0_ratio is not None else st.r0)
    elif axis == "theta":
        kin = Kinematics(kin.p_i, kin.p_f, value, kin.phi)
    elif axis == "p_i":
        st = replace(st, p_i=value)
        kin = Kinematics(value, value, kin.theta, kin.phi)
    return replace(spec, cfg=replace(spec.cfg, state=st), kin_base=kin)


def sweep(
    spec: AsymmetrySpec,
    axis: str,
    values: Sequence[float],
    r0_ratio: float | None = None,
    workers: int = 1,
) -> list[SweepRow]:
    """One asymmetry per value along the chosen axis, in input order.

    ``sigma_perp`` sweeps keep the absolute ``r0`` unless ``r0_ratio`` is
    given, in which case ``r0 = r0_ratio * sigma_perp`` at every point
    (fixed reduced separation).  ``p_i`` sweeps set ``p_f = p_i`` at every
    point, so an inelastic ``spec.kin_base`` raises ``ValueError``.
    Per-point failures are recorded in-row and the sweep continues.  Points
    are independent; with ``workers > 1`` they are evaluated concurrently
    and reassembled in input order.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")
    if not len(values):
        raise ValueError("values must be nonempty")
    if axis == "p_i" and not spec.kin_base.is_elastic:
        raise ValueError(f"a p_i sweep sets p_f = p_i, got inelastic {spec.kin_base}")

    def run(v: float) -> SweepRow:
        try:
            res = azimuthal_asymmetry(_spec_at(spec, axis, v, r0_ratio))
            return SweepRow(axis=axis, value=float(v), result=res)
        except Exception as exc:  # per-point errors stay in-row
            return SweepRow(axis=axis, value=float(v), result=None,
                            error=f"{type(exc).__name__}: {exc}")

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, values))
    return [run(v) for v in values]


@dataclass(frozen=True)
class OscillationReport:
    sign_changes: int
    is_monotonic: bool


def detect_oscillation(series: Sequence[tuple[float, float]]) -> OscillationReport:
    """Count strict sign changes of A over an increasing parameter series.

    ``is_monotonic`` is the non-strict monotonicity of A (no strict sign
    change among the nonzero first differences); a constant series is
    monotonic with zero sign changes.
    """
    if len(series) < 5:
        raise TooFewPoints(f"need >= 5 points, got {len(series)}")
    x = np.array([p[0] for p in series], dtype=float)
    a_val = np.array([p[1] for p in series], dtype=float)
    if not np.all(np.diff(x) > 0):
        raise ValueError("series abscissae must be strictly increasing")

    def strict_changes(v: np.ndarray) -> int:
        signs = np.sign(v)
        signs = signs[signs != 0]
        return int(np.count_nonzero(np.diff(signs) != 0))

    return OscillationReport(
        sign_changes=strict_changes(a_val),
        is_monotonic=strict_changes(np.diff(a_val)) == 0,
    )


@dataclass(frozen=True)
class PeakResult:
    theta_star: float
    dnu_star: float
    on_boundary: bool


def find_peak(theta_grid: Sequence[float], values: Sequence[float]) -> PeakResult:
    """Locate the profile maximum, parabolic-refined around the grid argmax.

    Raises ``FlatDistribution`` when every value is equal, or when a
    positive profile has max/min < 1.01.  A maximum on the grid edge
    (e.g. a monotone profile) is returned unrefined with ``on_boundary``
    set.
    """
    th = np.asarray(theta_grid, dtype=float)
    v = np.asarray(values, dtype=float)
    if th.shape != v.shape or th.ndim != 1 or len(th) < 3:
        raise ValueError("theta_grid and values must be matching 1-D arrays")
    vmin, vmax = float(v.min()), float(v.max())
    if vmax <= vmin:
        raise FlatDistribution(f"profile is flat: every value is {vmax!r}")
    if vmin > 0 and vmax / vmin < 1.01:
        raise FlatDistribution(f"profile contrast max/min = {vmax / vmin:.4f} < 1.01")
    i = int(np.argmax(v))
    if i == 0 or i == len(v) - 1:
        return PeakResult(float(th[i]), float(v[i]), on_boundary=True)
    x0, x1, x2 = th[i - 1], th[i], th[i + 1]
    y0, y1, y2 = v[i - 1], v[i], v[i + 1]
    denom = (y0 - 2.0 * y1 + y2)
    if denom >= 0:  # numerically flat top; keep the grid point
        return PeakResult(float(x1), float(y1), on_boundary=False)
    dx = 0.5 * (y0 - y2) / denom * (x1 - x0)
    dx = float(np.clip(dx, -(x1 - x0), x2 - x1))
    peak_v = y1 - 0.25 * (y0 - y2) * dx / (x1 - x0)
    return PeakResult(float(x1 + dx), float(peak_v), on_boundary=False)


def peak_theta(
    cfg: ScatteringConfig,
    p_i: float,
    theta_grid: Sequence[float] | None = None,
    profile: str = "auto",
    method: str = "auto",
) -> PeakResult:
    """Peak of the polar-angle profile at the separation azimuth.

    Two profiles are available.  ``rate`` is the event rate per unit polar
    angle, sin(theta) * dnu/dOmega at phi = phi_r0 (the plain dnu/dOmega
    is monotone decreasing off hydrogen, so the detected theta
    distribution carries the solid-angle factor).  ``asymmetry`` is
    |A(theta)| of the para/perp metric, the profile whose peak tracks the
    interference working point of cat beams.  ``auto`` picks ``asymmetry``
    for cat states and ``rate`` otherwise.

    The grid must cover [1 deg, 45 deg] with at least 50 points (default
    90); the location is refined by a local parabolic fit.  The whole
    profile is one :func:`~catscatter.scattering.event_density_grid` call.
    """
    if theta_grid is None:
        theta_grid = np.linspace(math.radians(1.0), math.radians(45.0), 90)
    th = np.asarray(theta_grid, dtype=float)
    if len(th) < 50 or th[0] > math.radians(1.0) + 1e-12 or th[-1] < math.radians(45.0) - 1e-12:
        raise ValueError("theta_grid must cover [1 deg, 45 deg] with >= 50 points")
    if profile == "auto":
        profile = "asymmetry" if cfg.state.is_cat else "rate"
    if profile not in ("rate", "asymmetry"):
        raise ValueError(f"unknown profile {profile!r}")

    phi0 = cfg.state.phi_r0
    phis = (phi0,) if profile == "rate" else (phi0, phi0 + 0.5 * math.pi)
    values = event_density_grid(cfg, Kinematics.elastic(p_i, 0.0), th, phis,
                                method=method).value.tolist()
    if profile == "rate":
        vals = [math.sin(theta) * v for theta, (v,) in zip(th.tolist(), values)]
    else:
        vals = [abs(_para_perp(par, perp)) for par, perp in values]
    return find_peak(th, vals)
