"""Event densities d nu / d Omega by three mutually validating routes.

For a beam state with Wigner function W, a target column density n(b) and
a real Born amplitude f, the number of scattering events per solid angle
is

    d nu / d Omega = N_e * int d2b d2p  n(b) W(b, p) f(|Q - p|)^2,

where Q - p is the 3-vector (Qperp - p, Qz).  Three evaluation methods are
provided:

* ``event_density_general``      -- honest 4-D cubature of the formula
  above over truncated boxes (the brute-force oracle, any state, any
  amplitude, finite targets only);
* ``event_density_gaussian`` and ``event_density_cat_quadrature`` -- the
  target integral done analytically (Gaussian convolution), leaving a 2-D
  momentum quadrature; works for any amplitude;
* ``event_density_cat_closed``   -- hydrogen only: the momentum integral
  is also done analytically via a Schwinger parameterization, leaving a
  single exponentially damped 1-D integral

      int_0^inf dx e^{-x g(x)} (x + x^2 + x^3/6) / (1 + x a^2/(8 s^2))
          * [ displaced-packet weight
              +/- cos(2 r0.pf * fringe_scale(x)) * exp(-r0^2/(2 s^2 h(x))) ]

  with h(x) = 1 + x a^2/(8 s^2), fringe_scale = (h-1)/h, and
  g(x) = 1 + (a/2)^2 (Qz^2 + Qperp^2 / h(x)) >= 1 for all kinematics.

  ``event_densities`` evaluates a whole list of kinematics (a phi scan, a
  theta x phi grid) as one vector-valued integral on a shared panel set.
  The weight integral, the bracket's phi-free first term, is hoisted: one
  row per distinct (p_i, p_f, theta) serves every azimuth, and each
  kinematics adds one fringe row.  ``event_density_cat_closed`` is the
  one-kinematics case of the same integral.

The 2-D momentum quadratures are evaluated in the frame rotated so that
Qperp lies along +x; this is an exact change of variables (the Gaussian
weight is isotropic) and makes the azimuthal symmetry of round beams exact
instead of a quadrature accident.  Interference terms keep their relative
azimuth ``phi_r0 - phi``.

Wide-target mode takes the sigma_t -> infinity limit analytically: the
displaced-packet weight and the offset factor tend to one and the result
is reported directly as the effective cross section
``d sigma / d Omega = 2 pi Sigma^2 / N_e * d nu / d Omega`` (finite in the
limit), flagged by ``EventDensity.wide_limit``.

All computation is in Hartree atomic units.  Everything here is pure and
reentrant: event densities for many kinematics may be evaluated
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    MissingSigma,
    NegativeTotal,
    UnsupportedVariant,
)
from .quadrature import (
    DEFAULT_SPEC_1D,
    DEFAULT_SPEC_2D,
    DEFAULT_SPEC_4D,
    Interval,
    QuadratureSpec,
    integrate_1d,
    integrate_nd,
    oscillation_panels,
)
from .states import (
    ANISOTROPIC,
    EVEN_CAT,
    GAUSSIAN,
    INCOHERENT_PAIR,
    ODD_CAT,
    BeamState,
    wigner_values,
)
from .targets import Kinematics, TargetProfile, hydrogen_amplitude, momentum_transfer

__all__ = [
    "ScatteringConfig",
    "EventDensity",
    "ClosedFormTerms",
    "ValidityCondition",
    "closed_form_terms",
    "event_density_general",
    "event_density_gaussian",
    "event_density_cat_quadrature",
    "event_density_cat_closed",
    "event_density",
    "event_densities",
    "cross_section",
    "validity_check",
]

GENERAL_4D = "general4d"
QUADRATURE_2D = "quadrature2d"
CLOSED_FORM = "closed_form"

# Kinematics per closed-form batch integral: bounds the (rows x abscissae)
# arrays of one evaluation while keeping a 64-phi scan in one integral.
_BATCH_KINEMATICS = 64


@dataclass(frozen=True)
class ScatteringConfig:
    """Beam, target, electron count and quadrature budget for one run."""

    state: BeamState
    target: TargetProfile
    n_e: int = 1
    quad: QuadratureSpec | None = None

    def __post_init__(self) -> None:
        if self.n_e < 1:
            raise ValueError("n_e must be >= 1")


@dataclass(frozen=True)
class EventDensity:
    """d nu / d Omega (or d sigma / d Omega in wide-limit mode).

    ``sigma_sq`` records Sigma^2 = sigma_t^2 + sigma_perp^2 for the
    cross-section conversion; it is None in wide-limit mode (already
    converted) and for anisotropic beams on finite targets (no single
    Sigma^2 exists there).
    """

    value: float
    method: str
    err_est: float
    sigma_sq: float | None
    wide_limit: bool
    n_e: int = 1


@dataclass(frozen=True)
class ClosedFormTerms:
    """Per-node factors of the 1-D closed-form integrand."""

    x: np.ndarray
    decay_exponent: np.ndarray   # g(x) >= 1
    fringe_scale: np.ndarray     # s(x) = (h-1)/h in [0, 1)


def _default_amplitude(a: float) -> Callable:
    def f(q):
        return hydrogen_amplitude(q, a)

    return f


def _sigma_sq(target: TargetProfile, sigma_perp: float) -> float:
    return target.sigma_t ** 2 + sigma_perp ** 2


def _displaced_weight(b0: np.ndarray, r0: np.ndarray, sigma_sq: float) -> float:
    """exp(-b0^2/2S^2) cosh(b0.r0/S^2) exp(-r0^2/2S^2), overflow-safe."""
    dm = b0 - r0
    dp = b0 + r0
    return 0.5 * (
        math.exp(-(dm @ dm) / (2.0 * sigma_sq))
        + math.exp(-(dp @ dp) / (2.0 * sigma_sq))
    )


# ---------------------------------------------------------------------------
# 2-D momentum quadratures (Gaussian-convolved target)
# ---------------------------------------------------------------------------


def _p_quad(
    sigma_perp: float,
    kin: Kinematics,
    amplitude: Callable,
    spec: QuadratureSpec,
    r0: float = 0.0,
    delta: float = 0.0,
    want_cos: bool = False,
):
    """Gaussian-weighted momentum integrals in the Qperp-aligned frame.

    Returns (I1, Icos) where
    I1   = int d2q f(|Q - q|)^2 exp(-2 s^2 q^2)
    Icos = same integrand times cos(2 r0 (qx cos d + qy sin d)).
    """
    mt = momentum_transfer(kin)
    qp, qz = mt.qperp_mag, mt.qz
    lim = 4.0 / sigma_perp
    box = [Interval(-lim, lim), Interval(-lim, lim)]
    base = max(4, math.ceil(lim * sigma_perp))

    def weighted_f2(qx, qy):
        q = np.sqrt((qp - qx) ** 2 + qy * qy + qz * qz)
        amp = amplitude(q)
        return amp * amp * np.exp(-2.0 * sigma_perp ** 2 * (qx * qx + qy * qy))

    i_one = integrate_nd(weighted_f2, box, spec, initial_splits=[base, base])
    if not want_cos:
        return i_one, None

    cx, sx = 2.0 * r0 * math.cos(delta), 2.0 * r0 * math.sin(delta)
    splits = [
        max(base, oscillation_panels(2 * lim, abs(cx))),
        max(base, oscillation_panels(2 * lim, abs(sx))),
    ]

    def fringed(qx, qy):
        return weighted_f2(qx, qy) * np.cos(cx * qx + sx * qy)

    i_cos = integrate_nd(fringed, box, spec, initial_splits=splits)
    return i_one, i_cos


def event_density_gaussian(
    cfg: ScatteringConfig,
    kin: Kinematics,
    amplitude: Callable | None = None,
    a: float = 1.0,
) -> EventDensity:
    """Event density for the round Gaussian packet, and its anisotropic
    generalization, by 2-D momentum quadrature.

    The target integral is analytic (Gaussian convolution): for the round
    packet the offset enters only through ``exp(-b0^2/(2 Sigma^2))`` and
    the result carries no azimuthal dependence at all.  The anisotropic
    packet factorizes per axis with per-axis ``Sigma_j^2 = sigma_t^2 +
    sigma_j^2`` and is integrated in the lab frame.
    """
    state, target = cfg.state, cfg.target
    if state.variant not in (GAUSSIAN, ANISOTROPIC):
        raise UnsupportedVariant(
            f"event_density_gaussian expects a gaussian-like state, got {state.variant}"
        )
    amplitude = amplitude or _default_amplitude(a)
    spec = cfg.quad or DEFAULT_SPEC_2D

    if state.variant == GAUSSIAN:
        sp = state.sigma_perp
        i_one, _ = _p_quad(sp, kin, amplitude, spec)
        if target.wide_limit:
            scale = 2.0 * sp ** 2 / math.pi
            return EventDensity(scale * i_one.value, QUADRATURE_2D,
                                scale * i_one.err_est, None, True, cfg.n_e)
        ssq = _sigma_sq(target, sp)
        b0 = target.b0_vec
        pref = (cfg.n_e * sp ** 2 / (math.pi ** 2 * ssq)
                * math.exp(-(b0 @ b0) / (2.0 * ssq)))
        return EventDensity(pref * i_one.value, QUADRATURE_2D,
                            pref * i_one.err_est, ssq, False, cfg.n_e)

    # Anisotropic packet: lab frame, per-axis Gaussian weights.
    sx, sy = state.sigma_x, state.sigma_y
    mt = momentum_transfer(kin)
    qx0, qy0 = mt.qperp
    qz = mt.qz

    def weighted_f2(px, py):
        q = np.sqrt((qx0 - px) ** 2 + (qy0 - py) ** 2 + qz * qz)
        amp = amplitude(q)
        return amp * amp * np.exp(-2.0 * (sx ** 2 * px * px + sy ** 2 * py * py))

    box = [Interval(-4.0 / sx, 4.0 / sx), Interval(-4.0 / sy, 4.0 / sy)]
    splits = [max(4, math.ceil(4.0)), max(4, math.ceil(4.0))]
    i_one = integrate_nd(weighted_f2, box, spec, initial_splits=splits)
    if target.wide_limit:
        scale = 2.0 * sx * sy / math.pi
        return EventDensity(scale * i_one.value, QUADRATURE_2D,
                            scale * i_one.err_est, None, True, cfg.n_e)
    ssx = target.sigma_t ** 2 + sx ** 2
    ssy = target.sigma_t ** 2 + sy ** 2
    b0x, b0y = target.b0
    pref = (cfg.n_e * sx * sy / (math.pi ** 2 * math.sqrt(ssx * ssy))
            * math.exp(-b0x ** 2 / (2 * ssx) - b0y ** 2 / (2 * ssy)))
    return EventDensity(pref * i_one.value, QUADRATURE_2D,
                        pref * i_one.err_est, None, False, cfg.n_e)


def event_density_cat_quadrature(
    cfg: ScatteringConfig,
    kin: Kinematics,
    amplitude: Callable | None = None,
    a: float = 1.0,
) -> EventDensity:
    """Event density for the two-packet states by 2-D momentum quadrature.

    The bracket multiplying the Gaussian-weighted amplitude is the
    displaced-packet weight plus (cats) or without (incoherent pair) the
    interference fringe ``cos(2 r0 . p)``.  Any real amplitude may be
    supplied; hydrogen with radius ``a`` is the default.
    """
    state, target = cfg.state, cfg.target
    if state.variant not in (EVEN_CAT, ODD_CAT, INCOHERENT_PAIR):
        raise UnsupportedVariant(
            f"event_density_cat_quadrature expects a two-packet state, got {state.variant}"
        )
    amplitude = amplitude or _default_amplitude(a)
    spec = cfg.quad or DEFAULT_SPEC_2D
    sp = state.sigma_perp
    sign = state.parity
    delta = state.phi_r0 - kin.phi
    want_cos = sign != 0

    i_one, i_cos = _p_quad(sp, kin, amplitude, spec,
                           r0=state.r0, delta=delta, want_cos=want_cos)

    if target.wide_limit:
        scale = 2.0 * sp ** 2 / math.pi
        if sign == 0:
            value, err = i_one.value, i_one.err_est
        else:
            norm = 1.0 + sign * state.packet_overlap
            value = (i_one.value + sign * i_cos.value) / norm
            err = (i_one.err_est + i_cos.err_est) / norm
        return EventDensity(scale * value, QUADRATURE_2D, scale * err,
                            None, True, cfg.n_e)

    ssq = _sigma_sq(target, sp)
    b0 = target.b0_vec
    bw = _displaced_weight(b0, state.r0_vec, ssq)
    pref = cfg.n_e * sp ** 2 / (math.pi ** 2 * ssq)
    if sign == 0:
        value = pref * bw * i_one.value
        err = pref * bw * i_one.err_est
    else:
        off = math.exp(-(b0 @ b0) / (2.0 * ssq))
        norm = 1.0 + sign * state.packet_overlap
        value = pref * (bw * i_one.value + sign * off * i_cos.value) / norm
        err = pref * (bw * i_one.err_est + off * i_cos.err_est) / norm
    return EventDensity(value, QUADRATURE_2D, err, ssq, False, cfg.n_e)


# ---------------------------------------------------------------------------
# Hydrogen closed form (1-D)
# ---------------------------------------------------------------------------


def closed_form_terms(
    x, kin: Kinematics, sigma_perp: float, a: float = 1.0
) -> ClosedFormTerms:
    """Decay exponent and fringe scale of the closed-form integrand.

    ``decay_exponent`` is >= 1 for every real kinematics (both of its
    added terms are nonnegative); ``fringe_scale`` runs from 0 towards 1.
    """
    x = np.asarray(x, dtype=float)
    mt = momentum_transfer(kin)
    h = 1.0 + x * a ** 2 / (8.0 * sigma_perp ** 2)
    g = 1.0 + (a / 2.0) ** 2 * (mt.qz ** 2 + mt.qperp_mag ** 2 / h)
    s = (h - 1.0) / h
    return ClosedFormTerms(x=x, decay_exponent=g, fringe_scale=s)


def event_density_cat_closed(
    cfg: ScatteringConfig,
    kin: Kinematics,
    a: float = 1.0,
) -> EventDensity:
    """Cat-state event density off hydrogen via the 1-D closed form.

    The momentum integral is carried out analytically for the hydrogen
    amplitude, leaving one exponentially damped integral over the
    Schwinger parameter x.  This is the one-kinematics case of
    :func:`event_densities`, which documents the truncation and panels.
    """
    return _cat_closed_batch(cfg, [kin], a)[0]


def _cat_closed_batch(
    cfg: ScatteringConfig, kins: list[Kinematics], a: float
) -> list[EventDensity]:
    state, target = cfg.state, cfg.target
    if state.variant not in (EVEN_CAT, ODD_CAT):
        raise UnsupportedVariant(
            f"event_density_cat_closed expects a cat state, got {state.variant}"
        )
    if not kins:
        return []
    spec = cfg.quad or DEFAULT_SPEC_1D
    sp = state.sigma_perp
    sign = state.parity
    beta = (a / 2.0) ** 2
    s8 = a ** 2 / (8.0 * sp ** 2)
    c_sep = state.r0 ** 2 / (2.0 * sp ** 2)

    # One phi-free weight row per distinct (p_i, p_f, theta), taking |Qperp|
    # from the first kinematics of the group, and one fringe row per
    # kinematics.  A fringe row integrates weight * (1 + fringe), not the
    # bare fringe: its tolerance then scales with the weight, the size of
    # the event density, and a fringe that strong separation or fast
    # oscillation makes negligible cannot stall convergence.
    group: dict[tuple[float, float, float], int] = {}
    qz_w, qp_w = [], []
    row_of = np.empty(len(kins), dtype=int)
    for j, kin in enumerate(kins):
        key = (kin.p_i, kin.p_f, kin.theta)
        if key not in group:
            mt = momentum_transfer(kin)
            group[key] = len(qz_w)
            qz_w.append(mt.qz)
            qp_w.append(mt.qperp_mag)
        row_of[j] = group[key]
    qz_w, qp_w = np.array(qz_w), np.array(qp_w)
    fringe_arg = np.array([
        2.0 * state.r0 * qp_w[u] * math.cos(state.phi_r0 - kin.phi)
        for u, kin in zip(row_of, kins)
    ])

    g_inf = 1.0 + beta * qz_w ** 2
    if not np.all(g_inf >= 1.0):
        raise ValueError("closed-form decay exponent fell below 1; bad kinematics")
    eps = spec.abs_tol / 10.0 if spec.abs_tol > 0 else 1e-16
    x_max = float(np.max(-math.log(eps) / g_inf + 40.0))
    base = max(8, math.ceil(x_max / 10.0))
    osc = oscillation_panels(x_max, float(np.max(np.abs(fringe_arg))) * s8)

    n_w = len(qz_w)
    qz2, qp2 = (qz_w ** 2)[:, None, None], (qp_w ** 2)[:, None, None]
    fa = fringe_arg[:, None, None]
    pick = row_of if n_w > 1 else slice(None)  # a lone weight row broadcasts

    def rows(x):
        h = 1.0 + s8 * x
        g = 1.0 + beta * (qz2 + qp2 / h)
        out = np.empty((n_w + len(kins),) + x.shape)
        weight = out[:n_w]
        np.multiply(np.exp(-x * g), (x + x * x + x ** 3 / 6.0) / h, out=weight)
        damped = weight * np.exp(-c_sep / h)
        fringe = out[n_w:]
        np.multiply(fa, s8 * x / h, out=fringe)
        np.cos(fringe, out=fringe)
        fringe *= damped[pick]
        fringe += weight[pick]
        return out

    res = integrate_1d(rows, Interval(0.0, x_max), spec, initial_panels=max(base, osc))
    t_one, e_one = res.value[row_of], res.err_est[row_of]
    t_sum, e_sum = res.value[n_w:], res.err_est[n_w:]

    # d nu = pref (bw t_one + sign off t_cos) / norm with t_cos = t_sum - t_one;
    # the wide limit is bw = off = 1 with pref = beta.
    if target.wide_limit:
        ssq, bw, off, pref = None, 1.0, 1.0, beta
    else:
        ssq = _sigma_sq(target, sp)
        b0 = target.b0_vec
        bw = _displaced_weight(b0, state.r0_vec, ssq)
        off = math.exp(-(b0 @ b0) / (2.0 * ssq))
        pref = cfg.n_e * beta / (2.0 * math.pi * ssq)
    norm = 1.0 + sign * state.packet_overlap
    c_one = bw - sign * off
    value = pref * (c_one * t_one + sign * off * t_sum) / norm
    err = pref * (abs(c_one) * e_one + off * e_sum) / norm
    return [EventDensity(float(v), CLOSED_FORM, float(e), ssq, target.wide_limit, cfg.n_e)
            for v, e in zip(value, err)]


# ---------------------------------------------------------------------------
# Brute-force 4-D oracle
# ---------------------------------------------------------------------------


def event_density_general(
    cfg: ScatteringConfig,
    kin: Kinematics,
    amplitude: Callable | None = None,
    a: float = 1.0,
    density: Callable | None = None,
) -> EventDensity:
    """Event density by direct 4-D cubature of n(b) W(b,p) f(|Q-p|)^2.

    Works for every state variant and any amplitude, but needs a finite
    target (the wide limit is analytic, not pointwise).  ``density`` may
    override the Gaussian target profile with any normalized column
    density n(b); only this brute-force route supports custom targets.
    The position box is the Wigner support (six widths around the packet
    centers) clipped against the target support; the momentum box is four
    inverse widths with fringe-resolving initial panels.
    """
    state, target = cfg.state, cfg.target
    if target.wide_limit:
        raise ValueError("event_density_general requires a finite target")
    amplitude = amplitude or _default_amplitude(a)
    spec = cfg.quad or DEFAULT_SPEC_4D
    mt = momentum_transfer(kin)
    qx0, qy0 = mt.qperp
    qz = mt.qz

    sx, sy = state.widths
    r0x, r0y = (abs(v) for v in state.r0_vec)
    b0x, b0y = target.b0
    st = target.sigma_t

    def b_axis(r0j, sj, b0j):
        lo = max(-(r0j + 6.0 * sj), b0j - 8.0 * st)
        hi = min(r0j + 6.0 * sj, b0j + 8.0 * st)
        if lo >= hi:  # disjoint supports: integrate over the beam support
            lo, hi = -(r0j + 6.0 * sj), r0j + 6.0 * sj
        return Interval(lo, hi)

    bx, by = b_axis(r0x, sx, b0x), b_axis(r0y, sy, b0y)
    px = Interval(-4.0 / sx, 4.0 / sx)
    py = Interval(-4.0 / sy, 4.0 / sy)
    box = [bx, by, px, py]
    is_cat = state.is_cat
    splits = [
        max(4, math.ceil(bx.width / (2.0 * sx))),
        max(4, math.ceil(by.width / (2.0 * sy))),
        max(4, math.ceil(px.width * sx / 2.0),
            oscillation_panels(px.width, 2.0 * r0x) if is_cat else 1),
        max(4, math.ceil(py.width * sy / 2.0),
            oscillation_panels(py.width, 2.0 * r0y) if is_cat else 1),
    ]

    if density is None:
        st2 = 2.0 * st * st

        def density(ux, uy):  # noqa: F811 - default Gaussian profile
            return np.exp(-((ux - b0x) ** 2 + (uy - b0y) ** 2) / st2) / (math.pi * st2)

    def integrand(ux, uy, pxa, pya):
        w = wigner_values(state, ux, uy, pxa, pya)
        q = np.sqrt((qx0 - pxa) ** 2 + (qy0 - pya) ** 2 + qz * qz)
        amp = amplitude(q)
        return density(ux, uy) * w * amp * amp

    res = integrate_nd(integrand, box, spec, initial_splits=splits)
    value = cfg.n_e * res.value
    err = cfg.n_e * res.err_est
    if value < -err:
        raise NegativeTotal(
            f"general 4-D total {value:.3e} below -err_est {-err:.3e}; "
            "quadrature failure on a physically nonnegative quantity"
        )
    sp_eff = state.sigma_perp if state.variant != ANISOTROPIC else None
    ssq = _sigma_sq(target, sp_eff) if sp_eff is not None else None
    return EventDensity(value, GENERAL_4D, err, ssq, False, cfg.n_e)


# ---------------------------------------------------------------------------
# Dispatch, conversion, validity
# ---------------------------------------------------------------------------


def _pick_method(cfg: ScatteringConfig, method: str, amplitude: Callable | None) -> str:
    """``auto``: the hydrogen closed form for cat states without a custom
    amplitude, the 2-D momentum quadrature otherwise."""
    if method == "auto":
        return CLOSED_FORM if cfg.state.is_cat and amplitude is None else QUADRATURE_2D
    if method not in (GENERAL_4D, QUADRATURE_2D, CLOSED_FORM):
        raise ValueError(f"unknown method {method!r}")
    return method


def event_density(
    cfg: ScatteringConfig,
    kin: Kinematics,
    method: str = "auto",
    amplitude: Callable | None = None,
    a: float = 1.0,
) -> EventDensity:
    """Evaluate d nu / d Omega with the natural method for the state.

    ``auto`` picks the hydrogen closed form for cat states (unless a
    custom amplitude is given) and the 2-D quadrature otherwise.
    """
    method = _pick_method(cfg, method, amplitude)
    if method == GENERAL_4D:
        return event_density_general(cfg, kin, amplitude, a)
    if method == CLOSED_FORM:
        return event_density_cat_closed(cfg, kin, a)
    if cfg.state.variant in (GAUSSIAN, ANISOTROPIC):
        return event_density_gaussian(cfg, kin, amplitude, a)
    return event_density_cat_quadrature(cfg, kin, amplitude, a)


def event_densities(
    cfg: ScatteringConfig,
    kins: Sequence[Kinematics],
    method: str = "auto",
    amplitude: Callable | None = None,
    a: float = 1.0,
) -> list[EventDensity]:
    """:func:`event_density` for many kinematics sharing ``cfg``, in order.

    The closed form integrates up to 64 kinematics at a time as one
    vector-valued integral on a shared panel set: one phi-free weight row
    per distinct (p_i, p_f, theta) plus one fringe row per kinematics,
    each row meeting the tolerance on its own.  The semi-infinite domain is truncated at ``x_max = -ln(eps) / g_inf +
    40``, the largest over the rows (g_inf >= 1 the x -> inf decay rate),
    which bounds the dropped tail analytically far below tolerance; the
    fastest fringe fixes the initial panelization.  Results are
    deterministic for a given list, and agree with the one-at-a-time
    values within their error estimates.  Other methods run per point.
    """
    kins = list(kins)
    method = _pick_method(cfg, method, amplitude)
    if method != CLOSED_FORM:
        return [event_density(cfg, k, method, amplitude, a) for k in kins]
    out: list[EventDensity] = []
    for i in range(0, len(kins), _BATCH_KINEMATICS):
        out += _cat_closed_batch(cfg, kins[i:i + _BATCH_KINEMATICS], a)
    return out


def cross_section(ed: EventDensity, n_e: int) -> float:
    """Effective cross section 2 pi Sigma^2 / N_e * d nu / d Omega [a^2/sr].

    Idempotent on wide-limit results (they are already cross sections).
    """
    if ed.wide_limit:
        return ed.value
    if ed.sigma_sq is None:
        raise MissingSigma(
            "event density carries no Sigma^2 (anisotropic beam on a finite "
            "target); cross-section conversion is undefined"
        )
    return 2.0 * math.pi * ed.sigma_sq * ed.value / n_e


@dataclass(frozen=True)
class ValidityCondition:
    condition: str
    satisfied: bool
    margin: float
    note: str = ""


def validity_check(
    state: BeamState, target: TargetProfile, a: float = 1.0
) -> list[ValidityCondition]:
    """Report the modeling assumptions with their scale-separation margins.

    Strong separations (<<) are flagged satisfied at a factor of 10; the
    soft asymmetry-existence bounds use factor 1.  Informational only:
    callers surface warnings, nothing refuses to run.
    """
    sx, sy = state.widths
    sperp = min(sx, sy)
    out = [
        ValidityCondition(
            "a << sigma_z", state.sigma_z / a >= 10.0, state.sigma_z / a,
            "longitudinal packet must dwarf the potential radius"),
        ValidityCondition(
            "sigma_z << sigma_perp^2 p_i",
            sperp ** 2 * state.p_i / state.sigma_z >= 10.0,
            sperp ** 2 * state.p_i / state.sigma_z,
            "transverse dispersion negligible during the collision"),
        ValidityCondition(
            "theta_k = 1/(sigma_perp p_i) << 1",
            sperp * state.p_i >= 10.0, sperp * state.p_i,
            "paraxial opening angle small"),
    ]
    if target.wide_limit:
        out.append(ValidityCondition("sigma_t >> a", True, math.inf,
                                     "wide-limit target"))
    else:
        out.append(ValidityCondition("sigma_t >> a", target.sigma_t / a >= 10.0,
                                     target.sigma_t / a,
                                     "target must vary slowly on the potential scale"))
    if state.variant in (EVEN_CAT, ODD_CAT, INCOHERENT_PAIR):
        ratio = state.r0 / state.sigma_perp
        out.append(ValidityCondition(
            "r0 >~ sigma_perp", ratio >= 1.0, ratio,
            "azimuthal asymmetry vanishes for r0 << sigma_perp"))
        out.append(ValidityCondition(
            "r0 not >> sigma_perp", ratio <= 10.0,
            10.0 / ratio if ratio > 0 else math.inf,
            "azimuthal asymmetry vanishes for r0 >> sigma_perp"))
        out.append(ValidityCondition(
            "sigma_perp >~ a", state.sigma_perp / a >= 1.0,
            state.sigma_perp / a,
            "interference washes out for wide packets (paraxial regime)"))
    return out
