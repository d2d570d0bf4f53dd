"""Event densities d nu / d Omega by three mutually validating routes.

For a beam state with Wigner function W, the Gaussian target column
density n(b) and the Born amplitude f of ground-state hydrogen, the number
of scattering events per solid angle is

    d nu / d Omega = N_e * int d2b d2p  n(b) W(b, p) f(|Q - p|)^2,

where Q - p is the 3-vector (Qperp - p, Qz).  Every route uses the
hydrogen 1s amplitude on the Gaussian target; three evaluation methods
are provided:

* ``event_density_general``      -- honest 4-D cubature of the formula
  above over truncated boxes (the brute-force oracle, any state, finite
  targets only);
* ``event_density_gaussian`` and ``event_density_cat_quadrature`` -- two
  entry points of one 2-D momentum route: the target integral is done
  analytically (Gaussian convolution), leaving a 2-D momentum quadrature
  of the Gaussian-weighted amplitude, plus a weight * (1 + cos(2 r0 . p))
  row for the cats;
* ``event_density_cat_closed``   -- cats only: the momentum integral is
  also done analytically via a Schwinger parameterization, leaving a
  single exponentially damped 1-D integral

      int_0^inf dx e^{-x g(x)} (x + x^2 + x^3/6) / h(x)
          * [ displaced-packet weight
              +/- cos(2 r0.pf * fringe_scale(x)) * exp(-r0^2/(2 s^2 h(x))) ]

  with h(x) = 1 + x/(8 s^2), fringe_scale = (h-1)/h, and
  g(x) = 1 + (Qz^2 + Qperp^2 / h(x)) / 4 >= 1 for all kinematics.

  ``event_densities`` evaluates a whole list of kinematics (a phi scan, a
  theta x phi grid) as one vector-valued integral on a shared panel set.
  The weight integral, the bracket's phi-free first term, is hoisted: one
  row per distinct (p_i, p_f, theta) serves every azimuth, and each
  kinematics adds one weight * (1 + fringe) row.  ``event_density_cat_closed``
  is the one-kinematics case of the same integral.

The 2-D momentum route takes the per-axis widths of the state.  Round
beams are integrated in the frame rotated so that Qperp lies along +x;
this is an exact change of variables (their Gaussian weight is isotropic)
and makes their azimuthal symmetry exact instead of a quadrature accident.
Interference terms keep their relative azimuth ``phi_r0 - phi``.  The
anisotropic beam is integrated in the lab frame.

Wide-target mode takes the sigma_t -> infinity limit analytically: the
displaced-packet weight and the offset factor tend to one and the result
is reported directly as the effective cross section
``d sigma / d Omega = 2 pi Sigma^2 / N_e * d nu / d Omega`` (finite in the
limit), flagged by ``EventDensity.wide_limit``.

All computation is in Hartree atomic units, so the Bohr radius a = 1 is
the unit of length and no function takes it.  Everything here is pure and
reentrant: event densities for many kinematics may be evaluated
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
    phase_space_box,
    phase_space_panels,
    wigner_values,
)
from .targets import Kinematics, TargetProfile, hydrogen_amplitude, momentum_transfer

__all__ = [
    "ScatteringConfig",
    "EventDensity",
    "ValidityCondition",
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


def _sigma_sq(state: BeamState, target: TargetProfile) -> float | None:
    """``EventDensity.sigma_sq``; None in the wide limit and for the anisotropic beam."""
    if target.wide_limit or state.variant == ANISOTROPIC:
        return None
    return target.sigma_t ** 2 + state.sigma_perp ** 2


def _target_weights(state: BeamState, target: TargetProfile) -> tuple[float, float, float]:
    """(prod_j Sigma_j^2, bw, off) of a finite target: Sigma_j^2 = sigma_t^2 +
    sigma_j^2 per axis, the displaced-packet weight bw = [E(b0 - r0) +
    E(b0 + r0)] / 2 (the overflow-safe cosh form) and the fringe's offset
    factor off = E(b0), where E(d) = exp(-sum_j d_j^2 / (2 Sigma_j^2)).
    """
    sx2, sy2 = (target.sigma_t ** 2 + s ** 2 for s in state.widths)
    (b0x, b0y), (r0x, r0y) = target.b0, state.r0_vec.tolist()

    def gauss(dx, dy):
        return math.exp(-(dx * dx / (2.0 * sx2) + dy * dy / (2.0 * sy2)))

    return (sx2 * sy2, 0.5 * (gauss(b0x - r0x, b0y - r0y) + gauss(b0x + r0x, b0y + r0y)),
            gauss(b0x, b0y))


def _bracket(cfg: ScatteringConfig, method: str, wide_pref: float, c: float, d: float,
             t_one, e_one, t_sum, e_sum) -> list[EventDensity]:
    """pref (bw t_one + sign off t_cos) / (1 + sign overlap) per entry of the
    weight integrals t_one and the fringe rows t_sum = t_one + t_cos.

    A fringe row integrates weight * (1 + fringe), not the bare fringe: its
    tolerance then scales with the weight, the size of the event density,
    and a fringe that strong separation or fast oscillation makes negligible
    cannot stall convergence.  pref is ``wide_pref`` in the wide limit
    (bw = off = 1), else n_e c / (d sqrt(prod_j Sigma_j^2)).
    """
    state, target = cfg.state, cfg.target
    sign = state.parity
    if target.wide_limit:
        bw, off, pref = 1.0, 1.0, wide_pref
    else:
        ssq_prod, bw, off = _target_weights(state, target)
        pref = cfg.n_e * c / (d * math.sqrt(ssq_prod))
    norm = 1.0 + sign * state.packet_overlap
    c_one = bw - sign * off
    value = pref * (c_one * t_one + sign * off * t_sum) / norm
    err = pref * (abs(c_one) * e_one + abs(sign * off) * e_sum) / norm
    ssq = _sigma_sq(state, target)
    return [EventDensity(float(v), method, float(e), ssq, target.wide_limit, cfg.n_e)
            for v, e in zip(np.atleast_1d(value), np.atleast_1d(err))]


# ---------------------------------------------------------------------------
# 2-D momentum quadrature (Gaussian-convolved target)
# ---------------------------------------------------------------------------


def _momentum_density(cfg: ScatteringConfig, kin: Kinematics) -> EventDensity:
    """d nu / d Omega from :func:`_bracket` with the momentum integrals

        t_one = int d2q f(|Q - q|)^2 exp(-2 (sigma_x^2 q_x^2 + sigma_y^2 q_y^2)),
        t_sum = the same integrand times 1 + cos(2 r0 . q),

    over +/-4 inverse widths.  Round beams integrate in the frame with Qperp
    along +x, the anisotropic beam in the lab frame.  A cat integrates both
    rows as one integral on fringe-resolving panels; the other beams have no
    fringe (sign = parity = 0) and integrate t_one alone.
    """
    state = cfg.state
    spec = cfg.quad or DEFAULT_SPEC_2D
    sx, sy = state.widths
    mt = momentum_transfer(kin)
    if state.variant == ANISOTROPIC:
        qx0, qy0 = mt.qperp
    else:
        qx0, qy0 = mt.qperp_mag, 0.0
    wx, wy, qz2 = -2.0 * sx ** 2, -2.0 * sy ** 2, mt.qz * mt.qz
    box = phase_space_box(state.widths, state.r0_vec, 4.0, 4.0)[2:]

    def weighted_f2(qx, qy):
        q = np.sqrt((qx0 - qx) ** 2 + (qy0 - qy) ** 2 + qz2)
        amp = hydrogen_amplitude(q)
        return amp * amp * np.exp(wx * qx * qx + wy * qy * qy)

    if state.parity:
        delta = state.phi_r0 - kin.phi
        cx, cy = 2.0 * state.r0 * math.cos(delta), 2.0 * state.r0 * math.sin(delta)

        def rows(qx, qy):
            w = weighted_f2(qx, qy)
            return np.stack([w, w * (1.0 + np.cos(cx * qx + cy * qy))])

        splits = [max(4, oscillation_panels(iv.width, abs(c))) for iv, c in zip(box, (cx, cy))]
        res = integrate_nd(rows, box, spec, initial_splits=splits)
    else:
        res = integrate_nd(weighted_f2, box, spec, initial_splits=[4, 4])
    t, e = np.atleast_1d(res.value), np.atleast_1d(res.err_est)
    return _bracket(cfg, QUADRATURE_2D, 2.0 * sx * sy / math.pi, sx * sy, math.pi ** 2,
                    t[0], e[0], t[-1], e[-1])[0]


def event_density_gaussian(cfg: ScatteringConfig, kin: Kinematics) -> EventDensity:
    """Event density for the round Gaussian packet, and its anisotropic
    generalization, by 2-D momentum quadrature.

    The target integral is analytic (Gaussian convolution): for the round
    packet the offset enters only through ``exp(-b0^2/(2 Sigma^2))`` and
    the result carries no azimuthal dependence at all.  The anisotropic
    packet factorizes per axis with per-axis ``Sigma_j^2 = sigma_t^2 +
    sigma_j^2`` and is integrated in the lab frame.
    """
    if cfg.state.variant not in (GAUSSIAN, ANISOTROPIC):
        raise UnsupportedVariant(
            f"event_density_gaussian expects a gaussian-like state, got {cfg.state.variant}"
        )
    return _momentum_density(cfg, kin)


def event_density_cat_quadrature(cfg: ScatteringConfig, kin: Kinematics) -> EventDensity:
    """Event density for the two-packet states by 2-D momentum quadrature.

    The bracket multiplying the Gaussian-weighted amplitude is the
    displaced-packet weight plus (cats) or without (incoherent pair) the
    interference fringe ``cos(2 r0 . p)``, integrated as a weight *
    (1 + fringe) row.
    """
    if cfg.state.variant not in (EVEN_CAT, ODD_CAT, INCOHERENT_PAIR):
        raise UnsupportedVariant(
            f"event_density_cat_quadrature expects a two-packet state, got {cfg.state.variant}"
        )
    return _momentum_density(cfg, kin)


# ---------------------------------------------------------------------------
# Hydrogen closed form (1-D)
# ---------------------------------------------------------------------------


def event_density_cat_closed(cfg: ScatteringConfig, kin: Kinematics) -> EventDensity:
    """Cat-state event density off hydrogen via the 1-D closed form.

    The momentum integral is carried out analytically for the hydrogen
    amplitude, leaving one exponentially damped integral over the
    Schwinger parameter x.  This is the one-kinematics case of
    :func:`event_densities`, which documents the truncation and panels.
    """
    return _cat_closed_batch(cfg, [kin])[0]


def _cat_closed_batch(cfg: ScatteringConfig, kins: list[Kinematics]) -> list[EventDensity]:
    state = cfg.state
    if state.variant not in (EVEN_CAT, ODD_CAT):
        raise UnsupportedVariant(
            f"event_density_cat_closed expects a cat state, got {state.variant}"
        )
    spec = cfg.quad or DEFAULT_SPEC_1D
    sp = state.sigma_perp
    beta = 0.25
    s8 = 1.0 / (8.0 * sp ** 2)
    c_sep = state.r0 ** 2 / (2.0 * sp ** 2)

    # One phi-free weight row per distinct (p_i, p_f, theta), with |Qperp| of
    # its first kinematics, and one weight * (1 + fringe) row per kinematics.
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
    eps = spec.abs_tol / 10.0 if spec.abs_tol > 0 else 1e-16
    x_max = float(np.max(-math.log(eps) / g_inf + 40.0))
    base = max(8, math.ceil(x_max / 10.0))
    # Four times the fringe's rate: panels of pi/8 of phase.  Coarser initial
    # panels here cost more adaptive rounds than the abscissae they save
    # (16-phi r0 sweeps ran about 15 % slower at pi/2); the power-of-two
    # factor keeps the panel count exact.
    osc = oscillation_panels(x_max, float(np.max(np.abs(fringe_arg))) * s8 * 4.0)

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
    return _bracket(cfg, CLOSED_FORM, beta, beta, 2.0 * math.pi,
                    res.value[row_of], res.err_est[row_of], res.value[n_w:], res.err_est[n_w:])


# ---------------------------------------------------------------------------
# Brute-force 4-D oracle
# ---------------------------------------------------------------------------


def event_density_general(cfg: ScatteringConfig, kin: Kinematics) -> EventDensity:
    """Event density by direct 4-D cubature of n(b) W(b,p) f(|Q-p|)^2.

    Works for every state variant, but needs a finite target (the wide
    limit is analytic, not pointwise).  The position box is the Wigner
    support (six widths around the packet centers) clipped against the
    target support; the momentum box is four inverse widths with
    fringe-resolving initial panels.
    """
    state, target = cfg.state, cfg.target
    if target.wide_limit:
        raise ValueError("event_density_general requires a finite target")
    spec = cfg.quad or DEFAULT_SPEC_4D
    mt = momentum_transfer(kin)
    qx0, qy0 = mt.qperp
    qz = mt.qz

    b0x, b0y = target.b0
    st = target.sigma_t

    def clip(iv, b0j):
        lo, hi = max(iv.lo, b0j - 8.0 * st), min(iv.hi, b0j + 8.0 * st)
        # Disjoint supports: integrate over the beam support.
        return Interval(lo, hi) if lo < hi else iv

    bx, by, px, py = phase_space_box(state.widths, state.r0_vec, 6.0, 4.0)
    box = [clip(bx, b0x), clip(by, b0y), px, py]
    st2 = 2.0 * st * st

    def integrand(ux, uy, pxa, pya):
        w = wigner_values(state, ux, uy, pxa, pya)
        q = np.sqrt((qx0 - pxa) ** 2 + (qy0 - pya) ** 2 + qz * qz)
        amp = hydrogen_amplitude(q)
        n = np.exp(-((ux - b0x) ** 2 + (uy - b0y) ** 2) / st2) / (math.pi * st2)
        return n * w * amp * amp

    res = integrate_nd(integrand, box, spec, initial_splits=phase_space_panels(state, box))
    value = cfg.n_e * res.value
    err = cfg.n_e * res.err_est
    if value < -err:
        raise NegativeTotal(
            f"general 4-D total {value:.3e} below -err_est {-err:.3e}; "
            "quadrature failure on a physically nonnegative quantity"
        )
    return EventDensity(value, GENERAL_4D, err, _sigma_sq(state, target), False, cfg.n_e)


# ---------------------------------------------------------------------------
# Dispatch, conversion, validity
# ---------------------------------------------------------------------------


def _pick_method(cfg: ScatteringConfig, method: str) -> str:
    """``auto``: the closed form for cat states, the 2-D momentum
    quadrature otherwise."""
    if method == "auto":
        return CLOSED_FORM if cfg.state.is_cat else QUADRATURE_2D
    if method not in (GENERAL_4D, QUADRATURE_2D, CLOSED_FORM):
        raise ValueError(f"unknown method {method!r}")
    return method


def event_density(cfg: ScatteringConfig, kin: Kinematics, method: str = "auto") -> EventDensity:
    """Evaluate d nu / d Omega with the natural method for the state.

    Every method uses the hydrogen 1s amplitude on the Gaussian target;
    ``auto`` picks the closed form for cat states and the 2-D quadrature
    otherwise.
    """
    method = _pick_method(cfg, method)
    if method == GENERAL_4D:
        return event_density_general(cfg, kin)
    if method == CLOSED_FORM:
        return event_density_cat_closed(cfg, kin)
    if cfg.state.variant in (GAUSSIAN, ANISOTROPIC):
        return event_density_gaussian(cfg, kin)
    return event_density_cat_quadrature(cfg, kin)


def event_densities(
    cfg: ScatteringConfig, kins: Sequence[Kinematics], method: str = "auto"
) -> list[EventDensity]:
    """:func:`event_density` for many kinematics sharing ``cfg``, in order.

    The closed form integrates up to 64 kinematics at a time as one
    vector-valued integral on a shared panel set: one phi-free weight row
    per distinct (p_i, p_f, theta) plus one fringe row per kinematics,
    each row meeting the tolerance on its own.  The semi-infinite domain
    is truncated at ``x_max = -ln(eps) / g_inf + 40``, the largest over the
    rows (g_inf >= 1 the x -> inf decay rate), which bounds the dropped
    tail analytically far below tolerance; the fastest fringe fixes the
    initial panelization.  Results are
    deterministic for a given list, and agree with the one-at-a-time
    values within their error estimates.  Other methods run per point.
    """
    kins = list(kins)
    method = _pick_method(cfg, method)
    if method != CLOSED_FORM:
        return [event_density(cfg, k, method) for k in kins]
    out: list[EventDensity] = []
    for i in range(0, len(kins), _BATCH_KINEMATICS):
        out += _cat_closed_batch(cfg, kins[i:i + _BATCH_KINEMATICS])
    return out


def cross_section(ed: EventDensity) -> float:
    """Effective cross section 2 pi Sigma^2 / N_e * d nu / d Omega [a^2/sr],
    with N_e = ``ed.n_e``, the electron count the density was computed for.

    Idempotent on wide-limit results (they are already cross sections).
    """
    if ed.wide_limit:
        return ed.value
    if ed.sigma_sq is None:
        raise MissingSigma(
            "event density carries no Sigma^2 (anisotropic beam on a finite "
            "target); cross-section conversion is undefined"
        )
    return 2.0 * math.pi * ed.sigma_sq * ed.value / ed.n_e


@dataclass(frozen=True)
class ValidityCondition:
    condition: str
    satisfied: bool
    margin: float
    note: str = ""


def validity_check(state: BeamState, target: TargetProfile) -> list[ValidityCondition]:
    """Report the modeling assumptions with their scale-separation margins.

    Strong separations (<<) are flagged satisfied at a factor of 10; the
    soft asymmetry-existence bounds use factor 1.  Informational only:
    callers surface warnings, nothing refuses to run.  Lengths are in
    Bohr radii, so a margin against ``a`` is the length itself.
    """
    sx, sy = state.widths
    sperp = min(sx, sy)
    out = [
        ValidityCondition(
            "a << sigma_z", state.sigma_z >= 10.0, state.sigma_z,
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
        out.append(ValidityCondition("sigma_t >> a", target.sigma_t >= 10.0,
                                     target.sigma_t,
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
            "sigma_perp >~ a", state.sigma_perp >= 1.0,
            state.sigma_perp,
            "interference washes out for wide packets (paraxial regime)"))
    return out
