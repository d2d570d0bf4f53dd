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
* ``event_density_cat_quadrature`` -- the 2-D momentum route, one
  function for every beam and the check on the closed form (also bound as
  ``event_density_gaussian``, a second name of the same function): the
  target integral is done analytically (Gaussian convolution), leaving a
  2-D momentum quadrature of the Gaussian-weighted amplitude, plus a
  weight * (1 + cos(2 r0 . p)) row for the cats;
* ``event_density_cat_closed``   -- every beam, and what ``auto`` means:
  the momentum integral is also done analytically, one Gaussian axis at a
  time, via a Schwinger parameterization, leaving a single exponentially
  damped 1-D integral over the Schwinger parameter x in [0, inf).  The map
  u = s8 x / (1 + s8 x), with s8 = 1/(8 s_a^2) of the narrower axis a,
  takes it onto [0, 1):

      int_0^1 du e^{-x g(u)} (x + x^2 + x^3/6) / (s8 (1 - u) sqrt(w))
          * [ displaced-packet weight
              +/- cos(2 r0.Qperp u) * exp(-r0^2 (1 - u) / (2 s^2)) ]

  with x = u / (s8 (1 - u)), w = 1 - (1 - rho) u for rho = s_a^2 / s_b^2
  <= 1, and g(u) = 1 + (Qz^2 + (Q_a^2 + Q_b^2 / w) (1 - u)) / 4 >= 1 for
  all kinematics.  Round beams have rho = 1, Q_a = |Qperp| and Q_b = 0;
  the anisotropic beam takes the lab-frame components of Qperp.  Only the
  cats have the fringe term.  Its phase is linear in u, and the integrand
  vanishes with all its derivatives as u -> 1, so nothing is truncated.

  ``event_densities`` evaluates a whole list of kinematics (a phi scan, a
  theta x phi grid) as one vector-valued integral on a shared panel set;
  ``event_density_cat_closed`` is its one-kinematics case.

The 2-D momentum route integrates every beam in the lab frame, with its
per-axis widths, the lab-frame Qperp and the fringe vector 2 r0, so the
azimuthal symmetry of the round beams is a result of its quadrature, not
of its frame.  Only the closed form uses the frame with Qperp along +x
for round beams, where one weight row then serves a whole phi scan.

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

from .errors import MissingSigma, NegativeTotal
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

# Kinematics per closed-form batch integral: one 64-phi scan.  Rows share
# their fastest row's panels, so uncapped a 20 theta x 64 phi grid at p 20
# took 1.8-2.2x as long (odd_cat(2, 3, phi_r0=0.4) and even_cat(1, 8), wide target).
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


def event_density_cat_quadrature(cfg: ScatteringConfig, kin: Kinematics) -> EventDensity:
    """Event density for every beam by 2-D momentum quadrature in the lab
    frame: :func:`_bracket` with the momentum integrals

        t_one = int d2q f(|Q - q|)^2 exp(-2 (sigma_x^2 q_x^2 + sigma_y^2 q_y^2)),
        t_sum = the same integrand times 1 + cos(2 r0 . q),

    over +/-4 inverse widths, split as the 4-D route splits its momentum
    axes (:func:`~catscatter.states.phase_space_panels`).  The target
    integral is analytic (Gaussian convolution, per axis with
    ``Sigma_j^2 = sigma_t^2 + sigma_j^2``); the beam enters only through
    its widths, the displaced-packet weight and, for the cats, the fringe.
    A cat integrates both rows as one integral, the beams without a fringe
    (parity 0) the weight row alone.  A round beam's exact result carries
    no azimuthal dependence, which the quadrature reproduces only within
    its ``err_est``.  The reported errors add the weight's mass outside the
    box, once to t_one and twice to t_sum (f <= 1, 1 + cos <= 2).
    """
    state = cfg.state
    sx, sy = state.widths
    mt = momentum_transfer(kin)
    qx0, qy0 = mt.qperp
    wx, wy, qz2 = -2.0 * sx ** 2, -2.0 * sy ** 2, mt.qz * mt.qz
    cx, cy = 2.0 * state.r0_vec
    box = phase_space_box(state.widths, state.r0_vec, 4.0, 4.0)

    def rows(qx, qy):
        q = np.sqrt((qx0 - qx) ** 2 + (qy0 - qy) ** 2 + qz2)
        amp = hydrogen_amplitude(q)
        w = amp * amp * np.exp(wx * qx * qx + wy * qy * qy)
        if not state.parity:
            return w[None]
        return np.stack([w, w * (1.0 + np.cos(cx * qx + cy * qy))])

    res = integrate_nd(rows, box[2:], cfg.quad or DEFAULT_SPEC_2D,
                       initial_splits=phase_space_panels(state, box)[2:])
    # 1 - erf(4 sqrt 2)^2 by erfc, which keeps its digits.
    tail = (math.pi / (2.0 * sx * sy) * math.erfc(4.0 * math.sqrt(2.0))
            * (1.0 + math.erf(4.0 * math.sqrt(2.0))))
    t, e = res.value, res.err_est
    return _bracket(cfg, QUADRATURE_2D, 2.0 * sx * sy / math.pi, sx * sy, math.pi ** 2,
                    t[0], e[0] + tail, t[-1], e[-1] + 2.0 * tail)[0]


# A second name of the same function, kept while the benchmark harness calls it.
event_density_gaussian = event_density_cat_quadrature


# ---------------------------------------------------------------------------
# Hydrogen closed form (1-D)
# ---------------------------------------------------------------------------


def event_density_cat_closed(cfg: ScatteringConfig, kin: Kinematics) -> EventDensity:
    """Event density off hydrogen via the 1-D closed form (see the module
    docstring), for every beam: the one-kinematics case of
    :func:`event_densities`."""
    return _cat_closed_batch(cfg, [kin])[0]


def _cat_closed_batch(cfg: ScatteringConfig, kins: list[Kinematics]) -> list[EventDensity]:
    state = cfg.state
    beta = 0.25
    # u follows the narrower axis a; the other axis b enters through
    # w = 1 - (1 - rho) u = h_b / h_a with rho = sigma_a^2 / sigma_b^2 <= 1,
    # which is exactly 1 (and Q_b exactly 0) for round beams.
    ax = int(state.widths[1] < state.widths[0])
    sa, sb = state.widths[ax], state.widths[1 - ax]
    s8 = 1.0 / (8.0 * sa ** 2)
    rho = (sa / sb) ** 2
    c_sep = state.r0 ** 2 / (2.0 * sa ** 2)
    lab = state.variant == ANISOTROPIC

    # One weight row per distinct (p_i, p_f, theta), with (Qz, Q_a, Q_b) of
    # its first kinematics (per phi as well for the lab-frame anisotropic
    # beam), and one weight * (1 + fringe) row per kinematics of a cat.
    group: dict[tuple, int] = {}
    q_w = []
    row_of = np.empty(len(kins), dtype=int)
    for j, kin in enumerate(kins):
        key = (kin.p_i, kin.p_f, kin.theta, kin.phi if lab else None)
        if key not in group:
            mt = momentum_transfer(kin)
            group[key] = len(q_w)
            q_w.append((mt.qz, mt.qperp[ax], mt.qperp[1 - ax]) if lab
                       else (mt.qz, mt.qperp_mag, 0.0))
        row_of[j] = group[key]
    q_w = np.array(q_w)
    qz2, qa2, qb2 = (q_w.T ** 2)[:, :, None, None]
    phis = np.array([kin.phi for kin in kins]) if state.parity else np.empty(0)

    n_w, n_f = len(q_w), len(phis)
    fa = (2.0 * state.r0 * q_w[row_of[:n_f], 1] * np.cos(state.phi_r0 - phis))[:, None, None]
    pick = row_of if n_w > 1 else slice(None)  # a lone weight row broadcasts

    def rows(u):
        v = 1.0 - u
        w = 1.0 - (1.0 - rho) * u
        jac = s8 * v
        x = u / jac
        g = 1.0 + beta * (qz2 + qa2 * v + qb2 * (v / w))
        out = np.empty((n_w + n_f,) + u.shape)
        weight = out[:n_w]
        np.multiply(np.exp(-x * g), (x + x * x + x ** 3 / 6.0) / (jac * np.sqrt(w)), out=weight)
        if n_f:
            damped = weight * np.exp(-c_sep * v)
            fringe = out[n_w:]
            np.multiply(fa, u, out=fringe)
            np.cos(fringe, out=fringe)
            fringe *= damped[pick]
            fringe += weight[pick]
        return out

    # Panels of pi/2 of fringe phase.  A weight peaks near u = 3 s8 / g(0),
    # where for 8 sigma_a^2 g(0) >> 1 all abscissae of one panel could
    # underflow to zero: the first panel is halved down to the narrowest
    # width s8 / g(0).
    n_osc = oscillation_panels(1.0, float(np.abs(fa).max(initial=0.0)))
    edges = np.linspace(0.0, 1.0, n_osc + 1)
    g0_max = 1.0 + beta * float((qz2 + qa2 + qb2).max())
    halvings = math.ceil(math.log2(edges[1] * g0_max / s8))
    edges = np.concatenate([[0.0], edges[1] * 2.0 ** -np.arange(halvings, 0, -1), edges[1:]])
    res = integrate_1d(rows, Interval(0.0, 1.0), cfg.quad or DEFAULT_SPEC_1D, initial_panels=edges)
    # A beam without fringe rows passes its weights twice: _bracket scales
    # the fringe term by its parity, 0.
    fr = slice(n_w, None) if n_f else row_of
    return _bracket(cfg, CLOSED_FORM, beta, beta, 2.0 * math.pi,
                    res.value[row_of], res.err_est[row_of], res.value[fr], res.err_est[fr])


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


def event_density(cfg: ScatteringConfig, kin: Kinematics, method: str = "auto") -> EventDensity:
    """:func:`event_densities` for one kinematics.  Every method uses the
    hydrogen 1s amplitude on the Gaussian target; ``auto`` is the closed
    form, which every beam has, checked against the 2-D and 4-D routes."""
    return event_densities(cfg, [kin], method)[0]


def event_densities(
    cfg: ScatteringConfig, kins: Sequence[Kinematics], method: str = "auto"
) -> list[EventDensity]:
    """:func:`event_density` for many kinematics sharing ``cfg``, in order.

    ``auto`` is the closed form for every beam.  It integrates up to 64
    kinematics at a time as one vector-valued integral on a shared panel
    set: one weight row per distinct (p_i, p_f, theta), and per phi as well
    for the anisotropic beam, plus one fringe row per kinematics of a cat,
    each row meeting the tolerance on its own.  A round beam's phi scan
    thus shares one weight row.  The cap of 64 bounds cost, not memory:
    every row of a batch runs on the panels its fastest row needs.  Every
    row lives on u in [0, 1), and the fastest fringe fixes the initial
    panels at pi/2 of phase each, the first halved down to the narrowest
    weight's width.  A whole theta profile is one call.  Results are deterministic for a given list, and
    agree with the one-at-a-time values within their error estimates.
    The 2-D and 4-D methods run per point.
    """
    kins = list(kins)
    if method in ("auto", CLOSED_FORM):
        out: list[EventDensity] = []
        for i in range(0, len(kins), _BATCH_KINEMATICS):
            out += _cat_closed_batch(cfg, kins[i:i + _BATCH_KINEMATICS])
        return out
    if method == GENERAL_4D:
        route = event_density_general
    elif method == QUADRATURE_2D:
        route = event_density_cat_quadrature
    else:
        raise ValueError(f"unknown method {method!r}")
    return [route(cfg, k) for k in kins]


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
