"""Event densities d nu / d Omega by three mutually validating routes.

For a beam state with Wigner function W, the Gaussian target column
density n(b) and the Born amplitude f of ground-state hydrogen, the number
of scattering events per solid angle is

    d nu / d Omega = N_e * int d2b d2p  n(b) W(b, p) f(|Q - p|)^2,

where Q - p is the 3-vector (Qperp - p, Qz).  Every route uses the
hydrogen 1s amplitude on the Gaussian target; three evaluation methods
are provided, each also under a public route name:

* ``general4d`` (``event_density_general``) -- the brute-force oracle, for
  every beam and target: the formula above over truncated boxes, with W
  itself, negative fringe included, written as the products P_k(b) M_k(p)
  of ``states.wigner_terms``.  The 4-D integral is then the sum of the
  products of two 2-D cubatures, of n(b) P_k over the position box and of
  f^2 M_k over the momentum box, and n = 1 in the wide limit;
* ``quadrature2d`` (``event_density_cat_quadrature``, also bound as
  ``event_density_gaussian``) -- the 2-D momentum route, for every beam
  and the check on the closed form: the target integral is done
  analytically (Gaussian convolution), leaving a 2-D momentum quadrature
  of the Gaussian-weighted amplitude, plus a weight * (1 + cos(2 r0 . p))
  row for the cats;
* ``closed_form`` (``event_density_cat_closed``) -- every beam, and what
  ``auto`` means:
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

``event_density_grid`` assembles every method's event density on a theta
x phi grid at one (p_i, p_f): it forms each cell's momentum transfer once
and hands it to the method's kernel, with no per-cell kinematics or result
object.  ``event_density`` and the three route names are its 1 x 1 case.

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
import numbers
import warnings
from dataclasses import dataclass, replace
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
    _product_integral,
    phase_space_box,
    phase_space_panels,
)
from .targets import (Kinematics, TargetProfile, hydrogen_amplitude, target_density,
                      transfer_components)

__all__ = [
    "ScatteringConfig",
    "EventDensity",
    "ValidityCondition",
    "event_density_general",
    "event_density_gaussian",
    "event_density_cat_quadrature",
    "event_density_cat_closed",
    "event_density",
    "event_density_grid",
    "METHOD_SPECS",
    "cross_section",
    "validity_check",
]

GENERAL_4D = "general4d"
QUADRATURE_2D = "quadrature2d"
CLOSED_FORM = "closed_form"
# Each method's default quadrature spec; its keys are the methods there are.
METHOD_SPECS = {"auto": DEFAULT_SPEC_1D, CLOSED_FORM: DEFAULT_SPEC_1D,
                QUADRATURE_2D: DEFAULT_SPEC_2D, GENERAL_4D: DEFAULT_SPEC_4D}

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
        if not isinstance(self.n_e, numbers.Integral) or self.n_e < 1:
            raise ValueError(f"n_e must be an integer >= 1, got {self.n_e!r}")


@dataclass(frozen=True)
class EventDensity:
    """d nu / d Omega (or d sigma / d Omega in wide-limit mode): floats at
    one kinematics, (theta, phi) arrays from :func:`event_density_grid`.

    ``sigma_sq`` records Sigma^2 = sigma_t^2 + sigma_perp^2 for the
    cross-section conversion; it is None in wide-limit mode (already
    converted) and for anisotropic beams on finite targets (no single
    Sigma^2 exists there).
    """

    value: float | np.ndarray
    method: str
    err_est: float | np.ndarray
    sigma_sq: float | None
    wide_limit: bool
    n_e: int = 1


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


def _bracket(cfg: ScatteringConfig, wide_pref: float, c: float, d: float,
             t_one, e_one, t_sum, e_sum) -> tuple[np.ndarray, np.ndarray]:
    """(value, err_est) of pref (bw t_one + sign off t_cos) / (1 + sign
    overlap), entry by entry over the weight integrals t_one and the fringe
    rows t_sum = t_one + t_cos: arrays for arrays, scalars for scalars.

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
    return value, err


# ---------------------------------------------------------------------------
# 2-D momentum quadrature (Gaussian-convolved target)
# ---------------------------------------------------------------------------


def _quadrature2d(cfg: ScatteringConfig, qz: float, qx0: float, qy0: float) -> tuple[float, float]:
    """(value, err_est) at Q = (qz, qx0, qy0) for every beam by 2-D momentum
    quadrature in the lab frame: :func:`_bracket` with the momentum integrals

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
    wx, wy, qz2 = -2.0 * sx ** 2, -2.0 * sy ** 2, qz * qz
    cx, cy = 2.0 * state.r0_vec
    box = phase_space_box(state.widths, state.r0_vec, 4.0, 4.0)

    def rows(qx, qy):
        q = np.sqrt((qx0 - qx) ** 2 + (qy0 - qy) ** 2 + qz2)
        amp = hydrogen_amplitude(q)
        w = amp * amp * np.exp(wx * qx * qx + wy * qy * qy)
        if not state.parity:
            return w[None]
        return np.stack([w, w * (1.0 + np.cos(cx * qx + cy * qy))])

    res = integrate_nd(rows, box[2:], cfg.quad or METHOD_SPECS[QUADRATURE_2D],
                       initial_splits=phase_space_panels(state, box)[2:])
    # 1 - erf(4 sqrt 2)^2 by erfc, which keeps its digits.
    tail = (math.pi / (2.0 * sx * sy) * math.erfc(4.0 * math.sqrt(2.0))
            * (1.0 + math.erf(4.0 * math.sqrt(2.0))))
    t, e = res.value, res.err_est
    return _bracket(cfg, 2.0 * sx * sy / math.pi, sx * sy, math.pi ** 2,
                    t[0], e[0] + tail, t[-1], e[-1] + 2.0 * tail)


# ---------------------------------------------------------------------------
# Hydrogen closed form (1-D)
# ---------------------------------------------------------------------------


def _closed_form(cfg: ScatteringConfig, q_w: np.ndarray, row_of: np.ndarray,
                 phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, err_est) arrays at up to 64 kinematics j of azimuth phis[j]
    and weight row row_of[j] with (Qz, Q_x, Q_y) q_w[row_of[j]]: lab-frame
    components for the anisotropic beam, (Qz, |Qperp|, 0) for round beams."""
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

    # Weight rows as (Qz, Q_a, Q_b), then a cat's weight * (1 + fringe) rows.
    q_w = q_w[:, [0, 1 + ax, 2 - ax]]
    qz2, qa2, qb2 = (q_w.T ** 2)[:, :, None, None]
    phis = phis if state.parity else phis[:0]

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
    res = integrate_1d(rows, Interval(0.0, 1.0), cfg.quad or METHOD_SPECS[CLOSED_FORM],
                       initial_panels=edges)
    # A beam without fringe rows passes its weights twice: _bracket scales
    # the fringe term by its parity, 0.
    fr = slice(n_w, None) if n_f else row_of
    return _bracket(cfg, beta, beta, 2.0 * math.pi,
                    res.value[row_of], res.err_est[row_of], res.value[fr], res.err_est[fr])


# ---------------------------------------------------------------------------
# Brute-force 4-D oracle
# ---------------------------------------------------------------------------


def _general4d(cfg: ScatteringConfig, qz: float, qx0: float, qy0: float) -> tuple[float, float]:
    """(value, err_est) at Q = (qz, qx0, qy0) of the brute-force oracle
    int d2b d2p n(b) W(b, p) f(|Q - p|)^2, for every beam and target: the
    sum of products of 2-D integrals of ``states._product_integral`` with
    the weights n and f^2 <= 1, times n_e.

    The position box is the Wigner support (six widths around the packet
    centers) clipped against the target support b0 +/- 8 sigma_t; the wide
    limit takes n = 1 on the unclipped box, which gives d sigma / d Omega.
    Outside the Wigner box n is at most its value at the distance
    gap = min_j (half-width_j - |b0_j|) from b0 when b0 lies inside the
    box, which weighs the position tail.
    """
    state, target = cfg.state, cfg.target
    spec = cfg.quad or METHOD_SPECS[GENERAL_4D]

    def f2(qx, qy):
        amp = hydrogen_amplitude(np.sqrt((qx0 - qx) ** 2 + (qy0 - qy) ** 2 + qz * qz))
        return amp * amp

    if target.wide_limit:
        n_e, res = 1, _product_integral(state, spec, lambda x, y: 1.0, f2)
    else:
        st = target.sigma_t
        box = phase_space_box(state.widths, state.r0_vec, 6.0, 4.0)[:2]
        clipped = [(max(iv.lo, c - 8.0 * st), min(iv.hi, c + 8.0 * st))
                   for iv, c in zip(box, target.b0)]
        # Disjoint supports: integrate over the beam support.
        b_box = [Interval(lo, hi) if lo < hi else iv for (lo, hi), iv in zip(clipped, box)]
        gap = max(0.0, min(iv.hi - abs(c) for iv, c in zip(box, target.b0)))
        n_e, res = cfg.n_e, _product_integral(
            state, spec, lambda x, y: target_density(target, (x, y)), f2, b_box,
            1.0 / (2.0 * math.pi * st * st), math.exp(-gap * gap / (2.0 * st * st)))
    value, err = n_e * res.value, n_e * res.err_est
    if value < -err:
        raise NegativeTotal(
            f"general 4-D total {value:.3e} below -err_est {-err:.3e}; "
            "quadrature failure on a physically nonnegative quantity"
        )
    return value, err


# ---------------------------------------------------------------------------
# The grid, its 1 x 1 views, conversion, validity
# ---------------------------------------------------------------------------


def event_density_grid(cfg: ScatteringConfig, kin_base: Kinematics, thetas: Sequence[float],
                       phis: Sequence[float], method: str = "auto") -> EventDensity:
    """d nu / d Omega on the ``thetas`` x ``phis`` grid at the momenta p_i
    and p_f of ``kin_base`` (its angles are not used): one
    :class:`EventDensity` of (len thetas, len phis) arrays, for every
    method, with no :class:`Kinematics` or result per cell.

    The 2-D and 4-D methods run cell by cell.  The closed form (``auto``)
    integrates the cells in row-major order, up to 64 at a time, as one
    vector-valued integral on a shared panel set: one weight row per theta
    (per cell for the anisotropic beam), plus one fringe row per cell of a
    cat, each row meeting the tolerance on its own.  The cap of 64 bounds
    cost, not memory: every row of a batch runs on the panels its fastest
    row needs.  A cell's value thus depends on its grid within its err_est,
    and is deterministic for a given grid.
    """
    if method not in METHOD_SPECS:
        raise ValueError(f"unknown method {method!r}")
    th, ph = np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float)
    if not (th.ndim == ph.ndim == 1 and all(0.0 <= t <= math.pi for t in th.tolist())
            and all(map(math.isfinite, ph.tolist()))):
        raise ValueError("thetas must lie in [0, pi] and phis must be finite, each a 1-D sequence")
    if not kin_base.is_elastic:  # once per call, not per cell
        warnings.warn(f"inelastic kinematics: p_f={kin_base.p_f} differs from "
                      f"p_i={kin_base.p_i}", stacklevel=2)
    method, state, target = CLOSED_FORM if method == "auto" else method, cfg.state, cfg.target
    p_i, p_f, n_ph, n = kin_base.p_i, kin_base.p_f, len(ph), len(th) * len(ph)
    # (Qz, Q_x, Q_y) per cell; the closed form of a round beam takes one
    # weight row per theta instead, as (Qz, |Qperp|, 0) at the first azimuth.
    lab = method != CLOSED_FORM or state.variant == ANISOTROPIC
    q = [transfer_components(p_i, p_f, t, f)
         for t in th.tolist() for f in (ph if lab else ph[:1]).tolist()]
    if method != CLOSED_FORM:
        kernel = _general4d if method == GENERAL_4D else _quadrature2d
        value, err = np.array([kernel(cfg, *qc) for qc in q]).reshape(n, 2).T
    else:
        q_w = np.array(q if lab else [(z, math.hypot(x, y), 0.0) for z, x, y in q])
        value, err = np.empty(n), np.empty(n)
        for i in range(0, n, _BATCH_KINEMATICS):  # each batch on its slice of weight rows
            j = min(i + _BATCH_KINEMATICS, n)
            cells = np.arange(i, j)
            rows = cells if lab else cells // n_ph
            lo = int(rows[0])
            value[i:j], err[i:j] = _closed_form(cfg, q_w[lo:int(rows[-1]) + 1], rows - lo,
                                                ph[cells % n_ph])
    sigma_sq = (None if target.wide_limit or state.variant == ANISOTROPIC
                else target.sigma_t ** 2 + state.sigma_perp ** 2)
    return EventDensity(value.reshape(len(th), n_ph), method, err.reshape(len(th), n_ph),
                        sigma_sq, target.wide_limit, cfg.n_e)


def event_density(cfg: ScatteringConfig, kin: Kinematics, method: str = "auto") -> EventDensity:
    """d nu / d Omega at one kinematics, all methods with the hydrogen 1s
    amplitude on the Gaussian target: the 1 x 1 case of
    :func:`event_density_grid`.  ``auto`` is the closed form, which every
    beam has, checked against the 2-D and 4-D routes."""
    ed = event_density_grid(cfg, kin, [kin.theta], [kin.phi], method)
    return replace(ed, value=ed.value.item(), err_est=ed.err_est.item())


def event_density_cat_closed(cfg: ScatteringConfig, kin: Kinematics) -> EventDensity:
    """:func:`event_density` by the 1-D closed form (see the module docstring)."""
    return event_density(cfg, kin, CLOSED_FORM)


def event_density_cat_quadrature(cfg: ScatteringConfig, kin: Kinematics) -> EventDensity:
    """:func:`event_density` by the 2-D momentum quadrature (:func:`_quadrature2d`)."""
    return event_density(cfg, kin, QUADRATURE_2D)


# A second name of the same function, kept while the benchmark harness calls it.
event_density_gaussian = event_density_cat_quadrature


def event_density_general(cfg: ScatteringConfig, kin: Kinematics) -> EventDensity:
    """:func:`event_density` by the 4-D oracle (:func:`_general4d`)."""
    return event_density(cfg, kin, GENERAL_4D)


def cross_section(ed: EventDensity) -> float | np.ndarray:
    """Effective cross section 2 pi Sigma^2 / N_e * d nu / d Omega [a^2/sr],
    with N_e = ``ed.n_e``, the electron count the density was computed for;
    entry by entry for a grid.

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
