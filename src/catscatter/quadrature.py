"""Deterministic adaptive quadrature over finite intervals and 2-D/4-D boxes.

The engine subdivides panels carrying an embedded (nested) rule pair:

* 1-D and 2-D: 15-point Gauss-Kronrod with the embedded 7-point Gauss rule
  (tensor product in 2-D), error estimated from the K15-G7 difference.
* 4-D: Genz-Malik degree-7 rule with the embedded degree-5 rule
  (57 points per box in 4-D), the standard workhorse for adaptive
  cubature in moderate dimension.

Refinement is global: on every round the boxes holding the dominant error
are bisected along the axis with the largest fourth-difference indicator.
A vector-valued integrand (one row per integrand of a batch) shares one
panel set across its rows; each row must meet its own tolerance, and a
round splits the boxes holding the largest error-to-tolerance ratio among
the rows that have not converged yet.  A scalar integrand is the one-row
case of the same adaptive loop.
Reported values and error estimates are ``math.fsum`` sums (a round's
convergence test uses numpy's sums), the panel bookkeeping is ordered, and no
randomness enters anywhere, so two calls with identical inputs return
bit-identical results.  Everything is pure and reentrant; callers may
integrate from many threads concurrently.

Every bound of a domain is finite; a caller with a decaying tail truncates
it where the dropped part is below tolerance.  Integrands must be
vectorized: ``f`` receives one ``numpy`` array per coordinate and returns
an array of the same shape, or of shape ``(B, *shape)`` for a batch of
``B`` integrands.  The first evaluation fixes which of the two it is; any
other output shape, then or later, is a ``ValueError``.  A callable that
rejects arrays (``math.exp``) raises its own error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonConvergence, NonFiniteIntegrand, UnsupportedDimension

__all__ = [
    "Interval",
    "QuadratureSpec",
    "QuadratureResult",
    "DEFAULT_SPEC_1D",
    "DEFAULT_SPEC_2D",
    "DEFAULT_SPEC_4D",
    "integrate_1d",
    "integrate_nd",
    "oscillation_panels",
]


@dataclass(frozen=True)
class Interval:
    """Finite integration interval ``[lo, hi]`` with ``lo < hi``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for one adaptive integration.

    The engine stops when the summed panel error drops below
    ``max(abs_tol, rel_tol * |value|)``.  ``max_subdivisions`` counts panel
    bisections (initial panelization is free).
    """

    rel_tol: float = 1e-8
    abs_tol: float = 0.0
    max_subdivisions: int = 10_000

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be >= 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_SPEC_1D = QuadratureSpec(rel_tol=1e-8)
DEFAULT_SPEC_2D = QuadratureSpec(rel_tol=1e-6, max_subdivisions=20_000)
DEFAULT_SPEC_4D = QuadratureSpec(rel_tol=1e-4, max_subdivisions=200_000)


@dataclass(frozen=True)
class QuadratureResult:
    """Value and error bound; arrays of one entry per row for a batch.

    ``neval`` counts abscissae (each evaluates every row of a batch) and
    ``subdivisions`` counts panel bisections.
    """

    value: float | np.ndarray
    err_est: float | np.ndarray
    neval: int = 0
    subdivisions: int = 0


_MAX_OSC_PANELS = 8192
# Fringe phase one initial panel may hold.  A K15 or Genz-Malik panel
# resolves a Gaussian-damped cosine to rounding level over this much phase,
# and a quarter period keeps every panel far from a whole one.
_PANEL_PHASE = math.pi / 2.0


def oscillation_panels(width: float, phase_rate: float) -> int:
    """Initial panel count so each panel spans at most pi/2 of phase.

    ``phase_rate`` is the maximum |d(phase)/dx| of a cosine factor on the
    axis.  A panel then holds at most a quarter period and never a whole
    one, so the adaptive scheme cannot lock onto an aliased estimate of an
    oscillatory integrand.  The count is capped at 8192 panels per axis;
    past the cap (width * phase_rate above 4096 pi) the promise lapses.
    """
    if phase_rate <= 0 or width <= 0:
        return 1
    n = int(math.ceil(width * phase_rate / _PANEL_PHASE))
    return max(1, min(n, _MAX_OSC_PANELS))


# ---------------------------------------------------------------------------
# Embedded rules
# ---------------------------------------------------------------------------

# 15-point Kronrod abscissae and weights with the embedded 7-point Gauss
# weights (zero on Kronrod-only nodes).
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG_EMBEDDED = np.zeros(15)
_WG_EMBEDDED[1::2] = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


class _EmbeddedRule:
    """A rule pair ``w_high``/``w_low`` on the reference box [-1, 1]^d."""

    def apply(self, vals: np.ndarray, halves: np.ndarray):
        """vals: (nbox, npts); halves: (nbox, d) half-widths.  Returns the
        panel values, their error bounds and the per-axis split scores."""
        scale = np.prod(halves, axis=1)
        high = vals @ self.w_high
        low = vals @ self.w_low
        return high * scale, np.abs(high - low) * scale, self.scores(vals, high)


class _TensorGaussKronrod(_EmbeddedRule):
    """Tensor-product K15/G7 rule for 1-D and 2-D boxes."""

    def __init__(self, ndim: int):
        grids = np.meshgrid(*([_XGK] * ndim), indexing="ij")
        self.nodes = np.stack([g.ravel() for g in grids], axis=-1)  # (npts, d)
        self.npts = self.nodes.shape[0]

        def tensor(ws: Sequence[np.ndarray]) -> np.ndarray:
            out = ws[0]
            for w in ws[1:]:
                out = np.multiply.outer(out, w)
            return out.ravel()

        self.w_high = tensor([_WGK] * ndim)
        self.w_low = tensor([_WG_EMBEDDED] * ndim)
        # Mixed weights (Gauss on one axis, Kronrod elsewhere) give a
        # per-axis error indicator used to pick the split direction.
        self.w_axis = [
            tensor([_WG_EMBEDDED if i == ax else _WGK for i in range(ndim)])
            for ax in range(ndim)
        ]

    def scores(self, vals: np.ndarray, high: np.ndarray) -> np.ndarray:
        return np.stack([np.abs(high - vals @ w) for w in self.w_axis], axis=-1)


class _GenzMalik(_EmbeddedRule):
    """Genz-Malik degree-7 rule with embedded degree-5 error estimate."""

    def __init__(self, ndim: int):
        d = ndim
        l2 = math.sqrt(9.0 / 70.0)
        l3 = math.sqrt(9.0 / 10.0)
        l4 = math.sqrt(9.0 / 10.0)
        l5 = math.sqrt(9.0 / 19.0)

        pts = [np.zeros(d)]
        idx2, idx3 = [], []
        for i in range(d):
            for sgn in (+1.0, -1.0):
                e = np.zeros(d)
                e[i] = sgn * l2
                idx2.append(len(pts))
                pts.append(e)
            for sgn in (+1.0, -1.0):
                e = np.zeros(d)
                e[i] = sgn * l3
                idx3.append(len(pts))
                pts.append(e)
        n4_start = len(pts)
        for i in range(d):
            for j in range(i + 1, d):
                for si in (+1.0, -1.0):
                    for sj in (+1.0, -1.0):
                        e = np.zeros(d)
                        e[i], e[j] = si * l4, sj * l4
                        pts.append(e)
        n5_start = len(pts)
        for corner in range(2 ** d):
            e = np.array(
                [l5 if (corner >> k) & 1 else -l5 for k in range(d)]
            )
            pts.append(e)

        self.nodes = np.array(pts)
        self.npts = len(pts)
        self.idx2 = np.array(idx2).reshape(d, 2)  # per-axis (+,-) rows
        self.idx3 = np.array(idx3).reshape(d, 2)
        self.ratio = (l2 / l3) ** 2

        vol = 2.0 ** d
        w = np.zeros(self.npts)
        w[0] = vol * (12824.0 - 9120.0 * d + 400.0 * d * d) / 19683.0
        w[self.idx2.ravel()] = vol * 980.0 / 6561.0
        w[self.idx3.ravel()] = vol * (1820.0 - 400.0 * d) / 19683.0
        w[n4_start:n5_start] = vol * 200.0 / 19683.0
        w[n5_start:] = vol * (6859.0 / 19683.0) / (2.0 ** d)
        self.w_high = w

        wl = np.zeros(self.npts)
        wl[0] = vol * (729.0 - 950.0 * d + 50.0 * d * d) / 729.0
        wl[self.idx2.ravel()] = vol * 245.0 / 486.0
        wl[self.idx3.ravel()] = vol * (265.0 - 100.0 * d) / 1458.0
        wl[n4_start:n5_start] = vol * 25.0 / 729.0
        self.w_low = wl

    def scores(self, vals: np.ndarray, high: np.ndarray) -> np.ndarray:
        # Fourth-difference indicator per axis (Genz-Malik split heuristic).
        f0 = vals[..., 0][..., None]
        s2 = vals[..., self.idx2[:, 0]] + vals[..., self.idx2[:, 1]] - 2.0 * f0
        s3 = vals[..., self.idx3[:, 0]] + vals[..., self.idx3[:, 1]] - 2.0 * f0
        return np.abs(s2 - self.ratio * s3)


@functools.cache
def _rule_for(ndim: int):
    return _TensorGaussKronrod(ndim) if ndim <= 2 else _GenzMalik(ndim)


# ---------------------------------------------------------------------------
# Adaptive driver
# ---------------------------------------------------------------------------


def _initial_boxes(box: Sequence[Interval], splits: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    edges = [
        np.linspace(iv.lo, iv.hi, n + 1) for iv, n in zip(box, splits)
    ]
    los = np.meshgrid(*[e[:-1] for e in edges], indexing="ij")
    his = np.meshgrid(*[e[1:] for e in edges], indexing="ij")
    lo = np.stack([a.ravel() for a in los], axis=-1)
    hi = np.stack([a.ravel() for a in his], axis=-1)
    return lo, hi


def _evaluate(f: Callable, rule, lo: np.ndarray, hi: np.ndarray,
              rows: int | None, first: bool = False):
    """Per-row panel values and errors, shape (rows, nbox), the split
    indicators, shape (nbox, d), taken as the largest over the rows, and
    ``rows``: None for a scalar integrand, else the batch size B, which the
    ``first`` evaluation reads from the output's shape."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # points: (nbox, npts) per axis
    coords = [
        center[:, k][:, None] + half[:, k][:, None] * rule.nodes[:, k][None, :]
        for k in range(lo.shape[1])
    ]
    shape = coords[0].shape
    vals = np.asarray(f(*coords), dtype=float)
    if first and vals.ndim == len(shape) + 1:
        rows = vals.shape[0]
    want = shape if rows is None else (rows,) + shape
    if vals.shape != want:
        raise ValueError(f"integrand returned shape {vals.shape} for abscissae of "
                         f"shape {shape}; expected {want}")
    if not np.isfinite(vals).all():
        raise NonFiniteIntegrand("integrand returned a non-finite value")
    value, err, scores = rule.apply(vals, half)
    if rows is None:  # the one-row case of a batch
        return value[None], err[None], scores, rows
    return value, err, scores.max(axis=0), rows


# Largest abscissa array an initial panelization may ask for (128 MiB of
# floats per row; a 4-D Wigner cubature peaks near 1.2 GB there); a larger
# one fails at once instead of exhausting memory.
_MAX_ABSCISSAE = 2 ** 24
_ROUNDOFF = 50.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _fsums(a: np.ndarray) -> list[float]:
    return [math.fsum(row) for row in a.tolist()]


def _stalled(why: str, err_totals: np.ndarray, tols: np.ndarray, batch: bool) -> NonConvergence:
    """NonConvergence naming the row furthest above its tolerance."""
    i = max(range(len(tols)), key=lambda k: err_totals[k] / max(tols[k], _TINY))
    row = f", row {i}" if batch else ""
    return NonConvergence(f"{why} (err={err_totals[i]:.3e}, tol={tols[i]:.3e}{row})")


def _adapt(
    f: Callable,
    box: Sequence[Interval],
    spec: QuadratureSpec,
    initial_splits: Sequence[int],
) -> QuadratureResult:
    rule = _rule_for(len(box))
    n_initial = math.prod(initial_splits)
    if n_initial * rule.npts > _MAX_ABSCISSAE:
        raise ValueError(f"initial_splits={list(initial_splits)} need {n_initial} boxes x "
                         f"{rule.npts} abscissae, over the cap of {_MAX_ABSCISSAE}")
    lo, hi = _initial_boxes(box, initial_splits)
    # values, errs: (rows, nbox); scores: (nbox, d)
    values, errs, scores, rows = _evaluate(f, rule, lo, hi, None, first=True)
    subdivisions = 0

    while True:
        err_totals = errs.sum(axis=1)
        tols = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(values.sum(axis=1)))
        act = np.flatnonzero(err_totals > tols)
        if not len(act):
            break
        err_a, tol_a = errs[act], tols[act]

        # Panel priority: the largest err/tol over the unconverged rows, in
        # units of the largest of their tolerances (plain errors when one
        # row is left, as for a scalar integrand).
        if len(act) > 1:
            scale = tol_a.max() / np.maximum(tol_a, _TINY)
            priority = (err_a * scale[:, None]).max(axis=0)
        else:
            priority = err_a[0]
        widths = hi - lo
        split_axis = np.argmax(scores, axis=1)
        splittable = np.take_along_axis(widths, split_axis[:, None], axis=1).ravel() > 0.0
        order = np.lexsort((np.arange(len(priority)), -priority))
        order = order[splittable[order]]
        if not len(order):
            raise _stalled("tolerance not met and no panel is splittable",
                           err_totals, tols, rows is not None)
        # Split the smallest prefix of worst boxes whose removal would pull
        # every unconverged row's remaining error comfortably under its
        # tolerance.
        remaining = err_totals[act][:, None] - np.cumsum(err_a[:, order], axis=1)
        need = (remaining > 0.45 * tol_a[:, None]).sum(axis=1) + 1
        count = max(1, min(int(need.max()), len(order)))
        budget = spec.max_subdivisions - subdivisions
        if budget <= 0:
            raise _stalled(f"max_subdivisions={spec.max_subdivisions} exhausted",
                           err_totals, tols, rows is not None)
        picked = order[: min(count, budget)]
        subdivisions += len(picked)

        ax = split_axis[picked]
        mid = 0.5 * (
            np.take_along_axis(lo[picked], ax[:, None], axis=1)
            + np.take_along_axis(hi[picked], ax[:, None], axis=1)
        )
        lo_l, hi_l = lo[picked].copy(), hi[picked].copy()
        lo_r, hi_r = lo[picked].copy(), hi[picked].copy()
        np.put_along_axis(hi_l, ax[:, None], mid, axis=1)
        np.put_along_axis(lo_r, ax[:, None], mid, axis=1)

        keep = np.ones(len(priority), dtype=bool)
        keep[picked] = False
        v_new, e_new, s_new, _ = _evaluate(
            f, rule, np.concatenate([lo_l, lo_r]), np.concatenate([hi_l, hi_r]), rows
        )
        values = np.concatenate([values[:, keep], v_new], axis=1)
        errs = np.concatenate([errs[:, keep], e_new], axis=1)
        scores = np.concatenate([scores[keep], s_new])
        lo = np.concatenate([lo[keep], lo_l, lo_r])
        hi = np.concatenate([hi[keep], hi_l, hi_r])

    # Rounding floor of the reported bound (QUADPACK's 50 eps per unit of
    # integrated magnitude): on panels fine enough for a batch's fastest
    # row, the K15-G7 differences of its smooth rows fall below the
    # floating-point resolution of their sums.
    totals = _fsums(values)
    err_est = np.array(_fsums(errs)) + _ROUNDOFF * np.abs(values).sum(axis=1)
    neval = rule.npts * (n_initial + 2 * subdivisions)
    if rows is None:
        return QuadratureResult(totals[0], float(err_est[0]), neval, subdivisions)
    return QuadratureResult(np.array(totals), err_est, neval, subdivisions)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def integrate_1d(
    f: Callable,
    domain: Interval,
    spec: QuadratureSpec | None = None,
    *,
    initial_panels: int = 1,
) -> QuadratureResult:
    """Adaptively integrate ``f`` over a finite interval.

    Parameters
    ----------
    f : callable
        Vectorized integrand, finite on the domain: called with an ndarray
        ``x`` it returns an array of ``x.shape``, or a batch of shape
        ``(B, *x.shape)`` holding B integrands that share one panel set.
        Any other output shape raises ``ValueError``.
    domain : Interval
        Integration interval.
    spec : QuadratureSpec, optional
        Tolerances; defaults to ``DEFAULT_SPEC_1D``.  Each row of a batch
        must meet ``err_i <= max(abs_tol, rel_tol * |value_i|)`` on its own.
    initial_panels : int
        Uniform panelization before refinement starts.  Use
        :func:`oscillation_panels` for integrands carrying a fast cosine;
        it holds each panel to pi/2 of its phase.

    Returns
    -------
    QuadratureResult
        ``value`` with the engine's own error bound ``err_est``: floats for
        a scalar integrand, arrays of length B for a batch.  ``neval``
        counts abscissae, not abscissae times rows.

    Raises
    ------
    NonConvergence
        Subdivision budget exhausted before tolerance was met.
    NonFiniteIntegrand
        ``f`` produced NaN or infinity.
    ValueError
        ``f`` returned an array of the wrong shape, or the initial panels
        would need more than 2**24 abscissae.
    """
    return _adapt(f, [domain], spec or DEFAULT_SPEC_1D, [max(1, initial_panels)])


def integrate_nd(
    f: Callable,
    box: Sequence[Interval],
    spec: QuadratureSpec | None = None,
    *,
    initial_splits: Sequence[int] | None = None,
) -> QuadratureResult:
    """Adaptively integrate ``f`` over a finite 2-D or 4-D box.

    ``f`` receives one coordinate array per axis and returns an array of
    their shape, or a batch of shape ``(B, *shape)`` as in
    :func:`integrate_1d`.  ``initial_splits``
    pre-panelizes each axis (oscillation safeguard); refinement then
    proceeds adaptively.  The result is deterministic and independent of
    evaluation order.  Splits that would need more than 2**24 abscissae
    in one evaluation raise ``ValueError`` before ``f`` is called.
    """
    ndim = len(box)
    if ndim not in (2, 4):
        raise UnsupportedDimension(f"integrate_nd supports 2-D and 4-D, got {ndim}-D")
    if spec is None:
        spec = DEFAULT_SPEC_2D if ndim == 2 else DEFAULT_SPEC_4D
    if initial_splits is None:
        initial_splits = [1] * ndim
    if len(initial_splits) != ndim:
        raise ValueError("initial_splits length must match box dimension")
    return _adapt(f, box, spec, [max(1, int(n)) for n in initial_splits])
