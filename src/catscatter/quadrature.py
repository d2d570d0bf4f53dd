"""Deterministic adaptive quadrature over finite intervals and 2-D boxes.

The engine subdivides panels carrying the 15-point Gauss-Kronrod rule with
the embedded 7-point Gauss rule (tensor product in 2-D), error estimated
from the K15-G7 difference.

Refinement is global: on every round the boxes holding the dominant error
are bisected along the axis with the largest error indicator, taken over
the rows: in 2-D the mixed rule (Gauss on that axis, Kronrod on the
other).  A 1-D panel is simply halved.
A vector-valued integrand (one row per integrand of a batch) shares one
panel set across its rows; each row must meet its own tolerance, and a
round splits the boxes holding the largest error-to-tolerance ratio among
the rows that have not converged yet.  A scalar integrand is the one-row
case of the same adaptive loop.
Reported values and error estimates are the numpy row sums of the last
convergence test, the panel bookkeeping is ordered, and no randomness
enters anywhere, so identical inputs give bit-identical results for a
given numpy build.  An integrand call takes at most 2**20 abscissae x rows
(the first of a batch 2**20 abscissae), so memory stays bounded per call.
Everything is pure and reentrant; callers may integrate from many threads
concurrently.

Every bound of a domain is finite; a caller with a decaying tail maps it
onto a finite domain or truncates it where the dropped part is below
tolerance.  Integrands must be vectorized: ``f`` receives one ``numpy``
array per coordinate and returns an array of the same shape, or of shape
``(B, *shape)`` for a batch of ``B`` integrands.  The first evaluation
fixes which of the two it is; any other output shape, then or later, is a
``ValueError``.  A callable that rejects arrays (``math.exp``) raises its
own error.
"""

from __future__ import annotations

import functools
import math
import numbers
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
        # A NaN tolerance would fail every err > tol test and stop refinement.
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol!r}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol >= 0):
            raise ValueError(f"abs_tol must be finite and >= 0, got {self.abs_tol!r}")
        if not isinstance(self.max_subdivisions, numbers.Integral) or self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be an integer >= 1, "
                             f"got {self.max_subdivisions!r}")


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
# Fringe phase one initial panel may hold.  A K15 panel resolves a
# Gaussian-damped cosine to rounding level over this much phase, and a
# quarter period keeps every panel far from a whole one.
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
# Embedded rule
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


class _TensorGaussKronrod:
    """Tensor-product K15/G7 rule pair ``w_high``/``w_low`` on the reference
    box [-1, 1]^d, for 1-D and 2-D boxes."""

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
        # per-axis error indicator used to pick the split direction in 2-D.
        self.w_axis = [
            tensor([_WG_EMBEDDED if i == ax else _WGK for i in range(ndim)])
            for ax in range(ndim)
        ]

    def apply(self, vals: np.ndarray, halves: np.ndarray):
        """vals: (rows, nbox, npts); halves: (nbox, d) half-widths.  Returns
        the panel values and error bounds, (rows, nbox), and each box's
        split axis: the largest per-axis indicator over the rows, and axis
        0 without one on a single axis."""
        scale = np.prod(halves, axis=1)
        high = vals @ self.w_high
        low = vals @ self.w_low
        if halves.shape[1] == 1:
            axis = np.zeros(len(halves), dtype=np.intp)
        else:
            scores = np.stack([np.abs(high - vals @ w) for w in self.w_axis], axis=-1)
            axis = np.argmax(scores.max(axis=0), axis=1)
        return high * scale, np.abs(high - low) * scale, axis


_rule_for = functools.cache(_TensorGaussKronrod)


# ---------------------------------------------------------------------------
# Adaptive driver
# ---------------------------------------------------------------------------


def _initial_boxes(edges: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    # Lower and upper panel corners, (nbox, d), in "ij" order: the first axis varies slowest.
    d = len(edges)
    lo, hi = np.empty((2, *[len(e) - 1 for e in edges], d))
    for k, e in enumerate(edges):
        lo[..., k], hi[..., k] = (s.reshape((-1,) + (1,) * (d - 1 - k)) for s in (e[:-1], e[1:]))
    return lo.reshape(-1, d), hi.reshape(-1, d)


def _evaluate(f: Callable, rule, lo: np.ndarray, hi: np.ndarray,
              rows: int | None, first: bool = False):
    """Per-row panel values and errors, shape (rows, nbox), each box's
    split axis, shape (nbox,), and ``rows``: None for a scalar integrand,
    else the batch size B, which the ``first`` output fixes.  ``f`` takes
    whole boxes, at most ``_CHUNK`` abscissae x rows per call (one row
    until ``rows`` is fixed)."""
    parts, start = [], 0
    while start < len(lo):
        box = slice(start, start + max(1, _CHUNK // (rule.npts * (rows or 1))))
        center = 0.5 * (lo[box] + hi[box])
        half = 0.5 * (hi[box] - lo[box])
        # points: (nbox, npts) per axis
        coords = [
            center[:, k][:, None] + half[:, k][:, None] * rule.nodes[:, k][None, :]
            for k in range(lo.shape[1])
        ]
        shape = coords[0].shape
        vals = np.asarray(f(*coords), dtype=float)
        if first and vals.ndim == len(shape) + 1:
            rows = vals.shape[0]
        first = False
        want = shape if rows is None else (rows,) + shape
        if vals.shape != want:
            raise ValueError(f"integrand returned shape {vals.shape} for abscissae of "
                             f"shape {shape}; expected {want}")
        if not np.isfinite(vals).all():
            raise NonFiniteIntegrand("integrand returned a non-finite value")
        # A scalar integrand is the one-row case of a batch.
        parts.append(rule.apply(vals[None] if rows is None else vals, half))
        start = box.stop
    if len(parts) > 1:
        parts = [[np.concatenate(p, axis=-1) for p in zip(*parts)]]
    return (*parts[0], rows)


# Abscissae x rows per integrand call, so a round's memory stays bounded
# whatever its box count.  A split round's ``vals @ w`` differs from an
# unsplit one's in the last bits: BLAS sums in an order set by the shape.
_CHUNK = 2 ** 20
_ROUNDOFF = 50.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _stalled(why: str, errs: np.ndarray, tols: np.ndarray, lo: np.ndarray,
             hi: np.ndarray, batch: bool) -> NonConvergence:
    """NonConvergence naming the row furthest above its tolerance and that
    row's box of largest err/tol."""
    err_totals = errs.sum(axis=1)
    i = int(np.argmax(err_totals / np.maximum(tols, _TINY)))
    j = int(np.argmax(errs[i]))
    row = f", row {i}" if batch else ""
    box = " x ".join(f"[{a:.6g}, {b:.6g}]" for a, b in zip(lo[j], hi[j]))
    return NonConvergence(f"{why} (err={err_totals[i]:.3e}, tol={tols[i]:.3e}{row}; worst "
                          f"box {box} at err/tol={errs[i, j] / max(tols[i], _TINY):.3e})")


def _adapt(f: Callable, edges: Sequence[np.ndarray], spec: QuadratureSpec) -> QuadratureResult:
    rule = _rule_for(len(edges))
    n_initial = math.prod(len(e) - 1 for e in edges)
    lo, hi = _initial_boxes(edges)
    # values, errs: (rows, nbox); split_axis: (nbox,)
    values, errs, split_axis, rows = _evaluate(f, rule, lo, hi, None, first=True)
    subdivisions = 0

    while True:
        totals, err_totals = values.sum(axis=1), errs.sum(axis=1)
        tols = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(totals))
        act = np.flatnonzero(err_totals > tols)
        if not len(act):
            break
        err_a, tol_a = errs[act], tols[act]

        # Panel priority: the largest err/tol over the unconverged rows, in
        # units of the largest of their tolerances (plain errors when one
        # row is left, as for a scalar integrand).
        scale = max(tol_a.max(), _TINY) / np.maximum(tol_a, _TINY)
        priority = (err_a * scale[:, None]).max(axis=0)
        splittable = np.take_along_axis(hi - lo, split_axis[:, None], axis=1).ravel() > 0.0
        order = np.argsort(-priority, kind="stable")
        order = order[splittable[order]]
        if not len(order):
            raise _stalled("tolerance not met and no panel is splittable",
                           errs, tols, lo, hi, rows is not None)
        # Split the smallest prefix of worst boxes whose removal would pull
        # every unconverged row's remaining error comfortably under its
        # tolerance.
        remaining = err_totals[act][:, None] - np.cumsum(err_a[:, order], axis=1)
        need = (remaining > 0.45 * tol_a[:, None]).sum(axis=1) + 1
        count = max(1, min(int(need.max()), len(order)))
        budget = spec.max_subdivisions - subdivisions
        if budget <= 0:
            raise _stalled(f"max_subdivisions={spec.max_subdivisions} exhausted",
                           errs, tols, lo, hi, rows is not None)
        picked = order[: min(count, budget)]
        subdivisions += len(picked)

        ax = split_axis[picked]
        lo_l, hi_r = lo[picked], hi[picked]  # fancy indexing copies
        mid = 0.5 * (np.take_along_axis(lo_l, ax[:, None], axis=1)
                     + np.take_along_axis(hi_r, ax[:, None], axis=1))
        hi_l, lo_r = hi_r.copy(), lo_l.copy()
        np.put_along_axis(hi_l, ax[:, None], mid, axis=1)
        np.put_along_axis(lo_r, ax[:, None], mid, axis=1)

        keep = np.ones(len(priority), dtype=bool)
        keep[picked] = False
        v_new, e_new, a_new, _ = _evaluate(
            f, rule, np.concatenate([lo_l, lo_r]), np.concatenate([hi_l, hi_r]), rows
        )
        values = np.concatenate([values[:, keep], v_new], axis=1)
        errs = np.concatenate([errs[:, keep], e_new], axis=1)
        split_axis = np.concatenate([split_axis[keep], a_new])
        lo = np.concatenate([lo[keep], lo_l, lo_r])
        hi = np.concatenate([hi[keep], hi_l, hi_r])

    # Rounding floor of the reported bound (QUADPACK's 50 eps per unit of
    # integrated magnitude): on panels fine enough for a batch's fastest
    # row, the K15-G7 differences of its smooth rows fall below the
    # floating-point resolution of their sums.
    err_est = err_totals + _ROUNDOFF * np.abs(values).sum(axis=1)
    neval = rule.npts * (n_initial + 2 * subdivisions)
    if rows is None:
        return QuadratureResult(float(totals[0]), float(err_est[0]), neval, subdivisions)
    return QuadratureResult(totals, err_est, neval, subdivisions)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def integrate_1d(
    f: Callable,
    domain: Interval,
    spec: QuadratureSpec | None = None,
    *,
    initial_panels: int | Sequence[float] = 1,
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
    initial_panels : int or sequence of float
        Panels before refinement starts: a count of uniform panels, or
        their edges, increasing from ``domain.lo`` to ``domain.hi``.  Use
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
        ``f`` returned an array of the wrong shape, or panel edges that do
        not increase from ``domain.lo`` to ``domain.hi``.
    """
    edges = (np.linspace(domain.lo, domain.hi, max(1, initial_panels) + 1)
             if np.ndim(initial_panels) == 0 else np.asarray(initial_panels, dtype=float))
    if edges[0] != domain.lo or edges[-1] != domain.hi or (np.diff(edges) <= 0).any():
        raise ValueError(f"panel edges must increase from {domain.lo} to {domain.hi}")
    return _adapt(f, [edges], spec or DEFAULT_SPEC_1D)


def integrate_nd(
    f: Callable,
    box: Sequence[Interval],
    spec: QuadratureSpec | None = None,
    *,
    initial_splits: Sequence[int] | None = None,
) -> QuadratureResult:
    """Adaptively integrate ``f`` over a finite 2-D box.

    ``f`` receives one coordinate array per axis and returns an array of
    their shape, or a batch of shape ``(B, *shape)`` as in
    :func:`integrate_1d`.  ``initial_splits`` pre-panelizes each axis
    (oscillation safeguard); refinement then proceeds adaptively.  The
    result is deterministic and independent of evaluation order.  A box of
    any other dimension raises ``UnsupportedDimension``; a 4-D integrand
    that is a sum of products of 2-D factors is the sum of the products
    of their 2-D integrals.
    """
    if len(box) != 2:
        raise UnsupportedDimension(f"integrate_nd supports 2-D boxes only, got {len(box)}-D")
    if initial_splits is None:
        initial_splits = [1, 1]
    if len(initial_splits) != 2:
        raise ValueError("initial_splits length must match box dimension")
    return _adapt(f, [np.linspace(iv.lo, iv.hi, max(1, int(n)) + 1)
                      for iv, n in zip(box, initial_splits)], spec or DEFAULT_SPEC_2D)
