"""Transverse beam states and their phase-space Wigner functions.

Everything is expressed in Hartree atomic units: the Bohr radius is the
length unit (``a = 1``), momenta are in ``1/a``, ``hbar = m_e = 1``.

Five preparations of the transverse state are supported:

* ``gaussian``        -- a single round Gaussian packet of width sigma_perp;
* ``even_cat``        -- symmetric coherent superposition of two Gaussians
                         whose centers sit at ``+r0`` and ``-r0``;
* ``odd_cat``         -- the antisymmetric superposition;
* ``incoherent_pair`` -- the statistical 50/50 mixture of the two displaced
                         packets (no interference term);
* ``anisotropic``     -- a single Gaussian with different widths along x
                         and y.

The momentum wavefunction of one packet is
``psi_1(p) = sqrt(2 sigma_perp^2 / pi) * exp(-sigma_perp^2 p^2)`` and the
cat states carry the normalization ``1/sqrt(1 +/- exp(-r0^2/(2 sigma^2)))``
so that ``int d^2p |psi|^2 = 1`` exactly.

The Wigner function of one packet,
``W1(r, p) = exp(-2 sigma^2 p^2 - r^2/(2 sigma^2)) / pi^2``,
is everywhere positive.  For the cats the displaced-packet part plus the
interference term ``cos(2 r0 . p)`` can turn negative; the incoherent pair
keeps only the displaced part and stays nonnegative.  For numerical
stability the displaced part is evaluated as the explicit two-bump sum
rather than via ``cosh`` (avoids overflow at large separations).

W is written once, as products of a position and a momentum factor
(:func:`wigner_terms`; the cats add the fringe as a second product).
A scan grid runs each factor on its own position or momentum points and
forms W from their outer products in blocks of 2^16 grid points, so a
negativity scan never holds the whole grid.  Every phase-space integral
of W, the normalization and the 4-D scattering oracle alike, is the sum
of the products of each factor's 2-D integral over its own box: one
product path, with one error bound and one pair of truncation tails.

Every phase-space truncation box (negativity scans, normalization, the
4-D scattering oracle, the CLI export) comes from :func:`phase_space_box`,
and every scan grid of W (negativity scans, the CLI export) is the
:func:`wigner_grid`, built from the same blocks.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InvalidCatSeparation, NoPureState, UnsupportedVariant
from .quadrature import (DEFAULT_SPEC_4D, Interval, QuadratureResult, QuadratureSpec,
                         integrate_nd, oscillation_panels)

__all__ = [
    "HARTREE_EV",
    "BeamState",
    "PhasePoint",
    "NegativityScan",
    "momentum_wavefunction",
    "wigner",
    "wigner_terms",
    "wigner_values",
    "negativity_scan",
    "wigner_normalization",
    "kinetic_energy_keV",
    "momentum_from_keV",
    "phase_space_grid",
    "phase_space_box",
    "phase_space_panels",
    "WIGNER_GRID_N",
    "wigner_grid",
]

HARTREE_EV = 27.2114

GAUSSIAN = "gaussian"
EVEN_CAT = "even_cat"
ODD_CAT = "odd_cat"
INCOHERENT_PAIR = "incoherent_pair"
ANISOTROPIC = "anisotropic"

_CAT_VARIANTS = (EVEN_CAT, ODD_CAT)
_TWO_PACKET = (EVEN_CAT, ODD_CAT, INCOHERENT_PAIR)
_ALL_VARIANTS = (GAUSSIAN,) + _TWO_PACKET + (ANISOTROPIC,)

# Default points per axis of a Wigner scan grid, by mode (32^4 = 1 M in 4-D).
WIGNER_GRID_N = {"slice": 128, "full": 32}

# Below this separation the odd-cat normalization 1 - exp(-r0^2/2s^2)
# degenerates and the state is rejected.
ODD_CAT_MIN_SEPARATION = 1e-4


@dataclass(frozen=True)
class PhasePoint:
    """A point (r, p) of the transverse phase space, components in (a, 1/a)."""

    r: tuple[float, float]
    p: tuple[float, float]

    def __post_init__(self) -> None:
        vals = (*self.r, *self.p)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"phase-space point must be finite, got {vals}")


@dataclass(frozen=True)
class BeamState:
    """Immutable description of the incident transverse beam preparation.

    ``r0`` is half the packet separation (the centers sit at ``+/-r0``) and
    is parameterized by magnitude and azimuth ``phi_r0``.  ``sigma_z`` and
    ``p_i`` describe the longitudinal packet and enter only validity checks
    and energy conversion.
    """

    variant: str
    sigma_perp: float | None = None
    sigma_x: float | None = None
    sigma_y: float | None = None
    r0: float = 0.0
    phi_r0: float = 0.0
    sigma_z: float = 10.0
    p_i: float = 10.0

    def __post_init__(self) -> None:
        for name in ("sigma_perp", "sigma_x", "sigma_y", "r0", "phi_r0", "sigma_z", "p_i"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.variant not in _ALL_VARIANTS:
            raise ValueError(f"unknown beam variant {self.variant!r}")
        if self.p_i <= 0:
            raise ValueError("p_i must be > 0")
        if self.sigma_z <= 0:
            raise ValueError("sigma_z must be > 0")
        if self.variant == ANISOTROPIC:
            if not (self.sigma_x and self.sigma_y) or self.sigma_x <= 0 or self.sigma_y <= 0:
                raise ValueError("anisotropic state needs sigma_x > 0 and sigma_y > 0")
            if self.phi_r0 != 0.0:  # its symmetry axis is phi = 0
                raise ValueError(f"anisotropic state needs phi_r0 = 0, got {self.phi_r0}")
            return
        if self.sigma_perp is None or self.sigma_perp <= 0:
            raise ValueError(f"{self.variant} state needs sigma_perp > 0")
        if self.variant in _TWO_PACKET:
            if self.r0 < 0:
                raise ValueError("r0 must be >= 0")
            if self.variant == ODD_CAT:
                if self.r0 < ODD_CAT_MIN_SEPARATION * self.sigma_perp:
                    raise InvalidCatSeparation(
                        f"odd cat needs r0 >= {ODD_CAT_MIN_SEPARATION} sigma_perp, "
                        f"got r0/sigma_perp = {self.r0 / self.sigma_perp:.3e}"
                    )
                if self.r0 < self.sigma_perp * (1.0 - 1e-12):
                    warnings.warn(
                        "odd cat with r0 < sigma_perp: the two humps stay separated "
                        "by about 2 sigma_perp and the r0 -> 0 limit has no meaning",
                        stacklevel=3,
                    )

    # -- constructors -------------------------------------------------

    @classmethod
    def gaussian(cls, sigma_perp: float, *, sigma_z: float = 10.0, p_i: float = 10.0) -> "BeamState":
        return cls(GAUSSIAN, sigma_perp=sigma_perp, sigma_z=sigma_z, p_i=p_i)

    @classmethod
    def even_cat(cls, sigma_perp: float, r0: float, *, phi_r0: float = 0.0,
                 sigma_z: float = 10.0, p_i: float = 10.0) -> "BeamState":
        return cls(EVEN_CAT, sigma_perp=sigma_perp, r0=r0, phi_r0=phi_r0,
                   sigma_z=sigma_z, p_i=p_i)

    @classmethod
    def odd_cat(cls, sigma_perp: float, r0: float, *, phi_r0: float = 0.0,
                sigma_z: float = 10.0, p_i: float = 10.0) -> "BeamState":
        return cls(ODD_CAT, sigma_perp=sigma_perp, r0=r0, phi_r0=phi_r0,
                   sigma_z=sigma_z, p_i=p_i)

    @classmethod
    def incoherent_pair(cls, sigma_perp: float, r0: float, *, phi_r0: float = 0.0,
                        sigma_z: float = 10.0, p_i: float = 10.0) -> "BeamState":
        return cls(INCOHERENT_PAIR, sigma_perp=sigma_perp, r0=r0, phi_r0=phi_r0,
                   sigma_z=sigma_z, p_i=p_i)

    @classmethod
    def anisotropic(cls, sigma_x: float, sigma_y: float, *, sigma_z: float = 10.0,
                    p_i: float = 10.0) -> "BeamState":
        return cls(ANISOTROPIC, sigma_x=sigma_x, sigma_y=sigma_y,
                   sigma_z=sigma_z, p_i=p_i)

    def with_r0(self, r0: float) -> "BeamState":
        return replace(self, r0=r0)

    # -- derived quantities -------------------------------------------

    @property
    def is_cat(self) -> bool:
        return self.variant in _CAT_VARIANTS

    @property
    def parity(self) -> int:
        """+1 for the even cat, -1 for the odd cat, 0 otherwise."""
        return {EVEN_CAT: 1, ODD_CAT: -1}.get(self.variant, 0)

    @property
    def r0_vec(self) -> np.ndarray:
        """Half-separation vector; zero for single packets, which ignore r0."""
        if self.variant not in _TWO_PACKET:
            return np.zeros(2)
        return self.r0 * np.array([math.cos(self.phi_r0), math.sin(self.phi_r0)])

    @property
    def packet_overlap(self) -> float:
        """exp(-r0^2 / (2 sigma_perp^2)), the two-packet overlap factor."""
        if self.variant == ANISOTROPIC:
            return 1.0
        return math.exp(-self.r0 ** 2 / (2.0 * self.sigma_perp ** 2))

    @property
    def widths(self) -> tuple[float, float]:
        if self.variant == ANISOTROPIC:
            return (self.sigma_x, self.sigma_y)
        return (self.sigma_perp, self.sigma_perp)


def kinetic_energy_keV(p: float) -> float:
    """Non-relativistic kinetic energy p^2 / 2 of momentum ``p`` [1/a], in keV."""
    if p <= 0:
        raise ValueError("p must be > 0")
    return 0.5 * p * p * HARTREE_EV / 1000.0


def momentum_from_keV(energy_keV: float) -> float:
    """Inverse of :func:`kinetic_energy_keV`, non-relativistic: 85.7 a.u. at 100 keV
    against the relativistic 89.8 (5 % low), 121.2 against 132.6 at 200 keV (9 % low)."""
    if energy_keV <= 0:
        raise ValueError("energy must be > 0")
    return math.sqrt(2.0 * energy_keV * 1000.0 / HARTREE_EV)


def momentum_wavefunction(state: BeamState, p: Sequence[float]) -> complex:
    """Momentum-space wavefunction psi(p) of a pure transverse state.

    Returns the single-packet Gaussian for the ``gaussian`` variant and the
    normalized two-packet superposition for the cats.  The incoherent pair
    is a mixed state (``NoPureState``); the anisotropic variant is used
    only through its Wigner function (``UnsupportedVariant``).
    """
    if state.variant == INCOHERENT_PAIR:
        raise NoPureState("the incoherent two-packet mixture has no wavefunction")
    if state.variant == ANISOTROPIC:
        raise UnsupportedVariant("anisotropic packets are used via their Wigner function only")
    p = np.asarray(p, dtype=float)
    sp = state.sigma_perp
    psi1 = math.sqrt(2.0 * sp * sp / math.pi) * np.exp(-sp * sp * (p @ p))
    if state.variant == GAUSSIAN:
        return complex(psi1)
    phase = float(state.r0_vec @ p)
    sign = state.parity
    num = np.exp(-1j * phase) + sign * np.exp(1j * phase)
    denom = math.sqrt(2.0) * math.sqrt(1.0 + sign * state.packet_overlap)
    return complex(psi1 * num / denom)


def wigner_terms(state: BeamState, x, y, px, py) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (P_k, M_k) pairs of ``W = sum_k P_k(x, y) M_k(p_x, p_y)``, P_k on
    the broadcast shape of ``x, y``, M_k on that of ``px, py``.  A cat's
    second pair is its fringe, envelope(r) times cos(2 r0 . p); its
    parity and normalization 1 +/- overlap ride on the P_k."""
    x, y, px, py = (np.asarray(a, dtype=float) for a in (x, y, px, py))
    if state.variant == ANISOTROPIC:
        sx, sy = state.sigma_x, state.sigma_y
        return [(np.exp(-x * x / (2.0 * sx * sx) - y * y / (2.0 * sy * sy)),
                 np.exp(-2.0 * sx * sx * px * px - 2.0 * sy * sy * py * py) / math.pi ** 2)]

    sp = state.sigma_perp
    twoss = 2.0 * sp * sp
    gp = np.exp(-twoss * (px * px + py * py)) / math.pi ** 2
    if state.variant == GAUSSIAN:
        return [(np.exp(-(x * x + y * y) / twoss), gp)]

    r0x, r0y = state.r0_vec
    # Displaced-packet part written as the explicit two-bump sum; this is
    # cosh(r0.r/sp^2) exp(-r0^2/2sp^2) exp(-r^2/2sp^2) without overflow.
    bumps = 0.5 * (
        np.exp(-((x - r0x) ** 2 + (y - r0y) ** 2) / twoss)
        + np.exp(-((x + r0x) ** 2 + (y + r0y) ** 2) / twoss)
    )
    if state.variant == INCOHERENT_PAIR:
        return [(bumps, gp)]
    sign = state.parity
    norm = 1.0 + sign * state.packet_overlap
    envelope = np.exp(-(x * x + y * y) / twoss) * (sign / norm)
    return [(bumps / norm, gp), (envelope, gp * np.cos(2.0 * (r0x * px + r0y * py)))]


def wigner_values(state: BeamState, x, y, px, py) -> np.ndarray:
    """Vectorized Wigner function at the broadcast shape of its inputs, as
    the sum of the :func:`wigner_terms` products.  The inputs are not
    broadcast: each factor runs on the (x, y) or the (p_x, p_y) shape, and
    only the products and their sum on the full one."""
    (p, m), *rest = wigner_terms(state, x, y, px, py)
    w = p * m
    for p, m in rest:  # in place: one full-shape temporary at a time
        w += p * m
    return w


def wigner(state: BeamState, pt: PhasePoint) -> float:
    """Wigner function W(r, p) at a single phase-space point."""
    return float(wigner_values(state, pt.r[0], pt.r[1], pt.p[0], pt.p[1]))


# ---------------------------------------------------------------------------
# Grids, scans, normalization
# ---------------------------------------------------------------------------


def phase_space_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """Uniform endpoint-exclusive grid; contains 0 exactly for even ``n``
    on a symmetric interval."""
    return lo + (hi - lo) * np.arange(n) / n


@dataclass(frozen=True)
class NegativityScan:
    min_value: float
    min_location: PhasePoint
    negative_volume_fraction: float
    grid_n: int
    mode: str


def phase_space_box(
    widths: Sequence[float], centers: Sequence[float], n_r: float, n_p: float
) -> tuple[Interval, Interval, Interval, Interval]:
    """Truncation box (x, y, p_x, p_y) of packets centered at ``+/-centers``.

    Axis j spans ``+/-(n_r * sigma_j + |c_j|)`` in position, enough to hold
    both packets, and ``+/-n_p / sigma_j`` in momentum.  Pass the lab-frame
    ``state.widths, state.r0_vec``, or ``(r0, 0)`` as the centers for axes
    aligned with the separation.
    """
    (sx, sy), (cx, cy) = widths, centers
    rx, ry = n_r * sx + abs(cx), n_r * sy + abs(cy)
    px, py = n_p / sx, n_p / sy
    return Interval(-rx, rx), Interval(-ry, ry), Interval(-px, px), Interval(-py, py)


def phase_space_panels(state: BeamState, box: Sequence[Interval]) -> list[int]:
    """Initial splits of a 4-D (x, y, p_x, p_y) box for cubature of W: the
    first two split its position box, the last two its momentum box.

    Panels span about one packet width per axis; on the momentum axes of a
    cat they also hold at most pi/2 of the fringe ``cos(2 r0 . p)``, the
    budget of :func:`~catscatter.quadrature.oscillation_panels`.
    """
    sx, sy = state.widths
    bx, by, bpx, bpy = box
    rate_x, rate_y = (2.0 * abs(v) if state.is_cat else 0.0 for v in state.r0_vec)
    return [
        max(4, math.ceil(bx.width / (2.0 * sx))),
        max(4, math.ceil(by.width / (2.0 * sy))),
        max(4, math.ceil(bpx.width * sx / 2.0), oscillation_panels(bpx.width, rate_x)),
        max(4, math.ceil(bpy.width * sy / 2.0), oscillation_panels(bpy.width, rate_y)),
    ]


# Grid points per block of a scan.  A block, its product temporary and its
# sign mask (2 x 512 KB + 64 KB) stay in L2: a grid-32 full scan of an odd
# cat, in blocks of 16, 32, 64, 128 and 256 rows of 1,024 points, took
# 3.2-3.9, 3.6, 2.9, 2.9 and 3.7 ms (best of 30, 2-vCPU Xeon host).
_BLOCK_POINTS = 2 ** 16


def _grid_terms(state: BeamState, n: int, mode: str):
    """The open-mesh axes of :func:`wigner_grid` and the :func:`wigner_terms`
    on them, each P_k flattened over the position points and each M_k over
    the momentum points, so that W = sum_k outer(P_k, M_k)."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"grid points per axis must be an integer >= 1, got {n!r}")
    if mode == "slice":
        r0 = state.r0 if state.variant in _TWO_PACKET else 0.0
        u_box, _, p_box, _ = phase_space_box(state.widths, (r0, 0.0), 4.0, 4.0)
        ex, ey = math.cos(state.phi_r0), math.sin(state.phi_r0)
        axes = U, PU = np.meshgrid(phase_space_grid(u_box.lo, u_box.hi, n),
                                   phase_space_grid(p_box.lo, p_box.hi, n),
                                   indexing="ij", sparse=True)
        terms = wigner_terms(state, U * ex, U * ey, PU * ex, PU * ey)
    elif mode == "full":
        box = phase_space_box(state.widths, state.r0_vec, 4.0, 4.0)
        axes = np.meshgrid(*(phase_space_grid(iv.lo, iv.hi, n) for iv in box),
                           indexing="ij", sparse=True)
        terms = wigner_terms(state, *axes)
    else:
        raise ValueError(f"mode must be 'slice' or 'full', got {mode!r}")
    return axes, [(p.reshape(-1), m.reshape(-1)) for p, m in terms]


def _wigner_blocks(terms):
    """Yield ``(i, w)``: W on position rows ``i, i + 1, ...`` of the grid,
    in one reused buffer of at most ``_BLOCK_POINTS`` points, by the
    operations of :func:`wigner_values` in its order."""
    (p0, m0), *rest = terms
    step = max(1, _BLOCK_POINTS // m0.size)
    bufs = np.empty((2, min(step, p0.size), m0.size))
    for i in range(0, p0.size, step):
        rows = slice(i, i + step)
        w, t = bufs[:, :p0.size - i]
        np.multiply(p0[rows, None], m0, out=w)
        for p, m in rest:
            w += np.multiply(p[rows, None], m, out=t)
        yield i, w


def wigner_grid(state: BeamState, n: int, mode: str) -> tuple[np.ndarray, ...]:
    """W on ``n`` endpoint-exclusive points per axis of the
    :func:`phase_space_box` with ``n_r = n_p = 4``.

    ``mode='slice'`` is the (u, p_u) plane along the separation axis with
    the transverse coordinates held at zero (the plotting convention
    ``y = p_y = 0`` when ``r0`` lies along x), spanning ``+/-(4 sigma + r0)``
    in u (r0 = 0 for single packets, as in ``r0_vec``) and ``+/-4 / sigma``
    in p_u; it returns ``(U, PU, W)``, indexed ``[u, p_u]``.  ``mode='full'``
    is the lab-frame 4-D box; it returns ``(X, Y, PX, PY, W)``, indexed
    ``[x, y, p_x, p_y]``.  Each :func:`wigner_terms` factor runs on its own
    position or momentum points, and W is filled block by block from their
    products, as :func:`negativity_scan` reads it; the values are those of
    :func:`wigner_values` bit for bit.  The coordinates are read-only
    broadcast views.
    """
    axes, terms = _grid_terms(state, n, mode)
    w = np.empty((terms[0][0].size, terms[0][1].size))
    for i, block in _wigner_blocks(terms):
        w[i:i + len(block)] = block
    w = w.reshape((n,) * len(axes))
    return (*(np.broadcast_to(a, w.shape) for a in axes), w)


def negativity_scan(
    state: BeamState, *, grid_n: int | None = None, mode: str = "slice"
) -> NegativityScan:
    """Exhaustive grid scan for Wigner-function negativity.

    ``mode='slice'`` scans the (u, p_u) plane along the packet-separation
    axis with the transverse coordinates fixed at zero (the plotting
    convention ``y = p_y = 0`` when ``r0`` is along x); ``mode='full'``
    scans the whole 4-D box.  ``negative_volume_fraction`` is the fraction
    of grid cells with W < 0; ``min_value`` is the raw grid minimum, and
    ``min_location`` its first occurrence in row-major order.

    Both modes scan the :func:`wigner_grid`: ``+/-(4 sigma + |r0|)`` in
    position, so both packets are inside, and ``+/-4/sigma`` in momentum,
    with ``WIGNER_GRID_N[mode]`` points per axis by default.  The slice's
    box is measured along the separation axis, so a round beam scans the
    same plane for every ``phi_r0``.  The scan reduces W block by block and
    never forms the grid: its memory is two blocks of 2^16 points (1 MB)
    whatever ``grid_n`` is.
    """
    if mode not in WIGNER_GRID_N:
        raise ValueError(f"mode must be 'slice' or 'full', got {mode!r}")
    if grid_n is None:
        grid_n = WIGNER_GRID_N[mode]
    if grid_n < 16:
        raise ValueError("grid_n must be >= 16")
    axes, terms = _grid_terms(state, grid_n, mode)
    min_value, at, negative = math.inf, 0, 0
    for i, w in _wigner_blocks(terms):
        k = int(np.argmin(w))
        if w.flat[k] < min_value:  # strictly: keeps the first occurrence
            min_value, at = float(w.flat[k]), i * w.shape[1] + k
        negative += int(np.count_nonzero(w < 0.0))
    at = np.unravel_index(at, (grid_n,) * len(axes))
    loc = [a.reshape(-1)[j] for a, j in zip(axes, at)]
    if mode == "slice":
        (u, pu), ex, ey = loc, math.cos(state.phi_r0), math.sin(state.phi_r0)
        loc = (u * ex, u * ey, pu * ex, pu * ey)
    x, y, px, py = map(float, loc)
    return NegativityScan(
        min_value=min_value,
        min_location=PhasePoint(r=(x, y), p=(px, py)),
        negative_volume_fraction=negative / grid_n ** len(axes),
        grid_n=grid_n,
        mode=mode,
    )


def _product_integral(state: BeamState, spec: QuadratureSpec, w_b, w_p,
                      b_box: Sequence[Interval] | None = None, n_max: float = 1.0,
                      out_frac: float = 1.0) -> QuadratureResult:
    """int d2b d2p w_b(b) W(b, p) w_p(p) over the :func:`phase_space_box`
    with six widths and four inverse widths, its position part replaced by
    ``b_box`` when given.  With W = sum_k P_k(b) M_k(p) from
    :func:`wigner_terms` it is exactly sum_k A_k B_k (Fubini), A_k = int
    w_b P_k d2b and B_k = int w_p M_k d2p: one batched 2-D cubature per
    side on the :func:`phase_space_panels` splits, with error sum_k |A_k|
    E_Bk + |B_k| E_Ak + E_Ak E_Bk.  A cat's momentum rows are w_p M_0 and
    w_p (M_0 + M_1), B_1 their difference, so a negligible fringe cannot
    stall its row.  ``neval`` and ``subdivisions`` sum both cubatures.

    Each E adds a truncation tail to the engine's err_est.  Position:
    ``out_frac * n_max`` times the mass of |P_k| (2 pi sx sy / (1 +/-
    overlap) each for a cat) beyond six widths, plus e^-32 of it times
    ``n_max`` for a ``b_box`` clipped at eight deviations of the weight;
    so 0 <= w_b <= n_max, and w_b <= out_frac * n_max outside the box.
    Momentum: 0 <= w_p <= 1 times the mass of M_0 beyond four inverse widths
    (eight deviations), twice on the fringe row; B_1 bears both rows'.
    """
    box = phase_space_box(state.widths, state.r0_vec, 6.0, 4.0)
    splits = phase_space_panels(state, box)
    sx, sy = state.widths

    def position(x, y):
        w = w_b(x, y)
        return np.stack([w * p for p, _ in wigner_terms(state, x, y, 0.0, 0.0)])

    def momentum(px, py):
        return w_p(px, py) * np.cumsum([m for _, m in wigner_terms(state, 0.0, 0.0, px, py)], axis=0)

    def outside(n_sd):  # mass fraction of a 2-D Gaussian outside +/- n_sd deviations, 1 - erf^2
        return math.erfc(n_sd / math.sqrt(2.0)) * (1.0 + math.erf(n_sd / math.sqrt(2.0)))

    a = integrate_nd(position, b_box or box[:2], spec, initial_splits=splits[:2])
    b = integrate_nd(momentum, box[2:], spec, initial_splits=splits[2:])
    mass_p = 2.0 * math.pi * sx * sy / (1.0 + state.parity * state.packet_overlap)
    e_a = a.err_est + n_max * mass_p * (out_frac * outside(6.0) + math.exp(-32.0))
    e_b = np.cumsum(b.err_est + np.arange(1, len(b.value) + 1) * outside(8.0)
                    / (2.0 * math.pi * sx * sy))
    b_k = np.diff(b.value, prepend=0.0)
    return QuadratureResult(float(a.value @ b_k),
                            float(np.abs(a.value) @ e_b + np.abs(b_k) @ e_a + e_a @ e_b),
                            a.neval + b.neval, a.subdivisions + b.subdivisions)


def wigner_normalization(state: BeamState) -> QuadratureResult:
    """Integrate W, as the 4-D scattering oracle integrates n W f^2, over
    its box of six widths around the packet centers and four inverse widths
    in momentum, on ``DEFAULT_SPEC_4D``: see :func:`_product_integral`.

    The bound holds both cubatures' errors and the mass the box leaves out.
    An odd cat's bound grows as 1 / (1 - overlap) as r0 falls below
    sigma_perp, where its two products nearly cancel, and passes 1e-4 near
    r0 = 0.3 sigma_perp.
    """
    one = lambda u, v: 1.0
    return _product_integral(state, DEFAULT_SPEC_4D, one, one)
