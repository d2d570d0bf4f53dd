import math
import re

import numpy as np
import pytest

from catscatter import quadrature
from catscatter.errors import NonConvergence, NonFiniteIntegrand, UnsupportedDimension
from catscatter.quadrature import (
    Interval,
    QuadratureSpec,
    integrate_1d,
    integrate_nd,
    oscillation_panels,
)
from catscatter.states import BeamState, wigner_normalization

TIGHT = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)


def test_interval_invariants():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(math.inf, 2 * math.inf)
    with pytest.raises(ValueError, match="finite"):
        Interval(0.0, math.inf)
    with pytest.raises(ValueError, match="finite"):
        Interval(-math.inf, 0.0)
    assert Interval(0.0, 2.0).width == 2.0


def test_spec_invariants():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
    # A NaN tolerance fails every err > tol test and would stop refinement
    # at once; a fractional budget would fail deep inside the adaptive loop.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="rel_tol"):
            QuadratureSpec(rel_tol=bad)
        with pytest.raises(ValueError, match="abs_tol"):
            QuadratureSpec(abs_tol=bad)
    with pytest.raises(ValueError, match="max_subdivisions"):
        QuadratureSpec(max_subdivisions=2.5)
    assert QuadratureSpec(max_subdivisions=np.int64(5)).max_subdivisions == 5


def test_polynomial():
    r = integrate_1d(lambda x: x * x, Interval(0.0, 1.0))
    assert abs(r.value - 1.0 / 3.0) <= 1e-14


def test_closed_form_integrand_shape():
    # e^-x (x + x^2 + x^3/6) over [0, inf) is Gamma(2) + Gamma(3) + Gamma(4)/6;
    # the tail beyond x = 60 is below 1e-20.
    r = integrate_1d(lambda x: np.exp(-x) * (x + x * x + x ** 3 / 6.0),
                     Interval(0.0, 60.0))
    assert abs(r.value - 4.0) <= 4e-8


def test_2d_gaussian_normalization():
    r = integrate_nd(lambda x, y: np.exp(-x * x - y * y) / math.pi,
                     [Interval(-8, 8), Interval(-8, 8)], TIGHT,
                     initial_splits=[4, 4])
    assert abs(r.value - 1.0) <= 1e-10


def test_box_volume():
    r = integrate_nd(lambda x, y: np.ones_like(x),
                     [Interval(0, 1), Interval(0, 2)])
    assert r.value == pytest.approx(2.0, abs=1e-14)


def test_gaussian_cosine_oracle():
    # Analytic oracle: int cos(2 r0 x) e^{-2 x^2} dx = sqrt(pi/2) e^{-r0^2/2}.
    r0 = 3.0
    panels = oscillation_panels(16.0, 2 * r0)
    r = integrate_nd(lambda x, y: np.cos(2 * r0 * x) * np.exp(-2 * x * x),
                     [Interval(-8, 8), Interval(0, 1)], TIGHT,
                     initial_splits=[panels, 1])
    exact = math.sqrt(math.pi / 2.0) * math.exp(-r0 ** 2 / 2.0)
    assert abs(r.value - exact) <= 1e-12


@pytest.mark.parametrize("omega,mode", [(6.0, "rel"), (12.0, "abs"), (24.0, "abs")])
def test_oscillation_resolution(omega, mode):
    # cos(w x) e^{-x^2} -> sqrt(pi) e^{-w^2/4}; w is the fringe rate 2 r0
    # of a cat with r0 = 3, 6 and 12.
    panels = oscillation_panels(16.0, omega)
    phase = omega * 16.0 / panels  # fringe phase per panel
    assert phase <= math.pi / 2  # at most a quarter period
    assert phase < 2 * math.pi  # never a whole one
    r = integrate_1d(lambda x: np.cos(omega * x) * np.exp(-x * x),
                     Interval(-8.0, 8.0), TIGHT, initial_panels=panels)
    exact = math.sqrt(math.pi) * math.exp(-omega ** 2 / 4.0)
    if mode == "rel":
        assert abs(r.value - exact) <= 1e-8 * exact
    else:
        assert abs(r.value - exact) <= 1e-12


def test_linearity():
    rng = np.random.default_rng(42)
    spec = QuadratureSpec(rel_tol=1e-9)
    dom = Interval(-3.0, 5.0)
    for _ in range(4):
        c = rng.normal(size=4)
        alpha, beta = rng.normal(size=2)
        f = lambda x: np.exp(-0.3 * x * x) * (c[0] + c[1] * x + c[2] * x * x)
        g = lambda x: np.cos(c[3] * x) * np.exp(-0.5 * np.abs(x))
        lhs = integrate_1d(lambda x: alpha * f(x) + beta * g(x), dom, spec)
        rf = integrate_1d(f, dom, spec)
        rg = integrate_1d(g, dom, spec)
        rhs = alpha * rf.value + beta * rg.value
        tol = 2 * max(spec.abs_tol, spec.rel_tol * abs(lhs.value)) + 1e-13
        assert abs(lhs.value - rhs) <= tol + 2 * (abs(alpha) * rf.err_est + abs(beta) * rg.err_est)


def test_domain_splitting():
    spec = QuadratureSpec(rel_tol=1e-10)
    f = lambda x: np.exp(-x) * np.sin(3 * x) ** 2
    whole = integrate_1d(f, Interval(0.0, 7.0), spec)
    left = integrate_1d(f, Interval(0.0, 2.3), spec)
    right = integrate_1d(f, Interval(2.3, 7.0), spec)
    tol = 2 * spec.rel_tol * abs(whole.value)
    assert abs(whole.value - (left.value + right.value)) <= tol


def test_panel_edges():
    f = lambda x: np.exp(-x * x) * np.cos(5 * x)
    dom = Interval(-6.0, 6.0)
    by_count = integrate_1d(f, dom, initial_panels=4)
    by_edges = integrate_1d(f, dom, initial_panels=[-6.0, -3.0, 0.0, 3.0, 6.0])
    assert by_edges == by_count
    # A peak of width 1e-6 at the origin: one panel's abscissae all see
    # exactly zero and stop at once; edges halving down to its width find it.
    peak = lambda x: np.exp(-(x / 1e-6) ** 2)
    exact = math.sqrt(math.pi) * 1e-6
    assert integrate_1d(peak, Interval(0.0, 1.0)).value == 0.0
    edges = np.concatenate([[0.0], 2.0 ** -np.arange(20, -1, -1)])
    r = integrate_1d(peak, Interval(0.0, 1.0), QuadratureSpec(rel_tol=1e-12),
                     initial_panels=edges)
    assert abs(r.value - exact / 2) <= r.err_est <= 1e-12 * exact
    for bad in ([0.0, 0.5], [-0.1, 0.5, 1.0], [0.0, 0.5, 0.5, 1.0], [1.0]):
        with pytest.raises(ValueError, match="edges"):
            integrate_1d(peak, Interval(0.0, 1.0), initial_panels=bad)


def test_determinism_bit_identical():
    f1 = lambda x: np.exp(-x * x) * np.cos(5 * x)
    a = integrate_1d(f1, Interval(-6, 6), initial_panels=7)
    b = integrate_1d(f1, Interval(-6, 6), initial_panels=7)
    assert a.value == b.value and a.err_est == b.err_est

    f2 = lambda x, y: np.stack([np.exp(-x * x - 2 * y * y), np.cos(3 * x * y) * np.exp(-y * y)])
    box = [Interval(-4, 4)] * 2
    r1 = integrate_nd(f2, box, initial_splits=[3, 3])
    r2 = integrate_nd(f2, box, initial_splits=[3, 3])
    assert r1.subdivisions > 0
    assert np.array_equal(r1.value, r2.value) and np.array_equal(r1.err_est, r2.err_est)


def test_nonconvergence():
    spec = QuadratureSpec(rel_tol=1e-14, max_subdivisions=5)
    with pytest.raises(NonConvergence) as info:
        integrate_1d(lambda x: 1.0 / np.sqrt(x), Interval(0.0, 1.0), spec)
    # The worst box is the one that holds the singularity.
    assert re.search(r"max_subdivisions=5 exhausted \(err=\S+, tol=\S+; "
                     r"worst box \[0, 0\.125\] at err/tol=\S+\)$", str(info.value))


def test_nonfinite_integrand():
    with pytest.raises(NonFiniteIntegrand):
        integrate_1d(lambda x: np.full_like(x, np.nan), Interval(0.0, 1.0))


def test_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        integrate_nd(lambda x, y, z: x, [Interval(0, 1)] * 3)
    with pytest.raises(UnsupportedDimension, match="4-D"):
        integrate_nd(lambda x, y, px, py: x, [Interval(0, 1)] * 4)
    with pytest.raises(UnsupportedDimension):
        integrate_nd(lambda x: x, [Interval(0, 1)])


def test_scalar_callable_fallback():
    # There is no scalar fallback: integrands must be vectorized, and a
    # callable that rejects arrays raises instead of being looped point by
    # point.
    with pytest.raises(TypeError):
        integrate_1d(lambda x: math.exp(-x * x), Interval(-8.0, 8.0))


def test_later_integrand_error_propagates():
    # An integrand that fails on a later round raises instead of being
    # re-run point by point.
    calls = []

    def f(x):
        calls.append(np.size(x))
        if len(calls) == 2:
            raise ValueError("second call fails")
        return np.sqrt(x) * np.exp(-x)

    with pytest.raises(ValueError, match="second call fails"):
        integrate_1d(f, Interval(0.0, 1.0))
    assert len(calls) == 2


# -- batched (vector-valued) integrands ----------------------------------------

OMEGAS = np.array([0.0, 1.0, 2.0, 3.0, 5.0])


def test_batch_rows_meet_their_own_tolerance():
    # int_{-8}^{8} cos(w x) e^{-x^2} dx = sqrt(pi) e^{-w^2/4}, one row per w.
    spec = QuadratureSpec(rel_tol=1e-10)
    r = integrate_1d(lambda x: np.cos(OMEGAS[:, None, None] * x) * np.exp(-x * x),
                     Interval(-8.0, 8.0), spec, initial_panels=4)
    exact = math.sqrt(math.pi) * np.exp(-OMEGAS ** 2 / 4.0)
    assert r.value.shape == r.err_est.shape == OMEGAS.shape
    assert isinstance(r.neval, int) and isinstance(r.subdivisions, int)
    assert r.neval == 15 * (4 + 2 * r.subdivisions)  # abscissae, not rows
    for value, err, ref in zip(r.value, r.err_est, exact):
        assert abs(value - ref) <= err <= spec.rel_tol * abs(value)


@pytest.mark.parametrize("ndim", [1, 2])
def test_identical_rows_are_bit_identical_to_the_scalar_call(ndim):
    spec = QuadratureSpec(rel_tol=1e-11)
    if ndim == 1:
        f = lambda x: np.exp(-x * x) * np.cos(5 * x)
        one = integrate_1d(f, Interval(-6, 6), spec, initial_panels=3)
        batch = integrate_1d(lambda x: np.stack([f(x)] * 4), Interval(-6, 6), spec,
                             initial_panels=3)
    else:
        f = lambda x, y: np.exp(-x * x - 2 * y * y) * np.cos(3 * x * y)
        box = [Interval(-5, 5), Interval(-4, 4)]
        one = integrate_nd(f, box, spec, initial_splits=[2, 3])
        batch = integrate_nd(lambda x, y: np.stack([f(x, y)] * 4), box, spec,
                             initial_splits=[2, 3])
    assert one.subdivisions > 0
    assert (batch.neval, batch.subdivisions) == (one.neval, one.subdivisions)
    assert all(v == one.value for v in batch.value)
    assert all(e == one.err_est for e in batch.err_est)


@pytest.mark.parametrize("f", [
    lambda x: np.ones(3),
    lambda x: np.ones((2,) + x.shape[:1]),
    lambda x: 1.0,
])
def test_wrong_output_shape_names_both_shapes(f):
    with pytest.raises(ValueError) as info:
        integrate_1d(f, Interval(0.0, 1.0), initial_panels=2)
    msg = str(info.value)
    assert str(np.shape(f(np.zeros((2, 15))))) in msg and "(2, 15)" in msg


def test_row_count_is_fixed_by_the_first_evaluation():
    # Three initial panels give a 3-row batch; every later round evaluates
    # an even number of panels and returns 2 rows, which is an error.
    f = lambda x: np.stack([np.sqrt(x)] * (3 if x.shape[0] == 3 else 2))
    with pytest.raises(ValueError) as info:
        integrate_1d(f, Interval(0.0, 1.0), initial_panels=3)
    assert re.search(r"shape \(2, (\d+), 15\) .* shape \(\1, 15\); expected \(3, \1, 15\)",
                     str(info.value))


# -- chunked evaluation ---------------------------------------------------------

SMALL_CHUNK = 2 ** 10


def _sizes_per_call(monkeypatch, chunk, run):
    """Run ``run(record)`` with ``_CHUNK = chunk``; ``record`` wraps an
    integrand and logs each call's abscissae x rows."""
    monkeypatch.setattr(quadrature, "_CHUNK", chunk)
    sizes = []

    def record(f):
        def g(*axes):
            out = f(*axes)
            sizes.append(np.size(out))
            return out
        return g

    return run(record), sizes


@pytest.mark.parametrize("case", ["1d_batch", "2d"])
def test_chunked_calls_stay_under_the_bound(monkeypatch, case):
    def run(record):
        if case == "1d_batch":  # chunked on later rounds
            return integrate_1d(record(lambda x: np.cos(OMEGAS[:, None, None] * x)
                                       * np.exp(-x * x)),
                                Interval(-8.0, 8.0), QuadratureSpec(rel_tol=1e-12),
                                initial_panels=4)
        # 2-D: chunked from the initial panels on
        return integrate_nd(record(lambda x, y: np.exp(-x * x - 2 * y * y)
                                   * np.cos(3 * x * y)),
                            [Interval(-5, 5), Interval(-4, 4)], TIGHT,
                            initial_splits=[6, 6])

    whole, whole_sizes = _sizes_per_call(monkeypatch, quadrature._CHUNK, run)
    chunked, sizes = _sizes_per_call(monkeypatch, SMALL_CHUNK, run)
    assert len(sizes) > len(whole_sizes)
    assert max(sizes) <= SMALL_CHUNK
    assert np.all(np.abs(chunked.value - whole.value) <= chunked.err_est + whole.err_est)


def test_a_later_chunk_must_keep_the_row_count(monkeypatch):
    # The first chunk (68 boxes, counted as one row) returns 3 rows; the
    # next returns 2.
    monkeypatch.setattr(quadrature, "_CHUNK", SMALL_CHUNK)
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.stack([np.sqrt(x)] * (3 if len(calls) == 1 else 2))

    with pytest.raises(ValueError) as info:
        integrate_1d(f, Interval(0.0, 1.0), initial_panels=100)
    assert calls == [(68, 15), (22, 15)]
    assert re.search(r"shape \(2, 22, 15\) .* shape \(22, 15\); expected \(3, 22, 15\)",
                     str(info.value))


def test_chunked_wigner_normalization(monkeypatch):
    monkeypatch.setattr(quadrature, "_CHUNK", 2 ** 16)
    r = wigner_normalization(BeamState.odd_cat(1.5, 4.0, phi_r0=0.3))
    assert abs(r.value - 1.0) <= r.err_est


# -- initial panels and split axes ------------------------------------------------


@pytest.mark.parametrize("lengths", [[5], [4, 3], [3, 4, 2, 5]], ids=["1d", "2d", "4d"])
def test_initial_boxes_keep_the_ij_corner_order(lengths):
    # Row sums follow the box order, so bit-identical results rest on it.
    edges = [np.cumsum(np.arange(1.0, n + 1.0)) + 10.0 * k for k, n in enumerate(lengths)]
    lo, hi = quadrature._initial_boxes(edges)

    def corners(sides):
        return np.stack([g.ravel() for g in np.meshgrid(*sides, indexing="ij")], axis=-1)

    assert np.array_equal(lo, corners([e[:-1] for e in edges]))
    assert np.array_equal(hi, corners([e[1:] for e in edges]))


def test_a_subdividing_1d_batch_splits_only_axis_0(monkeypatch):
    axes = []
    evaluate = quadrature._evaluate

    def recording(*args, **kwargs):
        out = evaluate(*args, **kwargs)
        axes.append(out[2])
        return out

    monkeypatch.setattr(quadrature, "_evaluate", recording)
    r = integrate_1d(lambda x: np.stack([np.sqrt(x), np.exp(-50.0 * x * x)]),
                     Interval(0.0, 1.0), QuadratureSpec(rel_tol=1e-10))
    assert r.subdivisions > 0 and len(axes) > 1
    assert all(a.ndim == 1 and a.dtype.kind == "i" and not a.any() for a in axes)
    exact = [2.0 / 3.0, 0.5 * math.sqrt(math.pi / 50.0) * math.erf(math.sqrt(50.0))]
    assert np.all(np.abs(r.value - exact) <= r.err_est)
