import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nstar import (
    DomainError,
    MeasurableFn,
    MeasureSpace,
    disjoint_positive_family,
    integrate,
    metric,
    power_family,
    prefix_within,
    simple_approximation,
    weighted_sum,
)
from nstar.measure import BLOCK
from oracle import rule_sum

THIRD_ROOT = 3.0 ** (-2.0 / 3.0)  # solves s^(3/2) = 1/3


class TestMeasureSpace:
    def test_total_mass(self):
        X = MeasureSpace.interval(2.0, 500)
        assert X.total_mass == pytest.approx(2.0, rel=1e-12)
        A = MeasureSpace.atomic([0.5, 0.25])
        assert A.total_mass == 0.75

    def test_positive_masses_required(self):
        with pytest.raises(DomainError):
            MeasureSpace.atomic([1.0, 0.0])
        with pytest.raises(DomainError):
            MeasureSpace.interval(-1.0, 10)

    def test_midpoints_interval_only(self):
        X = MeasureSpace.interval(1.0, 4)
        assert np.allclose(X.midpoints(), [0.125, 0.375, 0.625, 0.875])
        with pytest.raises(DomainError):
            MeasureSpace.atomic([1.0]).midpoints()

    def test_same_as(self, monkeypatch):
        X = MeasureSpace.interval(1.0, 4)
        assert X.same_as(MeasureSpace.interval(1.0, 4))
        assert X.same_as(MeasureSpace.atomic(np.full(4, 0.25))) is False
        assert X.same_as(MeasureSpace.interval(1.0, 5)) is False
        assert X.same_as(MeasureSpace.interval(2.0, 4)) is False
        # a space is the same as itself without a comparison of its masses
        monkeypatch.setattr(np, "array_equal", lambda *args: pytest.fail("masses compared"))
        assert X.same_as(X)


FOUR = MeasureSpace.interval(1.0, 4)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: MeasureSpace.atomic([]), DomainError, "at least one atom or cell"),
        # the cell width L/N underflows to 0
        (lambda: MeasureSpace.interval(5e-324, 2), DomainError, "strictly positive and finite"),
        (lambda: MeasurableFn(np.array([1.0, np.nan, 0.0, 0.0]), FOUR), DomainError, "values must be finite"),
        # an adopted array is kept without a copy, and still checked
        (lambda: MeasurableFn._adopt(np.array([1.0, 0.0, -np.inf, 0.0]), FOUR), DomainError, "values must be finite"),
        (lambda: MeasurableFn._adopt(np.zeros(5), FOUR), DomainError, "5 values for a space of size 4"),
        (
            lambda: MeasurableFn.constant(FOUR, 1.0) + MeasurableFn.constant(MeasureSpace.interval(2.0, 4), 1.0),
            DomainError,
            "different measure spaces",
        ),
        (lambda: simple_approximation(MeasurableFn.constant(FOUR, 1.0), 0), DomainError, "approximation level"),
        (lambda: disjoint_positive_family(FOUR, 0), DomainError, "count must be a positive integer"),
        # counts no host can allocate: past numpy's dimension limit, past its byte-size limit, past the float range
        (lambda: MeasureSpace.interval(1.0, 10**20), DomainError, "too large to allocate"),
        (lambda: MeasureSpace.interval(1.0, 2**61), DomainError, "too large to allocate"),
        (lambda: MeasureSpace.interval(1.0, 10**400), DomainError, "too large to allocate"),
        (lambda: MeasurableFn.random(FOUR, 1, 5.0, 1.0), DomainError, "low <= high"),
        # numpy's uniform needs the width high - low to be a finite float
        (lambda: MeasurableFn.random(FOUR, 1, -1e308, 1e308), DomainError, "finite high - low"),
    ],
    ids=[
        "no-atoms",
        "underflowing-cells",
        "nan-value",
        "inf-adopted",
        "size-adopted",
        "other-space",
        "level-0",
        "count-0",
        "cells-1e20",
        "cells-2^61",
        "cells-1e400",
        "random-low-above-high",
        "random-infinite-width",
    ],
)
def test_argument_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestStoredValues:
    """The constructor copies whatever it is given; only the library's builders hand over an array, by _adopt."""

    def test_an_adopted_array_is_kept_read_only(self):
        values = np.arange(4.0)
        f = MeasurableFn._adopt(values, FOUR)
        assert f.values is values and not values.flags.writeable

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.arange(4.0),
            lambda: _read_only(np.arange(4.0)),  # owns its data and is read-only: the caller can unfreeze it
            lambda: _read_only(np.arange(0.0, 4.0, 0.5))[::2],  # a view of another array
            lambda: np.arange(4.0, dtype=np.float32),
            lambda: [0.0, 1.0, 2.0, 3.0],
        ],
        ids=["writeable", "read-only", "view", "float32", "list"],
    )
    def test_the_constructor_copies(self, make):
        values = make()
        f = MeasurableFn(values, FOUR)
        assert f.values is not values
        assert f.values.dtype == np.float64 and not f.values.flags.writeable
        np.testing.assert_array_equal(f.values, np.arange(4.0))

    @pytest.mark.parametrize("freeze", [False, True], ids=["writeable", "frozen-then-unfrozen"])
    def test_writing_the_input_later_leaves_the_function_alone(self, freeze):
        values = np.arange(4.0)
        if freeze:
            values.setflags(write=False)
        f = MeasurableFn(values, FOUR)
        values.setflags(write=True)
        values[0] = 9.0
        assert f.values[0] == 0.0


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


class TestIntegrate:
    def test_unit_indicator(self):
        X = MeasureSpace.interval(1.0, 1000)
        f = MeasurableFn.constant(X, 1.0)
        assert integrate(X, lambda v: v, f) == pytest.approx(1.0, rel=1e-12)

    def test_sqrt_of_identity(self):
        X = MeasureSpace.interval(1.0, 1000)
        f = MeasurableFn.identity(X)
        got = integrate(X, np.sqrt, f)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-5)

    def test_atomic_weighted_sum(self):
        X = MeasureSpace.atomic([2.0, 3.0])
        f = MeasurableFn(np.array([1.0, 4.0]), X)
        assert integrate(X, lambda v: v, f) == 14.0

    def test_space_mismatch(self):
        X = MeasureSpace.interval(1.0, 10)
        Y = MeasureSpace.interval(1.0, 11)
        f = MeasurableFn.constant(Y, 1.0)
        with pytest.raises(DomainError, match="function does not live on the given space"):
            integrate(X, lambda v: v, f)

    def test_linear_and_additive(self):
        rng = np.random.default_rng(0)
        X = MeasureSpace.interval(1.0, 64)
        f = MeasurableFn(rng.uniform(-1, 1, 64), X)
        a = integrate(X, lambda v: 2.0 * v + 0.0, f)
        b = 2.0 * integrate(X, lambda v: v, f)
        assert a == pytest.approx(b, rel=1e-12)
        # additivity over a disjoint split
        first_half = np.arange(64) < 32
        left = MeasurableFn(np.where(first_half, f.values, 0.0), X)
        right = MeasurableFn(np.where(first_half, 0.0, f.values), X)
        total = integrate(X, np.abs, f)
        assert integrate(X, np.abs, left) + integrate(X, np.abs, right) == pytest.approx(
            total, rel=1e-12
        )


class TestPrefixWithin:
    def test_uniform_prefix(self):
        nu = np.full(300, 1.0 / 300)
        cut = prefix_within(nu, 1.0 / 3.0)
        # within one cell of a third of the interval
        assert abs(cut - 100) <= 1
        assert abs(nu[:cut].sum() - 1.0 / 3.0) <= nu.max() + 1e-15

    def test_zero_target_is_empty(self):
        assert prefix_within(np.full(10, 0.1), 0.0) == 0

    def test_sqrt_weighted_prefix_endpoint(self):
        # nu ~ sqrt(x) dx: prefix mass 2/9 ends near x = 3^(-2/3)
        N = 2000
        X = MeasureSpace.interval(1.0, N)
        nu = np.sqrt(X.midpoints()) / N
        end = prefix_within(nu, (1.0 / 3.0) * (2.0 / 3.0)) / N
        assert end == pytest.approx(THIRD_ROOT, abs=2.0 / N)

    def test_residual_bounded_and_shrinking(self):
        t = 1.0 / np.pi
        residuals = {}
        for N in (100, 1600):
            nu = np.full(N, 1.0 / N)
            residuals[N] = abs(nu[: prefix_within(nu, t)].sum() - t)
            assert residuals[N] <= 1.0 / N
        assert residuals[1600] < residuals[100]


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53."""
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


SUMMANDS = {
    "power": lambda v: np.abs(v) ** 0.25,
    "signed": lambda v: v,
    "cube": lambda v: v**3,
}


@settings(max_examples=60)
@given(
    n=st.one_of(st.integers(1, 3 * BLOCK), st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1])),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    name=st.sampled_from(sorted(SUMMANDS)),
)
def test_weighted_sum_follows_the_sum_rule(n, seed, scale, name):
    # the rule, bit for bit: fsum of np.dot partials over pieces of 2^13 cells on
    # whole arrays; and its bound against the exact sum of the rounded products
    g = SUMMANDS[name]
    rng = np.random.default_rng(seed)
    values = rng.uniform(-3.0, 3.0, n) * scale
    masses = rng.uniform(0.5, 1.5, n) / n
    got = weighted_sum(g, masses, values)
    assert got == rule_sum(g(values), masses)
    products = g(values) * masses
    # each partial within gamma_k, k <= 2^13 cells, of its exact sum; fsum adds one
    # rounding, and rounding the products and their fsum adds three more
    bound = gamma(min(n, BLOCK) + 4) * math.fsum(np.abs(products))
    assert abs(got - math.fsum(products)) <= bound


def prefix_cases(n):
    """(weights, target) pairs of n cells whose prefix ends in each kind of place."""
    rng = np.random.default_rng(n)
    w = rng.uniform(0.0, 1.0, n)
    cs = np.cumsum(w)
    edge = min(BLOCK, n) - 1
    runs = w.copy()
    runs[BLOCK // 2 : BLOCK + BLOCK // 2] = 0.0
    runs[:7] = 0.0
    rcs = np.cumsum(runs)
    return [
        (w, cs[10]),  # in the first slice
        (w, cs[edge]),  # on the last cell of the first slice
        (w, float(np.nextafter(cs[edge], -np.inf))),
        (w, cs[-1]),  # the whole total
        (w, cs[-1] * 2.0),  # past the total
        (w, 0.0),
        (runs, 0.0),  # leading zeros fit under 0
        (runs, rcs[BLOCK // 2]),  # a run of zeros across a slice edge
        (runs, rcs[-1]),
        (np.zeros(n), 0.0),
    ]


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
def test_prefix_within_is_the_whole_array_search(n):
    for weights, target in prefix_cases(n):
        assert prefix_within(weights, target) == np.searchsorted(np.cumsum(weights), target, side="right")


class TestSimpleApproximation:
    def test_zero_stays_zero(self):
        X = MeasureSpace.interval(1.0, 32)
        z = MeasurableFn.constant(X, 0.0)
        for n in (1, 5, 12):
            assert not simple_approximation(z, n).values.any()

    def test_signs_of_zero(self):
        # sign(f) * |f|_n: a zero f gives +0.0 whatever its sign, a negative f below 2^-n gives -0.0
        X = MeasureSpace.atomic([1.0] * 4)
        f = MeasurableFn(np.array([-0.0, 0.0, -0.3, 0.3]), X)
        approx = simple_approximation(f, 1).values
        assert approx.tolist() == [0.0] * 4
        assert np.signbit(approx).tolist() == [False, False, True, False]

    def test_identity_gap_bound(self):
        X = MeasureSpace.interval(1.0, 1024)
        f = MeasurableFn.identity(X)
        f10 = simple_approximation(f, 10)
        assert np.max(np.abs(f.values - f10.values)) <= 2.0**-10

    def test_never_exceeds_target(self):
        rng = np.random.default_rng(3)
        X = MeasureSpace.atomic(rng.uniform(0.1, 1.0, 50))
        f = MeasurableFn(rng.uniform(-20, 20, 50), X)
        for n in (1, 3, 8):
            fn = simple_approximation(f, n)
            assert np.all(np.abs(fn.values) <= np.abs(f.values) + 1e-15)

    def test_metric_trajectory_non_increasing(self):
        phi = power_family(0.5)
        rng = np.random.default_rng(9)
        X = MeasureSpace.interval(1.0, 256)
        f = MeasurableFn(rng.uniform(-2, 2, 256), X)
        dists = [metric(phi, X, simple_approximation(f, n), f) for n in range(1, 15)]
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))


class TestDisjointPositiveFamily:
    def test_interval_blocks(self):
        X = MeasureSpace.interval(1.0, 103)
        pieces = disjoint_positive_family(X, 10)
        assert pieces == [slice(10 * i, 10 * i + 10) for i in range(10)]
        for piece in pieces:
            assert X.masses[piece].sum() == pytest.approx(10 / 103, rel=1e-12)
            # a slice reads the masses in place, and sums them as the index array did
            assert np.shares_memory(X.masses[piece], X.masses)
            assert X.masses[piece].sum() == X.masses[np.arange(piece.start, piece.stop)].sum()

    def test_atomic_singletons(self):
        X = MeasureSpace.atomic([1.0, 2.0, 3.0])
        pieces = disjoint_positive_family(X, 3)
        assert pieces == [slice(0, 1), slice(1, 2), slice(2, 3)]
        assert [X.masses[p].tolist() for p in pieces] == [[1.0], [2.0], [3.0]]

    def test_capacity_error(self):
        X = MeasureSpace.atomic([1.0, 2.0, 3.0])
        with pytest.raises(DomainError, match="cannot carve 4 disjoint pieces out of 3"):
            disjoint_positive_family(X, 4)
