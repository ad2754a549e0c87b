"""Finite computational models of measure spaces.

Two kinds: a finite list of atoms with positive masses, and a uniformly
sampled interval [0, L] with N cells standing in for non-atomic Lebesgue
measure. Functions are piecewise constant (one value per atom or cell),
which makes every integral an exact finite sum and keeps indicator-based
oracles exact. All values are immutable; operations are pure.

The sum rule. Every sum over cells of products x_i y_i (an integral, a
modular, a functional value) is math.fsum of the np.dot partials over
consecutive pieces of BLOCK = 2^13 cells; a sum over at most BLOCK cells
is one np.dot. OpenBLAS runs a dot of at most 10,000 elements on one
thread, and fsum rounds the exact sum of its partials correctly, in any
order, so the result depends on the values and the pieces only, not on
the BLAS thread count: a reproducible sum in the sense of Demmel &
Nguyen, "Fast reproducible floating-point summation", ARITH 21, 2013.
Error bound: a partial over k cells lies within gamma_k * sum |x_i y_i|
of its exact sum, gamma_k = k u / (1 - k u) with u = 2^-53 (Higham,
Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.1), and
fsum adds one rounding, so the sum lies within gamma_(k+1) *
sum |x_i y_i| of the exact one, k = min(n, BLOCK): past BLOCK cells the
bound no longer grows with n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "MeasureSpace",
    "MeasurableFn",
    "integrate",
    "weighted_sum",
    "blocked_dot",
    "fsum_partials",
    "prefix_within",
    "simple_approximation",
    "disjoint_positive_family",
]

ATOMIC = "atomic"
INTERVAL = "interval"
# cells per piece of the sum rule and per slice of a blocked pass (weighted_sum
# and the passes of dual): each float64 temporary of a slice is 64 KiB and
# stays in L2, and a dot of a slice runs on one BLAS thread. On a 2-vCPU Xeon
# (2 MiB L2 per core) a 2^20-cell luxemburg_norm took the same time at
# 2^13-2^16 and 40% longer at 2^12, where per-slice call overhead shows
BLOCK = 2**13


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    kind: str
    masses: np.ndarray
    length: float | None = None

    def __post_init__(self):
        masses = np.array(self.masses, dtype=float)
        if masses.ndim != 1 or masses.size == 0:
            raise DomainError("a measure space needs at least one atom or cell")
        if np.any(masses <= 0) or not np.all(np.isfinite(masses)):
            raise DomainError("masses and cell widths must be strictly positive and finite")
        object.__setattr__(self, "masses", masses)
        masses.setflags(write=False)

    @classmethod
    def atomic(cls, masses) -> "MeasureSpace":
        return cls(kind=ATOMIC, masses=masses)

    @classmethod
    def interval(cls, length: float, cells: int) -> "MeasureSpace":
        if not length > 0:
            raise DomainError("interval length must be positive")
        if not isinstance(cells, (int, np.integer)) or cells < 1:
            raise DomainError("cell count must be a positive integer")
        try:
            masses = np.full(int(cells), float(length) / int(cells))
        except (ValueError, OverflowError, MemoryError):
            # a count past the float range, a shape past numpy's index range, or memory the host refuses
            raise DomainError("cell count too large to allocate") from None
        return cls(kind=INTERVAL, masses=masses, length=float(length))

    @property
    def size(self) -> int:
        return int(self.masses.size)

    @property
    def total_mass(self) -> float:
        """Sum of the masses; inf when it passes the float range."""
        with np.errstate(over="ignore"):
            return float(self.masses.sum())

    @property
    def is_atomic(self) -> bool:
        return self.kind == ATOMIC

    def midpoints(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Midpoints of the cells [lo, hi); the sampling sites for analytic test functions."""
        if self.kind != INTERVAL:
            raise DomainError("midpoints are defined for sampled intervals only")
        n = self.size
        return (np.arange(lo, n if hi is None else hi) + 0.5) * (self.length / n)

    def same_as(self, other: "MeasureSpace") -> bool:
        return (
            self.kind == other.kind
            and self.masses.shape == other.masses.shape
            and bool(np.array_equal(self.masses, other.masses))
        )


@dataclass(frozen=True, eq=False)
class MeasurableFn:
    """Piecewise-constant function: one value per atom or cell."""

    values: np.ndarray
    space: MeasureSpace

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.space.size,):
            raise DomainError(
                f"function has {values.size} values for a space of size {self.space.size}"
            )
        if not np.all(np.isfinite(values)):
            raise DomainError("function values must be finite")
        object.__setattr__(self, "values", values)
        values.setflags(write=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, space: MeasureSpace, value: float) -> "MeasurableFn":
        return cls(np.full(space.size, float(value)), space)

    @classmethod
    def identity(cls, space: MeasureSpace) -> "MeasurableFn":
        """f(x) = x sampled at cell midpoints (interval spaces only)."""
        return cls(space.midpoints(), space)

    @classmethod
    def indicator(cls, space: MeasureSpace, lo: int = 0, hi: int | None = None) -> "MeasurableFn":
        hi = space.size if hi is None else int(hi)
        lo = int(lo)
        if not 0 <= lo <= hi <= space.size:
            raise DomainError("indicator range out of bounds")
        vals = np.zeros(space.size)
        vals[lo:hi] = 1.0
        return cls(vals, space)

    @classmethod
    def random(
        cls, space: MeasureSpace, seed: int, low: float = 0.0, high: float = 1.0
    ) -> "MeasurableFn":
        """Uniform values on [low, high); numpy's uniform needs low <= high and a finite width high - low."""
        if not 0 <= high - low < np.inf:
            raise DomainError("random needs low <= high and a finite high - low")
        rng = np.random.default_rng(seed)
        return cls(rng.uniform(low, high, space.size), space)

    # -- arithmetic ----------------------------------------------------------
    # a value past the float range overflows to inf, which the constructor
    # rejects with DomainError

    def _check(self, other: "MeasurableFn") -> None:
        if not self.space.same_as(other.space):
            raise DomainError("operands live on different measure spaces")

    def __add__(self, other: "MeasurableFn") -> "MeasurableFn":
        self._check(other)
        with np.errstate(over="ignore"):
            return MeasurableFn(self.values + other.values, self.space)

    def __sub__(self, other: "MeasurableFn") -> "MeasurableFn":
        self._check(other)
        with np.errstate(over="ignore"):
            return MeasurableFn(self.values - other.values, self.space)

    def __mul__(self, scalar) -> "MeasurableFn":
        with np.errstate(over="ignore"):
            return MeasurableFn(self.values * float(scalar), self.space)

    __rmul__ = __mul__


def integrate(space: MeasureSpace, g, f: MeasurableFn) -> float:
    """Integral of g(f) over the space: sum of mass_i * g(values_i), by the sum rule.

    Exact for piecewise-constant integrands. g must be vectorized and act
    elementwise; see weighted_sum.
    """
    if not f.space.same_as(space):
        raise DomainError("function does not live on the given space")
    return weighted_sum(g, space.masses, f.values)


def weighted_sum(g, masses: np.ndarray, *values: np.ndarray) -> float:
    """Sum of masses_i * g(values_i, ...) by the sum rule, for a caller that checked the space.

    g acts elementwise and takes one slice of each values array. The pass
    cuts the cells into the rule's pieces of BLOCK cells (the last one
    ragged), calls g once per piece and takes the np.dot of its result with
    the piece's masses: those are the rule's partials. Every temporary g
    makes has at most BLOCK elements and stays in cache, and no full-size
    array is made. Overflow to inf and invalid operations in g are not
    flagged.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if masses.size <= BLOCK:
            return float(np.dot(np.asarray(g(*values), dtype=float), masses))
        return fsum_partials(
            [
                np.dot(np.asarray(g(*(v[a : a + BLOCK] for v in values)), dtype=float), masses[a : a + BLOCK])
                for a in range(0, masses.size, BLOCK)
            ]
        )


def blocked_dot(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of x_i * y_i by the sum rule: the weighted sum of x with weights y and g the identity."""
    return weighted_sum(np.asarray, y, x)


def fsum_partials(partials) -> float:
    """math.fsum of the sum rule's partials.

    fsum raises where its running sum passes the float range or meets
    infinities of both signs; the plain sum then gives inf or nan, as one
    whole-array np.dot does.
    """
    try:
        return math.fsum(partials)
    except (OverflowError, ValueError):
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(partials))


def prefix_within(weights: np.ndarray, target: float, start: float = 0.0) -> int:
    """Length of the longest prefix of non-negative weights whose running sum, from start, stays <= target.

    The running sums start + w_0, start + w_0 + w_1, ... are those of one
    np.cumsum, which adds in order, so the result is
    np.searchsorted(np.cumsum(weights), target, side="right") when start
    is 0. The caller checks the weights.
    """
    run = np.empty(weights.size + 1)
    run[0] = start
    run[1:] = weights
    np.cumsum(run, out=run)
    return int(np.searchsorted(run[1:], target, side="right"))


def simple_approximation(f: MeasurableFn, n: int) -> MeasurableFn:
    """Dyadic simple-function approximation at resolution 2^-n, truncated at n.

    |f_n| <= |f| pointwise by construction, and f_n -> f pointwise with gap
    at most 2^-n once |f| <= n.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError("approximation level must be a positive integer")
    scale = 2.0**n
    quant = np.floor(np.abs(f.values) * scale) / scale
    quant = np.minimum(quant, float(n))
    return MeasurableFn(np.sign(f.values) * quant, f.space)


def disjoint_positive_family(space: MeasureSpace, count: int) -> list[np.ndarray]:
    """count pairwise-disjoint index subsets, each of positive measure.

    Equal-size contiguous blocks on intervals, singletons on atomic spaces.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise DomainError("count must be a positive integer")
    if count > space.size:
        raise DomainError(f"cannot carve {count} disjoint pieces out of {space.size}")
    if space.is_atomic:
        return [np.array([i]) for i in range(count)]
    block = space.size // count
    return [np.arange(i * block, (i + 1) * block) for i in range(count)]
