"""Finite computational models of measure spaces.

Two kinds: a finite list of atoms with positive masses, and a uniformly
sampled interval [0, L] with N cells standing in for non-atomic Lebesgue
measure. Functions are piecewise constant (one value per atom or cell),
which makes every integral an exact finite sum and keeps indicator-based
oracles exact. All values are immutable; operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError

__all__ = [
    "MeasureSpace",
    "MeasurableFn",
    "integrate",
    "weighted_sum",
    "prefix_within",
    "simple_approximation",
    "disjoint_positive_family",
]

ATOMIC = "atomic"
INTERVAL = "interval"
# cells per slice of a blocked pass (integrate, weighted_sum, prefix_within
# and the rounds of dual.dual_zero_halving): each float64 temporary of a slice
# is 128 KiB and stays in L2. On a 2-vCPU Xeon (2 MiB L2 per core) a
# 2^20-cell luxemburg_norm took the same time at 2^13-2^16 and 40% longer at
# 2^12, where per-slice call overhead shows
BLOCK = 2**14


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

    def midpoints(self) -> np.ndarray:
        """Cell midpoints; the sampling sites for analytic test functions."""
        if self.kind != INTERVAL:
            raise DomainError("midpoints are defined for sampled intervals only")
        n = self.size
        return (np.arange(n) + 0.5) * (self.length / n)

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
    """Integral of g(f) over the space: sum of mass_i * g(values_i).

    Exact for piecewise-constant integrands. g must be vectorized and act
    elementwise. A function of at most BLOCK cells takes one call g(values).
    A longer one is cut into contiguous slices of BLOCK cells (the last one
    ragged); g's result on each slice is written into one output buffer,
    and one np.dot of the whole buffer with the masses forms the sum. Every
    temporary g makes then has BLOCK elements and stays in cache, instead
    of a fresh full-size array the kernel maps and zero-fills on every
    pass. Since g acts elementwise, each buffer element is the value the
    whole-array call gives it, and the final dot is the same whole-array
    dot, so the sum is bit-identical to np.dot(g(values), masses) under the
    same BLAS thread count (a long np.dot can differ in the last bit between
    thread counts).
    """
    if not f.space.same_as(space):
        raise DomainError("function does not live on the given space")
    return weighted_sum(g, f.values, space.masses)


def weighted_sum(g, values: np.ndarray, masses: np.ndarray) -> float:
    """Sum of masses_i * g(values_i), blocked as in integrate, for a caller that checked the space.

    Overflow to inf and invalid operations in g are not flagged.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if values.size <= BLOCK:
            return float(np.dot(np.asarray(g(values), dtype=float), masses))
        out = np.empty(values.size)
        for lo in range(0, values.size, BLOCK):
            out[lo : lo + BLOCK] = g(values[lo : lo + BLOCK])
        return float(np.dot(out, masses))


def prefix_within(weights: np.ndarray, target: float) -> int:
    """Length of the longest prefix of non-negative weights whose running sum stays <= target.

    The split search of dual_zero_halving; the caller checks the weights.
    The running sum is taken in slices of BLOCK cells, and the search stops
    at the first slice whose sum passes the target, so a prefix in the front
    of the weights reads only its own slices. Each slice is summed behind
    the running sum of the slices before it (one np.cumsum of [sum, slice]),
    and np.cumsum adds in order, so every running sum is the one
    np.cumsum(weights) gives, bit for bit, and the result is
    np.searchsorted(np.cumsum(weights), target, side="right").
    """
    buf = np.empty(min(weights.size, BLOCK) + 1)
    total = 0.0
    for lo in range(0, weights.size, BLOCK):
        piece = weights[lo : lo + BLOCK]
        run = buf[: piece.size + 1]
        run[0] = total
        run[1:] = piece
        np.cumsum(run, out=run)
        total = run[-1]
        if total > target:
            return lo + int(np.searchsorted(run[1:], target, side="right"))
    return weights.size


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
        raise CapacityError(f"cannot carve {count} disjoint pieces out of {space.size}")
    if space.is_atomic:
        return [np.array([i]) for i in range(count)]
    block = space.size // count
    return [np.arange(i * block, (i + 1) * block) for i in range(count)]
