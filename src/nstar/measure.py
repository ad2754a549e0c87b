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

from .errors import CapacityError, DomainError, SpaceMismatchError

__all__ = [
    "MeasureSpace",
    "MeasurableFn",
    "integrate",
    "prefix_within",
    "simple_approximation",
    "disjoint_positive_family",
]

ATOMIC = "atomic"
INTERVAL = "interval"


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
        masses = np.full(int(cells), float(length) / int(cells))
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

    def __eq__(self, other):
        return isinstance(other, MeasureSpace) and self.same_as(other)

    def __hash__(self):
        return hash((self.kind, self.masses.shape, float(self.masses[0]), float(self.masses[-1])))


@dataclass(frozen=True, eq=False)
class MeasurableFn:
    """Piecewise-constant function: one value per atom or cell."""

    values: np.ndarray
    space: MeasureSpace

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.space.size,):
            raise SpaceMismatchError(
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
        rng = np.random.default_rng(seed)
        return cls(rng.uniform(low, high, space.size), space)

    # -- arithmetic ----------------------------------------------------------
    # a value past the float range overflows to inf, which the constructor
    # rejects with DomainError

    def _check(self, other: "MeasurableFn") -> None:
        if not self.space.same_as(other.space):
            raise SpaceMismatchError("operands live on different measure spaces")

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

    def __neg__(self) -> "MeasurableFn":
        return MeasurableFn(-self.values, self.space)


def integrate(space: MeasureSpace, g, f: MeasurableFn) -> float:
    """Integral of g(f) over the space: sum of mass_i * g(values_i).

    Exact for piecewise-constant integrands. g must be vectorized.
    """
    if not f.space.same_as(space):
        raise SpaceMismatchError("function does not live on the given space")
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(g(f.values), dtype=float)
        return float(np.dot(vals, space.masses))


def prefix_within(weights: np.ndarray, target: float) -> int:
    """Length of the longest prefix of non-negative weights whose running sum stays <= target.

    The split search of dual_zero_halving; the caller checks the weights.
    """
    return int(np.searchsorted(np.cumsum(weights), target, side="right"))


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
