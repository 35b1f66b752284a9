"""Extended-real scalars, intervals, and node systems.

The scalar type models R ∪ {-inf}: +inf is never representable, and the
order is total.  Everything in this module is an immutable value object,
safe to hash and to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering
from typing import Sequence

__all__ = [
    "ExtendedReal",
    "NEG_INF",
    "Interval",
    "NodeSystem",
]


@total_ordering
@dataclass(frozen=True, slots=True)
class ExtendedReal:
    """A finite real or -inf.  NaN and +inf are rejected at construction."""

    raw: float

    def __post_init__(self) -> None:
        v = float(self.raw)
        if math.isnan(v):
            raise ValueError("NaN is not an extended real")
        if v == math.inf:
            raise ValueError("+inf is not representable")
        object.__setattr__(self, "raw", v)

    @classmethod
    def of(cls, value) -> "ExtendedReal":
        """Coerce a float (IEEE -inf allowed) or ExtendedReal."""
        if isinstance(value, ExtendedReal):
            return value
        return cls(float(value))

    @property
    def is_finite(self) -> bool:
        return self.raw != -math.inf

    def as_float(self) -> float:
        """The underlying float, mapping the -inf tag to IEEE -inf."""
        return self.raw

    def __lt__(self, other) -> bool:
        return self.raw < ExtendedReal.of(other).raw

    def __eq__(self, other) -> bool:
        if isinstance(other, (ExtendedReal, int, float)):
            return self.raw == ExtendedReal.of(other).raw
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.raw)

    def __repr__(self) -> str:
        return "ExtendedReal(-inf)" if not self.is_finite else f"ExtendedReal({self.raw!r})"


NEG_INF = ExtendedReal(-math.inf)


@dataclass(frozen=True, slots=True)
class Interval:
    """A real interval with explicit end inclusion flags.

    Degenerate intervals (a == b) must be closed on both ends, otherwise the
    point set would be empty.
    """

    a: float
    b: float
    closed_left: bool = True
    closed_right: bool = True

    def __post_init__(self) -> None:
        a, b = float(self.a), float(self.b)
        if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
            raise ValueError("interval ends must be finite")
        if a > b:
            raise ValueError(f"interval ends out of order: [{a}, {b}]")
        if a == b and not (self.closed_left and self.closed_right):
            raise ValueError("a degenerate interval must be closed on both ends")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def contains(self, t: float) -> bool:
        if not self.a <= t <= self.b:  # NaN too
            return False
        if t == self.a and not self.closed_left:
            return False
        if t == self.b and not self.closed_right:
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval | None":
        """Set intersection; None when empty."""
        if self.a > other.a:
            lo, lo_closed = self.a, self.closed_left
        elif other.a > self.a:
            lo, lo_closed = other.a, other.closed_left
        else:
            lo, lo_closed = self.a, self.closed_left and other.closed_left
        if self.b < other.b:
            hi, hi_closed = self.b, self.closed_right
        elif other.b < self.b:
            hi, hi_closed = other.b, other.closed_right
        else:
            hi, hi_closed = self.b, self.closed_right and other.closed_right
        if lo > hi:
            return None
        if lo == hi and not (lo_closed and hi_closed):
            return None
        return Interval(lo, hi, lo_closed, hi_closed)


@dataclass(frozen=True, slots=True)
class NodeSystem:
    """An ordered tuple 0 <= x_1 <= ... <= x_n <= 1.

    Unordered input is an error, not something to sort silently: callers
    that generate candidate tuples are expected to order them first.
    """

    nodes: tuple[float, ...]

    def __init__(self, nodes: Sequence[float]):
        vals = tuple(float(v) for v in nodes)
        if len(vals) < 1:
            raise ValueError("a node system needs at least one node")
        prev = 0.0
        for v in vals:
            if math.isnan(v) or v < 0.0 or v > 1.0:
                raise ValueError(f"node {v!r} outside [0, 1]")
            if v < prev:
                raise ValueError(f"nodes must be nondecreasing, got {vals}")
            prev = v
        object.__setattr__(self, "nodes", vals)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def with_sentinels(self) -> tuple[float, ...]:
        """(x_0, ..., x_{n+1}) with the fixed sentinels x_0 = 0, x_{n+1} = 1."""
        return (0.0, *self.nodes, 1.0)

    def interval(self, j: int) -> Interval:
        s = self.with_sentinels()
        if not 0 <= j <= self.n:
            raise IndexError(f"interval index {j} outside 0..{self.n}")
        return Interval(s[j], s[j + 1])

    def classify(self) -> str:
        prev = 0.0
        for v in self.nodes:
            if v <= prev:
                return "boundary"
            prev = v
        return "interior" if prev < 1.0 else "boundary"
