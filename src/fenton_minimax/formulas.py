"""Concave closed-form scalar formulas.

These are the building blocks for piecewise fields and custom kernel sides.
Every formula is real-valued, smooth and concave on any interval where it
is used, and knows its derivative (``deriv``, and ``derivs`` over an array),
which is what lets the sup engines bound each cell maximum by tangent lines.  Each class also knows its own exact
supremum over a closed interval, with an affine term added or not
(``sup_on``), which the fields' Lipschitz envelopes use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Formula",
    "Constant",
    "Affine",
    "Quadratic",
    "LogWeight",
]


class Formula:
    """Base class; subclasses are frozen dataclasses."""

    def value(self, t: float) -> float:
        raise NotImplementedError

    def values(self, ts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def deriv(self, t: float) -> float:
        raise NotImplementedError

    def derivs(self, ts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sup_on(self, a: float, b: float, slope: float = 0.0) -> tuple[float, float]:
        """Exact (max value, argmax) of f(s) + slope * s over the closed
        interval [a, b]."""
        raise NotImplementedError

    def inf_on(self, a: float, b: float) -> tuple[float, float]:
        """Exact (min value, argmin) over [a, b]; concavity puts it at an end."""
        va, vb = self.value(a), self.value(b)
        return (va, a) if va <= vb else (vb, b)


@dataclass(frozen=True)
class Constant(Formula):
    c: float

    def value(self, t: float) -> float:
        return self.c

    def values(self, ts: np.ndarray) -> np.ndarray:
        return np.full_like(ts, self.c, dtype=float)

    def deriv(self, t: float) -> float:
        return 0.0

    def derivs(self, ts: np.ndarray) -> np.ndarray:
        return np.zeros_like(ts, dtype=float)

    def sup_on(self, a: float, b: float, slope: float = 0.0) -> tuple[float, float]:
        s = b if slope > 0 else a
        return self.c + slope * s, s


@dataclass(frozen=True)
class Affine(Formula):
    """alpha * t + beta."""

    alpha: float
    beta: float

    def value(self, t: float) -> float:
        return self.alpha * t + self.beta

    def values(self, ts: np.ndarray) -> np.ndarray:
        return self.alpha * ts + self.beta

    def deriv(self, t: float) -> float:
        return self.alpha

    def derivs(self, ts: np.ndarray) -> np.ndarray:
        return np.full_like(ts, self.alpha, dtype=float)

    def sup_on(self, a: float, b: float, slope: float = 0.0) -> tuple[float, float]:
        s = b if self.alpha + slope > 0 else a
        return self.value(s) + slope * s, s


@dataclass(frozen=True)
class Quadratic(Formula):
    """a * t**2 + b * t + c with a <= 0, so the parabola opens downward."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if self.a > 0:
            raise ValueError("quadratic formulas must be concave (a <= 0)")

    def value(self, t: float) -> float:
        return (self.a * t + self.b) * t + self.c

    def values(self, ts: np.ndarray) -> np.ndarray:
        return (self.a * ts + self.b) * ts + self.c

    def deriv(self, t: float) -> float:
        return 2.0 * self.a * t + self.b

    def derivs(self, ts: np.ndarray) -> np.ndarray:
        return 2.0 * self.a * ts + self.b

    def sup_on(self, a: float, b: float, slope: float = 0.0) -> tuple[float, float]:
        if self.a == 0:
            s = b if self.b + slope > 0 else a
        else:
            s = min(max(-(self.b + slope) / (2.0 * self.a), a), b)
        return self.value(s) + slope * s, s


@dataclass(frozen=True)
class LogWeight(Formula):
    """log(w(t)) for a concave weight w.

    The weight must be positive on the closure of any piece that carries
    this formula; the piece constructor checks that.  log of a positive
    concave function is again concave.
    """

    w: Formula

    def __post_init__(self) -> None:
        if isinstance(self.w, LogWeight):
            raise ValueError("nested log weights are not supported")

    def value(self, t: float) -> float:
        wv = self.w.value(t)
        if wv <= 0:
            raise ValueError(f"log weight is nonpositive at t={t}")
        return math.log(wv)

    def values(self, ts: np.ndarray) -> np.ndarray:
        wv = self.w.values(ts)
        if np.any(wv <= 0):
            raise ValueError("log weight is nonpositive inside its piece")
        return np.log(wv)

    def deriv(self, t: float) -> float:
        return self.w.deriv(t) / self.w.value(t)

    def derivs(self, ts: np.ndarray) -> np.ndarray:
        return self.w.derivs(ts) / self.w.values(ts)

    def sup_on(self, a: float, b: float, slope: float = 0.0) -> tuple[float, float]:
        if slope == 0.0:
            wmax, arg = self.w.sup_on(a, b)
            if wmax <= 0:
                raise ValueError("log weight is nonpositive on the whole piece")
            return math.log(wmax), arg
        # the critical points solve w'(s) + slope * w(s) = 0
        w, cands = self.w, [a, b]
        if isinstance(w, Affine) and w.alpha != 0.0:
            cands.append(-(w.alpha + slope * w.beta) / (slope * w.alpha))
        elif isinstance(w, Quadratic):
            qa, qb, qc = slope * w.a, 2.0 * w.a + slope * w.b, w.b + slope * w.c
            if qa == 0.0:
                if qb != 0.0:
                    cands.append(-qc / qb)
            elif (disc := qb * qb - 4.0 * qa * qc) >= 0:
                r = math.sqrt(disc)
                cands.extend([(-qb - r) / (2 * qa), (-qb + r) / (2 * qa)])
        best = (-math.inf, a)
        for s in cands:
            if a <= s <= b and w.value(s) > 0 and (v := self.value(s) + slope * s) > best[0]:
                best = (v, s)
        return best
