"""Concave closed-form scalar formulas.

These are the building blocks for piecewise fields and custom kernel sides.
Every formula is real-valued, smooth and concave on any interval where it
is used, and knows its derivative (``deriv``, and ``derivs`` over an array),
which is what lets the sup engines bound each cell maximum by tangent lines.  Each class also knows its own exact
supremum over a closed interval.
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
    "formula_from_json",
    "formula_to_json",
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

    def sup_on(self, a: float, b: float) -> tuple[float, float]:
        """Exact (max value, argmax) over the closed interval [a, b]."""
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

    def sup_on(self, a: float, b: float) -> tuple[float, float]:
        return self.c, a


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

    def sup_on(self, a: float, b: float) -> tuple[float, float]:
        arg = b if self.alpha > 0 else a
        return self.value(arg), arg


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

    def sup_on(self, a: float, b: float) -> tuple[float, float]:
        if self.a == 0:
            arg = b if self.b > 0 else a
            return self.value(arg), arg
        vertex = -self.b / (2.0 * self.a)
        arg = min(max(vertex, a), b)
        return self.value(arg), arg


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

    def sup_on(self, a: float, b: float) -> tuple[float, float]:
        wmax, arg = self.w.sup_on(a, b)
        if wmax <= 0:
            raise ValueError("log weight is nonpositive on the whole piece")
        return math.log(wmax), arg


def formula_to_json(f: Formula) -> dict:
    if isinstance(f, Constant):
        return {"type": "constant", "c": f.c}
    if isinstance(f, Affine):
        return {"type": "affine", "alpha": f.alpha, "beta": f.beta}
    if isinstance(f, Quadratic):
        return {"type": "quadratic", "a": f.a, "b": f.b, "c": f.c}
    if isinstance(f, LogWeight):
        return {"type": "log_weight", "w": formula_to_json(f.w)}
    raise TypeError(f"unknown formula {f!r}")


def formula_from_json(d: dict) -> Formula:
    if not isinstance(d, dict) or "type" not in d:
        raise ValueError(f"formula descriptor must be an object with a type, got {d!r}")
    kind = d["type"]
    try:
        if kind == "constant":
            return Constant(float(d["c"]))
        if kind == "affine":
            return Affine(float(d["alpha"]), float(d["beta"]))
        if kind == "quadratic":
            return Quadratic(float(d["a"]), float(d["b"]), float(d["c"]))
        if kind == "log_weight":
            return LogWeight(formula_from_json(d["w"]))
    except KeyError as exc:
        raise ValueError(f"formula descriptor missing field {exc}") from exc
    raise ValueError(f"unknown formula type {kind!r}")
