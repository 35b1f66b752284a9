"""Kernel functions on [-1, 1].

A kernel is real-valued and concave on (-1, 0) and on (0, 1), extended
continuously to the closed interval; the value at 0 may be -inf.  The
paper's hypotheses on a kernel are facts about its terms, and ``Kernel``
reads each one off them, once, as a cached property:

``singular``          K(0) = -inf
``monotone``          non-increasing on [-1, 0), non-decreasing on (0, 1],
                      K(0) at most either one-sided limit at 0
``strictly_monotone`` ``monotone``, and strictly so on each side
``strictly_concave``  strictly concave on each side

Every family but ``custom`` and both transform layers are monotone.  The
strict facts hold for a sum of terms when one term has them, and the log,
sqrt and power families and the strictify layer do (the ``strict`` bit of
their table entries).  A custom kernel's are decided from its two formulas'
slopes at -1, 0 and 1, which is exact because every formula class is
analytic.

Two transforms are provided.  ``strictify`` adds ``eta * sqrt(|t|)``, which
makes a monotone kernel strictly concave and strictly monotone while keeping
it above the original and converging back to it as eta drops to 0.
``singularize`` adds ``min(log(|t| / eta), 0)``, which forces a -inf value at
0 while leaving the kernel untouched wherever ``|t| >= eta``.

Every family and both transforms are defined once, in ``FAMILIES``: a scalar
value, a vectorized value, a derivative and a vectorized derivative per
entry, each taking the family parameter first.  A ``Kernel`` holds that
parameter in one field, ``param``, which it checks itself.
``Kernel.eval``, ``Kernel.eval_many``, ``Kernel.deriv``, ``Kernel.derivs``,
``Kernel.eval_and_derivs`` and ``translate_sum`` all read the table; the
three array methods share one loop over a kernel's terms.
``translate_sum`` is the term walk behind every F-evaluation of the scalar
sup engine: built per node system from a kernel and weights, it is the
evaluator t -> (sum_j w_j K(t - x_j), its t-derivative).  When the kernel
is a plain family it makes two table calls per translate and nothing else;
a layered kernel walks its terms.  The floats are those of summing
``w_j * eval`` and ``w_j * deriv`` either way.
A kernel has no scale of its own: c * K with weights w_j is K with weights
c * w_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from numbers import Real
from typing import Any, Callable, NamedTuple

import numpy as np

from .formulas import Formula, LogWeight

__all__ = [
    "Family",
    "FAMILIES",
    "Kernel",
    "translate_sum",
    "zero_kernel",
    "log_kernel",
    "sqrt_kernel",
    "power_kernel",
    "custom_kernel",
    "strictify",
    "singularize",
]


class Family(NamedTuple):
    """How one kernel family, or one transform layer, evaluates.

    Each entry takes the family parameter first (``None``, the power
    exponent, the two custom formulas, or a layer's eta).  ``deriv`` is the
    derivative; at t = 0 it is NaN unless both sides agree, and at a layer
    threshold |t| = eta, where the sum is concave but kinked, it is one of
    the two one-sided derivatives.  ``values`` and ``derivs`` are the array
    forms, with the same operations in the same order; they may divide by 0
    or take log(0) before masking, so callers run them under ``np.errstate``.
    ``strict`` says the term is strictly monotone and strictly concave on
    each side of 0.
    """

    value: Callable[[Any, float], float]
    values: Callable[[Any, np.ndarray], np.ndarray]
    deriv: Callable[[Any, float], float]
    derivs: Callable[[Any, np.ndarray], np.ndarray]
    strict: bool = False


def _power_pow(s: float, t: float) -> float:
    """|t| ** (-s) for t != 0, inf where that passes the largest float."""
    try:
        return abs(t) ** (-s)
    except OverflowError:
        return math.inf


def _power_values(s: float, ts: np.ndarray) -> np.ndarray:
    a = np.abs(ts)
    safe = np.where(a == 0.0, 1.0, a)
    return np.where(a == 0.0, -np.inf, -(safe ** (-s)))


def _nan_at_zero(ts: np.ndarray, ds: np.ndarray) -> np.ndarray:
    return np.where(ts == 0.0, np.nan, ds)


def _custom_deriv(f: tuple[Formula, Formula], t: float) -> float:
    if t < 0.0:
        return f[0].deriv(t)
    if t > 0.0:
        return f[1].deriv(t)
    left, right = f[0].deriv(0.0), f[1].deriv(0.0)
    return left if left == right else math.nan


# each side is evaluated on its own closed side only, where a log weight is
# positive; the other side's points are moved to 0
def _custom_values(f: tuple[Formula, Formula], ts: np.ndarray) -> np.ndarray:
    return np.where(ts < 0.0, f[0].values(np.minimum(ts, 0.0)),
                    f[1].values(np.maximum(ts, 0.0)))


def _custom_derivs(f: tuple[Formula, Formula], ts: np.ndarray) -> np.ndarray:
    at0 = _custom_deriv(f, 0.0)
    return np.where(ts < 0.0, f[0].derivs(np.minimum(ts, 0.0)),
                    np.where(ts > 0.0, f[1].derivs(np.maximum(ts, 0.0)), at0))


def _singularize_value(eta: float, t: float) -> float:
    a = abs(t)
    if a == 0.0:
        return -math.inf
    return math.log(a / eta) if a < eta else 0.0


# The one definition of every kernel family and transform layer.  A kernel
# evaluates as family term + strictify term + singularize terms.
FAMILIES: dict[str, Family] = {
    "zero": Family(
        value=lambda _, t: 0.0,
        values=lambda _, ts: np.zeros_like(ts),
        deriv=lambda _, t: 0.0,
        derivs=lambda _, ts: np.zeros_like(ts)),
    "log": Family(
        value=lambda _, t: math.log(abs(t)) if t != 0.0 else -math.inf,
        values=lambda _, ts: np.log(np.abs(ts)),
        deriv=lambda _, t: 1.0 / t if t != 0.0 else math.nan,
        derivs=lambda _, ts: _nan_at_zero(ts, 1.0 / ts),
        strict=True),
    "sqrt": Family(
        value=lambda _, t: math.sqrt(abs(t)),
        values=lambda _, ts: np.sqrt(np.abs(ts)),
        deriv=lambda _, t: (math.copysign(0.5 / math.sqrt(abs(t)), t)
                            if t != 0.0 else math.nan),
        derivs=lambda _, ts: _nan_at_zero(ts, np.copysign(0.5 / np.sqrt(np.abs(ts)), ts)),
        strict=True),
    "power": Family(
        value=lambda s, t: -_power_pow(s, t) if t != 0.0 else -math.inf,
        values=_power_values,
        deriv=lambda s, t: s * _power_pow(s, t) / t if t != 0.0 else math.nan,
        derivs=lambda s, ts: _nan_at_zero(ts, s * np.abs(ts) ** (-s) / ts),
        strict=True),
    "custom": Family(
        value=lambda f, t: f[0].value(t) if t < 0.0 else f[1].value(t),
        values=_custom_values,
        deriv=_custom_deriv,
        derivs=_custom_derivs),
    "strictify": Family(
        value=lambda eta, t: eta * math.sqrt(abs(t)),
        values=lambda eta, ts: eta * np.sqrt(np.abs(ts)),
        deriv=lambda eta, t: (math.copysign(0.5 * eta / math.sqrt(abs(t)), t)
                              if t != 0.0 else math.nan),
        derivs=lambda eta, ts: _nan_at_zero(
            ts, np.copysign(0.5 * eta / np.sqrt(np.abs(ts)), ts)),
        strict=True),
    "singularize": Family(
        value=_singularize_value,
        values=lambda eta, ts: np.minimum(np.log(np.abs(ts) / eta), 0.0),
        deriv=lambda eta, t: ((1.0 / t if abs(t) < eta else 0.0)
                              if t != 0.0 else math.nan),
        derivs=lambda eta, ts: _nan_at_zero(ts, np.where(np.abs(ts) < eta, 1.0 / ts, 0.0))),
}

_KERNEL_FAMILIES = ("zero", "log", "sqrt", "power", "custom")


@dataclass(frozen=True)
class Kernel:
    """A kernel family with optional transform layers.

    ``param`` is the family parameter as its ``FAMILIES`` entry takes it:
    None for zero, log and sqrt, the exponent s > 0 for power, and the pair
    ``(neg, pos)`` of side formulas for custom.  ``strictify_eta`` and
    ``singularize_etas`` record the transform layers so evaluation stays
    exact and serializable.  A multiple of a kernel is written as a
    problem's weights.  A custom kernel's two formulas must agree at 0, and
    a log-weight side needs a positive weight on its closed side, [-1, 0] or
    [0, 1], as a log-weight field piece does on its closure.
    """

    family: str
    param: Any = None
    strictify_eta: float = 0.0
    singularize_etas: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.family not in _KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        # chained comparisons, which NaN fails, so NaN and inf are refused too
        if not (0 <= self.strictify_eta < math.inf
                and all(0 < e < math.inf for e in self.singularize_etas)):
            raise ValueError("transform parameters must be positive and finite")
        param = self.param
        if self.family == "power":
            if not (isinstance(param, Real) and 0 < param < math.inf):
                raise ValueError("power kernels need a finite s > 0")
            object.__setattr__(self, "param", float(param))
        elif self.family == "custom":
            if not (isinstance(param, tuple) and len(param) == 2
                    and all(isinstance(f, Formula) for f in param)):
                raise ValueError("custom kernels need one formula per side")
            neg, pos = param
            for name, f, (a, b) in (("negative", neg, (-1.0, 0.0)),
                                    ("positive", pos, (0.0, 1.0))):
                if isinstance(f, LogWeight) and not f.w.inf_on(a, b)[0] > 0:
                    raise ValueError(f"the {name} side of a custom kernel is a log weight "
                                     f"that is not positive on [{a:g}, {b:g}]")
            if abs(neg.value(0.0) - pos.value(0.0)) > 1e-9:
                raise ValueError("custom kernel sides disagree at 0")
        elif param is not None:
            raise ValueError(f"{self.family} kernels take no parameter")

    @cached_property
    def _terms(self) -> tuple[tuple[Family, Any], ...]:
        """(table entry, parameter) per summand, family first, then layers."""
        terms = [(FAMILIES[self.family], self.param)]
        if self.strictify_eta:
            terms.append((FAMILIES["strictify"], self.strictify_eta))
        terms.extend((FAMILIES["singularize"], eta) for eta in self.singularize_etas)
        return tuple(terms)

    def __getstate__(self) -> dict:
        # the cached terms hold the table's lambdas, which do not pickle
        return {k: v for k, v in vars(self).items() if k != "_terms"}

    @cached_property
    def singular(self) -> bool:
        """K(0) = -inf."""
        return self.eval(0.0) == -math.inf

    @cached_property
    def monotone(self) -> bool:
        """Non-increasing on [-1, 0) and non-decreasing on (0, 1], with K(0)
        at most either one-sided limit at 0.

        The zero, log, sqrt and power families and both transform layers are
        all of that shape, and so is any sum of them.
        A custom kernel's sides are concave, so their slopes fall from left
        to right: the negative side is non-increasing when its slope at -1 is
        <= 0, the positive side non-decreasing when its slope at 1 is >= 0.
        K(0) is the positive side's value there and must not exceed the
        negative side's.  Every formula is finite on its closed side (a log
        weight is refused otherwise), so these are plain float comparisons.
        """
        if self.family != "custom":
            return True
        neg, pos = self.param
        return (neg.deriv(-1.0) <= 0.0 <= pos.deriv(1.0)
                and pos.value(0.0) <= neg.value(0.0))

    def _strictly(self, custom_rule: Callable[[Formula, Formula], bool]) -> bool:
        """Whether some term is strict, or the custom sides pass custom_rule.

        A sum of concave (monotone) terms is strictly so when one term is.
        A custom side is analytic, so its slope is constant on no interval
        unless it is constant everywhere: a side is strictly concave when its
        slopes at its two ends differ, and a monotone side strictly monotone
        when its slope at 0, the side's steepest, is not 0.
        """
        if any(fam.strict for fam, _ in self._terms):
            return True
        return self.family == "custom" and custom_rule(*self.param)

    @cached_property
    def strictly_monotone(self) -> bool:
        """``monotone``, and strictly so on each side of 0."""
        return self.monotone and self._strictly(
            lambda neg, pos: neg.deriv(0.0) < 0.0 < pos.deriv(0.0))

    @cached_property
    def strictly_concave(self) -> bool:
        """Strictly concave on [-1, 0) and on (0, 1]."""
        return self._strictly(lambda neg, pos: (neg.deriv(-1.0) > neg.deriv(0.0)
                                                and pos.deriv(0.0) > pos.deriv(1.0)))

    def eval(self, t: float) -> float:
        """Raw float value at t in [-1, 1]; -inf allowed, never NaN or +inf."""
        if not -1.0 <= t <= 1.0:
            raise ValueError(f"kernel argument {t} outside [-1, 1]")
        v = 0.0
        for fam, param in self._terms:
            v += fam.value(param, t)
        return v

    def _sum_many(self, ts: np.ndarray, columns: tuple[str, ...]) -> tuple[np.ndarray, ...]:
        """The sum over the terms, for each named array column of the table,
        from one pass over the terms and one range check."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < -1.0 or ts.max() > 1.0):
            raise ValueError("kernel argument outside [-1, 1]")
        (fam, param), *layers = self._terms
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sums = [getattr(fam, c)(param, ts) for c in columns]
            for fam, param in layers:
                sums = [v + getattr(fam, c)(param, ts) for v, c in zip(sums, columns)]
        return tuple(sums)

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; same domain rules as ``eval``."""
        return self._sum_many(ts, ("values",))[0]

    def eval_and_derivs(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(``eval_many(ts)``, ``derivs(ts)``), bit for bit, from one pass."""
        return self._sum_many(ts, ("values", "derivs"))

    def deriv(self, t: float) -> float:
        """Derivative at t in [-1, 1]; NaN at 0 unless both sides agree.

        Each side of 0 is concave, so at a kink of a transform layer the
        value is a one-sided derivative and still bounds the kernel by its
        tangent line on that side.
        """
        if not -1.0 <= t <= 1.0:
            raise ValueError(f"kernel argument {t} outside [-1, 1]")
        d = 0.0
        for fam, param in self._terms:
            d += fam.deriv(param, t)
        return d

    def derivs(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized ``deriv``; same domain rules."""
        return self._sum_many(ts, ("derivs",))[0]


def translate_sum(kernel: Kernel, weights: tuple[float, ...],
                  nodes: tuple[float, ...]) -> Callable[[float], tuple[float, float]]:
    """The evaluator t -> (f(t), f'(t)) of f(t) = sum_j w_j K(t - x_j), for
    a kernel K, weights w_j and one node system; it raises ValueError when
    some t - x_j leaves [-1, 1].

    Translates are summed in order from 0.0, each kernel's terms from 0.0 as
    ``Kernel.eval`` and ``Kernel.deriv`` do, so the floats are those of
    adding up ``w_j * eval(t - x_j)`` and ``w_j * deriv(t - x_j)``; once f(t)
    is -inf it stays -inf.  When the kernel has one term the evaluator calls
    its two table entries directly: adding a term to 0.0 changes no sum that
    starts at 0.0.
    """
    parts = tuple(zip(weights, nodes))
    # t - x_j is monotone in x_j, so the extreme nodes decide the domain
    lo, hi = min(nodes), max(nodes)
    terms = kernel._terms
    if len(terms) == 1:
        ((fam, param),) = terms
        value, deriv = fam.value, fam.deriv

        def plain(t: float) -> tuple[float, float]:
            if not (-1.0 <= t - hi and t - lo <= 1.0):
                raise ValueError(f"kernel argument outside [-1, 1] at t = {t}")
            total = slope = 0.0
            for w, xj in parts:
                s = t - xj
                total += w * value(param, s)
                slope += w * deriv(param, s)
            return total, slope

        return plain

    def walk(t: float) -> tuple[float, float]:
        if not (-1.0 <= t - hi and t - lo <= 1.0):
            raise ValueError(f"kernel argument outside [-1, 1] at t = {t}")
        total = slope = 0.0
        for w, xj in parts:
            s = t - xj
            v = d = 0.0
            for fam, param in terms:
                v += fam.value(param, s)
                d += fam.deriv(param, s)
            total += w * v
            slope += w * d
        return total, slope

    return walk


def zero_kernel() -> Kernel:
    return Kernel("zero")


def log_kernel() -> Kernel:
    return Kernel("log")


def sqrt_kernel() -> Kernel:
    """K(t) = sqrt(|t|): bounded, monotone, strictly concave per side."""
    return Kernel("sqrt")


def power_kernel(s: float) -> Kernel:
    """K(t) = -|t| ** (-s) for s > 0."""
    return Kernel("power", s)


def custom_kernel(neg: Formula, pos: Formula) -> Kernel:
    """A kernel from one concave formula per side of 0.

    The two sides must agree at 0 (extended continuity); concavity per side
    comes from the formula classes themselves.
    """
    return Kernel("custom", (neg, pos))


def strictify(k: Kernel, eta: float) -> Kernel:
    """K + eta * sqrt(|t|): strictly concave, strictly monotone, >= K."""
    if not 0 < eta < math.inf:
        raise ValueError("strictify needs a finite eta > 0")
    if not k.monotone:
        raise ValueError("strictify requires a monotone kernel")
    return replace(k, strictify_eta=k.strictify_eta + eta)


def singularize(k: Kernel, eta: float) -> Kernel:
    """K + min(log(|t| / eta), 0): singular at 0, equal to K for |t| >= eta."""
    return replace(k, singularize_etas=k.singularize_etas + (float(eta),))
