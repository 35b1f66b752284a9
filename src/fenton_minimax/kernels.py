"""Kernel functions on [-1, 1].

A kernel is real-valued and concave on (-1, 0) and on (0, 1), extended
continuously to the closed interval; the value at 0 may be -inf ("singular").
Kernels declare structural flags which downstream code relies on:

``singular``          K(0) = -inf
``monotone``          non-increasing on [-1, 0), non-decreasing on (0, 1]
``strictly_monotone`` strict version of the above
``strictly_concave``  strictly concave on each side
``cusp``              one-sided divided differences at 0 blow up

Declared flags are cheap to trust and expensive to prove, so
``kernel_validate`` is a numeric falsifier: it hunts for counterexamples on a
grid and reports any it finds, but a clean report is evidence, not proof.

Two transforms are provided.  ``strictify`` adds ``eta * sqrt(|t|)``, which
makes a monotone kernel strictly concave and strictly monotone while keeping
it above the original and converging back to it as eta drops to 0.
``singularize`` adds ``min(log(|t| / eta), 0)``, which forces a -inf value at
0 while leaving the kernel untouched wherever ``|t| >= eta``.

Every family and both transforms are defined once, in ``FAMILIES``: a scalar
value, a vectorized value, a derivative and a vectorized derivative per
entry.  ``Kernel.eval``, ``Kernel.eval_many``, ``Kernel.deriv``,
``Kernel.derivs``, ``Kernel.eval_and_derivs`` and ``TranslateSum`` all read
that table; the three array methods share one loop over a kernel's terms.
``TranslateSum`` is the term walk behind every F-evaluation of the scalar
sup engine: built once per problem from its (weight, kernel) pairs, it gives
per node system the evaluator t -> (sum_j w_j K_j(t - x_j), its
t-derivative).  When every kernel is a plain family it makes two table calls
per translate and nothing else; a scaled or layered kernel walks its terms.
The floats are those of summing ``w_j * eval`` and ``w_j * deriv`` either
way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, NamedTuple

import numpy as np

from .formulas import Formula

__all__ = [
    "KernelFlags",
    "Family",
    "FAMILIES",
    "Kernel",
    "TranslateSum",
    "zero_kernel",
    "log_kernel",
    "sqrt_kernel",
    "power_kernel",
    "custom_kernel",
    "kernel_validate",
    "strictify",
    "singularize",
    "ValidationReport",
]


@dataclass(frozen=True)
class KernelFlags:
    singular: bool
    monotone: bool
    strictly_monotone: bool
    strictly_concave: bool
    cusp: bool


class Family(NamedTuple):
    """How one kernel family, or one transform layer, evaluates.

    Each entry takes the family parameter first (``None``, the power
    exponent, the two custom formulas, or a layer's eta).  ``deriv`` is the
    derivative; at t = 0 it is NaN unless both sides agree, and at a layer
    threshold |t| = eta, where the sum is concave but kinked, it is one of
    the two one-sided derivatives.  ``values`` and ``derivs`` are the array
    forms, with the same operations in the same order; they may divide by 0
    or take log(0) before masking, so callers run them under ``np.errstate``.
    """

    value: Callable[[Any, float], float]
    values: Callable[[Any, np.ndarray], np.ndarray]
    deriv: Callable[[Any, float], float]
    derivs: Callable[[Any, np.ndarray], np.ndarray]


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


def _custom_derivs(f: tuple[Formula, Formula], ts: np.ndarray) -> np.ndarray:
    at0 = _custom_deriv(f, 0.0)
    return np.where(ts < 0.0, f[0].derivs(ts), np.where(ts > 0.0, f[1].derivs(ts), at0))


def _singularize_value(eta: float, t: float) -> float:
    a = abs(t)
    if a == 0.0:
        return -math.inf
    return math.log(a / eta) if a < eta else 0.0


# The one definition of every kernel family and transform layer.  A kernel
# evaluates as scale * (family term + strictify term + singularize terms).
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
        derivs=lambda _, ts: _nan_at_zero(ts, 1.0 / ts)),
    "sqrt": Family(
        value=lambda _, t: math.sqrt(abs(t)),
        values=lambda _, ts: np.sqrt(np.abs(ts)),
        deriv=lambda _, t: (math.copysign(0.5 / math.sqrt(abs(t)), t)
                            if t != 0.0 else math.nan),
        derivs=lambda _, ts: _nan_at_zero(ts, np.copysign(0.5 / np.sqrt(np.abs(ts)), ts))),
    "power": Family(
        value=lambda s, t: -_power_pow(s, t) if t != 0.0 else -math.inf,
        values=_power_values,
        deriv=lambda s, t: s * _power_pow(s, t) / t if t != 0.0 else math.nan,
        derivs=lambda s, ts: _nan_at_zero(ts, s * np.abs(ts) ** (-s) / ts)),
    "custom": Family(
        value=lambda f, t: f[0].value(t) if t < 0.0 else f[1].value(t),
        values=lambda f, ts: np.where(ts < 0, f[0].values(ts), f[1].values(ts)),
        deriv=_custom_deriv,
        derivs=_custom_derivs),
    "strictify": Family(
        value=lambda eta, t: eta * math.sqrt(abs(t)),
        values=lambda eta, ts: eta * np.sqrt(np.abs(ts)),
        deriv=lambda eta, t: (math.copysign(0.5 * eta / math.sqrt(abs(t)), t)
                              if t != 0.0 else math.nan),
        derivs=lambda eta, ts: _nan_at_zero(
            ts, np.copysign(0.5 * eta / np.sqrt(np.abs(ts)), ts))),
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
    """A kernel with declared flags and optional transform layers.

    ``scale`` multiplies the whole function (used to fold a positive weight
    into the kernel); ``strictify_eta`` and ``singularize_etas`` record the
    transform layers so evaluation stays exact and serializable.
    """

    family: str
    flags: KernelFlags
    params: tuple[float, ...] = ()
    scale: float = 1.0
    strictify_eta: float = 0.0
    singularize_etas: tuple[float, ...] = ()
    neg_formula: Formula | None = None
    pos_formula: Formula | None = None

    def __post_init__(self) -> None:
        if self.family not in _KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        # chained comparisons, which NaN fails, so NaN and inf are refused too
        if not 0 < self.scale < math.inf:
            raise ValueError("kernel scale must be positive and finite")
        if not (0 <= self.strictify_eta < math.inf
                and all(0 < e < math.inf for e in self.singularize_etas)):
            raise ValueError("transform parameters must be positive and finite")
        if self.family == "custom" and (self.neg_formula is None or self.pos_formula is None):
            raise ValueError("custom kernels need one formula per side")

    @cached_property
    def _terms(self) -> tuple[tuple[Family, Any], ...]:
        """(table entry, parameter) per summand, family first, then layers."""
        param = None
        if self.family == "power":
            param = self.params[0]
        elif self.family == "custom":
            param = (self.neg_formula, self.pos_formula)
        terms = [(FAMILIES[self.family], param)]
        if self.strictify_eta:
            terms.append((FAMILIES["strictify"], self.strictify_eta))
        terms.extend((FAMILIES["singularize"], eta) for eta in self.singularize_etas)
        return tuple(terms)

    def __getstate__(self) -> dict:
        # the cached terms hold the table's lambdas, which do not pickle
        return {k: v for k, v in vars(self).items() if k != "_terms"}

    def eval(self, t: float) -> float:
        """Raw float value at t in [-1, 1]; -inf allowed, never NaN or +inf."""
        if not -1.0 <= t <= 1.0:
            raise ValueError(f"kernel argument {t} outside [-1, 1]")
        v = 0.0
        for fam, param in self._terms:
            v += fam.value(param, t)
        return self.scale * v

    def _sum_many(self, ts: np.ndarray, columns: tuple[str, ...]) -> tuple[np.ndarray, ...]:
        """scale * the sum over the terms, for each named array column of the
        table, from one pass over the terms and one range check."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < -1.0 or ts.max() > 1.0):
            raise ValueError("kernel argument outside [-1, 1]")
        (fam, param), *layers = self._terms
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sums = [getattr(fam, c)(param, ts) for c in columns]
            for fam, param in layers:
                sums = [v + getattr(fam, c)(param, ts) for v, c in zip(sums, columns)]
        return tuple(self.scale * v for v in sums)

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
        return self.scale * d

    def derivs(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized ``deriv``; same domain rules."""
        return self._sum_many(ts, ("derivs",))[0]

    def scaled(self, factor: float) -> "Kernel":
        if not 0 < factor < math.inf:
            raise ValueError("kernel weights must be positive and finite")
        return replace(self, scale=self.scale * factor)


class TranslateSum:
    """f(t) = sum_j w_j K_j(t - x_j) and f'(t) for fixed (w_j, K_j).

    Built once per problem; ``at(nodes)`` gives the evaluator
    t -> (f(t), f'(t)) of one node system, which raises ValueError when some
    t - x_j leaves [-1, 1].  Translates are summed in order, each kernel's
    terms from 0.0 and then scaled, as ``Kernel.eval`` and ``Kernel.deriv``
    do, so the floats are those of adding up ``w_j * eval(t - x_j)`` and
    ``w_j * deriv(t - x_j)``.  When every kernel is one unscaled family the
    evaluator calls its two table entries directly: adding a term to 0.0
    and scaling it by 1.0 change no sum that starts at 0.0.
    """

    def __init__(self, translates: tuple[tuple[float, Kernel], ...]):
        self._plain = all(len(k._terms) == 1 and k.scale == 1.0 for _, k in translates)
        parts = []
        for w, k in translates:
            if self._plain:
                ((fam, param),) = k._terms
                parts.append((w, fam.value, fam.deriv, param))
            else:
                parts.append((w, k.scale, k._terms))
        self._parts = tuple(parts)

    def at(self, nodes) -> Callable[[float], tuple[float, float]]:
        parts = [(*part, xj) for part, xj in zip(self._parts, nodes)]
        # t - x_j is monotone in x_j, so the extreme nodes decide the domain
        lo, hi = min(nodes), max(nodes)
        if self._plain:
            def plain(t: float) -> tuple[float, float]:
                if not (-1.0 <= t - hi and t - lo <= 1.0):
                    raise ValueError(f"kernel argument outside [-1, 1] at t = {t}")
                total = slope = 0.0
                for w, value, deriv, param, xj in parts:
                    s = t - xj
                    total += w * value(param, s)
                    slope += w * deriv(param, s)
                return total, slope

            return plain

        def walk(t: float) -> tuple[float, float]:
            if not (-1.0 <= t - hi and t - lo <= 1.0):
                raise ValueError(f"kernel argument outside [-1, 1] at t = {t}")
            total = slope = 0.0
            for w, scale, terms, xj in parts:
                s = t - xj
                v = d = 0.0
                for fam, param in terms:
                    v += fam.value(param, s)
                    d += fam.deriv(param, s)
                total += w * (scale * v)
                slope += w * (scale * d)
            return total, slope

        return walk


def zero_kernel() -> Kernel:
    return Kernel(
        "zero",
        KernelFlags(singular=False, monotone=True, strictly_monotone=False,
                    strictly_concave=False, cusp=False),
    )


def log_kernel() -> Kernel:
    return Kernel(
        "log",
        KernelFlags(singular=True, monotone=True, strictly_monotone=True,
                    strictly_concave=True, cusp=True),
    )


def sqrt_kernel() -> Kernel:
    """K(t) = sqrt(|t|): bounded, monotone, strictly concave per side."""
    return Kernel(
        "sqrt",
        KernelFlags(singular=False, monotone=True, strictly_monotone=True,
                    strictly_concave=True, cusp=True),
    )


def power_kernel(s: float) -> Kernel:
    """K(t) = -|t| ** (-s) for s > 0."""
    if not 0 < s < math.inf:
        raise ValueError("power kernels need a finite s > 0")
    return Kernel(
        "power",
        KernelFlags(singular=True, monotone=True, strictly_monotone=True,
                    strictly_concave=True, cusp=True),
        params=(float(s),),
    )


def custom_kernel(neg: Formula, pos: Formula, flags: KernelFlags) -> Kernel:
    """A kernel from one concave formula per side of 0.

    The two sides must agree at 0 (extended continuity); concavity per side
    comes from the formula classes themselves.  Declared flags are the
    caller's claim and can be fed to ``kernel_validate``.
    """
    k = Kernel("custom", flags, neg_formula=neg, pos_formula=pos)
    v0_neg, v0_pos = neg.value(0.0), pos.value(0.0)
    if abs(v0_neg - v0_pos) > 1e-9:
        raise ValueError("custom kernel sides disagree at 0")
    return k


def strictify(k: Kernel, eta: float) -> Kernel:
    """K + eta * sqrt(|t|): strictly concave, strictly monotone, >= K."""
    if not 0 < eta < math.inf:
        raise ValueError("strictify needs a finite eta > 0")
    if not k.flags.monotone:
        raise ValueError("strictify requires a monotone kernel")
    flags = KernelFlags(singular=k.flags.singular, monotone=True,
                        strictly_monotone=True, strictly_concave=True, cusp=True)
    return replace(k, strictify_eta=k.strictify_eta + eta, flags=flags)


def singularize(k: Kernel, eta: float) -> Kernel:
    """K + min(log(|t| / eta), 0): singular at 0, equal to K for |t| >= eta."""
    if not 0 < eta < math.inf:
        raise ValueError("singularize needs a finite eta > 0")
    flags = KernelFlags(singular=True, monotone=k.flags.monotone,
                        strictly_monotone=k.flags.strictly_monotone,
                        strictly_concave=k.flags.strictly_concave, cusp=True)
    return replace(k, singularize_etas=k.singularize_etas + (float(eta),), flags=flags)


@dataclass
class Violation:
    flag: str
    witness: tuple[float, ...]
    detail: str


@dataclass
class ValidationReport:
    kernel: Kernel
    grid_size: int
    confirmed: dict[str, bool] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)
    sup_estimate: float = -math.inf
    cusp_rate: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations


_CUSP_THRESHOLD = 1e3


def kernel_validate(k: Kernel, grid_size: int = 10_000) -> ValidationReport:
    """Hunt for numeric counterexamples to the kernel contract and flags.

    Checks midpoint concavity per side, the two-sided limit at 0, upper
    boundedness, and each declared flag.  Finding nothing does not prove the
    flags, it only fails to refute them.
    """
    if grid_size < 8:
        raise ValueError("grid_size must be at least 8")
    rep = ValidationReport(kernel=k, grid_size=grid_size)
    fl = k.flags

    def bad(flag, witness, detail):
        rep.violations.append(Violation(flag, witness, detail))

    sides = []
    for sign in (-1.0, 1.0):
        ts = sign * np.linspace(1e-9, 1.0, grid_size)
        ts.sort()
        vs = k.eval_many(ts)
        sides.append((sign, ts, vs))
        finite = vs[np.isfinite(vs)]
        if finite.size:
            rep.sup_estimate = max(rep.sup_estimate, float(finite.max()))
        if not np.all(vs < math.inf):
            bad("upper-bounded", (float(ts[np.argmax(vs)]),), "+inf value on grid")

        # midpoint concavity: K((u+v)/2) >= (K(u)+K(v))/2 - 1e-12
        u, v = ts[:-2], ts[2:]
        mid = 0.5 * (u + v)
        vm = k.eval_many(mid)
        lhs, rhs = vm, 0.5 * (vs[:-2] + vs[2:])
        mask = np.isfinite(lhs) & np.isfinite(rhs)
        viol = mask & (lhs < rhs - 1e-12)
        if viol.any():
            i = int(np.argmax(viol))
            bad("concavity", (float(u[i]), float(v[i])),
                f"midpoint dips {float(rhs[i] - lhs[i]):.3e} below the chord")

        diffs = np.diff(vs)
        finite_d = np.isfinite(vs[:-1]) & np.isfinite(vs[1:])
        inc_ok = np.all(diffs[finite_d] >= -1e-12) if sign > 0 else np.all(diffs[finite_d] <= 1e-12)
        if fl.monotone and not inc_ok:
            j = int(np.argmax((diffs < -1e-12) if sign > 0 else (diffs > 1e-12)))
            bad("monotone", (float(ts[j]), float(ts[j + 1])), "wrong-way difference")
        if fl.strictly_monotone:
            strict = np.all(diffs[finite_d] > 0) if sign > 0 else np.all(diffs[finite_d] < 0)
            if not strict:
                bad("strictly_monotone", (float(ts[0]),), "a flat or wrong-way step")
        if fl.strictly_concave:
            flat = mask & (lhs <= rhs)
            if flat.any():
                i = int(np.argmax(flat))
                bad("strictly_concave", (float(u[i]), float(v[i])), "no strict midpoint gain")

    # limits at 0 from both sides agree (possibly both -inf)
    eps = 1e-9
    l0, r0 = k.eval(-eps), k.eval(eps)
    both_sink = l0 < -1e8 and r0 < -1e8
    if not both_sink and abs(l0 - r0) > 1e-6:
        bad("zero-limit", (0.0,), f"left {l0} vs right {r0} near 0")

    v0 = k.eval(0.0)
    if fl.singular and v0 != -math.inf:
        bad("singular", (0.0,), f"declared singular but K(0) = {v0}")
    if not fl.singular and v0 == -math.inf:
        bad("singular", (0.0,), "declared non-singular but K(0) = -inf")

    # cusp: divided differences (K(2h) - K(h)) / h on a shrinking schedule
    rates = []
    for side in (-1.0, 1.0):
        h = 0.01
        rate = 0.0
        for _ in range(12):
            va, vb = k.eval(side * h), k.eval(side * 2 * h)
            if math.isfinite(va) and math.isfinite(vb):
                rate = abs(vb - va) / h
            h *= 0.25
        rates.append(rate)
    rep.cusp_rate = min(rates)
    if fl.cusp and rep.cusp_rate < _CUSP_THRESHOLD:
        bad("cusp", (0.0,), f"divided differences stay near {rep.cusp_rate:.3e}")
    if not fl.cusp and rep.cusp_rate > _CUSP_THRESHOLD:
        bad("cusp", (0.0,), "undeclared blow-up of divided differences near 0")

    for name in ("singular", "monotone", "strictly_monotone", "strictly_concave", "cusp"):
        rep.confirmed[name] = not any(v.flag == name for v in rep.violations)
    return rep
