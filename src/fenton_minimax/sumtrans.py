"""Weighted sum-of-translates functions and their interval maxima.

For a node system x and kernels K_j the function under study is

    F(x, t) = J(t) + sum_j w_j * K_j(t - x_j),          t in [0, 1].

The sup engine decomposes a query interval into cells cut at node positions
and field piece boundaries.  Inside a cell every translate is concave (its
argument does not cross 0) and the field contributes one concave formula, so
F is concave there, and its closed-form derivative lets ``concave_max`` bound
the cell maximum by tangent lines.  Cell endpoints and piece boundary points
are evaluated exactly, both as one-sided limits (which count toward the
supremum but are not attained) and as actual point values.  That is what
lets half-open pieces produce exact unattained suprema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .core import ExtendedReal, Interval, NEG_INF, NodeSystem, UNIT
from .fields import Field, RealSubset, UnsupportedFieldError, finiteness_domain, n_field_check
from .kernels import Kernel
from .maximize import concave_max

__all__ = [
    "SupMode",
    "EXACT",
    "grid_mode",
    "Problem",
    "MaximaVector",
    "SupResult",
    "pure_sum_eval",
    "sum_eval",
    "sup_on_interval",
    "interval_maxima",
    "singularity_set",
    "RegularityReport",
    "regularity",
    "difference_map",
]


@dataclass(frozen=True)
class SupMode:
    """"exact" uses the cell engine; "grid" takes a sampled lower bound."""

    kind: str
    grid_n: int = 4096

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "grid"):
            raise ValueError(f"unknown sup mode {self.kind!r}")
        if self.kind == "grid" and self.grid_n < 2:
            raise ValueError("grid mode needs at least 2 samples")


EXACT = SupMode("exact")


def grid_mode(n: int = 4096) -> SupMode:
    return SupMode("grid", n)


@dataclass(frozen=True)
class Problem:
    """A field plus n weighted kernel translates.

    Either a shared kernel with a positive weight per node, or one kernel per
    node (generalized form).  The field must be finite at enough points for n
    nodes; callable fields are allowed only in grid mode.
    """

    n: int
    field: Field
    kernel: Kernel | None = None
    weights: tuple[float, ...] | None = None
    kernels: tuple[Kernel, ...] | None = None
    sup_mode: SupMode = EXACT

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one node")
        if self.kernels is not None:
            if self.kernel is not None or self.weights is not None:
                raise ValueError("give either a shared kernel or a kernel list, not both")
            if len(self.kernels) != self.n:
                raise ValueError(f"expected {self.n} kernels, got {len(self.kernels)}")
        else:
            if self.kernel is None:
                raise ValueError("a kernel is required")
            w = self.weights if self.weights is not None else (1.0,) * self.n
            w = tuple(float(v) for v in w)
            if len(w) != self.n:
                raise ValueError(f"expected {self.n} weights, got {len(w)}")
            if any(v <= 0 or not math.isfinite(v) for v in w):
                raise ValueError("weights must be positive and finite")
            object.__setattr__(self, "weights", w)
        if self.field.is_piecewise:
            chk = n_field_check(self.field, self.n)
            if not chk.valid:
                raise ValueError(
                    f"field is finite at too few points for n={self.n} "
                    f"(weighted count {chk.weighted_count})")
        elif self.sup_mode.kind != "grid":
            raise ValueError("callable fields require grid sup mode")

    def translates(self) -> tuple[tuple[float, Kernel], ...]:
        """(weight, kernel) per node; generalized kernels carry weight 1."""
        if self.kernels is not None:
            return tuple((1.0, k) for k in self.kernels)
        return tuple((w, self.kernel) for w in self.weights)

    def kernel_at(self, j: int) -> Kernel:
        return self.kernels[j] if self.kernels is not None else self.kernel

    def node_is_singular(self, j: int) -> bool:
        return self.kernel_at(j).flags.singular

    def any_singular(self) -> bool:
        return any(self.node_is_singular(j) for j in range(self.n))


class SupResult(NamedTuple):
    value: ExtendedReal
    witness: float | None
    attained: bool
    err: float


class MaximaVector(NamedTuple):
    """Interval maxima m_0..m_n plus witnesses and attainment flags."""

    values: tuple[ExtendedReal, ...]
    witnesses: tuple[float | None, ...]
    attained: tuple[bool, ...]
    err: tuple[float, ...]

    @property
    def max_value(self) -> ExtendedReal:
        return max(self.values)

    @property
    def min_value(self) -> ExtendedReal:
        return min(self.values)

    def floats(self) -> tuple[float, ...]:
        return tuple(v.as_float() for v in self.values)


def _check_nodes(p: Problem, x: NodeSystem) -> None:
    if x.n != p.n:
        raise ValueError(f"problem has n={p.n} but node system has n={x.n}")


def pure_sum_eval(p: Problem, x: NodeSystem, t: float) -> ExtendedReal:
    """f(x, t) = sum of weighted kernel translates, without the field."""
    _check_nodes(p, x)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"argument {t} outside [0, 1]")
    total = 0.0
    for (w, k), xj in zip(p.translates(), x.nodes):
        total += w * k.eval(t - xj)
        if total == -math.inf:
            break
    return ExtendedReal.of(total)


def sum_eval(p: Problem, x: NodeSystem, t: float) -> ExtendedReal:
    """F(x, t) = J(t) + f(x, t)."""
    _check_nodes(p, x)
    base = p.field.eval_float(t)
    if base == -math.inf:
        return NEG_INF
    return ExtendedReal.of(base + pure_sum_eval(p, x, t).as_float())


def _pure_fun(p: Problem, x: NodeSystem):
    """t -> (f(x, t), derivative in t); the derivative is NaN where a kernel
    with a cusp or a pole at 0 sits on a node.  Memoized, since a candidate
    point of the sup engine is also the end of one or two cells."""
    parts = [(w, k, xj) for (w, k), xj in zip(p.translates(), x.nodes)]
    memo: dict[float, tuple[float, float]] = {}

    def f(t: float) -> tuple[float, float]:
        if t in memo:
            return memo[t]
        total = slope = 0.0
        for w, k, xj in parts:
            v, d = k.eval_deriv(t - xj)
            total += w * v
            slope += w * d
        memo[t] = total, slope
        return total, slope

    return f


# ---------------------------------------------------------------------------
# the sup engine


def _breakpoints_inside(p: Problem, x: NodeSystem, q: Interval) -> list[float]:
    cuts = set()
    for xj in x.nodes:
        if q.a < xj < q.b:
            cuts.add(xj)
    if p.field.is_piecewise:
        for piece in p.field.pieces:
            for e in (piece.interval.a, piece.interval.b):
                if q.a < e < q.b:
                    cuts.add(e)
    return sorted(cuts)


def sup_on_interval(p: Problem, x: NodeSystem, q: Interval) -> SupResult:
    """Supremum of F(x, .) over the sub-interval q of [0, 1].

    The value honours q's end inclusion flags: over a half-open cell the
    supremum may be a one-sided limit, reported with attained=False and the
    limit location as witness.  In exact mode the supremum lies in
    [value, value + err]: err is 0 when every cell maximum was certified at
    an exactly evaluated point, and otherwise the largest tangent-gap bound
    of a cell above the winning value.
    """
    _check_nodes(p, x)
    if q.a < 0.0 or q.b > 1.0:
        raise ValueError("query interval must sit inside [0, 1]")
    if p.sup_mode.kind == "grid":
        return _sup_grid(p, x, q)
    if not p.field.is_piecewise:
        raise UnsupportedFieldError("exact suprema need a piecewise field")

    pts = [q.a] + _breakpoints_inside(p, x, q) + ([q.b] if q.b > q.a else [])
    f = _pure_fun(p, x)
    field = p.field

    # candidates: (value, location, attained, err)
    cands: list[tuple[float, float, bool, float]] = []
    for t in pts:
        if q.contains(t):
            base = field.eval_float(t)
            v = -math.inf if base == -math.inf else base + f(t)[0]
            cands.append((v, t, True, 0.0))

    for u, v in zip(pts, pts[1:]):
        piece = field.piece_at(0.5 * (u + v))
        if piece is None:
            continue
        formula = piece.formula

        def g(t, _f=f, _phi=formula):
            val, slope = _f(t)
            return _phi.value(t) + val, _phi.deriv(t) + slope

        # an interior maximum is attained; one at a cell end is the one-sided
        # limit there, and the other end's limit is no larger
        res = concave_max(g, u, v)
        cands.append((res.value, res.argmax, res.interior, res.err))

    if not cands:
        return SupResult(NEG_INF, None, False, 0.0)
    best_v = max(c[0] for c in cands)
    if best_v == -math.inf:
        return SupResult(NEG_INF, None, False, 0.0)
    ties = [c for c in cands if c[0] == best_v]
    ties.sort(key=lambda c: (not c[2], c[3], c[1]))
    _, where, attained, err = ties[0]
    err = max([err] + [c[0] + c[3] - best_v for c in cands if c[3] > 0.0])
    return SupResult(ExtendedReal(best_v), where, attained, err)


def _sup_grid(p: Problem, x: NodeSystem, q: Interval) -> SupResult:
    n = p.sup_mode.grid_n
    samples = {q.a, q.b}
    samples.update(np.linspace(q.a, q.b, n + 1).tolist())
    for t in _breakpoints_inside(p, x, q):
        samples.add(t)
        for probe in (t - 1e-9, t + 1e-9):
            if q.a < probe < q.b:
                samples.add(probe)
    ts = sorted(s for s in samples if q.contains(s))
    if not ts:
        return SupResult(NEG_INF, None, False, 0.0)
    arr = np.array(ts)
    vals = p.field.eval_many(arr)
    for (w, k), xj in zip(p.translates(), x.nodes):
        vals = vals + w * k.eval_many(arr - xj)
    i = int(np.argmax(vals))
    best = float(vals[i])
    if best == -math.inf:
        return SupResult(NEG_INF, None, False, 0.0)
    spacing = (q.b - q.a) / n if n else 0.0
    neigh = [abs(best - float(vals[j])) for j in (i - 1, i + 1)
             if 0 <= j < len(ts) and math.isfinite(vals[j])]
    err = max(neigh) if neigh else spacing
    return SupResult(ExtendedReal(best), float(arr[i]), True, err)


def interval_maxima(p: Problem, x: NodeSystem) -> MaximaVector:
    """m_j = sup of F over [x_j, x_{j+1}] for j = 0..n (sentinels 0 and 1)."""
    _check_nodes(p, x)
    results = [sup_on_interval(p, x, x.interval(j)) for j in range(p.n + 1)]
    return MaximaVector(
        values=tuple(r.value for r in results),
        witnesses=tuple(r.witness for r in results),
        attained=tuple(r.attained for r in results),
        err=tuple(r.err for r in results),
    )


# ---------------------------------------------------------------------------
# exact singularity bookkeeping


def singularity_set(p: Problem, x: NodeSystem) -> RealSubset:
    """Where F(x, .) = -inf: the field's -inf set, singular-kernel nodes, and
    the domain ends when a translate there evaluates a -inf kernel endpoint."""
    _check_nodes(p, x)
    if not p.field.is_piecewise:
        raise UnsupportedFieldError("singularity sets need a piecewise field")
    base = finiteness_domain(p.field).complement_in_unit()
    pts = [xj for j, xj in enumerate(x.nodes) if p.node_is_singular(j)]
    for j, xj in enumerate(x.nodes):
        k = p.kernel_at(j)
        if xj == 1.0 and k.eval(-1.0) == -math.inf:
            pts.append(0.0)
        if xj == 0.0 and k.eval(1.0) == -math.inf:
            pts.append(1.0)
    return base.with_points(pts)


@dataclass(frozen=True)
class RegularityReport:
    in_Y: bool
    in_W: bool
    singular_intervals: tuple[int, ...]


def regularity(p: Problem, x: NodeSystem) -> RegularityReport:
    """Which interval maxima are finite, decided from the set structure.

    m_j = -inf exactly when the whole interval [x_j, x_{j+1}] sits inside the
    singularity set; no numeric maximization is involved.  The stronger W
    predicate additionally needs an interior node system whose intervals all
    meet the field's finiteness domain in their relative interior.
    """
    _check_nodes(p, x)
    sing = singularity_set(p, x)
    fin_dom = finiteness_domain(p.field)
    allowed = tuple(sing.points)

    singular = []
    for j in range(p.n + 1):
        iv = x.interval(j)
        fin_here = fin_dom.intersect(iv)
        if fin_here.covered_by_points(allowed):
            singular.append(j)
    in_y = not singular

    in_w = in_y and x.classify() == "interior"
    if in_w:
        for j in range(p.n + 1):
            ri = x.interval(j).rint01()
            if ri is None or fin_dom.intersect(ri).is_empty:
                in_w = False
                break
    return RegularityReport(in_y, in_w, tuple(singular))


def difference_map(p: Problem, x: NodeSystem) -> tuple[float, ...]:
    """(m_1 - m_0, ..., m_n - m_{n-1}); errors when any operand is -inf."""
    m = interval_maxima(p, x)
    if any(not v.is_finite for v in m.values):
        bad = [j for j, v in enumerate(m.values) if not v.is_finite]
        raise ValueError(f"difference map undefined: m_j = -inf for j in {bad}")
    vals = m.floats()
    return tuple(vals[j + 1] - vals[j] for j in range(p.n))
