"""Weighted sum-of-translates functions and their interval maxima.

For a node system x, one kernel K and positive weights w_j the function
under study is

    F(x, t) = J(t) + sum_j w_j * K(t - x_j),            t in [0, 1].

The sup engine decomposes a query interval into cells cut at node positions
and field piece boundaries.  Inside a cell every translate is concave (its
argument does not cross 0) and the field contributes one concave formula, so
F is concave there, and its closed-form derivative lets ``concave_max`` bound
the cell maximum by tangent lines.  Cell endpoints and piece boundary points
are evaluated exactly, both as one-sided limits (which count toward the
supremum but are not attained) and as actual point values.  That is what
lets half-open pieces produce exact unattained suprema.

There are two engines with these rules.  The scalar engine takes one node
system: use it when each call depends on the last, as in the solvers, and as
the reference in tests.  What it needs of a problem is built once and cached
on the ``Problem``: the term walk of its weighted translates
(``kernels.TranslateSum``).  The field's breakpoints cut the cells, and
bisection in its piece table (``Field.piece_table``, built once per field)
finds each point's and cell's formula.  Per node system it builds one
memoized F evaluator (``_pure_fun``) that every interval of the system
shares, since a cell end of one interval is a point candidate of the next;
for a singular kernel its memo starts with the value -inf at every node.
``interval_maxima`` and the solvers' pattern search enter it through
``_maxima_fn``/``_sup_cells`` with float interval ends, and ``sum_eval``
reads its value at one point.  Its value on an interval is the largest F
value it computes, so a caller that only asks whether m_j exceeds a
threshold ``stop`` gets its answer at the first value above ``stop``,
returned as a lower bound; the pattern search asks that, after one probe of
its own through the same evaluator (``_value_at``).
``interval_maxima_batch`` takes B independent node systems at once and runs
all their cells in lockstep with ``concave_max_many``: use it when the node
systems are known up front, as in the sampling checks.  Two options shrink
and share that work.  An interval selector ``js`` asks for one interval per
row, and only that interval's points and cells are built.  A stack of
problems that share one field and one n (a problem and its kernel
transforms) share the points and cells and go through one lockstep call,
their kernels applied per problem.  The plain call is the one-problem case
without a selector.  A batch of one costs many times a scalar call, which is
why both engines remain.  ``err`` means the same in both: the supremum lies
in [value, value + err] up to the rounding of the (n + 1)-term sum F, which
no bound allows for yet (at n = 256, value + err fell up to 7.4 ulp below a
40-digit supremum; ROADMAP item 3).

The regular set Y, where no m_j is -inf, has one definition: the engines'
values.  F is finite inside every cell that lies in a piece of J, and every
point between cells is evaluated exactly, so an engine's m_j is -inf
exactly when F is -inf on all of [x_j, x_{j+1}].  A caller tests membership
on the maxima it goes on to use.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import ExtendedReal, NodeSystem
from .fields import Field, n_field_check
from .kernels import Kernel, TranslateSum
from .maximize import concave_max, concave_max_many

__all__ = [
    "Problem",
    "MaximaVector",
    "MaximaBatch",
    "sum_eval",
    "interval_maxima",
    "interval_maxima_batch",
]


@dataclass(frozen=True)
class Problem:
    """The paper's problem: a field J plus n translates of one kernel K,
    node j weighted by w_j > 0 (every weight 1 by default).  The field must
    be piecewise and finite at enough points for n nodes.  A kernel
    transform is ``dataclasses.replace(p, kernel=...)``.
    """

    n: int
    field: Field
    kernel: Kernel
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one node")
        if self.kernel is None:
            raise ValueError("a kernel is required")
        w = self.weights if self.weights is not None else (1.0,) * self.n
        w = tuple(float(v) for v in w)
        if len(w) != self.n:
            raise ValueError(f"expected {self.n} weights, got {len(w)}")
        if any(v <= 0 or not math.isfinite(v) for v in w):
            raise ValueError("weights must be positive and finite")
        object.__setattr__(self, "weights", w)
        chk = n_field_check(self.field, self.n)
        if not chk.valid:
            raise ValueError(
                f"field is finite at too few points for n={self.n} "
                f"(weighted count {chk.weighted_count})")

    def __getstate__(self) -> dict:
        # the cached term walk holds the kernel table's lambdas, which do not pickle
        return {k: v for k, v in vars(self).items() if k != "_translate_sum"}

    @cached_property
    def _translate_sum(self) -> TranslateSum:
        """The term walk of the scalar engine, built on first use.  A problem
        made with ``dataclasses.replace`` builds its own."""
        return TranslateSum(self.kernel, self.weights)


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


class MaximaBatch(NamedTuple):
    """Interval maxima of B node systems, each field of shape (B, n + 1), or
    (B,) with an interval selector, behind one leading axis per problem
    stack (see ``interval_maxima_batch``).

    ``values`` holds -inf where m_j = -inf, and ``witnesses`` holds NaN where
    the scalar engine reports no witness.
    """

    values: np.ndarray
    witnesses: np.ndarray
    attained: np.ndarray
    err: np.ndarray


def _check_nodes(p: Problem, x: NodeSystem) -> None:
    if x.n != p.n:
        raise ValueError(f"problem has n={p.n} but node system has n={x.n}")


def _pure_fun(p: Problem, nodes: tuple[float, ...]):
    """t -> (f(x, t), derivative in t) for the node system x with the sorted
    ``nodes``; the derivative is NaN on a node when the kernel has a cusp or
    a pole at 0.  Memoized and built once per node system: a candidate
    point of the sup engine is also the end of one or two cells, and an
    interval's end is the next interval's start.  When the kernel is
    singular (K(0) = -inf) the memo starts with (-inf, NaN) at every node,
    which is what the term walk returns there: the node's own term is -inf
    with a NaN slope, and no term is +inf.  The engines evaluate every
    interval end, so this saves one walk per node."""
    walk = p._translate_sum.at(nodes)
    memo: dict[float, tuple[float, float]] = (
        dict.fromkeys(nodes, (-math.inf, math.nan)) if p.kernel.singular else {})

    def f(t: float) -> tuple[float, float]:
        r = memo.get(t)
        if r is None:
            r = memo[t] = walk(t)
        return r

    return f


# ---------------------------------------------------------------------------
# the sup engine


# (value, witness, attained, err), the value a float with -inf allowed
_RawSup = tuple[float, float | None, bool, float]


def _value_at(p: Problem, f, t: float) -> float:
    """F(x, t) = J(t) + f(x, t) as a float, -inf where J is; f is
    ``_pure_fun(p, nodes)``.  The engine's value at a point candidate."""
    ends, pieces = p.field._scalar_table
    piece = pieces[bisect_left(ends, t) + bisect_right(ends, t)]
    base = -math.inf if piece is None else piece.formula.value(t)
    return -math.inf if base == -math.inf else base + f(t)[0]


def sum_eval(p: Problem, x: NodeSystem, t: float) -> ExtendedReal:
    """F(x, t) = J(t) + sum_j w_j K(t - x_j), the sup engine's value at the
    point t of [0, 1]."""
    _check_nodes(p, x)
    if not 0.0 <= t <= 1.0:  # the bisection would read the piece at 0 or 1
        raise ValueError(f"argument {t} outside [0, 1]")
    return ExtendedReal(_value_at(p, _pure_fun(p, x.nodes), t))


def _sup_cells(p: Problem, f, a: float, b: float, stop: float = math.inf) -> _RawSup:
    """The exact engine on the closed interval [a, b], for a piecewise
    field; f is ``_pure_fun(p, nodes)``, and no node lies strictly inside
    [a, b].  The value is a float, -inf when F is -inf on the whole interval.

    The value is the largest F value computed, at a point or in a cell.  So
    the first one above ``stop`` shows that the value is above it too: the
    call returns it at once, with its location and err = inf, as a lower
    bound.  While no value exceeds ``stop``, the result is that of the call
    without it, bit for bit."""
    # the piece holding t is pieces[bisect_left + bisect_right]; the
    # breakpoints include 0 and 1, which no query interval holds strictly
    # inside
    ends, pieces = p.field._scalar_table
    cuts = ends[bisect_right(ends, a):bisect_left(ends, b)]
    pts = [a, *cuts, b] if b > a else [a]

    # candidates: (value, location, attained, err)
    cands: list[_RawSup] = []
    for t in pts:
        v = _value_at(p, f, t)
        if v > stop:
            return v, t, True, math.inf
        cands.append((v, t, True, 0.0))

    for u, v in zip(pts, pts[1:]):
        mid = 0.5 * (u + v)
        piece = pieces[bisect_left(ends, mid) + bisect_right(ends, mid)]
        if piece is None:
            continue

        def g(t, _value=piece.formula.value, _deriv=piece.formula.deriv):
            val, slope = f(t)
            return _value(t) + val, _deriv(t) + slope

        # an interior maximum is attained; one at a cell end is the one-sided
        # limit there, and the other end's limit is no larger
        cell_v, cell_t, cell_err, interior = concave_max(g, u, v, stop)
        if cell_v > stop:
            return cell_v, cell_t, interior, cell_err
        cands.append((cell_v, cell_t, interior, cell_err))

    # the largest value wins, then attained, then smaller err, then smaller t
    best = None
    for c in cands:
        if (best is None or c[0] > best[0]
                or (c[0] == best[0] and (not c[2], c[3], c[1]) < (not best[2], best[3], best[1]))):
            best = c
    if best is None or best[0] == -math.inf:
        return -math.inf, None, False, 0.0
    best_v, where, attained, err = best
    for c in cands:
        if c[3] > 0.0:
            err = max(err, c[0] + c[3] - best_v)
    return best_v, where, attained, err


def _maxima_fn(p: Problem, nodes: tuple[float, ...], f=None) -> Callable[..., _RawSup]:
    """(j, stop=inf) -> (m_j, witness, attained, err) as floats, the m_j of
    ``interval_maxima`` for the node system with the sorted tuple ``nodes``
    (unchecked), or with a value above ``stop`` a lower bound on it, as
    ``_sup_cells`` gives it.  Every interval shares one F evaluator: f, the
    caller's ``_pure_fun(p, nodes)`` when given."""
    f = f or _pure_fun(p, nodes)
    s = (0.0, *nodes, 1.0)
    return lambda j, stop=math.inf: _sup_cells(p, f, s[j], s[j + 1], stop=stop)


def interval_maxima(p: Problem, x: NodeSystem) -> MaximaVector:
    """m_j = sup of F over [x_j, x_{j+1}] for j = 0..n (sentinels 0 and 1)."""
    _check_nodes(p, x)
    m = _maxima_fn(p, x.nodes)
    values, witnesses, attained, err = zip(*(m(j) for j in range(p.n + 1)))
    return MaximaVector(tuple(map(ExtendedReal, values)), witnesses, attained, err)


# ---------------------------------------------------------------------------
# the batch engine: many independent node systems at once


def _sentinel_rows(X, n: int) -> np.ndarray:
    """X, an array of node systems of shape (B, n), as the (B, n + 2) array
    of its rows with the sentinels 0 and 1 around them.  Rows that are not
    nondecreasing node systems in [0, 1] raise ``ValueError``."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise ValueError(f"expected an array of shape (B, {n}), got {X.shape}")
    s = np.empty((X.shape[0], n + 2))
    s[:, 0], s[:, 1:-1], s[:, -1] = 0.0, X, 1.0
    if s.size and not (s[:, 1:] - s[:, :-1]).min() >= 0.0:  # NaN fails too
        raise ValueError("every row must be a nondecreasing node system in [0, 1]")
    return s


def _pure_many(stack: tuple[Problem, ...], X: np.ndarray, rows: np.ndarray,
               ts: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(X[rows], ts) and its t-derivative, entries bounds[k]:bounds[k + 1]
    with the translates of problem stack[k].  The differences t - x_j are
    built once; each problem's kernel makes one array call on its rows of
    them, and the weighted columns are then summed node by node in the
    order of ``_pure_fun``."""
    total, slope = np.zeros(ts.shape), np.zeros(ts.shape)
    diffs = ts[:, None] - X[rows]
    with np.errstate(invalid="ignore", over="ignore"):
        for q, lo, hi in zip(stack, bounds, bounds[1:]):
            if lo == hi:
                continue
            V, S = q.kernel.eval_and_derivs(diffs[lo:hi])
            tot, slp = total[lo:hi], slope[lo:hi]
            for j, w in enumerate(q.weights):
                tot += w * V[:, j]
                slp += w * S[:, j]
    return total, slope


def _formula_many(field: Field, piece: np.ndarray,
                  ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative at ts of the formula of piece index ``piece``."""
    v, d = np.empty(ts.shape), np.empty(ts.shape)
    for k, fp in enumerate(field.pieces):
        sel = piece == k
        if sel.any():
            v[sel], d[sel] = fp.formula.values(ts[sel]), fp.formula.derivs(ts[sel])
    return v, d


def interval_maxima_batch(p: Problem | Sequence[Problem], X, js=None) -> MaximaBatch:
    """``interval_maxima`` for every row of X, an array of shape (B, n).

    Without ``js`` every field of the result has shape (B, n + 1), and row i
    agrees with ``interval_maxima(p, NodeSystem(X[i]))`` within the two
    ``err``s, which mean the same here: the supremum lies in
    [value, value + err].  ``js``, an integer array of shape (B,) with
    0 <= js[i] <= n, selects one interval per row: the result has shape (B,)
    and holds m_{js[i]} of row i, and only the points and cells of that
    interval are built.  ``p`` may also be a stack of problems that share
    one field and one n (a problem and its kernel transforms, say): the
    result then gains a leading axis, one entry per problem, and every
    (problem, row, cell) is maximized in the same lockstep call.

    The points are each interval's ends and the piece ends strictly inside
    it (no node lies strictly inside an interval of a sorted system); they
    depend on the field and X only, so the stack shares them, and they are
    evaluated exactly as candidates.  The cells between them go, once per
    problem, to ``concave_max_many``; a problem's kernel enters only through
    ``_pure_many``.  The winner per interval follows the scalar engine
    (``_sup_cells``): the largest value, then attained, then smaller err,
    then smaller t.  Rows, intervals and problems do not interact, so every
    entry is bit for bit the entry of the one-problem, all-intervals call on
    its row alone.  A stack whose problems differ in field or n, rows that
    are not sorted node systems in [0, 1], and js outside [0, n] raise
    ``ValueError``.
    """
    stack = (p,) if isinstance(p, Problem) else tuple(p)
    if not stack or any(q.n != stack[0].n or q.field != stack[0].field for q in stack):
        raise ValueError("a problem stack needs one or more problems with one field and one n")
    field, n = stack[0].field, stack[0].n
    s = _sentinel_rows(X, n)
    X = s[:, 1:-1]
    B, P = X.shape[0], len(stack)
    # the queried intervals: (row, j) in row order, each row's j ascending
    if js is None:
        shape = (B, n + 1)
        rows, jq = np.divmod(np.arange(B * (n + 1)), n + 1)
    else:
        shape = (B,)
        jq = np.asarray(js)
        if (jq.shape != shape or (jq.size and jq.dtype.kind not in "iu")
                or np.any((jq < 0) | (jq > n))):
            raise ValueError(f"js must hold {B} integers in [0, {n}]")
        rows, jq = np.arange(B), jq.astype(int)
    out = shape if isinstance(p, Problem) else (P, *shape)
    Q = rows.size
    if Q == 0:
        empty = np.empty(out)
        return MaximaBatch(empty, empty, empty.astype(bool), empty)

    def each(a: np.ndarray) -> np.ndarray:
        """a once per problem, one copy after the other."""
        return np.concatenate([a] * P)

    # points: each interval's start, the piece ends strictly inside, its end
    qa, qb = s[rows, jq], s[rows, jq + 1]
    ends = field.piece_table[0]  # 0 and 1 lie strictly inside no interval
    first = np.searchsorted(ends, qa, "right")
    inner = np.maximum(np.searchsorted(ends, qb, "left") - first, 0)
    npts = 1 + inner + (qb > qa)
    iv = np.repeat(np.arange(Q), npts)
    k = np.arange(iv.size) - np.repeat(np.cumsum(npts) - npts, npts)
    t = np.where(k == 0, qa[iv], qb[iv])
    mid = (k > 0) & (k <= inner[iv])
    t[mid] = ends[first[iv[mid]] + k[mid] - 1]
    T = t.size
    f, df = (a.reshape(P, T) for a in _pure_many(stack, X, each(rows[iv]), each(t),
                                                 np.arange(P + 1) * T))
    pv = field.eval_many(t) + f  # -inf where the field is

    # cells: consecutive points of one interval, skipping -inf holes; problem
    # k's copy of cell i has flat index k * C + i
    c = np.nonzero(iv[:-1] == iv[1:])[0]
    piece = field.piece_index(0.5 * (t[c] + t[c + 1]))
    c, piece = c[piece >= 0], piece[piece >= 0]
    civ, ca, cb = iv[c], t[c], t[c + 1]
    C = c.size
    pa, dpa = _formula_many(field, piece, ca)
    pb, dpb = _formula_many(field, piece, cb)
    cpiece, crows = each(piece), each(rows[civ])

    def g(i: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phi, dphi = _formula_many(field, cpiece[i], ts)
        val, slope = _pure_many(stack, X, crows[i], ts,
                                np.searchsorted(i, np.arange(P + 1) * C))
        return phi + val, dphi + slope

    res = concave_max_many(g, each(ca), each(cb),
                           ends=(((pa + f[:, c]).ravel(), (dpa + df[:, c]).ravel()),
                                 ((pb + f[:, c + 1]).ravel(), (dpb + df[:, c + 1]).ravel())))

    # the winner per (problem, interval), and the largest cell bound above it
    first_iv = np.arange(P)[:, None] * Q
    cand_iv = np.concatenate([(first_iv + iv).ravel(), (first_iv + civ).ravel()])
    cand_v = np.concatenate([pv.ravel(), res.value])
    cand_t = np.concatenate([each(t), res.argmax])
    cand_att = np.concatenate([np.ones(P * T, dtype=bool), res.interior])
    cand_err = np.concatenate([np.zeros(P * T), res.err])
    order = np.argsort(cand_iv, kind="stable")
    grp = cand_iv[order]
    starts = np.searchsorted(grp, np.arange(P * Q))
    # narrow each group to its largest value, then attained, then smaller
    # err, then smaller t; the first candidate left wins
    v, att, e, tt = cand_v[order], cand_att[order], cand_err[order], cand_t[order]
    keep = v == np.maximum.reduceat(v, starts)[grp]
    keep &= att | ~np.logical_or.reduceat(keep & att, starts)[grp]
    for key in (e, tt):
        key = np.where(keep, key, np.inf)
        keep &= key == np.minimum.reduceat(key, starts)[grp]
    kept = np.flatnonzero(keep)
    win = order[kept[np.searchsorted(grp[kept], np.arange(P * Q))]]
    best = cand_v[win]
    with np.errstate(invalid="ignore"):
        above = np.where(cand_err > 0.0, cand_v + cand_err - best[cand_iv], -np.inf)
    err = np.maximum(cand_err[win], np.maximum.reduceat(above[order], starts))
    found = best > -np.inf
    return MaximaBatch(
        best.reshape(out),
        np.where(found, cand_t[win], np.nan).reshape(out),
        (found & cand_att[win]).reshape(out),
        np.where(found, err, 0.0).reshape(out))
