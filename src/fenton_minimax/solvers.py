"""Solvers: brute-force oracles, equioscillation, minimax and maximin.

The brute oracles enumerate ordered node tuples on a uniform grid (plus exact
piece endpoints) and take grid maxima in t, which makes them an independent
low-resolution route against the exact sup engine: they call nothing from it.
One block search serves both.  Each (n - 2)-prefix of grid indices is one
block holding every choice of the last two nodes: J and the prefix
translates are summed once per block, then the next translate once per
row, and the last node ranges over a row's columns, with no Python per
tuple.  The sums run in the order a tuple-at-a-time loop would use and
maxima are exact, so each value is that loop's float.  The winner is the
lexicographically first tuple with the best value.  Each score function has
a companion bound, computed for a chunk of block rows in one array pass,
and only tuples whose bound could still beat the incumbent are scored: for
minimax, minus the largest value of F at every 16th t; for maximin, the
smallest over three segments of (largest value of the shared sum on the
segment) + (largest value of the last translate on it).  The incumbent is
seeded from the tuples with the largest bounds.  Pruning cannot change a
result: rounded addition is monotone, so no bound is below its tuple's
score; a NaN bound keeps its tuple; the seed sits just below a real score;
and the kept tuples are scored in lexicographic order, so the tie-break
holds.  The worst case, nothing pruned, is O(C(m+n-1, n) * m) array work.

The equioscillation solver drives the difference map

    Phi(x) = (m_1 - m_0, ..., m_n - m_{n-1})

to zero on a usc field: for n = 1 a scan in one batch-engine call, then
scalar bisection, and for n >= 2 a Levenberg-Marquardt iteration with
feasibility repair and optional strictification continuation, from one
start after another until one converges, then one more step to polish the
point.  Its Jacobian comes from
the witnesses of the interval maxima it already has (Danskin's theorem:
dm_i/dx_k is -w_k K'(t_i - x_k) when m_i is attained at a point t_i off the
nodes), so a step costs no extra sup-engine calls.  Where some maximum sits
on a node, is not attained, or meets an infinite slope, as with a kernel
peaked at 0, the whole step falls back to finite differences with
``_FD_STEP``.  Then every node within 1e-6 of a field breakpoint moves onto
it, jointly, if that lowers |Phi|.  Any other field J is solved through its
usc regularization J*: by Lemma 6.1 max_j m_j is the same for J and J* at
every x, and J* has an equioscillation point, so J has one at J*'s point
exactly when J's own residual there vanishes.  Every start of every solver
is placed on the part of [0, 1] where J is finite by one map, ``_place``.

Minimax and maximin start from the equioscillation result; a caller that
runs all three solvers passes it in as ``eq=`` so it is computed once.  By
Theorem 1.3, at its point w, lo = min_j m_j(w) <= M <= hi = max_j (m_j +
err_j)(w), M being the common minimax and maximin value.  The
equioscillation report carries (lo, hi) as ``bracket``, read off the
maxima it already holds at w (those of Newton's accepted point, of the
snapped point or of the n = 1 scalar rescore and bisection), and its value
comes from the same maxima.  When lo and hi are finite and hi - lo <=
``_TOL_CERTIFY``, both return w with no search and no sup-engine call
(``_certified``); on the solve-battery benchmark that is 17 of its 18
problems, all but zero-n1-ramp, where equioscillation stalls.  Otherwise
each runs its pattern search (``_minimax_search``, ``_maximin_search``) on
the max and min of the interval maxima, warm-started from w.  The checks of
Theorem 1.3 call the searches themselves, whatever the bracket: each search
also starts from points of its own (the evenly spaced system for minimax,
three random systems for maximin), so comparing their values is not
circular.  Both run one driver, ``_search``, which differs
between them only in the sign of the objective: it searches from every
start, keeps the best value and reports it with the trace of its start.  A
search candidate is compared with the incumbent value fx one interval
maximum at a time, each computed in full, and dropped at the first that
fails to beat it, which gives the same result as computing all n + 1
maxima.  The README gives the kernel walks and cell maximizations this
costs on the solve-battery benchmark.

Most candidates need no evaluation at all when the kernel is monotone
(non-increasing left of 0, non-decreasing right of it) with K(0) at most
both one-sided limits, which ``Kernel.monotone`` reads off the kernel's
terms: every built-in family and transform layer qualifies, and a custom
kernel does when its negative side's slope at -1 is <= 0, its positive
side's slope at 1 is >= 0 and its value at 0 is at most the negative
side's there.  Then moving x_j right raises F(x, .) on [0, x_j]
and lowers it on [x_j + delta, 1], so m_0 ... m_j rise and m_{j+1} ... m_n
fall, and moving it left does the reverse.  A candidate that raises
(minimax) or lowers (maximin) an interval maximum equal to the incumbent's
value fx keeps that maximum no better than fx, so full evaluation would
reject it, and the search rejects it unevaluated.  Exact arithmetic makes
this hold.  The engine's rounding could in principle let through a gain
smaller than that maximum's ``err``; the tests check at sampled systems
that full evaluation rejects every candidate the rule skips, and that the
searches match full-evaluation ones bit for bit.  The README gives the
share of candidates skipped this way on the solve-battery benchmark.

Determinism: identical options (including the seed) give identical reports;
ties between candidates are broken lexicographically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, combinations_with_replacement
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import ExtendedReal, NEG_INF, NodeSystem
from .fields import Field, limsup_conditions, usc_regularize
from .kernels import strictify
from .sumtrans import Problem, _maxima_fn, _RawSup, interval_maxima, interval_maxima_batch

__all__ = [
    "SolveOptions",
    "SolveReport",
    "TraceRecord",
    "brute_minimax",
    "brute_maximin",
    "solve_equioscillation",
    "solve_minimax",
    "solve_maximin",
]


# A solve converges when |Phi| (equioscillation) is within _TOL_RESIDUAL,
# or its step (bisection, Newton, pattern search) falls below _TOL_STEP.
_TOL_RESIDUAL = 1e-8
_TOL_STEP = 1e-10
# Newton steps per start and stage; a pattern search makes six times as many sweeps.
_MAX_ITERS = 200
# The finite-difference Jacobian's step, relative to a node's room.
_FD_STEP = 1e-6
# The strictify continuation: Newton on the kernel strictified by each eta.
_CONTINUATION_ETAS = (0.2, 0.1, 0.05, 0.02, 0.01, 0.0)
# Minimax and maximin make no search when Theorem 1.3's bracket at the
# equioscillation point is at most this wide (``_certified``).
_TOL_CERTIFY = 10 * _TOL_RESIDUAL


@dataclass(frozen=True)
class SolveOptions:
    multistarts: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.multistarts < 1:
            raise ValueError("multistarts must be at least 1")


class TraceRecord(NamedTuple):
    """One point of a solver's path.  Equioscillation records its Newton
    iteration, |Phi| and the largest interval maximum at x; minimax and
    maximin record the sweep, the pattern step and their objective at x.  A
    report certified by Theorem 1.3 (``_certified``) holds one record:
    iteration 0, residual hi - lo, and its value at the equioscillation
    point."""

    iteration: int
    residual: float
    value: float
    x: tuple[float, ...]


@dataclass(frozen=True)
class SolveReport:
    x: NodeSystem | None
    value: ExtendedReal
    residual: float
    status: str  # converged | stalled | infeasible
    iterations: int
    trace: tuple[TraceRecord, ...] = ()
    solutions: tuple[NodeSystem, ...] = ()
    note: str = ""
    # equioscillation only: the point of each converged start that ran, in
    # start order, before ``solutions`` merges those within 1e-5 of each other
    converged_starts: tuple[NodeSystem, ...] = ()
    # equioscillation only: Theorem 1.3's bracket (min_j m_j, max_j (m_j +
    # err_j)) at x under the report's own problem (J, not J*), None when x
    # is; minimax and maximin read it (``_certified``).  Not in the JSON.
    bracket: tuple[float, float] | None = None


# ---------------------------------------------------------------------------
# shared numeric helpers


def _ns(arr) -> NodeSystem:
    return NodeSystem(arr.tolist() if isinstance(arr, np.ndarray) else arr)


def _leading_maxima(p: Problem, arr) -> list[_RawSup]:
    """The interval maxima as ``_maxima_fn`` gives them, (m_j, witness,
    attained, err) in floats, from m_0 up to the first that is -inf."""
    m = _maxima_fn(p, _ns(arr).nodes)
    rows = []
    for j in range(p.n + 1):
        rows.append(m(j))
        if rows[-1][0] == -math.inf:
            break
    return rows


def _maxima(p: Problem, arr) -> list[_RawSup] | None:
    """All the interval maxima of ``_leading_maxima``, or None when some
    maximum is -inf, that is when arr is not in Y."""
    rows = _leading_maxima(p, arr)
    return rows if rows[-1][0] != -math.inf else None


def _values(m: list[_RawSup]) -> list[float]:
    return [r[0] for r in m]


def _phi(p: Problem, arr) -> np.ndarray | None:
    m = _maxima(p, arr)
    return None if m is None else np.diff(_values(m))


def _bracket(m: Sequence[_RawSup]) -> tuple[float, float]:
    """Theorem 1.3's bracket (min_j m_j, max_j (m_j + err_j)) of the
    interval maxima m."""
    return min(r[0] for r in m), max(r[0] + r[3] for r in m)


def _objective(m, sign: float) -> float:
    """The largest of the interval maxima m for sign < 0, the smallest for
    sign > 0."""
    return max(m) if sign < 0 else min(m)


def _nearest_finite(J: Field, t: float) -> float:
    """The point of the closures of ``J.finite_parts`` closest to t, the
    lowest on a tie."""
    best, dist = t, math.inf
    for a, b in J.finite_parts:
        c = min(max(t, a), b)
        d = abs(c - t)
        if d < dist:
            best, dist = c, d
    return best


def _place(J: Field, u: float) -> float:
    """u in [0, 1] placed on J's finite part: the inverse of the length-CDF
    of ``J.finite_parts``, touching parts merged, so a J finite on all of
    [0, 1] maps u to u.  With no part of length, u picks an isolated point."""
    parts: list[tuple[float, float]] = []
    for a, b in J.finite_parts:
        if parts and a == parts[-1][1]:
            parts[-1] = (parts[-1][0], b)
        else:
            parts.append((a, b))
    wide = [(a, b) for a, b in parts if a < b]
    if not wide:
        return parts[min(int(u * len(parts)), len(parts) - 1)][0]
    s = u * sum(b - a for a, b in wide)
    for a, b in wide:
        if s <= b - a:
            break
        s -= b - a
    return min(a + s, b)


def _draw(p: Problem, rng: random.Random) -> np.ndarray:
    """A random start: n sorted uniforms placed on J's finite part."""
    us = sorted(rng.uniform(0.0, 1.0) for _ in range(p.n))
    return np.array([_place(p.field, u) for u in us])


def _clip(p: Problem, arr) -> np.ndarray:
    """A raw coordinate tuple clipped to [0, 1] and sorted, with coincident
    nodes separated when the kernel is singular."""
    x = np.minimum(np.maximum(np.asarray(arr, dtype=float), 0.0), 1.0)
    x = np.maximum.accumulate(x)
    n = len(x)
    if p.kernel.singular:
        sep = 1e-7
        lo = sep
        for i in range(n):
            x[i] = min(max(x[i], lo), 1.0 - sep)
            lo = x[i] + sep
        for i in range(n - 2, -1, -1):
            x[i] = min(x[i], x[i + 1] - sep)
        x = np.minimum(np.maximum(x, 0.0), 1.0)
    return x


def _repair(p: Problem, arr) -> tuple[np.ndarray, list[_RawSup] | None]:
    """Project a raw coordinate tuple toward the regular set Y: ``_clip``
    it, then ``_nudge`` it."""
    return _nudge(p, _clip(p, arr))


def _nudge(p: Problem, x: np.ndarray) -> tuple[np.ndarray, list[_RawSup] | None]:
    """Up to six times, nudge the nodes of the clipped point x around the
    first interval whose maximum is -inf so that it meets the set where the
    field is finite away from the singular points.  Returns the point with
    its ``_maxima``, which are None when it is still outside Y."""
    n = len(x)
    for _ in range(6):
        rows = _leading_maxima(p, x)
        if rows[-1][0] != -math.inf:
            return x, rows
        j = len(rows) - 1
        s = (0.0, *x, 1.0)
        mid = 0.5 * (s[j] + s[j + 1])
        u = _nearest_finite(p.field, mid)
        if u < s[j] and j >= 1:
            x[j - 1] = max(u - 1e-6, 0.0)
        elif u > s[j + 1] and j <= n - 1:
            x[j] = min(u + 1e-6, 1.0)
        else:
            # the target sits inside but coincides with a singular node
            if j >= 1:
                x[j - 1] = max(min(x[j - 1], u - 1e-4), 0.0)
            if j <= n - 1:
                x[j] = min(max(x[j], u + 1e-4), 1.0)
        x = np.maximum.accumulate(np.minimum(np.maximum(x, 0.0), 1.0))
    return x, _maxima(p, x)


# ---------------------------------------------------------------------------
# brute-force oracles


_MAX_TUPLES = 3_000_000
# Grid values a search holds in one array: a chunk of block rows, its bounds
# or the tuples scored together each fit in _BLOCK_VALUES // 4 floats, and
# about four such arrays are alive at once (1 MiB of floats in all).
_BLOCK_VALUES = 1 << 17
# The minimax bound reads F at every _BOUND_STRIDE-th grid point.
_BOUND_STRIDE = 16
# Tuples scored to seed the incumbent: those with the largest bounds.
_SEED_TUPLES = 16


def _oracle_grid(p: Problem, h: float) -> np.ndarray:
    """The one grid of the oracles, for nodes and t alike: step h, the
    field's piece ends, and probes 1e-9 either side of each.  Nodes hugging a
    piece end matter when the sup lives in a one-sided limit there
    (half-open pieces)."""
    if not (0 < h <= 0.5):
        raise ValueError("grid step h must lie in (0, 0.5]")
    m = max(2, round(1.0 / h))
    ends = np.array(p.field.piece_ends)
    probes = np.clip(np.concatenate([ends - 1e-9, ends + 1e-9]), 0.0, 1.0)
    return np.unique(np.concatenate([np.linspace(0.0, 1.0, m + 1), ends, probes]))


def _oracle_rows(p: Problem, xgrid: np.ndarray, tg: np.ndarray) -> list[np.ndarray]:
    """w_j K(t - x) per node j, one row per x and one column per t; nodes
    with the same weight share one array."""
    K = p.kernel.eval_many(tg[None, :] - xgrid[:, None])
    made = {w: w * K for w in set(p.weights)}
    return [made[w] for w in p.weights]


def _check_budget(m: int, n: int) -> None:
    if n > 4:
        raise ValueError("brute-force oracles support n <= 4")
    tuples = math.comb(m + n - 1, n)
    if tuples > _MAX_TUPLES:
        raise ValueError(f"{tuples} candidate tuples exceed the oracle budget; "
                         "use a coarser step h")


def _oracle_search(p: Problem, h: float, score: Callable[..., np.ndarray],
                   bound: Callable[..., Callable[..., np.ndarray]]
                   ) -> tuple[NodeSystem | None, float]:
    """The grid node system with the largest score, and that score.

    Index tuples come in ``combinations_with_replacement`` order.  Each
    (n - 2)-prefix (i_0, ..., i_{n-3}) is one block: ``base`` = J +
    w_0 K(t - x_{i_0}) + ... is summed once, and the block holds every pair
    (i, k), i = i_{n-2} >= i_{n-3} and last index k >= i, with F = (base +
    w_{n-2} K(t - x_i)) + w_{n-1} K(t - x_k), the sums in the order a
    tuple-at-a-time loop uses.  For n = 1 the block is the single row
    B = J and only k varies.  Nodes and t share one grid, so x_i sits at
    t-position i.

    A block is taken in chunks of rows i, each ``B = base + w K(t - x_i)``
    of at most ``_BLOCK_VALUES // 4`` values (or one row).  ``bound(last, n)`` runs once
    on the last translate's rows and returns ``chunk_bounds(B, cuts, i0)``:
    for the chunk's rows i0, i0 + 1, ... and every k >= i0, an upper bound
    on the score of (prefix, i, k), or NaN.  ``cuts`` holds the t-positions
    of 0, x_{i_0}, ..., x_{i_{n-3}}.  ``score(F, cuts, nodes)`` gives one
    score per row of F, where ``nodes`` holds the per-row positions of the
    block's nodes (i and k, or k alone for n = 1).

    While there is no incumbent, the ``_SEED_TUPLES`` tuples of a chunk with
    the largest bounds (NaN as +inf) are scored first, and the incumbent
    becomes the float just below their best score s0, with no tuple.  Then
    the tuples whose bound is not <= the incumbent are scored in
    lexicographic order, in groups that are filtered again against the
    running incumbent; a tuple replaces the incumbent only with a strictly
    larger score, and a NaN score never does.  None of this changes the
    result, the first tuple of largest score: round-to-nearest addition is
    monotone (b <= B and r <= R give fl(b + r) <= fl(B + R), -inf
    included), so no bound is below its tuple's score; a NaN bound compares
    false and keeps its tuple; a tuple pruned against the seed scores below
    s0, and s0 is at most the final best; a tuple pruned later could at best
    tie an incumbent that comes before it.  When no score exceeds -inf the
    result is (None, -inf).
    """
    grid = _oracle_grid(p, h)
    m, n = len(grid), p.n
    _check_budget(m, n)
    jvals = p.field.eval_many(grid)
    rows = _oracle_rows(p, grid, grid)
    last = rows[-1]
    chunk_bounds = bound(last, n)
    step = max(1, _BLOCK_VALUES // 4 // m)
    upper = np.arange(m) >= np.arange(step)[:, None]  # k >= i within a chunk
    best, best_idx = -math.inf, None

    def score_at(B, cuts, i0, flat):
        """The best score among the chunk's tuples at ``flat`` (row-major
        positions in the chunk's bounds), and the block indices of the first
        tuple with it."""
        r, c = np.divmod(flat, m - i0)
        nodes = [i0 + r, i0 + c] if n > 1 else [c]
        s = score(B[r] + last[i0 + c], cuts, nodes)
        s[np.isnan(s)] = -math.inf
        j = int(np.argmax(s))
        return float(s[j]), tuple(int(v[j]) for v in nodes)

    for prefix in combinations_with_replacement(range(m), max(n - 2, 0)):
        base = jvals
        for j, i in enumerate(prefix):
            base = base + rows[j][i]
        cuts = [0, *prefix]
        for i0 in range(cuts[-1], m if n > 1 else 1, step):
            B = base + rows[n - 2][i0:i0 + step] if n > 1 else base[None, :]
            bnd = chunk_bounds(B, cuts, i0)
            valid = upper[:len(B), :m - i0]
            if best == -math.inf:
                key = np.where(valid, np.where(np.isnan(bnd), math.inf, bnd),
                               -math.inf).ravel()
                top = np.argpartition(key, -_SEED_TUPLES)[-_SEED_TUPLES:] \
                    if key.size > _SEED_TUPLES else np.arange(key.size)
                top = top[key[top] > -math.inf]
                if len(top):
                    s0 = score_at(B, cuts, i0, top)[0]
                    best = float(np.nextafter(s0, -math.inf))
            flat_bnd = bnd.ravel()
            keep = np.flatnonzero(~(bnd <= best) & valid)
            for c in range(0, len(keep), step):
                flat = keep[c:c + step]
                flat = flat[~(flat_bnd[flat] <= best)]
                if len(flat):
                    s, idx = score_at(B, cuts, i0, flat)
                    if s > best:
                        best, best_idx = s, (*prefix, *idx)
    return (None if best_idx is None else _ns(grid[list(best_idx)])), best


def _neg_overall_max(F, cuts, nodes) -> np.ndarray:
    return -F.max(axis=1)


def _neg_overall_max_bound(last, n):
    """Bound for ``_neg_overall_max``: minus the largest value of F at every
    ``_BOUND_STRIDE``-th t.  Those are floats of F itself, and the maximum
    over all t is at least their maximum."""
    # cols[j, k] = last[k, j * _BOUND_STRIDE], contiguous along k
    cols = np.ascontiguousarray(last[:, ::_BOUND_STRIDE].T)

    def chunk_bounds(B, cuts, i0):
        top = B[:, :1] + cols[0, i0:]
        tmp = np.empty_like(top)
        for j in range(1, len(cols)):
            np.add(B[:, j * _BOUND_STRIDE, None], cols[j, i0:], out=tmp)
            np.maximum(top, tmp, out=top)
        return np.negative(top, out=top)
    return chunk_bounds


def _lowest_segment_max(F, cuts, nodes) -> np.ndarray:
    """Smallest of the n + 1 segment maxima per row, the segments cut at
    ``cuts``, then at the block's nodes, and ending at 1.  Each segment
    includes its two cut points; fmin skips a NaN segment maximum."""
    s, m = F.shape
    flat = F.ravel()
    ends = np.column_stack([*(np.full(s, a) for a in cuts), *nodes])
    starts = (np.arange(s) * m)[:, None] + ends
    # half[:, j]: the largest F on [ends[j], ends[j + 1]), or at ends[j]
    # alone when the two are equal; the last runs to the end of the row
    half = np.maximum.reduceat(flat, starts.ravel()).reshape(s, -1)
    low = np.full(s, math.inf)
    for j in range(ends.shape[1] - 1):
        low = np.fmin(low, np.maximum(half[:, j], flat[starts[:, j + 1]]))
    return np.fmin(low, half[:, -1])


def _lowest_segment_max_bound(last, n):
    """Bound for ``_lowest_segment_max``: the fmin over three segments,
    [x_i, x_k], [x_k, 1] and (for n >= 2) [0, x_{i_0}], of the largest
    value of B on the segment plus the largest w K(t - x_k) on it.  For
    n = 1, x_i is 0.  A segment maximum is at most that sum; where it is
    NaN, its bound is NaN or +inf, so the fmin stays at or above the
    tuple's score."""
    m = len(last)
    pos = np.arange(m)
    lt = last.T  # lt[t, k] = w K(t - x_k)
    # span[i, k]: the largest lt[t, k] over i <= t <= k (-inf for i > k)
    span = np.where(pos[:, None] <= pos, lt, -math.inf)
    np.maximum.accumulate(span[::-1], axis=0, out=span[::-1])
    # head[i, k]: the largest lt[t, k] over t <= i
    head = np.maximum.accumulate(lt, axis=0)
    onward = last.max(axis=1, where=pos >= pos[:, None], initial=-math.inf)

    def chunk_bounds(B, cuts, i0):
        r = len(B)
        i = i0 + np.arange(r)
        tail = B[:, i0:]
        rising = np.maximum.accumulate(
            np.where(pos[i0:] >= i[:, None], tail, -math.inf), axis=1)
        falling = np.maximum.accumulate(tail[:, ::-1], axis=1)[:, ::-1]
        b = np.fmin(rising + span[i0:i0 + r, i0:], falling + onward[i0:])
        if len(cuts) > 1:  # x_{i_0} in the prefix
            a = cuts[1]
            b = np.fmin(b, B[:, :a + 1].max(axis=1)[:, None] + head[a, i0:])
        elif n > 1:  # x_{i_0} is x_i
            lead = B[:, :i[-1] + 1].max(axis=1, where=pos[:i[-1] + 1] <= i[:, None],
                                        initial=-math.inf)
            b = np.fmin(b, lead[:, None] + head[i0:i0 + r, i0:])
        return b
    return chunk_bounds


def brute_minimax(p: Problem, h: float) -> tuple[NodeSystem, ExtendedReal]:
    """Grid minimizer of the overall maximum; independent of the sup engine.

    Nodes and t range over one grid: step h, plus the field's piece ends and
    probes 1e-9 either side of each.  Among equal values the
    lexicographically first node tuple wins.  Tuples are searched in blocks,
    one per (n - 2)-prefix, with an incumbent seeded from the tuples with
    the largest bounds (see ``_oracle_search``).  A tuple is scored only
    when minus the largest value of F at every 16th t, a bound on its score,
    still beats the incumbent; the result is that of scoring all.  On the
    benchmark problems (n = 2 at h = 1/400, n = 3 at h = 1/64) it scores
    0.02-1% of the tuples.
    """
    x, best = _oracle_search(p, h, _neg_overall_max, _neg_overall_max_bound)
    return x, ExtendedReal.of(-best)


def brute_maximin(p: Problem, h: float) -> tuple[NodeSystem, ExtendedReal]:
    """Grid maximizer of the smallest interval maximum; independent of the
    sup engine.

    Same grids and tie-break as ``brute_minimax``.  An interval maximum is
    the largest grid value of F on the closed segment between neighbouring
    nodes (or 0 and 1).  When every tuple leaves some segment at -inf the
    result is the midpoint system with value -inf.  The search is that of
    ``brute_minimax``; a tuple is scored only when a bound on its score,
    built from the maxima of the shared sum and of the last translate on
    three of its segments, still beats the incumbent, and the result is
    that of scoring all.  On the benchmark problems it scores 0.1-16% of
    the tuples.
    """
    x, best = _oracle_search(p, h, _lowest_segment_max,
                             _lowest_segment_max_bound)
    if x is None:
        return _ns([0.5] * p.n), NEG_INF
    return x, ExtendedReal.of(best)


# ---------------------------------------------------------------------------
# equioscillation


def _residual(phi) -> float:
    """max |Phi| of a value of the difference map; inf for None (undefined)."""
    return math.inf if phi is None else float(np.max(np.abs(phi)))


def _ending_at(trace, x, res: float, value: float) -> tuple[TraceRecord, ...]:
    """trace, with one more record when its last one is not the reported
    point x with residual res and value ``value``."""
    end = TraceRecord(trace[-1].iteration if trace else 0, res, value, tuple(x))
    return tuple(trace) if trace and trace[-1][1:] == end[1:] else (*trace, end)


def _snap(p: Problem, x: np.ndarray, res: float, m: list[_RawSup] | None,
          maxima: Callable[[np.ndarray], list[_RawSup] | None]
          ) -> tuple[np.ndarray, float, list[_RawSup] | None]:
    """Move every node within 1e-6 of an interior field breakpoint onto the
    nearest one, all at once (so the system stays ordered), and keep the
    move only if the residual there, from one call of ``maxima`` (the
    ``_maxima`` there), is below res.  Returns the point kept with its
    residual and maxima; res and m are x's."""
    ends = np.array([t for t in p.field.piece_ends if 0.0 < t < 1.0] or [math.inf])
    near = ends[np.abs(x[:, None] - ends).argmin(axis=1)]
    close = np.abs(near - x) <= 1e-6
    if not close.any():
        return x, res, m
    xc = np.where(close, near, x)
    mc = maxima(xc)
    rc = _residual(None if mc is None else np.diff(_values(mc)))
    return (xc, rc, mc) if rc < res else (x, res, m)


def _solve_eq_1d(p: Problem) -> SolveReport:
    """The equioscillation point of n = 1: a root of Phi(x) = m_1(x) - m_0(x).

    Phi is scanned at 0, 1, 129 evenly spaced points and the interior field
    breakpoints in one ``interval_maxima_batch`` call, which gives the sign
    brackets and the best scan point.  That point is then rescored by the
    scalar engine, whose Phi and overall maximum are the ones reported: the
    batch engine's numpy power can differ from the scalar ``abs(t) ** -s``
    in the last bits, which would move a power-kernel report's value and
    residual.  Bisection in each bracket and the final ``_snap`` run on the
    scalar engine.  ``iterations`` counts Phi evaluations, scan rows
    included; the rescore repeats a scan row and is not counted.  The
    bracket comes from the scalar maxima at the reported point.
    """
    bps = [t for t in p.field.piece_ends if 0.0 < t < 1.0]
    # 0 and 1 too: a sign change within 1/256 of an end is missed otherwise
    scan = sorted({0.0, 1.0, *np.linspace(1.0 / 256, 1.0 - 1.0 / 256, 129).tolist(), *bps})
    evals = len(scan)

    def maxima1(v: float) -> list[_RawSup] | None:
        nonlocal evals
        evals += 1
        return _maxima(p, [v])

    def phi(m: list[_RawSup]) -> float:
        m0, m1 = _values(m)
        return m1 - m0

    rows = interval_maxima_batch(p, np.array(scan)[:, None]).values.tolist()
    defined = [(v, m1 - m0) for v, (m0, m1) in zip(scan, rows)
               if m0 != -math.inf and m1 != -math.inf]
    if not defined:
        return SolveReport(None, NEG_INF, math.inf, "infeasible", evals,
                           note="no scan point had finite interval maxima")

    best_x = min(defined, key=lambda c: (abs(c[1]), c[0]))[0]
    best_m = _maxima(p, [best_x])
    best_f = phi(best_m)
    trace = [TraceRecord(0, abs(best_f), max(_values(best_m)), (best_x,))]

    brackets = [(a, fa, b, fb) for (a, fa), (b, fb) in zip(defined, defined[1:])
                if fa == 0.0 or (fa > 0) != (fb > 0)]
    for a, fa, b, fb in brackets:
        if abs(best_f) == 0.0:
            break
        while b - a > _TOL_STEP:
            mid = 0.5 * (a + b)
            mm = maxima1(mid)
            if mm is None:
                break
            fm = phi(mm)
            if abs(fm) < abs(best_f) or (abs(fm) == abs(best_f) and mid < best_x):
                best_x, best_f, best_m = mid, fm, mm
            if fm == 0.0:
                break
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b, fb = mid, fm

    xs, residual, best_m = _snap(p, np.array([best_x]), abs(best_f), best_m,
                                 lambda xc: maxima1(float(xc[0])))
    best_x = float(xs[0])
    converged = residual <= _TOL_RESIDUAL
    note = "" if converged or brackets else (
        "none-found: the difference map never changes sign on the scan; "
        f"min |Phi| = {residual:.3g} at x = {best_x:.9g}")

    x = _ns([best_x])
    value = ExtendedReal.of(max(_values(best_m)))
    trace.append(TraceRecord(1, residual, value.as_float(), (best_x,)))
    status = "converged" if converged else "stalled"
    sols = (x,) if converged else ()
    return SolveReport(x, value, residual, status, evals, tuple(trace), sols, note,
                       converged_starts=sols, bracket=_bracket(best_m))


def _fd_jacobian(p: Problem, x: np.ndarray, phi: np.ndarray):
    """Finite-difference Jacobian of Phi; every step keeps x_j between its
    neighbours (or the sentinels), so the stepped system stays ordered.  A
    node pinned on both sides gets a zero column."""
    n = len(x)
    jac = np.zeros((n, n))
    s = (0.0, *x, 1.0)
    for j in range(n):
        room_fwd, room_back = s[j + 2] - x[j], x[j] - s[j]
        h = min(_FD_STEP * max(s[j + 2] - s[j], 1e-3), max(room_fwd, room_back))
        xp = x.copy()
        xp[j] = min(x[j] + h, s[j + 2]) if room_fwd >= h else max(x[j] - h, s[j])
        step = xp[j] - x[j]
        if step == 0.0:
            continue
        php = _phi(p, xp)
        if php is None:
            continue
        jac[:, j] = (php - phi) / step
    return jac


def _danskin_jacobian(p: Problem, x: np.ndarray, m: list[_RawSup]) -> np.ndarray | None:
    """Jacobian of Phi from the witnesses of the finite interval maxima m at x.

    By Danskin's theorem, when m_i is attained at t_i and t_i is not a node
    (the sentinels 0 and 1 are fixed, so a maximum there counts), then
    dm_i/dx_k = -w_k K'(t_i - x_k).  None when some maximum is not
    attained or its witness is on a node, or some K' there is not finite.
    """
    nodes = x.tolist()
    if any(not att or t in nodes for _, t, att, _ in m):
        return None
    grad = np.array([[-w * p.kernel.deriv(t - xk) for w, xk in zip(p.weights, nodes)]
                     for _, t, _, _ in m])
    return np.diff(grad, axis=0) if np.all(np.isfinite(grad)) else None


def _newton(p: Problem, x0: np.ndarray):
    """Levenberg-Marquardt on Phi from x0, repaired toward Y when it is
    outside.  Returns the point reached, its residual and ``_maxima``, the
    step count and the trace.  A candidate that clips back onto the current
    point is skipped: its residual is the current one, which it must beat."""
    x = x0.copy()
    m = _maxima(p, x)
    if m is None:
        x, m = _repair(p, x)
        if m is None:
            return x, math.inf, None, 0, []
    phi = np.diff(_values(m))
    res = _residual(phi)
    lam = 1e-10
    trace = [TraceRecord(0, res, max(_values(m)), tuple(x))]
    iters, done = 0, False
    while iters < _MAX_ITERS and not done:
        # once |Phi| <= _TOL_RESIDUAL, one more step, kept only if it lowers |Phi|
        done = res <= _TOL_RESIDUAL
        iters += 1
        jac = _danskin_jacobian(p, x, m)
        if jac is None:
            jac = _fd_jacobian(p, x, phi)
        a = jac.T @ jac + lam * np.eye(len(x))
        try:
            d = np.linalg.solve(a, -jac.T @ phi)
        except np.linalg.LinAlgError:
            lam *= 10
            continue
        for alpha in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
            xc = _clip(p, x + alpha * d)
            if xc.tobytes() == x.tobytes():
                continue
            xc, mc = _nudge(p, xc)
            if mc is None:
                continue
            phc = np.diff(_values(mc))
            rc = _residual(phc)
            if rc < res:
                step = float(np.max(np.abs(xc - x)))
                x, m, phi, res = xc, mc, phc, rc
                lam = max(lam / 3.0, 1e-12)
                trace.append(TraceRecord(iters, res, max(_values(mc)), tuple(x)))
                done = done or step < _TOL_STEP
                break
        else:  # no step size lowered |Phi|
            lam *= 10
            if lam > 1e8:
                break
    return x, res, m, iters, trace


def _even_start(p: Problem) -> np.ndarray:
    """The evenly spaced system (j + 1) / (n + 1) placed on J's finite part."""
    return np.array([_place(p.field, (j + 1.0) / (p.n + 1.0)) for j in range(p.n)])


def solve_equioscillation(p: Problem, o: SolveOptions = SolveOptions()) -> SolveReport:
    """Find a node system where all interval maxima coincide.

    For n >= 2 the starts, the even one and then random ones, run in order
    until one converges, at most ``multistarts``: under the paper's hypotheses
    the equioscillation point is unique.  On a usc field ``solutions`` holds
    the distinct converged points of the starts that ran and
    ``converged_starts`` the point of each converged start; the representative
    has the smallest residual, ties broken lexicographically.  Any other field
    J is solved through J* = ``usc_regularize(J)`` with the same options.  The
    report keeps J*'s points and takes its value and residual from J; it is
    ``converged`` only when J's residual is within ``_TOL_RESIDUAL``, and
    ``solutions`` and ``converged_starts`` keep only the points where it is.
    Either way the trace ends at the reported point, value and residual.
    """
    return _equioscillation(p, o)


def _equioscillation(p: Problem, o: SolveOptions, every: bool = False) -> SolveReport:
    """``solve_equioscillation``; with ``every``, all ``multistarts`` starts run."""
    usc = limsup_conditions(p.field).usc
    q = p if usc else replace(p, field=usc_regularize(p.field))
    rep = _solve_eq_1d(q) if p.n == 1 else _solve_eq_nd(q, o, every)
    if usc or rep.x is None:
        return rep

    # J's maxima at the representative, all n + 1 of them, once: its
    # residual, value and bracket
    m = list(map(_maxima_fn(p, rep.x.nodes), range(p.n + 1)))
    values = _values(m)
    res, note = _residual(None if -math.inf in values else np.diff(values)), ""
    # every point of ``solutions`` is one of ``converged_starts``
    starts = tuple(x for x in rep.converged_starts
                   if (res if x == rep.x else _residual(_phi(p, x.nodes))) <= _TOL_RESIDUAL)
    if res > _TOL_RESIDUAL:
        found = "equioscillates with M" if rep.status == "converged" else "stalls with value"
        note = (f"none-found: J is not usc; its usc regularization {found} = "
                f"{rep.value.as_float():.12g} at x = {rep.x.nodes}, where J's residual "
                f"is {res:.3g}")
    value = ExtendedReal.of(max(values))
    return replace(rep, value=value, residual=res,
                   trace=_ending_at(rep.trace, rep.x.nodes, res, value.as_float()),
                   status="converged" if res <= _TOL_RESIDUAL else "stalled", note=note,
                   solutions=tuple(x for x in rep.solutions if x in starts),
                   converged_starts=starts, bracket=_bracket(m))


def _solve_eq_nd(p: Problem, o: SolveOptions, every: bool) -> SolveReport:
    k = p.kernel
    etas = _CONTINUATION_ETAS if (k.monotone and not k.strictly_concave) else (0.0,)
    # the continuation stages: the kernel strictified by eta, then p itself
    stages = [replace(p, kernel=strictify(k, eta)) if eta > 0 else p for eta in etas]

    results = []
    total_iters = 0
    rng = random.Random(o.seed)
    # the random starts are drawn as they are reached
    for x in chain([_even_start(p)], (_draw(p, rng) for _ in range(o.multistarts - 1))):
        for pe in stages:  # the last stage is p, so m is p's maxima at x
            x, res, m, iters, trace = _newton(pe, x)
            total_iters += iters
        x, res, m = _snap(p, x, res, m, partial(_maxima, p))
        results.append((res, tuple(x), trace, m))
        if res <= _TOL_RESIDUAL and not every:
            break
    converged = tuple(_ns(xt) for res, xt, *_ in results if res <= _TOL_RESIDUAL)

    results.sort(key=lambda r: (r[0], r[1]))
    best_res, best_x, best_trace, best_m = results[0]
    if not math.isfinite(best_res):
        return SolveReport(None, NEG_INF, math.inf, "infeasible", total_iters,
                           note="no start produced finite interval maxima")

    sols: list[tuple[float, ...]] = []
    for res, xt, *_ in results:
        if res <= _TOL_RESIDUAL:
            if all(max(abs(a - b) for a, b in zip(xt, s)) > 1e-5 for s in sols):
                sols.append(xt)
    sols.sort()

    value = ExtendedReal.of(max(_values(best_m)))
    status = "converged" if best_res <= _TOL_RESIDUAL else "stalled"
    return SolveReport(_ns(best_x), value, best_res, status, total_iters,
                       _ending_at(best_trace, best_x, best_res, value.as_float()),
                       tuple(_ns(s) for s in sols), converged_starts=converged,
                       bracket=_bracket(best_m))


# ---------------------------------------------------------------------------
# pattern searches for minimax and maximin


def _futile_moves(m, fx: float, sign: float) -> frozenset[tuple[int, bool]]:
    """The polls (node j, rightward) that cannot beat fx from a system whose
    interval maxima are m, for a problem whose kernel is ``monotone``.

    Shifting x_j right raises F(x, .) on [0, x_j] and lowers it on
    [x_j + delta, 1], so it raises m_0 ... m_j (interval j also grows) and
    lowers m_{j+1} ... m_n (interval j + 1 shrinks); shifting it left does
    the reverse.  A poll that raises (minimax, sign < 0) or lowers (maximin,
    sign > 0) some m_i equal to fx leaves that m_i no better than fx.
    """
    tied = [i for i, v in enumerate(m) if v == fx]
    lo, hi = tied[0], tied[-1]
    # the maxima a rightward poll of node j can only worsen are m_{j+1} ...
    # m_n for maximin and m_0 ... m_j for minimax; a leftward poll the others
    return frozenset((j, right) for j in range(len(m) - 1) for right in (False, True)
                     if (hi > j if (sign > 0) == right else lo <= j))


def _pattern(p: Problem, x0: tuple[float, ...], sign: float, m0: Sequence[float]
             ) -> tuple[tuple[float, ...], float, float, int, list[TraceRecord]]:
    """Coordinate pattern search on the interval maxima from the sorted
    nodes x0, whose interval maxima are m0: sign=-1 minimizes their
    maximum, sign=+1 maximizes their minimum.  Returns the final nodes,
    value, step and sweep count, and the trace: the start and every
    accepted poll as ``TraceRecord(sweep, step, value, x)``.

    A candidate beats the incumbent value fx exactly when every m_j does
    (m_j < fx, or m_j > fx), so its interval maxima are computed one at a
    time, each in full, and the candidate is dropped at the first m_j that
    does not.  Each (node, direction) move first tries the interval that
    rejected its last candidate, initially the interval the move shrinks.
    A point seen before in this search is rejected unevaluated: fx only
    improves, so it cannot beat fx now.

    When the kernel is ``monotone``, a poll that ``_futile_moves`` names
    for the incumbent's maxima is rejected unevaluated too.  Full evaluation
    rejects it in exact arithmetic (the module docstring says why, and what
    rounding could do), so the results equal those of a search that
    evaluates every candidate in full.  The polls are tuples of floats, and
    the intervals of one candidate share one F evaluator.
    """
    n = len(x0)
    x = x0
    fx = _objective(m0, sign)
    prune = p.kernel.monotone
    futile = _futile_moves(m0, fx, sign) if prune else frozenset()
    seen = {x}
    lead: dict[tuple[int, bool], int] = {}
    step = 0.125
    iters = 0
    trace = [TraceRecord(0, step, fx, x)]
    while step >= _TOL_STEP and iters < _MAX_ITERS * 6:
        iters += 1
        improved = False
        for j in range(n):
            for delta in (step, -step):
                cj = x[j] + delta
                if not (0.0, *x)[j] <= cj <= (*x, 1.0)[j + 1]:  # stay sorted in [0, 1]
                    continue
                c = (*x[:j], cj, *x[j + 1:])
                if c in seen:
                    continue
                seen.add(c)
                move = (j, delta > 0)
                if move in futile:
                    continue
                first = lead.get(move, j + 1 if delta > 0 else j)
                maximum = _maxima_fn(p, c)
                m = [0.0] * (n + 1)
                for i in (first, *range(first), *range(first + 1, n + 1)):
                    m[i] = maximum(i)[0]
                    if not sign * m[i] > sign * fx:
                        lead[move] = i
                        break
                else:
                    x, fx = c, _objective(m, sign)
                    if prune:
                        futile = _futile_moves(m, fx, sign)
                    improved = True
                    trace.append(TraceRecord(iters, step, fx, x))
        if not improved:
            step *= 0.5
    return x, fx, step, iters, trace


def _search(p: Problem, eq: SolveReport, sign: float,
            starts: list[tuple[np.ndarray, list[_RawSup] | None]]) -> SolveReport:
    """The pattern search of ``_pattern`` (sign as there) from every start
    whose objective is finite.  A start is a point with its ``_maxima``, or
    None where they are not known: then they are computed here, since some
    m_j = -inf leaves the largest one finite.  The best value wins, ties
    going to the lexicographically first node system; its final step is the
    residual, its trace ends at the reported point, and the iterations add
    up over eq and every search."""
    best = None
    iters = eq.iterations
    for x0, rows in starts:
        start = _ns(x0)
        m = interval_maxima(p, start).floats() if rows is None else _values(rows)
        if not math.isfinite(_objective(m, sign)):
            continue
        x, fx, step, it, trace = _pattern(p, start.nodes, sign, m)
        iters += it
        if best is None or (-sign * fx, x) < (-sign * best[0], best[1]):
            best = (fx, x, step, trace)
    if best is None:
        return SolveReport(None, NEG_INF, math.inf, "infeasible", iters,
                           note="no feasible start: every start leaves some "
                                "interval at -inf")
    value, xt, step, trace = best
    status = "converged" if step < _TOL_STEP else "stalled"
    return SolveReport(_ns(xt), ExtendedReal.of(value), step, status, iters,
                       _ending_at(trace, xt, step, value), eq.solutions)


def _certified(eq: SolveReport, sign: float) -> SolveReport | None:
    """The report at eq's point when Theorem 1.3's bracket ``eq.bracket``,
    (lo, hi) = (min_j m_j, max_j (m_j + err_j)) there, closes, or None when
    it is open: eq has no point, or the point leaves some interval at -inf,
    or hi - lo exceeds ``_TOL_CERTIFY``.  The value is the largest interval
    maximum, eq's value, for sign < 0 (minimax) and the smallest, lo, for
    sign > 0 (maximin).  It makes no sup-engine call."""
    if eq.bracket is None:
        return None
    lo, hi = eq.bracket
    if not (math.isfinite(lo) and math.isfinite(hi) and hi - lo <= _TOL_CERTIFY):
        return None
    value = eq.value.as_float() if sign < 0 else lo
    return SolveReport(eq.x, ExtendedReal.of(value), hi - lo, "converged", eq.iterations,
                       _ending_at((), eq.x.nodes, hi - lo, value), eq.solutions,
                       note=f"certified by Theorem 1.3: M in [{lo!r}, {hi!r}]")


def solve_minimax(p: Problem, o: SolveOptions = SolveOptions(),
                  eq: SolveReport | None = None) -> SolveReport:
    """Minimize the overall maximum over node systems.

    ``eq`` is ``solve_equioscillation(p, o)`` when the caller already has
    it.  Theorem 1.3 holds for a kernel concave on (-1, 0) and on (0, 1),
    any upper-bounded field J finite at more than n points (0 and 1 counting
    half) and positive weights, all of which a valid ``Problem`` has; J need
    not be usc.  It says that the minimax, the infimum over all node systems
    of max_j m_j, equals the maximin, the supremum over the regular set Y of
    min_j m_j: call the common value M.  So at any system w in Y, min_j
    m_j(w) <= M <= max_j m_j(w).  The engine's m_j is an F value on the
    interval and the supremum lies in [m_j, m_j + err_j] (up to the
    rounding of the (n + 1)-term sum, which ``sumtrans`` describes), so lo =
    min_j m_j <= M <= hi = max_j (m_j + err_j) at w = eq's point.  When
    both are finite and hi - lo <= ``_TOL_CERTIFY`` this returns that point
    with its value max_j m_j, ``converged``, residual hi - lo and a note
    "certified by Theorem 1.3: M in [lo, hi]", and makes no search: lo and
    hi are read from ``eq.bracket``, the value is ``eq.value``, and no
    interval maximum is computed.  Otherwise it runs ``_minimax_search``.
    """
    if eq is None:
        eq = solve_equioscillation(p, o)
    return _certified(eq, -1.0) or _minimax_search(p, o, eq)


def solve_maximin(p: Problem, o: SolveOptions = SolveOptions(),
                  eq: SolveReport | None = None) -> SolveReport:
    """Maximize the smallest interval maximum over the regular set Y.

    ``eq`` as in ``solve_minimax``.  By Theorem 1.3, under the hypotheses
    stated there, lo = min_j m_j <= M <= hi = max_j (m_j + err_j) at eq's
    point, read from ``eq.bracket``.  When it closes, this returns eq's point
    with its value min_j m_j = lo, ``converged``, residual hi - lo and the
    note "certified by Theorem 1.3: M in [lo, hi]", and makes no search and
    no sup-engine call.  Otherwise it runs ``_maximin_search``.
    """
    if eq is None:
        eq = solve_equioscillation(p, o)
    return _certified(eq, +1.0) or _maximin_search(p, o, eq)


def _minimax_search(p: Problem, o: SolveOptions, eq: SolveReport) -> SolveReport:
    """The minimax pattern search, whatever the bracket: from eq's point and
    from the evenly spaced system, returning whichever achieves the smaller
    value.  It reads nothing of ``o``; it takes the arguments of
    ``_maximin_search``.  The checks call it so that they test Theorem 1.3
    and not the bracket."""
    starts = [] if eq.x is None else [(np.array(eq.x.nodes), None)]
    return _search(p, eq, -1.0, [*starts, (_even_start(p), None)])


def _maximin_search(p: Problem, o: SolveOptions, eq: SolveReport) -> SolveReport:
    """The maximin pattern search, whatever the bracket: from eq's point,
    repaired toward Y (for a J that is not usc, J*'s point can lie outside
    it), and from three random systems placed on J's finite part, drawn
    from ``o.seed + 1``.  The checks call it as they call
    ``_minimax_search``."""
    rng = random.Random(o.seed + 1)
    starts = [] if eq.x is None else [_repair(p, eq.x.nodes)]
    return _search(p, eq, +1.0, [*starts, *((_draw(p, rng), None) for _ in range(3))])
