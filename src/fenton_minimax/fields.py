"""Fields: upper-bounded functions J : [0,1] -> R ∪ {-inf}.

A field is piecewise: a list of (interval, formula) pieces with pairwise
disjoint point sets; everywhere not covered by a piece the field is -inf.
This keeps suprema, one-sided limits, regularization and counting exact.
One table per field, ``Field.piece_table``, says which piece holds each
breakpoint and each open gap between neighbouring breakpoints, and so where
J is finite: ``Field.finite_parts`` lists those slots, which
``n_field_check`` counts and the solvers clamp their starts into.

``usc_regularize`` returns the least upper semicontinuous majorant J*, which
differs from J at most at piece boundary points.  ``monotone_usc_approximation``
builds the k-Lipschitz upper envelope sup_s (J*(s) - k|t-s|), a continuous
function (returned as a plain evaluator, not a field) that decreases
pointwise to J* as k grows.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .core import Interval
from .formulas import Constant, Formula, LogWeight

__all__ = [
    "FieldPiece",
    "Field",
    "usc_regularize",
    "FieldCount",
    "n_field_check",
    "LimsupConditions",
    "limsup_conditions",
    "monotone_usc_approximation",
]


@dataclass(frozen=True)
class FieldPiece:
    interval: Interval
    formula: Formula

    def __post_init__(self) -> None:
        if isinstance(self.formula, LogWeight):
            wmin, _ = self.formula.w.inf_on(self.interval.a, self.interval.b)
            if wmin <= 0:
                raise ValueError("log-weight piece needs a positive weight on its closure")


@dataclass(frozen=True)
class Field:
    """Piecewise field on [0, 1]: -inf off its pieces.  Every lookup of the
    piece holding t reads one table, ``piece_table``, built once per field."""

    pieces: tuple[FieldPiece, ...] = ()
    upper_bound: float = dc_field(init=False, compare=False, default=0.0)

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("a field needs at least one piece (J = -inf everywhere is not a field)")
        for p in self.pieces:
            if p.interval.a < 0.0 or p.interval.b > 1.0:
                raise ValueError(f"piece {p.interval} sticks out of [0, 1]")
        ordered = tuple(sorted(self.pieces, key=lambda p: (p.interval.a, p.interval.b)))
        for prev, nxt in zip(ordered, ordered[1:]):
            pi, ni = prev.interval, nxt.interval
            if ni.a < pi.b:
                raise ValueError(f"pieces overlap near t={ni.a}")
            if ni.a == pi.b and pi.closed_right and ni.closed_left:
                raise ValueError(f"two pieces both contain t={ni.a}")
        object.__setattr__(self, "pieces", ordered)
        ub = max(p.formula.sup_on(p.interval.a, p.interval.b)[0] for p in ordered)
        object.__setattr__(self, "upper_bound", ub)

    @cached_property
    def piece_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(ends, slots): ``ends`` are the breakpoints (piece ends, 0 and 1)
        and ``slots[lo + hi]``, with lo and hi the left and right bisection
        points of t in ``ends``, indexes the piece holding t in ``pieces``,
        -1 for none (J = -inf).  Slot 2k + 1 is ends[k], slot 2k + 2 the open
        gap after it, which a piece covers wholly or not at all; the first and
        last slots lie outside [0, 1]."""
        ends = sorted({0.0, 1.0, *self.piece_ends})
        ivs = [p.interval for p in self.pieces]

        def holder(holds) -> int:
            return next((k for k, iv in enumerate(ivs) if holds(iv)), -1)

        slots = [-1]
        for u, v in zip(ends, ends[1:]):
            slots += [holder(lambda iv: iv.contains(u)),
                      holder(lambda iv: iv.a <= u and v <= iv.b)]
        slots += [holder(lambda iv: iv.contains(1.0)), -1]
        return np.array(ends), np.array(slots)

    @cached_property
    def _scalar_table(self) -> tuple[tuple[float, ...], tuple[FieldPiece | None, ...]]:
        """``piece_table`` for bisection: its ends, and its slots as pieces."""
        ends, slots = self.piece_table
        return (tuple(ends.tolist()),
                tuple(None if k < 0 else self.pieces[k] for k in slots.tolist()))

    def piece_at(self, t: float) -> FieldPiece | None:
        """The piece holding t; None where J = -inf, outside [0, 1] and at NaN."""
        if not 0.0 <= t <= 1.0:
            return None
        ends, pieces = self._scalar_table
        return pieces[bisect_left(ends, t) + bisect_right(ends, t)]

    def eval_float(self, t: float) -> float:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"field argument {t} outside [0, 1]")
        p = self.piece_at(t)
        return p.formula.value(t) if p is not None else -math.inf

    def piece_index(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized ``piece_at``: the index into ``pieces`` of the piece
        holding each t, or -1 where none does."""
        ends, slots = self.piece_table
        return slots[ends.searchsorted(ts, "left") + ends.searchsorted(ts, "right")]

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.full(ts.shape, -np.inf)
        idx = self.piece_index(ts)
        for k, p in enumerate(self.pieces):
            mask = idx == k
            if mask.any():
                out[mask] = p.formula.values(ts[mask])
        return out

    @cached_property
    def finite_parts(self) -> tuple[tuple[float, float], ...]:
        """Where J is finite: the closures (a, b) of the table slots a piece
        holds, in order; a == b for a breakpoint, a < b for a gap."""
        ends, pieces = self._scalar_table
        return tuple((ends[(s - 1) // 2], ends[s // 2])
                     for s in range(1, len(pieces) - 1) if pieces[s] is not None)

    @cached_property
    def piece_ends(self) -> tuple[float, ...]:
        """The pieces' endpoints, sorted and distinct."""
        return tuple(sorted({e for p in self.pieces for e in (p.interval.a, p.interval.b)}))

    def breakpoints(self) -> tuple[float, ...]:
        """Piece endpoints plus the domain ends, sorted and unique (the table's)."""
        return self._scalar_table[0]


# ---------------------------------------------------------------------------
# structural operations


def _side_pieces(J: Field) -> list[tuple[float, FieldPiece | None, FieldPiece | None]]:
    """(t, left, right) per breakpoint t of J: the pieces covering (t - d, t)
    and (t, t + d) for small d, None where J is -inf there: the gap slots
    either side of t's slot in the piece table."""
    ends, pieces = J._scalar_table
    return [(t, pieces[2 * k], pieces[2 * k + 2]) for k, t in enumerate(ends)]


def usc_regularize(J: Field) -> Field:
    """The least usc majorant J*, as a new canonical piecewise field.

    On open cells between piece endpoints J* = J; at each boundary point the
    value becomes the max of J and the one-sided limits of the neighbouring
    pieces.  Applying this twice gives the same field back.
    """
    sides = _side_pieces(J)
    # the open cell i runs from breakpoint i to breakpoint i + 1
    open_pieces = {i: [t, sides[i + 1][0], False, False, right.formula]
                   for i, (t, _, right) in enumerate(sides) if right is not None}

    points: list[tuple[float, float]] = []
    for i, (t, left, right) in enumerate(sides):
        vals = [J.eval_float(t)]
        if left is not None:
            vals.append(left.formula.value(t))
        if right is not None:
            vals.append(right.formula.value(t))
        vstar = max(vals)
        if vstar == -math.inf:
            continue
        if left is not None and left.formula.value(t) == vstar:
            open_pieces[i - 1][3] = True
        elif right is not None and right.formula.value(t) == vstar:
            open_pieces[i][2] = True
        else:
            points.append((t, vstar))

    pieces = [FieldPiece(Interval(a, b, cl, cr), f)
              for a, b, cl, cr, f in open_pieces.values()]
    pieces += [FieldPiece(Interval(t, t), Constant(v)) for t, v in points]
    pieces.sort(key=lambda p: (p.interval.a, p.interval.b))

    merged: list[FieldPiece] = []
    for p in pieces:
        if merged:
            q = merged[-1]
            touch = (q.interval.b == p.interval.a
                     and (q.interval.closed_right or p.interval.closed_left)
                     and q.formula == p.formula)
            if touch:
                merged[-1] = FieldPiece(
                    Interval(q.interval.a, p.interval.b,
                             q.interval.closed_left, p.interval.closed_right),
                    q.formula)
                continue
        merged.append(p)
    return Field(tuple(merged))


class FieldCount(NamedTuple):
    valid: bool
    weighted_count: float


def n_field_check(J: Field, n: int) -> FieldCount:
    """Count the points where J is finite (``Field.finite_parts``), 0 and 1
    with weight 1/2.

    Any nondegenerate interval of finite values makes the count infinite.
    The field qualifies for n nodes iff the count exceeds n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if any(a < b for a, b in J.finite_parts):
        return FieldCount(True, math.inf)
    count = sum(0.5 if a in (0.0, 1.0) else 1.0 for a, _ in J.finite_parts)
    return FieldCount(count > n, count)


@dataclass(frozen=True)
class LimsupConditions:
    two_sided: bool
    weak: bool
    full: bool
    usc: bool


def limsup_conditions(J: Field) -> LimsupConditions:
    """Decide the one-sided limsup inequalities exactly from the pieces.

    two_sided: at every t both one-sided limsups reach J(t) (only the inward
    side at 0 and 1).  weak: the larger of the two reaches J(t).  full: weak
    together with upper semicontinuity.
    """
    two_sided = weak = usc = True
    for t, lp, rp in _side_pieces(J):
        val = J.eval_float(t)
        left = lp.formula.value(t) if lp is not None else -math.inf
        right = rp.formula.value(t) if rp is not None else -math.inf
        avail = []
        if t > 0.0:
            avail.append(left)
            if left < val:
                two_sided = False
        if t < 1.0:
            avail.append(right)
            if right < val:
                two_sided = False
        best = max(avail) if avail else -math.inf
        if best < val:
            weak = False
        if val < best:
            usc = False
    return LimsupConditions(two_sided, weak, weak and usc, usc)


# ---------------------------------------------------------------------------
# Lipschitz upper envelopes


def monotone_usc_approximation(J: Field, k: float) -> Callable[[float], float]:
    """The k-Lipschitz envelope t -> sup_s (J*(s) - k|t - s|).

    Returned as an evaluator on [0, 1] (a ValueError outside it), computed
    in closed form from the piece structure.  It majorizes J*, decreases
    pointwise as k grows, and converges to J* at continuity points.
    """
    if k <= 0:
        raise ValueError("the Lipschitz constant k must be positive")
    spans = [(p.interval.a, p.interval.b, p.formula) for p in J.pieces]

    def envelope(t: float) -> float:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"envelope argument {t} outside [0, 1]")
        best = -math.inf
        for a, b, f in spans:
            if t <= a:
                v = f.sup_on(a, b, -k)[0] + k * t
            elif t >= b:
                v = f.sup_on(a, b, k)[0] - k * t
            else:
                v = max(f.sup_on(a, t, k)[0] - k * t,
                        f.sup_on(t, b, -k)[0] + k * t)
            if v > best:
                best = v
        return best

    return envelope
