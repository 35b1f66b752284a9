"""Fields: upper-bounded functions J : [0,1] -> R ∪ {-inf}.

The canonical representation is piecewise: a list of (interval, formula)
pieces with pairwise disjoint point sets; everywhere not covered by a piece
the field is -inf.  This keeps suprema, one-sided limits, regularization and
counting exact.  A callable representation is also accepted for function
values only; the structural operations refuse it.

``usc_regularize`` returns the least upper semicontinuous majorant J*, which
differs from J at most at piece boundary points.  ``monotone_usc_approximation``
builds the k-Lipschitz upper envelope sup_s (J*(s) - k|t-s|), a continuous
function that decreases pointwise to J* as k grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .core import ExtendedReal, Interval, NEG_INF
from .formulas import Affine, Constant, Formula, LogWeight, Quadratic

__all__ = [
    "UnsupportedFieldError",
    "FieldPiece",
    "Field",
    "RealSubset",
    "field_eval",
    "usc_regularize",
    "FieldCount",
    "n_field_check",
    "finiteness_domain",
    "LimsupConditions",
    "limsup_conditions",
    "monotone_usc_approximation",
]


class UnsupportedFieldError(ValueError):
    """Raised when a structural operation meets a callable-backed field."""


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
    """Piecewise (or callable) field on [0, 1]."""

    pieces: tuple[FieldPiece, ...] = ()
    fn: Callable[[float], float] | None = None
    declared_upper_bound: float | None = None
    upper_bound: float = dc_field(init=False, compare=False, default=0.0)

    def __post_init__(self) -> None:
        if self.fn is not None:
            if self.pieces:
                raise ValueError("a field is either piecewise or callable, not both")
            if self.declared_upper_bound is None or not math.isfinite(self.declared_upper_bound):
                raise ValueError("callable fields must declare a finite upper bound")
            object.__setattr__(self, "upper_bound", float(self.declared_upper_bound))
            return
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

    @property
    def representation(self) -> str:
        return "callable" if self.fn is not None else "piecewise"

    @property
    def is_piecewise(self) -> bool:
        return self.fn is None

    def piece_at(self, t: float) -> FieldPiece | None:
        for p in self.pieces:
            if p.interval.contains(t):
                return p
            if p.interval.a > t:
                break
        return None

    def eval_float(self, t: float) -> float:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"field argument {t} outside [0, 1]")
        if self.fn is not None:
            v = float(self.fn(t))
            if math.isnan(v) or v == math.inf:
                raise ValueError(f"callable field produced {v} at t={t}")
            return v
        p = self.piece_at(t)
        return p.formula.value(t) if p is not None else -math.inf

    def piece_index(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized ``piece_at``: the index into ``pieces`` of the piece
        holding each t, or -1 where none does."""
        out = np.full(ts.shape, -1)
        for k, p in enumerate(self.pieces):
            iv = p.interval
            lo = (ts >= iv.a) if iv.closed_left else (ts > iv.a)
            hi = (ts <= iv.b) if iv.closed_right else (ts < iv.b)
            out[lo & hi] = k
        return out

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if self.fn is not None:
            return np.array([self.eval_float(float(t)) for t in ts])
        out = np.full(ts.shape, -np.inf)
        idx = self.piece_index(ts)
        for k, p in enumerate(self.pieces):
            mask = idx == k
            if mask.any():
                out[mask] = p.formula.values(ts[mask])
        return out

    @cached_property
    def _finite_set(self) -> "RealSubset":
        return RealSubset.from_parts([p.interval for p in self.pieces])

    def breakpoints(self) -> tuple[float, ...]:
        """Piece endpoints plus the domain ends, sorted and unique."""
        pts = {0.0, 1.0}
        for p in self.pieces:
            pts.add(p.interval.a)
            pts.add(p.interval.b)
        return tuple(sorted(pts))


def field_eval(J: Field, t: float) -> ExtendedReal:
    """J(t) as an extended real; errors outside [0, 1]."""
    return ExtendedReal.of(J.eval_float(t))


# ---------------------------------------------------------------------------
# subsets of [0, 1] described exactly


@dataclass(frozen=True)
class RealSubset:
    """A finite union of intervals and isolated points, kept in normal form."""

    intervals: tuple[Interval, ...] = ()
    points: tuple[float, ...] = ()

    @classmethod
    def from_parts(cls, parts) -> "RealSubset":
        segs = sorted(
            ((p.a, p.b, p.closed_left, p.closed_right) for p in parts),
            key=lambda s: (s[0], not s[2], s[1]),
        )
        merged: list[list] = []
        for a, b, cl, cr in segs:
            if merged:
                ma, mb, mcl, mcr = merged[-1]
                touching = a < mb or (a == mb and (mcr or cl))
                if a == ma:
                    mcl = mcl or cl
                    merged[-1][2] = mcl
                if touching:
                    if b > mb:
                        merged[-1][1], merged[-1][3] = b, cr
                    elif b == mb:
                        merged[-1][3] = mcr or cr
                    continue
            merged.append([a, b, cl, cr])
        ivs, pts = [], []
        for a, b, cl, cr in merged:
            if a == b:
                pts.append(a)
            else:
                ivs.append(Interval(a, b, cl, cr))
        return cls(tuple(ivs), tuple(pts))

    def parts(self) -> tuple[Interval, ...]:
        return self._parts

    @cached_property
    def _parts(self) -> tuple[Interval, ...]:
        degen = tuple(Interval(p, p) for p in self.points)
        return tuple(sorted(self.intervals + degen, key=lambda i: (i.a, i.b)))

    @property
    def is_empty(self) -> bool:
        return not self.intervals and not self.points

    @property
    def has_interior(self) -> bool:
        return bool(self.intervals)

    def contains(self, t: float) -> bool:
        return any(p.contains(t) for p in self.parts())

    def intersect(self, q: Interval) -> "RealSubset":
        out = []
        for p in self.parts():
            s = p.intersect(q)
            if s is not None:
                out.append(s)
        return RealSubset.from_parts(out)

    def union(self, other: "RealSubset") -> "RealSubset":
        return RealSubset.from_parts(self.parts() + other.parts())

    def with_points(self, pts) -> "RealSubset":
        extra = tuple(Interval(p, p) for p in pts)
        return RealSubset.from_parts(self.parts() + extra)

    def complement_in_unit(self) -> "RealSubset":
        """The complement within [0, 1]."""
        return self._complement

    @cached_property
    def _complement(self) -> "RealSubset":
        out = []
        cursor, cursor_in = 0.0, True
        for p in self.parts():
            s = p.intersect(Interval(0.0, 1.0))
            if s is None:
                continue
            gap = cursor < s.a or (cursor == s.a and cursor_in and not s.closed_left)
            if gap:
                out.append(Interval(cursor, s.a, cursor_in, not s.closed_left))
            cursor, cursor_in = s.b, not s.closed_right
        if cursor < 1.0 or (cursor == 1.0 and cursor_in):
            out.append(Interval(cursor, 1.0, cursor_in, True))
        return RealSubset.from_parts(out)

    def covered_by_points(self, allowed: tuple[float, ...]) -> bool:
        """True when this set is contained in the given finite point set."""
        if self.intervals:
            return False
        return all(p in allowed for p in self.points)


# ---------------------------------------------------------------------------
# structural operations


def _require_piecewise(J: Field, op: str) -> None:
    if not J.is_piecewise:
        raise UnsupportedFieldError(f"{op} needs a piecewise field")


def _covers_left(J: Field, t: float) -> FieldPiece | None:
    """The piece covering (t - delta, t) for small delta, if any."""
    for p in J.pieces:
        iv = p.interval
        if iv.a < t <= iv.b:
            return p
    return None


def _covers_right(J: Field, t: float) -> FieldPiece | None:
    for p in J.pieces:
        iv = p.interval
        if iv.a <= t < iv.b:
            return p
    return None


def usc_regularize(J: Field) -> Field:
    """The least usc majorant J*, as a new canonical piecewise field.

    On open cells between piece endpoints J* = J; at each boundary point the
    value becomes the max of J and the one-sided limits of the neighbouring
    pieces.  Applying this twice gives the same field back.
    """
    _require_piecewise(J, "usc_regularize")
    bps = J.breakpoints()

    open_pieces: dict[int, list] = {}
    cells = []
    for i, (u, v) in enumerate(zip(bps, bps[1:])):
        cover = J.piece_at(0.5 * (u + v)) if v > u else None
        cells.append(cover)
        if cover is not None:
            open_pieces[i] = [u, v, False, False, cover.formula]

    points: list[tuple[float, float]] = []
    for i, t in enumerate(bps):
        left = cells[i - 1] if i > 0 else None
        right = cells[i] if i < len(cells) else None
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
    """Count the finiteness domain with endpoint weight 1/2.

    Any nondegenerate interval of finite values makes the count infinite.
    The field qualifies for n nodes iff the count exceeds n.
    """
    _require_piecewise(J, "n_field_check")
    if n < 1:
        raise ValueError("n must be at least 1")
    dom = finiteness_domain(J)
    if dom.has_interior:
        return FieldCount(True, math.inf)
    count = sum(0.5 if p in (0.0, 1.0) else 1.0 for p in dom.points)
    return FieldCount(count > n, count)


def finiteness_domain(J: Field) -> RealSubset:
    """The set where J is finite, as intervals plus isolated points.

    Built once per field; the set and its complement are immutable."""
    _require_piecewise(J, "finiteness_domain")
    return J._finite_set


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
    _require_piecewise(J, "limsup_conditions")
    two_sided = weak = usc = True
    for t in J.breakpoints():
        val = J.eval_float(t)
        lp, rp = _covers_left(J, t), _covers_right(J, t)
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


def _sup_affine_shift(f: Formula, a: float, b: float, slope: float) -> float:
    """Exact max of f(s) + slope*s over [a, b]."""
    if isinstance(f, Constant):
        return f.c + slope * (b if slope > 0 else a)
    if isinstance(f, Affine):
        total = f.alpha + slope
        s = b if total > 0 else a
        return f.value(s) + slope * s
    if isinstance(f, Quadratic):
        if f.a == 0:
            total = f.b + slope
            s = b if total > 0 else a
        else:
            s = min(max(-(f.b + slope) / (2.0 * f.a), a), b)
        return f.value(s) + slope * s
    if isinstance(f, LogWeight):
        cands = [a, b]
        w = f.w
        if isinstance(w, Affine) and slope != 0.0 and w.alpha != 0.0:
            cands.append(-(w.alpha + slope * w.beta) / (slope * w.alpha))
        elif isinstance(w, Quadratic):
            qa = slope * w.a
            qb = 2.0 * w.a + slope * w.b
            qc = w.b + slope * w.c
            if qa == 0.0:
                if qb != 0.0:
                    cands.append(-qc / qb)
            else:
                disc = qb * qb - 4.0 * qa * qc
                if disc >= 0:
                    r = math.sqrt(disc)
                    cands.extend([(-qb - r) / (2 * qa), (-qb + r) / (2 * qa)])
        best = -math.inf
        for s in cands:
            if a <= s <= b and w.value(s) > 0:
                best = max(best, f.value(s) + slope * s)
        return best
    raise TypeError(f"unknown formula {f!r}")


def monotone_usc_approximation(J: Field, k: float) -> Field:
    """The k-Lipschitz envelope t -> sup_s (J*(s) - k|t - s|).

    Returned as a callable-backed field evaluated in closed form from the
    piece structure.  It majorizes J*, decreases pointwise as k grows, and
    converges to J* at continuity points.
    """
    _require_piecewise(J, "monotone_usc_approximation")
    if k <= 0:
        raise ValueError("the Lipschitz constant k must be positive")
    spans = [(p.interval.a, p.interval.b, p.formula) for p in J.pieces]
    ub = J.upper_bound

    def envelope(t: float) -> float:
        best = -math.inf
        for a, b, f in spans:
            if t <= a:
                v = _sup_affine_shift(f, a, b, -k) + k * t
            elif t >= b:
                v = _sup_affine_shift(f, a, b, k) - k * t
            else:
                v = max(_sup_affine_shift(f, a, t, k) - k * t,
                        _sup_affine_shift(f, t, b, -k) + k * t)
            if v > best:
                best = v
        return best

    return Field(fn=envelope, declared_upper_bound=ub)
