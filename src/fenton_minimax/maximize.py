"""Derivative-certified maximization of a concave function on a closed interval.

The function to maximize returns ``(value, derivative)``.  The derivative may
be any one-sided derivative (a concave function lies below its tangent line
with either slope), and NaN where it is unknown, such as at a cell end that
sits on a kernel node.  Tangent lines give the upper bounds behind ``err``.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

__all__ = ["concave_max", "MaxResult"]

# rounding allowance, in ulps of the value, added to the tangent gap
_ULPS = 4
# probe budget: bisection alone reaches adjacent floats well within it
_MAX_PROBES = 100


class MaxResult(NamedTuple):
    value: float
    argmax: float
    err: float
    interior: bool


def concave_max(g: Callable[[float], tuple[float, float]], a: float, b: float) -> MaxResult:
    """Maximize a concave g over [a, b]; g(t) returns (value, derivative).

    The one-sided derivatives at the ends are tested first: g'(a+) <= 0 puts
    the maximum at a, and g'(b-) >= 0 puts it at b, each exactly evaluated
    with err 0.  Otherwise secant steps on g', safeguarded by bisection,
    shrink a bracket [lo, hi] with g'(lo) > 0 > g'(hi), where an end whose
    derivative is unknown stays at the cell end.  The tangent lines at the
    bracket ends bound g from above: both together meet at one point, and a
    single one is taken up to the far cell end.  ``err`` is the gap from the
    best value found up to that bound, plus a few ulps of the value, so the
    maximum lies in [value, value + err].  Ties go to the exact ends and then
    to the smaller abscissa, which keeps results deterministic.
    """
    if b < a:
        raise ValueError("empty interval")
    fa, da = g(a)
    if not a < b or da <= 0.0:
        return MaxResult(fa, a, 0.0, False)
    fb, db = g(b)
    end_v, end_t = (fb, b) if fb > fa else (fa, a)
    if db >= 0.0:
        return MaxResult(end_v, end_t, 0.0, False)

    lo, flo, dlo = a, fa, da
    hi, fhi, dhi = b, fb, db
    best_v, best_t = -math.inf, a  # best interior probe
    known = [(t, d) for t, d in ((a, da), (b, db)) if math.isfinite(d)]
    gap = prev_gap = math.inf
    for _ in range(_MAX_PROBES):
        t = 0.5 * (lo + hi)
        if len(known) >= 2 and gap <= 0.5 * prev_gap:
            (t0, d0), (t1, d1) = known[-2:]
            if d0 != d1:
                ts = t1 - d1 * (t1 - t0) / (d1 - d0)
                if lo < ts < hi:
                    t = ts
        if not lo < t < hi:  # lo and hi are adjacent floats, both evaluated
            gap = 0.0
            break
        ft, dt = g(t)
        known.append((t, dt))
        if ft > best_v or (ft == best_v and t < best_t):
            best_v, best_t = ft, t
        prev_gap = gap
        if dt > 0.0:
            lo, flo, dlo = t, ft, dt
        elif dt < 0.0:
            hi, fhi, dhi = t, ft, dt
        elif dt == 0.0:  # t is a maximizer
            gap = 0.0
            break
        else:  # derivative terms overflowed with opposite signs: no bound
            gap = math.inf
            break
        if not math.isfinite(dhi):
            bound = flo + dlo * (hi - lo)
        elif not math.isfinite(dlo):
            bound = fhi - dhi * (hi - lo)
        else:
            tx = min(max((fhi - flo + dlo * lo - dhi * hi) / (dlo - dhi), lo), hi)
            bound = flo + dlo * (tx - lo)
        top = max(best_v, end_v)
        gap = bound - top
        if gap != gap:  # the tangents overflowed
            gap = math.inf
        if gap <= _ULPS * math.ulp(max(abs(top), 1.0)):
            break

    if end_v >= best_v:
        value, where, interior = end_v, end_t, False
    else:
        value, where, interior = best_v, best_t, True
    # probes next to the maximizer may round a few ulps above every probe made
    err = max(gap, 0.0) + _ULPS * math.ulp(value) if value > -math.inf else 0.0
    return MaxResult(value, where, err, interior)
