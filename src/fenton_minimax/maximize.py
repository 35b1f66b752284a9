"""Derivative-certified maximization of a concave function on a closed interval.

The function to maximize returns ``(value, derivative)``.  The derivative may
be any one-sided derivative (a concave function lies below its tangent line
with either slope), and NaN where it is unknown, such as at a cell end that
sits on a kernel node.  Tangent lines give the upper bounds behind ``err``.

``concave_max`` maximizes one function; ``concave_max_many`` is its array
twin, which maximizes many independent cells in lockstep with the same steps.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["concave_max", "concave_max_many", "MaxResult"]

# rounding allowance, in ulps of the value, added to the tangent gap
_ULPS = 4
# probe budget: bisection alone reaches adjacent floats well within it
_MAX_PROBES = 100


class MaxResult(NamedTuple):
    """One cell's result, or, from ``concave_max_many``, arrays over cells."""

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
    # the secant's points (t0, d0), (t1, d1): the last two of the ends with a
    # finite slope, then every probe; ``known`` counts them all
    b_ok = math.isfinite(db)
    known = math.isfinite(da) + b_ok
    t0, d0 = a, da
    t1, d1 = (b, db) if b_ok else (a, da)
    gap = prev_gap = math.inf
    for _ in range(_MAX_PROBES):
        t = 0.5 * (lo + hi)
        if known >= 2 and gap <= 0.5 * prev_gap:
            if d0 != d1:
                ts = t1 - d1 * (t1 - t0) / (d1 - d0)
                if lo < ts < hi:
                    t = ts
        if not lo < t < hi:  # lo and hi are adjacent floats, both evaluated
            gap = 0.0
            break
        ft, dt = g(t)
        known += 1
        t0, d0, t1, d1 = t1, d1, t, dt
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


def _ulp(x: np.ndarray) -> np.ndarray:
    """``math.ulp`` elementwise, inf at infinities (np.spacing gives NaN)."""
    a = np.abs(x)
    return np.where(np.isinf(a), np.inf, np.spacing(a))


def concave_max_many(g: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
                     a: np.ndarray, b: np.ndarray,
                     ends: tuple[tuple[np.ndarray, np.ndarray],
                                 tuple[np.ndarray, np.ndarray]] | None = None) -> MaxResult:
    """``concave_max`` over many cells [a_i, b_i] at once, in lockstep.

    g(i, t) returns (values, derivatives) of the functions of cells i at the
    points t, as two arrays.  ``ends`` may hand in (g(a), g(b)) for all cells
    when the caller has them.  Each cell takes the steps ``concave_max`` takes
    (end-derivative tests, then safeguarded secant steps on g' with the same
    float operations, the same stopping rules and the same ``err``), so for
    equal g values the results are equal bit for bit.  Cells that finish
    leave the active set.  Returns a ``MaxResult`` of arrays.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(b < a):
        raise ValueError("empty interval")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        (fa, da), (fb, db) = ends if ends is not None else (g(np.arange(a.size), a),
                                                            g(np.arange(a.size), b))
        value, where = fa.copy(), a.copy()
        err = np.zeros(a.size)
        interior = np.zeros(a.size, dtype=bool)
        left = ~(a < b) | (da <= 0.0)
        up = fb > fa
        end_v, end_t = np.where(up, fb, fa), np.where(up, b, a)
        right = ~left & (db >= 0.0)
        value[right], where[right] = end_v[right], end_t[right]

        # state of the cells still searched, indexed like i
        i = np.nonzero(~(left | right))[0]
        lo, flo, dlo, hi, fhi, dhi = a[i], fa[i], da[i], b[i], fb[i], db[i]
        end_v, end_t = end_v[i], end_t[i]
        best_v, best_t = np.full(i.size, -np.inf), lo.copy()
        # concave_max's secant points and count
        b_ok = np.isfinite(dhi)
        known = np.isfinite(dlo).astype(int) + b_ok
        t0, d0 = lo, dlo
        t1, d1 = np.where(b_ok, hi, lo), np.where(b_ok, dhi, dlo)
        gap = prev_gap = np.full(i.size, np.inf)

        def settle(sel: np.ndarray, gap: np.ndarray) -> None:
            at_end = end_v[sel] >= best_v[sel]
            v = np.where(at_end, end_v[sel], best_v[sel])
            j = i[sel]
            value[j], where[j], interior[j] = v, np.where(at_end, end_t[sel], best_t[sel]), ~at_end
            err[j] = np.where(v > -np.inf, np.maximum(gap, 0.0) + _ULPS * _ulp(v), 0.0)

        for _ in range(_MAX_PROBES):
            if not i.size:
                break
            ts = t1 - d1 * (t1 - t0) / (d1 - d0)
            secant = (known >= 2) & (gap <= 0.5 * prev_gap) & (d0 != d1) & (lo < ts) & (ts < hi)
            t = np.where(secant, ts, 0.5 * (lo + hi))
            adjacent = ~((lo < t) & (t < hi))  # lo and hi are adjacent floats
            ft, dt = g(i, t)
            known = known + 1
            t0, d0, t1, d1 = t1, d1, t, dt
            better = ~adjacent & ((ft > best_v) | ((ft == best_v) & (t < best_t)))
            best_v, best_t = np.where(better, ft, best_v), np.where(better, t, best_t)
            prev_gap = gap
            rise, fall, flat = dt > 0.0, dt < 0.0, dt == 0.0
            lo, flo, dlo = np.where(rise, t, lo), np.where(rise, ft, flo), np.where(rise, dt, dlo)
            hi, fhi, dhi = np.where(fall, t, hi), np.where(fall, ft, fhi), np.where(fall, dt, dhi)
            tx = np.minimum(np.maximum((fhi - flo + dlo * lo - dhi * hi) / (dlo - dhi), lo), hi)
            bound = np.where(~np.isfinite(dhi), flo + dlo * (hi - lo),
                             np.where(~np.isfinite(dlo), fhi - dhi * (hi - lo),
                                      flo + dlo * (tx - lo)))
            top = np.maximum(best_v, end_v)
            gap = bound - top
            gap[np.isnan(gap)] = np.inf  # the tangents overflowed
            lost = ~(rise | fall | flat)  # derivative terms overflowed: no bound
            gap[lost] = np.inf
            gap[adjacent | flat] = 0.0
            done = (adjacent | flat | lost
                    | (gap <= _ULPS * _ulp(np.maximum(np.abs(top), 1.0))))
            if done.any():
                settle(done, gap[done])
                keep = ~done
                i, lo, flo, dlo, hi, fhi, dhi = (v[keep] for v in (i, lo, flo, dlo, hi, fhi, dhi))
                end_v, end_t, best_v, best_t = (v[keep] for v in (end_v, end_t, best_v, best_t))
                known, t0, d0, t1, d1 = (v[keep] for v in (known, t0, d0, t1, d1))
                gap, prev_gap = gap[keep], prev_gap[keep]
        settle(np.ones(i.size, dtype=bool), gap)
    return MaxResult(value, where, err, interior)
