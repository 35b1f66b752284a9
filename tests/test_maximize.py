import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fenton_minimax.battery import BATTERY
from fenton_minimax.core import NodeSystem
from fenton_minimax.maximize import concave_max
from fenton_minimax.sumtrans import sum_eval, sup_on_interval

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(g, a, b, rtol=1e-12):
    """Reference: derivative-free golden section on a concave g (value only).

    The bracket shrinks to rtol times the cell width, so narrow cells next to
    singular nodes are resolved as well as wide ones.  Ends are exact; an
    interior win reports the spread of the final probes.
    Returns (value, argmax, err).
    """
    ends = max((g(a), a), (g(b), b), key=lambda c: (c[0], -c[1]))
    tol = rtol * (b - a)
    if tol == 0.0:
        return ends[0], ends[1], 0.0
    lo, hi = a, b
    x1, x2 = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    f1, f2 = g(x1), g(x2)
    while hi - lo > tol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            if not lo < x1 < hi:
                break
            f1 = g(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            if not lo < x2 < hi:
                break
            f2 = g(x2)
    probes = [(v, t) for v, t in ((f1, x1), (f2, x2)) if a < t < b]
    if not probes:
        return ends[0], ends[1], 0.0
    best = max(probes)
    if ends[0] >= best[0]:
        return ends[0], ends[1], 0.0
    return best[0], best[1], max(v for v, _ in probes) - min(v for v, _ in probes)


def cells(p, x):
    """(u, v, g, gv) per cell of [0, 1]: g returns (F, F') and gv is F alone,
    written here independently of the engine."""
    cuts = {0.0, 1.0, *x.nodes}
    for piece in p.field.pieces:
        cuts.update((piece.interval.a, piece.interval.b))
    pts = sorted(cuts)
    parts = [(w, k, xj) for (w, k), xj in zip(p.translates(), x.nodes)]
    out = []
    for u, v in zip(pts, pts[1:]):
        piece = p.field.piece_at(0.5 * (u + v))
        if piece is None:
            continue
        phi = piece.formula

        def g(t, phi=phi):
            val = sum(w * k.eval(t - xj) for w, k, xj in parts)
            der = sum(w * k.deriv(t - xj) for w, k, xj in parts)
            return phi.value(t) + val, phi.deriv(t) + der

        out.append((u, v, g, lambda t, g=g: g(t)[0]))
    return out


battery_names = st.sampled_from(sorted(BATTERY))
unit_floats = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def battery_systems(draw):
    name = draw(battery_names)
    p = BATTERY[name]
    nodes = sorted(draw(st.lists(unit_floats, min_size=p.n, max_size=p.n)))
    return p, NodeSystem(nodes)


class TestConcaveMax:
    def test_endpoint_derivative_certifies(self):
        res = concave_max(lambda t: (-(t - 2.0) ** 2, -2.0 * (t - 2.0)), 0.0, 1.0)
        assert res == (-1.0, 1.0, 0.0, False)
        res = concave_max(lambda t: (-t * t, -2.0 * t), 0.0, 1.0)
        assert res == (0.0, 0.0, 0.0, False)

    def test_interior_parabola(self):
        c = 0.3141592653589793
        res = concave_max(lambda t: (1.0 - (t - c) ** 2, -2.0 * (t - c)), 0.0, 1.0)
        assert res.interior
        assert res.argmax == pytest.approx(c, abs=1e-7)
        assert 1.0 <= res.value + res.err and res.err <= 1e-14

    def test_unknown_end_derivative_with_max_there(self):
        # a cusp at a node: the derivative at t = 0 is unknown, the max is there
        def g(t):
            return -t, (math.nan if t == 0.0 else -1.0)

        res = concave_max(g, 0.0, 1.0)
        assert res.value == 0.0 and res.argmax == 0.0 and not res.interior
        assert 0.0 <= res.err <= 1e-14

    def test_singular_ends(self):
        # both ends at -inf with unknown derivatives, as between two log nodes
        def g(t):
            if t in (0.0, 1.0):
                return -math.inf, math.nan
            return math.log(t) + math.log(1.0 - t), 1.0 / t - 1.0 / (1.0 - t)

        res = concave_max(g, 0.0, 1.0)
        assert res.interior
        assert res.value <= -math.log(4.0) <= res.value + res.err
        assert res.err <= 1e-14

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            concave_max(lambda t: (0.0, 0.0), 1.0, 0.0)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(battery_systems())
def test_err_bounds_dense_samples(case):
    p, x = case
    for u, v, g, gv in cells(p, x):
        res = concave_max(g, u, v)
        assert res.err >= 0.0
        if res.interior:
            assert gv(res.argmax) == res.value
        ref_v, ref_t, ref_err = golden_max(gv, u, v)
        w = 1e-5 * (v - u)
        near = np.linspace(max(u, ref_t - w), min(v, ref_t + w), 201)
        dense = max(gv(float(t)) for t in np.concatenate([np.linspace(u, v, 401), near]))
        assert max(dense, ref_v) <= res.value + res.err
        assert res.value <= ref_v + ref_err + 1e-14 * max(1.0, abs(ref_v))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(battery_systems())
def test_interval_sup_witness_and_bound(case):
    p, x = case
    for j in range(p.n + 1):
        q = x.interval(j)
        r = sup_on_interval(p, x, q)
        if r.attained:
            assert sum_eval(p, x, r.witness) == r.value
        for t in np.linspace(q.a, q.b, 201):
            f = sum_eval(p, x, float(t))
            if f.is_finite:
                assert f.as_float() <= r.value.as_float() + r.err
