import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fenton_minimax.battery import BATTERY
from fenton_minimax.core import NodeSystem
from fenton_minimax.kernels import log_kernel, power_kernel, sqrt_kernel
from fenton_minimax.maximize import concave_max, concave_max_many
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
    parts = [(w, p.kernel, xj) for w, xj in zip(p.weights, x.nodes)]
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


def _counted(g):
    """g, and the list of the points it was called at."""
    calls = []

    def h(t):
        calls.append(t)
        return g(t)
    return h, calls


class TestConcaveMaxStop:
    """A value above ``stop`` ends the call: that value comes back as a lower
    bound (err = inf), and g is not called again."""

    @staticmethod
    def parabola(c):
        return lambda t: (1.0 - (t - c) ** 2, -2.0 * (t - c))

    def test_stop_at_left_end(self):
        # g(0) = 0.91 is above stop; the full call would go on to probe
        g, calls = _counted(self.parabola(0.3))
        assert concave_max(g, 0.0, 1.0, 0.5) == (0.91, 0.0, math.inf, False)
        assert calls == [0.0]

    def test_stop_at_right_end(self):
        # g(0) < stop < g(1) = 0.96
        g, calls = _counted(self.parabola(0.8))
        assert concave_max(g, 0.0, 1.0, 0.5) == (0.96, 1.0, math.inf, False)
        assert calls == [0.0, 1.0]

    def test_stop_at_an_interior_probe(self):
        c = 0.3141592653589793

        def quartic(t):  # maximum 0 at c; the secant steps take many probes
            return -(t - c) ** 4, -4.0 * (t - c) ** 3

        full_g, full_calls = _counted(quartic)
        full = concave_max(full_g, 0.0, 1.0)
        g, calls = _counted(quartic)
        stop = -1e-6  # above both ends, below the maximum
        res = concave_max(g, 0.0, 1.0, stop)
        assert res.interior and res.err == math.inf
        assert 0.0 < res.argmax < 1.0 and res.argmax == calls[-1]
        assert stop < res.value <= full.value
        # the same probes as the full call, up to the first value above stop
        assert calls == full_calls[:len(calls)] and len(calls) < len(full_calls)

    @pytest.mark.parametrize("c", [-0.5, 0.3, 0.8, 1.5])
    def test_no_value_above_stop_changes_nothing(self, c):
        full = concave_max(self.parabola(c), 0.0, 1.0)
        for stop in (full.value, 2.0, math.inf):
            assert concave_max(self.parabola(c), 0.0, 1.0, stop) == full


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


# ---------------------------------------------------------------------------
# the lockstep twin: the same steps, so the same bits for the same g values

def _lockstep_cells(seed: int, count: int):
    """Cells [u, v] with F(t) = w0 K(t - u) + w1 K(t - v) + c (t - m)^2 for a
    mix of kernels: singular or cusped ends with unknown derivatives, maxima
    at either end and inside, and flat pieces."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 0.6, count)
    v = u + rng.choice([1e-12, 1e-3, 0.05, 0.4], count)
    w = rng.uniform(0.0, 2.0, (count, 2)) * rng.integers(0, 2, (count, 2))
    c = -rng.uniform(0.0, 3.0, count) * rng.integers(0, 2, count)
    mid = rng.uniform(-0.5, 1.5, count)
    kernel = rng.integers(0, 3, count)
    return u, v, w, c, mid, kernel


_LOCKSTEP_KERNELS = (log_kernel(), sqrt_kernel(), power_kernel(0.5))


def _lockstep_g(cells):
    u, v, w, c, mid, kernel = cells

    def g(i, t):
        val = c[i] * (t - mid[i]) ** 2
        der = 2.0 * c[i] * (t - mid[i])
        for col, end in ((0, u[i]), (1, v[i])):
            for kk, k in enumerate(_LOCKSTEP_KERNELS):
                sel = (kernel[i] == kk) & (w[i, col] > 0.0)
                if sel.any():
                    val[sel] = val[sel] + w[i[sel], col] * k.eval_many(t[sel] - end[sel])
                    der[sel] = der[sel] + w[i[sel], col] * k.derivs(t[sel] - end[sel])
        return val, der
    return g


@pytest.mark.parametrize("seed", range(4))
def test_concave_max_many_is_concave_max_bitwise(seed):
    cells = _lockstep_cells(seed, 300)
    g = _lockstep_g(cells)
    u, v = cells[0], cells[1]
    many = concave_max_many(g, u, v)
    for i in range(len(u)):
        def gi(t, i=i):
            val, der = g(np.array([i]), np.array([t]))
            return float(val[0]), float(der[0])

        one = concave_max(gi, float(u[i]), float(v[i]))
        got = tuple(np.float64(x[i]).tobytes() for x in many[:3])
        assert got == tuple(np.float64(x).tobytes() for x in one[:3]), i
        assert bool(many.interior[i]) == one.interior


def test_concave_max_many_empty_and_guard():
    res = concave_max_many(lambda i, t: (t, t), np.array([]), np.array([]))
    assert all(len(x) == 0 for x in res)
    with pytest.raises(ValueError):
        concave_max_many(lambda i, t: (t, t), np.array([1.0]), np.array([0.0]))
