import math
from dataclasses import replace
from random import Random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fenton_minimax.battery import (BATTERY, bump_field, flat_field, gate_field,
                                    ramp_field, two_band_field)
from fenton_minimax.checks import _random_usc_field
from fenton_minimax.core import Interval, NodeSystem
from fenton_minimax.fields import Field, UnsupportedFieldError
from fenton_minimax.formulas import Quadratic
from fenton_minimax.kernels import (KernelFlags, custom_kernel, log_kernel,
                                    power_kernel, singularize, sqrt_kernel,
                                    zero_kernel)
from fenton_minimax.sumtrans import (Problem, difference_map, grid_mode,
                                     interval_maxima, interval_maxima_batch,
                                     pure_sum_eval, regularity, singularity_set,
                                     sum_eval, sup_on_interval)

# closed-form optimum of the two-node flat problem with the log kernel:
# nodes at 1/2 -/+ 1/(2*sqrt(2)), every interval max equal to log(1/8)
X2_STAR = (0.5 - 0.5 / math.sqrt(2.0), 0.5 + 0.5 / math.sqrt(2.0))
V2_STAR = -math.log(8.0)

node_lists = st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1,
                      max_size=3).map(lambda v: tuple(sorted(v)))


class TestProblemValidation:
    def test_shared_or_per_node_not_both(self):
        with pytest.raises(ValueError):
            Problem(n=1, field=flat_field(), kernel=log_kernel(),
                    kernels=(log_kernel(),))
        with pytest.raises(ValueError):
            Problem(n=1, field=flat_field())

    def test_weight_count_and_sign(self):
        with pytest.raises(ValueError):
            Problem(n=2, field=flat_field(), kernel=log_kernel(),
                    weights=(1.0,))
        with pytest.raises(ValueError):
            Problem(n=2, field=flat_field(), kernel=log_kernel(),
                    weights=(1.0, -1.0))
        p = Problem(n=2, field=flat_field(), kernel=log_kernel())
        assert p.weights == (1.0, 1.0)

    def test_kernel_list_length(self):
        with pytest.raises(ValueError):
            Problem(n=2, field=flat_field(), kernels=(log_kernel(),))

    def test_field_must_feed_enough_points(self):
        # bands give an interval of finite values: fine for any n
        Problem(n=3, field=two_band_field(), kernel=log_kernel())
        from fenton_minimax.fields import FieldPiece
        from fenton_minimax.formulas import Constant
        dots = Field(pieces=(FieldPiece(Interval(0.3, 0.3), Constant(0.0)),
                             FieldPiece(Interval(0.7, 0.7), Constant(0.0))))
        Problem(n=1, field=dots, kernel=log_kernel())
        with pytest.raises(ValueError):
            Problem(n=2, field=dots, kernel=log_kernel())

    def test_callable_needs_grid_mode(self):
        holder = Field(fn=lambda t: 0.0, declared_upper_bound=0.0)
        with pytest.raises(ValueError):
            Problem(n=1, field=holder, kernel=log_kernel())
        Problem(n=1, field=holder, kernel=log_kernel(), sup_mode=grid_mode())

    def test_translates_and_flags(self):
        p = Problem(n=2, field=flat_field(), kernel=log_kernel(),
                    weights=(2.0, 3.0))
        assert p.translates() == ((2.0, log_kernel()), (3.0, log_kernel()))
        assert p.node_is_singular(0) and p.any_singular()
        q = Problem(n=2, field=flat_field(),
                    kernels=(zero_kernel(), log_kernel()))
        assert [w for w, _ in q.translates()] == [1.0, 1.0]
        assert not q.node_is_singular(0) and q.node_is_singular(1)


class TestSumEval:
    def test_known_values(self):
        p = Problem(n=2, field=flat_field(), kernel=log_kernel())
        x = NodeSystem((0.25, 0.75))
        v = sum_eval(p, x, 0.5)
        assert v.as_float() == pytest.approx(2.0 * math.log(0.25), abs=1e-15)
        assert pure_sum_eval(p, x, 0.5).as_float() == v.as_float()

    def test_singular_at_node(self):
        p = Problem(n=1, field=flat_field(), kernel=log_kernel())
        assert not sum_eval(p, NodeSystem((0.5,)), 0.5).is_finite

    def test_field_hole_short_circuits(self):
        p = Problem(n=1, field=gate_field(), kernel=log_kernel())
        v = sum_eval(p, NodeSystem((0.6,)), 0.6)  # J = -inf there
        assert not v.is_finite

    def test_weights_scale_linearly(self):
        x = NodeSystem((0.25, 0.75))
        p1 = Problem(n=2, field=flat_field(), kernel=log_kernel())
        p5 = Problem(n=2, field=flat_field(), kernel=log_kernel(),
                     weights=(2.0, 3.0))
        base = math.log(0.25)
        assert pure_sum_eval(p5, x, 0.5).as_float() == pytest.approx(
            5.0 * base, rel=1e-15)
        assert pure_sum_eval(p1, x, 0.5).as_float() == pytest.approx(
            2.0 * base, rel=1e-15)

    def test_domain_guard(self):
        p = Problem(n=1, field=flat_field(), kernel=log_kernel())
        with pytest.raises(ValueError):
            sum_eval(p, NodeSystem((0.5,)), 1.5)
        with pytest.raises(ValueError):
            sum_eval(p, NodeSystem((0.3, 0.7)), 0.5)  # n mismatch

    @given(node_lists, st.floats(min_value=0.0, max_value=1.0))
    def test_weighted_equals_scaled_kernels(self, nodes, t):
        n = len(nodes)
        x = NodeSystem(nodes)
        w = tuple(1.0 + 0.5 * j for j in range(n))
        p_w = Problem(n=n, field=flat_field(), kernel=log_kernel(), weights=w)
        p_k = Problem(n=n, field=flat_field(),
                      kernels=tuple(log_kernel().scaled(wj) for wj in w))
        a = pure_sum_eval(p_w, x, t)
        b = pure_sum_eval(p_k, x, t)
        if a.is_finite:
            assert b.as_float() == pytest.approx(a.as_float(), rel=1e-12,
                                                 abs=1e-12)
        else:
            assert not b.is_finite


class TestSupOnInterval:
    def test_flat_log_single_node(self):
        p = Problem(n=1, field=flat_field(), kernel=log_kernel())
        x = NodeSystem((0.5,))
        r0 = sup_on_interval(p, x, x.interval(0))
        assert r0.value.as_float() == math.log(0.5)
        assert r0.witness == 0.0 and r0.attained and r0.err == 0.0
        r1 = sup_on_interval(p, x, x.interval(1))
        assert r1.value.as_float() == math.log(0.5) and r1.witness == 1.0

    def test_one_sided_limit_reported_unattained(self):
        p = Problem(n=1, field=ramp_field(), kernel=zero_kernel())
        x = NodeSystem((0.5,))
        r = sup_on_interval(p, x, x.interval(0))
        assert r.value.as_float() == 0.5
        assert r.witness == 0.5
        assert not r.attained
        assert r.err == 0.0

    def test_whole_interval_can_be_neg_inf(self):
        p = Problem(n=1, field=gate_field(), kernel=zero_kernel())
        x = NodeSystem((0.5,))
        r = sup_on_interval(p, x, x.interval(1))
        assert not r.value.is_finite
        assert r.witness is None and not r.attained

    def test_attained_point_beats_equal_limit(self):
        p = Problem(n=1, field=gate_field(), kernel=zero_kernel())
        x = NodeSystem((0.5,))
        r = sup_on_interval(p, x, x.interval(0))
        assert r.value.as_float() == 0.0 and r.attained

    def test_interior_concave_max(self):
        p = Problem(n=2, field=flat_field(), kernel=log_kernel())
        x = NodeSystem(X2_STAR)
        r = sup_on_interval(p, x, x.interval(1))
        # argument precision of a bracketing search is ~sqrt of the value tol
        assert r.witness == pytest.approx(0.5, abs=1e-6)
        assert r.value.as_float() == pytest.approx(V2_STAR, abs=1e-12)

    def test_query_interval_guard(self):
        p = Problem(n=1, field=flat_field(), kernel=log_kernel())
        with pytest.raises(ValueError):
            sup_on_interval(p, NodeSystem((0.5,)), Interval(-0.2, 0.5))

    @settings(deadline=None)
    @given(node_lists, st.floats(min_value=0.0, max_value=1.0))
    def test_sup_dominates_samples(self, nodes, t):
        p = Problem(n=len(nodes), field=bump_field(), kernel=log_kernel())
        x = NodeSystem(nodes)
        r = sup_on_interval(p, x, Interval(0.0, 1.0))
        v = sum_eval(p, x, t)
        if v.is_finite:
            assert v.as_float() <= r.value.as_float() + 1e-9


class TestIntervalMaxima:
    def test_two_node_flat_log_closed_form(self):
        p = Problem(n=2, field=flat_field(), kernel=log_kernel())
        m = interval_maxima(p, NodeSystem(X2_STAR))
        for v in m.floats():
            assert v == pytest.approx(V2_STAR, abs=1e-10)
        assert all(m.attained)
        assert m.max_value.as_float() == pytest.approx(V2_STAR, abs=1e-10)
        assert m.min_value.as_float() == pytest.approx(V2_STAR, abs=1e-10)

    def test_gate_vector_with_hole(self):
        p = Problem(n=1, field=gate_field(), kernel=zero_kernel())
        m = interval_maxima(p, NodeSystem((0.5,)))
        assert m.floats() == (0.0, -math.inf)
        assert m.attained == (True, False)

    def test_limit_sup_equals_value_at_025(self):
        p = Problem(n=1, field=gate_field(), kernel=log_kernel())
        m = interval_maxima(p, NodeSystem((0.25,)))
        assert m.values[0].as_float() == math.log(0.25)
        assert m.values[1].as_float() == math.log(0.25)
        assert m.attained == (True, False)
        assert m.witnesses[1] == 0.5

    def test_grid_mode_close_to_exact(self):
        exact = Problem(n=2, field=bump_field(), kernel=log_kernel())
        grid = Problem(n=2, field=bump_field(), kernel=log_kernel(),
                       sup_mode=grid_mode(8192))
        x = NodeSystem((0.3, 0.7))
        me = interval_maxima(exact, x).floats()
        mg = interval_maxima(grid, x).floats()
        for a, b in zip(me, mg):
            assert b <= a + 1e-12  # grid is a lower bound
            assert b == pytest.approx(a, abs=1e-6)

    def test_callable_field_grid(self):
        J = Field(fn=lambda t: -((t - 0.3) ** 2), declared_upper_bound=0.0)
        p = Problem(n=1, field=J, kernel=zero_kernel(), sup_mode=grid_mode(4096))
        m = interval_maxima(p, NodeSystem((0.5,)))
        assert m.values[0].as_float() == pytest.approx(0.0, abs=1e-7)
        assert m.witnesses[0] == pytest.approx(0.3, abs=1e-3)


class TestSingularitySet:
    def test_log_nodes_are_points(self):
        p = Problem(n=2, field=flat_field(), kernel=log_kernel())
        s = singularity_set(p, NodeSystem((0.25, 0.75)))
        assert s.intervals == ()
        assert s.points == (0.25, 0.75)

    def test_zero_kernel_no_points(self):
        p = Problem(n=2, field=flat_field(), kernel=zero_kernel())
        s = singularity_set(p, NodeSystem((0.25, 0.75)))
        assert s.is_empty

    def test_field_holes_included(self):
        p = Problem(n=1, field=two_band_field(), kernel=log_kernel())
        s = singularity_set(p, NodeSystem((0.2,)))
        spans = [(i.a, i.b) for i in s.intervals]
        assert (0.4, 0.6) in [(round(a, 12), round(b, 12)) for a, b in spans]
        assert 0.2 in s.points

    def test_callable_rejected(self):
        J = Field(fn=lambda t: 0.0, declared_upper_bound=0.0)
        p = Problem(n=1, field=J, kernel=zero_kernel(), sup_mode=grid_mode())
        with pytest.raises(UnsupportedFieldError):
            singularity_set(p, NodeSystem((0.5,)))


class TestRegularity:
    def test_interior_log_flat_is_in_W(self):
        p = Problem(n=2, field=flat_field(), kernel=log_kernel())
        rep = regularity(p, NodeSystem((0.3, 0.7)))
        assert rep.in_Y and rep.in_W and rep.singular_intervals == ()

    def test_hole_drops_Y(self):
        p = Problem(n=1, field=gate_field(), kernel=zero_kernel())
        rep = regularity(p, NodeSystem((0.75,)))
        assert not rep.in_Y and not rep.in_W
        assert rep.singular_intervals == (1,)

    def test_boundary_node_drops_W_only(self):
        p = Problem(n=2, field=flat_field(), kernel=zero_kernel())
        rep = regularity(p, NodeSystem((0.0, 0.5)))
        assert rep.in_Y and not rep.in_W

    def test_degenerate_interval_at_singular_node(self):
        p = Problem(n=2, field=flat_field(), kernel=log_kernel())
        rep = regularity(p, NodeSystem((0.0, 0.5)))
        # [x_0, x_1] = {0} and the log translate is -inf there
        assert 0 in rep.singular_intervals and not rep.in_Y

    def test_bands_with_interior_nodes(self):
        p = Problem(n=1, field=two_band_field(), kernel=zero_kernel())
        rep = regularity(p, NodeSystem((0.5,)))
        assert rep.in_Y and rep.in_W


class TestDifferenceMap:
    def test_zero_at_closed_form_optimum(self):
        p = Problem(n=2, field=flat_field(), kernel=log_kernel())
        d = difference_map(p, NodeSystem(X2_STAR))
        assert len(d) == 2
        for v in d:
            assert v == pytest.approx(0.0, abs=1e-9)

    def test_sign_tracks_node_motion(self):
        p = Problem(n=1, field=flat_field(), kernel=log_kernel())
        # node left of center: right interval is longer, so m_1 > m_0
        assert difference_map(p, NodeSystem((0.3,)))[0] > 0
        assert difference_map(p, NodeSystem((0.7,)))[0] < 0

    def test_raises_on_neg_inf(self):
        p = Problem(n=1, field=gate_field(), kernel=zero_kernel())
        with pytest.raises(ValueError, match="m_j = -inf"):
            difference_map(p, NodeSystem((0.75,)))


# ---------------------------------------------------------------------------
# the batch engine against the scalar one

# The batch engine evaluates kernels with numpy's log and power, the scalar
# one with math.log and pow; those differ in the last bit on a small share of
# inputs, so values the two engines call exact (err 0) may differ by a few
# ulps of the terms summed into F.
_LAST_BITS = 1e-14

KERNELS = (
    zero_kernel(), log_kernel(), sqrt_kernel(), power_kernel(0.5),
    power_kernel(1.5),
    custom_kernel(Quadratic(-1.0, -1.0, 0.0), Quadratic(-1.0, 1.0, 0.0),
                  KernelFlags(singular=False, monotone=False,
                              strictly_monotone=False, strictly_concave=False,
                              cusp=False)),
)


def _special_points(p):
    pts = {0.0, 1.0}
    for piece in p.field.pieces:
        pts.update((piece.interval.a, piece.interval.b))
    return sorted(pts)


def _node_rows(p, seed, count):
    """Seeded node systems; some nodes snap to 0, 1 or a piece end, or onto
    the node before them, so coincident nodes and nodes on breakpoints occur."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(count, p.n))
    special = np.array(_special_points(p))
    snap = rng.random(X.shape) < 0.15
    X[snap] = rng.choice(special, int(snap.sum()))
    X.sort(axis=1)
    if p.n > 1:
        dup = rng.random(count) < 0.1
        X[dup, 1] = X[dup, 0]
    return X


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def assert_batch_matches_scalar(p, X, single_rows):
    mb = interval_maxima_batch(p, X)
    assert all(a.shape == (len(X), p.n + 1) for a in mb)
    for i, row in enumerate(X):
        mv = interval_maxima(p, NodeSystem(row))
        for j in range(p.n + 1):
            s, b = mv.values[j].as_float(), mb.values[i, j]
            assert (s == -math.inf) == (b == -math.inf), (row, j, s, b)
            if s == -math.inf:
                assert math.isnan(mb.witnesses[i, j]) and not mb.attained[i, j]
                assert mb.err[i, j] == 0.0
            else:
                assert abs(b - s) <= (mb.err[i, j] + mv.err[j]
                                      + _LAST_BITS * max(1.0, abs(s))), (row, j, s, b)
    for i in single_rows:
        one = interval_maxima_batch(p, X[i:i + 1])
        for whole, alone in zip(mb, one):
            assert _bits(whole[i]) == _bits(alone[0]), (X[i], whole[i], alone[0])


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_batch_matches_scalar_on_battery(name):
    p = BATTERY[name]
    X = _node_rows(p, sorted(BATTERY).index(name), 200)
    assert_batch_matches_scalar(p, X, single_rows=range(0, 200, 20))


@st.composite
def batch_cases(draw):
    """A random usc field, one of six kernels (plain, strictified or
    singularized, with random weights) or a kernel per node, and a few
    node systems."""
    field = _random_usc_field(Random(draw(st.integers(0, 2**32 - 1))))
    n = draw(st.integers(1, 3))
    variant = draw(st.sampled_from(("plain", "strictified", "singularized", "per-node")))
    weights = tuple(draw(st.floats(0.25, 4.0)) for _ in range(n))
    try:
        if variant == "per-node":
            ks = tuple(draw(st.sampled_from(KERNELS)).scaled(w) for w in weights)
            p = Problem(n=n, field=field, kernels=ks)
        else:
            k = draw(st.sampled_from(KERNELS))
            if variant == "strictified":
                k = replace(k, strictify_eta=0.2)  # custom is not monotone
            elif variant == "singularized":
                k = singularize(k, 0.3)
            p = Problem(n=n, field=field, kernel=k, weights=weights)
    except ValueError:  # field finite at too few points for n nodes
        assume(False)
    special = _special_points(p)
    unit = st.one_of(st.floats(0.0, 1.0), st.sampled_from(special))
    rows = draw(st.lists(st.lists(unit, min_size=n, max_size=n).map(sorted),
                         min_size=1, max_size=6))
    return p, np.array(rows)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(batch_cases())
def test_batch_matches_scalar_on_random_problems(case):
    p, X = case
    assert_batch_matches_scalar(p, X, single_rows=range(len(X)))


class TestBatchInterface:
    def test_rejects_bad_shapes_and_rows(self):
        p = BATTERY["log-n2-flat"]
        for bad in ([[0.2]], [[0.2, 0.3, 0.4]], [0.2, 0.3], [[0.6, 0.3]],
                    [[-0.1, 0.3]], [[0.3, float("nan")]]):
            with pytest.raises(ValueError):
                interval_maxima_batch(p, bad)

    def test_empty_batch(self):
        mb = interval_maxima_batch(BATTERY["log-n2-flat"], np.empty((0, 2)))
        assert all(a.shape == (0, 3) for a in mb)

    def test_grid_mode_rows_use_the_scalar_engine(self):
        p = Problem(n=2, field=bump_field(), kernel=log_kernel(), sup_mode=grid_mode(512))
        X = np.array([[0.2, 0.7], [0.4, 0.4]])
        mb = interval_maxima_batch(p, X)
        for i, row in enumerate(X):
            mv = interval_maxima(p, NodeSystem(row))
            assert tuple(mb.values[i]) == mv.floats()
            assert tuple(mb.err[i]) == mv.err
