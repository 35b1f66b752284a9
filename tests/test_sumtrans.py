import math
import pickle
from dataclasses import dataclass, fields, replace
from random import Random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fenton_minimax.battery import (BATTERY, bump_field, flat_field, gate_field,
                                    ramp_field, two_band_field)
from fenton_minimax.checks import _random_usc_field
from fenton_minimax.core import Interval, NodeSystem
from fenton_minimax.fields import Field, FieldPiece, n_field_check
from fenton_minimax.formulas import Affine, Constant, Formula, Quadratic
from fenton_minimax.kernels import (custom_kernel, log_kernel, power_kernel,
                                    singularize, sqrt_kernel, strictify, zero_kernel)
from fenton_minimax.maximize import concave_max
from fenton_minimax.solvers import SolveOptions, _nearest_finite, solve_maximin
from fenton_minimax.sumtrans import (Problem, _pure_many, interval_maxima,
                                     interval_maxima_batch, pure_sum_eval,
                                     regularity, regularity_many, sum_eval,
                                     sup_on_interval)

# closed-form optimum of the two-node flat problem with the log kernel:
# nodes at 1/2 -/+ 1/(2*sqrt(2)), every interval max equal to log(1/8)
X2_STAR = (0.5 - 0.5 / math.sqrt(2.0), 0.5 + 0.5 / math.sqrt(2.0))
V2_STAR = -math.log(8.0)

node_lists = st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1,
                      max_size=3).map(lambda v: tuple(sorted(v)))


class TestProblemValidation:
    def test_kernel_required(self):
        # the paper's (n, J, K, weights): one kernel for every node
        assert [f.name for f in fields(Problem)] == ["n", "field", "kernel", "weights"]
        with pytest.raises(ValueError, match="a kernel is required"):
            Problem(n=1, field=flat_field(), kernel=None)

    def test_weight_count_and_sign(self):
        with pytest.raises(ValueError):
            Problem(n=2, field=flat_field(), kernel=log_kernel(),
                    weights=(1.0,))
        with pytest.raises(ValueError):
            Problem(n=2, field=flat_field(), kernel=log_kernel(),
                    weights=(1.0, -1.0))
        p = Problem(n=2, field=flat_field(), kernel=log_kernel())
        assert p.weights == (1.0, 1.0)

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

    def test_translates_and_flags(self):
        # a kernel transform keeps the weights; every flag is the kernel's
        p = Problem(n=2, field=flat_field(), kernel=log_kernel(),
                    weights=(2.0, 3.0))
        q = replace(p, kernel=strictify(zero_kernel(), 0.1))
        assert (q.n, q.field, q.weights) == (2, p.field, (2.0, 3.0))
        assert p.kernel.singular and not q.kernel.singular
        with pytest.raises(ValueError, match="a kernel is required"):
            replace(p, kernel=None)


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

    @pytest.mark.parametrize("kernel", [log_kernel(), singularize(sqrt_kernel(), 0.3)],
                             ids=["log", "sqrt-singularized"])
    @given(nodes=node_lists, t=st.floats(min_value=0.0, max_value=1.0))
    def test_weighted_equals_hand_sum(self, kernel, nodes, t):
        # the term walk against summing w_j * K(t - x_j) from 0.0 in node
        # order, bit for bit, -inf included
        n = len(nodes)
        w = tuple(1.0 + 0.5 * j for j in range(n))
        p = Problem(n=n, field=flat_field(), kernel=kernel, weights=w)
        want = 0.0
        for wj, xj in zip(w, nodes):
            want += wj * kernel.eval(t - xj)
        got = pure_sum_eval(p, NodeSystem(nodes), t)
        assert _bits(got.as_float()) == _bits(want)
        assert got.is_finite == (want != -math.inf)


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
        # F sampled densely on each interval is a lower bound close to m_j
        p = Problem(n=2, field=bump_field(), kernel=log_kernel())
        x = NodeSystem((0.3, 0.7))
        s = x.with_sentinels()
        for j, m in enumerate(interval_maxima(p, x).floats()):
            ts = np.linspace(s[j], s[j + 1], 8193)
            f = p.field.eval_many(ts)
            for w, xj in zip(p.weights, x.nodes):
                f = f + w * p.kernel.eval_many(ts - xj)
            best = float(f.max())
            assert best <= m + 1e-12
            assert best == pytest.approx(m, abs=1e-6)


class TestRegularity:
    def test_interior_log_flat_is_in_W(self):
        p = Problem(n=2, field=flat_field(), kernel=log_kernel())
        rep = regularity(p, NodeSystem((0.3, 0.7)))
        assert rep.in_Y and rep.singular_intervals == ()

    def test_hole_drops_Y(self):
        p = Problem(n=1, field=gate_field(), kernel=zero_kernel())
        rep = regularity(p, NodeSystem((0.75,)))
        assert not rep.in_Y
        assert rep.singular_intervals == (1,)

    def test_boundary_node_drops_W_only(self):
        p = Problem(n=2, field=flat_field(), kernel=zero_kernel())
        rep = regularity(p, NodeSystem((0.0, 0.5)))
        assert rep.in_Y

    def test_degenerate_interval_at_singular_node(self):
        p = Problem(n=2, field=flat_field(), kernel=log_kernel())
        rep = regularity(p, NodeSystem((0.0, 0.5)))
        # [x_0, x_1] = {0} and the log translate is -inf there
        assert 0 in rep.singular_intervals and not rep.in_Y

    def test_bands_with_interior_nodes(self):
        p = Problem(n=1, field=two_band_field(), kernel=zero_kernel())
        rep = regularity(p, NodeSystem((0.5,)))
        assert rep.in_Y


class TestDifferenceMap:
    """The differences m_{j+1} - m_j of the interval maxima."""

    @staticmethod
    def diffs(p, nodes):
        return np.diff(interval_maxima(p, NodeSystem(nodes)).floats())

    def test_zero_at_closed_form_optimum(self):
        p = Problem(n=2, field=flat_field(), kernel=log_kernel())
        d = self.diffs(p, X2_STAR)
        assert len(d) == 2
        for v in d:
            assert v == pytest.approx(0.0, abs=1e-9)

    def test_sign_tracks_node_motion(self):
        p = Problem(n=1, field=flat_field(), kernel=log_kernel())
        # node left of center: right interval is longer, so m_1 > m_0
        assert self.diffs(p, (0.3,))[0] > 0
        assert self.diffs(p, (0.7,))[0] < 0


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
    custom_kernel(Quadratic(-1.0, -1.0, 0.0), Quadratic(-1.0, 1.0, 0.0)),
)


def _transformed(p, direction, eta):
    """p with its kernel strictified or singularized by eta."""
    op = strictify if direction == "strictify" else singularize
    return replace(p, kernel=op(p.kernel, eta))


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
    singularized), random weights (scaled by a common factor in the
    "scaled" variant), and a few node systems."""
    field = _random_usc_field(Random(draw(st.integers(0, 2**32 - 1))))
    n = draw(st.integers(1, 3))
    variant = draw(st.sampled_from(("plain", "strictified", "singularized", "scaled")))
    weights = tuple(draw(st.floats(0.25, 4.0)) for _ in range(n))
    try:
        k = draw(st.sampled_from(KERNELS))
        if variant == "strictified":
            k = replace(k, strictify_eta=0.2)  # custom is not monotone
        elif variant == "singularized":
            k = singularize(k, 0.3)
        elif variant == "scaled":
            c = draw(st.floats(0.25, 4.0))
            weights = tuple(c * w for w in weights)
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
    js = np.random.default_rng(len(X)).integers(0, p.n + 1, size=len(X))
    assert_selector_and_stack_are_bitwise((p, _transformed(p, "singularize", 0.05)), X, js)


# ---------------------------------------------------------------------------
# interval selectors and problem stacks against the plain batch call


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and _bits(a) == _bits(b)


def assert_selector_and_stack_are_bitwise(stack, X, js):
    """With the selector js each problem's result is column js of its plain
    (B, n + 1) call, and the stacked calls are the per-problem calls, bit
    for bit in all four fields."""
    rows = np.arange(len(X))
    full = [interval_maxima_batch(q, X) for q in stack]
    stacked, stacked_sel = interval_maxima_batch(stack, X), interval_maxima_batch(stack, X, js)
    for k, q in enumerate(stack):
        sel = interval_maxima_batch(q, X, js)
        for f, name in enumerate(full[k]._fields):
            col = full[k][f][rows, js]
            assert _same_bits(sel[f], col), (q, name)
            assert _same_bits(stacked_sel[f][k], col), (q, name)
            assert _same_bits(stacked[f][k], full[k][f]), (q, name)


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_selector_and_stack_match_plain_batch_on_battery(name):
    # bands and gate fields give -inf holes, log kernels singular nodes,
    # sqrt and power cusps; _node_rows snaps nodes onto 0, 1, piece ends and
    # onto each other, and the first rows ask for intervals 0 and n
    p = BATTERY[name]
    X = _node_rows(p, 100 + sorted(BATTERY).index(name), 120)
    js = np.random.default_rng(sorted(BATTERY).index(name)).integers(0, p.n + 1, size=120)
    js[:2] = (0, p.n)
    stack = (p, _transformed(p, "singularize", 0.2), _transformed(p, "singularize", 0.02),
             *(Problem(n=p.n, field=p.field, kernel=k) for k in KERNELS))
    if p.kernel.monotone:
        stack += (_transformed(p, "strictify", 0.1),)
    assert_selector_and_stack_are_bitwise(stack, X, js)
    values = interval_maxima_batch(stack, X, js).values
    if name.endswith(("bands", "gate")):
        assert np.isneginf(values).any() and np.isfinite(values).any()


class TestBatchInterface:
    def test_rejects_bad_shapes_and_rows(self):
        p = BATTERY["log-n2-flat"]
        for bad in ([[0.2]], [[0.2, 0.3, 0.4]], [0.2, 0.3], [[0.6, 0.3]],
                    [[-0.1, 0.3]], [[0.3, float("nan")]]):
            with pytest.raises(ValueError):
                interval_maxima_batch(p, bad)

    def test_empty_batch(self):
        p = BATTERY["log-n2-flat"]
        mb = interval_maxima_batch(p, np.empty((0, 2)))
        assert all(a.shape == (0, 3) for a in mb)
        assert all(a.shape == (0,) for a in interval_maxima_batch(p, np.empty((0, 2)), []))
        assert all(a.shape == (2, 0) for a in
                   interval_maxima_batch((p, p), np.empty((0, 2)), np.empty(0, dtype=int)))

    def test_result_shapes(self):
        p = BATTERY["log-n2-flat"]
        X = [[0.2, 0.7], [0.1, 0.4], [0.5, 0.5]]
        assert all(a.shape == (3,) for a in interval_maxima_batch(p, X, [0, 1, 2]))
        assert all(a.shape == (1, 3, 3) for a in interval_maxima_batch([p], X))
        assert all(a.shape == (2, 3) for a in interval_maxima_batch([p, p], X, [2, 2, 0]))

    @pytest.mark.parametrize("js", [[0, 3], [-1, 0], [0], [0, 1, 2], [0.0, 1.0],
                                    [True, False], [[0, 1]]])
    def test_rejects_bad_selectors(self, js):
        X = [[0.2, 0.7], [0.1, 0.4]]
        with pytest.raises(ValueError):
            interval_maxima_batch(BATTERY["log-n2-flat"], X, js)

    @pytest.mark.parametrize("stack", [(), ("log-n2-flat", "log-n2-bump"),
                                       ("log-n2-flat", "log-n3-flat")],
                             ids=["empty", "two-fields", "two-n"])
    def test_rejects_bad_stacks(self, stack):
        with pytest.raises(ValueError):
            interval_maxima_batch([BATTERY[name] for name in stack], [[0.2, 0.7]])


# ---------------------------------------------------------------------------
# regular-set membership against the sup engine


def test_regularity_bands_coincident_nodes_at_hole_end():
    # the singular node 0.4 closes the hole (0.4, 0.6), so the singularity
    # set holds it as an interval end rather than as an isolated point
    p = BATTERY["log-n2-bands"]
    x = NodeSystem((0.4, 0.4))
    assert interval_maxima(p, x).values[1].as_float() == -math.inf
    rep = regularity(p, x)
    assert not rep.in_Y and rep.singular_intervals == (1,)


def test_regularity_reads_the_singular_fact_off_the_kernel():
    # |t| is finite at 0, so the coincident nodes at 0.4 leave m_1 = J(0.4) = 0,
    # and regularity and regularity_many must read that off both engines
    tent = custom_kernel(Affine(-1.0, 0.0), Affine(1.0, 0.0))
    p = Problem(n=2, field=two_band_field(), kernel=tent)
    x = NodeSystem((0.4, 0.4))
    assert not tent.singular
    rep = regularity(p, x)
    assert rep.in_Y and rep.singular_intervals == ()
    assert interval_maxima(p, x).values[1].as_float() == 0.0
    assert interval_maxima_batch(p, np.array([x.nodes])).values[0, 1] == 0.0
    assert not regularity_many(p, np.array([x.nodes])).any()


def test_in_Y_iff_every_interval_maximum_is_finite():
    """Seeded: random usc fields x six kernels x n <= 3, with nodes snapped
    to 0, 1 and piece ends and coincident nodes (``_node_rows``)."""
    checked = regular = 0
    for seed in range(30):
        field = _random_usc_field(Random(seed))
        for i, k in enumerate(KERNELS):
            for n in (1, 2, 3):
                try:
                    p = Problem(n=n, field=field, kernel=k)
                except ValueError:  # field finite at too few points for n nodes
                    continue
                X = _node_rows(p, 100 * seed + 10 * i + n, 16)
                singular = regularity_many(p, X)
                for row, covered in zip(X, singular):
                    x = NodeSystem(tuple(row.tolist()))
                    values = interval_maxima(p, x).values
                    finite = all(v.is_finite for v in values)
                    assert regularity(p, x).in_Y == finite, (seed, k.family, x.nodes)
                    # the array function says which m_j are -inf
                    assert covered.tolist() == [not v.is_finite for v in values], x.nodes
                    checked += 1
                    regular += finite
    assert checked > 5_000 and 0 < regular < checked


@dataclass(frozen=True)
class _LogToEdge(Formula):
    """log(1 + sign * t): 0 at t = 0, and -inf with slope sign * inf at
    t = -sign."""

    sign: float

    def value(self, t):
        u = 1.0 + self.sign * t
        return math.log(u) if u > 0.0 else -math.inf

    def values(self, ts):
        with np.errstate(divide="ignore"):
            return np.log(1.0 + self.sign * np.asarray(ts, dtype=float))

    def deriv(self, t):
        u = 1.0 + self.sign * t
        return self.sign / u if u > 0.0 else self.sign * math.inf

    def derivs(self, ts):
        with np.errstate(divide="ignore"):
            return self.sign / (1.0 + self.sign * np.asarray(ts, dtype=float))


# -inf at -1 and at 1, finite at 0: a node at 1 makes the point 0 singular,
# a node at 0 the point 1
EDGE_SINK = custom_kernel(_LogToEdge(1.0), _LogToEdge(-1.0))


def _field(*parts) -> Field:
    return Field(tuple(FieldPiece(Interval(*iv), f) for iv, f in parts))


# fields whose breakpoints and -inf set differ in shape: [0, 1/2) u [1/2, 1]
# (a breakpoint that ends no hole), [0, 1/2) u (1/2, 1] (a point hole) and
# [0, 0.3] u {1/2} u [0.7, 1] (a point piece inside a hole)
EDGE_FIELDS = (
    _field(((0.0, 0.5, True, False), Constant(0.0)), ((0.5, 1.0), Affine(1.0, -0.5))),
    _field(((0.0, 0.5, True, False), Constant(0.0)), ((0.5, 1.0, False, True), Constant(0.2))),
    _field(((0.0, 0.3), Constant(0.0)), ((0.5, 0.5), Constant(1.0)), ((0.7, 1.0), Constant(-0.5))),
)


# fields finite at points only: {1/2}, {0, 1} and {0, 0.3, 1}
POINT_FIELDS = tuple(_field(*(((t, t), Constant(0.0)) for t in pts))
                     for pts in ((0.5,), (0.0, 1.0), (0.0, 0.3, 1.0)))


def _lookup_fields():
    yield from (p.field for p in BATTERY.values())
    yield from (_random_usc_field(Random(seed)) for seed in range(12))
    yield from EDGE_FIELDS + POINT_FIELDS


def _probe_points(J: Field, *extra: float) -> list[float]:
    """Every breakpoint of J and its neighbouring floats, every gap midpoint,
    and ``extra``."""
    bps = J.breakpoints()
    return [*(t for b in bps for t in (math.nextafter(b, -1.0), b, math.nextafter(b, 2.0))),
            *(0.5 * (u + v) for u, v in zip(bps, bps[1:])), *extra]


def _piece_by_scan(J: Field, t: float):
    return next((p for p in J.pieces if p.interval.contains(t)), None)


def test_piece_lookups_match_a_linear_scan():
    """``piece_at`` and ``piece_index`` agree with a scan of the pieces at
    every breakpoint and its neighbouring floats, every gap midpoint, points
    outside [0, 1] and NaN."""
    for J in _lookup_fields():
        ts = _probe_points(J, -0.5, 1.5, -math.inf, math.inf, math.nan)
        want = [_piece_by_scan(J, t) for t in ts]
        assert [J.piece_at(t) for t in ts] == want, J
        assert J.piece_index(np.array(ts)).tolist() == [
            -1 if p is None else J.pieces.index(p) for p in want], J


def test_finite_parts_count_and_nearest_point_match_a_scan_of_the_pieces():
    """``Field.finite_parts``, ``n_field_check`` and the solvers'
    ``_nearest_finite`` against references that read the pieces: the parts
    are the breakpoints and the gaps between neighbours that some piece
    holds, the count is infinite when a piece is an interval and otherwise
    counts the point pieces (1/2 at 0 and 1), and the nearest point is the
    lowest point of the pieces' closures nearest t."""
    for J in _lookup_fields():
        ivs = [p.interval for p in J.pieces]
        bps = sorted({0.0, 1.0, *(e for iv in ivs for e in (iv.a, iv.b))})
        want = sorted([(u, u) for u in bps if _piece_by_scan(J, u)]
                      + [(u, v) for u, v in zip(bps, bps[1:]) if _piece_by_scan(J, 0.5 * (u + v))])
        assert J.finite_parts == tuple(want), J

        count = (math.inf if any(iv.a < iv.b for iv in ivs)
                 else sum(0.5 if iv.a in (0.0, 1.0) else 1.0 for iv in ivs))
        for n in (1, 2, 3, 4):
            assert n_field_check(J, n) == (count > n, count), (J, n)

        for t in _probe_points(J, -0.1, 1.1):
            near = min((abs(c - t), c) for c in (min(max(t, iv.a), iv.b) for iv in ivs))[1]
            assert _nearest_finite(J, t) == near, (J, t)


def _regularity_problems():
    """Random usc fields and the edge fields x the six kernels and the edge
    sink, and the battery."""
    for field in (*(_random_usc_field(Random(seed)) for seed in range(12)), *EDGE_FIELDS):
        for n in (1, 2, 3):
            for k in (*KERNELS, EDGE_SINK):
                try:
                    yield Problem(n=n, field=field, kernel=k)
                except ValueError:  # field finite at too few points for n nodes
                    continue
    yield from BATTERY.values()


def _covered_by_scan(p: Problem, x: NodeSystem, a: float, b: float) -> bool:
    """Whether F(x, .) = -inf on all of [a, b], read from the pieces: no
    piece meets the open (a, b), and each end is a point no piece holds, a
    node of a singular kernel, or 0 or 1 where a node at the other end sees
    K = -inf."""
    def singular(t: float) -> bool:
        return _piece_by_scan(p.field, t) is None or any(
            xj == t and p.kernel.singular
            or t in (0.0, 1.0) and xj == 1.0 - t and p.kernel.eval(t - xj) == -math.inf
            for xj in x.nodes)

    meets = a < b and any(q.interval.intersect(Interval(a, b, False, False)) is not None
                          for q in p.field.pieces)
    return not meets and singular(a) and singular(b)


def test_regularity_many_matches_the_exact_singularity_set():
    """Entry (i, j) is ``_covered_by_scan(p, X[i], s_j, s_{j+1})`` on the
    edge-heavy ``_node_rows``, with rows of nodes all at 0, all at 1 and
    split between them, and ``regularity`` agrees row by row.  The scan
    reads only the pieces, ``Kernel.singular`` and the kernel at -1 and 1,
    so this is the independent check that the -inf set of both engines is
    the exact singularity set."""
    checked = covered = 0
    for i, p in enumerate(_regularity_problems()):
        X = _node_rows(p, 7 * i, 24)
        X[:3] = [[0.0] * p.n, [1.0] * p.n, [0.0] * (p.n - 1) + [1.0]]
        got = regularity_many(p, X)
        assert got.shape == (len(X), p.n + 1) and got.dtype == bool
        for row, singular in zip(X, got):
            x = NodeSystem(tuple(row.tolist()))
            s = x.with_sentinels()
            want = [_covered_by_scan(p, x, s[j], s[j + 1]) for j in range(p.n + 1)]
            assert singular.tolist() == want, (p, x.nodes)
            assert regularity(p, x).singular_intervals == tuple(np.flatnonzero(want))
            checked += 1
            covered += any(want)
    assert checked > 3_000 and 0 < covered < checked


def test_regularity_many_end_rules():
    # a node at 0 puts 1 in the singularity set and a node at 1 puts 0 there
    # when the kernel is -inf at the far end, so with nodes at 0 and 1 the
    # intervals {0} and {1} are singular although the kernel is not
    p = Problem(n=2, field=flat_field(), kernel=EDGE_SINK)
    X = [[0.0, 1.0], [0.0, 0.5], [0.5, 1.0], [0.3, 0.6]]
    assert regularity_many(p, X).tolist() == [[True, False, True]] + [[False] * 3] * 3
    # singular kernels make their nodes singular instead
    for k in (log_kernel(), power_kernel(0.5)):
        q = Problem(n=2, field=flat_field(), kernel=k)
        assert regularity_many(q, X).tolist() == [[True, False, True], [True, False, False],
                                                  [False, False, True], [False] * 3]
    for k in (sqrt_kernel(), zero_kernel()):
        assert not regularity_many(Problem(n=2, field=flat_field(), kernel=k), X).any()


class TestRegularityManyInterface:
    @pytest.mark.parametrize("bad", [[[0.2]], [[0.2, 0.3, 0.4]], [0.2, 0.3], [[0.6, 0.3]],
                                     [[-0.1, 0.3]], [[0.3, 1.5]], [[0.3, float("nan")]]])
    def test_rejects_bad_shapes_and_rows(self, bad):
        with pytest.raises(ValueError):
            regularity_many(BATTERY["log-n2-flat"], bad)

    def test_empty_batch(self):
        for name in ("log-n1-gate", "log-n2-bands", "log-n3-flat"):
            p = BATTERY[name]
            got = regularity_many(p, np.empty((0, p.n)))
            assert got.shape == (0, p.n + 1) and got.dtype == bool, name


# ---------------------------------------------------------------------------
# the batch engine's translate sum against a node-by-node reference


def _ref_pure_many(stack, X, rows, ts, bounds):
    """``_pure_many`` written node by node: two kernel calls per translate."""
    total, slope = np.zeros(ts.shape), np.zeros(ts.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        for q, lo, hi in zip(stack, bounds, bounds[1:]):
            t, r, tot, slp = ts[lo:hi], rows[lo:hi], total[lo:hi], slope[lo:hi]
            for j, w in enumerate(q.weights):
                d = t - X[r, j]
                tot += w * q.kernel.eval_many(d)
                slp += w * q.kernel.derivs(d)
    return total, slope


def _pure_many_stacks():
    """A kernel with weights, a battery problem, stacks of one-kernel
    problems on one field ("generalized": the log kernel with weights and
    the sqrt kernel with weights 2; "generalized-cusp": the power 1.5 and custom cusps), and
    the strictify and singularize stacks of the kernel-limit checks."""
    etas = (0.2, 0.1, 0.05, 0.02)
    shared = Problem(n=3, field=bump_field(), kernel=sqrt_kernel(), weights=(0.5, 1.25, 3.0))
    log_w = Problem(n=3, field=bump_field(), kernel=log_kernel(), weights=(1.0, 2.0, 1.0))
    sqrt_2 = Problem(n=3, field=bump_field(), kernel=sqrt_kernel(), weights=(2.0,) * 3)
    power_cusp = Problem(n=2, field=two_band_field(), kernel=power_kernel(1.5))
    custom_cusp = Problem(n=2, field=two_band_field(), kernel=KERNELS[5])
    yield "shared", (shared,)
    yield "battery", (BATTERY["log-n3-bump"],)
    yield "generalized", (log_w, sqrt_2)
    yield "generalized-cusp", (power_cusp, custom_cusp)
    for p in (shared, sqrt_2, BATTERY["log-n2-bands"], BATTERY["power05-n2-bump"]):
        for direction in ("strictify", "singularize"):
            yield direction, (p, *(_transformed(p, direction, e) for e in etas))
    for p in (power_cusp, custom_cusp):
        yield "singularize", (p, *(_transformed(p, "singularize", e) for e in etas))


@pytest.mark.parametrize("case", list(enumerate(_pure_many_stacks())),
                         ids=lambda c: f"{c[0]}-{c[1][0]}")
def test_pure_many_matches_node_by_node_reference_bitwise(case):
    """Seeded rows and points, with points on nodes (kernel poles and
    cusps), on 0, 1 and piece ends, and empty problem segments."""
    seed, (_, stack) = case
    p = stack[0]
    rng = np.random.default_rng(seed)
    X = _node_rows(p, seed, 30)
    size = 400 * len(stack)
    rows = rng.integers(0, len(X), size)
    ts = rng.uniform(size=size)
    on_node = rng.random(size) < 0.2
    ts[on_node] = X[rows[on_node], rng.integers(0, p.n, int(on_node.sum()))]
    special = rng.random(size) < 0.1
    ts[special] = rng.choice(_special_points(p), int(special.sum()))
    cuts = np.sort(rng.integers(0, size + 1, len(stack) - 1))
    if len(stack) > 2:
        cuts[1] = cuts[0]  # an empty segment
    bounds = np.concatenate([[0], cuts, [size]])
    got, want = _pure_many(stack, X, rows, ts, bounds), _ref_pure_many(stack, X, rows, ts, bounds)
    for a, b in zip(got, want):
        assert _bits(a) == _bits(b)
    assert np.isnan(got[1]).any()  # points on nodes were hit


# ---------------------------------------------------------------------------
# the scalar engine against a reference that builds everything per call


def _ref_sup_on_interval(p, x, q):
    """The scalar engine written per call: F sums ``w_j * eval`` and
    ``w_j * deriv`` translate by translate, points go through
    ``Interval.contains`` and ``Field.eval_float``, cells through
    ``Field.piece_at``, and ties are broken by sorting."""
    def f(t):
        total = slope = 0.0
        for w, xj in zip(p.weights, x.nodes):
            total += w * p.kernel.eval(t - xj)
            slope += w * p.kernel.deriv(t - xj)
        return total, slope

    ends = {e for piece in p.field.pieces for e in (piece.interval.a, piece.interval.b)}
    cuts = sorted(t for t in ends | set(x.nodes) if q.a < t < q.b)
    pts = [q.a] + cuts + ([q.b] if q.b > q.a else [])
    cands = []
    for t in pts:
        if q.contains(t):
            base = p.field.eval_float(t)
            v = -math.inf if base == -math.inf else base + f(t)[0]
            cands.append((v, t, True, 0.0))
    for u, v in zip(pts, pts[1:]):
        piece = p.field.piece_at(0.5 * (u + v))
        if piece is not None:
            def g(t, phi=piece.formula):
                val, slope = f(t)
                return phi.value(t) + val, phi.deriv(t) + slope

            res = concave_max(g, u, v)
            cands.append((res.value, res.argmax, res.interior, res.err))
    best_v = max((c[0] for c in cands), default=-math.inf)
    if best_v == -math.inf:
        return -math.inf, None, False, 0.0
    _, where, attained, err = min((c for c in cands if c[0] == best_v),
                                  key=lambda c: (not c[2], c[3], c[1]))
    err = max([err] + [c[0] + c[3] - best_v for c in cands if c[3] > 0.0])
    return best_v, where, attained, err


def _engine_problems():
    layered = (strictify(log_kernel(), 0.05), singularize(sqrt_kernel(), 0.1))
    for seed in range(6):
        field = _random_usc_field(Random(seed))
        for n in (1, 2, 3):
            for k in KERNELS + layered:
                yield field, n, dict(kernel=k, weights=tuple(0.5 + 0.25 * j for j in range(n)))
            for k in layered:
                yield field, n, dict(kernel=k)
            yield field, n, dict(kernel=power_kernel(0.5), weights=(1.7,) * n)


def _key(value, witness, attained, err):
    """A sup result with its floats as bytes, so -0.0 and NaN count too."""
    return _bits(float(value)), witness, attained, _bits(err)


def test_scalar_engine_matches_per_call_reference_bitwise():
    rng = Random(7)
    checked = 0
    for field, n, kw in _engine_problems():
        try:
            p = Problem(n=n, field=field, **kw)
        except ValueError:  # field finite at too few points for n nodes
            continue
        for row in _node_rows(p, checked, 4):
            x = NodeSystem(tuple(row.tolist()))
            m = interval_maxima(p, x)
            for j, got in enumerate(zip(m.floats(), m.witnesses, m.attained, m.err)):
                want = _ref_sup_on_interval(p, x, x.interval(j))
                assert _key(*got) == _key(*want), (x.nodes, j)
            a, b = sorted(rng.uniform(0.0, 1.0) for _ in range(2))
            q = Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)
            r = sup_on_interval(p, x, q)
            got = (r.value.as_float(), r.witness, r.attained, r.err)
            assert _key(*got) == _key(*_ref_sup_on_interval(p, x, q)), (x.nodes, q)
            checked += 1
    assert checked > 300


def test_problem_pickles_after_a_solve():
    p = BATTERY["log-n2-bump"]
    solve_maximin(p, SolveOptions(multistarts=1))  # builds and caches the plan
    back = pickle.loads(pickle.dumps(p))
    x = NodeSystem((0.3, 0.7))
    assert back == p
    assert interval_maxima(back, x) == interval_maxima(p, x)


def test_replaced_problem_evaluates_its_own_kernel():
    p = Problem(n=2, field=flat_field(), kernel=log_kernel())
    x = NodeSystem((0.3, 0.7))
    before = interval_maxima(p, x)  # caches p's plan
    q = replace(p, kernel=strictify(p.kernel, 0.2))
    after = interval_maxima(q, x)
    # strictify adds 0.2 sqrt|t - x_j| > 0 away from the nodes
    assert all(b > a for a, b in zip(before.floats(), after.floats()))
    want = [_ref_sup_on_interval(q, x, x.interval(j))[0] for j in range(3)]
    assert list(after.floats()) == want
    assert interval_maxima(p, x) == before
