import math

import pytest
from hypothesis import given, strategies as st

from fenton_minimax.core import NEG_INF, ExtendedReal, Interval, NodeSystem


class TestExtendedReal:
    def test_finite_roundtrip(self):
        x = ExtendedReal(1.5)
        assert x.is_finite
        assert x.as_float() == 1.5

    def test_neg_inf_tag(self):
        assert not NEG_INF.is_finite
        assert NEG_INF.as_float() == -math.inf

    def test_rejects_nan_and_pos_inf(self):
        with pytest.raises(ValueError):
            ExtendedReal(math.nan)
        with pytest.raises(ValueError):
            ExtendedReal(math.inf)

    def test_ordering(self):
        assert NEG_INF < ExtendedReal(-1e300)
        assert ExtendedReal(1.0) <= ExtendedReal(1.0)
        assert max(NEG_INF, ExtendedReal(0.0)) == 0.0


class TestInterval:
    def test_degenerate_must_be_closed(self):
        assert Interval(0.3, 0.3).contains(0.3)
        with pytest.raises(ValueError):
            Interval(0.3, 0.3, closed_right=False)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Interval(0.7, 0.3)

    def test_contains_respects_flags(self):
        half = Interval(0.0, 0.5, closed_right=False)
        assert half.contains(0.0)
        assert half.contains(0.49999)
        assert not half.contains(0.5)
        assert not half.contains(math.nan)

    def test_intersect_flags(self):
        a = Interval(0.0, 0.5, closed_right=False)
        b = Interval(0.25, 1.0)
        c = a.intersect(b)
        assert (c.a, c.b, c.closed_left, c.closed_right) == (0.25, 0.5, True, False)

    def test_intersect_empty(self):
        assert Interval(0.0, 0.3).intersect(Interval(0.7, 1.0)) is None
        # touching at a point where one side is open
        assert Interval(0.0, 0.5, closed_right=False).intersect(
            Interval(0.5, 1.0)) is None
        touch = Interval(0.0, 0.5).intersect(Interval(0.5, 1.0))
        assert touch is not None and touch.a == touch.b

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_intersect_membership(self, a1, b1, a2, b2):
        a1, b1 = sorted((a1, b1))
        a2, b2 = sorted((a2, b2))
        i1, i2 = Interval(a1, b1), Interval(a2, b2)
        got = i1.intersect(i2)
        for t in (a1, b1, a2, b2, 0.5 * (max(a1, a2) + min(b1, b2))):
            both = i1.contains(t) and i2.contains(t)
            assert both == (got is not None and got.contains(t))


class TestNodeSystem:
    def test_basic(self):
        x = NodeSystem((0.2, 0.5, 0.9))
        assert x.n == 3
        assert x.with_sentinels() == (0.0, 0.2, 0.5, 0.9, 1.0)
        assert x.interval(0) == Interval(0.0, 0.2)
        assert x.interval(3) == Interval(0.9, 1.0)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            NodeSystem((0.5, 0.2))
        with pytest.raises(ValueError):
            NodeSystem((-0.1,))
        with pytest.raises(ValueError):
            NodeSystem((1.1,))
        NodeSystem((0.3, 0.3))  # ties are allowed

    def test_interval_index_bounds(self):
        x = NodeSystem((0.5,))
        with pytest.raises(IndexError):
            x.interval(2)
        with pytest.raises(IndexError):
            x.interval(-1)

    def test_classify(self):
        assert NodeSystem((0.2, 0.8)).classify() == "interior"
        assert NodeSystem((0.0, 0.8)).classify() == "boundary"
        assert NodeSystem((0.2, 0.2)).classify() == "boundary"
        assert NodeSystem((0.2, 1.0)).classify() == "boundary"

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=5))
    def test_sorted_tuples_accepted(self, vals):
        xs = tuple(sorted(vals))
        x = NodeSystem(xs)
        ivs = [x.interval(j) for j in range(x.n + 1)]
        assert ivs[0].a == 0.0 and ivs[-1].b == 1.0
        for left, right in zip(ivs, ivs[1:]):
            assert left.b == right.a
