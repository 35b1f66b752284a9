import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fenton_minimax.battery import (bump_field, flat_field, gate_field,
                                    ramp_field, two_band_field)
from fenton_minimax.core import Interval
from fenton_minimax.fields import (Field, FieldPiece, limsup_conditions,
                                   monotone_usc_approximation, n_field_check,
                                   usc_regularize)
from fenton_minimax.formulas import Affine, Constant, LogWeight, Quadratic
from fenton_minimax.schema import formula_from_json, formula_to_json

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestFormulas:
    def test_constant(self):
        f = Constant(2.5)
        assert f.value(0.3) == 2.5
        assert f.sup_on(0.1, 0.9) == (2.5, 0.1)

    def test_affine_sup_at_correct_end(self):
        up = Affine(2.0, 1.0)
        assert up.sup_on(0.0, 0.5) == (2.0, 0.5)
        down = Affine(-2.0, 1.0)
        assert down.sup_on(0.0, 0.5) == (1.0, 0.0)
        assert down.inf_on(0.0, 0.5) == (0.0, 0.5)

    def test_quadratic_vertex_clipping(self):
        f = Quadratic(-1.0, 1.0, 0.0)  # vertex at 0.5
        v, arg = f.sup_on(0.0, 1.0)
        assert (v, arg) == (0.25, 0.5)
        v, arg = f.sup_on(0.6, 1.0)  # vertex outside: end wins
        assert arg == 0.6
        with pytest.raises(ValueError):
            Quadratic(1.0, 0.0, 0.0)

    def test_logweight(self):
        f = LogWeight(Affine(1.0, 0.5))
        assert f.value(0.5) == math.log(1.0)
        v, arg = f.sup_on(0.1, 0.9)
        assert arg == 0.9 and v == math.log(1.4)

    def test_logweight_rejects_nested(self):
        with pytest.raises(ValueError):
            LogWeight(LogWeight(Affine(1.0, 0.5)))

    @given(st.floats(-3, 3), st.floats(-3, 3), unit_floats, unit_floats,
           unit_floats)
    def test_affine_sup_dominates_samples(self, alpha, beta, a, b, t):
        a, b = sorted((a, b))
        f = Affine(alpha, beta)
        v, arg = f.sup_on(a, b)
        assert a <= arg <= b
        assert v == f.value(arg)
        if a <= t <= b:
            assert f.value(t) <= v + 1e-12

    @given(st.floats(-3, 0), st.floats(-3, 3), st.floats(-3, 3), unit_floats,
           unit_floats, unit_floats)
    def test_quadratic_sup_dominates_samples(self, qa, qb, qc, a, b, t):
        a, b = sorted((a, b))
        f = Quadratic(qa, qb, qc)
        v, arg = f.sup_on(a, b)
        assert a <= arg <= b
        assert v == pytest.approx(f.value(arg), abs=1e-12)
        if a <= t <= b:
            assert f.value(t) <= v + 1e-9

    @pytest.mark.parametrize("f", [Constant(1.5), Affine(-2.0, 0.3), Affine(0.7, 0.1),
                                   Quadratic(0.0, -0.4, 0.2), Quadratic(-1.0, 0.5, 0.125),
                                   LogWeight(Affine(1.0, 0.5)), LogWeight(Affine(-0.9, 1.0)),
                                   LogWeight(Quadratic(-1.0, 0.5, 0.75)),
                                   LogWeight(Quadratic(0.0, 0.3, 0.4))])
    @pytest.mark.parametrize("slope", [-8.0, -1.0, 0.0, 0.5, 4.0])
    def test_sup_with_a_slope_dominates_a_grid(self, f, slope):
        # the exact max of f(s) + slope * s is attained at its argmax and is
        # at least every grid value, up to rounding
        for a, b in ((0.0, 1.0), (0.2, 0.3), (0.55, 0.95), (0.4, 0.4)):
            v, arg = f.sup_on(a, b, slope)
            assert a <= arg <= b
            assert v == pytest.approx(f.value(arg) + slope * arg, abs=1e-14)
            grid = np.linspace(a, b, 1001)
            assert v >= max(f.value(s) + slope * s for s in grid) - 1e-12, (a, b)
            if slope == 0.0:
                assert (v, arg) == f.sup_on(a, b)

    @pytest.mark.parametrize("f", [Constant(1.5), Affine(-2.0, 0.3),
                                   Quadratic(-1.0, 0.5, 0.125),
                                   LogWeight(Affine(1.0, 0.5))])
    def test_json_roundtrip(self, f):
        back = formula_from_json(formula_to_json(f))
        assert back == f


class TestField:
    def test_eval_inside_and_outside(self):
        J = ramp_field()
        assert J.eval_float(0.25) == 0.25
        assert J.eval_float(0.5) == -math.inf
        assert J.eval_float(0.75) == -math.inf

    def test_eval_many(self):
        J = two_band_field()
        ts = np.array([0.0, 0.1, 0.25, 0.5, 0.6, 0.95])
        vs = J.eval_many(ts)
        assert list(np.isfinite(vs)) == [False, True, True, False, True, False]

    def test_overlapping_pieces_rejected(self):
        with pytest.raises(ValueError):
            Field(pieces=(FieldPiece(Interval(0.0, 0.5), Constant(0.0)),
                          FieldPiece(Interval(0.5, 1.0), Constant(1.0))))
        # half-open abutment is fine
        Field(pieces=(FieldPiece(Interval(0.0, 0.5, closed_right=False), Constant(0.0)),
                      FieldPiece(Interval(0.5, 1.0), Constant(1.0))))

    def test_pieces_must_fit_unit_interval(self):
        with pytest.raises(ValueError):
            Field(pieces=(FieldPiece(Interval(-0.1, 0.5), Constant(0.0)),))

    def test_upper_bound(self):
        assert flat_field().upper_bound == 0.0
        assert bump_field().upper_bound == 0.0
        assert ramp_field().upper_bound == 0.5  # sup, not attained

    def test_breakpoints(self):
        assert ramp_field().breakpoints() == (0.0, 0.5, 1.0)
        assert two_band_field().breakpoints() == (0.0, 0.1, 0.4, 0.6, 0.9, 1.0)


class TestUscRegularize:
    def test_gate_closes_right_end(self):
        J = usc_regularize(gate_field())
        assert J.eval_float(0.5) == 0.0
        assert J.eval_float(0.5000001) == -math.inf

    def test_ramp_takes_limit_value(self):
        J = usc_regularize(ramp_field())
        assert J.eval_float(0.5) == 0.5
        assert J.eval_float(0.25) == 0.25

    def test_closed_bands_unchanged(self):
        J0 = two_band_field()
        J1 = usc_regularize(J0)
        for t in np.linspace(0, 1, 101):
            assert J1.eval_float(float(t)) == J0.eval_float(float(t))

    def test_interior_jump_keeps_larger_limit(self):
        J = Field(pieces=(
            FieldPiece(Interval(0.0, 0.5, closed_right=False), Constant(1.0)),
            FieldPiece(Interval(0.5, 1.0), Constant(0.0))))
        Js = usc_regularize(J)
        assert Js.eval_float(0.5) == 1.0
        assert Js.eval_float(0.51) == 0.0

    def test_one_point_hole_closes_into_one_piece(self):
        # both one-sided limits at 1/2 are 1: the two pieces close there and merge
        J = Field(pieces=(
            FieldPiece(Interval(0.0, 0.5, closed_right=False), Constant(1.0)),
            FieldPiece(Interval(0.5, 1.0, closed_left=False), Constant(1.0))))
        assert usc_regularize(J) == Field(pieces=(FieldPiece(Interval(0.0, 1.0),
                                                             Constant(1.0)),))

    def test_spike_keeps_its_point_piece(self):
        # J(1/2) = 1 is above both one-sided limits, 0: it stays an isolated point
        J = Field(pieces=(
            FieldPiece(Interval(0.0, 0.5, closed_right=False), Constant(0.0)),
            FieldPiece(Interval(0.5, 0.5), Constant(1.0)),
            FieldPiece(Interval(0.5, 1.0, closed_left=False), Constant(0.0))))
        Js = usc_regularize(J)
        assert Js == J
        assert usc_regularize(Js) == Js

    def test_field_finite_at_four_points_unchanged(self):
        # -inf but at four isolated points: usc already
        J = Field(pieces=tuple(FieldPiece(Interval(t, t), Constant(v)) for t, v in
                               ((0.1, 0.0), (0.35, -0.3), (0.5, 0.2), (0.9, 0.1))))
        assert usc_regularize(J) == J

    def test_idempotent_on_battery(self):
        for J in (flat_field(), bump_field(), ramp_field(), two_band_field(),
                  gate_field()):
            once = usc_regularize(J)
            twice = usc_regularize(once)
            for t in np.linspace(0, 1, 257):
                assert once.eval_float(float(t)) == twice.eval_float(float(t))

    def test_majorizes_and_keeps_sup(self):
        for J in (ramp_field(), gate_field(), two_band_field()):
            Js = usc_regularize(J)
            assert Js.upper_bound == J.upper_bound
            for t in np.linspace(0, 1, 257):
                assert Js.eval_float(float(t)) >= J.eval_float(float(t))


class TestNFieldCheck:
    def test_interval_means_infinite(self):
        c = n_field_check(flat_field(), 3)
        assert c.valid and c.weighted_count == math.inf

    def test_endpoint_weights(self):
        # finite at {0, 0.5, 1}: weighted count 1/2 + 1 + 1/2 = 2
        J = Field(pieces=(FieldPiece(Interval(0.0, 0.0), Constant(0.0)),
                          FieldPiece(Interval(0.5, 0.5), Constant(0.0)),
                          FieldPiece(Interval(1.0, 1.0), Constant(0.0))))
        c1 = n_field_check(J, 1)
        assert c1.weighted_count == 2.0 and c1.valid
        c2 = n_field_check(J, 2)
        assert not c2.valid

    def test_n_floor(self):
        with pytest.raises(ValueError):
            n_field_check(flat_field(), 0)


class TestLimsupConditions:
    def test_flat_has_everything(self):
        c = limsup_conditions(flat_field())
        assert c.two_sided and c.weak and c.full and c.usc

    def test_gate_fails_usc(self):
        # the inequalities read limsup >= J(t), so they hold vacuously at the
        # missing endpoint; only usc (the reverse inequality) breaks
        c = limsup_conditions(gate_field())
        assert not c.usc
        assert not c.full
        assert c.two_sided and c.weak

    def test_bands_usc_but_one_sided(self):
        c = limsup_conditions(two_band_field())
        assert c.usc
        assert not c.two_sided


class TestMonotoneApproximation:
    def test_majorizes_field(self):
        g = usc_regularize(ramp_field())
        env = monotone_usc_approximation(g, 16.0)
        for t in np.linspace(0, 1, 101):
            gt = g.eval_float(float(t))
            if gt > -math.inf:
                assert env(float(t)) >= gt - 1e-12

    def test_decreases_in_k(self):
        g = usc_regularize(two_band_field())
        e1 = monotone_usc_approximation(g, 4.0)
        e2 = monotone_usc_approximation(g, 64.0)
        for t in np.linspace(0, 1, 101):
            assert e2(float(t)) <= e1(float(t)) + 1e-12

    def test_max_is_exact(self):
        for J in (bump_field(), usc_regularize(ramp_field()), two_band_field()):
            for k in (4.0, 64.0, 1024.0):
                env = monotone_usc_approximation(J, k)
                grid = np.linspace(0, 1, 513)
                m = max(env(float(t)) for t in grid)
                assert m == pytest.approx(J.upper_bound, abs=1e-12)

    def test_closed_form_outside_gap(self):
        # to the right of the band [0.1, 0.4], the envelope decays linearly
        g = Field(pieces=(FieldPiece(Interval(0.1, 0.4), Constant(2.0)),))
        env = monotone_usc_approximation(g, 8.0)
        assert env(0.4) == pytest.approx(2.0)
        assert env(0.65) == pytest.approx(2.0 - 8.0 * 0.25)
        assert env(0.0) == pytest.approx(2.0 - 8.0 * 0.1)

    def test_lipschitz_bound_holds(self):
        g = usc_regularize(gate_field())
        k = 32.0
        env = monotone_usc_approximation(g, k)
        ts = np.linspace(0, 1, 201)
        vs = [env(float(t)) for t in ts]
        steps = np.abs(np.diff(vs))
        assert steps.max() <= k * (ts[1] - ts[0]) + 1e-9

    def test_rejects_argument_outside_unit_interval(self):
        env = monotone_usc_approximation(bump_field(), 8.0)
        with pytest.raises(ValueError, match="outside"):
            env(1.5)
