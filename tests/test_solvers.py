import json
import math
import re
from dataclasses import replace
from functools import partial
from itertools import combinations_with_replacement
from random import Random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fenton_minimax import solvers
from fenton_minimax.battery import (BATTERY, battery_problem, bump_field, flat_field,
                                    gate_field, ramp_field, two_band_field)
from fenton_minimax.checks import (_random_usc_field, _regularized, _usc_maximin_slack,
                                   check_equioscillation_value,
                                   check_minimax_equals_maximin)
from fenton_minimax.core import ExtendedReal, Interval, NEG_INF, NodeSystem
from fenton_minimax.fields import Field, FieldPiece, usc_regularize
from fenton_minimax.formulas import Affine, Constant, LogWeight, Quadratic
from fenton_minimax.kernels import (Kernel, custom_kernel, log_kernel, power_kernel,
                                    singularize, sqrt_kernel, strictify, zero_kernel)
from fenton_minimax.schema import (options_from_json, options_to_json,
                                   problem_from_json, problem_to_json)
from fenton_minimax.solvers import (SolveOptions, SolveReport, TraceRecord, _check_budget,
                                    _draw, _maximin_search, _minimax_search,
                                    _oracle_grid, _oracle_rows, _place, _repair,
                                    brute_maximin, brute_minimax,
                                    solve_equioscillation, solve_maximin, solve_minimax)
from fenton_minimax.sumtrans import Problem, _maxima_fn, _pure_fun, _value_at, interval_maxima

X2_STAR = (0.5 - 0.5 / math.sqrt(2.0), 0.5 + 0.5 / math.sqrt(2.0))

FAST = SolveOptions(multistarts=4)

# One kernel per family, plus a second power exponent and a non-monotone
# custom kernel (concave quadratic sides, peak at 0).
KERNELS = (
    zero_kernel(), log_kernel(), sqrt_kernel(), power_kernel(0.5),
    power_kernel(1.5),
    custom_kernel(Quadratic(-1.0, -1.0, 0.0), Quadratic(-1.0, 1.0, 0.0)),
)


@st.composite
def random_problems(draw, kernels=KERNELS):
    """A valid problem on a random usc field (-inf gaps, half-open pieces)."""
    field = _random_usc_field(Random(draw(st.integers(0, 2**32 - 1))))
    kernel = draw(st.sampled_from(kernels))
    n = draw(st.integers(1, 3))
    try:
        return Problem(n=n, field=field, kernel=kernel)
    except ValueError:  # field finite at too few points for n nodes
        assume(False)


@st.composite
def transformed_problems(draw):
    """A random problem whose kernel is strictified (monotone kernels only)
    or singularized once or twice, with drawn weights."""
    p = draw(random_problems())
    k = p.kernel
    strict = k.monotone and draw(st.booleans())
    if strict:
        k = strictify(k, draw(st.floats(1e-3, 1.0)))
    for _ in range(draw(st.integers(0 if strict else 1, 2))):
        k = singularize(k, draw(st.floats(1e-3, 1.0)))
    return replace(p, kernel=k, weights=tuple(draw(st.floats(0.125, 8.0)) for _ in range(p.n)))


solve_options = st.builds(
    SolveOptions, multistarts=st.integers(1, 64), seed=st.integers(-2**63, 2**63))


class TestJsonRoundTrip:
    """The strict readers accept every document the writers emit."""

    @given(transformed_problems())
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_problem(self, p):
        d = problem_to_json(p)
        assert problem_to_json(problem_from_json(json.loads(json.dumps(d)))) == d

    @given(solve_options)
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_options(self, o):
        d = options_to_json(o)
        assert options_to_json(options_from_json(json.loads(json.dumps(d)))) == d


class TestSolveOptions:
    def test_defaults_valid(self):
        SolveOptions()

    # multistarts is the one value checked; the tolerances and schedules
    # the other rows set are solver constants, no longer keywords
    @pytest.mark.parametrize("kw", [
        {"tol_residual": 0.0},
        {"tol_step": -1e-9},
        {"fd_step": 0.0},
        {"max_iters": 0},
        {"multistarts": 0},
        {"continuation_etas": (0.2, 0.1)},
        {"continuation_etas": (0.1, 0.2, 0.0)},
        {"continuation_etas": ()},
        {"tol_residual": math.nan},
        {"tol_step": math.inf},
        {"fd_step": math.inf},
        {"fd_step": math.nan},
        {"continuation_etas": (0.2, math.nan, 0.0)},
        {"continuation_etas": (math.inf, 0.1, 0.0)},
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError if "multistarts" in kw else TypeError):
            SolveOptions(**kw)


class TestEquioscillation1d:
    def test_flat_log_centers(self):
        rep = solve_equioscillation(battery_problem("log-n1-flat"))
        assert rep.status == "converged"
        assert rep.x.nodes[0] == pytest.approx(0.5, abs=1e-9)
        assert rep.value.as_float() == pytest.approx(math.log(0.5), abs=1e-9)
        assert rep.residual <= 1e-8

    def test_gate_snaps_to_quarter(self):
        rep = solve_equioscillation(battery_problem("log-n1-gate"))
        assert rep.status == "converged"
        assert rep.x.nodes[0] == pytest.approx(0.25, abs=1e-9)
        assert rep.value.as_float() == pytest.approx(math.log(0.25), abs=1e-9)

    def test_ramp_zero_kernel_has_no_root(self):
        rep = solve_equioscillation(battery_problem("zero-n1-ramp"))
        assert rep.status == "stalled"
        assert rep.note.startswith("none-found")
        assert rep.x is not None  # best-effort point, not a root
        assert rep.residual > 1e-8

    def test_regularized_ramp_recovers_root(self):
        base = battery_problem("zero-n1-ramp")
        p = Problem(n=1, field=usc_regularize(base.field), kernel=base.kernel)
        rep = solve_equioscillation(p)
        assert rep.status == "converged"
        assert rep.x.nodes[0] == 0.5
        assert rep.residual == 0.0
        assert rep.value.as_float() == 0.5

    @pytest.mark.parametrize("seed", [0, 5, 9, 10, 19, 23, 27, 28])
    def test_root_near_an_end_is_found(self, seed):
        # the zero kernel on these fields has its root within 1/256 of 0 or
        # 1, outside the interior scan points; the scan also tries 0 and 1
        p = Problem(n=1, field=_random_usc_field(Random(seed)), kernel=zero_kernel())
        rep = solve_equioscillation(p, SolveOptions(multistarts=8))
        assert rep.status == "converged", rep.note
        assert rep.residual <= 1e-8

    def test_trace_is_recorded(self):
        rep = solve_equioscillation(battery_problem("log-n1-flat"))
        assert rep.trace
        its = [r.iteration for r in rep.trace]
        assert its == sorted(its)
        assert rep.trace[-1].residual == rep.residual


# J = t on [0, 1/2), -1 on [1/2, 1]: finite everywhere, not usc at 1/2
STEP_FIELD = Field((FieldPiece(Interval(0.0, 0.5, closed_right=False), Affine(1.0, 0.0)),
                    FieldPiece(Interval(0.5, 1.0), Constant(-1.0))))


class TestHalfOpenFields:
    """Fields that are not usc are solved through their usc regularization
    J*, and J is tested at J*'s point."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_kernel_ramp_stalls_at_the_break(self, n):
        # J* equioscillates only with every node at 1/2, where the last
        # interval maximum of J is J(1/2) = -inf: J has no such point
        rep = solve_equioscillation(Problem(n=n, field=ramp_field(), kernel=zero_kernel()),
                                    FAST)
        assert rep.status == "stalled"
        assert rep.x.nodes == (0.5,) * n
        assert rep.value.as_float() == 0.5
        assert rep.note.startswith("none-found")
        assert rep.residual > solvers._TOL_RESIDUAL
        assert rep.solutions == rep.converged_starts == ()

    def test_zero_kernel_step_field_stalls_at_the_break(self):
        rep = solve_equioscillation(Problem(n=1, field=STEP_FIELD, kernel=zero_kernel()),
                                    FAST)
        assert rep.status == "stalled"
        assert rep.x.nodes == (0.5,)
        assert rep.value.as_float() == 0.5
        assert rep.residual == 1.5  # m = (1/2, -1) at x = 1/2

    @pytest.mark.parametrize("field", [ramp_field, gate_field])
    @pytest.mark.parametrize("n", [2, 3])
    def test_log_kernel_converges(self, field, n):
        p = Problem(n=n, field=field(), kernel=log_kernel())
        rep = solve_equioscillation(p, FAST)
        assert rep.status == "converged"
        assert rep.residual <= solvers._TOL_RESIDUAL
        assert rep.x in rep.converged_starts
        m = interval_maxima(p, rep.x).floats()
        assert max(m) - min(m) <= solvers._TOL_RESIDUAL
        if field is gate_field:
            assert abs(rep.value.as_float() - (1 - 3 * n) * math.log(2.0)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trace_ends_at_the_reported_point(self, n):
        # the last record is J's residual and value at J*'s point, not the
        # Newton point of J* that the snap moved onto the break
        rep = solve_equioscillation(Problem(n=n, field=ramp_field(), kernel=zero_kernel()),
                                    FAST)
        last = rep.trace[-1]
        assert (last.x, last.residual, last.value) == (rep.x.nodes, rep.residual,
                                                       rep.value.as_float())

    def test_trace_ends_at_the_snapped_point(self):
        p = Problem(n=2, field=usc_regularize(ramp_field()), kernel=zero_kernel())
        rep = solve_equioscillation(p, FAST)
        assert rep.x.nodes == (0.5, 0.5) and rep.residual == 0.0
        *newton, last = rep.trace
        assert newton[-1].x != (0.5, 0.5) and newton[-1].residual > 0.0
        assert last == (newton[-1].iteration, 0.0, 0.5, (0.5, 0.5))

    def test_snap_moves_nodes_jointly(self):
        # where Newton on J* of the zero-kernel ramp stops at n = 2; moving
        # x_2 alone onto 1/2 doubles the residual, x_1 alone unorders the nodes
        p = Problem(n=2, field=usc_regularize(ramp_field()), kernel=zero_kernel())
        x = np.array([0.5 - 8.7e-15, 0.5 - 4.4e-15])
        res = solvers._residual(solvers._phi(p, x))
        assert res > 0.0
        xs, rs = solvers._snap(p, x, res, partial(solvers._phi, p))
        assert xs.tolist() == [0.5, 0.5]
        assert rs == 0.0


class TestEquioscillationNd:
    def test_two_node_flat_log_closed_form(self):
        rep = solve_equioscillation(battery_problem("log-n2-flat"), FAST)
        assert rep.status == "converged"
        assert rep.x.nodes[0] == pytest.approx(X2_STAR[0], abs=1e-6)
        assert rep.x.nodes[1] == pytest.approx(X2_STAR[1], abs=1e-6)
        assert rep.value.as_float() == pytest.approx(-math.log(8.0), abs=1e-8)

    def test_three_node_flat_log(self):
        rep = solve_equioscillation(battery_problem("log-n3-flat"), FAST)
        assert rep.status == "converged"
        assert rep.value.as_float() == pytest.approx(-math.log(32.0), abs=1e-7)
        p = battery_problem("log-n3-flat")
        assert np.abs(np.diff(interval_maxima(p, rep.x).floats())).max() <= 1e-6
        # symmetric problem, symmetric solution
        assert rep.x.nodes[1] == pytest.approx(0.5, abs=1e-6)

    def test_bump_two_nodes_equioscillates(self):
        p = battery_problem("log-n2-bump")
        rep = solve_equioscillation(p, FAST)
        assert rep.status == "converged"
        m = interval_maxima(p, rep.x).floats()
        assert max(m) - min(m) <= 1e-6
        assert rep.solutions  # cluster representatives for uniqueness probes

    def test_converged_starts_are_the_unmerged_solutions(self):
        # every start runs, so there are converged starts to merge
        rep = solvers._equioscillation(battery_problem("log-n2-bump"),
                                       SolveOptions(multistarts=8), every=True)
        assert len(rep.converged_starts) > len(rep.solutions) >= 1
        assert rep.x in rep.converged_starts
        for s in rep.converged_starts:
            assert any(max(abs(a - b) for a, b in zip(s.nodes, u.nodes)) <= 1e-5
                       for u in rep.solutions)

    @pytest.mark.parametrize("name", ["log-n1-gate", "log-n2-bump", "zero-n2-bands",
                                      "sqrt-n3-bump"])
    def test_trace_values_are_overall_maxima(self, name):
        # the solver takes them from maxima it already has; they must be
        # the floats a fresh evaluation at the recorded point gives
        p = battery_problem(name)
        rep = solve_equioscillation(p, FAST)
        assert rep.trace
        for rec in rep.trace:
            m = interval_maxima(p, NodeSystem(rec.x)).max_value.as_float()
            assert np.float64(rec.value).tobytes() == np.float64(m).tobytes()

    def test_determinism(self):
        a = solve_equioscillation(battery_problem("log-n2-bump"), FAST)
        b = solve_equioscillation(battery_problem("log-n2-bump"), FAST)
        assert a.x.nodes == b.x.nodes
        assert a.value.as_float() == b.value.as_float()
        assert a.iterations == b.iterations

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kernel", [log_kernel(), power_kernel(0.5), sqrt_kernel(),
                                        zero_kernel()], ids=["log", "power05", "sqrt", "zero"])
    def test_first_converged_start_agrees_with_every_start(self, kernel, n):
        # the first-converged solve runs a prefix of the starts of the
        # every-start one: its one converged start is the first of those,
        # and with none converged it is the every-start solve itself
        for seed in range(12):
            p = Problem(n=n, field=_random_usc_field(Random(seed)), kernel=kernel)
            first = solve_equioscillation(p, FAST)
            every = solvers._equioscillation(p, FAST, every=True)
            assert first.status == every.status, seed
            if first.status != "converged":
                assert first == every, seed
                continue
            assert first.converged_starts == every.converged_starts[:1]
            assert first.solutions == first.converged_starts
            gap = abs(first.value.as_float() - every.value.as_float())
            assert gap <= n * (first.residual + every.residual) + 1e-13, seed

    def test_a_stalled_start_is_followed_by_the_next(self):
        # the even start and the first random start stall on this field,
        # and the second random start converges
        p = Problem(n=5, field=_random_usc_field(Random(12)), kernel=sqrt_kernel())
        assert solve_equioscillation(p, SolveOptions(multistarts=1)).status == "stalled"
        rep = solve_equioscillation(p, SolveOptions(multistarts=8))
        assert rep.status == "converged"
        assert len(rep.converged_starts) == 1

    @pytest.mark.parametrize("name", sorted(n for n, p in BATTERY.items() if p.n >= 2))
    def test_converged_point_is_polished(self, name):
        # one Newton step past _TOL_RESIDUAL leaves |Phi| at rounding level
        rep = solve_equioscillation(BATTERY[name], FAST)
        assert rep.status == "converged"
        assert rep.residual <= 1e-14

    def test_newton_counts_the_steps_it_takes(self):
        # from the even start, the zero kernel on this field stalls on a
        # step below _TOL_STEP after two steps, with |Phi| far above tol
        p = Problem(n=3, field=_random_usc_field(Random(15)), kernel=zero_kernel())
        x, res, iters, trace = solvers._newton(p, solvers._even_start(p))
        assert res > solvers._TOL_RESIDUAL
        assert iters == trace[-1].iteration < solvers._MAX_ITERS
        assert np.max(np.abs(np.subtract(trace[-1].x, trace[-2].x))) < solvers._TOL_STEP


class TestMinimaxMaximin:
    def test_flat_log_two_nodes(self):
        pm = solve_minimax(battery_problem("log-n2-flat"), FAST)
        px = solve_maximin(battery_problem("log-n2-flat"), FAST)
        assert pm.status == "converged" and px.status == "converged"
        assert pm.value.as_float() == pytest.approx(-math.log(8.0), abs=1e-6)
        assert px.value.as_float() == pytest.approx(-math.log(8.0), abs=1e-6)

    def test_ramp_sup_semantics(self):
        # the overall max is the unattained sup 1/2; minimax still sees it
        pm = solve_minimax(battery_problem("zero-n1-ramp"))
        assert pm.value.as_float() == pytest.approx(0.5, abs=1e-6)
        px = solve_maximin(battery_problem("zero-n1-ramp"))
        assert px.value.as_float() == pytest.approx(0.5, abs=1e-3)

    def test_power_kernel_single_node(self):
        rep = solve_minimax(battery_problem("power05-n1-flat"))
        assert rep.value.as_float() == pytest.approx(-math.sqrt(2.0), abs=1e-6)

    def test_minimax_dominates_maximin_on_battery(self):
        for name in ("log-n1-flat", "log-n2-bump", "sqrt-n2-flat"):
            pm = solve_minimax(battery_problem(name), FAST)
            px = solve_maximin(battery_problem(name), FAST)
            assert px.value.as_float() <= pm.value.as_float() + 1e-6

    @pytest.mark.parametrize("name", ["zero-n1-ramp", "log-n2-bump", "sqrt-n3-bump"])
    def test_each_search_traces_its_own_path(self, name):
        # the start and every accepted poll, each value the objective at its
        # point, improving; the last record is the reported point
        p = battery_problem(name)
        eq = solve_equioscillation(p, FAST)
        for search, objective in ((_minimax_search, max), (_maximin_search, min)):
            rep = search(p, FAST, eq)
            sign = 1.0 if objective is min else -1.0
            assert rep.trace and rep.trace != eq.trace
            assert rep.trace[0].residual == 0.125
            for rec, nxt in zip(rep.trace, rep.trace[1:]):
                assert sign * nxt.value >= sign * rec.value
                assert nxt.residual <= rec.residual
            for rec in rep.trace:
                m = objective(interval_maxima(p, NodeSystem(rec.x)).floats())
                assert np.float64(rec.value).tobytes() == np.float64(m).tobytes()
            last = rep.trace[-1]
            assert (last.x, last.value, last.residual) == (
                rep.x.nodes, rep.value.as_float(), rep.residual)


CERTIFIED = re.compile(r"certified by Theorem 1\.3: M in \[(\S+), (\S+)\]")


def _certificate(rep):
    """(lo, hi) of a certified report's note, or None."""
    m = CERTIFIED.fullmatch(rep.note)
    return None if m is None else (float(m[1]), float(m[2]))


class _PatternCalls(list):
    """The sign of each pattern search run; with ``forbid`` set, a search raises."""

    forbid = False


@pytest.fixture
def pattern_calls(monkeypatch):
    calls = _PatternCalls()
    pattern = solvers._pattern

    def counted(p, x0, sign, rows0):
        if calls.forbid:
            raise AssertionError("a pattern search ran")
        calls.append(sign)
        return pattern(p, x0, sign, rows0)

    monkeypatch.setattr(solvers, "_pattern", counted)
    return calls


class TestCertificate:
    """Theorem 1.3's bracket at the equioscillation point: minimax and
    maximin return that point with no search when it closes."""

    @pytest.mark.parametrize("name", sorted(n for n in BATTERY if n != "zero-n1-ramp"))
    def test_battery_is_certified_without_search(self, name, pattern_calls):
        pattern_calls.forbid = True
        p = BATTERY[name]
        eq = solve_equioscillation(p, FAST)
        m = interval_maxima(p, eq.x)
        for solve, objective in ((solve_minimax, max), (solve_maximin, min)):
            rep = solve(p, FAST, eq=eq)
            lo, hi = _certificate(rep)
            value = rep.value.as_float()
            assert rep.status == "converged" and rep.x == eq.x
            assert np.float64(value).tobytes() == np.float64(objective(m.floats())).tobytes()
            assert lo == min(m.floats()) <= value <= hi
            assert rep.residual == hi - lo <= solvers._TOL_CERTIFY
            assert (rep.iterations, rep.solutions) == (eq.iterations, eq.solutions)
            assert rep.trace == (TraceRecord(0, rep.residual, value, eq.x.nodes),)

    def test_own_equioscillation_run_certifies(self, pattern_calls):
        pattern_calls.forbid = True
        p = battery_problem("log-n2-bump")
        eq = solve_equioscillation(p, FAST)
        assert solve_minimax(p, FAST) == solve_minimax(p, FAST, eq=eq)
        assert solve_maximin(p, FAST) == solve_maximin(p, FAST, eq=eq)
        assert _certificate(solve_maximin(p, FAST)) is not None

    @pytest.mark.parametrize("p", [
        pytest.param(BATTERY["zero-n1-ramp"], id="zero-n1-ramp"),
        pytest.param(Problem(n=2, field=ramp_field(), kernel=zero_kernel()), id="zero-n2-ramp"),
        # equioscillation stalls at max J
        pytest.param(Problem(n=3, field=_random_usc_field(Random(26)), kernel=zero_kernel()),
                     id="zero-n3-usc26"),
    ])
    def test_open_bracket_searches(self, p, pattern_calls):
        eq = solve_equioscillation(p, FAST)
        assert eq.status == "stalled"
        for solve, search, sign in ((solve_minimax, _minimax_search, -1.0),
                                    (solve_maximin, _maximin_search, +1.0)):
            pattern_calls.clear()
            rep = solve(p, FAST, eq=eq)
            assert pattern_calls and set(pattern_calls) == {sign}
            assert rep == search(p, FAST, eq) and rep.note == ""

    def test_checks_search_where_the_bracket_closes(self, pattern_calls):
        # the checks test Theorem 1.3 itself, so they never take its bracket
        p = battery_problem("log-n2-bump")
        assert _certificate(solve_minimax(p, FAST)) is not None
        assert not pattern_calls
        for run in (lambda: check_minimax_equals_maximin(p),
                    lambda: check_equioscillation_value(p, starts=2),
                    lambda: _usc_maximin_slack(p, _regularized(p), FAST, 1e-3)):
            pattern_calls.clear()
            run()
            assert pattern_calls


def test_certified_values_lie_between_the_oracle_systems():
    # Theorem 1.3 at the brute oracles' systems, with their exact interval
    # maxima (not the oracles' grid values): min_j m_j at the maximin system
    # and max_j (m_j + err_j) at the minimax one enclose M
    seen = 0
    for name, p in sorted(BATTERY.items()):
        assert p.n <= 3
        h = 1.0 / 128 if p.n <= 2 else 1.0 / 48
        low = interval_maxima(p, brute_maximin(p, h)[0])
        high = interval_maxima(p, brute_minimax(p, h)[0])
        lower = min(low.floats())
        upper = max(v + e for v, e in zip(high.floats(), high.err))
        eq = solve_equioscillation(p, FAST)
        for rep in (solve_minimax(p, FAST, eq=eq), solve_maximin(p, FAST, eq=eq)):
            if _certificate(rep) is not None:
                seen += 1
                assert lower - 1e-9 <= rep.value.as_float() <= upper + 1e-9, name
    assert seen == 2 * (len(BATTERY) - 1)


class TestBruteOracles:
    def test_single_node_flat_log(self):
        p = battery_problem("log-n1-flat")
        x, v = brute_minimax(p, h=1e-3)
        assert x.nodes[0] == pytest.approx(0.5, abs=1e-3)
        assert v.as_float() == pytest.approx(-math.log(2.0), abs=1e-3)
        xx, vv = brute_maximin(p, h=1e-3)
        assert vv.as_float() == pytest.approx(-math.log(2.0), abs=1e-3)
        assert vv.as_float() <= v.as_float() + 1e-12

    def test_two_node_flat_log_near_solver(self):
        p = battery_problem("log-n2-flat")
        _, v = brute_minimax(p, h=1.0 / 512)
        assert v.as_float() == pytest.approx(-math.log(8.0), abs=1e-3)

    def test_gate_limit_visible_on_grid(self):
        # the sup near the half-open end lives in a one-sided limit; the
        # t-grid probes next to the break keep the oracle honest
        p = battery_problem("zero-n1-ramp")
        _, v = brute_minimax(p, h=1.0 / 256)
        assert v.as_float() == pytest.approx(0.5, abs=1e-3)
        _, vv = brute_maximin(p, h=1.0 / 256)
        assert vv.as_float() == pytest.approx(0.5, abs=1e-3)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            brute_minimax(battery_problem("log-n3-flat"), h=1.0 / 1024)
        p5 = battery_problem("log-n2-flat")
        p5 = Problem(n=5, field=p5.field, kernel=p5.kernel)
        with pytest.raises(ValueError):
            brute_minimax(p5, h=1.0 / 4)

    def test_oracle_vs_exact_engine(self):
        p = battery_problem("log-n2-bump")
        x, v = brute_minimax(p, h=1.0 / 256)
        exact = interval_maxima(p, x).max_value.as_float()
        # the grid maximum is a lower bound for the true maximum at that x
        assert v.as_float() <= exact + 1e-12
        assert v.as_float() == pytest.approx(exact, abs=1e-3)


def loop_minimax(p, h):
    """Reference grid minimax: one node tuple at a time, in
    combinations_with_replacement order, first strict improvement wins."""
    xgrid = tg = _oracle_grid(p, h)
    _check_budget(len(xgrid), p.n)
    jvals = p.field.eval_many(tg)
    rows = _oracle_rows(p, xgrid, tg)
    best = math.inf
    best_idx = None
    for idx in combinations_with_replacement(range(len(xgrid)), p.n):
        f = jvals + rows[0][idx[0]]
        for j in range(1, p.n):
            f = f + rows[j][idx[j]]
        v = float(np.max(f))
        if v < best:
            best, best_idx = v, idx
    return tuple(float(v) for v in xgrid[list(best_idx)]), best


def loop_maximin(p, h):
    """Reference grid maximin, one node tuple at a time like loop_minimax."""
    xgrid = tg = _oracle_grid(p, h)
    _check_budget(len(xgrid), p.n)
    jvals = p.field.eval_many(tg)
    rows = _oracle_rows(p, xgrid, tg)
    pos = np.searchsorted(tg, xgrid)
    last = len(tg) - 1
    best = -math.inf
    best_idx = None
    for idx in combinations_with_replacement(range(len(xgrid)), p.n):
        f = jvals + rows[0][idx[0]]
        for j in range(1, p.n):
            f = f + rows[j][idx[j]]
        cuts = [0, *[pos[i] for i in idx], last]
        low = math.inf
        for a, b in zip(cuts, cuts[1:]):
            seg = float(np.max(f[a:b + 1]))
            if seg < low:
                low = seg
            if low == -math.inf:
                break
        if low > best:
            best, best_idx = low, idx
    if best_idx is None:
        return (0.5,) * p.n, -math.inf
    return tuple(float(v) for v in xgrid[list(best_idx)]), best


def assert_same_as_loop(p, h):
    """Block oracles give the loop's node tuple and the loop's float, bit for
    bit (the sign of a zero included)."""
    for block, loop in ((brute_minimax, loop_minimax), (brute_maximin, loop_maximin)):
        x, v = block(p, h)
        ref_x, ref_v = loop(p, h)
        assert x.nodes == ref_x
        assert np.float64(v.as_float()).tobytes() == np.float64(ref_v).tobytes()


class TestBlockOraclesMatchLoop:
    @pytest.mark.parametrize("name", sorted(BATTERY))
    def test_battery(self, name):
        # zero-n2-bands ties at 0.0 on many tuples: the tie-break decides
        p = BATTERY[name]
        assert_same_as_loop(p, 1.0 / 64 if p.n <= 2 else 1.0 / 24)

    def test_log_flat_four_nodes(self):
        p = battery_problem("log-n3-flat")
        assert_same_as_loop(Problem(n=4, field=p.field, kernel=p.kernel), 1.0 / 12)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(random_problems())
    def test_random_usc_fields(self, p):
        assert_same_as_loop(p, {1: 1.0 / 32, 2: 1.0 / 16, 3: 1.0 / 8}[p.n])


def assert_bounds_hold(p, h):
    """For every block, every tuple's exact score is at most its pruning
    bound, or one of the two is NaN.  Every tuple of every block is scored,
    not only those the search keeps: winners alone can hide a bound that is
    too tight."""
    grid = _oracle_grid(p, h)
    m, n = len(grid), p.n
    jvals = p.field.eval_many(grid)
    rows = _oracle_rows(p, grid, grid)
    for score, bound in ((solvers._neg_overall_max, solvers._neg_overall_max_bound),
                         (solvers._lowest_segment_max, solvers._lowest_segment_max_bound)):
        chunk_bounds = bound(rows[-1], n)
        for prefix in combinations_with_replacement(range(m), max(n - 2, 0)):
            base = jvals
            for j, i in enumerate(prefix):
                base = base + rows[j][i]
            cuts = [0, *prefix]
            i0 = cuts[-1]
            B = base + rows[n - 2][i0:] if n > 1 else base[None, :]
            b = chunk_bounds(B, cuts, i0)
            assert b.shape == (len(B), m - i0)
            # row r holds node i0 + r (none for n = 1); column c, k = i0 + c
            r, c = np.nonzero(np.arange(m - i0) >= np.arange(len(B))[:, None])
            nodes = [i0 + r, i0 + c] if n > 1 else [c]
            s = score(B[r] + rows[-1][i0 + c], cuts, nodes)
            below = b[r, c] < s  # False where either side is NaN
            assert not below.any(), (score.__name__, prefix, r[below], c[below])


class TestOraclePruning:
    @pytest.mark.parametrize("name", sorted(BATTERY))
    def test_bounds_hold_on_battery(self, name):
        p = BATTERY[name]
        assert_bounds_hold(p, 1.0 / 64 if p.n <= 2 else 1.0 / 24)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(random_problems())
    def test_bounds_hold_on_random_usc_fields(self, p):
        assert_bounds_hold(p, {1: 1.0 / 32, 2: 1.0 / 16, 3: 1.0 / 8}[p.n])

    @pytest.mark.parametrize("oracle, score", [(brute_minimax, "_neg_overall_max"),
                                               (brute_maximin, "_lowest_segment_max")])
    def test_pruning_is_live(self, oracle, score, monkeypatch):
        # a search that silently scored every tuple would still give the
        # same results; only the count of scored tuples shows the pruning
        p, h = battery_problem("log-n2-flat"), 1.0 / 128
        m = len(_oracle_grid(p, h))
        scored = []
        inner = getattr(solvers, score)

        def counting(F, cuts, nodes):
            i, k = nodes
            assert len(F) == len(i) == len(k)
            assert (0 <= i).all() and (i <= k).all() and (k < m).all()
            scored.append(len(F))
            return inner(F, cuts, nodes)

        monkeypatch.setattr(solvers, score, counting)
        oracle(p, h)
        assert 0 < sum(scored) < math.comb(m + p.n - 1, p.n) / 2


ALL_NEG_INF = Field((FieldPiece(Interval(0.3, 0.3 + 1e-10, False, False), Constant(0.0)),))


class TestChunkedOracles:
    """Blocks cut into chunks of a row or a few, and scoring groups of a few
    tuples that split a row, give the loop's results."""

    @pytest.mark.parametrize("values", [200, 1000])
    @pytest.mark.parametrize("name, n, h", [
        ("log-n1-gate", 1, 1.0 / 64),
        ("log-n2-bump", 2, 1.0 / 32),
        ("zero-n2-bands", 2, 1.0 / 32),  # many ties at 0.0
        ("sqrt-n3-bump", 3, 1.0 / 16),
        ("log-n3-flat", 4, 1.0 / 10),
    ])
    def test_small_chunks(self, monkeypatch, values, name, n, h):
        monkeypatch.setattr(solvers, "_BLOCK_VALUES", values)
        q = battery_problem(name)
        assert_same_as_loop(Problem(n=n, field=q.field, kernel=q.kernel), h)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_maximin_tuple_neg_inf(self, monkeypatch, n):
        # the field is finite only strictly inside a gap of the grid, so
        # every grid value of F is -inf: maximin falls back to the midpoint
        monkeypatch.setattr(solvers, "_BLOCK_VALUES", 200)
        p = Problem(n=n, field=ALL_NEG_INF, kernel=log_kernel())
        assert brute_maximin(p, 1.0 / 16) == (NodeSystem((0.5,) * n), NEG_INF)
        assert_same_as_loop(p, 1.0 / 16)


def ref_mbar(p, a):
    return interval_maxima(p, NodeSystem(a)).max_value.as_float()


def ref_mlow(p, a):
    return interval_maxima(p, NodeSystem(a)).min_value.as_float()


def ref_pattern(obj, x0, sign):
    """Reference coordinate pattern search: every candidate's objective is
    computed in full, and a strict improvement is accepted."""
    x = x0.copy()
    fx = obj(x)
    step = 0.125
    iters = 0
    while step >= solvers._TOL_STEP and iters < solvers._MAX_ITERS * 6:
        iters += 1
        improved = False
        for j in range(len(x)):
            for delta in (step, -step):
                c = x.copy()
                c[j] += delta
                if not 0.0 <= c[j] <= 1.0:
                    continue
                if j > 0 and c[j] < c[j - 1]:
                    continue
                if j < len(x) - 1 and c[j] > c[j + 1]:
                    continue
                fc = obj(c)
                if sign * fc > sign * fx:
                    x, fx = c, fc
                    improved = True
        if not improved:
            step *= 0.5
    return x, fx, step, iters


def ref_solve_minimax(p, o):
    """Reference for ``_minimax_search``: its own equioscillation run, full-evaluation
    search."""
    eq = solve_equioscillation(p, o)
    starts = []
    if eq.x is not None:
        starts.append(np.array(eq.x.nodes))
    starts.append(np.array([_place(p.field, (j + 1.0) / (p.n + 1.0)) for j in range(p.n)]))
    best = None
    iters = eq.iterations
    for x0 in starts:
        x, fx, step, it = ref_pattern(lambda a: ref_mbar(p, a), x0, -1.0)
        iters += it
        if best is None or (fx, tuple(x)) < (best[0], best[1]):
            best = (fx, tuple(x), step)
    value, xt, step = best
    status = "converged" if step < solvers._TOL_STEP else "stalled"
    return SolveReport(NodeSystem(xt), ExtendedReal.of(value), step, status, iters)


def ref_solve_maximin(p, o):
    """Reference for ``_maximin_search``: its own equioscillation run, full-evaluation
    search."""
    eq = solve_equioscillation(p, o)
    rng = Random(o.seed + 1)
    starts = []
    if eq.x is not None:
        starts.append(_repair(p, eq.x.nodes)[0])
    for _ in range(3):
        starts.append(_draw(p, rng))
    best = None
    iters = eq.iterations
    for x0 in starts:
        if not math.isfinite(ref_mlow(p, x0)):
            continue
        x, fx, step, it = ref_pattern(lambda a: ref_mlow(p, a), x0, +1.0)
        iters += it
        if best is None or (-fx, tuple(x)) < (-best[0], best[1]):
            best = (fx, tuple(x), step)
    if best is None:
        return SolveReport(None, NEG_INF, math.inf, "infeasible", iters)
    value, xt, step = best
    status = "converged" if step < solvers._TOL_STEP else "stalled"
    return SolveReport(NodeSystem(xt), ExtendedReal.of(value), step, status, iters)


def assert_same_solve(rep, ref):
    """Same node system, and the same bytes for value and residual."""
    assert (rep.x is None) == (ref.x is None)
    if rep.x is not None:
        assert rep.x.nodes == ref.x.nodes
    for a, b in ((rep.value.as_float(), ref.value.as_float()),
                 (rep.residual, ref.residual)):
        assert np.float64(a).tobytes() == np.float64(b).tobytes()
    assert (rep.iterations, rep.status) == (ref.iterations, ref.status)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(random_problems())
def test_shared_eq_and_early_reject_match_reference(p):
    o = SolveOptions(multistarts=2)
    eq = solve_equioscillation(p, o)
    assert_same_solve(_minimax_search(p, o, eq), ref_solve_minimax(p, o))
    assert_same_solve(_maximin_search(p, o, eq), ref_solve_maximin(p, o))


def test_shared_eq_and_early_reject_match_reference_at_n4():
    # random_problems() stops at n = 3
    p = Problem(n=4, field=flat_field(), kernel=log_kernel())
    o = SolveOptions(multistarts=2)
    eq = solve_equioscillation(p, o)
    assert_same_solve(_minimax_search(p, o, eq), ref_solve_minimax(p, o))
    assert_same_solve(_maximin_search(p, o, eq), ref_solve_maximin(p, o))


@pytest.mark.parametrize("p", [
    # the most polls the threshold stops: random_problems() stops at n = 3
    pytest.param(Problem(n=5, field=flat_field(), kernel=log_kernel()), id="log-n5-flat"),
    # K(0) is finite, so a cell end can settle an interval before any probe
    pytest.param(BATTERY["sqrt-n3-bump"], id="sqrt-n3-bump"),
])
def test_shared_eq_and_early_reject_match_reference_on_benchmark_options(p):
    o = SolveOptions(multistarts=8, seed=0)
    eq = solve_equioscillation(p, o)
    assert_same_solve(_minimax_search(p, o, eq), ref_solve_minimax(p, o))
    assert_same_solve(_maximin_search(p, o, eq), ref_solve_maximin(p, o))


def _thresholds(m: float, rng: Random) -> list[float]:
    """Thresholds around an interval maximum m: m itself, its neighbouring
    floats, random gaps either side, and both infinities."""
    if m == -math.inf:
        return [-math.inf, -1.0, 0.0, math.inf]
    gaps = [rng.uniform(0.0, 1.0) * 10.0 ** -rng.randint(0, 12) for _ in range(4)]
    return [m, math.nextafter(m, -math.inf), math.nextafter(m, math.inf),
            *(m - g * max(abs(m), 1.0) for g in gaps), m + gaps[0],
            -math.inf, math.inf]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(random_problems(), st.integers(0, 2**32 - 1))
def test_stopped_interval_maxima_bound_or_equal_the_full_ones(p, seed):
    # the threshold contract the pattern searches rely on: a call stops
    # exactly when m_j > stop, with a lower bound above stop; otherwise it
    # is the call without a threshold, bit for bit
    rng = Random(seed)
    for _ in range(3):
        grid = rng.random() < 0.5  # nodes on piece ends and on each other
        nodes = tuple(sorted(rng.randint(0, 8) / 8 if grid else rng.random()
                             for _ in range(p.n)))
        s = (0.0, *nodes, 1.0)
        full = _maxima_fn(p, nodes)
        for j in range(p.n + 1):
            m = full(j)
            for stop in _thresholds(m[0], rng):
                got = _maxima_fn(p, nodes)(j, stop)
                assert (got[0] > stop) == (m[0] > stop), (nodes, j, stop)
                if got[0] > stop:
                    assert got[0] <= m[0] and got[3] == math.inf
                    assert s[j] <= got[1] <= s[j + 1]
                else:
                    assert [np.float64(v).tobytes() for v in (got[0], got[3])] == \
                        [np.float64(v).tobytes() for v in (m[0], m[3])]
                    assert got[1:3] == m[1:3]


# ---------------------------------------------------------------------------
# monotone-kernel poll pruning

# monotone but for its negative side, which rises on [-1, -0.25)
RISING_AT_MINUS_ONE = custom_kernel(Quadratic(-1.0, -0.5, 0.0), Affine(1.0, 0.0))


def _with_layers(k):
    return (k, strictify(k, 0.1), singularize(k, 0.05),
            singularize(strictify(k, 0.1), 0.05))


class TestMonotoneQualification:
    @pytest.mark.parametrize("k", [v for k in KERNELS[:5] for v in _with_layers(k)],
                             ids=lambda k: f"{k.family}{k.params}-{k.strictify_eta}"
                                           f"-{k.singularize_etas}")
    def test_builtin_families_qualify(self, k):
        assert k.monotone

    def test_custom_quadratic_of_random_problems_does_not(self):
        assert KERNELS[5].family == "custom"
        assert not KERNELS[5].monotone

    def test_rising_side_is_not_monotone(self):
        assert RISING_AT_MINUS_ONE.neg_formula.deriv(-1.0) > 0
        assert not RISING_AT_MINUS_ONE.monotone
        # layers cannot repair the custom side, and strictify refuses it
        assert not replace(RISING_AT_MINUS_ONE, strictify_eta=0.1).monotone
        with pytest.raises(ValueError, match="monotone"):
            strictify(RISING_AT_MINUS_ONE, 0.1)

    def test_log_weight_side_must_be_positive_at_its_far_end(self):
        # log(2t + 1) rises on (-1/2, 0) and is undefined at t = -1
        with pytest.raises(ValueError, match=r"not positive on \[-1, 0\]"):
            custom_kernel(LogWeight(Affine(2.0, 1.0)), Affine(1.0, 0.0))
        ok = custom_kernel(LogWeight(Affine(-1.0, 1.0)), Affine(1.0, 0.0))
        assert ok.monotone

    def test_monotone_custom_kernel_qualifies(self):
        k = custom_kernel(Quadratic(-1.0, -3.0, 0.0), Affine(1.0, 0.0))
        assert k.monotone
        assert singularize(k, 0.05).monotone

    def test_value_at_zero_above_the_left_limit(self):
        # within the 1e-9 the constructor forgives, yet K(0) > K(0-)
        k = custom_kernel(Affine(-1.0, 0.0), Affine(1.0, 5e-10))
        assert 0.0 < k.eval(0.0) - k.neg_formula.value(0.0) <= 1e-9
        assert not k.monotone
        equal = custom_kernel(Affine(-1.0, 5e-10), Affine(1.0, 0.0))
        assert equal.monotone

    def test_not_monotone_solves_as_reference(self, monkeypatch):
        p = Problem(n=3, field=bump_field(), kernel=RISING_AT_MINUS_ONE)
        o = SolveOptions(multistarts=2)
        eq = solve_equioscillation(p, o)
        ref = ref_solve_minimax(p, o)
        assert_same_solve(_minimax_search(p, o, eq), ref)
        assert_same_solve(_maximin_search(p, o, eq), ref_solve_maximin(p, o))
        # pruning here would skip polls that succeed
        monkeypatch.setattr(Kernel, "monotone", property(lambda self: True))
        assert _minimax_search(p, o, eq).value != ref.value


def assert_skipped_polls_fail(p, seed):
    """At a few regular systems and for both searches, every poll that
    ``_futile_moves`` rejects unevaluated, at steps 2^-3 ... 2^-30 either
    way, fails to beat fx under full evaluation.  Returns the number of such
    polls checked."""
    assert p.kernel.monotone
    rng = Random(seed)
    checked = 0
    for _ in range(3):
        x = _draw(p, rng)
        m = interval_maxima(p, NodeSystem(x.tolist())).floats()
        for sign in (-1.0, 1.0):
            fx = solvers._objective(m, sign)
            if not math.isfinite(fx):
                continue
            for j, right in solvers._futile_moves(m, fx, sign):
                for e in range(3, 31):
                    c = x.copy()
                    c[j] += 2.0 ** -e if right else -2.0 ** -e
                    s = (0.0, *x, 1.0)
                    if not s[j] <= c[j] <= s[j + 2]:
                        continue
                    mc = interval_maxima(p, NodeSystem(c.tolist())).floats()
                    assert not all(sign * v > sign * fx for v in mc), (x, j, right, e)
                    checked += 1
    return checked


@pytest.mark.parametrize("name", sorted(n for n, p in BATTERY.items() if p.n >= 2))
def test_skipped_polls_fail_on_battery(name):
    assert assert_skipped_polls_fail(BATTERY[name], seed=0) > 0


@settings(derandomize=True, max_examples=20, deadline=None)
@given(random_problems(KERNELS[:5]), st.integers(0, 2**16))
def test_skipped_polls_fail_on_random_problems(p, seed):
    assert_skipped_polls_fail(p, seed)


def assert_witness_settles_agree(p, seed):
    """At a few regular systems and for both searches, every interval of a
    poll at steps 2^-3 ... 2^-30 either way that a probe at the system's
    witness settles (``_witness_settles``, with the threshold of
    ``_pattern``) is settled the same way by full evaluation: its m_i is
    above the threshold too.  Returns the number of settles checked."""
    rng = Random(seed)
    checked = 0
    for _ in range(3):
        x = NodeSystem(_draw(p, rng).tolist()).nodes
        rows = [_maxima_fn(p, x)(i) for i in range(p.n + 1)]
        s = (0.0, *x, 1.0)
        for sign in (-1.0, 1.0):
            fx = solvers._objective([r[0] for r in rows], sign)
            if not math.isfinite(fx):
                continue
            stop = fx if sign > 0 else math.nextafter(fx, -math.inf)
            for j in range(p.n):
                for e in range(3, 31):
                    for delta in (2.0 ** -e, -2.0 ** -e):
                        if not s[j] <= x[j] + delta <= s[j + 2]:
                            continue
                        c = (*x[:j], x[j] + delta, *x[j + 1:])
                        sc = (0.0, *c, 1.0)
                        F = partial(_value_at, p, _pure_fun(p, c))
                        for i, r in enumerate(rows):
                            got = solvers._witness_settles(F, r[1], sc[i], sc[i + 1], stop)
                            if got is None:
                                continue
                            assert got[0] > stop and got[1] == r[1]
                            assert _maxima_fn(p, c)(i)[0] > stop, (x, c, i, sign)
                            checked += 1
    return checked


@pytest.mark.parametrize("name", sorted(n for n, p in BATTERY.items() if p.n >= 2))
def test_witness_settles_agree_on_battery(name):
    assert assert_witness_settles_agree(BATTERY[name], seed=0) > 0


@settings(derandomize=True, max_examples=20, deadline=None)
@given(random_problems(), st.integers(0, 2**16))
def test_witness_settles_agree_on_random_problems(p, seed):
    assert_witness_settles_agree(p, seed)


@st.composite
def short_or_split_problems(draw):
    """A problem on a random usc field finite on one part shorter than 0.15,
    or on two or three parts with -inf gaps between them (short ones half
    the time)."""
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    k = rng.randint(1, 3)
    ends = sorted(rng.random() for _ in range(2 * k))
    squeeze = 0.15 if k == 1 or rng.random() < 0.5 else 1.0
    pieces = []
    for a, b in zip(ends[::2], ends[1::2]):
        f = rng.choice((Constant(rng.uniform(-1.0, 1.0)),
                        Affine(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)),
                        Quadratic(rng.uniform(-2.0, 0.0), rng.uniform(-2.0, 2.0),
                                  rng.uniform(-1.0, 1.0))))
        iv = Interval(a, a + (b - a) * squeeze, True, rng.random() < 0.5)
        pieces.append(FieldPiece(iv, f))
    kernel = draw(st.sampled_from(KERNELS))
    try:
        return Problem(n=draw(st.integers(1, 5)), field=usc_regularize(Field(tuple(pieces))),
                       kernel=kernel)
    except ValueError:  # a degenerate piece, or too few finite points for n
        assume(False)


@settings(derandomize=True, max_examples=210, deadline=None)
@given(st.one_of(random_problems(), short_or_split_problems()))
def test_equioscillation_never_raises_on_random_fields(p):
    rep = solve_equioscillation(p, SolveOptions(multistarts=2))
    assert rep.status in ("converged", "stalled", "infeasible")


def _touching_pieces() -> Field:
    """J finite on all of [0, 1] in two pieces that meet at 0.3."""
    return Field((FieldPiece(Interval(0.0, 0.3, True, False), Constant(1.0)),
                  FieldPiece(Interval(0.3, 1.0), Affine(-1.0, 0.5))))


def _us(seed: int) -> list[float]:
    """Many u in [0, 1]: both ends, their neighbouring floats, a grid, and
    random draws."""
    rng = Random(seed)
    return [0.0, 1.0, 5e-324, math.nextafter(1.0, 0.0), *np.linspace(0.0, 1.0, 257).tolist(),
            *(rng.random() for _ in range(500))]


class TestPlace:
    @pytest.mark.parametrize("field", [flat_field(), bump_field(), _touching_pieces()],
                             ids=["flat", "bump", "touching"])
    def test_identity_where_J_is_finite_on_all_of_0_1(self, field):
        for u in _us(1):
            assert np.float64(_place(field, u)).tobytes() == np.float64(u).tobytes(), u

    @pytest.mark.parametrize("field", [gate_field(), two_band_field(), ramp_field(),
                                       _random_usc_field(Random(27)), _touching_pieces()],
                             ids=["gate", "bands", "ramp", "seed27", "touching"])
    def test_nondecreasing(self, field):
        placed = [_place(field, u) for u in sorted(_us(2))]
        assert all(a <= b for a, b in zip(placed, placed[1:]))

    @pytest.mark.parametrize("field", [gate_field(), two_band_field(),
                                       _random_usc_field(Random(27)),
                                       *(_random_usc_field(Random(s)) for s in range(12))],
                             ids=["gate", "bands", "seed27", *(f"usc{s}" for s in range(12))])
    def test_image_lies_in_the_closure_of_the_finite_parts(self, field):
        for u in _us(3):
            t = _place(field, u)
            assert any(a <= t <= b for a, b in field.finite_parts), (u, t)

    def test_isolated_points(self):
        pts = (0.1, 0.35, 0.5, 0.9)
        field = Field(tuple(FieldPiece(Interval(t, t), Constant(0.0)) for t in pts))
        assert field.finite_parts == tuple((t, t) for t in pts)
        assert {_place(field, u) for u in _us(4)} == set(pts)
        assert [_place(field, u) for u in (0.0, 0.3, 0.6, 1.0)] == [0.1, 0.35, 0.5, 0.9]

    def test_gate_and_bands_by_length(self):
        assert _place(gate_field(), 0.5) == 0.25
        # [0.1, 0.4] and [0.6, 0.9] have length 0.3 each
        assert _place(two_band_field(), 0.25) == pytest.approx(0.25)
        assert _place(two_band_field(), 0.75) == pytest.approx(0.75)
        assert _place(two_band_field(), 1.0) == 0.9


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("kernel", [log_kernel(), sqrt_kernel(), power_kernel(0.5)],
                         ids=["log", "sqrt", "power05"])
def test_field_finite_on_a_short_part_solves(kernel, n):
    # finite only on [0, 0.109]: starts drawn on [0, 1] miss it
    field = _random_usc_field(Random(27))
    assert max(b for _, b in field.finite_parts) < 0.11
    p = Problem(n=n, field=field, kernel=kernel)
    eq = solve_equioscillation(p, FAST)
    reps = (eq, solve_minimax(p, FAST, eq=eq), solve_maximin(p, FAST, eq=eq))
    assert [r.status for r in reps] == ["converged"] * 3
    values = [r.value.as_float() for r in reps]
    assert max(values) - min(values) <= 1e-8, values


class TestDraw:
    def test_yields_regular_points(self):
        for name in ("log-n2-flat", "log-n2-bands", "log-n1-gate"):
            p = battery_problem(name)
            x = NodeSystem(_draw(p, Random(7)).tolist())
            assert all(v.is_finite for v in interval_maxima(p, x).values)

    def test_deterministic_under_seed(self):
        p = battery_problem("log-n2-bands")
        assert _draw(p, Random(3)).tolist() == _draw(p, Random(3)).tolist()


def test_repair_returns_the_maxima_of_its_point():
    """Seeded: random usc fields with -inf holes x singular and non-singular
    kernels x n <= 3, from raw tuples that cluster, leave [0, 1] and come
    unsorted.  The maxima ``_repair`` returns are ``_maxima`` at its point
    bit for bit, and None exactly when some ``interval_maxima`` value there
    is -inf."""
    kernels = (log_kernel(), power_kernel(0.5), sqrt_kernel(), zero_kernel())
    seen = {(k.singular, outside): 0 for k in kernels for outside in (False, True)}
    for seed in range(30):
        field = _random_usc_field(Random(seed))
        rng = Random(seed)
        for k in kernels:
            for n in (1, 2, 3):
                try:
                    p = Problem(n=n, field=field, kernel=k)
                except ValueError:  # field finite at too few points for n nodes
                    continue
                for _ in range(8):
                    t = rng.uniform(-0.1, 1.1)
                    raw = [t + rng.choice((0.0, rng.uniform(-0.05, 0.05))) for _ in range(n)]
                    x, m = _repair(p, raw)
                    values = interval_maxima(p, NodeSystem(tuple(x.tolist()))).values
                    outside = not all(v.is_finite for v in values)
                    assert (m is None) == outside, (seed, k.family, raw)
                    if m is not None:
                        assert repr(m) == repr(solvers._maxima(p, x)), (seed, k.family, raw)
                    seen[k.singular, outside] += 1
    # singular kernels leave some repaired points outside Y; others never do
    assert seen[True, True] and seen[True, False] and seen[False, False]


# ---------------------------------------------------------------------------
# the Newton solve's Jacobian: Danskin's theorem, finite differences as fallback


def _central_jacobian(p, x, h=1e-6):
    cols = []
    for k in range(p.n):
        e = np.zeros(p.n)
        e[k] = h
        cols.append((solvers._phi(p, x + e) - solvers._phi(p, x - e)) / (2 * h))
    return np.column_stack(cols)


@pytest.mark.parametrize("name", sorted(n for n, p in BATTERY.items() if p.n >= 2))
def test_danskin_jacobian_matches_central_differences(name):
    p = BATTERY[name]
    rng = Random(sorted(BATTERY).index(name))
    for _ in range(5):
        x = _draw(p, rng)
        jac = solvers._danskin_jacobian(p, x, solvers._maxima(p, x))
        if p.kernel.family == "zero":
            # F is flat on the bands, so some maximum ties back to its left
            # node and the whole step falls back to finite differences
            assert jac is None
            continue
        cd = _central_jacobian(p, x)
        assert np.max(np.abs(jac - cd)) <= 1e-4 * np.max(np.abs(cd)), (x, jac, cd)


def _count_fd_calls(monkeypatch):
    calls = []
    fd = solvers._fd_jacobian

    def counted(*args):
        calls.append(args[1])
        return fd(*args)

    monkeypatch.setattr(solvers, "_fd_jacobian", counted)
    return calls


def test_fd_jacobian_when_the_kernel_peaks_at_its_node(monkeypatch):
    # K(t) = -|t| peaks at 0 and F is linear between nodes on a flat field,
    # so interval maxima sit on nodes
    tent = custom_kernel(Affine(1.0, 0.0), Affine(-1.0, 0.0))
    calls = _count_fd_calls(monkeypatch)
    for field in (flat_field(), bump_field()):
        rep = solve_equioscillation(Problem(n=2, field=field, kernel=tent), FAST)
        assert rep.status in ("converged", "stalled", "infeasible")
    assert calls


@pytest.mark.parametrize("name", sorted(n for n, p in BATTERY.items()
                                        if p.n >= 2 and p.kernel.family in ("log", "power")))
def test_no_fd_jacobian_on_log_and_power_battery(name, monkeypatch):
    calls = _count_fd_calls(monkeypatch)
    rep = solve_equioscillation(BATTERY[name], SolveOptions(multistarts=8))
    assert rep.status == "converged"
    assert not calls
