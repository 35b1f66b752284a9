import json
import math
import random

import numpy as np
import pytest

from fenton_minimax import checks
from fenton_minimax.battery import BATTERY, battery_problem, flat_field
from fenton_minimax.checks import (CheckInfeasible, CheckReport, UnknownCheckError,
                                   all_check_ids, check_continuity_suite,
                                   check_dini_max,
                                   check_equioscillation_value,
                                   check_kernel_limits,
                                   check_minimax_equals_maximin,
                                   check_no_strict_majorization,
                                   check_perturbation_inequality,
                                   check_usc_invariances, replay_witness,
                                   run_check)
from fenton_minimax.core import NodeSystem
from fenton_minimax.kernels import log_kernel, sqrt_kernel, zero_kernel
from fenton_minimax.solvers import SolveOptions, solve_equioscillation
from fenton_minimax.sumtrans import Problem, interval_maxima, interval_maxima_batch

EXPECTED_IDS = {
    "lem2.4/a", "lem2.4/b", "lem2.4/c", "lem2.4/d", "lem2.4/e",
    "thm1.3/no-strict-majorization",
    "thm1.3/minimax-equals-maximin",
    "thm1.3/equioscillation-value",
    "thm1.1/uniqueness",
    "lem6.1/usc-invariances",
    "lem5.1/dini-max",
    "thm1.3/strictify-limit",
    "lem4.1/singularize-limit",
    "lem3.3/continuity",
}


class TestRegistry:
    def test_all_ids_present(self):
        assert set(all_check_ids()) == EXPECTED_IDS

    def test_unknown_id(self):
        with pytest.raises(UnknownCheckError, match="unknown check id"):
            run_check("thm9.9/legendary")

    @pytest.mark.parametrize("check_id", ["lem2.4/a", "lem5.1/dini-max",
                                          "thm1.3/no-strict-majorization"])
    @pytest.mark.parametrize("trials", [0, -2])
    def test_trials_below_one(self, check_id, trials):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_check(check_id, trials=trials)

    def test_unknown_is_a_value_error(self):
        # callers that only know ValueError still catch it
        assert issubclass(UnknownCheckError, ValueError)

    @pytest.mark.parametrize("check_id, per_trial", [
        ("thm1.3/no-strict-majorization", 10),
        ("thm1.3/strictify-limit", 28),
        ("lem4.1/singularize-limit", 35),
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_trials_per_requested_trial(self, check_id, per_trial, seed):
        # the check-sampling benchmark expects exactly per_trial * trials;
        # a problem added to or dropped from a check's row changes the count
        assert run_check(check_id, 1, seed).trials == per_trial


class TestSmokeAllChecks:
    """Every registered check passes at reduced trial counts."""

    @pytest.mark.parametrize("check_id", sorted(EXPECTED_IDS))
    def test_passes(self, check_id):
        trials = 40 if check_id.startswith("lem2.4") else 3
        rep = run_check(check_id, trials=trials, seed=0)
        assert rep.check_id == check_id
        assert rep.trials > 0
        assert rep.violations == 0
        assert rep.passed
        assert rep.witnesses == ()


class TestViolationMechanics:
    def test_strictness_fails_without_strict_concavity(self):
        # the zero kernel satisfies the weak inequality with equality, so the
        # strict variant must report violations
        rep = check_perturbation_inequality(zero_kernel(), trials=200, seed=1,
                                       cases="d")
        assert rep.violations > 0
        assert not rep.passed
        assert rep.witnesses
        assert len(rep.witnesses) <= 8
        assert rep.worst_margin <= 0.0

    def test_witnesses_replay_to_violation(self):
        rep = check_perturbation_inequality(zero_kernel(), trials=200, seed=1,
                                       cases="d")
        for w in rep.witnesses:
            out = replay_witness(w)
            assert out["violation"] is True
            assert out["margin"] == pytest.approx(w["margin"], abs=1e-15)

    def test_passing_run_replays_clean(self):
        rep = check_perturbation_inequality(log_kernel(), trials=500, seed=2)
        assert rep.passed and rep.witnesses == ()
        # spot-replay a synthetic witness for a healthy kernel
        probe = {
            "kind": "lem2.4",
            "case": "a",
            "kernel": {"family": "log"},
            "alpha": 0.1, "a": 0.3, "b": 0.6, "beta": 0.9,
            "p": 1.0, "q": 1.0, "t": 0.05,
        }
        out = replay_witness(probe)
        assert out["violation"] is False

    def test_passed_definition(self):
        good = check_perturbation_inequality(sqrt_kernel(), trials=100, seed=0)
        assert good.passed == (good.violations == 0 and good.trials > 0)
        bad = check_perturbation_inequality(zero_kernel(), trials=100, seed=0,
                                       cases="d")
        assert bad.passed == (bad.violations == 0 and bad.trials > 0)


class TestDeterminism:
    @pytest.mark.parametrize("check_id", ["lem2.4/c",
                                          "thm1.3/no-strict-majorization",
                                          "lem6.1/usc-invariances"])
    def test_same_seed_same_report(self, check_id):
        a = run_check(check_id, trials=20, seed=5)
        b = run_check(check_id, trials=20, seed=5)
        assert (a.trials, a.violations, a.worst_margin) == \
            (b.trials, b.violations, b.worst_margin)

    def test_seed_changes_margins(self):
        a = run_check("lem2.4/a", trials=50, seed=1)
        b = run_check("lem2.4/a", trials=50, seed=2)
        assert a.worst_margin != b.worst_margin


class TestIndividualChecks:
    def test_majorization_on_battery_problem(self):
        rep = check_no_strict_majorization(battery_problem("log-n2-bump"),
                                           trials=300, seed=0)
        assert rep.passed
        assert rep.worst_margin >= 0.0

    def test_minimax_equals_maximin_with_oracle(self):
        rep = check_minimax_equals_maximin(battery_problem("log-n1-flat"),
                                           h=1.0 / 200)
        assert rep.passed
        assert rep.trials >= 1

    def test_equioscillation_value_multi_start(self):
        rep = check_equioscillation_value(battery_problem("log-n2-flat"),
                                          starts=6)
        assert rep.passed

    def test_uniqueness_records_a_margin_per_converged_start(self, monkeypatch):
        margins = []
        add = checks._Recorder.add

        def spy(rec, margin, witness=None, ok=None):
            if witness is not None and witness["kind"] == "eq-unique":
                margins.append(margin)
            add(rec, margin, witness, ok)

        monkeypatch.setattr(checks._Recorder, "add", spy)
        p = battery_problem("log-n2-bump")
        rep = check_equioscillation_value(p, starts=8, unique_nodes_tol=1e-4,
                                          check_id="thm1.1/uniqueness")
        assert rep.passed
        assert margins and all(m > 0 for m in margins)
        eq = solve_equioscillation(p, SolveOptions(multistarts=8))
        assert len(margins) == len(eq.converged_starts)
        assert rep.trials == 2 * len(eq.solutions) + len(margins)

    def test_kernel_limits_requires_decreasing_etas(self):
        with pytest.raises(ValueError):
            check_kernel_limits(battery_problem("log-n1-flat"),
                                etas=(0.1, 0.2))

    def test_continuity_suite_smoke(self):
        rep = check_continuity_suite(battery_problem("log-n1-flat"), trials=3,
                                     seed=0)
        assert rep.passed


def _sample_Y_one_at_a_time(p, rng, count, min_rate=1e-3):
    """The Y sampler drawn and tested row by row on the scalar engine's
    maxima: the reference for ``checks._sample_Y``."""
    out, attempts = [], 0
    while len(out) < count:
        attempts += 1
        ns = NodeSystem(tuple(sorted(rng.uniform(0.0, 1.0) for _ in range(p.n))))
        if all(v.is_finite for v in interval_maxima(p, ns).values):
            out.append(list(ns.nodes))
        if attempts >= 1000 and len(out) < attempts * min_rate:
            raise CheckInfeasible(f"Y-sampling acceptance {len(out)}/{attempts} "
                                  f"is below {min_rate:.1%}")
    return out


def _sample_Y_rows(p, rng, count, min_rate=1e-3):
    """The rows of ``checks._sample_Y``, without their maxima."""
    return checks._sample_Y(p, rng, count, min_rate)[0]


def _sampling_outcome(sample, p, seed, count, min_rate):
    """("raised", message) or ("rows", rows, the next rng.random())."""
    rng = random.Random(seed)
    try:
        rows = sample(p, rng, count, min_rate)
    except CheckInfeasible as exc:
        return "raised", str(exc)
    return "rows", [list(r) for r in rows], rng.random()


class TestSampleY:
    @pytest.mark.parametrize("name", sorted(BATTERY))
    def test_same_rows_and_rng_state_as_one_at_a_time(self, name):
        # gate, ramp and bands problems reject about half of the rows
        p = BATTERY[name]
        for seed in range(4):
            for count in (0, 1, 9, 61):
                want = _sampling_outcome(_sample_Y_one_at_a_time, p, seed, count, 1e-3)
                got = _sampling_outcome(_sample_Y_rows, p, seed, count, 1e-3)
                assert got == want, (seed, count)
                X, M = checks._sample_Y(p, random.Random(seed), count)
                assert X.shape == (count, p.n) and M.shape == (count, p.n + 1)

    @pytest.mark.parametrize("name", sorted(BATTERY))
    def test_maxima_are_the_batch_maxima_of_the_rows(self, name):
        # rows come from rounds of different sizes; each keeps its own maxima
        p = BATTERY[name]
        for seed in range(3):
            X, M = checks._sample_Y(p, random.Random(seed), 40)
            want = interval_maxima_batch(p, X).values
            assert M.tobytes() == want.tobytes(), seed
            assert np.all(M > -np.inf)

    @pytest.mark.parametrize("name, count, min_rate, kinds", [
        # raises at row 1000, in the first round and in the second
        ("log-n1-gate", 2000, 0.6, ["raised"] * 3),
        ("log-n1-gate", 900, 0.6, ["raised"] * 3),
        # seed 0 raises at row 1075, the others complete the sample
        ("zero-n1-bands", 1500, 0.78, ["raised", "rows", "rows"]),
        ("log-n1-gate", 1200, 0.3, ["rows"] * 3)])
    def test_same_infeasibility_at_the_same_row(self, name, count, min_rate, kinds):
        p = BATTERY[name]
        want = [_sampling_outcome(_sample_Y_one_at_a_time, p, seed, count, min_rate)
                for seed in range(3)]
        got = [_sampling_outcome(_sample_Y_rows, p, seed, count, min_rate)
               for seed in range(3)]
        assert got == want
        assert [w[0] for w in want] == kinds

    def test_message_names_the_rate(self):
        kind, message = _sampling_outcome(_sample_Y_rows, BATTERY["log-n1-gate"], 0, 2000, 0.6)
        assert kind == "raised"
        assert message.endswith("is below 60.0%")


class TestCheckReportJson:
    def test_round_trip_fields(self):
        rep = run_check("lem2.4/a", trials=30, seed=0)
        d = rep.to_json()
        json.dumps(d)  # must be serializable as-is
        assert d["check_id"] == "lem2.4/a"
        assert d["passed"] is True
        assert d["trials"] == rep.trials
        assert isinstance(d["worst_margin"], (int, float, str))

    def test_infinite_margin_encodes_as_string(self):
        rep = CheckReport(check_id="x", trials=1, violations=0,
                          worst_margin=math.inf, witnesses=(), passed=True)
        assert rep.to_json()["worst_margin"] == "inf"
        rep2 = CheckReport(check_id="x", trials=1, violations=1,
                           worst_margin=-math.inf, witnesses=(), passed=False)
        assert rep2.to_json()["worst_margin"] == "-inf"


def _every_system_equioscillates() -> Problem:
    # the zero kernel on a flat field: every start is an equioscillation
    # point, so without the continuation (NO_CONTINUATION) the solutions differ
    return Problem(n=2, field=flat_field(), kernel=zero_kernel())


NO_CONTINUATION = SolveOptions(continuation_etas=(0.0,))


# per emitting check: the witness kinds it records, with a call that records
# every kind at least once (two kernels and five cases for lem2.4; both decay
# series, overall and per interval, for continuity)
REPLAY_CASES = {
    "perturbation": ({"lem2.4"}, lambda: [
        check_perturbation_inequality(k, trials=2000, seed=1)
        for k in (log_kernel(), sqrt_kernel())]),
    "majorization": ({"majorization"}, lambda: [
        check_no_strict_majorization(battery_problem("log-n2-bump"), trials=4, seed=1)]),
    "minimax": ({"minimax-maximin", "oracle-bracket"}, lambda: [
        check_minimax_equals_maximin(battery_problem("log-n1-flat"), h=1.0 / 100,
                                     options=SolveOptions(multistarts=2, seed=1))]),
    "equioscillation": ({"eq-value", "eq-unique"}, lambda: [
        check_equioscillation_value(_every_system_equioscillates(), starts=4,
                                    unique_nodes_tol=1e-4, options=NO_CONTINUATION)]),
    "usc": ({"usc-mbar", "usc-mj", "usc-open-sup", "usc-maximin"}, lambda: [
        check_usc_invariances(battery_problem("log-n2-bands"), trials=4, seed=0)]),
    "dini": ({"dini"}, lambda: [check_dini_max(trials=3, seed=0)]),
    "kernel-limits": ({"kernel-limit"}, lambda: [
        check_kernel_limits(battery_problem("log-n2-flat"), trials=2, seed=1)]),
    "continuity": ({"continuity-decay", "continuity-seq"}, lambda: [
        check_continuity_suite(battery_problem("log-n1-flat"), trials=3, seed=0)]),
}


class TestSolverWitnessReplay:
    """Every witness, after a JSON round trip, replays to exactly the margin
    and the verdict the check recorded: both go through the same slack
    function.  Solver-based witnesses carry the solver options the check
    ran with; with options away from the defaults the replayed margins
    would otherwise differ in the last bits."""

    @pytest.fixture(autouse=True)
    def keep_every_witness(self, monkeypatch):
        # a passing check keeps no witnesses; record one for every margin,
        # with the check's own verdict on it
        add, add_array = checks._Recorder.add, checks._Recorder.add_array

        def add_all(rec, margin, witness=None, ok=None):
            if witness is not None:
                witness = dict(witness, violation=bool(margin < 0 if ok is None else not ok))
            add(rec, margin, witness, ok=False)

        def add_array_all(rec, margins, bad, witness_of):
            add_array(rec, margins, np.ones(len(margins), dtype=bool),
                      lambda i: dict(witness_of(i), violation=bool(bad[i])))

        monkeypatch.setattr(checks._Recorder, "add", add_all)
        monkeypatch.setattr(checks._Recorder, "add_array", add_array_all)

    def _replay_matches(self, rep, kind):
        (w,) = [w for w in rep.witnesses if w["kind"] == kind]
        assert replay_witness(json.loads(json.dumps(w)))["margin"] == w["margin"]

    def _all_replay_exactly(self, rep, kind):
        ws = [w for w in rep.witnesses if w["kind"] == kind]
        assert ws
        for w in ws:
            assert replay_witness(json.loads(json.dumps(w)))["margin"] == w["margin"]
        return ws

    @pytest.mark.parametrize("name", sorted(REPLAY_CASES))
    def test_every_witness_replays_to_its_margin(self, name, monkeypatch):
        monkeypatch.setattr(checks, "_WITNESS_CAP", 100_000)
        kinds, emit = REPLAY_CASES[name]
        ws = [json.loads(json.dumps(w)) for rep in emit() for w in rep.witnesses]
        assert {w["kind"] for w in ws} == kinds
        for w in ws:
            assert replay_witness(w) == {"margin": w["margin"], "violation": w["violation"]}
        if name == "perturbation":
            assert {(w["kernel"]["family"], w["case"]) for w in ws} == \
                {(f, c) for f in ("log", "sqrt") for c in "abcde"}
        if name == "continuity":
            assert {w.get("per_interval", False) for w in ws
                    if w["kind"] == "continuity-decay"} == {False, True}

    def test_cases_cover_every_replayable_kind(self):
        emitted = set().union(*(kinds for kinds, _ in REPLAY_CASES.values()))
        assert emitted == set(checks._REPLAY)

    def test_minimax_maximin(self):
        rep = check_minimax_equals_maximin(battery_problem("log-n2-bump"),
                                           options=SolveOptions(multistarts=2, seed=5))
        self._replay_matches(rep, "minimax-maximin")

    def test_usc_maximin(self):
        rep = check_usc_invariances(battery_problem("zero-n1-ramp"), trials=1, seed=3)
        self._replay_matches(rep, "usc-maximin")

    def test_majorization(self):
        # the check sees the pair inside a batch of 4 systems, the replay
        # each system alone; both orientations of the first pairs
        rep = check_no_strict_majorization(battery_problem("power05-n2-bump"),
                                           trials=3, seed=2)
        ws = self._all_replay_exactly(rep, "majorization")
        assert len(ws) == 6 and ws[0]["x"] == ws[1]["y"]

    @pytest.mark.parametrize("direction", ["strictify", "singularize"])
    def test_kernel_limit(self, direction):
        rep = check_kernel_limits(battery_problem("log-n2-flat"), trials=3, seed=4,
                                  direction=direction)
        ws = self._all_replay_exactly(rep, "kernel-limit")
        assert [w["slack"] for w in ws] == [0, 1, 2, 3, 4, 5, 6, 0]
