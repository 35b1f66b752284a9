import json
import math

import numpy as np
import pytest

from fenton_minimax import checks
from fenton_minimax.battery import battery_problem
from fenton_minimax.checks import (CheckReport, UnknownCheckError,
                                   all_check_ids, check_continuity_suite,
                                   check_equioscillation_value,
                                   check_kernel_limits,
                                   check_minimax_equals_maximin,
                                   check_no_strict_majorization,
                                   check_perturbation_inequality,
                                   check_usc_invariances, replay_witness,
                                   run_check)
from fenton_minimax.kernels import log_kernel, sqrt_kernel, zero_kernel
from fenton_minimax.solvers import SolveOptions

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

    def test_unknown_is_a_value_error(self):
        # callers that only know ValueError still catch it
        assert issubclass(UnknownCheckError, ValueError)


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

    def test_kernel_limits_requires_decreasing_etas(self):
        with pytest.raises(ValueError):
            check_kernel_limits(battery_problem("log-n1-flat"),
                                etas=(0.1, 0.2))

    def test_continuity_suite_smoke(self):
        rep = check_continuity_suite(battery_problem("log-n1-flat"), trials=3,
                                     seed=0)
        assert rep.passed


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


class TestSolverWitnessReplay:
    """Witnesses of solver-based checks carry the solver options the check
    ran with, so a replay, after a JSON round trip, reproduces the check's
    margin exactly.  Both cases use options away from the defaults, under
    which the replayed margins would differ in the last bits."""

    @pytest.fixture(autouse=True)
    def keep_every_witness(self, monkeypatch):
        # a passing check keeps no witnesses; record one for every comparison
        add = checks._Recorder.add
        monkeypatch.setattr(checks._Recorder, "add",
                            lambda rec, margin, witness=None, ok=None:
                            add(rec, margin, witness, ok=False))

    def _replay_matches(self, rep, kind):
        (w,) = [w for w in rep.witnesses if w["kind"] == kind]
        assert replay_witness(json.loads(json.dumps(w)))["margin"] == w["margin"]

    @pytest.fixture(autouse=True)
    def keep_every_array_witness(self, monkeypatch):
        # the same for checks that record a whole array of margins at once
        add_array = checks._Recorder.add_array
        monkeypatch.setattr(checks._Recorder, "add_array",
                            lambda rec, margins, bad, witness_of:
                            add_array(rec, margins, np.ones(len(margins), dtype=bool),
                                      witness_of))

    def _all_replay_exactly(self, rep, kind):
        ws = [w for w in rep.witnesses if w["kind"] == kind]
        assert ws
        for w in ws:
            assert replay_witness(json.loads(json.dumps(w)))["margin"] == w["margin"]
        return ws

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
