import csv
import io
import json
import math
from pathlib import Path

import pytest

from fenton_minimax.battery import battery_problem
from fenton_minimax.checks import CheckInfeasible
from fenton_minimax.cli import main
from fenton_minimax.core import NodeSystem
from fenton_minimax.core import NEG_INF
from fenton_minimax.schema import (ConfigError, config_from_json,
                                   encode_float, encode_value,
                                   load_config, options_from_json,
                                   options_to_json, problem_from_json,
                                   problem_to_json, solve_report_to_json)
from fenton_minimax.solvers import SolveOptions, SolveReport, solve_equioscillation

FLAT = {"pieces": [{"interval": {"a": 0.0, "b": 1.0},
                    "formula": {"type": "constant", "c": 0.0}}]}
RAMP = {"pieces": [{"interval": {"a": 0.0, "b": 0.5, "closed_right": False},
                    "formula": {"type": "affine", "alpha": 1.0, "beta": 0.0}}]}

LOG_N2 = {"n": 2, "field": FLAT, "kernel": {"family": "log"}}
RAMP_ZERO = {"n": 1, "field": RAMP, "kernel": {"family": "zero"}}
LOG_N1 = {"n": 1, "field": FLAT, "kernel": {"family": "log"}}
# finite at 1/2 alone, too few points for one node
POINT_N1 = json.loads((Path(__file__).parent / "data" / "bad-field-count.config.json")
                      .read_text())["problem"]
# a custom kernel whose log-weight sides, w = 1 - |t|, reach 0 at -1 and 1
BAD_LOGWEIGHT_CONFIG = Path(__file__).parent / "data" / "bad-kernel-logweight.config.json"
# the log problem at n = 2 with a "kernels" list, a key the problem reader
# does not know
BAD_KERNELS_CONFIG = Path(__file__).parent / "data" / "bad-problem-kernels.config.json"
# a log kernel with a "scale" key, which kernels do not have, and one with a
# "nan" strictify eta; CI runs the first through the installed entry point
BAD_SCALE_CONFIG = Path(__file__).parent / "data" / "bad-kernel-scale.config.json"
BAD_NUMBER_CONFIG = Path(__file__).parent / "data" / "bad-kernel-number.config.json"
# the log problem at n = 2 setting "tol_residual", a solver constant and not
# an option
BAD_TOLERANCE_CONFIG = Path(__file__).parent / "data" / "bad-options-tolerance.config.json"


def custom_n2(neg_c=0.0, **params):
    """A two-node problem with a custom kernel, params added or replaced."""
    return {**LOG_N2, "kernel": {"family": "custom", "params": {
        "neg": {"type": "quadratic", "a": -1.0, "b": -1.0, "c": neg_c},
        "pos": {"type": "quadratic", "a": -1.0, "b": 1.0, "c": 0.0}, **params}}}


def log_weight_sides(slope):
    """A custom kernel's params with sides log(1 - slope |t|)."""
    return {side: {"type": "log_weight", "w": {"type": "affine", "alpha": a, "beta": 1.0}}
            for side, a in (("neg", slope), ("pos", -slope))}


def flat_with(**interval):
    """LOG_N2 on a one-piece constant field with the given interval keys."""
    return {**LOG_N2, "field": {"pieces": [{"interval": {"a": 0.0, "b": 1.0, **interval},
                                            "formula": {"type": "constant", "c": 0.0}}]}}


def write_cfg(tmp_path, name, problem, **extra):
    doc = {"schema": 1, "problem": problem, **extra}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestValueCodec:
    def test_round_trip(self):
        # finite values are plain JSON numbers, bit-exact through a document
        for v in (0.0, -1.5, 0.1, 1 / 3, -1e-300, 5e-324):
            assert encode_value(v) is v
            assert json.loads(json.dumps(encode_value(v))) == v

    def test_plus_inf_has_no_place_here(self):
        # values live in R + {-inf}; a +inf is always a bug upstream
        with pytest.raises(ValueError):
            encode_value(math.inf)

    def test_neg_inf_is_a_string(self):
        assert encode_value(-math.inf) == "-inf"

    def test_document_stays_json_clean(self):
        json.dumps({"v": encode_value(-math.inf)}, allow_nan=False)


class TestFloatEncoder:
    def test_infinities_are_strings(self):
        assert encode_float(math.inf) == "inf"
        assert encode_float(-math.inf) == "-inf"

    def test_finite_values_pass_unchanged(self):
        for v in (0.0, -1.5, 1e-300, 5):
            assert encode_float(v) is v

    def test_nan_is_refused(self):
        with pytest.raises(ValueError):
            encode_float(math.nan)


class TestProblemCodec:
    @pytest.mark.parametrize("name", ["log-n2-flat", "log-n2-bump",
                                      "zero-n1-ramp", "log-n2-bands",
                                      "power05-n1-flat", "sqrt-n2-flat"])
    def test_battery_round_trips(self, name):
        p = battery_problem(name)
        q = problem_from_json(problem_to_json(p))
        assert q == p

    def test_weights_preserved(self):
        d = dict(LOG_N2)
        d["weights"] = [2.0, 3.0]
        p = problem_from_json(d)
        assert p.weights == (2.0, 3.0)
        assert problem_to_json(p)["weights"] == [2.0, 3.0]

    def test_bad_problem_is_config_error(self):
        with pytest.raises(ConfigError):
            problem_from_json({"n": 1, "field": FLAT})  # no kernel
        with pytest.raises(ConfigError):
            problem_from_json({"n": 0, "field": FLAT,
                               "kernel": {"family": "log"}})

    # each of these used to escape the readers as a plain ValueError
    @pytest.mark.parametrize("problem, message", [
        ({**LOG_N2, "kernel": {"family": "bessel"}}, "unknown kernel family 'bessel'"),
        ({**LOG_N2, "kernel": {"family": "power"}}, "missing s in power kernel params"),
        ({**LOG_N2, "field": {"pieces": [{"interval": {"a": 0.0, "b": 1.0},
                                          "formula": {"type": "cubic"}}]}},
         "unknown formula type 'cubic'"),
        ({**LOG_N2, "kernel": {"family": "log", "scale": -1}},
         "unknown kernel keys: scale"),
        ({**LOG_N2, "field": {"pieces": [{"interval": {"a": 0.0, "b": 2.0},
                                          "formula": {"type": "constant", "c": 0.0}}]}},
         "sticks out of"),
    ], ids=["family", "power-no-s", "formula-type", "scale", "piece-outside"])
    def test_malformed_descriptor_is_config_error(self, problem, message):
        with pytest.raises(ConfigError, match=message):
            problem_from_json(problem)


class TestOptionsCodec:
    def test_round_trip(self):
        o = SolveOptions(multistarts=3, seed=11)
        assert options_from_json(options_to_json(o)) == o

    def test_defaults_when_missing(self):
        assert options_from_json(None) == SolveOptions()

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigError):
            options_from_json({"tol_residul": 1e-7})

    # the tolerances and schedules are solver constants, not options
    @pytest.mark.parametrize("key", ["tol_residual", "tol_step", "max_iters", "fd_step",
                                     "continuation_etas"])
    def test_removed_option_rejected(self, key):
        with pytest.raises(ConfigError, match=f"^unknown option keys: {key}$"):
            options_from_json({"multistarts": 2, key: 1})


class TestConfig:
    def test_schema_version_required(self):
        with pytest.raises(ConfigError, match="schema"):
            config_from_json({"problem": LOG_N2})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_json({"schema": 1, "problem": LOG_N2, "probelm": {}})

    def test_nodes_length_must_match(self):
        with pytest.raises(ConfigError, match="nodes length"):
            config_from_json({"schema": 1, "problem": LOG_N2,
                              "nodes": [0.5]})

    def test_sweep_range_expansion(self):
        cfg = config_from_json({
            "schema": 1, "problem": RAMP_ZERO,
            "nodes": [0.25],
            "sweep": {"path": "nodes.1",
                      "values": {"start": 0.0, "stop": 1.0, "count": 5}}})
        assert cfg.sweep[0]["values"] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_sweep_input_is_not_rewritten(self):
        axes = [{"path": "nodes.1", "values": {"start": 0.0, "stop": 1.0, "count": 3}},
                {"path": "problem.weights.1", "values": [1, 2]}]
        doc = {"schema": 1, "problem": LOG_N2, "sweep": axes}
        before = json.dumps(doc)
        cfg = config_from_json(doc)
        assert json.dumps(doc) == before
        assert [a["values"] for a in cfg.sweep] == [[0.0, 0.5, 1.0], [1.0, 2.0]]

    # the report path and format and the checks to run are the CLI flags
    # --output, --format and --check/--all, not config keys
    @pytest.mark.parametrize("key, value", [
        ("output", {"path": "out.json", "format": "csv"}),
        ("checks", ["lem2.4/a"]),
    ], ids=["output", "checks"])
    def test_removed_config_key_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^unknown config keys: {key}$"):
            config_from_json({"schema": 1, "problem": LOG_N2, key: value})

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))


class TestSolveReportJson:
    def test_trace_and_infinities_encode(self):
        rep = solve_equioscillation(battery_problem("zero-n1-gate"))
        d = solve_report_to_json(rep)
        json.dumps(d, allow_nan=False)
        assert d["status"] == rep.status

    def test_infeasible_report_encodes_inf_residual(self):
        rep = SolveReport(x=None, value=NEG_INF, residual=math.inf,
                          status="infeasible", iterations=0)
        d = solve_report_to_json(rep)
        assert d["residual"] == "inf" and d["value"] == "-inf" and d["x"] is None
        json.dumps(d, allow_nan=False)


class TestCliSolve:
    def test_flat_log_two_nodes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", LOG_N2,
                        options={"multistarts": 4})
        rc = main(["solve", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema"] == 1 and doc["command"] == "solve"
        v = doc["equioscillation"]["value"]
        assert v == pytest.approx(-math.log(8.0), abs=1e-6)
        assert doc["minimax"]["status"] == "converged"

    def test_ramp_has_no_equioscillation(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", RAMP_ZERO)
        rc = main(["solve", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 1
        doc = json.loads(out)
        assert doc["equioscillation"]["status"] == "stalled"
        assert doc["equioscillation"]["note"].startswith("none-found")
        assert doc["minimax"]["value"] == pytest.approx(0.5, abs=1e-6)

    def test_usc_regularize_flag_recovers(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", RAMP_ZERO)
        rc = main(["solve", "--config", cfg, "--usc-regularize"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        eq = doc["equioscillation"]
        assert eq["x"] == [0.5]
        assert eq["residual"] == 0.0
        assert eq["value"] == 0.5

    def test_output_file_round_trip(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", LOG_N2,
                        options={"multistarts": 2})
        out_path = tmp_path / "report.json"
        rc = main(["solve", "--config", cfg, "--output", str(out_path)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["command"] == "solve"
        # writing and re-reading must not lose precision
        again = tmp_path / "again.json"
        rc = main(["solve", "--config", cfg, "--output", str(again)])
        assert json.loads(again.read_text(encoding="utf-8")) == doc

    def test_csv_trace(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", RAMP_ZERO)
        main(["solve", "--config", cfg, "--format", "csv",
              "--usc-regularize"])
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["phase", "iteration", "residual", "value", "x1"]
        assert {r[0] for r in rows[1:]} <= {"equioscillation", "minimax",
                                            "maximin"}

    def test_seed_flag_overrides_the_config_seed(self, tmp_path, capsys):
        flag = write_cfg(tmp_path, "flag.json", LOG_N2, options={"multistarts": 2})
        cfg = write_cfg(tmp_path, "cfg.json", LOG_N2, options={"multistarts": 2, "seed": 5})
        assert main(["solve", "--config", flag, "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert main(["solve", "--config", cfg]) == 0
        assert capsys.readouterr().out == out
        assert json.loads(out)["options"] == {"multistarts": 2, "seed": 5}

    def test_fd_steps_keep_nodes_ordered(self, tmp_path, capsys):
        # a finite-difference step once crossed the left neighbour of a
        # pinned node, and the CLI exited 2 on "nodes must be nondecreasing"
        problem = {"n": 3, "weights": [2.073, 2.050, 1.095],
                   "kernel": {"family": "sqrt"},
                   "field": {"pieces": [{"interval": {"a": 0.0, "b": 0.2918},
                                         "formula": {"type": "constant",
                                                     "c": -0.311}}]}}
        cfg = write_cfg(tmp_path, "c.json", problem, options={"multistarts": 2})
        rc = main(["solve", "--config", cfg])
        assert rc in (0, 1)
        doc = json.loads(capsys.readouterr().out)
        for phase in ("equioscillation", "minimax", "maximin"):
            assert doc[phase]["status"] in ("converged", "stalled", "infeasible")
            assert isinstance(doc[phase]["note"], str)

    def test_one_equioscillation_run_per_solve(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(p, o):
            calls.append(o)
            return solve_equioscillation(p, o)

        # both bindings: the CLI's, and the one minimax/maximin would fall
        # back to without a shared result
        monkeypatch.setattr("fenton_minimax.cli.solve_equioscillation", counted)
        monkeypatch.setattr("fenton_minimax.solvers.solve_equioscillation", counted)
        cfg = write_cfg(tmp_path, "c.json", LOG_N2, options={"multistarts": 2})
        assert main(["solve", "--config", cfg]) == 0
        assert len(calls) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["minimax"]["status"] == doc["maximin"]["status"] == "converged"

    def test_solver_fault_exits_1(self, tmp_path, capsys, monkeypatch):
        def broken(p, o):
            raise ValueError("nodes must be nondecreasing")

        monkeypatch.setattr("fenton_minimax.cli.solve_equioscillation", broken)
        cfg = write_cfg(tmp_path, "c.json", LOG_N2)
        assert main(["solve", "--config", cfg]) == 1
        assert "solver fault" in capsys.readouterr().err

    def test_missing_config(self, capsys):
        assert main(["solve"]) == 2
        assert "solve requires --config" in capsys.readouterr().err

    def test_bad_json_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == 2

    # a misspelled or stale key would otherwise be dropped without a word
    @pytest.mark.parametrize("problem, key", [
        ({**LOG_N2, "weight": [2.0, 3.0]}, "unknown problem keys: weight"),
        ({**LOG_N2, "sup_mode": {"kind": "exact"}}, "unknown problem keys: sup_mode"),
        ({**LOG_N2, "kernel": {"family": "log", "strictfy_eta": 0.1}},
         "unknown kernel keys: strictfy_eta"),
        ({**RAMP_ZERO, "field": {"pieces": [{
            "interval": {"a": 0.0, "b": 0.5, "closed_rigth": False},
            "formula": {"type": "affine", "alpha": 1.0, "beta": 0.0}}]}},
         "unknown interval keys: closed_rigth"),
        ({**RAMP_ZERO, "field": {"pieces": [{
            "interval": {"a": 0.0, "b": 0.5}, "closed_right": False,
            "formula": {"type": "affine", "alpha": 1.0, "beta": 0.0}}]}},
         "unknown field piece keys: closed_right"),
        ({**LOG_N2, "kernel": {"family": "power", "params": {"s": 0.5, "scale": 2.0}}},
         "unknown power kernel params keys: scale"),
        ({**LOG_N2, "kernel": {"family": "log", "params": {"s": 0.5}}},
         "unknown log kernel params keys: s"),
        ({**LOG_N2, "kernel": {"family": "custom", "params": {
            "neg": {"type": "quadratic", "a": -1.0, "b": -1.0, "c": 0.0},
            "pos": {"type": "quadratic", "a": -1.0, "b": 1.0, "c": 0.0, "vertex": 0.5}}}},
         "unknown quadratic formula keys: vertex"),
        (custom_n2(flags={"singular": False}), "unknown custom kernel params keys: flags"),
        ({**LOG_N2, "field": {"pieces": [{
            "interval": {"a": 0.0, "b": 1.0},
            "formula": {"type": "constant", "c": 0.0, "vertex": 0.5}}]}},
         "unknown constant formula keys: vertex"),
        ({**LOG_N2, "field": {"pieces": [{
            "interval": {"a": 0.0, "b": 1.0},
            "formula": {"type": "log_weight", "w": {"type": "affine", "alpha": 0.0,
                                                    "beta": 1.0, "gamma": 2.0}}}]}},
         "unknown affine formula keys: gamma"),
    ], ids=["weight", "sup_mode", "strictfy_eta", "closed_rigth", "piece-closed_right",
            "power-params-scale", "log-params-s", "custom-formula-vertex",
            "custom-flags", "constant-vertex", "log_weight-nested-gamma"])
    def test_unknown_descriptor_key_exits_2(self, tmp_path, capsys, problem, key):
        cfg = write_cfg(tmp_path, "c.json", problem)
        assert main(["solve", "--config", cfg]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("problem, extra, key", [
        ({**LOG_N2, "field": {"pieces": 5}}, {}, "pieces must be a list"),
        ({**LOG_N2, "weights": 5}, {}, "weights must be a list"),
        ({"n": 2, "field": FLAT, "kernels": 5}, {}, "unknown problem keys: kernels"),
        (LOG_N2, {"options": {"continuation_etas": 5}},
         "unknown option keys: continuation_etas"),
        (LOG_N2, {"checks": 5}, "unknown config keys: checks"),
        (LOG_N2, {"checks": [{}]}, "unknown config keys: checks"),
        ({**LOG_N2, "n": 2.5}, {}, "n must be an integer"),
        ({**LOG_N2, "n": "2"}, {}, "n must be an integer"),
        ({**LOG_N2, "n": True}, {}, "n must be an integer"),
        (LOG_N2, {"options": {"multistarts": 1.5}}, "multistarts must be an integer"),
        (LOG_N2, {"options": {"max_iters": 2.5}}, "unknown option keys: max_iters"),
        (LOG_N2, {"options": {"seed": 0.5}}, "seed must be an integer"),
        (LOG_N2, {"options": {"multistarts": True}}, "multistarts must be an integer"),
        ({**LOG_N2, "weights": ["a", 1.0]}, {}, "weights items must be numbers"),
        (LOG_N2, {"options": {"continuation_etas": ["x", 0.0]}},
         "unknown option keys: continuation_etas"),
        (LOG_N2, {"output": True}, "unknown config keys: output"),
        (LOG_N2, {"output": 7}, "unknown config keys: output"),
        (LOG_N2, {"output": ["a"]}, "unknown config keys: output"),
        (LOG_N2, {"output": {"path": "out.json", "fromat": "csv"}},
         "unknown config keys: output"),
        (LOG_N2, {"sweep": {"path": "nodes.1",
                            "values": {"start": 0.0, "stop": 1.0, "count": 2.7}}},
         "count must be an integer"),
        (LOG_N2, {"sweep": {"path": "nodes.1",
                            "values": {"start": 0.0, "stop": 1.0, "count": True}}},
         "count must be an integer"),
        (LOG_N2, {"sweep": {"path": "nodes.1", "values": [0.5], "step": 0.1}},
         "unknown sweep axis keys: step"),
        (LOG_N2, {"sweep": {"path": "nodes.1", "values": {
            "start": 0.0, "stop": 1.0, "count": 3, "num": 3}}},
         "unknown sweep range keys: num"),
        (LOG_N2, {"sweep": {"path": "nodes.1",
                            "values": {"start": "x", "stop": 1.0, "count": 3}}},
         "start must be a number"),
        (LOG_N2, {"sweep": {"path": 1, "values": [0.5]}},
         "sweep path must be a string"),
        ({**LOG_N2, "kernel": {"family": "log", "scale": [1]}}, {},
         "unknown kernel keys: scale"),
        ({**LOG_N2, "kernel": {"family": "power", "params": {"s": None}}}, {},
         "s must be a number"),
        ({**LOG_N2, "kernel": {"family": "custom", "params": {
            "neg": {"type": "constant", "c": None},
            "pos": {"type": "quadratic", "a": -1.0, "b": 1.0, "c": 0.0}}}}, {},
         "c must be a number"),
        ({**LOG_N2, "kernel": {"family": "log", "singularize_eta": [None]}}, {},
         "singularize_eta items must be numbers"),
        ({**LOG_N2, "kernel": {"family": "log", "strictify_eta": "x"}}, {},
         "strictify_eta must be a number"),
        ({**LOG_N2, "kernel": {"family": "log", "scale": "nan"}}, {},
         "unknown kernel keys: scale"),
        ({**LOG_N2, "kernel": {"family": "log", "scale": True}}, {},
         "unknown kernel keys: scale"),
        ({**LOG_N2, "kernel": {"family": "log", "strictify_eta": math.nan}}, {},
         "strictify_eta must be a number"),
        ({**LOG_N2, "kernel": {"family": "log", "singularize_eta": "inf"}}, {},
         "singularize_eta must be a number"),
        ({**LOG_N2, "kernel": {"family": "power", "params": {"s": "nan"}}}, {},
         "s must be a number"),
        (custom_n2(neg_c="inf"), {}, "c must be a number"),
        (custom_n2(neg_c="nan"), {}, "c must be a number"),
        (flat_with(closed_right="no"), {}, "closed_right must be true or false"),
        (flat_with(a=False, b=True), {}, "a must be a number"),
        (custom_n2(**log_weight_sides(2.0)), {},
         "the negative side of a custom kernel is a log weight that is not positive"),
        ({**LOG_N2, "kernel": {"family": "log", "params": []}}, {},
         "params must be an object"),
        (LOG_N1, {"nodes": "0"}, "nodes must be a list"),
        (LOG_N1, {"nodes": [True]}, "nodes items must be numbers"),
        ({**LOG_N2, "weights": [1.0, math.inf]}, {}, "weights items must be numbers"),
        (LOG_N2, {"options": {"tol_residual": math.nan}}, "unknown option keys: tol_residual"),
        (LOG_N2, {"options": {"fd_step": math.inf}}, "unknown option keys: fd_step"),
        (LOG_N2, {"options": {"continuation_etas": [0.1, math.nan, 0.0]}},
         "unknown option keys: continuation_etas"),
        # a NaN item in a list of numbers
        ({**LOG_N2, "weights": [1.0, math.nan]}, {}, "weights items must be numbers"),
        (LOG_N2, {"sweep": {"path": "nodes.1", "values": [math.inf]}},
         "values items must be numbers"),
        (LOG_N2, {"sweep": {"path": "nodes.1",
                            "values": {"start": -math.inf, "stop": 1.0, "count": 3}}},
         "start must be a number"),
        ({"n": 1, "field": FLAT, "kernels": [{"family": "log"}], "weights": [2.0]}, {},
         "unknown problem keys: kernels"),
        ({**LOG_N1, "kernel": {"family": "sqrt"}, "kernels": [{"family": "log"}],
          "weights": [2.0]}, {}, "unknown problem keys: kernels"),
        (POINT_N1, {}, "field is finite at too few points for n=1 (weighted count 1.0)"),
    ], ids=["pieces", "weights", "kernels", "continuation_etas", "checks", "checks-item",
            "n-fraction", "n-string", "n-bool", "multistarts-fraction",
            "max_iters-fraction", "seed-fraction", "multistarts-bool",
            "weights-item", "continuation_etas-item", "output-bool", "output-int",
            "output-list", "output-fromat", "sweep-count-fraction",
            "sweep-count-bool", "sweep-axis-key", "sweep-range-key",
            "sweep-start-string", "sweep-path-int", "kernel-scale-list",
            "power-s-null", "custom-formula-null", "singularize_eta-item-null",
            "strictify_eta-string", "scale-nan-string", "scale-bool",
            "strictify_eta-NaN", "singularize_eta-inf-string", "power-s-nan-string",
            "formula-c-inf-string", "formula-c-nan-string", "closed_right-string",
            "interval-ends-bool", "custom-log-weight-negative", "log-params-list",
            "nodes-string", "nodes-item-bool", "weights-item-Infinity",
            "tol_residual-NaN", "fd_step-Infinity", "continuation_etas-item-NaN",
            "weights-item-NaN",
            "sweep-values-Infinity", "sweep-start-Infinity", "kernels-and-weights",
            "kernels-and-kernel-and-weights", "field-count"])
    def test_bad_descriptor_value_exits_2(self, tmp_path, capsys, monkeypatch, problem,
                                          extra, key):
        def no_solve(p, o):
            raise AssertionError("a malformed config reached the solver")

        monkeypatch.setattr("fenton_minimax.cli.solve_equioscillation", no_solve)
        cfg = write_cfg(tmp_path, "c.json", problem, **extra)
        assert main(["solve", "--config", cfg]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("problem, extra, message", [
        ({"field": FLAT, "kernel": {"family": "log"}}, {}, "missing n in problem"),
        ({"n": 2, "field": FLAT}, {}, "missing kernel in problem"),
        ({**LOG_N2, "kernel": {"params": {}}}, {}, "missing family in kernel"),
        ({**LOG_N2, "field": {"pieces": [{"interval": {"a": 0.0},
                                          "formula": {"type": "constant", "c": 0.0}}]}},
         {}, "missing b in interval"),
        ({**LOG_N2, "field": {"pieces": [{"interval": {"a": 0.0, "b": 1.0},
                                          "formula": {"type": "quadratic", "a": -1.0,
                                                      "b": 0.0}}]}}, {},
         "missing c in quadratic formula"),
        ({**LOG_N2, "field": {"pieces": [{"interval": {"a": 0.0, "b": 1.0}}]}}, {},
         "missing formula in field piece"),
        ({**LOG_N2, "kernel": {"family": "custom", "params": {
            "neg": {"type": "constant", "c": 0.0}}}},
         {}, "missing pos in custom kernel params"),
        (LOG_N2, {"sweep": {"path": "nodes.1", "values": {"start": 0.0, "stop": 1.0}}},
         "missing count in sweep range"),
    ], ids=["n", "kernel", "family", "interval-b", "formula-c", "piece-formula",
            "custom-pos", "sweep-count"])
    def test_missing_key_exits_2(self, tmp_path, capsys, problem, extra, message):
        cfg = write_cfg(tmp_path, "c.json", problem, **extra)
        assert main(["solve", "--config", cfg]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("slope", [1.0, 2.0], ids=["w-zero-at-ends", "w-negative"])
    def test_custom_log_weight_side_must_be_positive_exits_2(self, tmp_path, capsys, slope):
        # w = 1 - slope |t| on both sides: 0 at -1 and at 1 for slope 1,
        # negative for |t| > 1/2 for slope 2
        cfg = write_cfg(tmp_path, "c.json", custom_n2(**log_weight_sides(slope)))
        assert main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "the negative side of a custom kernel is a log weight that is not " \
               "positive on [-1, 0]" in err

    def test_custom_log_weight_config_file_exits_2(self, capsys):
        assert main(["solve", "--config", str(BAD_LOGWEIGHT_CONFIG)]) == 2
        assert "is a log weight that is not positive" in capsys.readouterr().err

    def test_kernels_list_config_file_exits_2(self, capsys):
        # a problem has one kernel; a kernel per node is not a problem key
        assert main(["solve", "--config", str(BAD_KERNELS_CONFIG)]) == 2
        assert "unknown problem keys: kernels" in capsys.readouterr().err

    @pytest.mark.parametrize("path, message", [
        (BAD_SCALE_CONFIG, "unknown kernel keys: scale"),
        (BAD_NUMBER_CONFIG, "strictify_eta must be a number, got 'nan'"),
    ], ids=["scale", "number"])
    def test_bad_kernel_config_file_exits_2(self, capsys, path, message):
        assert main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_tolerance_option_config_file_exits_2(self, capsys):
        assert main(["solve", "--config", str(BAD_TOLERANCE_CONFIG)]) == 2
        assert capsys.readouterr().err == "error: unknown option keys: tol_residual\n"

    def test_custom_log_weight_side_positive_on_its_side_loads(self):
        k = problem_from_json(custom_n2(**log_weight_sides(0.5))).kernel
        assert k.eval(-1.0) == k.eval(1.0) == math.log(0.5)

    def test_integral_float_n_is_accepted(self):
        assert problem_from_json({**LOG_N2, "n": 2.0}).n == 2

    def test_integral_float_options_are_accepted(self):
        o = options_from_json({"multistarts": 3.0, "seed": 7.0})
        assert (o.multistarts, o.seed) == (3, 7)


class TestCliOracle:
    def test_single_node_landscape_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json",
                        {"n": 1, "field": FLAT, "kernel": {"family": "log"}})
        rc = main(["oracle", "--config", cfg, "--h", "0.125",
                   "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x1", "m0", "m1", "mbar", "mlow"]
        assert len(rows) == 10  # 9 grid values plus the header
        first = rows[1]
        assert first[0] == "0.0"
        assert first[1] == "-inf"  # m_0 over the point interval [0, 0]

    def test_json_report_skips_the_landscape(self, tmp_path, capsys, monkeypatch):
        # the n = 1 landscape goes only into CSV, so JSON never computes it
        def landscape_call(*_):
            raise AssertionError("landscape computed for a JSON report")

        monkeypatch.setattr("fenton_minimax.cli.interval_maxima", landscape_call)
        cfg = write_cfg(tmp_path, "c.json",
                        {"n": 1, "field": FLAT, "kernel": {"family": "log"}})
        assert main(["oracle", "--config", cfg, "--h", "0.125"]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "oracle"

    def test_json_values(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", LOG_N2)
        rc = main(["oracle", "--config", cfg, "--h", str(1 / 64)])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        # coarse grid: the x restriction biases the minimax upward a few 1e-2
        assert doc["minimax"]["value"] == pytest.approx(-math.log(8.0),
                                                        abs=5e-2)
        assert doc["maximin"]["value"] <= doc["minimax"]["value"] + 1e-12

    def test_node_count_cap(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json",
                        {"n": 5, "field": FLAT, "kernel": {"family": "log"}})
        assert main(["oracle", "--config", cfg]) == 2
        assert "n <= 4" in capsys.readouterr().err

    def test_h_bounds(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", LOG_N2)
        assert main(["oracle", "--config", cfg, "--h", "1.5"]) == 2

    def test_h_above_half_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", LOG_N2)
        assert main(["oracle", "--config", cfg, "--h", "0.75"]) == 2
        assert "(0, 0.5]" in capsys.readouterr().err


class TestCliUnreadFlags:
    """Each command takes only the flags it reads; any other exits 2 and is
    named, before any work is done."""

    GOLDEN_CONFIG = str(Path(__file__).parent / "data" / "golden" / "log-n2-bump.config.json")

    @pytest.mark.parametrize("argv, unread", [
        (["oracle", "--config", GOLDEN_CONFIG, "--check", "nope/never"], "--check nope/never"),
        (["oracle", "--config", GOLDEN_CONFIG, "--h", "0.0078125", "--trials", "0"],
         "--trials 0"),
        (["oracle", "--config", GOLDEN_CONFIG, "--seed", "3"], "--seed 3"),
        (["solve", "--config", GOLDEN_CONFIG, "--h", "0.1"], "--h 0.1"),
        (["solve", "--config", GOLDEN_CONFIG, "--all"], "--all"),
        (["verify", "--all", "--config", "x"], "--config x"),
        (["verify", "--check", "lem2.4/c", "--usc-regularize"], "--usc-regularize"),
        (["sweep", "--config", GOLDEN_CONFIG, "--seed", "3"], "--seed 3"),
        # no abbreviations: --out is not --output
        (["solve", "--config", GOLDEN_CONFIG, "--out", "x"], "--out x"),
    ], ids=["oracle-check", "oracle-trials", "oracle-seed", "solve-h", "solve-all",
            "verify-config", "verify-usc", "sweep-seed", "solve-abbrev"])
    def test_unread_flag_exits_2(self, capsys, monkeypatch, argv, unread):
        for name in ("solve_equioscillation", "brute_minimax", "run_check", "load_config"):
            monkeypatch.setattr(f"fenton_minimax.cli.{name}", None)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {argv[0]} takes no {unread}\n"
        assert captured.out == ""


class TestCliVerify:
    def test_single_check_passes(self, capsys):
        rc = main(["verify", "--check", "lem2.4/c", "--trials", "50"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["checks"][0]["check_id"] == "lem2.4/c"

    def test_unknown_check_is_usage_error(self, capsys):
        assert main(["verify", "--check", "nope/never"]) == 2

    def test_config_exits_2(self, tmp_path, capsys):
        # verify reads no config: its checks come from --check or --all
        cfg = write_cfg(tmp_path, "c.json", LOG_N2)
        assert main(["verify", "--config", cfg, "--check", "lem2.4/a"]) == 2
        captured = capsys.readouterr()
        assert "verify takes no --config" in captured.err
        assert captured.out == ""

    def test_needs_some_selection(self, capsys):
        assert main(["verify"]) == 2

    def test_infeasible_check_exits_1(self, capsys, monkeypatch):
        def infeasible(check_id, trials, seed):
            raise CheckInfeasible(f"{check_id} drew no feasible system")

        monkeypatch.setattr("fenton_minimax.cli.run_check", infeasible)
        assert main(["verify", "--check", "lem2.4/c", "--trials", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "check infeasible: lem2.4/c drew no feasible system\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["--check", "lem2.4/c", "--trials", "0"],
        ["--check", "lem5.1/dini-max", "--trials", "-2"],
        ["--check", "thm1.3/no-strict-majorization", "--trials", "-2"],
        ["--all", "--trials", "0"],
    ], ids=["zero", "dini-max-negative", "no-strict-majorization-negative", "all-zero"])
    def test_trials_below_one_is_usage_error(self, capsys, argv):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert "trials must be at least 1" in captured.err
        assert captured.out == ""

    def test_csv_form(self, capsys):
        rc = main(["verify", "--check", "lem2.4/c", "--trials", "20",
                   "--format", "csv"])
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "check_id"
        assert rows[1][0] == "lem2.4/c" and rows[1][4] == "True"
        assert rc == 0


class TestCliSweep:
    def test_node_sweep_csv(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.json",
            {"n": 1, "field": FLAT, "kernel": {"family": "log"}},
            nodes=[0.5],
            sweep={"path": "nodes.1",
                   "values": {"start": 0.0, "stop": 1.0, "count": 101}})
        rc = main(["sweep", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["nodes.1", "m0", "m1", "mbar", "mlow"]
        assert len(rows) == 102
        # at x1 = 0 the left interval degenerates to the singular node
        assert rows[1][1] == "-inf"
        # m_0 = log(x1) along the way
        x, m0 = float(rows[51][0]), float(rows[51][1])
        assert m0 == pytest.approx(math.log(x), abs=1e-12)

    def test_eta_sweep_monotone(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.json", LOG_N2, nodes=[0.3, 0.7],
            sweep={"path": "problem.kernel.strictify_eta",
                   "values": [0.4, 0.2, 0.1, 0.05]})
        rc = main(["sweep", "--config", cfg, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        mbar = [row[-2] for row in doc["rows"]]
        # a smaller cusp term only lowers the maxima
        assert all(a >= b - 1e-12 for a, b in zip(mbar, mbar[1:]))

    @pytest.mark.parametrize("key", ["strictify_eta", "singularize_eta"])
    def test_kernel_sweep_sets_the_key(self, tmp_path, capsys, key):
        # the swept value replaces a declared one; it neither adds to it nor
        # stacks one more layer on it
        def rows(kernel):
            cfg = write_cfg(
                tmp_path, "c.json", {"n": 2, "field": FLAT, "kernel": kernel},
                nodes=[0.45, 0.55],
                sweep={"path": f"problem.kernel.{key}", "values": [0.2, 0.3]})
            assert main(["sweep", "--config", cfg, "--format", "json"]) == 0
            return json.loads(capsys.readouterr().out)["rows"]

        assert rows({"family": "log", key: 0.1}) == rows({"family": "log"})

    def test_two_axis_cross_product(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.json", LOG_N2, nodes=[0.3, 0.7],
            sweep=[{"path": "nodes.1", "values": [0.2, 0.3]},
                   {"path": "problem.weights.2", "values": [1.0, 2.0, 3.0]}])
        rc = main(["sweep", "--config", cfg])
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rc == 0
        assert len(rows) == 7  # header + 2 x 3 points
        assert rows[0][:2] == ["nodes.1", "problem.weights.2"]

    def test_empty_sweep_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", LOG_N2)
        assert main(["sweep", "--config", cfg]) == 2

    def test_unresolvable_path(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", LOG_N2, nodes=[0.3, 0.7],
                        sweep={"path": "problem.kernel.colour",
                               "values": [1.0]})
        assert main(["sweep", "--config", cfg]) == 2

    def test_kernel_scale_path_exits_2(self, tmp_path, capsys):
        # a kernel has no scale; the weights are the problem's multipliers
        cfg = write_cfg(tmp_path, "c.json", LOG_N2, nodes=[0.3, 0.7],
                        sweep={"path": "problem.kernel.scale", "values": [2.0]})
        assert main(["sweep", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: unknown kernel parameter in sweep path 'problem.kernel.scale'\n")

    @pytest.mark.parametrize("path, message", [
        ("nodes.x", "bad node index in sweep path 'nodes.x'"),
        ("nodes.3", "sweep path 'nodes.3': index out of range 1..2"),
        ("problem.weights.x", "bad weight index in sweep path 'problem.weights.x'"),
        ("problem.weights.0", "sweep path 'problem.weights.0': index out of range 1..2"),
    ], ids=["node-not-integer", "node-out-of-range", "weight-not-integer",
            "weight-out-of-range"])
    def test_bad_path_index_exits_2(self, tmp_path, capsys, path, message):
        cfg = write_cfg(tmp_path, "c.json", LOG_N2, nodes=[0.3, 0.7],
                        sweep={"path": path, "values": [0.5]})
        assert main(["sweep", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCliUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["replumb"])
        assert exc.value.code == 2

    def test_seed_override_changes_report(self, capsys):
        main(["verify", "--check", "lem2.4/a", "--trials", "30",
              "--seed", "1"])
        a = json.loads(capsys.readouterr().out)
        main(["verify", "--check", "lem2.4/a", "--trials", "30",
              "--seed", "2"])
        b = json.loads(capsys.readouterr().out)
        assert a["checks"][0]["worst_margin"] != b["checks"][0]["worst_margin"]
        assert a["seed"] == 1 and b["seed"] == 2
