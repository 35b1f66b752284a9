import importlib
import pkgutil
import re
from pathlib import Path

import fenton_minimax
from fenton_minimax import solvers, sumtrans

README = Path(__file__).resolve().parents[1] / "README.md"

# the public surface: the paper's objects (the problem, F, the maxima vector),
# the solvers and their report, the brute oracles, the checks and the schema
PUBLIC = [
    "ExtendedReal", "NEG_INF", "Interval", "NodeSystem",
    "Formula", "Constant", "Affine", "Quadratic", "LogWeight",
    "Kernel", "zero_kernel", "log_kernel", "sqrt_kernel", "power_kernel",
    "custom_kernel", "strictify", "singularize",
    "Field", "FieldPiece", "FieldCount", "usc_regularize", "n_field_check",
    "LimsupConditions", "limsup_conditions", "monotone_usc_approximation",
    "Problem", "MaximaVector", "MaximaBatch", "sum_eval", "interval_maxima",
    "interval_maxima_batch",
    "SolveOptions", "SolveReport", "TraceRecord", "brute_minimax",
    "brute_maximin", "solve_equioscillation", "solve_minimax", "solve_maximin",
    "BATTERY", "battery_problem",
    "CheckReport", "CheckInfeasible", "UnknownCheckError", "run_check",
    "all_check_ids", "replay_witness",
    "SCHEMA_VERSION", "ConfigError", "RunConfig", "config_from_json",
    "load_config", "problem_from_json", "problem_to_json",
    "__version__",
]
# names that had no caller but each other: Y membership is read off the
# interval maxima, and F has one evaluator
REMOVED = ("sup_on_interval", "SupResult", "regularity", "regularity_many",
           "RegularityReport", "pure_sum_eval", "sample_regular")


def test_every_exported_name_resolves():
    # a stale name in __all__ breaks `from fenton_minimax.<module> import *`
    modules = [fenton_minimax] + [importlib.import_module(f"fenton_minimax.{m.name}")
                                  for m in pkgutil.iter_modules(fenton_minimax.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__
               if not hasattr(mod, name)]
    assert missing == []


def test_public_surface_is_pinned():
    assert fenton_minimax.__all__ == PUBLIC


def test_removed_names_do_not_resolve():
    left = [f"{mod.__name__}.{name}" for mod in (fenton_minimax, sumtrans, solvers)
            for name in REMOVED if hasattr(mod, name)]
    assert left == []


def test_readme_library_block_runs(capsys):
    # the block under "Library entry points" runs as written, and each line it
    # prints matches the comment beside it, where "..." stands for more digits
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    shown = [line.split("#", 1)[1].strip() for line in block.splitlines()
             if line.startswith("print(")]
    assert len(printed) == len(shown)
    for out, want in zip(printed, shown):
        assert re.fullmatch(r"\d*".join(map(re.escape, want.split("..."))), out), (out, want)
