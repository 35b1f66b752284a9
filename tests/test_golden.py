"""Golden CLI reports: ``fenton-minimax solve``, ``oracle`` and ``verify`` must
reproduce them byte for byte.

Each ``tests/data/golden/<name>.config.json`` but ``log-n5-flat`` and
``log-n16-gate`` (below) is a battery problem with ``multistarts: 4`` and
seed 0, and ``<name>.report.json`` is the report the solve command wrote
for it before the scalar sup engine was restructured around a per-problem
plan.  ``custom-n2-bump`` is the bump field with a
custom kernel, ``|t|`` (affine sides -t and t) with a ``"singularize_eta":
0.05`` layer, and weights 2 at both nodes, so its report pins how a custom
kernel's formulas and layer and a problem's weights other than 1 are echoed
and solved (re-recorded when custom kernels stopped declaring flags, and
when the kernel's ``"scale": 2.0`` became these weights; both times only
its ``"problem"`` changed).  ``zero-n2-ramp`` is
``log-n1-ramp`` with two nodes and the zero kernel: its field is not usc and
has no equioscillation point, so that report pins a stalled solve (exit 1)
through the usc regularization; it was written when that route replaced the
limit heuristics of the n = 1 solver, and its CSV report
``zero-n2-ramp.report.csv`` pins the equioscillation trace of that solve,
which ends at the reported point (1/2, 1/2) with J's residual inf, and the
traces of its minimax and maximin searches.  ``log-n2-bands`` pins the
starts of a singular kernel on a field with a hole: every start is placed
on the field's finite part [0.1, 0.4] and [0.6, 0.9].  ``log-n16-gate`` is
the log kernel on the gate field at n = 16, where starts drawn on all of
[0, 1] leave some interval in the gate's -inf half and the solve found no
feasible start; it was written when starts came to be placed on J's finite
part.  That change re-recorded the ``zero-n2-bands``, ``log-n2-bands``,
``log-n1-ramp`` and ``zero-n2-ramp`` solve reports (JSON and CSV) and
``verify-minimax-equals-maximin`` and ``verify-all``: the six problems
whose J is not finite on all of [0, 1] got new starts, and only points,
iterations, residuals and values in the last digits moved.  ``log-n5-flat`` is
the log kernel on the flat field at n = 5 with ``multistarts: 8``, the
heaviest solve of the solve-battery benchmark and the one with the most
pattern-search polls; it was written before the pattern searches first
probed each interval at the incumbent's witness.  Each
``verify-<check>.report.json`` is the report of ``verify --check <id>
--trials 8 --seed 3``: the three checks of the
check-sampling benchmark were written before the batch engine learned
interval selectors and problem stacks, and ``dini-max`` and
``usc-invariances``, which exercise the fields' structural operations and
Lipschitz envelopes, before ``Field`` became piecewise-only, and
``minimax-equals-maximin``, whose note holds every battery problem's minimax
and maximin value to 9 digits, before the two searches shared one driver.
``uniqueness`` and ``equioscillation-value``, the two checks that run every
equioscillation start (20 and 8 trials), were written before the solve
came to stop at the first converged start.
``verify-all.report.json`` is the report of ``verify --all --trials 8 --seed
3``, so it pins every registered check, in registry order; it was written
before the per-check runner functions became one registry table.  Each
``oracle-<name>.report.json`` is the report of ``oracle --config
<name>.config.json --h H`` (H = 1/128 for n <= 2, 1/32 for n = 3), written
before the brute oracles learned to prune rows by a bound.  Two more CSV
reports pin the CSV encoding, ``-inf`` cells included: ``log-n2-bump.report.csv``
from ``solve --format csv`` (the solver traces) and
``oracle-log-n1-ramp.report.csv`` from ``oracle --h 1/128 --format csv``
(the n = 1 maxima landscape, 129 rows, 66 of them holding ``-inf``); both
were written before the JSON codecs and the report float encoder moved into
``schema``.  The two solve CSV reports were re-recorded when each pattern
search got its own trace (its start, its accepted polls and its reported
point, with the step as the residual) in place of a copy of the
equioscillation trace; their equioscillation rows kept their bytes.
When the equioscillation solve came to stop at its first converged start
and to polish that point with one more Newton step, every solve report at
n >= 2 was re-recorded (``log-n1-ramp`` kept its bytes): its iterations,
solutions and points moved, and its values by at most 9e-13.
When the solver's tolerances, iteration budget, finite-difference step and
continuation schedule stopped being options, the ``"options"`` block of
every solve JSON report was re-recorded to hold only ``multistarts`` and
``seed``; no other byte moved.
When minimax and maximin came to return the equioscillation point whenever
Theorem 1.3's bracket closes there, every solve report but ``zero-n2-ramp``
(whose equioscillation stalls, so both still search, and which kept its
bytes, JSON and CSV) was re-recorded: the minimax and maximin ``residual``
(the bracket's width), ``iterations`` (the equioscillation ones) and
``note`` (``certified by Theorem 1.3: M in [lo, hi]``, in place of
minimax's ``matches the equioscillation value`` and maximin's empty note)
moved, and in ``log-n2-bump.report.csv`` each search trace became one row
at the equioscillation point.  No ``x``, value, status or equioscillation
byte moved.
``sweep-log-n2-bands.report.csv`` is the report of ``sweep --config
sweep-log-n2-bands.config.json`` (CSV by default): the interval maxima of
the ``log-n2-bands`` problem as node 1 runs from 0 to 0.6 in 13 steps, node
2 at 2/3, so its first rows hold m_0 = ``-inf``; it was written before the
scalar engine's public single-interval entry point and result type went.
Reports carry no timings, so any byte that moves means a solver, an oracle,
a check or the sup engine changed a float, a status, an iteration or a
trial count.  To
re-record after an intended change of results, run for each name

    PYTHONPATH=src python -m fenton_minimax.cli solve \\
        --config tests/data/golden/<name>.config.json \\
        --output tests/data/golden/<name>.report.json
    PYTHONPATH=src python -m fenton_minimax.cli oracle \\
        --config tests/data/golden/<name>.config.json --h H \\
        --output tests/data/golden/oracle-<name>.report.json
    PYTHONPATH=src python -m fenton_minimax.cli verify --check <id> \\
        --trials 8 --seed 3 --output tests/data/golden/verify-<check>.report.json
    PYTHONPATH=src python -m fenton_minimax.cli verify --all \\
        --trials 8 --seed 3 --output tests/data/golden/verify-all.report.json

and, for the CSV reports, the argument lists in ``CSV_REPORTS`` with
``--output``.
"""

import json
from pathlib import Path

import pytest

from fenton_minimax.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
NAMES = ("log-n2-bump", "log-n3-flat", "sqrt-n3-bump", "power05-n2-bump",
         "zero-n2-bands", "log-n1-ramp")
# (golden CSV report, the CLI arguments that write it, their exit code)
CSV_REPORTS = (
    ("log-n2-bump.report.csv",
     ["solve", "--config", str(GOLDEN / "log-n2-bump.config.json"), "--format", "csv"], 0),
    ("oracle-log-n1-ramp.report.csv",
     ["oracle", "--config", str(GOLDEN / "log-n1-ramp.config.json"), "--h", "0.0078125",
      "--format", "csv"], 0),
    ("zero-n2-ramp.report.csv",
     ["solve", "--config", str(GOLDEN / "zero-n2-ramp.config.json"), "--format", "csv"], 1),
    ("sweep-log-n2-bands.report.csv",
     ["sweep", "--config", str(GOLDEN / "sweep-log-n2-bands.config.json")], 0),
)
CHECKS = ("thm1.3/no-strict-majorization", "thm1.3/strictify-limit",
          "lem4.1/singularize-limit", "lem5.1/dini-max", "lem6.1/usc-invariances",
          "thm1.3/minimax-equals-maximin", "thm1.1/uniqueness",
          "thm1.3/equioscillation-value")


@pytest.mark.parametrize("name", NAMES + ("custom-n2-bump", "log-n2-bands", "log-n5-flat",
                                          "log-n16-gate"))
def test_solve_report_is_byte_identical(name, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["solve", "--config", str(GOLDEN / f"{name}.config.json"),
               "--output", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.report.json").read_bytes()


def test_stalled_solve_report_is_byte_identical(tmp_path):
    # the zero kernel on the ramp: no equioscillation point, so exit 1
    out = tmp_path / "report.json"
    rc = main(["solve", "--config", str(GOLDEN / "zero-n2-ramp.config.json"),
               "--output", str(out)])
    assert rc == 1
    assert out.read_bytes() == (GOLDEN / "zero-n2-ramp.report.json").read_bytes()


@pytest.mark.parametrize("name", NAMES)
def test_oracle_report_is_byte_identical(name, tmp_path):
    config = GOLDEN / f"{name}.config.json"
    h = 1.0 / 32 if json.loads(config.read_text())["problem"]["n"] == 3 else 1.0 / 128
    out = tmp_path / "report.json"
    rc = main(["oracle", "--config", str(config), "--h", str(h), "--output", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / f"oracle-{name}.report.json").read_bytes()


@pytest.mark.parametrize("check_id", CHECKS)
def test_verify_report_is_byte_identical(check_id, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "--check", check_id, "--trials", "8", "--seed", "3",
               "--output", str(out)])
    assert rc == 0
    golden = GOLDEN / f"verify-{check_id.split('/')[1]}.report.json"
    assert out.read_bytes() == golden.read_bytes()


def test_verify_all_report_is_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "--all", "--trials", "8", "--seed", "3", "--output", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "verify-all.report.json").read_bytes()


@pytest.mark.parametrize("golden, argv, code", CSV_REPORTS,
                         ids=[g for g, _, _ in CSV_REPORTS])
def test_csv_report_is_byte_identical(golden, argv, code, tmp_path):
    out = tmp_path / "report.csv"
    assert main([*argv, "--output", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
