"""Seeded operations and output checks for the three benchmark workloads.

Each workload is an endless cycle of operations; op k is built from the
workload seed and k alone, so the same seed gives the same inputs.  The seed
enters through a constant c, drawn per op from [-1, 1], that is added to the
field J.  Adding c to J adds exactly c to every interval maximum, so the
reference values shift by c while the work the solvers and oracles do stays
the same.  The solver's own multistart seed is held at 0: on log-n4-flat it
moves one solve between 2.1 s and 4.8 s, which would swamp the run-to-run
spread the benchmark has to resolve.

Calls into the program go through module attributes (``cli.main``,
``checks.run_check``, ``getattr(solvers, ...)``) at call time, so the span
recorder in ``spans.py`` sees them once it rebinds those attributes.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from fenton_minimax import checks, cli, schema, solvers

WORKLOADS = ("solve-battery", "check-sampling", "oracle-grid")

# Battery problems by name: "<kernel>-n<nodes>-<field>".  The first sixteen
# are fenton_minimax.battery.BATTERY; log-n4-flat and log-n5-flat extend the
# Chebyshev case.  The pass order starts with a cheap solve (the warm-up op).
SOLVE_PROBLEMS = (
    "log-n1-flat", "log-n2-flat", "log-n3-flat", "log-n2-bump", "log-n3-bump",
    "log-n1-ramp", "log-n4-flat", "log-n1-gate", "log-n2-bands", "sqrt-n2-flat",
    "sqrt-n3-bump", "power05-n1-flat", "log-n5-flat", "power05-n2-bump",
    "zero-n1-bands", "zero-n2-bands", "zero-n1-gate", "zero-n1-ramp",
)
SOLVE_MULTISTARTS = 8
# Solver values agree with the references to about 1e-10 at the seed code.
VALUE_TOL = 1e-7

# Minimax values at c = 0 where no closed form is used, recorded with
# `fenton-minimax solve` (multistarts 8, seed 0) at the commit that added
# this benchmark.  log-*-flat uses (1 - 2n) log 2 and zero-n1-ramp 0.5.
RECORDED = {
    "log-n2-bump": -2.212233780998705,
    "log-n3-bump": -3.591060216817479,
    "log-n1-ramp": -1.1672241647023112,
    "log-n1-gate": -1.3862943610907867,
    "log-n2-bands": -2.5902671654457823,
    "sqrt-n2-flat": 1.2649110640673615,
    "sqrt-n3-bump": 1.6863434974233407,
    "power05-n1-flat": -1.4142135623730951,
    "power05-n2-bump": -3.625565215135238,
    "zero-n1-bands": 0.0,
    "zero-n2-bands": 0.0,
    "zero-n1-gate": 0.0,
}

# (check id, trials per op, reported trials per requested trial); the
# multiplier is fixed by the size of each check's sub-battery.  lem3.3/continuity
# is left out: at the seed code it reports violations on some seeds at any
# trial count this workload can afford (2 of 120 seeds at 4 trials, from its
# decay comparison on sqrt-n2-flat; 1 of 6 at 16 trials, a -3.1e-9 usc slack
# on sqrt-n3-bump), so it cannot be an op that never fails.
CHECKS = (
    ("thm1.3/no-strict-majorization", 250, 10),
    ("thm1.3/strictify-limit", 150, 28),
    ("lem4.1/singularize-limit", 150, 35),
)

# n = 2 problems at h = 1/400 and n = 3 problems at h = 1/64; each problem
# gives a brute_minimax and a brute_maximin op.
ORACLE_PROBLEMS = (
    ("log-n3-bump", 1 / 64), ("log-n2-flat", 1 / 400), ("log-n3-flat", 1 / 64),
    ("log-n2-bump", 1 / 400), ("sqrt-n3-bump", 1 / 64), ("log-n2-bands", 1 / 400),
    ("sqrt-n2-flat", 1 / 400), ("power05-n2-bump", 1 / 400), ("zero-n2-bands", 1 / 400),
)
ORACLE_BRACKET = 8.0  # the oracle value must lie within 8h of the reference

# Trace runs take a fixed number of passes, so their counts repeat exactly.
TRACE_PASSES = {"solve-battery": 1, "check-sampling": 8, "oracle-grid": 1}


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: the timed call and how to judge its result."""

    label: str
    call: Callable[[], object]
    verify: Callable[[object], str | None]  # an error text, or None if correct
    work: Callable[[object], float]  # solves, reported trials or oracle tuples


def _kernel_json(name: str) -> dict:
    if name == "power05":
        return {"family": "power", "params": {"s": 0.5}}
    return {"family": name}


def _field_json(name: str, c: float) -> dict:
    def piece(a, b, formula, closed_right=True):
        iv = {"a": a, "b": b}
        if not closed_right:
            iv["closed_right"] = False
        return {"interval": iv, "formula": formula}

    const = {"type": "constant", "c": c}
    if name == "flat":
        pieces = [piece(0.0, 1.0, const)]
    elif name == "bump":  # -(t - 1/2)^2 + c
        pieces = [piece(0.0, 1.0, {"type": "quadratic", "a": -1.0, "b": 1.0, "c": c - 0.25})]
    elif name == "ramp":  # t + c on [0, 1/2), -inf after
        pieces = [piece(0.0, 0.5, {"type": "affine", "alpha": 1.0, "beta": c}, False)]
    elif name == "gate":
        pieces = [piece(0.0, 0.5, const, False)]
    elif name == "bands":
        pieces = [piece(0.1, 0.4, const), piece(0.6, 0.9, const)]
    else:
        raise ValueError(f"unknown field {name!r}")
    return {"pieces": pieces}


def problem_json(name: str, c: float) -> dict:
    kernel, n, field = name.split("-")
    return {"n": int(n[1:]), "field": _field_json(field, c), "kernel": _kernel_json(kernel)}


def reference(name: str) -> float:
    """The minimax (= maximin) value of the named problem at c = 0."""
    kernel, n, field = name.split("-")
    if kernel == "log" and field == "flat":
        return (1 - 2 * int(n[1:])) * math.log(2.0)
    if name == "zero-n1-ramp":
        return 0.5
    return RECORDED[name]


class Workload:
    """The op cycle of one workload for one seed."""

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.pass_len = {"solve-battery": len(SOLVE_PROBLEMS),
                         "check-sampling": len(CHECKS),
                         "oracle-grid": 2 * len(ORACLE_PROBLEMS)}[name]
        os.makedirs(workdir, exist_ok=True)

    def op(self, k: int) -> Op:
        """Build op k: writes or parses its inputs; nothing here is timed."""
        key = self.seed * 1_000_003 + k
        if self.name == "check-sampling":
            return self._check_op(*CHECKS[k % self.pass_len], key)
        c = random.Random(key).uniform(-1.0, 1.0)
        if self.name == "solve-battery":
            return self._solve_op(SOLVE_PROBLEMS[k % self.pass_len], c)
        name, h = ORACLE_PROBLEMS[(k % self.pass_len) // 2]
        return self._oracle_op(name, h, ("brute_minimax", "brute_maximin")[k % 2], c)

    def _solve_op(self, name: str, c: float) -> Op:
        cfg_path = os.path.join(self.workdir, f"{name}.json")
        out_path = os.path.join(self.workdir, "report.json")
        doc = {"schema": 1, "problem": problem_json(name, c),
               "options": {"multistarts": SOLVE_MULTISTARTS, "seed": 0}}
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        ref = reference(name) + c

        def verify(rc) -> str | None:
            # zero-n1-ramp has no equioscillation point: the supremum at the
            # ramp's open end is not attained, so that solver stalls and the
            # CLI exits 1.  That is the expected outcome.
            stalls = name == "zero-n1-ramp"
            if rc != (1 if stalls else 0):
                return f"exit code {rc}"
            with open(out_path, encoding="utf-8") as fh:
                rep = json.load(fh)
            for phase in ("equioscillation", "minimax", "maximin"):
                want = "stalled" if stalls and phase == "equioscillation" else "converged"
                if rep[phase]["status"] != want:
                    return f"{phase} status {rep[phase]['status']}"
                v = rep[phase]["value"]
                if not isinstance(v, float) or abs(v - ref) > VALUE_TOL:
                    return f"{phase} value {v} != reference {ref}"
            return None

        return Op(f"solve {name}",
                  lambda: cli.main(["solve", "--config", cfg_path, "--output", out_path]),
                  verify, lambda rc: 1.0)

    def _check_op(self, check_id: str, trials: int, per_trial: int, seed: int) -> Op:
        def verify(rep) -> str | None:
            if not rep.passed:
                return f"{rep.violations} violations"
            if rep.trials != per_trial * trials:
                return f"{rep.trials} trials reported, expected {per_trial * trials}"
            return None

        return Op(f"check {check_id}",
                  lambda: checks.run_check(check_id, trials, seed),
                  verify, lambda rep: float(rep.trials))

    def _oracle_op(self, name: str, h: float, fn: str, c: float) -> Op:
        p = schema.problem_from_json(problem_json(name, c))
        ref = reference(name) + c
        # candidate tuples C(m + n - 1, n) on the uniform grid of m points;
        # the few breakpoint probes the oracles add are not counted
        tuples = float(math.comb(round(1 / h) + p.n, p.n))

        def verify(res) -> str | None:
            v = res[1].as_float()
            if not abs(v - ref) <= ORACLE_BRACKET * h:
                return f"oracle value {v} outside {ORACLE_BRACKET}h of reference {ref}"
            return None

        return Op(f"{fn} {name}", lambda: getattr(solvers, fn)(p, h),
                  verify, lambda res: tuples)
