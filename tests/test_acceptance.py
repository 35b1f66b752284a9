"""Acceptance gate: twelve end-to-end criteria with runtime caps.

Run with ``pytest -s tests/test_acceptance.py -v`` to see one PASS/FAIL line
per criterion.  Each test prints its line before asserting, so a failing
criterion still shows up in the transcript.
"""

import math
import random
import time

from fenton_minimax import solvers
from fenton_minimax.battery import BATTERY, battery_problem, flat_field, gate_field
from fenton_minimax.checks import run_check
from fenton_minimax.kernels import log_kernel
from fenton_minimax.core import NodeSystem
from fenton_minimax.fields import usc_regularize
from fenton_minimax.schema import field_to_json
from fenton_minimax.solvers import (SolveOptions, brute_minimax,
                                    solve_equioscillation, solve_maximin,
                                    solve_minimax)
from fenton_minimax.sumtrans import Problem, interval_maxima


def _gate(num: int, slug: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {slug}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_ramp_reproduction():
    t0 = time.perf_counter()
    p = battery_problem("zero-n1-ramp")
    mm = solve_minimax(p)
    mx = solve_maximin(p)
    ok = (abs(mm.value.as_float() - 0.5) <= 1e-6
          and abs(mx.value.as_float() - 0.5) <= 1e-6)
    reg = Problem(n=1, field=usc_regularize(p.field), kernel=p.kernel)
    eq = solve_equioscillation(reg)
    ok &= (eq.status == "converged" and eq.x.nodes[0] == 0.5
           and eq.value.as_float() == 0.5 and eq.residual == 0.0)
    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    _gate(1, "ramp-minimax-maximin-half", ok,
          f"M={mm.value.as_float():.9f} m={mx.value.as_float():.9f} "
          f"eq_residual={eq.residual} {dt:.2f}s")


def test_criterion_02_usc_counterexample_and_invariance():
    t0 = time.perf_counter()
    gate = gate_field()
    x = NodeSystem((0.5,))
    plain = Problem(n=1, field=gate, kernel=battery_problem("zero-n1-gate").kernel)
    star = Problem(n=1, field=usc_regularize(gate), kernel=plain.kernel)
    m_plain = interval_maxima(plain, x)
    m_star = interval_maxima(star, x)
    ok = (not m_plain.values[1].is_finite) and m_star.values[1].as_float() == 0.0

    sing = Problem(n=1, field=gate, kernel=battery_problem("log-n1-gate").kernel)
    sing_star = Problem(n=1, field=usc_regularize(gate), kernel=sing.kernel)
    rng = random.Random(0)
    worst = 0.0
    for _ in range(100):
        xs = NodeSystem((rng.random(),))
        a = interval_maxima(sing, xs).values
        b = interval_maxima(sing_star, xs).values
        for va, vb in zip(a, b):
            if va.is_finite != vb.is_finite:
                worst = math.inf
            elif va.is_finite:
                worst = max(worst, abs(va.as_float() - vb.as_float()))
    ok &= worst <= 1e-12
    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    _gate(2, "usc-changes-hole-not-singular-maxima", ok,
          f"m1: -inf -> {m_star.values[1].as_float()};"
          f" singular agreement {worst:.2e} {dt:.2f}s")


def test_criterion_03_two_node_log_closed_form():
    t0 = time.perf_counter()
    p = battery_problem("log-n2-flat")
    eq = solve_equioscillation(p)
    ok = eq.status == "converged"
    ok &= abs(eq.x.nodes[0] - 0.146447) <= 1e-4
    ok &= abs(eq.x.nodes[1] - 0.853553) <= 1e-4
    ok &= abs(eq.value.as_float() - (-2.079442)) <= 1e-4
    _, v_brute = brute_minimax(p, h=1.0 / 512)
    ok &= abs(v_brute.as_float() - eq.value.as_float()) <= 5e-3
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    _gate(3, "two-node-log-kernel-closed-form", ok,
          f"x={tuple(round(v, 6) for v in eq.x.nodes)} "
          f"value={eq.value.as_float():.6f} brute={v_brute.as_float():.6f} "
          f"{dt:.1f}s")


def test_criterion_04_minimax_equals_maximin_battery():
    t0 = time.perf_counter()
    families = {battery_problem(n).kernel.family for n in BATTERY}
    ns = {battery_problem(n).n for n in BATTERY}
    shapes = {str(field_to_json(battery_problem(n).field)) for n in BATTERY}
    ok = len(BATTERY) >= 10
    ok &= families >= {"log", "power", "sqrt", "zero"}
    ok &= ns >= {1, 2, 3}
    ok &= len(shapes) >= 4
    rep = run_check("thm1.3/minimax-equals-maximin")
    ok &= rep.passed
    dt = time.perf_counter() - t0
    ok &= dt < 120.0
    _gate(4, "minimax-equals-maximin-battery", ok,
          f"{len(BATTERY)} configs, families={sorted(families)}, "
          f"violations={rep.violations} {dt:.1f}s")


def test_criterion_05_no_strict_majorization():
    t0 = time.perf_counter()
    rep = run_check("thm1.3/no-strict-majorization")  # 10^4 pairs x 5 configs
    ok = rep.passed and rep.trials >= 50_000
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    _gate(5, "no-strict-majorization", ok,
          f"trials={rep.trials} violations={rep.violations} "
          f"worst_margin={rep.worst_margin:.3e} {dt:.1f}s")


def test_criterion_06_perturbation_cases():
    t0 = time.perf_counter()
    ok = True
    details = []
    for case in "abcde":
        rep = run_check(f"lem2.4/{case}")  # 10^5 samples x {log, sqrt}
        ok &= rep.passed and rep.trials >= 200_000
        if case == "d":
            ok &= rep.worst_margin > 0.0
        details.append(f"{case}:{rep.violations}")
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    _gate(6, "interval-perturbation-cases-a-e", ok,
          f"violations {' '.join(details)} {dt:.1f}s")


def test_criterion_07_dini_max_convergence():
    t0 = time.perf_counter()
    rep = run_check("lem5.1/dini-max")  # 100 random usc fields
    ok = rep.passed and rep.trials >= 100
    dt = time.perf_counter() - t0
    ok &= dt < 10.0
    _gate(7, "lipschitz-envelope-decrease", ok,
          f"trials={rep.trials} violations={rep.violations} {dt:.1f}s")


def test_criterion_08_kernel_limit_monotonicity():
    t0 = time.perf_counter()
    up = run_check("thm1.3/strictify-limit")
    down = run_check("lem4.1/singularize-limit")
    ok = up.passed and down.passed
    dt = time.perf_counter() - t0
    ok &= dt < 10.0
    _gate(8, "kernel-limit-monotonicity", ok,
          f"strictify={up.violations} singularize={down.violations} {dt:.1f}s")


def test_criterion_09_uniqueness_scenario():
    t0 = time.perf_counter()
    rep = run_check("thm1.1/uniqueness")  # 50 multistarts, n in {2, 3}
    ok = rep.passed
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    _gate(9, "uniqueness-under-strict-concavity", ok,
          f"trials={rep.trials} violations={rep.violations} {dt:.1f}s")


def test_criterion_10_open_sup_and_max_invariance():
    t0 = time.perf_counter()
    rep = run_check("lem6.1/usc-invariances")  # 10^3 per config
    ok = rep.passed and rep.trials >= 1000
    dt = time.perf_counter() - t0
    ok &= dt < 10.0
    _gate(10, "usc-invariances", ok,
          f"trials={rep.trials} violations={rep.violations} {dt:.1f}s")


def test_criterion_11_continuity_decay():
    t0 = time.perf_counter()
    rep = run_check("lem3.3/continuity")
    ok = rep.passed
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    _gate(11, "perturbation-decay-schedule", ok,
          f"trials={rep.trials} violations={rep.violations} {dt:.1f}s")


def test_criterion_12_chebyshev_at_scale():
    # log kernel, flat field: the monic Chebyshev problem on [0, 1], with
    # value (1 - 2n) log 2 at the nodes (1 + cos((2k - 1) pi / 2n)) / 2;
    # kept out of BATTERY, so the checks and benchmark mixes stay as they are
    t0 = time.perf_counter()
    o = SolveOptions(multistarts=1)
    ok = True
    details = []
    for n in (8, 16, 32):
        t1 = time.perf_counter()
        eq = solve_equioscillation(Problem(n=n, field=flat_field(), kernel=log_kernel()), o)
        want = sorted((1.0 + math.cos((2 * k - 1) * math.pi / (2 * n))) / 2.0
                      for k in range(1, n + 1))
        node_err = max(abs(a - b) for a, b in zip(eq.x.nodes, want))
        value_err = abs(eq.value.as_float() - (1 - 2 * n) * math.log(2.0))
        ok &= (eq.status == "converged" and node_err <= 1e-10
               and value_err <= solvers._TOL_RESIDUAL)
        details.append(f"n={n}: nodes {node_err:.1e} value {value_err:.1e} "
                       f"{time.perf_counter() - t1:.2f}s")
    dt = time.perf_counter() - t0
    ok &= dt < 10.0
    _gate(12, "chebyshev-nodes-at-scale", ok, f"{'; '.join(details)} {dt:.1f}s")
