"""Randomized verification checks with machine-readable reports.

Each check turns one structural claim about the solver's objects into a
falsifiable numeric predicate: sampled inequalities carry an explicit margin,
strict inequalities must clear zero, and limit statements become decay
assertions along a fixed schedule.  A clean report is evidence, not proof;
the value of the harness is that a violated claim produces a replayable
witness.

Margins are oriented so that negative means violation.  Non-strict
inequalities get a small floating-point allowance (1e-11) because the
samples are evaluated in double precision without compensated summation.

Checks are addressed by stable string identifiers like
``"thm1.3/no-strict-majorization"`` or ``"lem2.4/a"``; the registry at the
bottom binds each identifier to its sampling plan and default battery.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from .battery import (BATTERY, continuity_battery, kernel_limit_battery,
                      majorization_battery, usc_battery)
from .core import Interval, NodeSystem
from .fields import Field, limsup_conditions, monotone_usc_approximation, usc_regularize
from .formulas import Affine, Constant, Quadratic
from .kernels import (Kernel, kernel_from_json, kernel_to_json, log_kernel,
                      singularize, sqrt_kernel, strictify)
from .schema import (field_from_json, field_to_json, options_from_json,
                     options_to_json, problem_from_json, problem_to_json)
from .solvers import (SolveOptions, brute_maximin, brute_minimax,
                      solve_equioscillation, solve_maximin, solve_minimax)
from .sumtrans import Problem, interval_maxima, regularity, sup_on_interval

__all__ = [
    "CheckReport",
    "CheckInfeasible",
    "UnknownCheckError",
    "check_perturbation_inequality",
    "check_no_strict_majorization",
    "check_minimax_equals_maximin",
    "check_equioscillation_value",
    "check_usc_invariances",
    "check_dini_max",
    "check_kernel_limits",
    "check_continuity_suite",
    "replay_witness",
    "run_check",
    "all_check_ids",
    "REGISTRY",
]

_EQ_SLACK = 1e-11        # allowance for non-strict inequalities in doubles
_WITNESS_CAP = 8


class CheckInfeasible(RuntimeError):
    """The check could not be carried out (sampling or sub-solver failure)."""


class UnknownCheckError(ValueError):
    """No check is registered under the requested identifier."""


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    trials: int
    violations: int
    worst_margin: float
    witnesses: tuple[dict, ...]
    passed: bool
    note: str = ""

    def to_json(self) -> dict:
        worst = self.worst_margin
        if worst == math.inf:
            worst = "inf"
        elif worst == -math.inf:
            worst = "-inf"
        return {"check_id": self.check_id, "trials": self.trials,
                "violations": self.violations, "worst_margin": worst,
                "witnesses": list(self.witnesses), "passed": self.passed,
                "note": self.note}


class _Recorder:
    def __init__(self, check_id: str):
        self.check_id = check_id
        self.trials = 0
        self.violations = 0
        self.worst = math.inf
        self.witnesses: list[dict] = []

    def add(self, margin: float, witness: dict | None = None, ok: bool | None = None):
        self.trials += 1
        if margin < self.worst:
            self.worst = margin
        bad = (margin < 0) if ok is None else (not ok)
        if bad:
            self.violations += 1
            if witness is not None and len(self.witnesses) < _WITNESS_CAP:
                w = dict(witness)
                w["margin"] = margin
                self.witnesses.append(w)

    def add_array(self, margins: np.ndarray, bad: np.ndarray,
                  witness_of: Callable[[int], dict]):
        self.trials += len(margins)
        if len(margins):
            self.worst = min(self.worst, float(np.min(margins)))
        idx = np.nonzero(bad)[0]
        self.violations += len(idx)
        for i in idx[: _WITNESS_CAP - len(self.witnesses)]:
            w = witness_of(int(i))
            w["margin"] = float(margins[i])
            self.witnesses.append(w)

    def report(self, note: str = "") -> CheckReport:
        return CheckReport(self.check_id, self.trials, self.violations,
                           self.worst, tuple(self.witnesses),
                           passed=(self.violations == 0 and self.trials > 0),
                           note=note)


def _merge(check_id: str, reports: Iterable[CheckReport], note: str = "") -> CheckReport:
    reports = list(reports)
    trials = sum(r.trials for r in reports)
    violations = sum(r.violations for r in reports)
    worst = min((r.worst_margin for r in reports), default=math.inf)
    wit: list[dict] = []
    for r in reports:
        wit.extend(r.witnesses[: _WITNESS_CAP - len(wit)])
    notes = [n for n in ([note] + [r.note for r in reports]) if n]
    return CheckReport(check_id, trials, violations, worst, tuple(wit),
                       passed=(violations == 0 and trials > 0),
                       note="; ".join(notes))


def _ext_diff(x: float, y: float) -> float:
    """x - y treating a shared -inf as equality (difference 0)."""
    if x == -math.inf and y == -math.inf:
        return 0.0
    return x - y


def _ext_abs_diff(x: float, y: float) -> float:
    if x == -math.inf and y == -math.inf:
        return 0.0
    if x == -math.inf or y == -math.inf:
        return math.inf
    return abs(x - y)


def _squash(v: float) -> float:
    """Order-preserving map of R ∪ {-inf} onto [0, 1): a logistic curve.

    Used wherever deviations of possibly -inf quantities must be compared on
    a common bounded scale (continuity in the extended sense).
    """
    if v == -math.inf:
        return 0.0
    if v < 0:
        ev = math.exp(v)
        return ev / (1.0 + ev)
    return 1.0 / (1.0 + math.exp(-v))


def _mvec(p: Problem, ns: NodeSystem) -> tuple[float, ...]:
    return interval_maxima(p, ns).floats()


def _mbar_f(p: Problem, ns: NodeSystem) -> float:
    return max(_mvec(p, ns))


# ---------------------------------------------------------------------------
# interval perturbation inequalities


def _perturb_margin(k: Kernel, case: str, alpha: float, a: float, b: float,
                    beta: float, p: float, q: float, t: float) -> tuple[float, bool]:
    """(margin, violation) for one sample of the widening inequality."""
    lhs_terms = (p * k.eval(t - alpha), q * k.eval(t - beta))
    rhs_terms = (p * k.eval(t - a), q * k.eval(t - b))
    lhs = -math.inf if -math.inf in lhs_terms else math.fsum(lhs_terms)
    rhs = -math.inf if -math.inf in rhs_terms else math.fsum(rhs_terms)
    if case == "e":
        lhs, rhs = rhs, lhs
    if lhs == -math.inf:
        margin = 0.0 if rhs == -math.inf else math.inf
    elif rhs == -math.inf:
        margin = -math.inf
    else:
        margin = rhs - lhs
    strict = (case == "d") or (case == "e" and k.flags.strictly_monotone)
    bad = (margin <= 0) if strict else (margin < -_EQ_SLACK)
    return margin, bad


def check_perturbation_inequality(k: Kernel, trials: int = 100_000, seed: int = 0,
                             cases: str = "abcde") -> CheckReport:
    """Widening two nodes outward never raises the pure sum outside them.

    Samples 0 < alpha < a < b < beta < 1 with positive weights p, q and the
    balance ratio kappa = p(a-alpha) / (q(beta-b)).  Case (a): kappa >= 1,
    t in [0, alpha]; (b): kappa <= 1, t in [beta, 1]; (c): kappa = 1, both
    ranges, no monotonicity needed; (d): as (c) but the inequality must be
    strict (strictly concave kernels); (e): between the nodes the inequality
    reverses, strictly so for strictly monotone kernels.
    """
    for c in cases:
        if c not in "abcde":
            raise ValueError(f"unknown case {c!r}")
        if c in "abe" and not k.flags.monotone:
            raise ValueError(f"case ({c}) requires a monotone kernel")
    rng = np.random.default_rng(seed)
    rec = _Recorder(f"lem2.4/{cases}")
    kj = kernel_to_json(k)

    for case in cases:
        pts = np.sort(rng.uniform(0.02, 0.98, size=(trials, 4)), axis=1)
        for _ in range(4):
            bad_rows = np.diff(pts, axis=1).min(axis=1) < 5e-3
            if not bad_rows.any():
                break
            pts[bad_rows] = np.sort(rng.uniform(0.02, 0.98, size=(int(bad_rows.sum()), 4)),
                                    axis=1)
        pts = pts[np.diff(pts, axis=1).min(axis=1) >= 5e-3]
        alpha, a, b, beta = (pts[:, i] for i in range(4))
        m = len(alpha)
        u = rng.uniform(size=m)
        if case == "a":
            q = rng.uniform(0.25, 4.0, m)
            p = q * (beta - b) / (a - alpha) * (1.0 + 3.0 * rng.uniform(size=m))
            t = alpha * u
        elif case == "b":
            p = rng.uniform(0.25, 4.0, m)
            q = p * (a - alpha) / (beta - b) * (1.0 + 3.0 * rng.uniform(size=m))
            t = beta + (1.0 - beta) * u
        elif case in ("c", "d"):
            p = rng.uniform(0.25, 4.0, m)
            q = p * (a - alpha) / (beta - b)
            t = np.where(np.arange(m) % 2 == 0, alpha * u, beta + (1.0 - beta) * u)
        else:
            p = rng.uniform(0.25, 4.0, m)
            q = rng.uniform(0.25, 4.0, m)
            t = a + (b - a) * u

        with np.errstate(invalid="ignore"):
            lhs = p * k.eval_many(t - alpha) + q * k.eval_many(t - beta)
            rhs = p * k.eval_many(t - a) + q * k.eval_many(t - b)
            if case == "e":
                lhs, rhs = rhs, lhs
            margins = rhs - lhs
        margins = np.where(np.isnan(margins), 0.0, margins)  # -inf on both sides
        strict = (case == "d") or (case == "e" and k.flags.strictly_monotone)
        bad = (margins <= 0) if strict else (margins < -_EQ_SLACK)

        def witness_of(i, case=case, alpha=alpha, a=a, b=b, beta=beta, p=p, q=q, t=t):
            return {"kind": "lem2.4", "case": case, "kernel": kj,
                    "alpha": float(alpha[i]), "a": float(a[i]), "b": float(b[i]),
                    "beta": float(beta[i]), "p": float(p[i]), "q": float(q[i]),
                    "t": float(t[i])}

        rec.add_array(margins, bad, witness_of)
    return rec.report(note=f"kernel {k.family}, cases {cases}")


# ---------------------------------------------------------------------------
# sampling node systems from the regular set Y


def _sample_Y(p: Problem, rng: random.Random, count: int,
              min_rate: float = 1e-3) -> list[NodeSystem]:
    out: list[NodeSystem] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        ns = NodeSystem(tuple(sorted(rng.uniform(0.0, 1.0) for _ in range(p.n))))
        if regularity(p, ns).in_Y:
            out.append(ns)
        if attempts >= 1000 and len(out) < attempts * min_rate:
            raise CheckInfeasible(
                f"Y-sampling acceptance {len(out)}/{attempts} is below 0.1%")
    return out


def _majorization_slack(p: Problem, x: NodeSystem, y: NodeSystem,
                        margin: float) -> float:
    mx = np.array(_mvec(p, x))
    my = np.array(_mvec(p, y))
    return margin - float(np.min(mx - my))


def check_no_strict_majorization(p: Problem, trials: int = 10_000, seed: int = 0,
                                 margin: float = 1e-9, label: str = "") -> CheckReport:
    """No x in Y can have every interval maximum strictly above another y's.

    Consecutive Y-samples form the pairs; both orientations of each pair are
    asserted.  The margin converts strictness into a testable predicate.
    """
    rec = _Recorder("thm1.3/no-strict-majorization")
    rng = random.Random(seed)
    samples = _sample_Y(p, rng, trials + 1)
    pj = problem_to_json(p)
    vecs = [np.array(_mvec(p, ns)) for ns in samples]
    for i in range(trials):
        for u, v in ((i, i + 1), (i + 1, i)):
            slack = margin - float(np.min(vecs[u] - vecs[v]))
            wit = None
            if slack < 0:
                wit = {"kind": "majorization", "problem": pj, "config": label,
                       "x": list(samples[u].nodes), "y": list(samples[v].nodes),
                       "strict_margin": margin}
            rec.add(slack, wit)
    return rec.report(note=label)


# ---------------------------------------------------------------------------
# minimax = maximin and equioscillation values


_ORACLE_BRACKET = 8.0  # bracket half-width in units of the oracle grid step


def check_minimax_equals_maximin(p: Problem, tol: float = 1e-3,
                                 h: float | None = None,
                                 options: SolveOptions | None = None,
                                 label: str = "") -> CheckReport:
    """The simplex minimax and maximin values agree within tol.

    When a grid step h is given and n <= 2, both values must additionally lie
    inside brackets of half-width 8h around the brute-force grid values.
    """
    o = options or SolveOptions()
    rec = _Recorder("thm1.3/minimax-equals-maximin")
    # one equioscillation run warm-starts both; each search also has starts
    # of its own, so the comparison does not rest on that run alone
    eq = solve_equioscillation(p, o)
    mm = solve_minimax(p, o, eq=eq)
    mx = solve_maximin(p, o, eq=eq)
    if mm.x is None or mx.x is None:
        raise CheckInfeasible(f"{label or 'problem'}: sub-solver infeasible "
                              f"({mm.status}/{mx.status})")
    big = mm.value.as_float()
    low = mx.value.as_float()
    if not (math.isfinite(big) and math.isfinite(low)):
        raise CheckInfeasible(f"{label or 'problem'}: non-finite solver values")
    pj = problem_to_json(p)
    rec.add(tol - abs(big - low),
            {"kind": "minimax-maximin", "problem": pj, "config": label,
             "tol": tol, "minimax": big, "maximin": low,
             "options": options_to_json(o)})
    if h is not None and p.n <= 2:
        _, bval = brute_minimax(p, h)
        rec.add(_ORACLE_BRACKET * h - abs(big - bval.as_float()),
                {"kind": "oracle-bracket", "problem": pj, "config": label,
                 "h": h, "which": "minimax", "solver": big,
                 "oracle": bval.as_float()})
        _, gval = brute_maximin(p, h)
        rec.add(_ORACLE_BRACKET * h - abs(low - gval.as_float()),
                {"kind": "oracle-bracket", "problem": pj, "config": label,
                 "h": h, "which": "maximin", "solver": low,
                 "oracle": gval.as_float()})
    return rec.report(note=f"{label}: minimax {big:.9g}, maximin {low:.9g}")


def check_equioscillation_value(p: Problem, starts: int = 50, tol: float = 1e-5,
                                unique_nodes_tol: float | None = None,
                                options: SolveOptions | None = None,
                                label: str = "",
                                check_id: str = "thm1.3/equioscillation-value",
                                ) -> CheckReport:
    """Every equioscillation point found has the same value, the minimax one.

    With unique_nodes_tol set, the node systems themselves must also agree
    (the uniqueness scenario: strictly concave singular monotone kernel,
    concave finite field, equal weights).
    """
    base = options or SolveOptions()
    o = replace(base, multistarts=starts)
    eq = solve_equioscillation(p, o)
    if eq.status != "converged" or not eq.solutions:
        raise CheckInfeasible(f"{label or 'problem'}: equioscillation solver "
                              f"ended {eq.status} ({eq.note})")
    rec = _Recorder(check_id)
    mo = replace(base, multistarts=min(starts, 8))
    mm = solve_minimax(p, mo, eq=eq if mo == o else None)
    pj = problem_to_json(p)
    ref = eq.value.as_float()
    mval = mm.value.as_float()
    for s in eq.solutions:
        v = _mbar_f(p, s)
        rec.add(tol - abs(v - ref),
                {"kind": "eq-value", "problem": pj, "config": label,
                 "x": list(s.nodes), "tol": tol, "reference": ref})
        rec.add(tol - abs(v - mval),
                {"kind": "eq-value", "problem": pj, "config": label,
                 "x": list(s.nodes), "tol": tol, "reference": mval})
    if unique_nodes_tol is not None:
        first = np.array(eq.solutions[0].nodes)
        for s in eq.solutions[1:]:
            spread = float(np.max(np.abs(np.array(s.nodes) - first)))
            rec.add(unique_nodes_tol - spread,
                    {"kind": "eq-unique", "problem": pj, "config": label,
                     "x": list(s.nodes), "reference_x": list(eq.solutions[0].nodes),
                     "tol": unique_nodes_tol})
    return rec.report(note=f"{label}: {len(eq.solutions)} solution(s), "
                           f"value {ref:.9g}")


# ---------------------------------------------------------------------------
# invariance under usc regularization


def _field_sup_open(J: Field, a: float, b: float) -> float:
    """Exact sup of a piecewise field over the open interval (a, b)."""
    if b <= a:
        raise ValueError("need a nondegenerate open interval")
    q = Interval(a, b, closed_left=False, closed_right=False)
    best = -math.inf
    for piece in J.pieces:
        iv = piece.interval.intersect(q)
        if iv is not None:
            best = max(best, piece.formula.sup_on(iv.a, iv.b)[0])
    return best


def check_usc_invariances(p: Problem, trials: int = 1000, seed: int = 0,
                          label: str = "") -> CheckReport:
    """What survives replacing the field by its usc regularization.

    (i) the overall maximum is invariant at every node system; (ii) with all
    kernels singular each individual interval maximum is invariant; (iii) the
    maximin value is invariant within solver tolerance; (iv) suprema of the
    field itself over open subintervals are invariant.  All exact parts use
    tolerance 1e-12.
    """
    rec = _Recorder("lem6.1/usc-invariances")
    rng = random.Random(seed)
    reg = usc_regularize(p.field)
    preg = replace(p, field=reg)
    all_singular = all(p.node_is_singular(j) for j in range(p.n))
    pj = problem_to_json(p)
    fj = field_to_json(p.field)
    for _ in range(trials):
        ns = NodeSystem(tuple(sorted(rng.uniform(0.0, 1.0) for _ in range(p.n))))
        m0 = _mvec(p, ns)
        m1 = _mvec(preg, ns)
        rec.add(1e-12 - _ext_abs_diff(max(m0), max(m1)),
                {"kind": "usc-mbar", "problem": pj, "config": label,
                 "x": list(ns.nodes)})
        if all_singular:
            for j in range(p.n + 1):
                rec.add(1e-12 - _ext_abs_diff(m0[j], m1[j]),
                        {"kind": "usc-mj", "problem": pj, "config": label,
                         "x": list(ns.nodes), "j": j})
        a = rng.uniform(0.0, 1.0)
        b = rng.uniform(0.0, 1.0)
        a, b = min(a, b), max(a, b)
        if b - a > 1e-6:
            rec.add(1e-12 - _ext_abs_diff(_field_sup_open(p.field, a, b),
                                          _field_sup_open(reg, a, b)),
                    {"kind": "usc-open-sup", "field": fj, "config": label,
                     "a": a, "b": b})
    o = SolveOptions(seed=seed)
    r0 = solve_maximin(p, o)
    r1 = solve_maximin(preg, o)
    if r0.x is None or r1.x is None:
        raise CheckInfeasible(f"{label or 'problem'}: maximin infeasible under "
                              "the original or regularized field")
    rec.add(1e-3 - abs(r0.value.as_float() - r1.value.as_float()),
            {"kind": "usc-maximin", "problem": pj, "config": label, "tol": 1e-3,
             "options": options_to_json(o)})
    return rec.report(note=label)


# ---------------------------------------------------------------------------
# decreasing continuous approximation of the maximum


_DINI_SCHEDULE = (4.0, 16.0, 64.0, 256.0, 1024.0)


def _field_argmax(g: Field) -> float:
    for piece in g.pieces:
        v, arg = piece.formula.sup_on(piece.interval.a, piece.interval.b)
        if v == g.upper_bound:
            return arg
    return 0.0


def _random_usc_field(rng: random.Random) -> Field:
    """A random piecewise field with moderate slopes, usc-regularized."""
    from .fields import FieldPiece
    for _ in range(64):
        cuts = sorted(rng.uniform(0.05, 0.95) for _ in range(rng.randint(1, 3)))
        pts = [0.0, *cuts, 1.0]
        if min(b - a for a, b in zip(pts, pts[1:])) < 0.08:
            continue
        pieces = []
        for a, b in zip(pts, pts[1:]):
            if rng.random() < 0.25 and pieces:
                continue  # leave a -inf gap
            kind = rng.randrange(3)
            if kind == 0:
                f = Constant(rng.uniform(-1.0, 1.0))
            elif kind == 1:
                f = Affine(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
            else:
                f = Quadratic(rng.uniform(-2.0, 0.0), rng.uniform(-2.0, 2.0),
                              rng.uniform(-1.0, 1.0))
            closed_right = rng.random() < 0.5
            pieces.append(FieldPiece(Interval(a, b, True, closed_right), f))
        if pieces:
            # avoid double-covering a shared endpoint
            fixed = []
            for i, piece in enumerate(pieces):
                iv = piece.interval
                if i + 1 < len(pieces) and iv.closed_right \
                        and pieces[i + 1].interval.a == iv.b:
                    iv = Interval(iv.a, iv.b, iv.closed_left, False)
                fixed.append(FieldPiece(iv, piece.formula))
            return usc_regularize(Field(tuple(fixed)))
    raise CheckInfeasible("could not sample a random field")


def _dini_slacks(g: Field, ks=_DINI_SCHEDULE) -> list[tuple[str, float]]:
    """(label, slack) items for one field: monotone, majorant, terminal gap."""
    target = g.upper_bound
    grid = sorted({_field_argmax(g), *np.linspace(0.0, 1.0, 65).tolist(),
                   *g.breakpoints()})
    envs = [monotone_usc_approximation(g, k) for k in ks]
    maxima = [max(env.eval_float(t) for t in grid) for env in envs]
    out = []
    for i in range(len(ks) - 1):
        out.append((f"max nonincreasing k={ks[i]}->{ks[i + 1]}",
                    maxima[i] - maxima[i + 1] + _EQ_SLACK))
    out.append(("terminal gap", 1e-2 - abs(maxima[-1] - target)))
    for t in grid[:: max(1, len(grid) // 8)]:
        vals = [env.eval_float(t) for env in envs]
        gt = g.eval_float(t)
        for i in range(len(vals) - 1):
            out.append((f"pointwise nonincreasing at t={t:.4g}",
                        vals[i] - vals[i + 1] + _EQ_SLACK))
        floor = 0.0 if gt == -math.inf else gt
        if gt != -math.inf:
            out.append((f"majorant at t={t:.4g}", vals[-1] - floor + _EQ_SLACK))
    return out


def check_dini_max(trials: int = 100, seed: int = 0) -> CheckReport:
    """Lipschitz envelopes decrease with k and their maxima settle on max g.

    For random usc piecewise fields g and the schedule k in {4,...,1024}:
    the numeric max of each envelope is nonincreasing in k, every envelope
    majorizes g pointwise, and the terminal max sits within 1e-2 of max g.
    """
    rec = _Recorder("lem5.1/dini-max")
    rng = random.Random(seed)
    for _ in range(trials):
        g = _random_usc_field(rng)
        fj = field_to_json(g)
        for what, slack in _dini_slacks(g):
            wit = None
            if slack < 0:
                wit = {"kind": "dini", "field": fj, "what": what}
            rec.add(slack, wit)
    return rec.report(note=f"schedule k in {tuple(int(k) for k in _DINI_SCHEDULE)}")


# ---------------------------------------------------------------------------
# kernel transform limits


def _transformed(p: Problem, direction: str, eta: float) -> Problem:
    op = strictify if direction == "strictify" else singularize
    if p.kernels is not None:
        return replace(p, kernels=tuple(op(k, eta) for k in p.kernels))
    return replace(p, kernel=op(p.kernel, eta))


def _kernel_limit_slacks(p: Problem, ns: NodeSystem, j: int, direction: str,
                         etas: tuple[float, ...]) -> list[float]:
    iv = ns.interval(j)
    base = sup_on_interval(p, ns, iv).value.as_float()
    vals = [sup_on_interval(_transformed(p, direction, e), ns, iv).value.as_float()
            for e in etas]
    slacks = []
    if direction == "strictify":
        # adding eta*sqrt raises the kernel: values decrease toward the base
        for hi, lo in zip(vals, vals[1:]):
            slacks.append(_ext_diff(hi, lo) + 1e-12)
        for v in vals:
            slacks.append(_ext_diff(v, base) + 1e-12)
    else:
        # the singular well only deepens with eta: values increase toward base
        for lo, hi in zip(vals, vals[1:]):
            slacks.append(_ext_diff(hi, lo) + 1e-12)
        for v in vals:
            slacks.append(_ext_diff(base, v) + 1e-12)
    return slacks


def check_kernel_limits(p: Problem, etas: tuple[float, ...] = (0.2, 0.1, 0.05, 0.02),
                        trials: int = 100, seed: int = 0, direction: str = "both",
                        label: str = "",
                        check_id: str = "kernel-limits") -> CheckReport:
    """Monotone convergence of interval maxima under the kernel transforms.

    Strictified kernels majorize the original, so their interval maxima
    decrease to the original ones as eta drops; singularized kernels
    minorize it, so theirs increase.  Direction violations at tolerance
    1e-12 are counted.
    """
    if any(e <= 0 for e in etas) or any(nxt >= prev for prev, nxt in zip(etas, etas[1:])):
        raise ValueError("etas must be positive and strictly decreasing")
    if direction not in ("strictify", "singularize", "both"):
        raise ValueError(f"unknown direction {direction!r}")
    rec = _Recorder(check_id)
    rng = random.Random(seed)
    pj = problem_to_json(p)
    monotone_all = all(p.kernel_at(j).flags.monotone for j in range(p.n))
    directions = ("strictify", "singularize") if direction == "both" else (direction,)
    for _ in range(trials):
        ns = NodeSystem(tuple(sorted(rng.uniform(0.0, 1.0) for _ in range(p.n))))
        j = rng.randrange(p.n + 1)
        for d in directions:
            if d == "strictify" and not monotone_all:
                continue
            for slack in _kernel_limit_slacks(p, ns, j, d, etas):
                wit = None
                if slack < 0:
                    wit = {"kind": "kernel-limit", "problem": pj, "config": label,
                           "x": list(ns.nodes), "j": j, "direction": d,
                           "etas": list(etas)}
                rec.add(slack, wit)
    return rec.report(note=f"{label}: etas {etas}")


# ---------------------------------------------------------------------------
# continuity suite


_SEQ_LEVELS = 11
_SEQ_BASE = 1e-2
_SEQ_RATIO = 0.25


def _seq_deltas() -> list[float]:
    return [_SEQ_BASE * _SEQ_RATIO ** k for k in range(_SEQ_LEVELS)]


def _sequence_slack(p: Problem, x: NodeSystem, direction: tuple[int, ...],
                    j: int, mode: str) -> float | None:
    """Decay-enveloped one-sided semicontinuity test along x_k -> x.

    mode "usc": the squashed excess of m_j at distance delta must fall below
    1e-9 plus twice the slope estimated from the coarse part of the same
    sequence; mode "lsc": the deficit, with allowance 1e-6.  Returns None
    when the perturbed systems leave the simplex.
    """
    base = _squash(_mvec(p, x)[j])
    seq = []
    for delta in _seq_deltas():
        cand = [xi + delta * d for xi, d in zip(x.nodes, direction)]
        if any(not 0.0 <= c <= 1.0 for c in cand) or any(
                c2 < c1 for c1, c2 in zip(cand, cand[1:])):
            return None
        val = _squash(_mvec(p, NodeSystem(tuple(cand)))[j])
        seq.append(val - base if mode == "usc" else base - val)
    deltas = _seq_deltas()
    slope = max([max(seq[i], 0.0) / deltas[i] for i in range(3)], default=0.0)
    allowance = 1e-9 if mode == "usc" else 1e-6
    return allowance + 2.0 * slope * deltas[-1] - seq[-1]


def check_continuity_suite(p: Problem, deltas: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
                           trials: int = 40, seed: int = 0,
                           label: str = "") -> CheckReport:
    """Deviation of the maxima under node perturbations decays with delta.

    (i) the recorded max deviation of the overall maximum is strictly
    decreasing across the delta schedule; (ii) with all kernels singular the
    same holds per interval maximum on a squashed extended scale; (iii) for
    usc fields the excess of m_j along convergent node sequences decays
    (upper semicontinuity); (iv) under the two-sided limsup condition, at
    strictly interior systems, so does the deficit (lower semicontinuity).
    """
    rec = _Recorder("lem3.3/continuity")
    rng = random.Random(seed)
    pj = problem_to_json(p)
    all_singular = all(p.node_is_singular(j) for j in range(p.n))

    devs: list[float] = []
    devs_j: list[float] = []
    for delta in deltas:
        worst = 0.0
        worst_j = 0.0
        done = 0
        attempts = 0
        while done < trials and attempts < trials * 60:
            attempts += 1
            xs = sorted(rng.uniform(3 * delta, 1.0 - 3 * delta) for _ in range(p.n))
            gaps = [b - a for a, b in zip(xs, xs[1:])]
            if gaps and min(gaps) <= 2.5 * delta:
                continue
            signs = [rng.choice((-1.0, 1.0)) for _ in range(p.n)]
            ys = [xi + delta * s for xi, s in zip(xs, signs)]
            nx, ny = NodeSystem(tuple(xs)), NodeSystem(tuple(ys))
            if all_singular:
                m0, m1 = _mvec(p, nx), _mvec(p, ny)
                worst = max(worst, abs(max(m0) - max(m1)))
                for j in range(p.n + 1):
                    worst_j = max(worst_j, abs(_squash(m0[j]) - _squash(m1[j])))
            else:
                worst = max(worst, abs(_mbar_f(p, nx) - _mbar_f(p, ny)))
            done += 1
        if done == 0:
            raise CheckInfeasible(f"{label or 'problem'}: could not sample "
                                  f"separated node systems at delta={delta}")
        devs.append(worst)
        devs_j.append(worst_j)

    decay_wit = {"kind": "continuity-decay", "problem": pj, "config": label,
                 "deltas": list(deltas), "trials": trials, "seed": seed}
    for d_coarse, d_fine in zip(devs, devs[1:]):
        rec.add(d_coarse - d_fine, dict(decay_wit, devs=devs),
                ok=d_fine < d_coarse)
    if all_singular:
        for d_coarse, d_fine in zip(devs_j, devs_j[1:]):
            rec.add(d_coarse - d_fine, dict(decay_wit, devs=devs_j, per_interval=True),
                    ok=d_fine < d_coarse)

    lims = limsup_conditions(p.field)
    seq_trials = min(10, trials)
    if lims.usc or lims.two_sided:
        base_points = _sample_Y(p, rng, seq_trials)
        for x in base_points:
            direction = tuple(rng.choice((-1, 1)) for _ in range(p.n))
            for j in range(p.n + 1):
                if lims.usc:
                    slack = _sequence_slack(p, x, direction, j, "usc")
                    if slack is not None:
                        rec.add(slack, {"kind": "continuity-seq", "problem": pj,
                                        "config": label, "x": list(x.nodes),
                                        "direction": list(direction), "j": j,
                                        "mode": "usc"})
                s = x.with_sentinels()
                strict_interior = (x.classify() == "interior"
                                   and s[j] < s[j + 1])
                if lims.two_sided and strict_interior:
                    slack = _sequence_slack(p, x, direction, j, "lsc")
                    if slack is not None:
                        rec.add(slack, {"kind": "continuity-seq", "problem": pj,
                                        "config": label, "x": list(x.nodes),
                                        "direction": list(direction), "j": j,
                                        "mode": "lsc"})
    dev_text = ", ".join(f"{d:.3g}" for d in devs)
    return rec.report(note=f"{label}: max |d mbar| per delta = [{dev_text}]")


# ---------------------------------------------------------------------------
# witness replay


def replay_witness(witness: dict) -> dict:
    """Re-run the single stored violating input; returns margin and verdict."""
    kind = witness.get("kind")
    if kind == "lem2.4":
        k = kernel_from_json(witness["kernel"])
        margin, bad = _perturb_margin(k, witness["case"], witness["alpha"],
                                      witness["a"], witness["b"], witness["beta"],
                                      witness["p"], witness["q"], witness["t"])
        return {"margin": margin, "violation": bad}
    if kind == "majorization":
        p = problem_from_json(witness["problem"])
        slack = _majorization_slack(p, NodeSystem(tuple(witness["x"])),
                                    NodeSystem(tuple(witness["y"])),
                                    witness["strict_margin"])
        return {"margin": slack, "violation": slack < 0}
    if kind == "minimax-maximin":
        p = problem_from_json(witness["problem"])
        o = options_from_json(witness.get("options"))
        rep = check_minimax_equals_maximin(p, tol=witness["tol"], options=o)
        return {"margin": rep.worst_margin, "violation": not rep.passed}
    if kind == "oracle-bracket":
        p = problem_from_json(witness["problem"])
        oracle = brute_minimax if witness["which"] == "minimax" else brute_maximin
        _, val = oracle(p, witness["h"])
        slack = _ORACLE_BRACKET * witness["h"] - abs(witness["solver"]
                                                     - val.as_float())
        return {"margin": slack, "violation": slack < 0}
    if kind in ("eq-value", "eq-unique"):
        p = problem_from_json(witness["problem"])
        v = _mbar_f(p, NodeSystem(tuple(witness["x"])))
        if kind == "eq-value":
            slack = witness["tol"] - abs(v - witness["reference"])
        else:
            spread = max(abs(a - b) for a, b in zip(witness["x"],
                                                    witness["reference_x"]))
            slack = witness["tol"] - spread
        return {"margin": slack, "violation": slack < 0}
    if kind == "usc-mbar" or kind == "usc-mj":
        p = problem_from_json(witness["problem"])
        preg = replace(p, field=usc_regularize(p.field))
        ns = NodeSystem(tuple(witness["x"]))
        m0, m1 = _mvec(p, ns), _mvec(preg, ns)
        if kind == "usc-mbar":
            slack = 1e-12 - _ext_abs_diff(max(m0), max(m1))
        else:
            j = witness["j"]
            slack = 1e-12 - _ext_abs_diff(m0[j], m1[j])
        return {"margin": slack, "violation": slack < 0}
    if kind == "usc-open-sup":
        f = field_from_json(witness["field"])
        slack = 1e-12 - _ext_abs_diff(_field_sup_open(f, witness["a"], witness["b"]),
                                      _field_sup_open(usc_regularize(f),
                                                      witness["a"], witness["b"]))
        return {"margin": slack, "violation": slack < 0}
    if kind == "usc-maximin":
        p = problem_from_json(witness["problem"])
        preg = replace(p, field=usc_regularize(p.field))
        o = options_from_json(witness.get("options"))
        d = abs(solve_maximin(p, o).value.as_float()
                - solve_maximin(preg, o).value.as_float())
        slack = witness["tol"] - d
        return {"margin": slack, "violation": slack < 0}
    if kind == "dini":
        g = field_from_json(witness["field"])
        slacks = dict(_dini_slacks(g))
        slack = slacks.get(witness["what"], min(slacks.values()))
        return {"margin": slack, "violation": slack < 0}
    if kind == "kernel-limit":
        p = problem_from_json(witness["problem"])
        slacks = _kernel_limit_slacks(p, NodeSystem(tuple(witness["x"])),
                                      witness["j"], witness["direction"],
                                      tuple(witness["etas"]))
        slack = min(slacks)
        return {"margin": slack, "violation": slack < 0}
    if kind == "continuity-decay":
        p = problem_from_json(witness["problem"])
        rep = check_continuity_suite(p, deltas=tuple(witness["deltas"]),
                                     trials=witness["trials"], seed=witness["seed"])
        return {"margin": rep.worst_margin, "violation": not rep.passed}
    if kind == "continuity-seq":
        p = problem_from_json(witness["problem"])
        slack = _sequence_slack(p, NodeSystem(tuple(witness["x"])),
                                tuple(witness["direction"]), witness["j"],
                                witness["mode"])
        if slack is None:
            return {"margin": math.inf, "violation": False}
        return {"margin": slack, "violation": slack < 0}
    raise ValueError(f"cannot replay witness of kind {kind!r}")


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    description: str
    default_trials: int
    runner: Callable[[int, int], CheckReport]


def _perturbation_runner(case: str):
    def run(trials: int, seed: int) -> CheckReport:
        reports = [check_perturbation_inequality(k, trials, seed + i, cases=case)
                   for i, k in enumerate((log_kernel(), sqrt_kernel()))]
        return _merge(f"lem2.4/{case}", reports)
    return run


def _majorization_runner(trials: int, seed: int) -> CheckReport:
    reports = [check_no_strict_majorization(p, trials, seed + i, label=name)
               for i, (name, p) in enumerate(sorted(majorization_battery().items()))]
    return _merge("thm1.3/no-strict-majorization", reports)


def _minimax_runner(trials: int, seed: int) -> CheckReport:
    o = SolveOptions(multistarts=6, seed=seed)
    reports = []
    for i, (name, p) in enumerate(sorted(BATTERY.items())):
        reports.append(check_minimax_equals_maximin(
            p, tol=1e-3, h=(1.0 / 400 if p.n <= 2 else None),
            options=replace(o, seed=seed + i), label=name))
    return _merge("thm1.3/minimax-equals-maximin", reports)


def _eq_value_runner(trials: int, seed: int) -> CheckReport:
    names = ("log-n1-gate", "log-n2-flat", "log-n2-bump", "sqrt-n2-flat")
    reports = [check_equioscillation_value(BATTERY[name], starts=trials,
                                           options=SolveOptions(seed=seed + i),
                                           label=name)
               for i, name in enumerate(names)]
    return _merge("thm1.3/equioscillation-value", reports)


def _uniqueness_runner(trials: int, seed: int) -> CheckReport:
    names = ("log-n2-bump", "log-n3-bump")
    reports = [check_equioscillation_value(BATTERY[name], starts=trials,
                                           tol=1e-5, unique_nodes_tol=1e-4,
                                           options=SolveOptions(seed=seed + i),
                                           label=name, check_id="thm1.1/uniqueness")
               for i, name in enumerate(names)]
    return _merge("thm1.1/uniqueness", reports)


def _usc_runner(trials: int, seed: int) -> CheckReport:
    reports = [check_usc_invariances(p, trials, seed + i, label=name)
               for i, (name, p) in enumerate(sorted(usc_battery().items()))]
    return _merge("lem6.1/usc-invariances", reports)


def _dini_runner(trials: int, seed: int) -> CheckReport:
    return check_dini_max(trials, seed)


def _kernel_limit_runner(direction: str, check_id: str):
    def run(trials: int, seed: int) -> CheckReport:
        probs = dict(kernel_limit_battery())
        if direction == "singularize":
            probs["zero-n2-bands"] = BATTERY["zero-n2-bands"]
        reports = [check_kernel_limits(p, trials=trials, seed=seed + i,
                                       direction=direction, label=name,
                                       check_id=check_id)
                   for i, (name, p) in enumerate(sorted(probs.items()))]
        return _merge(check_id, reports)
    return run


def _continuity_runner(trials: int, seed: int) -> CheckReport:
    reports = [check_continuity_suite(p, trials=trials, seed=seed + i, label=name)
               for i, (name, p) in enumerate(sorted(continuity_battery().items()))]
    return _merge("lem3.3/continuity", reports)


REGISTRY: dict[str, CheckSpec] = {}


def _register(check_id: str, description: str, default_trials: int, runner) -> None:
    REGISTRY[check_id] = CheckSpec(check_id, description, default_trials, runner)


for _case, _desc in (("a", "outer range, balance ratio at least 1"),
                     ("b", "outer range, balance ratio at most 1"),
                     ("c", "balanced move, no monotonicity needed"),
                     ("d", "strict inequality for strictly concave kernels"),
                     ("e", "reversed inequality between the moved nodes")):
    _register(f"lem2.4/{_case}",
              f"interval perturbation inequality, case ({_case}): {_desc}",
              100_000, _perturbation_runner(_case))

_register("thm1.3/no-strict-majorization",
          "no node system strictly majorizes another on the regular set Y",
          10_000, _majorization_runner)
_register("thm1.3/minimax-equals-maximin",
          "simplex minimax equals maximin across the battery, with oracle "
          "brackets for n <= 2", 1, _minimax_runner)
_register("thm1.3/equioscillation-value",
          "all equioscillation points found share the minimax value",
          50, _eq_value_runner)
_register("thm1.1/uniqueness",
          "strictly concave singular monotone kernel with a concave field: "
          "one equioscillation node system across multistarts",
          50, _uniqueness_runner)
_register("lem6.1/usc-invariances",
          "invariance of maxima and open-interval suprema under usc "
          "regularization of the field", 1000, _usc_runner)
_register("lem5.1/dini-max",
          "maxima of the Lipschitz envelopes decrease to the max of the field",
          100, _dini_runner)
_register("thm1.3/strictify-limit",
          "interval maxima decrease to the original as the strictification "
          "parameter drops", 100,
          _kernel_limit_runner("strictify", "thm1.3/strictify-limit"))
_register("lem4.1/singularize-limit",
          "interval maxima increase back to the original as the singularizing "
          "parameter drops", 100,
          _kernel_limit_runner("singularize", "lem4.1/singularize-limit"))
_register("lem3.3/continuity",
          "deviations of the maxima decay along the perturbation schedule",
          40, _continuity_runner)


def all_check_ids() -> tuple[str, ...]:
    return tuple(REGISTRY)


def run_check(check_id: str, trials: int | None = None, seed: int = 0) -> CheckReport:
    try:
        spec = REGISTRY[check_id]
    except KeyError:
        raise UnknownCheckError(
            f"unknown check id {check_id!r}; known: {', '.join(REGISTRY)}") from None
    return spec.runner(trials if trials is not None else spec.default_trials, seed)
