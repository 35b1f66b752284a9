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
``"thm1.3/no-strict-majorization"`` or ``"lem2.4/a"``.  One table at the
bottom registers them all: each row names a check's description, default
trials, the battery problems (or kernels) it runs over in order, and the call
it makes on each with seeds ``seed``, ``seed + 1``, ...; the reports merge
under the row's identifier.  A call sets only what differs between rows:
each check's tolerances, margins and schedules are module constants, and
its witnesses carry the ones their replay reads.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .battery import BATTERY
from .core import Interval, NodeSystem
from .fields import Field, limsup_conditions, monotone_usc_approximation, usc_regularize
from .formulas import Affine, Constant, Quadratic
from .kernels import Kernel, log_kernel, singularize, sqrt_kernel, strictify
from .schema import (encode_float, field_from_json, field_to_json, kernel_from_json,
                     kernel_to_json, options_from_json, options_to_json,
                     problem_from_json, problem_to_json)
from .solvers import (SolveOptions, _equioscillation, brute_maximin, brute_minimax,
                      solve_equioscillation, solve_maximin, solve_minimax)
from .sumtrans import Problem, interval_maxima, interval_maxima_batch

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
# each check's settings; its witnesses carry them, so a replay reads them there
_STRICT_MARGIN = 1e-9    # no-strict-majorization: the margin strictness must clear
_MINIMAX_TOL = 1e-3      # minimax-equals-maximin: agreement of the two values
_ORACLE_H = 1.0 / 400    # minimax-equals-maximin: oracle grid step, n <= 2
_MINIMAX_STARTS = 6      # minimax-equals-maximin: solver multistarts
_EQ_TOL = 1e-5           # equioscillation value: agreement with the references
_UNIQUE_TOL = 1e-4       # uniqueness: node spread around the representative
_KERNEL_ETAS = (0.2, 0.1, 0.05, 0.02)     # kernel limits: the eta schedule
_CONTINUITY_DELTAS = (1e-2, 1e-3, 1e-4)   # continuity: the decay schedule


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
        return {"check_id": self.check_id, "trials": self.trials,
                "violations": self.violations,
                "worst_margin": encode_float(self.worst_margin),
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


def _ext_diff(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x - y elementwise, treating a shared -inf as equality (difference 0)."""
    with np.errstate(invalid="ignore"):
        return np.where((x == -np.inf) & (y == -np.inf), 0.0, x - y)


def _within(tol: float, x: float, y: float) -> float:
    """Slack of |x - y| <= tol, with -inf equal to itself and infinitely far
    from every real."""
    if x == -math.inf and y == -math.inf:
        return tol
    return tol - abs(x - y)


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


_PERTURB_KEYS = ("alpha", "a", "b", "beta", "p", "q", "t")


def _perturbation_margins(k: Kernel, case: str, alpha: np.ndarray, a: np.ndarray,
                          b: np.ndarray, beta: np.ndarray, p: np.ndarray,
                          q: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(margins, violations) of the widening inequality, one per sample."""
    with np.errstate(invalid="ignore"):
        lhs = p * k.eval_many(t - alpha) + q * k.eval_many(t - beta)
        rhs = p * k.eval_many(t - a) + q * k.eval_many(t - b)
        if case == "e":
            lhs, rhs = rhs, lhs
        margins = rhs - lhs
    margins = np.where(np.isnan(margins), 0.0, margins)  # -inf on both sides
    strict = (case == "d") or (case == "e" and k.strictly_monotone)
    return margins, (margins <= 0) if strict else (margins < -_EQ_SLACK)


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
        if c in "abe" and not k.monotone:
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

        sample = (alpha, a, b, beta, p, q, t)
        margins, bad = _perturbation_margins(k, case, *sample)
        rec.add_array(margins, bad, lambda i: {
            "kind": "lem2.4", "case": case, "kernel": kj,
            **{key: float(v[i]) for key, v in zip(_PERTURB_KEYS, sample)}})
    return rec.report(note=f"kernel {k.family}, cases {cases}")


# ---------------------------------------------------------------------------
# sampling node systems from the regular set Y


def _sample_Y(p: Problem, rng: random.Random, count: int,
              min_rate: float = 1e-3) -> tuple[np.ndarray, np.ndarray]:
    """count node systems in Y, shape (count, n), drawn by rejection, and
    their interval maxima, shape (count, n + 1).

    Each round draws as many rows as are still missing, one sorted
    ``rng.uniform`` tuple per row, and computes their maxima with one
    ``interval_maxima_batch`` call; a row is in Y when none is -inf.  No
    round draws past the row that completes the sample, so the rows and the
    state ``rng`` is left in are those of drawing and testing one row at a
    time, and each row's maxima are its own batch entries bit for bit.
    Once 1000 rows are drawn, an acceptance below ``min_rate`` raises
    ``CheckInfeasible`` at the row where it first happens.
    """
    X, M = np.empty((0, p.n)), np.empty((0, p.n + 1))
    attempts = 0
    while len(X) < count:
        rows = np.array([sorted(rng.uniform(0.0, 1.0) for _ in range(p.n))
                         for _ in range(count - len(X))])
        m = interval_maxima_batch(p, rows).values
        ok = ~(m == -np.inf).any(axis=1)
        # the acceptance after each row, from the running counts
        tried = attempts + np.arange(1, len(rows) + 1)
        accepted = len(X) + np.cumsum(ok)
        low = np.flatnonzero((tried >= 1000) & (accepted < tried * min_rate))
        if low.size:
            i = low[0]
            raise CheckInfeasible(f"Y-sampling acceptance {int(accepted[i])}/{int(tried[i])} "
                                  f"is below {min_rate:.1%}")
        attempts += len(rows)
        X, M = np.vstack([X, rows[ok]]), np.vstack([M, m[ok]])
    return X, M


def _majorization_slacks(mx: np.ndarray, my: np.ndarray, margin: float) -> np.ndarray:
    """margin - min_j (m_j(x) - m_j(y)) per row of the maxima arrays mx, my."""
    with np.errstate(invalid="ignore"):
        return margin - np.min(mx - my, axis=1)


def check_no_strict_majorization(p: Problem, trials: int = 10_000, seed: int = 0,
                                 label: str = "") -> CheckReport:
    """No x in Y can have every interval maximum strictly above another y's.

    Consecutive Y-samples form the pairs; both orientations of each pair are
    asserted.  The margin 1e-9 converts strictness into a testable predicate.
    """
    rec = _Recorder("thm1.3/no-strict-majorization")
    rng = random.Random(seed)
    X, m = _sample_Y(p, rng, trials + 1)
    pj = problem_to_json(p)
    # pairs (i, i + 1) and (i + 1, i), in that order
    flip = np.tile([0, 1], trials)
    u = np.repeat(np.arange(trials), 2) + flip
    v = u + 1 - 2 * flip
    slacks = _majorization_slacks(m[u], m[v], _STRICT_MARGIN)
    rec.add_array(slacks, slacks < 0, lambda i: {
        "kind": "majorization", "problem": pj, "config": label,
        "x": X[u[i]].tolist(), "y": X[v[i]].tolist(),
        "strict_margin": _STRICT_MARGIN})
    return rec.report(note=label)


# ---------------------------------------------------------------------------
# minimax = maximin and equioscillation values


_ORACLE_BRACKET = 8.0  # bracket half-width in units of the oracle grid step


def _minimax_maximin(p: Problem, o: SolveOptions, label: str = "") -> tuple[float, float]:
    """The simplex minimax and maximin values under options o."""
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
    return big, low


def _oracle_bracket(p: Problem, h: float, which: str, solver: float) -> tuple[float, float]:
    """(slack, oracle value): the solver's value lies within 8h of the brute
    oracle's on the grid of step h."""
    oracle = (brute_minimax if which == "minimax" else brute_maximin)(p, h)[1].as_float()
    return _within(_ORACLE_BRACKET * h, solver, oracle), oracle


def check_minimax_equals_maximin(p: Problem, seed: int = 0,
                                 label: str = "") -> CheckReport:
    """The simplex minimax and maximin values agree within 1e-3.

    The solves take 6 multistarts and the given seed.  For n <= 2 both
    values must also lie inside brackets of half-width 8h around the brute
    oracles' values on the grid of step h = 1/400.
    """
    o = SolveOptions(multistarts=_MINIMAX_STARTS, seed=seed)
    rec = _Recorder("thm1.3/minimax-equals-maximin")
    big, low = _minimax_maximin(p, o, label)
    pj = problem_to_json(p)
    rec.add(_within(_MINIMAX_TOL, big, low),
            {"kind": "minimax-maximin", "problem": pj, "config": label,
             "tol": _MINIMAX_TOL, "minimax": big, "maximin": low,
             "options": options_to_json(o)})
    if p.n <= 2:
        for which, solver in (("minimax", big), ("maximin", low)):
            slack, oracle = _oracle_bracket(p, _ORACLE_H, which, solver)
            rec.add(slack, {"kind": "oracle-bracket", "problem": pj, "config": label,
                            "h": _ORACLE_H, "which": which, "solver": solver,
                            "oracle": oracle})
    return rec.report(note=f"{label}: minimax {big:.9g}, maximin {low:.9g}")


def _spread_slack(tol: float, x: Iterable[float], y: Iterable[float]) -> float:
    """Slack of max_i |x_i - y_i| <= tol."""
    return tol - max(abs(a - b) for a, b in zip(x, y))


def check_equioscillation_value(p: Problem, starts: int = 50, seed: int = 0,
                                unique: bool = False, label: str = "") -> CheckReport:
    """Every equioscillation point found has the same value, the minimax one,
    within 1e-5 (check ``thm1.3/equioscillation-value``).

    With ``unique`` (check ``thm1.1/uniqueness``: strictly concave singular
    monotone kernel, concave finite field, equal weights) the node systems
    themselves must also agree: the point of every converged start lies
    within 1e-4 of the representative ``eq.x``, one trial per start.  Every
    start runs, not only those up to the first converged.
    """
    o = SolveOptions(multistarts=starts, seed=seed)
    eq = _equioscillation(p, o, every=True)
    if eq.status != "converged" or not eq.solutions:
        raise CheckInfeasible(f"{label or 'problem'}: equioscillation solver "
                              f"ended {eq.status} ({eq.note})")
    rec = _Recorder("thm1.1/uniqueness" if unique else "thm1.3/equioscillation-value")
    mm = solve_minimax(p, o, eq=eq)
    pj = problem_to_json(p)
    ref = eq.value.as_float()
    mval = mm.value.as_float()
    for s in eq.solutions:
        v = _mbar_f(p, s)
        for r in (ref, mval):
            rec.add(_within(_EQ_TOL, v, r),
                    {"kind": "eq-value", "problem": pj, "config": label,
                     "x": list(s.nodes), "tol": _EQ_TOL, "reference": r})
    if unique:
        rep_x = list(eq.x.nodes)
        for s in eq.converged_starts:
            rec.add(_spread_slack(_UNIQUE_TOL, s.nodes, rep_x),
                    {"kind": "eq-unique", "problem": pj, "config": label,
                     "x": list(s.nodes), "reference_x": rep_x,
                     "tol": _UNIQUE_TOL})
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


_USC_TOL = 1e-12  # tolerance of the exact invariances (all but maximin)


def _regularized(p: Problem) -> Problem:
    return replace(p, field=usc_regularize(p.field))


def _usc_maxima_slacks(p: Problem, preg: Problem, x: NodeSystem) -> list[float]:
    """Slacks of max_j m_j, then of each m_j, being the same at x for p and
    for preg, p with its field usc-regularized."""
    m0, m1 = _mvec(p, x), _mvec(preg, x)
    return [_within(_USC_TOL, max(m0), max(m1)),
            *(_within(_USC_TOL, u, v) for u, v in zip(m0, m1))]


def _open_sup_slack(f: Field, reg: Field, a: float, b: float) -> float:
    """Slack of sup f = sup reg over the open interval (a, b)."""
    return _within(_USC_TOL, _field_sup_open(f, a, b), _field_sup_open(reg, a, b))


def _usc_maximin_slack(p: Problem, preg: Problem, o: SolveOptions, tol: float,
                       label: str = "") -> float:
    """Slack of |maximin(p) - maximin(preg)| <= tol under options o."""
    r0 = solve_maximin(p, o)
    r1 = solve_maximin(preg, o)
    if r0.x is None or r1.x is None:
        raise CheckInfeasible(f"{label or 'problem'}: maximin infeasible under "
                              "the original or regularized field")
    return _within(tol, r0.value.as_float(), r1.value.as_float())


def check_usc_invariances(p: Problem, trials: int = 1000, seed: int = 0,
                          label: str = "") -> CheckReport:
    """What survives replacing the field by its usc regularization.

    (i) the overall maximum is invariant at every node system; (ii) with a
    singular kernel each individual interval maximum is invariant; (iii) the
    maximin value is invariant within solver tolerance; (iv) suprema of the
    field itself over open subintervals are invariant.  All exact parts use
    tolerance 1e-12.
    """
    rec = _Recorder("lem6.1/usc-invariances")
    rng = random.Random(seed)
    preg = _regularized(p)
    pj = problem_to_json(p)
    fj = field_to_json(p.field)
    for _ in range(trials):
        ns = NodeSystem(tuple(sorted(rng.uniform(0.0, 1.0) for _ in range(p.n))))
        mbar_slack, *mj_slacks = _usc_maxima_slacks(p, preg, ns)
        rec.add(mbar_slack, {"kind": "usc-mbar", "problem": pj, "config": label,
                             "x": list(ns.nodes)})
        if p.kernel.singular:
            for j, slack in enumerate(mj_slacks):
                rec.add(slack, {"kind": "usc-mj", "problem": pj, "config": label,
                                "x": list(ns.nodes), "j": j})
        a = rng.uniform(0.0, 1.0)
        b = rng.uniform(0.0, 1.0)
        a, b = min(a, b), max(a, b)
        if b - a > 1e-6:
            rec.add(_open_sup_slack(p.field, preg.field, a, b),
                    {"kind": "usc-open-sup", "field": fj, "config": label,
                     "a": a, "b": b})
    o = SolveOptions(seed=seed)
    rec.add(_usc_maximin_slack(p, preg, o, 1e-3, label),
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
    """(label, slack) items for one field: monotone, majorant, terminal gap.

    Labels repeat (one pointwise item per k step), so a witness names its
    item by index."""
    target = g.upper_bound
    grid = sorted({_field_argmax(g), *np.linspace(0.0, 1.0, 65).tolist(),
                   *g.breakpoints()})
    envs = [monotone_usc_approximation(g, k) for k in ks]
    maxima = [max(env(t) for t in grid) for env in envs]
    out = []
    for i in range(len(ks) - 1):
        out.append((f"max nonincreasing k={ks[i]}->{ks[i + 1]}",
                    maxima[i] - maxima[i + 1] + _EQ_SLACK))
    out.append(("terminal gap", 1e-2 - abs(maxima[-1] - target)))
    for t in grid[:: max(1, len(grid) // 8)]:
        vals = [env(t) for env in envs]
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
        items = _dini_slacks(g)
        slacks = np.array([slack for _, slack in items])
        rec.add_array(slacks, slacks < 0, lambda i: {
            "kind": "dini", "field": field_to_json(g), "what": items[i][0], "item": i})
    return rec.report(note=f"schedule k in {tuple(int(k) for k in _DINI_SCHEDULE)}")


# ---------------------------------------------------------------------------
# kernel transform limits


def _kernel_limit_slacks(p: Problem, X: np.ndarray, js: np.ndarray, direction: str,
                         etas: tuple[float, ...]) -> np.ndarray:
    """Slacks of m_{js[i]} at node system X[i], one row each: consecutive
    etas first, then each eta against the untransformed problem."""
    op = strictify if direction == "strictify" else singularize
    stack = [p, *(replace(p, kernel=op(p.kernel, e)) for e in etas)]
    m = interval_maxima_batch(stack, X, js).values
    base, vals = m[0][:, None], m[1:].T
    if direction == "strictify":
        # adding eta*sqrt raises the kernel: values decrease toward the base
        steps, gaps = _ext_diff(vals[:, :-1], vals[:, 1:]), _ext_diff(vals, base)
    else:
        # the singular well only deepens with eta: values increase toward base
        steps, gaps = _ext_diff(vals[:, 1:], vals[:, :-1]), _ext_diff(base, vals)
    return np.hstack([steps, gaps]) + 1e-12


def check_kernel_limits(p: Problem, direction: str, trials: int = 100, seed: int = 0,
                        label: str = "") -> CheckReport:
    """Monotone convergence of interval maxima under one kernel transform,
    along the schedule eta = 0.2, 0.1, 0.05, 0.02.

    Strictified kernels majorize the original, so their interval maxima
    decrease to the original ones as eta drops (check
    ``thm1.3/strictify-limit``, monotone kernels only); singularized kernels
    minorize it, so theirs increase (``lem4.1/singularize-limit``).
    Direction violations at tolerance 1e-12 are counted.
    """
    if direction not in ("strictify", "singularize"):
        raise ValueError(f"unknown direction {direction!r}")
    rec = _Recorder("thm1.3/strictify-limit" if direction == "strictify"
                    else "lem4.1/singularize-limit")
    rng = random.Random(seed)
    pj = problem_to_json(p)
    rows, js = [], []
    for _ in range(trials):
        rows.append(sorted(rng.uniform(0.0, 1.0) for _ in range(p.n)))
        js.append(rng.randrange(p.n + 1))
    X, js = np.array(rows).reshape(trials, p.n), np.array(js, dtype=int)
    if direction == "singularize" or p.kernel.monotone:
        slacks = _kernel_limit_slacks(p, X, js, direction, _KERNEL_ETAS)
        width = slacks.shape[1]
        flat = slacks.ravel()
        rec.add_array(flat, flat < 0, lambda i: {
            "kind": "kernel-limit", "problem": pj, "config": label,
            "x": list(rows[i // width]), "j": int(js[i // width]),
            "direction": direction, "etas": list(_KERNEL_ETAS), "slack": i % width})
    return rec.report(note=f"{label}: etas {_KERNEL_ETAS}")


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


def _decay_devs(p: Problem, deltas: tuple[float, ...], trials: int,
                rng: random.Random, label: str = "") -> list[list[float]]:
    """Worst deviation of the overall maximum per delta over trials random
    moves by delta and, with a singular kernel, a second series for the
    squashed interval maxima."""
    singular = p.kernel.singular
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
            m0, m1 = _mvec(p, NodeSystem(tuple(xs))), _mvec(p, NodeSystem(tuple(ys)))
            worst = max(worst, abs(max(m0) - max(m1)))
            if singular:
                for j in range(p.n + 1):
                    worst_j = max(worst_j, abs(_squash(m0[j]) - _squash(m1[j])))
            done += 1
        if done == 0:
            raise CheckInfeasible(f"{label or 'problem'}: could not sample "
                                  f"separated node systems at delta={delta}")
        devs.append(worst)
        devs_j.append(worst_j)
    return [devs, devs_j] if singular else [devs]


def _decay_step(devs: list[float], i: int) -> tuple[float, bool]:
    """(margin, violation) of the strict decrease devs[i + 1] < devs[i]."""
    return devs[i] - devs[i + 1], not devs[i + 1] < devs[i]


def check_continuity_suite(p: Problem, trials: int = 40, seed: int = 0,
                           label: str = "") -> CheckReport:
    """Deviation of the maxima under node perturbations decays with delta.

    (i) the recorded max deviation of the overall maximum is strictly
    decreasing across the delta schedule 1e-2, 1e-3, 1e-4; (ii) with a
    singular kernel the same holds per interval maximum on a squashed
    extended scale; (iii) for usc fields the excess of m_j along convergent
    node sequences decays (upper semicontinuity); (iv) under the two-sided
    limsup condition, at strictly interior systems, so does the deficit
    (lower semicontinuity).
    """
    rec = _Recorder("lem3.3/continuity")
    rng = random.Random(seed)
    pj = problem_to_json(p)
    decay_wit = {"kind": "continuity-decay", "problem": pj, "config": label,
                 "deltas": list(_CONTINUITY_DELTAS), "trials": trials, "seed": seed}
    series = _decay_devs(p, _CONTINUITY_DELTAS, trials, rng, label)
    for k, devs in enumerate(series):
        extra = {"per_interval": True} if k else {}
        for i in range(len(devs) - 1):
            margin, bad = _decay_step(devs, i)
            rec.add(margin, {**decay_wit, "devs": devs, **extra, "pair": i}, ok=not bad)

    lims = limsup_conditions(p.field)
    if lims.usc or lims.two_sided:
        for row in _sample_Y(p, rng, min(10, trials))[0]:
            x = NodeSystem(tuple(row.tolist()))
            direction = tuple(rng.choice((-1, 1)) for _ in range(p.n))
            s = x.with_sentinels()
            interior = x.classify() == "interior"
            for j in range(p.n + 1):
                for mode, applies in (("usc", lims.usc),
                                      ("lsc", lims.two_sided and interior
                                       and s[j] < s[j + 1])):
                    slack = _sequence_slack(p, x, direction, j, mode) if applies else None
                    if slack is not None:
                        rec.add(slack, {"kind": "continuity-seq", "problem": pj,
                                        "config": label, "x": list(x.nodes),
                                        "direction": list(direction), "j": j,
                                        "mode": mode})
    dev_text = ", ".join(f"{d:.3g}" for d in series[0])
    return rec.report(note=f"{label}: max |d mbar| per delta = [{dev_text}]")


# ---------------------------------------------------------------------------
# witness replay


def _problem(w: dict) -> Problem:
    return problem_from_json(w["problem"])


def _nodes(w: dict) -> NodeSystem:
    return NodeSystem(tuple(w["x"]))


def _with_regularized(w: dict) -> tuple[Problem, Problem]:
    p = _problem(w)
    return p, _regularized(p)


def _negative(slack: float) -> tuple[float, bool]:
    return slack, slack < 0


def _replay_perturbation(w: dict) -> tuple[float, bool]:
    margins, bad = _perturbation_margins(kernel_from_json(w["kernel"]), w["case"],
                                         *(np.array([w[key]]) for key in _PERTURB_KEYS))
    return float(margins[0]), bool(bad[0])


def _replay_majorization(w: dict) -> tuple[float, bool]:
    mx, my = (interval_maxima_batch(_problem(w), [w[key]]).values for key in ("x", "y"))
    return _negative(float(_majorization_slacks(mx, my, w["strict_margin"])[0]))


def _replay_kernel_limit(w: dict) -> tuple[float, bool]:
    slacks = _kernel_limit_slacks(_problem(w), np.array([w["x"]]), np.array([w["j"]]),
                                  w["direction"], tuple(w["etas"]))
    return _negative(float(slacks[0, w["slack"]]))


def _replay_open_sup(w: dict) -> tuple[float, bool]:
    f = field_from_json(w["field"])
    return _negative(_open_sup_slack(f, usc_regularize(f), w["a"], w["b"]))


def _replay_decay(w: dict) -> tuple[float, bool]:
    series = _decay_devs(_problem(w), tuple(w["deltas"]), w["trials"],
                         random.Random(w["seed"]))
    return _decay_step(series[1 if w.get("per_interval") else 0], w["pair"])


def _replay_sequence(w: dict) -> tuple[float, bool]:
    slack = _sequence_slack(_problem(w), _nodes(w), tuple(w["direction"]), w["j"],
                            w["mode"])
    return _negative(math.inf if slack is None else slack)


# witness kind -> (margin, violation) of the stored input, computed by the
# same slack function the check recorded it with
_REPLAY: dict[str, Callable[[dict], tuple[float, bool]]] = {
    "lem2.4": _replay_perturbation,
    "majorization": _replay_majorization,
    "minimax-maximin": lambda w: _negative(_within(
        w["tol"], *_minimax_maximin(_problem(w), options_from_json(w.get("options"))))),
    "oracle-bracket": lambda w: _negative(_oracle_bracket(
        _problem(w), w["h"], w["which"], w["solver"])[0]),
    "eq-value": lambda w: _negative(_within(
        w["tol"], _mbar_f(_problem(w), _nodes(w)), w["reference"])),
    "eq-unique": lambda w: _negative(_spread_slack(w["tol"], w["x"], w["reference_x"])),
    "usc-mbar": lambda w: _negative(_usc_maxima_slacks(*_with_regularized(w),
                                                       _nodes(w))[0]),
    "usc-mj": lambda w: _negative(_usc_maxima_slacks(*_with_regularized(w),
                                                     _nodes(w))[w["j"] + 1]),
    "usc-open-sup": _replay_open_sup,
    "usc-maximin": lambda w: _negative(_usc_maximin_slack(
        *_with_regularized(w), options_from_json(w.get("options")), w["tol"])),
    "dini": lambda w: _negative(_dini_slacks(field_from_json(w["field"]))[w["item"]][1]),
    "kernel-limit": _replay_kernel_limit,
    "continuity-decay": _replay_decay,
    "continuity-seq": _replay_sequence,
}


def replay_witness(witness: dict) -> dict:
    """Re-run the single stored input; returns its margin and verdict."""
    try:
        replay = _REPLAY[witness.get("kind")]
    except KeyError:
        raise ValueError(f"cannot replay witness of kind {witness.get('kind')!r}") from None
    margin, bad = replay(witness)
    return {"margin": margin, "violation": bad}


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckSpec:
    description: str
    default_trials: int
    runner: Callable[[int, int], CheckReport]


REGISTRY: dict[str, CheckSpec] = {}


def _register(check_id: str, description: str, default_trials: int,
              items: tuple, call: Callable[[object, int, int], CheckReport]) -> None:
    """Register a check whose runner makes ``call(item, trials, seed + i)`` on
    the i-th item and merges the reports under ``check_id``."""
    def runner(trials: int, seed: int) -> CheckReport:
        return _merge(check_id, [call(item, trials, seed + i)
                                 for i, item in enumerate(items)])
    REGISTRY[check_id] = CheckSpec(description, default_trials, runner)


def _on_battery(check: Callable[..., CheckReport], **kw):
    """The call of a row whose items are battery names."""
    return lambda name, trials, seed: check(BATTERY[name], trials=trials, seed=seed,
                                            label=name, **kw)


# (check id, description, default trials, items in run order, call on each)
_CHECKS = (
    *((f"lem2.4/{case}", f"interval perturbation inequality, case ({case}): {desc}",
       100_000, (log_kernel(), sqrt_kernel()),
       partial(check_perturbation_inequality, cases=case))
      for case, desc in (("a", "outer range, balance ratio at least 1"),
                         ("b", "outer range, balance ratio at most 1"),
                         ("c", "balanced move, no monotonicity needed"),
                         ("d", "strict inequality for strictly concave kernels"),
                         ("e", "reversed inequality between the moved nodes"))),
    ("thm1.3/no-strict-majorization",
     "no node system strictly majorizes another on the regular set Y", 10_000,
     ("log-n1-flat", "log-n2-bump", "log-n2-flat", "power05-n2-bump", "sqrt-n2-flat"),
     _on_battery(check_no_strict_majorization)),
    ("thm1.3/minimax-equals-maximin",
     "simplex minimax equals maximin across the battery, with oracle "
     "brackets for n <= 2; one solve pair per problem, so trials is ignored", 1,
     tuple(sorted(BATTERY)),
     lambda name, trials, seed: check_minimax_equals_maximin(BATTERY[name], seed, name)),
    ("thm1.3/equioscillation-value",
     "all equioscillation points found share the minimax value", 50,
     ("log-n1-gate", "log-n2-flat", "log-n2-bump", "sqrt-n2-flat"),
     lambda name, trials, seed: check_equioscillation_value(
         BATTERY[name], starts=trials, seed=seed, label=name)),
    ("thm1.1/uniqueness",
     "strictly concave singular monotone kernel with a concave field: "
     "one equioscillation node system across multistarts", 50,
     ("log-n2-bump", "log-n3-bump"),
     lambda name, trials, seed: check_equioscillation_value(
         BATTERY[name], starts=trials, seed=seed, unique=True, label=name)),
    ("lem6.1/usc-invariances",
     "invariance of maxima and open-interval suprema under usc "
     "regularization of the field", 1000,
     # the fields with a jump or a gap
     ("log-n1-gate", "log-n1-ramp", "log-n2-bands", "zero-n1-bands", "zero-n1-gate",
      "zero-n1-ramp", "zero-n2-bands"),
     _on_battery(check_usc_invariances)),
    ("lem5.1/dini-max",
     "maxima of the Lipschitz envelopes decrease to the max of the field", 100,
     (None,), lambda _, trials, seed: check_dini_max(trials, seed)),
    ("thm1.3/strictify-limit",
     "interval maxima decrease to the original as the strictification "
     "parameter drops", 100,
     ("log-n1-flat", "log-n2-flat", "power05-n2-bump", "sqrt-n2-flat"),
     _on_battery(check_kernel_limits, direction="strictify")),
    ("lem4.1/singularize-limit",
     "interval maxima increase back to the original as the singularizing "
     "parameter drops", 100,
     ("log-n1-flat", "log-n2-flat", "power05-n2-bump", "sqrt-n2-flat", "zero-n2-bands"),
     _on_battery(check_kernel_limits, direction="singularize")),
    ("lem3.3/continuity",
     "deviations of the maxima decay along the perturbation schedule", 40,
     # the zero kernel leaves the overall maximum constant under node moves
     ("log-n1-flat", "log-n1-gate", "log-n1-ramp", "log-n2-bands", "log-n2-bump",
      "log-n2-flat", "log-n3-bump", "log-n3-flat", "power05-n1-flat",
      "power05-n2-bump", "sqrt-n2-flat", "sqrt-n3-bump"),
     _on_battery(check_continuity_suite)),
)
for _row in _CHECKS:
    _register(*_row)


def all_check_ids() -> tuple[str, ...]:
    return tuple(REGISTRY)


def run_check(check_id: str, trials: int | None = None, seed: int = 0) -> CheckReport:
    if check_id not in REGISTRY:
        raise UnknownCheckError(f"unknown check id {check_id!r}; known: {', '.join(REGISTRY)}")
    if trials is not None and trials < 1:
        raise ValueError("trials must be at least 1")
    spec = REGISTRY[check_id]
    return spec.runner(trials if trials is not None else spec.default_trials, seed)
