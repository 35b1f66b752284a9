"""Command-line entry point: solve, oracle, verify, sweep.

solve, oracle and sweep read a single JSON config document (no environment
variables); verify takes its checks from --check or --all.  Each command
takes only the flags it reads.  Every command writes a JSON or CSV report to
--output or stdout.  Exit codes are part
of the contract: 0 on success / all checks passed, 1 when a solver failed to
converge or raised, or a check found violations, 2 on invalid input.
Reports are encoded by ``schema``: infinities become the strings
"-inf"/"inf" in JSON and CSV alike, and all finite numbers are written with
shortest round-trip repr so a re-parsed report is bit-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from functools import cache
from itertools import product

from .checks import CheckInfeasible, all_check_ids, run_check
from .core import NodeSystem
from .fields import usc_regularize
from .schema import (SCHEMA_VERSION, ConfigError, RunConfig, encode_float,
                     encode_value, kernel_from_json, kernel_to_json, load_config,
                     options_to_json, problem_to_json, solve_report_to_json)
from .solvers import (brute_maximin, brute_minimax, solve_equioscillation,
                      solve_maximin, solve_minimax)
from .sumtrans import Problem, interval_maxima

__all__ = ["main", "SolverFault"]


class SolverFault(RuntimeError):
    """A solver raised on a valid problem; a bug, not a config error."""


@cache
def _parser() -> argparse.ArgumentParser:
    """One subparser per command, holding only the flags that command reads;
    ``main`` refuses any other.  No parser takes abbreviations, so ``--h``
    under solve is refused rather than read as ``--help``.  Built on the
    first call and reused: parsing leaves the parser as it was."""
    p = argparse.ArgumentParser(
        prog="fenton-minimax", allow_abbrev=False,
        description="Interval maxima of sums of translates: solvers, "
                    "brute-force oracles, verification checks, parameter sweeps.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")
    cmds = {name: sub.add_parser(name, help=text, allow_abbrev=False) for name, text in (
        ("solve", "equioscillation, minimax and maximin of one problem"),
        ("oracle", "the brute-force grid oracles of one problem"),
        ("verify", "run registered checks"),
        ("sweep", "interval maxima along the config's sweep axes"))}
    for name in ("solve", "oracle", "sweep"):
        cmds[name].add_argument("--config", help="path to a JSON config document")
        cmds[name].add_argument("--usc-regularize", action="store_true", dest="usc",
                                help="replace the field by its usc regularization")
    for name in ("solve", "verify"):
        cmds[name].add_argument("--seed", type=int, default=None,
                                help="override the RNG seed")
    cmds["oracle"].add_argument("--h", type=float, default=None,
                                help="grid step (default 1/256)")
    v = cmds["verify"]
    v.add_argument("--check", action="append", default=[], metavar="ID",
                   help="check id to run (repeatable)")
    v.add_argument("--all", action="store_true", dest="all_checks",
                   help="run every registered check")
    v.add_argument("--trials", type=int, default=None,
                   help="override the per-check trial count")
    for c in cmds.values():
        c.add_argument("--output", help="report file path (default: stdout)")
        c.add_argument("--format", choices=("json", "csv"), dest="fmt", default=None)
    return p


def _require_config(args) -> RunConfig:
    if not args.config:
        raise ConfigError(f"{args.command} requires --config")
    cfg = load_config(args.config)
    if args.usc:
        cfg = replace(cfg, problem=replace(cfg.problem,
                                           field=usc_regularize(cfg.problem.field)))
    return cfg


def _emit(args, doc: dict, rows=None, header=None, default_fmt: str = "json") -> None:
    if (args.fmt or default_fmt) == "csv":
        if rows is None:
            raise ConfigError(f"{doc.get('command')} has no CSV form")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([encode_float(float(c)) if isinstance(c, float) else c
                        for c in row])
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _trace_rows(reports: dict[str, object]):
    rows = []
    for phase, rep in reports.items():
        for rec in rep.trace:
            rows.append([phase, rec.iteration, float(rec.residual),
                         float(rec.value), *map(float, rec.x)])
    return rows


def _run_solve(args) -> int:
    cfg = _require_config(args)
    p, o = cfg.problem, cfg.options
    if args.seed is not None:
        o = replace(o, seed=args.seed)
    try:
        eq = solve_equioscillation(p, o)
        reports = {"equioscillation": eq,
                   "minimax": solve_minimax(p, o, eq=eq),
                   "maximin": solve_maximin(p, o, eq=eq)}
    except (ValueError, ArithmeticError) as exc:
        raise SolverFault(f"{type(exc).__name__}: {exc}") from exc
    doc = {"schema": SCHEMA_VERSION, "command": "solve",
           "problem": problem_to_json(p), "options": options_to_json(o)}
    doc.update({k: solve_report_to_json(r) for k, r in reports.items()})
    n_nodes = p.n
    header = ["phase", "iteration", "residual", "value",
              *[f"x{i + 1}" for i in range(n_nodes)]]
    _emit(args, doc, rows=_trace_rows(reports), header=header)
    return 0 if all(r.status == "converged" for r in reports.values()) else 1


def _run_oracle(args) -> int:
    cfg = _require_config(args)
    p = cfg.problem
    h = args.h if args.h is not None else 1.0 / 256
    # the oracles validate n and h themselves; their ValueError exits 2
    mm_x, mm_v = brute_minimax(p, h)
    mx_x, mx_v = brute_maximin(p, h)
    doc = {"schema": SCHEMA_VERSION, "command": "oracle", "h": h,
           "problem": problem_to_json(p),
           "minimax": {"x": list(mm_x.nodes), "value": encode_value(mm_v.as_float())},
           "maximin": {"x": list(mx_x.nodes), "value": encode_value(mx_v.as_float())}}
    rows = header = None
    if p.n == 1:
        # the maxima landscape of a single node, computed only if CSV is written
        xs = (min(i * h, 1.0) for i in range(round(1.0 / h) + 1))
        ms = ((x, interval_maxima(p, NodeSystem((x,))).floats()) for x in xs)
        rows = ([x, *m, max(m), min(m)] for x, m in ms)
        header = ["x1", "m0", "m1", "mbar", "mlow"]
    _emit(args, doc, rows=rows, header=header)
    return 0


def _run_verify(args) -> int:
    ids = list(all_check_ids()) if args.all_checks else list(args.check)
    if not ids:
        raise ConfigError("verify needs --check ID or --all")
    seed = args.seed if args.seed is not None else 0
    reports = [run_check(cid, trials=args.trials, seed=seed) for cid in ids]
    doc = {"schema": SCHEMA_VERSION, "command": "verify", "seed": seed,
           "checks": [r.to_json() for r in reports],
           "passed": all(r.passed for r in reports)}
    rows = [[r.check_id, r.trials, r.violations,
             float(r.worst_margin), r.passed] for r in reports]
    _emit(args, doc, rows=rows,
          header=["check_id", "trials", "violations", "worst_margin", "passed"])
    return 0 if doc["passed"] else 1


def _path_index(path: str, part: str, what: str, n: int) -> int:
    """The index ``part`` of a sweep path, which must be an integer in 1..n."""
    try:
        i = int(part)
    except ValueError:
        raise ConfigError(f"bad {what} index in sweep path {path!r}") from None
    if not 1 <= i <= n:
        raise ConfigError(f"sweep path {path!r}: index out of range 1..{n}")
    return i


def _apply_path(p: Problem, nodes: NodeSystem, path: str, value: float):
    """Return (problem, nodes) with one swept parameter replaced."""
    parts = path.split(".")
    if parts[0] == "nodes" and len(parts) == 2:
        i = _path_index(path, parts[1], "node", p.n)
        xs = list(nodes.nodes)
        xs[i - 1] = value
        try:
            return p, NodeSystem(tuple(xs))
        except ValueError as exc:
            raise ConfigError(f"sweep value {value} leaves nodes unordered") from exc
    if parts[:2] == ["problem", "kernel"] and len(parts) == 3:
        attr = parts[2]
        if attr not in ("strictify_eta", "singularize_eta"):
            raise ConfigError(f"unknown kernel parameter in sweep path {path!r}")
        # the swept value replaces the kernel's own, as in a config
        kernel = kernel_from_json({**kernel_to_json(p.kernel), attr: value})
        return replace(p, kernel=kernel), nodes
    if parts[:2] == ["problem", "weights"] and len(parts) == 3:
        i = _path_index(path, parts[2], "weight", p.n)
        ws = list(p.weights)
        ws[i - 1] = value
        return replace(p, weights=tuple(ws)), nodes
    raise ConfigError(f"unresolvable sweep path {path!r}")


def _run_sweep(args) -> int:
    cfg = _require_config(args)
    if not cfg.sweep:
        raise ConfigError("sweep requires a non-empty sweep section in the config")
    p = cfg.problem
    nodes = cfg.nodes or NodeSystem(tuple((j + 1) / (p.n + 1) for j in range(p.n)))
    paths = [axis["path"] for axis in cfg.sweep]
    rows = []
    for pt in product(*(axis["values"] for axis in cfg.sweep)):
        q, ns = p, nodes
        for path, v in zip(paths, pt):
            q, ns = _apply_path(q, ns, path, float(v))
        m = interval_maxima(q, ns).floats()
        rows.append([*pt, *m, max(m), min(m)])
    header = [*paths, *[f"m{j}" for j in range(p.n + 1)], "mbar", "mlow"]
    doc = {"schema": SCHEMA_VERSION, "command": "sweep",
           "paths": list(paths), "header": header,
           "rows": [[encode_value(c) for c in row] for row in rows]}
    _emit(args, doc, rows=rows, header=header, default_fmt="csv")
    return 0


def main(argv=None) -> int:
    """Run one command on argv (default ``sys.argv[1:]``) and return its exit
    code.  The parser is built once per process, on the first call, and
    every later call reuses it."""
    args, unread = _parser().parse_known_args(argv)
    try:
        if unread:
            raise ConfigError(f"{args.command} takes no {' '.join(unread)}")
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "oracle":
            return _run_oracle(args)
        if args.command == "verify":
            return _run_verify(args)
        return _run_sweep(args)
    except (OSError, ValueError) as exc:
        # ConfigError, UnknownCheckError and json.JSONDecodeError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckInfeasible as exc:
        print(f"check infeasible: {exc}", file=sys.stderr)
        return 1
    except SolverFault as exc:
        print(f"solver fault: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
