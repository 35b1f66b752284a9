"""Span recorder for the traced run, kept in the benchmark's own files.

``instrument`` rebinds the program's layer entry points to wrappers that
record one span per call: layer name, start, end, the enclosing span and the
benchmark op the call belongs to.  Functions imported by name into other
modules (``interval_maxima`` lives in ``sumtrans``, ``solvers``, ``checks``
and ``cli``; ``concave_max`` in ``sumtrans``) are rebound in every module of
the package that holds them, so no call path escapes.  Spans stay in flat
arrays in memory until ``save`` writes them out.  A span's self time is its
duration minus the durations of its child spans; the program runs on one
thread, so children never overlap.

Tags carry one number per span: the node count n for ``interval_maxima``,
the F-evaluations of the cell for ``concave_max`` (counted by wrapping the
function it maximizes) and the point count for ``Kernel.eval_many``.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# "<module of fenton_minimax>.<attribute>", or "<module>.<Class>.<method>"
LAYERS = (
    "cli.main",
    "schema.load_config",
    "schema.solve_report_to_json",
    "checks.run_check",
    "solvers.solve_equioscillation",
    "solvers.solve_minimax",
    "solvers.solve_maximin",
    "solvers.brute_minimax",
    "solvers.brute_maximin",
    "sumtrans.interval_maxima",
    "sumtrans.sup_on_interval",
    "sumtrans.regularity",
    "maximize.concave_max",
    "kernels.Kernel.eval_many",
    "fields.Field.eval_many",
)
OP = "perfbench.op"
NAMES = (OP,) + LAYERS

# (metric, unit) in the order the traced run prints them; lower is better
# for all of them, since a traced run does a fixed amount of work
PER_LAYER = (
    ("sumtrans.interval_maxima.calls", "count"),
    ("sumtrans.interval_maxima.self_s", "s"),
    ("sumtrans.interval_maxima.us_per_call.n1", "us"),
    ("sumtrans.interval_maxima.us_per_call.n2", "us"),
    ("sumtrans.interval_maxima.us_per_call.n3", "us"),
    ("sumtrans.interval_maxima.us_per_call.n4", "us"),
    ("sumtrans.interval_maxima.us_per_call.n5", "us"),
    ("sumtrans.interval_maxima.calls_per_solve", "1"),
    ("sumtrans.sup_on_interval.calls", "count"),
    ("sumtrans.sup_on_interval.self_s", "s"),
    ("sumtrans.regularity.calls", "count"),
    ("sumtrans.regularity.self_s", "s"),
    ("maximize.concave_max.calls", "count"),
    ("maximize.concave_max.self_s", "s"),
    ("maximize.f_evals", "count"),
    ("maximize.f_evals_per_cell", "1"),
    ("solvers.solve_equioscillation.calls", "count"),
    ("solvers.solve_equioscillation.self_s", "s"),
    ("solvers.eq_calls_per_solve", "1"),
    ("solvers.solve_minimax.self_s", "s"),
    ("solvers.solve_maximin.self_s", "s"),
    ("solvers.brute_minimax.self_s", "s"),
    ("solvers.brute_maximin.self_s", "s"),
    ("kernels.Kernel.eval_many.calls", "count"),
    ("kernels.Kernel.eval_many.points", "count"),
    ("kernels.Kernel.eval_many.self_s", "s"),
    ("fields.Field.eval_many.calls", "count"),
    ("fields.Field.eval_many.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("schema.load_config.self_s", "s"),
    ("schema.solve_report_to_json.self_s", "s"),
    ("checks.run_check.self_s", "s"),
    ("trace_overhead_frac", "1"),
    ("ops_failed_frac", "1"),
)


class Recorder:
    """Spans in parallel arrays; ``current`` is the index of the open span."""

    def __init__(self):
        self.name = array("b")
        self.tag = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = -1

    def begin(self, name_id: int, tag: int = 0) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.tag.append(tag)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.current = i
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.current = self.parent[i]

    def run_op(self, k: int, call):
        """Run one benchmark op under a root span that carries its index."""
        self.op_id = k
        i = self.begin(0)
        try:
            return call()
        finally:
            self.finish(i)

    def arrays(self) -> dict[str, np.ndarray]:
        return {key: np.array(getattr(self, key))
                for key in ("name", "tag", "parent", "op", "start", "end")}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())


def _wrapper(rec: Recorder, name_id: int, fn, span_name: str):
    if span_name == "maximize.concave_max":
        def wrapped(g, *args, **kwargs):
            evals = 0

            def counted(t):
                nonlocal evals
                evals += 1
                return g(t)

            i = rec.begin(name_id)
            try:
                return fn(counted, *args, **kwargs)
            finally:
                rec.tag[i] = evals
                rec.finish(i)
        return wrapped

    if span_name == "sumtrans.interval_maxima":
        def tag_of(args):
            return args[0].n
    elif span_name == "kernels.Kernel.eval_many":
        def tag_of(args):
            return int(np.size(args[1]))
    else:
        def tag_of(args):
            return 0

    def wrapped(*args, **kwargs):
        i = rec.begin(name_id, tag_of(args))
        try:
            return fn(*args, **kwargs)
        finally:
            rec.finish(i)
    return wrapped


def instrument(rec: Recorder):
    """Rebind every layer entry point; returns a function that undoes it.

    An entry point the program no longer has is skipped, and its metrics
    read 0.
    """
    package = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "fenton_minimax" or key.startswith("fenton_minimax."))]
    undo = []
    for name_id, span_name in enumerate(LAYERS, start=1):
        mod_name, attr = span_name.split(".", 1)
        module = sys.modules.get(f"fenton_minimax.{mod_name}")
        if module is None:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in vars(cls):
                continue
            orig = vars(cls)[meth]
            undo.append((cls, meth, orig))
            setattr(cls, meth, _wrapper(rec, name_id, orig, span_name))
            continue
        orig = getattr(module, attr, None)
        if orig is None:
            continue
        wrapped = _wrapper(rec, name_id, orig, span_name)
        for m in package:
            for key in [k for k, v in vars(m).items() if v is orig]:
                undo.append((m, key, orig))
                setattr(m, key, wrapped)

    def restore() -> None:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
    return restore


def layer_metrics(rec: Recorder, solves: int) -> dict[str, float]:
    """Counts, self times and ratios per layer from the recorded spans."""
    a = rec.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_time = dur - child
    k = len(NAMES)
    calls = np.bincount(a["name"], minlength=k)
    self_s = np.bincount(a["name"], weights=self_time, minlength=k)
    tags = np.bincount(a["name"], weights=a["tag"], minlength=k)
    idx = {name: i for i, name in enumerate(NAMES)}

    out: dict[str, float] = {}
    for name, i in idx.items():
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(self_s[i])
    im = a["name"] == idx["sumtrans.interval_maxima"]
    for n in (1, 2, 3, 4, 5):
        sel = im & (a["tag"] == n)
        out[f"sumtrans.interval_maxima.us_per_call.n{n}"] = (
            float(dur[sel].mean() * 1e6) if sel.any() else 0.0)
    cells = out["maximize.concave_max.calls"]
    out["maximize.f_evals"] = int(tags[idx["maximize.concave_max"]])
    out["maximize.f_evals_per_cell"] = out["maximize.f_evals"] / cells if cells else 0.0
    out["kernels.Kernel.eval_many.points"] = int(tags[idx["kernels.Kernel.eval_many"]])
    out["solvers.eq_calls_per_solve"] = (
        out["solvers.solve_equioscillation.calls"] / solves if solves else 0.0)
    out["sumtrans.interval_maxima.calls_per_solve"] = (
        out["sumtrans.interval_maxima.calls"] / solves if solves else 0.0)
    return out
