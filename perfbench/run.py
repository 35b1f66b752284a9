"""Benchmark for fenton_minimax: three seeded closed-loop workloads.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload solve-battery --seed 1 --seconds 30 --trace 0

One client runs the workload's ops back to back for --seconds, checks every
result, and prints as its last line one JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1).
The lines before it give the environment and the metrics under their
workload-specific names.  See perfbench/README.md for the workloads, the
metrics and which layer is expected to move which metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
HELD_OUT_SEED = 20261017  # kept out of tuning; confirm later claims on it

# names the end-to-end metrics take on each workload
ALIASES = {
    "solve-battery": ("solve_s_p50", "solve_s_tail", "solves_per_s"),
    "check-sampling": ("check_s_p50", "check_s_tail", "check_trials_per_s"),
    "oracle-grid": ("oracle_s_p50", "oracle_s_tail", "oracle_tuples_per_s"),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(ALIASES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, then exit (times set-up "
                        "in a fresh process)")
    return p


def _tail(lat: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples
    above it, or the median when there are too few samples."""
    q = max(0.5, 1.0 - TAIL_BEYOND / len(lat))
    s = sorted(lat)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return 100 * q, s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _run(op) -> tuple[float, float, str | None]:
    """Time one op; returns (latency, work, error or None)."""
    t0 = time.perf_counter()
    lat = None
    try:
        res = op.call()
        lat = time.perf_counter() - t0
        err = op.verify(res)
    except Exception as exc:  # a crash or an unreadable result fails the op, not the run
        err = f"{type(exc).__name__}: {exc}"
    if lat is None:
        lat = time.perf_counter() - t0
    return lat, (0.0 if err else op.work(res)), err


def _setup_seconds(args) -> float:
    """Median wall time of a fresh process that imports and builds inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _report_failure(failures: list[str], op, err: str) -> None:
    if len(failures) < 5:
        print(f"# failed: {op.label}: {err}", file=sys.stderr)
    failures.append(err)


def measure(wl, seconds: float) -> dict:
    """Closed loop, one client: ops back to back in whole passes of the
    workload's cycle, until --seconds have passed and the tail percentile
    lies above the median.  Whole passes keep the mix of problems the same
    in every run, however far the last pass got."""
    failures: list[str] = []
    _run(wl.op(0))  # warm-up, not counted
    lat, work, k = [], 0.0, 0
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while k % wl.pass_len or time.perf_counter() < deadline or k < 2 * TAIL_BEYOND:
        op = wl.op(k)
        dt, w, err = _run(op)
        lat.append(dt)
        work += w
        if err:
            _report_failure(failures, op, err)
        k += 1
    wall = time.perf_counter() - t0
    q, tail = _tail(lat)
    return {"attempted": k, "failed": len(failures), "p50": statistics.median(lat),
            "tail_q": q, "tail": tail, "work_per_s": work / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def measure_traced(wl, workload: str, outdir: str) -> dict:
    """A fixed op list, so counts repeat exactly.  Each op runs once untraced
    and once traced, in alternating order, so both sides see the same
    machine state and their wall times give the tracing overhead."""
    import spans
    import workloads

    ops = [wl.op(k) for k in range(workloads.TRACE_PASSES[workload] * wl.pass_len)]
    failures: list[str] = []
    _run(ops[0])  # warm-up, not counted
    rec = spans.Recorder()
    plain = traced = 0.0
    for k, op in enumerate(ops):
        for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_turn:
                restore = spans.instrument(rec)
                try:
                    dt, _, err = rec.run_op(k, lambda: _run(op))
                finally:
                    restore()
                traced += dt
            else:
                dt, _, err = _run(op)
                plain += dt
            if err:
                _report_failure(failures, op, err)
    rec.save(os.path.join(outdir, f"spans-{workload}-seed{wl.seed}.npz"))

    solves = len(ops) if workload == "solve-battery" else 0
    out = spans.layer_metrics(rec, solves)
    out["trace_overhead_frac"] = (traced - plain) / plain
    out["ops_failed_frac"] = len(failures) / (2 * len(ops))
    return {"attempted": 2 * len(ops), "failed": len(failures), "layers": out}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fenton_minimax", "__init__.py")):
        print("error: src/fenton_minimax not found; run from the root of a "
              "fenton-minimax checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported, here and in children
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)
    outdir = os.path.join(root, "perfbench", "out")
    workdir = os.path.join(outdir, f"work-{args.workload}-seed{args.seed}")

    setup_s = None
    if not args.setup_only and not args.trace:
        setup_s = _setup_seconds(args)

    import numpy
    import workloads

    wl = workloads.Workload(args.workload, args.seed, workdir)
    for k in range(wl.pass_len):  # set-up builds the inputs of one pass
        wl.op(k)
    if args.setup_only:
        return 0

    print(f"# env: python {platform.python_version()}, numpy {numpy.__version__}, "
          f"{os.uname().sysname} {os.uname().machine}, {os.cpu_count()} cpus, "
          f"BLAS threads 1, held-out seed {HELD_OUT_SEED}")
    try:
        if args.trace:
            import spans
            res = measure_traced(wl, args.workload, outdir)
            metrics = {name: {"value": res["layers"][name], "unit": unit}
                       for name, unit in spans.PER_LAYER}
        else:
            res = measure(wl, args.seconds)
            p50, tail, rate = ALIASES[args.workload]
            print(f"# {args.workload} seed {args.seed}: {p50} {res['p50']:.6g} s, "
                  f"{tail} (p{res['tail_q']:.1f} of n={res['attempted']}) "
                  f"{res['tail']:.6g} s, {rate} {res['work_per_s']:.6g} 1/s, "
                  f"ops_failed_frac {res['failed'] / res['attempted']:.6g} "
                  f"({res['failed']}/{res['attempted']}), peak_rss_mb "
                  f"{res['peak_rss_mb']:.6g} MB, setup_s {setup_s:.6g} s")
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "op_s_p50": {"value": res["p50"], "unit": "s"},
                "op_s_tail": {"value": res["tail"], "unit": "s"},
                "work_per_s": {"value": res["work_per_s"], "unit": "1/s"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
