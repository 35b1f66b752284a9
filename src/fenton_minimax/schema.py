"""JSON serialization for problems, options and run configurations.

A config file is a single JSON document with a required top-level
``"schema": 1`` marker.  JSON has no -inf literal, so extended-real values are
encoded as the string ``"-inf"``; everything else round-trips as plain JSON
numbers (bit-exact for doubles).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from .core import ConfigError, Interval, NodeSystem, reject_unknown
from .fields import Field, FieldPiece
from .formulas import formula_from_json, formula_to_json
from .kernels import kernel_from_json, kernel_to_json
from .solvers import SolveOptions, SolveReport
from .sumtrans import Problem

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "RunConfig",
    "encode_value",
    "decode_value",
    "field_to_json",
    "field_from_json",
    "problem_to_json",
    "problem_from_json",
    "options_to_json",
    "options_from_json",
    "solve_report_to_json",
    "config_from_json",
    "load_config",
]

SCHEMA_VERSION = 1


def encode_value(v: float) -> Any:
    """A float as a JSON value; -inf becomes the string "-inf"."""
    if v == -math.inf:
        return "-inf"
    if not math.isfinite(v):
        raise ValueError(f"cannot encode {v}")
    return v


def decode_value(v: Any) -> float:
    if v == "-inf":
        return -math.inf
    if isinstance(v, (int, float)) and math.isfinite(v):
        return float(v)
    raise ConfigError(f"expected a finite number or \"-inf\", got {v!r}")


def _list_at(d: dict, key: str) -> list:
    """d[key], which must be a list; a ConfigError names the key otherwise."""
    v = d[key]
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {v!r}")
    return v


def _floats_at(d: dict, key: str) -> tuple[float, ...]:
    """d[key] as a tuple of floats; a ConfigError names the key when it is
    not a list or an item is not a number."""
    items = _list_at(d, key)
    try:
        return tuple(float(v) for v in items)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} items must be numbers: {exc}") from exc


def _int_at(d: dict, key: str) -> int:
    """d[key], an integer or an integral float, as an int; a ConfigError
    names the key for anything else, booleans included."""
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or (
            isinstance(v, float) and not v.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    return int(v)


def _interval_to_json(iv: Interval) -> dict:
    d: dict = {"a": iv.a, "b": iv.b}
    if not iv.closed_left:
        d["closed_left"] = False
    if not iv.closed_right:
        d["closed_right"] = False
    return d


def _interval_from_json(d: Any) -> Interval:
    if not isinstance(d, dict) or "a" not in d or "b" not in d:
        raise ConfigError(f"interval descriptor needs a and b, got {d!r}")
    reject_unknown(d, ("a", "b", "closed_left", "closed_right"), "interval")
    return Interval(float(d["a"]), float(d["b"]),
                    closed_left=bool(d.get("closed_left", True)),
                    closed_right=bool(d.get("closed_right", True)))


def field_to_json(f: Field) -> dict:
    return {"pieces": [{"interval": _interval_to_json(p.interval),
                        "formula": formula_to_json(p.formula)}
                       for p in f.pieces]}


def field_from_json(d: Any) -> Field:
    if not isinstance(d, dict) or "pieces" not in d:
        raise ConfigError(f"field descriptor needs a pieces list, got {d!r}")
    pieces = []
    for pd in _list_at(d, "pieces"):
        try:
            reject_unknown(pd, ("interval", "formula"), "field piece")
            pieces.append(FieldPiece(_interval_from_json(pd["interval"]),
                                     formula_from_json(pd["formula"])))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad field piece {pd!r}: {exc}") from exc
    return Field(pieces=tuple(pieces))


def problem_to_json(p: Problem) -> dict:
    d: dict = {"n": p.n, "field": field_to_json(p.field)}
    if p.kernels is not None:
        d["kernels"] = [kernel_to_json(k) for k in p.kernels]
    else:
        d["kernel"] = kernel_to_json(p.kernel)
        if p.weights != (1.0,) * p.n:
            d["weights"] = list(p.weights)
    return d


def problem_from_json(d: Any) -> Problem:
    if not isinstance(d, dict):
        raise ConfigError(f"problem descriptor must be an object, got {d!r}")
    reject_unknown(d, ("n", "field", "kernel", "kernels", "weights"), "problem")
    try:
        n = _int_at(d, "n")
        field = field_from_json(d["field"])
    except KeyError as exc:
        raise ConfigError(f"problem descriptor missing {exc}") from exc
    kwargs: dict = {}
    if "kernels" in d:
        kwargs["kernels"] = tuple(kernel_from_json(k) for k in _list_at(d, "kernels"))
    elif "kernel" in d:
        kwargs["kernel"] = kernel_from_json(d["kernel"])
        if "weights" in d:
            kwargs["weights"] = _floats_at(d, "weights")
    else:
        raise ConfigError("problem descriptor needs a kernel or a kernels list")
    try:
        return Problem(n=n, field=field, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_OPTION_KEYS = ("tol_residual", "tol_step", "max_iters", "multistarts",
                "continuation_etas", "fd_step", "seed")


def options_to_json(o: SolveOptions) -> dict:
    return {"tol_residual": o.tol_residual, "tol_step": o.tol_step,
            "max_iters": o.max_iters, "multistarts": o.multistarts,
            "continuation_etas": list(o.continuation_etas),
            "fd_step": o.fd_step, "seed": o.seed}


def options_from_json(d: Any) -> SolveOptions:
    if d is None:
        return SolveOptions()
    if not isinstance(d, dict):
        raise ConfigError(f"options must be an object, got {d!r}")
    reject_unknown(d, _OPTION_KEYS, "option")
    kwargs: dict = dict(d)
    if "continuation_etas" in kwargs:
        kwargs["continuation_etas"] = _floats_at(kwargs, "continuation_etas")
    for key in ("max_iters", "multistarts", "seed"):
        if key in kwargs:
            kwargs[key] = _int_at(kwargs, key)
    try:
        return SolveOptions(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver options: {exc}") from exc


def solve_report_to_json(r: SolveReport) -> dict:
    return {
        "x": list(r.x.nodes) if r.x is not None else None,
        "value": encode_value(r.value.as_float()),
        "residual": r.residual if math.isfinite(r.residual) else "inf",
        "status": r.status,
        "iterations": r.iterations,
        "solutions": [list(s.nodes) for s in r.solutions],
        "note": r.note,
    }


@dataclass(frozen=True)
class RunConfig:
    problem: Problem
    options: SolveOptions
    nodes: NodeSystem | None = None
    checks: tuple[str, ...] = ()
    sweep: tuple[dict, ...] = ()
    output: str | None = None
    fmt: str | None = None  # None lets each command pick its natural format


def config_from_json(d: Any) -> RunConfig:
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    if d.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"config must declare \"schema\": {SCHEMA_VERSION}")
    reject_unknown(d, ("schema", "problem", "options", "nodes", "checks", "sweep",
                       "output"), "config")
    if "problem" not in d:
        raise ConfigError("config needs a problem section")
    problem = problem_from_json(d["problem"])
    options = options_from_json(d.get("options"))
    nodes = None
    if "nodes" in d:
        try:
            nodes = NodeSystem(tuple(float(v) for v in d["nodes"]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad nodes: {exc}") from exc
        if len(nodes.nodes) != problem.n:
            raise ConfigError(f"nodes length {len(nodes.nodes)} != n={problem.n}")
    sweep = d.get("sweep", ())
    if sweep:
        if isinstance(sweep, dict):
            sweep = [sweep]
        if not isinstance(sweep, list) or not 1 <= len(sweep) <= 2:
            raise ConfigError("sweep must give one or two parameter axes")
        for axis in sweep:
            if not isinstance(axis, dict) or "path" not in axis:
                raise ConfigError(f"sweep axis needs a path, got {axis!r}")
            vals = axis.get("values")
            if isinstance(vals, dict):
                try:
                    count = int(vals["count"])
                    if count < 1:
                        raise ConfigError("sweep count must be positive")
                    axis["values"] = [float(vals["start"]) + i * (
                        (float(vals["stop"]) - float(vals["start"])) / max(count - 1, 1))
                        for i in range(count)]
                except KeyError as exc:
                    raise ConfigError(f"sweep range needs start/stop/count, missing {exc}") from exc
            elif isinstance(vals, list) and vals:
                axis["values"] = [float(v) for v in vals]
            else:
                raise ConfigError("sweep axis needs a non-empty values list or a range")
    output = d.get("output")
    fmt = None
    if isinstance(output, dict):
        fmt = output.get("format")
        output = output.get("path")
    if fmt is not None and fmt not in ("json", "csv"):
        raise ConfigError(f"unknown output format {fmt!r}")
    checks = tuple(_list_at(d, "checks")) if "checks" in d else ()
    return RunConfig(problem=problem, options=options, nodes=nodes, checks=checks,
                     sweep=tuple(sweep), output=output, fmt=fmt)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_json(doc)
