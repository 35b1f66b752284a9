"""The package's JSON format: every descriptor and report encoding lives here.

A config file is a single JSON document with a required top-level
``"schema": 1`` marker.  Each reader (formula, kernel, field, problem,
options, config) rejects unknown keys and raises ``ConfigError`` for any
malformed descriptor.  JSON has no infinity literals, so ``encode_float``,
the one encoder of report floats, writes the strings ``"-inf"``/``"inf"``;
finite numbers round-trip as plain JSON numbers (bit-exact for doubles).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import Any

from .core import Interval, NodeSystem
from .fields import Field, FieldPiece
from .formulas import Affine, Constant, Formula, LogWeight, Quadratic
from .kernels import (Kernel, KernelFlags, custom_kernel, log_kernel, power_kernel,
                      singularize, sqrt_kernel, strictify, zero_kernel)
from .solvers import SolveOptions, SolveReport
from .sumtrans import Problem

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "RunConfig",
    "encode_float",
    "encode_value",
    "decode_value",
    "formula_to_json",
    "formula_from_json",
    "kernel_to_json",
    "kernel_from_json",
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


class ConfigError(ValueError):
    """Malformed configuration or report document."""


def reject_unknown(d: Any, known: tuple[str, ...], what: str) -> None:
    """A ConfigError unless d is a descriptor object whose keys all lie in
    known; the message names the unknown keys."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} descriptor must be an object, got {d!r}")
    unknown = set(d) - set(known)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(sorted(unknown))}")


@contextmanager
def _config_errors():
    """A model constructor's ValueError, re-raised as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def encode_float(v: float) -> Any:
    """A report float as a JSON value: -inf and +inf become the strings
    "-inf" and "inf"; NaN is refused."""
    if math.isnan(v):
        raise ValueError(f"cannot encode {v}")
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def encode_value(v: float) -> Any:
    """An extended real as a JSON value; +inf has no place in R ∪ {-inf}."""
    if v == math.inf:
        raise ValueError(f"cannot encode {v}")
    return encode_float(v)


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


def _float_at(d: dict, key: str) -> float:
    """d[key] as a float; a ConfigError names the key when it is not a number."""
    try:
        return float(d[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a number: {exc}") from exc


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


# formula descriptors: {"type": <name>, <the class's fields>...}
_FORMULAS = {"constant": Constant, "affine": Affine, "quadratic": Quadratic,
             "log_weight": LogWeight}


def formula_to_json(f: Formula) -> dict:
    for kind, cls in _FORMULAS.items():
        if isinstance(f, cls):
            d = {"type": kind, **{fl.name: getattr(f, fl.name) for fl in fields(cls)}}
            if cls is LogWeight:
                d["w"] = formula_to_json(f.w)
            return d
    raise TypeError(f"unknown formula {f!r}")


def formula_from_json(d: Any) -> Formula:
    if not isinstance(d, dict) or "type" not in d:
        raise ConfigError(f"formula descriptor must be an object with a type, got {d!r}")
    kind = d["type"]
    if not isinstance(kind, str) or kind not in _FORMULAS:
        raise ConfigError(f"unknown formula type {kind!r}")
    cls = _FORMULAS[kind]
    keys = tuple(fl.name for fl in fields(cls))
    reject_unknown(d, ("type", *keys), f"{kind} formula")
    for key in keys:
        if key not in d:
            raise ConfigError(f"formula descriptor missing field {key!r}")
    with _config_errors():
        if cls is LogWeight:
            return LogWeight(formula_from_json(d["w"]))
        return cls(*(_float_at(d, key) for key in keys))


_KERNEL_KEYS = ("family", "params", "scale", "strictify_eta", "singularize_eta")
# the keys of a kernel's "params" object, per family
_PARAM_KEYS = {"zero": (), "log": (), "sqrt": (), "power": ("s",),
               "custom": ("neg", "pos", "flags")}
_FLAG_KEYS = tuple(fl.name for fl in fields(KernelFlags))
_STOCK_KERNELS = {"zero": zero_kernel, "log": log_kernel, "sqrt": sqrt_kernel}


def kernel_to_json(k: Kernel) -> dict:
    d: dict = {"family": k.family, "params": {}}
    if k.family == "power":
        d["params"]["s"] = k.params[0]
    if k.family == "custom":
        d["params"] = {"neg": formula_to_json(k.neg_formula),
                       "pos": formula_to_json(k.pos_formula), "flags": asdict(k.flags)}
    if k.scale != 1.0:
        d["scale"] = k.scale
    if k.strictify_eta:
        d["strictify_eta"] = k.strictify_eta
    if k.singularize_etas:
        d["singularize_eta"] = (k.singularize_etas[0] if len(k.singularize_etas) == 1
                                else list(k.singularize_etas))
    return d


def kernel_from_json(d: Any) -> Kernel:
    if not isinstance(d, dict) or "family" not in d:
        raise ConfigError(f"kernel descriptor must be an object with a family, got {d!r}")
    reject_unknown(d, _KERNEL_KEYS, "kernel")
    family = d["family"]
    if not isinstance(family, str) or family not in _PARAM_KEYS:
        raise ConfigError(f"unknown kernel family {family!r}")
    params = d.get("params") or {}
    reject_unknown(params, _PARAM_KEYS[family], f"{family} kernel params")
    with _config_errors():
        if family == "power":
            if "s" not in params:
                raise ConfigError("power kernels need params.s")
            k = power_kernel(_float_at(params, "s"))
        elif family == "custom":
            try:
                fd = params["flags"]
                reject_unknown(fd, _FLAG_KEYS, "kernel flag")
                flags = KernelFlags(**{key: bool(fd[key]) for key in _FLAG_KEYS})
                k = custom_kernel(formula_from_json(params["neg"]),
                                  formula_from_json(params["pos"]), flags)
            except KeyError as exc:
                raise ConfigError(f"custom kernel descriptor missing {exc}") from exc
        else:
            k = _STOCK_KERNELS[family]()
        if d.get("scale") is not None:
            k = k.scaled(_float_at(d, "scale"))
        if d.get("strictify_eta") is not None:
            k = strictify(k, _float_at(d, "strictify_eta"))
        se = d.get("singularize_eta")
        if se is not None:
            for eta in (_floats_at(d, "singularize_eta") if isinstance(se, list)
                        else [_float_at(d, "singularize_eta")]):
                k = singularize(k, eta)
    return k


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
    with _config_errors():
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
    with _config_errors():
        return Problem(n=n, field=field, **kwargs)


_OPTION_KEYS = tuple(fl.name for fl in fields(SolveOptions))


def options_to_json(o: SolveOptions) -> dict:
    return {**asdict(o), "continuation_etas": list(o.continuation_etas)}


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
        "residual": encode_float(r.residual),
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
        sweep = [_sweep_axis(axis) for axis in sweep]
    output, fmt = d.get("output"), None
    if isinstance(output, dict):
        reject_unknown(output, ("path", "format"), "output")
        output, fmt = output.get("path"), output.get("format")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output must be a path or an object with a path and a "
                          f"format, got {d['output']!r}")
    if fmt is not None and fmt not in ("json", "csv"):
        raise ConfigError(f"unknown output format {fmt!r}")
    checks = tuple(_list_at(d, "checks")) if "checks" in d else ()
    return RunConfig(problem=problem, options=options, nodes=nodes, checks=checks,
                     sweep=tuple(sweep), output=output, fmt=fmt)


def _sweep_axis(axis: Any) -> dict:
    """A new sweep axis {"path", "values"}, with a range expanded to its list."""
    if not isinstance(axis, dict) or "path" not in axis:
        raise ConfigError(f"sweep axis needs a path, got {axis!r}")
    reject_unknown(axis, ("path", "values"), "sweep axis")
    if not isinstance(axis["path"], str):
        raise ConfigError(f"sweep path must be a string, got {axis['path']!r}")
    vals = axis.get("values")
    if isinstance(vals, dict):
        reject_unknown(vals, ("start", "stop", "count"), "sweep range")
        try:
            count = _int_at(vals, "count")
            if count < 1:
                raise ConfigError("sweep count must be positive")
            start, stop = _float_at(vals, "start"), _float_at(vals, "stop")
        except KeyError as exc:
            raise ConfigError(f"sweep range needs start/stop/count, missing {exc}") from exc
        values = [start + i * ((stop - start) / max(count - 1, 1)) for i in range(count)]
    elif isinstance(vals, list) and vals:
        values = list(_floats_at(axis, "values"))
    else:
        raise ConfigError("sweep axis needs a non-empty values list or a range")
    return {"path": axis["path"], "values": values}


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_json(doc)
