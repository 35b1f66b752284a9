"""The package's JSON format: every descriptor and report encoding lives here.

A config file is a single JSON document with a required top-level
``"schema": 1`` marker.  Each reader (formula, kernel, field, problem,
options, config) rejects unknown keys and raises ``ConfigError`` for any
malformed descriptor.  Every descriptor value is read through one accessor
per JSON kind (number: finite, never a bool or a string; integer; flag;
list; list of numbers; object), whose error names the key, a missing one
included; a dataclass field takes the accessor its type names.  JSON has
no infinity literals, so ``encode_float``, the one encoder of report
floats, writes the strings ``"-inf"``/``"inf"``; finite numbers round-trip
as plain JSON numbers (bit-exact for doubles).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable

from .core import Interval, NodeSystem
from .fields import Field, FieldPiece
from .formulas import Affine, Constant, Formula, LogWeight, Quadratic
from .kernels import Kernel, singularize, strictify
from .solvers import SolveOptions, SolveReport
from .sumtrans import Problem

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "RunConfig",
    "encode_float",
    "encode_value",
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


class _config_errors:
    """A model constructor's ValueError, re-raised as a ConfigError (a class,
    not a generator context manager: every descriptor read enters one)."""

    def __enter__(self) -> None:
        pass

    def __exit__(self, typ, exc, tb) -> None:
        if isinstance(exc, ValueError) and not isinstance(exc, ConfigError):
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


_FLOAT_MAX = sys.float_info.max
_REQUIRED = object()  # the default of a key that a descriptor must hold


def _value_at(d: dict, key: str, what: str, is_kind: Callable[[Any], bool] | None = None,
              kind: str = "", default: Any = _REQUIRED) -> Any:
    """d[key], or the default of an optional key the what descriptor d lacks; a
    ConfigError names the key when a required one is missing or is_kind refuses it."""
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"missing {key} in {what}")
        return default
    v = d[key]
    if is_kind is not None and not is_kind(v):
        raise ConfigError(f"{key} must be {kind}, got {v!r}")
    return v


def _is_number(v: Any) -> bool:
    """A finite int or float, never a bool: no NaN, Infinity or numeric string."""
    return not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= _FLOAT_MAX


def _is_integer(v: Any) -> bool:
    """An int or an integral float, never a bool."""
    return not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer())


def _number_at(d: dict, key: str, what: str) -> float:
    return float(_value_at(d, key, what, _is_number, "a number"))


def _int_at(d: dict, key: str, what: str) -> int:
    return int(_value_at(d, key, what, _is_integer, "an integer"))


def _flag_at(d: dict, key: str, what: str, default: Any = _REQUIRED) -> bool:
    return _value_at(d, key, what, lambda v: isinstance(v, bool), "true or false", default)


def _list_at(d: dict, key: str, what: str) -> list:
    return _value_at(d, key, what, lambda v: isinstance(v, (list, tuple)), "a list")


def _object_at(d: dict, key: str, what: str, default: Any = _REQUIRED) -> dict:
    return _value_at(d, key, what, lambda v: isinstance(v, dict), "an object", default)


def _numbers_at(d: dict, key: str, what: str) -> tuple[float, ...]:
    items = _list_at(d, key, what)
    if not all(map(_is_number, items)):
        raise ConfigError(f"{key} items must be numbers, got {items!r}")
    return tuple(map(float, items))


def _formula_at(d: dict, key: str, what: str) -> Formula:
    return formula_from_json(_value_at(d, key, what))


# formula descriptors: {"type": <name>, <the class's fields>...}
_FORMULAS = {"constant": Constant, "affine": Affine, "quadratic": Quadratic,
             "log_weight": LogWeight}
# per dataclass read from JSON: each field's name and the accessor its type names
_TYPE_READERS = {"float": _number_at, "int": _int_at, "Formula": _formula_at}
_READERS = {cls: {fl.name: _TYPE_READERS[fl.type] for fl in fields(cls)}
            for cls in (*_FORMULAS.values(), SolveOptions)}


def _fields_from_json(cls: type, d: dict, what: str, required: bool = True) -> dict:
    """Each field of dataclass cls, or each that d holds, read by its accessor."""
    return {key: read(d, key, what) for key, read in _READERS[cls].items()
            if required or key in d}


def formula_to_json(f: Formula) -> dict:
    for kind, cls in _FORMULAS.items():
        if isinstance(f, cls):
            d = {"type": kind, **{fl.name: getattr(f, fl.name) for fl in fields(cls)}}
            if cls is LogWeight:
                d["w"] = formula_to_json(f.w)
            return d
    raise TypeError(f"unknown formula {f!r}")


def formula_from_json(d: Any) -> Formula:
    if not isinstance(d, dict):
        raise ConfigError(f"formula descriptor must be an object, got {d!r}")
    kind = _value_at(d, "type", "formula")
    if not isinstance(kind, str) or kind not in _FORMULAS:
        raise ConfigError(f"unknown formula type {kind!r}")
    cls = _FORMULAS[kind]
    reject_unknown(d, ("type", *_READERS[cls]), f"{kind} formula")
    with _config_errors():
        return cls(**_fields_from_json(cls, d, f"{kind} formula"))


_KERNEL_KEYS = ("family", "params", "strictify_eta", "singularize_eta")
# the keys of a kernel's "params" object, per family
_PARAM_KEYS = {"zero": (), "log": (), "sqrt": (), "power": ("s",),
               "custom": ("neg", "pos")}


def kernel_to_json(k: Kernel) -> dict:
    d: dict = {"family": k.family, "params": {}}
    if k.family == "power":
        d["params"]["s"] = k.param
    if k.family == "custom":
        d["params"] = {"neg": formula_to_json(k.param[0]),
                       "pos": formula_to_json(k.param[1])}
    if k.strictify_eta:
        d["strictify_eta"] = k.strictify_eta
    if k.singularize_etas:
        d["singularize_eta"] = (k.singularize_etas[0] if len(k.singularize_etas) == 1
                                else list(k.singularize_etas))
    return d


def kernel_from_json(d: Any) -> Kernel:
    reject_unknown(d, _KERNEL_KEYS, "kernel")
    family = _value_at(d, "family", "kernel")
    if not isinstance(family, str) or family not in _PARAM_KEYS:
        raise ConfigError(f"unknown kernel family {family!r}")
    params = _object_at(d, "params", "kernel", {})
    what = f"{family} kernel params"
    reject_unknown(params, _PARAM_KEYS[family], what)
    with _config_errors():
        param = None
        if family == "power":
            param = _number_at(params, "s", what)
        elif family == "custom":
            param = (_formula_at(params, "neg", what), _formula_at(params, "pos", what))
        k = Kernel(family, param)
        if "strictify_eta" in d:
            k = strictify(k, _number_at(d, "strictify_eta", "kernel"))
        if "singularize_eta" in d:
            for eta in (_numbers_at(d, "singularize_eta", "kernel")
                        if isinstance(d["singularize_eta"], list)
                        else [_number_at(d, "singularize_eta", "kernel")]):
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
    reject_unknown(d, ("a", "b", "closed_left", "closed_right"), "interval")
    return Interval(_number_at(d, "a", "interval"), _number_at(d, "b", "interval"),
                    closed_left=_flag_at(d, "closed_left", "interval", True),
                    closed_right=_flag_at(d, "closed_right", "interval", True))


def field_to_json(f: Field) -> dict:
    return {"pieces": [{"interval": _interval_to_json(p.interval),
                        "formula": formula_to_json(p.formula)}
                       for p in f.pieces]}


def field_from_json(d: Any) -> Field:
    reject_unknown(d, ("pieces",), "field")
    pieces = []
    with _config_errors():
        for pd in _list_at(d, "pieces", "field"):
            reject_unknown(pd, ("interval", "formula"), "field piece")
            interval = _interval_from_json(_value_at(pd, "interval", "field piece"))
            pieces.append(FieldPiece(interval, _formula_at(pd, "formula", "field piece")))
        return Field(pieces=tuple(pieces))


def problem_to_json(p: Problem) -> dict:
    d: dict = {"n": p.n, "field": field_to_json(p.field), "kernel": kernel_to_json(p.kernel)}
    if p.weights != (1.0,) * p.n:
        d["weights"] = list(p.weights)
    return d


def problem_from_json(d: Any) -> Problem:
    reject_unknown(d, ("n", "field", "kernel", "weights"), "problem")
    n = _int_at(d, "n", "problem")
    field = field_from_json(_value_at(d, "field", "problem"))
    kernel = kernel_from_json(_value_at(d, "kernel", "problem"))
    weights = _numbers_at(d, "weights", "problem") if "weights" in d else None
    with _config_errors():
        return Problem(n=n, field=field, kernel=kernel, weights=weights)


def options_to_json(o: SolveOptions) -> dict:
    return asdict(o)


def options_from_json(d: Any) -> SolveOptions:
    if d is None:
        return SolveOptions()
    reject_unknown(d, tuple(_READERS[SolveOptions]), "option")
    with _config_errors():
        return SolveOptions(**_fields_from_json(SolveOptions, d, "options", required=False))


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
    sweep: tuple[dict, ...] = ()


def config_from_json(d: Any) -> RunConfig:
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    if _int_at(d, "schema", "config") != SCHEMA_VERSION:
        raise ConfigError(f"config must declare \"schema\": {SCHEMA_VERSION}")
    # the report path and format and the checks to run are CLI flags only
    reject_unknown(d, ("schema", "problem", "options", "nodes", "sweep"), "config")
    problem = problem_from_json(_value_at(d, "problem", "config"))
    options = options_from_json(d.get("options"))
    nodes = None
    if "nodes" in d:
        with _config_errors():
            nodes = NodeSystem(_numbers_at(d, "nodes", "config"))
        if len(nodes.nodes) != problem.n:
            raise ConfigError(f"nodes length {len(nodes.nodes)} != n={problem.n}")
    sweep = d.get("sweep", ())
    if sweep:
        if isinstance(sweep, dict):
            sweep = [sweep]
        if not isinstance(sweep, list) or not 1 <= len(sweep) <= 2:
            raise ConfigError("sweep must give one or two parameter axes")
        sweep = [_sweep_axis(axis) for axis in sweep]
    return RunConfig(problem=problem, options=options, nodes=nodes, sweep=tuple(sweep))


def _sweep_axis(axis: Any) -> dict:
    """A new sweep axis {"path", "values"}, with a range expanded to its list."""
    reject_unknown(axis, ("path", "values"), "sweep axis")
    path = _value_at(axis, "path", "sweep axis")
    if not isinstance(path, str):
        raise ConfigError(f"sweep path must be a string, got {path!r}")
    vals = axis.get("values")
    if isinstance(vals, dict):
        reject_unknown(vals, ("start", "stop", "count"), "sweep range")
        count = _int_at(vals, "count", "sweep range")
        if count < 1:
            raise ConfigError("sweep count must be positive")
        start, stop = (_number_at(vals, key, "sweep range") for key in ("start", "stop"))
        values = [start + i * ((stop - start) / max(count - 1, 1)) for i in range(count)]
    elif isinstance(vals, list) and vals:
        values = list(_numbers_at(axis, "values", "sweep axis"))
    else:
        raise ConfigError("sweep axis needs a non-empty values list or a range")
    return {"path": path, "values": values}


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_json(doc)
