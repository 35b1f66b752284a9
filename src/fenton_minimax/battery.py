"""Named example problems for the verification checks and the CLI.

The battery spans the kernel families (logarithmic, power, square-root and
the degenerate zero kernel), several field shapes (flat, concave bump, a
half-open ramp, two disjoint bands) and node counts 1-3.  Which problems
each check runs on is listed with the check, in the registry of ``checks``.
"""

from __future__ import annotations

from .core import Interval
from .fields import Field, FieldPiece
from .formulas import Affine, Constant, Quadratic
from .kernels import log_kernel, power_kernel, sqrt_kernel, zero_kernel
from .sumtrans import Problem

__all__ = [
    "BATTERY",
    "flat_field",
    "bump_field",
    "ramp_field",
    "two_band_field",
    "gate_field",
    "battery_problem",
]


def flat_field() -> Field:
    """J = 0 on all of [0, 1]."""
    return Field(pieces=(FieldPiece(Interval(0.0, 1.0), Constant(0.0)),))


def bump_field() -> Field:
    """J(t) = -(t - 1/2)^2, a smooth concave bump."""
    return Field(pieces=(FieldPiece(Interval(0.0, 1.0), Quadratic(-1.0, 1.0, -0.25)),))


def ramp_field() -> Field:
    """J(t) = t on [0, 1/2) and -inf from 1/2 on; jumps down at the break."""
    return Field(pieces=(FieldPiece(Interval(0.0, 0.5, closed_right=False),
                                    Affine(1.0, 0.0)),))


def two_band_field() -> Field:
    """J = 0 on [0.1, 0.4] and [0.6, 0.9], -inf in between and outside."""
    return Field(pieces=(
        FieldPiece(Interval(0.1, 0.4), Constant(0.0)),
        FieldPiece(Interval(0.6, 0.9), Constant(0.0)),
    ))


def gate_field() -> Field:
    """J = 0 on [0, 1/2) and -inf from 1/2 on; flat but half-open."""
    return Field(pieces=(FieldPiece(Interval(0.0, 0.5, closed_right=False),
                                    Constant(0.0)),))


def _mk(n, field, kernel) -> Problem:
    return Problem(n=n, field=field, kernel=kernel)


BATTERY: dict[str, Problem] = {
    "log-n1-flat": _mk(1, flat_field(), log_kernel()),
    "log-n2-flat": _mk(2, flat_field(), log_kernel()),
    "log-n3-flat": _mk(3, flat_field(), log_kernel()),
    "log-n2-bump": _mk(2, bump_field(), log_kernel()),
    "log-n3-bump": _mk(3, bump_field(), log_kernel()),
    "log-n1-ramp": _mk(1, ramp_field(), log_kernel()),
    "log-n1-gate": _mk(1, gate_field(), log_kernel()),
    "log-n2-bands": _mk(2, two_band_field(), log_kernel()),
    "sqrt-n2-flat": _mk(2, flat_field(), sqrt_kernel()),
    "sqrt-n3-bump": _mk(3, bump_field(), sqrt_kernel()),
    "power05-n1-flat": _mk(1, flat_field(), power_kernel(0.5)),
    "power05-n2-bump": _mk(2, bump_field(), power_kernel(0.5)),
    "zero-n1-bands": _mk(1, two_band_field(), zero_kernel()),
    "zero-n2-bands": _mk(2, two_band_field(), zero_kernel()),
    "zero-n1-gate": _mk(1, gate_field(), zero_kernel()),
    "zero-n1-ramp": _mk(1, ramp_field(), zero_kernel()),
}


def battery_problem(name: str) -> Problem:
    try:
        return BATTERY[name]
    except KeyError:
        raise KeyError(f"unknown battery problem {name!r}; "
                       f"known: {', '.join(sorted(BATTERY))}") from None

