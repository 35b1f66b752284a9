"""Minimax node placement for sums of translated kernels.

The objects, in dependency order: extended reals and node systems (`core`),
concave kernel functions on [-1, 1] (`kernels`), piecewise upper fields on
[0, 1] (`formulas`, `fields`), the sum-of-translates evaluation and its
interval maxima (`sumtrans`), equioscillation / minimax / maximin solvers
with brute-force oracles (`solvers`), randomized verification checks
(`checks`, `battery`), JSON configs and reports (`schema`), and the
``fenton-minimax`` command line (`cli`).
"""

from .core import (UNIT, ExtendedReal, Interval, NEG_INF, NodeSystem,
                   classify_simplex, ext_sum, interval_of)
from .formulas import Affine, Constant, Formula, LogWeight, Quadratic
from .kernels import (Kernel, KernelFlags, ValidationReport, custom_kernel,
                      kernel_eval, kernel_validate, log_kernel, power_kernel,
                      singularize, sqrt_kernel, strictify, zero_kernel)
from .fields import (Field, FieldCount, FieldPiece, LimsupConditions,
                     RealSubset, UnsupportedFieldError, field_eval,
                     finiteness_domain, limsup_conditions,
                     monotone_usc_approximation, n_field_check, usc_regularize)
from .sumtrans import (EXACT, MaximaBatch, MaximaVector, Problem,
                       RegularityReport, SupMode, SupResult, difference_map,
                       grid_mode, interval_maxima, interval_maxima_batch,
                       pure_sum_eval, regularity, singularity_set, sum_eval,
                       sup_on_interval)
from .solvers import (SolveOptions, SolveReport, TraceRecord, brute_maximin,
                      brute_minimax, sample_regular, solve_equioscillation,
                      solve_maximin, solve_minimax)
from .battery import BATTERY, battery_problem
from .checks import (CheckInfeasible, CheckReport, UnknownCheckError,
                     all_check_ids, replay_witness, run_check)
from .schema import (SCHEMA_VERSION, ConfigError, RunConfig, config_from_json,
                     load_config, problem_from_json, problem_to_json)

__version__ = "0.1.0"

__all__ = [
    "ExtendedReal", "NEG_INF", "ext_sum", "Interval", "UNIT", "NodeSystem",
    "classify_simplex", "interval_of",
    "Formula", "Constant", "Affine", "Quadratic", "LogWeight",
    "Kernel", "KernelFlags", "ValidationReport", "zero_kernel", "log_kernel",
    "sqrt_kernel", "power_kernel", "custom_kernel", "kernel_eval",
    "kernel_validate", "strictify", "singularize",
    "Field", "FieldPiece", "FieldCount", "RealSubset", "UnsupportedFieldError",
    "field_eval", "usc_regularize", "n_field_check", "finiteness_domain",
    "LimsupConditions", "limsup_conditions", "monotone_usc_approximation",
    "SupMode", "EXACT", "grid_mode", "Problem", "MaximaVector", "MaximaBatch",
    "SupResult", "pure_sum_eval", "sum_eval", "sup_on_interval",
    "interval_maxima", "interval_maxima_batch",
    "singularity_set", "RegularityReport", "regularity", "difference_map",
    "SolveOptions", "SolveReport", "TraceRecord", "brute_minimax",
    "brute_maximin", "solve_equioscillation", "solve_minimax", "solve_maximin",
    "sample_regular",
    "BATTERY", "battery_problem",
    "CheckReport", "CheckInfeasible", "UnknownCheckError", "run_check",
    "all_check_ids", "replay_witness",
    "SCHEMA_VERSION", "ConfigError", "RunConfig", "config_from_json",
    "load_config", "problem_from_json", "problem_to_json",
    "__version__",
]
