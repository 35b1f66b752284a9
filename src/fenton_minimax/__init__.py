"""Minimax node placement for sums of translated kernels.

The objects, in dependency order: extended reals and node systems (`core`),
concave kernel functions on [-1, 1] (`kernels`), piecewise upper fields on
[0, 1] (`formulas`, `fields`), the sum-of-translates evaluation and its
interval maxima (`sumtrans`), equioscillation / minimax / maximin solvers
with brute-force oracles (`solvers`), randomized verification checks
(`checks`, `battery`), JSON configs and reports (`schema`), and the
``fenton-minimax`` command line (`cli`).
"""

from .core import ExtendedReal, Interval, NEG_INF, NodeSystem
from .formulas import Affine, Constant, Formula, LogWeight, Quadratic
from .kernels import (Kernel, custom_kernel, log_kernel, power_kernel,
                      singularize, sqrt_kernel, strictify, zero_kernel)
from .fields import (Field, FieldCount, FieldPiece, LimsupConditions,
                     limsup_conditions, monotone_usc_approximation,
                     n_field_check, usc_regularize)
from .sumtrans import (MaximaBatch, MaximaVector, Problem, RegularityReport,
                       SupResult, interval_maxima, interval_maxima_batch,
                       pure_sum_eval, regularity, regularity_many, sum_eval,
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
    "ExtendedReal", "NEG_INF", "Interval", "NodeSystem",
    "Formula", "Constant", "Affine", "Quadratic", "LogWeight",
    "Kernel", "zero_kernel", "log_kernel", "sqrt_kernel", "power_kernel",
    "custom_kernel", "strictify", "singularize",
    "Field", "FieldPiece", "FieldCount", "usc_regularize", "n_field_check",
    "LimsupConditions", "limsup_conditions", "monotone_usc_approximation",
    "Problem", "MaximaVector", "MaximaBatch", "SupResult", "pure_sum_eval",
    "sum_eval", "sup_on_interval", "interval_maxima", "interval_maxima_batch",
    "RegularityReport", "regularity", "regularity_many",
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
