"""The Chebyshev closed form at node counts the brute oracles cannot reach.

With the log kernel and a flat field, F(x, t) = sum_j log|t - x_j| is the log
of a monic polynomial's modulus on [0, 1], so the minimax problem is the
monic Chebyshev problem: its value is (1 - 2n) log 2, attained at the nodes
(1 + cos((2k - 1) pi / 2n)) / 2.  By Theorem 1.3 the maximin value is the
same.  The problems are built here, so ``BATTERY`` and the checks built on it
stay as they are.

Two fields with -inf parts reduce to the same problem.  On the gate, J = 0 on
[0, 1/2), the map t -> 2t gives the value (1 - 3n) log 2 at the nodes
(1 + cos((2k - 1) pi / 2n)) / 4.  On two bands, J = 0 on [0.1, 0.4] and
[0.6, 0.9] with n even, the map t -> (t - 1/2)^2 turns F into the log of a
monic polynomial of degree n/2 on [0.01, 0.16], so the value is
log 2 + (n/2) log(3/80) at the nodes 1/2 -/+ sqrt(0.085 + 0.075 cos((2k - 1)
pi / n)) (Fischer, Polynomial Based Iteration Methods for Symmetric Linear
Systems, 1996).  Both are solved with the default options, whose starts are
repaired onto the finite part of the field.
"""

import math

import pytest

from fenton_minimax import solvers
from fenton_minimax.battery import flat_field, gate_field, two_band_field
from fenton_minimax.kernels import log_kernel
from fenton_minimax.solvers import (SolveOptions, solve_equioscillation,
                                    solve_maximin, solve_minimax)
from fenton_minimax.sumtrans import Problem, interval_maxima

ONE_START = SolveOptions(multistarts=1)


def _log_flat(n: int) -> Problem:
    return Problem(n=n, field=flat_field(), kernel=log_kernel())


def _value(n: int) -> float:
    return (1 - 2 * n) * math.log(2.0)


def _nodes(n: int) -> list[float]:
    return sorted((1.0 + math.cos((2 * k - 1) * math.pi / (2 * n))) / 2.0
                  for k in range(1, n + 1))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_minimax_maximin_and_bracket(n):
    p = _log_flat(n)
    eq = solve_equioscillation(p, ONE_START)
    assert eq.status == "converged"
    for solve in (solve_minimax, solve_maximin):
        rep = solve(p, ONE_START, eq=eq)
        assert rep.status == "converged"
        assert abs(rep.value.as_float() - _value(n)) <= 1e-8, solve.__name__

    # every m_j is a lower bound on the sup over its interval and m_j + err_j
    # an upper bound, so by Theorem 1.3 min_j m_j <= M <= max_j (m_j + err_j)
    m = interval_maxima(p, eq.x)
    low = min(m.floats())
    high = max(v + e for v, e in zip(m.floats(), m.err))
    assert low <= _value(n) <= high


def test_equioscillation_nodes_at_n64():
    n = 64
    eq = solve_equioscillation(_log_flat(n), ONE_START)
    assert eq.status == "converged"
    assert max(abs(a - b) for a, b in zip(eq.x.nodes, _nodes(n))) <= 1e-10
    assert abs(eq.value.as_float() - _value(n)) <= solvers._TOL_RESIDUAL


def _assert_solves_to(field, n: int, value: float, nodes: list[float],
                      o: SolveOptions = SolveOptions()) -> None:
    eq = solve_equioscillation(Problem(n=n, field=field, kernel=log_kernel()), o)
    assert eq.status == "converged"
    assert abs(eq.value.as_float() - value) <= 1e-8
    assert max(abs(a - b) for a, b in zip(eq.x.nodes, nodes)) <= 1e-9


# from n = 16 on, starts drawn on all of [0, 1] leave some interval in the
# gate's -inf half; starts placed on [0, 1/2) do not
@pytest.mark.parametrize("n", [2, 4, 8, 12, 16, 24, 64])
def test_gate_closed_form(n):
    nodes = [(1.0 + math.cos((2 * k - 1) * math.pi / (2 * n))) / 4.0 for k in range(1, n + 1)]
    _assert_solves_to(gate_field(), n, (1 - 3 * n) * math.log(2.0), sorted(nodes),
                      SolveOptions(multistarts=2) if n == 64 else SolveOptions())


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_two_bands_closed_form(n):
    r = [math.sqrt(0.085 + 0.075 * math.cos((2 * k - 1) * math.pi / n))
         for k in range(1, n // 2 + 1)]
    _assert_solves_to(two_band_field(), n, math.log(2.0) + n / 2 * math.log(3 / 80),
                      sorted([0.5 - v for v in r] + [0.5 + v for v in r]))
