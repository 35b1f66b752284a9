import json
import math
import pickle
from dataclasses import replace
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fenton_minimax.formulas import Affine, Constant, LogWeight, Quadratic
from fenton_minimax.kernels import (FAMILIES, TranslateSum, custom_kernel,
                                    log_kernel, power_kernel, singularize,
                                    sqrt_kernel, strictify, zero_kernel)
from fenton_minimax.schema import kernel_from_json, kernel_to_json

STOCK = [zero_kernel(), log_kernel(), sqrt_kernel(), power_kernel(0.5),
         power_kernel(1.5)]
FACTS = ("singular", "monotone", "strictly_monotone", "strictly_concave")


def _facts(k) -> dict[str, bool]:
    """The kernel's derived facts by name."""
    return {name: getattr(k, name) for name in FACTS}


# every stock kernel under five transform stacks
STACKS = {"plain": lambda k: k,
          "strictified": lambda k: strictify(k, 0.2),
          "singularized": lambda k: singularize(k, 0.3),
          "strictified-singularized": lambda k: singularize(strictify(k, 0.2), 0.3),
          "singularized-twice": lambda k: singularize(singularize(k, 0.3), 0.05)}
STOCK_NAMES = ("zero", "log", "sqrt", "power0.5", "power1.5")
STOCK_STACKS = {f"{name}-{stack}": op(k) for name, k in zip(STOCK_NAMES, STOCK)
                for stack, op in STACKS.items()}
# the flags each stack declared when kernels carried them (singular,
# monotone, strictly monotone, strictly concave; 1 for true): the stock
# constructors declared them, strictify set the last three and singularize
# the first
OLD_FLAGS = {
    "zero": ("0100", "0111", "1100", "1111", "1100"),
    "log": ("1111",) * 5,
    "sqrt": ("0111", "0111", "1111", "1111", "1111"),
    "power0.5": ("1111",) * 5,
    "power1.5": ("1111",) * 5,
}


def _ulps_apart(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))

inner = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
nonzero = inner.filter(lambda t: abs(t) > 1e-12)


class TestFamilies:
    def test_values(self):
        assert zero_kernel().eval(0.37) == 0.0
        assert log_kernel().eval(0.5) == math.log(0.5)
        assert log_kernel().eval(-0.5) == math.log(0.5)
        assert log_kernel().eval(0.0) == -math.inf
        assert sqrt_kernel().eval(0.25) == 0.5
        assert sqrt_kernel().eval(0.0) == 0.0
        assert power_kernel(0.5).eval(0.25) == -2.0
        assert power_kernel(0.5).eval(0.0) == -math.inf

    def test_flags(self):
        # each stock kernel and transform stack has the facts it once
        # declared, and so has the kernel of the custom-n2-bump golden config
        def facts(code):
            return dict(zip(FACTS, (c == "1" for c in code)))

        for name, codes in OLD_FLAGS.items():
            for stack, code in zip(STACKS, codes):
                assert _facts(STOCK_STACKS[f"{name}-{stack}"]) == facts(code), (name, stack)
        config = Path(__file__).parent / "data" / "golden" / "custom-n2-bump.config.json"
        k = kernel_from_json(json.loads(config.read_text())["problem"]["kernel"])
        assert _facts(k) == facts("1110")

    def test_power_exponent_range(self):
        with pytest.raises(ValueError):
            power_kernel(0.0)
        with pytest.raises(ValueError):
            power_kernel(-1.0)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            log_kernel().eval(1.5)
        with pytest.raises(ValueError):
            log_kernel().eval_many(np.array([0.2, -1.2]))

    def test_eval_many_matches_eval(self):
        # the vector path may use a different libm; anything beyond a couple
        # of ulps would indicate a genuinely different formula
        ts = np.linspace(-1.0, 1.0, 41)
        for k in STOCK:
            vs = k.eval_many(ts)
            for t, v in zip(ts, vs):
                s = k.eval(float(t))
                assert (s == v) or _ulps_apart(s, float(v)) <= 2


class TestStrictify:
    def test_adds_sqrt_term(self):
        k = strictify(log_kernel(), 0.1)
        t = 0.36
        assert k.eval(t) == pytest.approx(math.log(t) + 0.1 * math.sqrt(t), abs=1e-15)
        assert k.eval(0.0) == -math.inf

    def test_upgrades_flags(self):
        k = strictify(zero_kernel(), 0.5)
        assert k.strictly_monotone
        assert k.strictly_concave
        assert not k.singular

    def test_requires_monotone(self):
        hump = custom_kernel(Quadratic(-1.0, -1.0, 0.0), Quadratic(-1.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            strictify(hump, 0.1)

    def test_eta_positive(self):
        with pytest.raises(ValueError):
            strictify(log_kernel(), 0.0)

    @given(nonzero)
    def test_majorizes_original(self, t):
        k0, k1 = log_kernel(), strictify(log_kernel(), 0.2)
        assert k1.eval(t) >= k0.eval(t)
        assert k1.eval(t) - k0.eval(t) == pytest.approx(0.2 * math.sqrt(abs(t)))


class TestSingularize:
    def test_exact_locality(self):
        k0, k1 = sqrt_kernel(), singularize(sqrt_kernel(), 0.25)
        for t in (0.25, 0.3, 0.5, 1.0, -0.25, -0.9):
            assert k1.eval(t) == k0.eval(t)
        assert k1.eval(0.1) == k0.eval(0.1) + math.log(0.1 / 0.25)
        assert k1.eval(0.0) == -math.inf

    def test_sets_singular_flag(self):
        k = singularize(zero_kernel(), 0.25)
        assert k.singular and not zero_kernel().singular

    def test_minorizes_original(self):
        k0, k1 = log_kernel(), singularize(log_kernel(), 0.1)
        ts = np.linspace(-1, 1, 101)
        assert np.all(k1.eval_many(ts) <= k0.eval_many(ts) + 1e-15)

    def test_layers_compose(self):
        k = singularize(singularize(zero_kernel(), 0.5), 0.25)
        assert k.eval(0.1) == pytest.approx(math.log(0.1 / 0.5) + math.log(0.1 / 0.25))
        assert k.eval(0.75) == 0.0


# each compares its parameter by a chained comparison, which NaN fails
@pytest.mark.parametrize("make", [
    lambda: power_kernel(math.nan), lambda: power_kernel(math.inf),
    lambda: power_kernel(0.0),
    lambda: strictify(log_kernel(), math.nan), lambda: strictify(log_kernel(), math.inf),
    lambda: singularize(log_kernel(), math.nan), lambda: singularize(log_kernel(), math.inf),
    lambda: replace(log_kernel(), strictify_eta=math.nan),
    lambda: replace(log_kernel(), singularize_etas=(0.1, math.nan)),
], ids=["power-nan", "power-inf", "power-zero", "strictify-nan", "strictify-inf",
        "singularize-nan", "singularize-inf", "strictify_eta-nan", "singularize_etas-nan"])
def test_constructors_refuse_nan_inf_and_nonpositive(make):
    with pytest.raises(ValueError):
        make()


def _grid_facts(k, m: int = 1000) -> dict[str, bool]:
    """A numeric falsifier: each fact as a grid of m points per side of 0
    sees it, False when the grid holds a counterexample beyond a slack of
    1e-12 relative to the values compared, True otherwise.  A True is
    evidence, not proof; the kernels tested here keep their counterexamples
    far above the slack."""
    ts = np.linspace(1e-3, 1.0, m)
    k0 = k.eval(0.0)

    def slack(*vs):
        return 1e-12 * np.maximum(1.0, np.max(np.abs(vs), axis=0))

    # each side in increasing t, with the point 1e-12 from 0
    neg = k.eval_many(np.concatenate([-ts[::-1], [-1e-12]]))
    pos = k.eval_many(np.concatenate([[1e-12], ts]))
    falls, fs = np.diff(neg), slack(neg[:-1], neg[1:])
    rises, rs = np.diff(pos), slack(pos[:-1], pos[1:])
    monotone = bool(np.all(falls <= fs) and np.all(rises >= -rs)
                    and k0 <= min(neg[-1], pos[0]))
    gains = []
    for sign in (-1.0, 1.0):
        u, v = sign * ts[:-2], sign * ts[2:]
        vu, vv, vm = k.eval_many(u), k.eval_many(v), k.eval_many(0.5 * (u + v))
        gains.append(vm - 0.5 * (vu + vv) - slack(vu, vv, vm))
    return {"singular": k0 == -math.inf,
            "monotone": monotone,
            "strictly_monotone": monotone and bool(np.all(falls < -fs) and np.all(rises > rs)),
            "strictly_concave": bool(np.all(np.concatenate(gains) > 0.0))}


def _random_side(rng: Random):
    """A concave formula worth 0 at 0 with its extreme slopes 0 or well away
    from it: affine, quadratic, or the log of a weight positive on [-1, 1]."""
    steps = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    kind = rng.randrange(4)
    if kind == 0:
        return Affine(rng.choice(steps), 0.0)
    if kind == 1:
        return Quadratic(rng.choice((-2.0, -1.0, -0.5, 0.0)), rng.choice(steps), 0.0)
    if kind == 2:
        return LogWeight(Affine(rng.choice((-0.5, 0.0, 0.5)), 1.0))
    return LogWeight(Quadratic(rng.choice((-0.5, 0.0)), rng.choice((-0.25, 0.0, 0.25)), 1.0))


def _random_custom_kernels(seed: int, count: int):
    """Seeded custom kernels, each plain, singularized or (when monotone)
    strictified."""
    rng = Random(seed)
    for _ in range(count):
        k = custom_kernel(_random_side(rng), _random_side(rng))
        stack = rng.randrange(3)
        if stack == 1:
            k = singularize(k, rng.choice((0.05, 0.3)))
        elif stack == 2 and k.monotone:
            k = strictify(k, rng.choice((0.05, 0.2)))
        yield k


class TestValidate:
    """The derived facts against the numeric falsifier ``_grid_facts``."""

    @pytest.mark.parametrize("k", STOCK + [strictify(zero_kernel(), 0.5),
                                           singularize(zero_kernel(), 0.25),
                                           strictify(log_kernel(), 0.1),
                                           singularize(sqrt_kernel(), 0.1)])
    def test_stock_kernels_pass(self, k):
        assert _grid_facts(k) == _facts(k)

    def test_catches_wrong_monotone_flag(self):
        # rises toward 0 from the left, falls on the right: the opposite of
        # the monotone shape, which the falsifier must see
        bad = custom_kernel(Affine(1.0, 0.0), Affine(-1.0, 0.0))
        assert not bad.monotone and not _grid_facts(bad)["monotone"]
        assert _grid_facts(bad) == _facts(bad)

    @pytest.mark.parametrize("name", sorted(STOCK_STACKS))
    def test_every_stock_stack(self, name):
        k = STOCK_STACKS[name]
        assert _grid_facts(k) == _facts(k)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_custom_kernels(self, seed):
        seen = {name: set() for name in FACTS}
        for k in _random_custom_kernels(seed, 60):
            facts = _facts(k)
            assert _grid_facts(k) == facts, k
            for name, v in facts.items():
                seen[name].add(v)
        # the draw reaches both values of every fact
        assert all(vs == {False, True} for vs in seen.values()), seen

    def test_catches_value_at_zero_above_the_left_limit(self):
        k = custom_kernel(Affine(-1.0, 0.0), Affine(1.0, 5e-10))
        assert not k.monotone and not _grid_facts(k)["monotone"]


class TestJson:
    @pytest.mark.parametrize("k", STOCK + [strictify(log_kernel(), 0.3),
                                           singularize(power_kernel(0.5), 0.2),
                                           singularize(singularize(log_kernel(), 0.3), 0.05)])
    def test_roundtrip(self, k):
        back = kernel_from_json(kernel_to_json(k))
        ts = np.linspace(-1, 1, 33)
        assert np.array_equal(back.eval_many(ts), k.eval_many(ts))
        assert _facts(back) == _facts(k)

    def test_pickles_after_evaluation(self):
        k = strictify(log_kernel(), 0.1)
        k.eval(0.2)
        back = pickle.loads(pickle.dumps(k))
        assert back == k and back.eval(0.2) == k.eval(0.2)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            kernel_from_json({"family": "bessel"})


@given(nonzero, nonzero)
def test_midpoint_concavity_same_side(u, v):
    if u * v <= 0:
        u, v = abs(u), abs(v)
    mid = 0.5 * (u + v)
    for k in (log_kernel(), sqrt_kernel(), power_kernel(0.5)):
        lhs = k.eval(mid)
        rhs = 0.5 * (k.eval(u) + k.eval(v))
        if math.isfinite(rhs):
            assert lhs >= rhs - 1e-9 * max(1.0, abs(rhs))


@given(st.floats(min_value=1e-6, max_value=1.0), st.floats(min_value=1e-6, max_value=1.0))
def test_monotone_orientation(s, t):
    # non-decreasing away from 0 on the right, mirrored on the left
    lo, hi = sorted((s, t))
    for k in (log_kernel(), sqrt_kernel(), power_kernel(0.5),
              strictify(zero_kernel(), 0.5)):
        assert k.eval(lo) <= k.eval(hi) + 1e-12
        assert k.eval(-hi) >= k.eval(-lo) - 1e-12


# ---------------------------------------------------------------------------
# the family table: scalar value, vector values and derivative must agree

HUMP = custom_kernel(Quadratic(-1.0, -1.0, 0.0), Quadratic(-1.0, 1.0, 0.0))
LOG_SIDES = custom_kernel(LogWeight(Affine(-0.5, 1.0)), LogWeight(Affine(0.5, 1.0)))
BASES = {"zero": zero_kernel(), "log": log_kernel(), "sqrt": sqrt_kernel(),
         "power0.5": power_kernel(0.5), "power1.5": power_kernel(1.5),
         "custom-hump": HUMP, "custom-logweight": LOG_SIDES}
SING_ETA = 0.3
# the layers are applied with replace() so non-monotone bases get them too
LAYERS = {"plain": lambda k: k,
          "strictified": lambda k: replace(k, strictify_eta=0.2),
          "singularized": lambda k: replace(k, singularize_etas=(SING_ETA,))}
TABLE_CASES = [pytest.param(LAYERS[lay](k), id=f"{name}-{lay}")
               for name, k in BASES.items() for lay in LAYERS]
TS = np.concatenate([np.linspace(-1.0, 1.0, 201), [0.0, 1e-9, -1e-9, SING_ETA]])


@pytest.mark.parametrize("k", TABLE_CASES)
def test_table_cases_pass_the_falsifier(k):
    # layers put on with replace(), so the non-monotone custom kernels get a
    # strictify layer too; it leaves their sides rising and falling
    assert _grid_facts(k) == _facts(k)


def test_table_covers_every_family():
    assert {"zero", "log", "sqrt", "power", "custom"} <= set(FAMILIES)
    assert {"strictify", "singularize"} <= set(FAMILIES)
    for name in ("zero", "log", "sqrt", "power", "custom"):
        assert any(k.family == name for k in BASES.values())


@pytest.mark.parametrize("k", TABLE_CASES)
def test_table_value_matches_values(k):
    vs = k.eval_many(TS)
    for t, v in zip(TS, vs):
        s = k.eval(float(t))
        assert s == v or abs(s - v) <= 1e-15 * abs(v), (t, s, v)


@pytest.mark.parametrize("k", TABLE_CASES)
def test_table_deriv_matches_central_difference(k):
    h = 1e-6
    for t in np.linspace(-0.95, 0.95, 77):
        t = float(t)
        if abs(t) < 0.05 or abs(abs(t) - SING_ETA) < 0.02:
            continue
        fd = (k.eval(t + h) - k.eval(t - h)) / (2 * h)
        d = k.deriv(t)
        assert d == pytest.approx(fd, rel=1e-6, abs=1e-6), t


@pytest.mark.parametrize("k", TABLE_CASES)
def test_table_deriv_at_zero_only_when_sides_agree(k):
    smooth = k.family == "zero" and not (k.strictify_eta or k.singularize_etas)
    if smooth:
        assert k.deriv(0.0) == 0.0
    else:
        assert math.isnan(k.deriv(0.0))
    with pytest.raises(ValueError):
        k.deriv(1.5)


@pytest.mark.parametrize("k", TABLE_CASES)
def test_eval_deriv_is_eval_and_deriv_bitwise(k):
    # the term walk of TranslateSum for this kernel alone, weight 1 at node 0;
    # compared as bytes, so the NaN at t = 0 and the sign of a zero count too
    def bits(v):
        return np.float64(v).tobytes()

    walk = TranslateSum(k, (1.0,)).at((0.0,))
    for t in TS:
        t = float(t)
        v, d = walk(t)
        assert (bits(v), bits(d)) == (bits(k.eval(t)), bits(k.deriv(t))), t
    with pytest.raises(ValueError):
        walk(1.5)
    with pytest.raises(ValueError):
        walk(-1.0 - 1e-12)


@pytest.mark.parametrize("f", [Constant(0.7), Affine(-1.5, 0.2),
                               Quadratic(-2.0, 1.0, 0.5), Quadratic(0.0, 0.3, 0.0),
                               LogWeight(Quadratic(-1.0, 0.5, 1.0))],
                         ids=repr)
def test_formula_deriv_and_values(f):
    ts = np.linspace(0.0, 1.0, 41)
    for t, v in zip(ts, f.values(ts)):
        s = f.value(float(t))
        assert s == v or abs(s - v) <= 1e-15 * abs(v)
    h = 1e-6
    for t in ts[1:-1]:
        t = float(t)
        fd = (f.value(t + h) - f.value(t - h)) / (2 * h)
        assert f.deriv(t) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_custom_sides_are_evaluated_on_their_own_side_only():
    # log(1 - t) on [-1, 0] and log(1 + t) on [0, 1]: each weight is 0 at the
    # far end of the other side, where the array methods must not take its log
    k = custom_kernel(LogWeight(Affine(-1.0, 1.0)), LogWeight(Affine(1.0, 1.0)))
    ts = np.linspace(-1.0, 1.0, 41)
    for t, v, d in zip(ts, *k.eval_and_derivs(ts)):
        assert v == pytest.approx(k.eval(float(t)), rel=1e-15, abs=0.0)
        assert d == k.deriv(float(t)) or math.isnan(d) and t == 0.0


@pytest.mark.parametrize("k", TABLE_CASES)
def test_table_derivs_matches_deriv(k):
    for t, d in zip(TS, k.derivs(TS)):
        s = k.deriv(float(t))
        if math.isnan(s):
            assert math.isnan(d), t
        else:
            assert s == d or abs(s - d) <= 1e-15 * abs(d), (t, s, d)
    with pytest.raises(ValueError):
        k.derivs(np.array([0.5, 1.5]))


@pytest.mark.parametrize("f", [Constant(0.7), Affine(-1.5, 0.2),
                               Quadratic(-2.0, 1.0, 0.5), Quadratic(0.0, 0.3, 0.0),
                               LogWeight(Quadratic(-1.0, 0.5, 1.0))],
                         ids=repr)
def test_formula_derivs_matches_deriv(f):
    ts = np.linspace(0.0, 1.0, 41)
    for t, d in zip(ts, f.derivs(ts)):
        s = f.deriv(float(t))
        assert s == d or abs(s - d) <= 1e-15 * abs(d)


# ---------------------------------------------------------------------------
# the once-per-kernel (value, slope) evaluator behind the scalar sup engine


def test_pickles_after_eval_deriv():
    # evaluating caches the term list, which holds the table's lambdas
    for k in (log_kernel(), strictify(log_kernel(), 0.1)):
        before = (k.eval(0.2), k.deriv(0.2))
        back = pickle.loads(pickle.dumps(k))
        assert back == k and (back.eval(0.2), back.deriv(0.2)) == before


def _ref_eval_deriv(k, t):
    """One kernel's (value, derivative), walking its terms as ``Kernel.eval``
    and ``Kernel.deriv`` do."""
    v = d = 0.0
    for fam, param in k._terms:
        v += fam.value(param, t)
        d += fam.deriv(param, t)
    return v, d


def _ref_pure_fun(p, x, t):
    total = slope = 0.0
    for w, xj in zip(p.weights, x.nodes):
        v, d = _ref_eval_deriv(p.kernel, t - xj)
        total += w * v
        slope += w * d
    return total, slope


def _pure_fun_cases():
    """Each table kernel at n = 2 with weights (1, 2.5) ("shared-..."), and
    at n = 3 with a weight per node, three table kernels a case, one
    problem each ("per-node-i")."""
    from fenton_minimax.battery import flat_field
    from fenton_minimax.sumtrans import Problem

    cases = [pytest.param((Problem(n=2, field=flat_field(), kernel=k, weights=(1.0, 2.5)),),
                          id=f"shared-{c.id}")
             for c in TABLE_CASES for k in c.values]
    kernels = [k for c in TABLE_CASES for k in c.values]
    for i in range(0, len(kernels), 3):
        ks = tuple(kernels[(i + j) % len(kernels)] for j in range(3))
        cases.append(pytest.param(
            tuple(Problem(n=3, field=flat_field(), kernel=k, weights=(0.5, 1.0, 2.5))
                  for k in ks), id=f"per-node-{i // 3}"))
    return cases


@pytest.mark.parametrize("problems", _pure_fun_cases())
def test_pure_fun_matches_summing_loop_bitwise(problems):
    from fenton_minimax.core import NodeSystem
    from fenton_minimax.sumtrans import _pure_fun

    def bits(v):
        return np.float64(v).tobytes()

    for p in problems:
        x = NodeSystem((0.0, 0.6) if p.n == 2 else (0.25, 0.25, 1.0))
        ts = {0.0, 1.0, *np.linspace(0.0, 1.0, 101).tolist()}
        for xj in x.nodes:  # on a node, 1e-9 off it, and at a layer threshold
            ts.update(t for t in (xj, xj - 1e-9, xj + 1e-9, xj - SING_ETA, xj + SING_ETA)
                      if 0.0 <= t <= 1.0)
        f = _pure_fun(p, x.nodes)
        for t in sorted(ts):
            got, want = f(t), _ref_pure_fun(p, x, t)
            assert [bits(v) for v in got] == [bits(v) for v in want], (p.kernel, t)


# node systems with coincident nodes and nodes at 0 and 1
SEED_NODES = ((0.0, 0.0, 0.4, 0.4, 1.0), (0.0, 1.0), (0.25, 0.25, 0.25), (1.0, 1.0),
              (0.3, 0.7))


@pytest.mark.parametrize("k", [*(pytest.param(k, id=name) for name, k in STOCK_STACKS.items()),
                               *(c for c in TABLE_CASES if c.id.startswith("custom"))])
def test_singular_kernels_walk_to_minus_inf_and_nan_at_every_node(k):
    # the fact that lets _pure_fun seed its memo at the nodes of a singular
    # kernel: the term walk returns (-inf, NaN) there; other kernels get a
    # finite value from the walk and no seed
    from fenton_minimax.battery import flat_field
    from fenton_minimax.sumtrans import Problem, _pure_fun

    for nodes in SEED_NODES:
        p = Problem(n=len(nodes), field=flat_field(), kernel=k,
                    weights=tuple(0.5 + j for j in range(len(nodes))))
        walk, f = TranslateSum(k, p.weights).at(nodes), _pure_fun(p, nodes)
        for xj in nodes:
            if k.singular:
                for v, d in (walk(xj), f(xj)):
                    assert v == -math.inf and math.isnan(d), (nodes, xj)
            else:
                assert f(xj)[0] == walk(xj)[0] > -math.inf, (nodes, xj)
