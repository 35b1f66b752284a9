import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fenton_minimax.formulas import Affine, Constant, LogWeight, Quadratic
from fenton_minimax.kernels import (FAMILIES, Kernel, KernelFlags, custom_kernel,
                                    kernel_eval, kernel_from_json,
                                    kernel_to_json, kernel_validate,
                                    log_kernel, power_kernel, singularize,
                                    sqrt_kernel, strictify, zero_kernel)

STOCK = [zero_kernel(), log_kernel(), sqrt_kernel(), power_kernel(0.5),
         power_kernel(1.5)]

NO_FLAGS = KernelFlags(singular=False, monotone=False, strictly_monotone=False,
                       strictly_concave=False, cusp=False)
PLAIN_MONOTONE = KernelFlags(singular=False, monotone=True,
                             strictly_monotone=False, strictly_concave=False,
                             cusp=False)


def _ulps_apart(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))

inner = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
nonzero = inner.filter(lambda t: abs(t) > 1e-12)


class TestFamilies:
    def test_values(self):
        assert kernel_eval(zero_kernel(), 0.37) == 0.0
        assert kernel_eval(log_kernel(), 0.5) == math.log(0.5)
        assert kernel_eval(log_kernel(), -0.5) == math.log(0.5)
        assert kernel_eval(log_kernel(), 0.0) == -math.inf
        assert kernel_eval(sqrt_kernel(), 0.25) == 0.5
        assert kernel_eval(sqrt_kernel(), 0.0) == 0.0
        assert kernel_eval(power_kernel(0.5), 0.25) == -2.0
        assert kernel_eval(power_kernel(0.5), 0.0) == -math.inf

    def test_flags(self):
        assert log_kernel().flags == KernelFlags(
            singular=True, monotone=True, strictly_monotone=True,
            strictly_concave=True, cusp=True)
        z = zero_kernel().flags
        assert not z.singular and z.monotone
        assert not z.strictly_monotone and not z.strictly_concave and not z.cusp
        s = sqrt_kernel().flags
        assert not s.singular and s.cusp and s.strictly_monotone
        p = power_kernel(0.5).flags
        assert p.singular and p.strictly_concave and p.cusp

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

    def test_scaled(self):
        k = log_kernel().scaled(2.5)
        assert k.eval(0.5) == 2.5 * math.log(0.5)
        with pytest.raises(ValueError):
            log_kernel().scaled(-1.0)


class TestStrictify:
    def test_adds_sqrt_term(self):
        k = strictify(log_kernel(), 0.1)
        t = 0.36
        assert k.eval(t) == pytest.approx(math.log(t) + 0.1 * math.sqrt(t), abs=1e-15)
        assert k.eval(0.0) == -math.inf

    def test_upgrades_flags(self):
        k = strictify(zero_kernel(), 0.5)
        assert k.flags.strictly_monotone
        assert k.flags.strictly_concave
        assert k.flags.cusp
        assert not k.flags.singular

    def test_requires_monotone(self):
        hump = custom_kernel(Quadratic(-1.0, -1.0, 0.0), Quadratic(-1.0, 1.0, 0.0),
                             NO_FLAGS)
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
        assert k.flags.singular
        assert k.flags.cusp

    def test_minorizes_original(self):
        k0, k1 = log_kernel(), singularize(log_kernel(), 0.1)
        ts = np.linspace(-1, 1, 101)
        assert np.all(k1.eval_many(ts) <= k0.eval_many(ts) + 1e-15)

    def test_layers_compose(self):
        k = singularize(singularize(zero_kernel(), 0.5), 0.25)
        assert k.eval(0.1) == pytest.approx(math.log(0.1 / 0.5) + math.log(0.1 / 0.25))
        assert k.eval(0.75) == 0.0


class TestValidate:
    @pytest.mark.parametrize("k", STOCK + [strictify(zero_kernel(), 0.5),
                                           singularize(zero_kernel(), 0.25),
                                           strictify(log_kernel(), 0.1),
                                           singularize(sqrt_kernel(), 0.1)])
    def test_stock_kernels_pass(self, k):
        rep = kernel_validate(k)
        assert rep.passed, [v.flag for v in rep.violations]

    def test_catches_wrong_monotone_flag(self):
        # rises toward 0 from the left, falls on the right: the opposite
        # of the declared shape
        bad = custom_kernel(Affine(1.0, 0.0), Affine(-1.0, 0.0), PLAIN_MONOTONE)
        rep = kernel_validate(bad)
        assert not rep.passed
        assert any(v.flag == "monotone" for v in rep.violations)

    def test_catches_missing_cusp(self):
        # an affine kernel has bounded divided differences at 0
        flags = KernelFlags(singular=False, monotone=True,
                            strictly_monotone=True, strictly_concave=False,
                            cusp=True)
        flat = custom_kernel(Affine(-1.0, 0.0), Affine(1.0, 0.0), flags)
        rep = kernel_validate(flat)
        assert any(v.flag == "cusp" for v in rep.violations)

    def test_grid_size_floor(self):
        with pytest.raises(ValueError):
            kernel_validate(log_kernel(), grid_size=4)


class TestJson:
    @pytest.mark.parametrize("k", STOCK + [strictify(log_kernel(), 0.3),
                                           singularize(power_kernel(0.5), 0.2),
                                           log_kernel().scaled(2.0)])
    def test_roundtrip(self, k):
        back = kernel_from_json(kernel_to_json(k))
        ts = np.linspace(-1, 1, 33)
        assert np.array_equal(back.eval_many(ts), k.eval_many(ts))
        assert back.flags == k.flags

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

HUMP = custom_kernel(Quadratic(-1.0, -1.0, 0.0), Quadratic(-1.0, 1.0, 0.0), NO_FLAGS)
LOG_SIDES = custom_kernel(LogWeight(Affine(-0.5, 1.0)), LogWeight(Affine(0.5, 1.0)),
                          NO_FLAGS)
BASES = {"zero": zero_kernel(), "log": log_kernel(), "sqrt": sqrt_kernel(),
         "power0.5": power_kernel(0.5), "power1.5": power_kernel(1.5),
         "custom-hump": HUMP, "custom-logweight": LOG_SIDES}
SING_ETA = 0.3
# the layers are applied with replace() so non-monotone bases get them too
LAYERS = {"plain": lambda k: k,
          "scaled": lambda k: k.scaled(2.5),
          "strictified": lambda k: replace(k, strictify_eta=0.2),
          "singularized": lambda k: replace(k, singularize_etas=(SING_ETA,))}
TABLE_CASES = [pytest.param(LAYERS[lay](k), id=f"{name}-{lay}")
               for name, k in BASES.items() for lay in LAYERS]
TS = np.concatenate([np.linspace(-1.0, 1.0, 201), [0.0, 1e-9, -1e-9, SING_ETA]])


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
    # compared as bytes, so the NaN at t = 0 and the sign of a zero count too
    def bits(v):
        return np.float64(v).tobytes()

    for t in TS:
        t = float(t)
        v, d = k.eval_deriv(t)
        assert (bits(v), bits(d)) == (bits(k.eval(t)), bits(k.deriv(t))), t
    with pytest.raises(ValueError):
        k.eval_deriv(1.5)
    with pytest.raises(ValueError):
        k.eval_deriv(-1.0 - 1e-12)


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
