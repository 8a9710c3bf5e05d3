"""Bound-formula fidelity, identities, and structural behavior."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtkl import bounds
from mtkl import (BoundConstants, BoundInputs, InputError, NumericError,
                  appendix_sample_size, cover_bound_fk, cover_bound_hn,
                  cover_bound_kernel_dn, cover_bound_kernel_nm, invert_epsilon,
                  lifelong_delta, multitask_epsilon)

import _oracles as orc

REF = dict(n=4, m=64, B=1.0, d_phi=3.0, epsilon=0.25)


class TestCoverBoundHn:
    def test_reference_tuple_vs_oracle(self):
        got = cover_bound_hn(**REF).log_value
        assert orc.rel_err(got, orc.mp_cover_bound_hn(**REF)) < 1e-12

    def test_n1_structure(self):
        v1 = cover_bound_hn(n=1, m=64, B=1.0, d_phi=2.0, epsilon=0.5)
        # the 2^n factor contributes exactly log 2 at n=1
        manual = (math.log(2)
                  + 2.0 * math.log(4 * math.e * 64**3 / (0.25 * 2.0))
                  + (64 / 0.25) * math.log(math.e * 0.5 * 64 / 8)
                  * math.log(16 * 64 / 0.25))
        assert v1.log_value == pytest.approx(manual, rel=1e-14)

    def test_doubling_n_increments(self):
        base = dict(m=128, B=1.0, d_phi=2.0, epsilon=0.5)
        v1 = cover_bound_hn(n=3, **base).log_value
        v2 = cover_bound_hn(n=6, **base).log_value
        # 2^n gains log 2 per extra n times 3; n^2 inside the d_phi term gains
        # d_phi*log 4; the function-cover exponent prefactor doubles.
        fk_term = (64 * 1.0 * 3 / 0.25) * math.log(math.e * 0.5 * 128 / 8) \
            * math.log(16 * 128 / 0.25)
        expected = v1 + 3 * math.log(2) + 2.0 * math.log(4.0) + fk_term
        assert v2 == pytest.approx(expected, rel=1e-12)

    def test_degenerate_clamp_warns(self):
        res = cover_bound_hn(n=1, m=2, B=100.0, d_phi=1.0, epsilon=0.1)
        assert res.warnings
        assert math.isfinite(res.log_value)

    def test_nonpositive_inputs(self):
        with pytest.raises(InputError):
            cover_bound_hn(n=0, m=4, B=1.0, d_phi=1.0, epsilon=0.5)


class TestKernelCoverBounds:
    def test_scale_matched_epsilon_drops_ratio_factor(self):
        # epsilon = sqrt(B) makes the (sqrt(B)/eps)^17 factor equal 1
        v = cover_bound_kernel_dn(n=3, d_phi=2.0, B=4.0, epsilon=2.0)
        assert v == pytest.approx(2.0 * (5 * math.log(3) + 5 * math.log(2.0)),
                                  rel=1e-14)

    def test_doubling_n_adds_5dphi_log2(self):
        a = cover_bound_kernel_dn(n=5, d_phi=3.0, B=1.0, epsilon=0.3)
        b = cover_bound_kernel_dn(n=10, d_phi=3.0, B=1.0, epsilon=0.3)
        assert b - a == pytest.approx(5 * 3.0 * math.log(2), rel=1e-12)

    def test_unit_substitution(self):
        v = cover_bound_kernel_dn(n=1, d_phi=1.0, B=1.0, epsilon=0.5)
        assert v == pytest.approx(17 * math.log(2), rel=1e-14)

    def test_chain_bound_form_and_ordering(self):
        # the sample-based kernel cover bound is exactly (en^2m^2B/(eps d))^d
        v = cover_bound_kernel_nm(n=4, m=32, B=1.0, d_phi=2.0, epsilon=0.25)
        assert orc.rel_err(v, orc.mp_cover_bound_kernel_nm(
            4, 32, 1.0, 2.0, 0.25)) < 1e-12

    def test_fk_cover_uses_base2_inner_log(self):
        got = cover_bound_fk(m=64, B=1.0, epsilon=0.25).log_value
        assert orc.rel_err(got, orc.mp_cover_bound_fk(64, 1.0, 0.25)) < 1e-12


class TestAppendixSampleSize:
    def test_unit_inputs(self):
        assert appendix_sample_size(1.0, 1.0, 1.0) == 1.0

    def test_halving_epsilon_times_32(self):
        a = appendix_sample_size(2.0, 1.5, 0.4)
        b = appendix_sample_size(2.0, 1.5, 0.2)
        assert b / a == pytest.approx(32.0, rel=1e-12)

    def test_doubling_dphi_times_4(self):
        a = appendix_sample_size(2.0, 1.5, 0.4)
        b = appendix_sample_size(4.0, 1.5, 0.4)
        assert b / a == pytest.approx(4.0, rel=1e-12)

    def test_explicit_constant(self):
        assert appendix_sample_size(1.0, 1.0, 1.0, BoundConstants(c=7.0)) == 7.0


def make_inputs(**over):
    base = dict(n=4, m=64, d_phi=3.0, B=1.0, gamma=0.25)
    base.update(over)
    return BoundInputs(**base)


class TestMultitaskEpsilon:
    def test_reference_vs_oracle(self):
        res = multitask_epsilon(make_inputs(), 0.05)
        oracle = orc.mp_multitask_epsilon(4, 64, 3.0, 1.0, 0.25, 0.05)
        assert orc.rel_err(res.epsilon, oracle) < 1e-12

    def test_strictly_decreasing_in_m(self):
        values = [multitask_epsilon(make_inputs(m=m), 0.05).epsilon
                  for m in (32, 64, 128, 256, 512, 1024, 2048, 4096)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_kernel_term_vanishes_in_n(self):
        res = multitask_epsilon(make_inputs(n=10**6), 0.05)
        assert res.terms["kernel_overhead"] < 1e-3

    def test_delta_one_zeroes_confidence_log(self):
        res = multitask_epsilon(make_inputs(), 1.0)
        assert res.terms["confidence"] == pytest.approx(2 * math.log(2) / 4)

    def test_validity_flag_small_m(self):
        res = multitask_epsilon(make_inputs(), 0.05)
        # epsilon is huge at desk scale, so m > 2/eps^2 holds easily
        assert res.valid
        assert res.epsilon > 1

    @pytest.mark.parametrize("problem, named", [
        (dict(n=3, m=32, d_phi=4.0, B=1e300), "kernel_overhead = inf"),
        # every term finite, 8 * their sum not
        (dict(n=1, m=10**100, d_phi=1e307, B=1e6),
         "the terms' sum leaves the float range")])
    def test_infinite_radius_is_not_valid(self, problem, named):
        # m > 2/eps^2 holds for eps = inf; a vacuous radius is not valid
        res = multitask_epsilon(make_inputs(gamma=0.1, **problem), 0.05)
        assert res.epsilon == math.inf and not res.valid
        warning = res.warnings[-1]
        assert warning.startswith("epsilon = inf is not finite, so not valid: ")
        assert warning.endswith(named) and "function_cover" not in warning

    def test_sqrt_m_log_normalization_bounded(self):
        ms = [2 ** k for k in range(6, 21)]
        ratios = []
        for m in ms:
            eps = multitask_epsilon(make_inputs(m=m), 0.05).epsilon
            ratios.append(eps * math.sqrt(m) / math.sqrt(math.log(m)))
        assert min(ratios) > 0
        assert max(ratios) / min(ratios) < 4.0

    def test_degenerate_regime_warns(self):
        res = multitask_epsilon(make_inputs(m=1, gamma=2.0), 0.05)
        assert res.warnings


class TestLifelongDelta:
    def test_environment_term_vanishes_large_n(self):
        # the exp(-n eps^2/128) factor eventually beats the 5 d log n growth;
        # for the reference tuple the crossover sits between n=1e6 and n=1e7
        res = lifelong_delta(make_inputs(n=10**7), epsilon=0.25)
        assert res.log_environment_term < -1e3
        trend = [lifelong_delta(make_inputs(n=n), epsilon=0.25).log_environment_term
                 for n in (10**6, 3 * 10**6, 10**7, 3 * 10**7)]
        assert all(a > b for a, b in zip(trend, trend[1:]))

    def test_substitution_identity(self):
        inp = make_inputs(d_phi=1.0, n=50, m=20)
        res = lifelong_delta(inp, epsilon=0.5)
        n, B, g, e = 50, 1.0, 0.25, 0.5
        expected = math.log(4 * 32) + 5 * math.log(n) \
            + 17 * math.log(64 * math.sqrt(B) / (e * g)) - n * e**2 / 128
        assert res.log_environment_term == pytest.approx(expected, rel=1e-12)

    def test_monotone_decreasing_in_epsilon(self):
        inp = make_inputs(n=100, m=100)
        eps_grid = np.linspace(0.05, 1.9, 24)
        sample = [lifelong_delta(inp, e).log_sample_term for e in eps_grid]
        env = [lifelong_delta(inp, e).log_environment_term for e in eps_grid]
        assert all(a > b for a, b in zip(sample, sample[1:]))
        assert all(a > b for a, b in zip(env, env[1:]))

    def test_overflow_flag_and_clamp(self):
        res = lifelong_delta(make_inputs(), epsilon=0.25)
        assert res.overflow and res.delta == 1.0

    def test_validity_preconditions(self):
        res = lifelong_delta(make_inputs(n=4, m=64), epsilon=0.5)
        # n > 8/eps^2 = 32 fails at n=4
        assert not res.valid
        res2 = lifelong_delta(make_inputs(n=64, m=64), epsilon=0.5)
        assert res2.valid

    def test_vs_oracle_log_terms(self):
        inp = make_inputs(n=200, m=500, gamma=0.5, d_phi=2.0)
        res = lifelong_delta(inp, epsilon=0.8)
        ls, le = orc.mp_lifelong_log_terms(200, 500, 2.0, 1.0, 0.5, 0.8)
        assert orc.rel_err(res.log_sample_term, ls) < 1e-12
        assert orc.rel_err(res.log_environment_term, le) < 1e-12


def find_invertible_inputs():
    # small B and gamma=1 mute the within-task term so the crossing is driven
    # by the gently-sloped environment term inside the bracket
    return dict(n=100_000, m=10_000, d_phi=3.0, B=1e-4, gamma=1.0)


class TestInvertEpsilon:
    def test_round_trip(self):
        args = find_invertible_inputs()
        inp = BoundInputs(**args)
        eps0 = invert_epsilon(inp, 0.3)
        target = lifelong_delta(inp, eps0).delta
        assert abs(target - 0.3) <= 1e-9
        eps = invert_epsilon(inp, target)
        assert abs(eps - eps0) < 1e-6

    def test_smaller_target_needs_larger_epsilon(self):
        inp = BoundInputs(**find_invertible_inputs())
        e1 = invert_epsilon(inp, 0.2)
        e2 = invert_epsilon(inp, 0.002)
        assert e2 > e1

    def test_infeasible_at_tiny_n(self):
        with pytest.raises(InputError, match="infeasible"):
            invert_epsilon(BoundInputs(n=4, m=16, d_phi=2.0, B=1.0, gamma=0.25),
                           0.05)


class TestRandomTupleFidelity:
    def test_secondary_cover_bounds_vs_oracle(self):
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 10**5))
            m = int(rng.integers(4, 10**5))
            B = float(rng.uniform(0.1, 10.0))
            d = float(rng.uniform(1.0, 40.0))
            eps = float(rng.uniform(0.05, 1.9))
            fk = cover_bound_fk(m, B, eps)
            if fk.warnings:
                continue
            worst = max(
                worst,
                orc.rel_err(fk.log_value, orc.mp_cover_bound_fk(m, B, eps)),
                orc.rel_err(cover_bound_kernel_nm(n, m, B, d, eps),
                            orc.mp_cover_bound_kernel_nm(n, m, B, d, eps)))
        assert worst <= 5e-12


class TestValidation:
    def test_bad_inputs_rejected(self):
        with pytest.raises(InputError):
            BoundInputs(n=0, m=4, d_phi=1.0, B=1.0, gamma=0.1)
        with pytest.raises(InputError):
            BoundInputs(n=1, m=4, d_phi=0.5, B=1.0, gamma=0.1)
        with pytest.raises(InputError):
            multitask_epsilon(BoundInputs(n=1, m=4, d_phi=1.0, B=1.0, gamma=0.1),
                              1.5)
        with pytest.raises(InputError):
            BoundConstants(C=-1.0)

    def test_no_overflow_at_large_scale(self):
        res = multitask_epsilon(make_inputs(n=10**9, m=10**9), 0.05)
        assert math.isfinite(res.epsilon)
        d = lifelong_delta(make_inputs(n=10**9, m=10**9), epsilon=1.0)
        assert math.isfinite(d.log_sample_term)
        assert math.isfinite(d.log_environment_term)


class TestProblemRecord:
    def test_fields_are_the_problem(self):
        # delta is the multi-task query and the constants belong to the
        # functions that read them; neither is part of the problem
        assert [f.name for f in dataclasses.fields(BoundInputs)] == \
            ["n", "m", "d_phi", "B", "gamma"]

    def test_lifelong_constant_vs_oracle(self):
        inp = make_inputs(n=200, m=500, gamma=0.5, d_phi=2.0)
        res = lifelong_delta(inp, 0.8, BoundConstants(C=7.0))
        _, le = orc.mp_lifelong_log_terms(200, 500, 2.0, 1.0, 0.5, 0.8, C=7.0)
        assert orc.rel_err(res.log_environment_term, le) < 1e-12

    def test_invert_reads_the_constant(self):
        inp = BoundInputs(**find_invertible_inputs())
        constants = BoundConstants(C=1.5)
        eps = invert_epsilon(inp, 0.3, constants)
        assert abs(lifelong_delta(inp, eps, constants).delta - 0.3) <= 1e-9
        assert eps > invert_epsilon(inp, 0.3)

    @pytest.mark.parametrize("value", [0.0, -0.1, 1.5, float("nan"),
                                       float("inf"), True, "0.05", None])
    def test_delta_and_target_share_one_check(self, value):
        with pytest.raises(InputError, match="delta"):
            multitask_epsilon(make_inputs(), value)
        with pytest.raises(InputError, match="target"):
            invert_epsilon(BoundInputs(**find_invertible_inputs()), value)

    @pytest.mark.parametrize("call", [
        lambda: cover_bound_fk(True, 1.0, 0.1),
        lambda: cover_bound_fk(math.inf, 1.0, 0.1),
        lambda: appendix_sample_size(2.0, math.inf, 0.5),
        lambda: cover_bound_hn(n=2, m=4, B=1.0, d_phi=1.0, epsilon=math.nan),
        lambda: cover_bound_kernel_dn(3, "2", 1.0, 0.5),
        lambda: lifelong_delta(make_inputs(), math.inf),
    ], ids=["bool_m", "inf_m", "inf_B", "nan_epsilon", "string_d_phi",
            "inf_epsilon"])
    def test_formula_arguments_are_finite_positive_numbers(self, call):
        # a bool passed as m = 1, and an infinity gave log_value=inf or inf
        # with no warning
        with pytest.raises(InputError):
            call()


class TestFloatRange:
    """Finite inputs whose arithmetic leaves the float range: a radius that
    squares to 0 divided by zero, one that squares past the largest float
    overflowed; both raised past every error type the CLI maps."""

    @pytest.mark.parametrize("call,needle", [
        (lambda: cover_bound_fk(10, 1.0, 1e-200),
         "cover_bound_fk(m=10, B=1.0, epsilon=1e-200)"),
        (lambda: cover_bound_hn(2, 10, 1.0, 2.0, 1e200),
         "cover_bound_hn(n=2, m=10, B=1.0, d_phi=2.0, epsilon=1e+200)"),
        (lambda: multitask_epsilon(make_inputs(gamma=1e-200), 0.05),
         "multitask_epsilon(inputs=BoundInputs(n=4, m=64, d_phi=3.0, B=1.0, "
         "gamma=1e-200), delta=0.05)"),
        (lambda: multitask_epsilon(make_inputs(gamma=1e200), 0.05),
         "gamma=1e+200), delta=0.05)"),
        (lambda: lifelong_delta(make_inputs(), epsilon=1e-200),
         "lifelong_delta(inputs=BoundInputs(n=4, m=64, d_phi=3.0, B=1.0, "
         "gamma=0.25), epsilon=1e-200)"),
        (lambda: invert_epsilon(make_inputs(gamma=1e200), 0.05),
         "invert_epsilon(inputs=BoundInputs("),
        (lambda: appendix_sample_size(1.0, 1.0, 1e-100),
         "appendix_sample_size(d_phi=1.0, B=1.0, epsilon=1e-100)"),
        (lambda: cover_bound_kernel_nm(4, 32, 1.0, 1e-200, 1e-200),
         "cover_bound_kernel_nm("),
    ], ids=["fk_tiny_epsilon", "hn_huge_epsilon", "multitask_tiny_gamma",
            "multitask_huge_gamma", "lifelong_tiny_epsilon", "invert_huge_gamma",
            "appendix_tiny_epsilon", "nm_tiny_product"])
    def test_raises_numeric_error_naming_function_and_input(self, call, needle):
        with pytest.raises(NumericError, match="leaves the float range") as exc:
            call()
        assert needle in str(exc.value)
        assert isinstance(exc.value.__cause__, (ZeroDivisionError, OverflowError))


class TestClampedOverflow:
    """A log factor clamped to 0 zeroes its term, as in the mpmath oracle,
    even where the exponent beside it overflowed to inf: inf * 0 was NaN."""

    TINY = dict(n=1, m=10, d_phi=1.0)

    def test_fk_term_is_zero(self):
        res = cover_bound_fk(10**6, 1e300, 1e-3)
        assert res.log_value == math.log(2.0)
        assert res.log_value == float(orc.mp_cover_bound_fk(10**6, 1e300, 1e-3))

    def test_hn_term_is_zero(self):
        # 64 B n / eps^2 overflows, the kernel log's argument does not
        res = cover_bound_hn(1, 10, 1e301, 1e6, 1e-3)
        want = orc.mp_cover_bound_hn(1, 10, 1e301, 1e6, 1e-3)
        assert math.isfinite(res.log_value)
        assert orc.rel_err(res.log_value, want) < 1e-12
        # here the kernel log's argument overflows too: inf, not NaN
        assert cover_bound_hn(1, 10, 1e308, 1.0, 1e-10).log_value == math.inf

    def test_lifelong_overflow_is_probability_one(self):
        res = lifelong_delta(BoundInputs(B=1e300, gamma=1e-100, **self.TINY),
                             0.5)
        assert res.delta == 1.0 and res.overflow
        assert res.log_sample_term == math.inf

    def test_multitask_overflow_is_an_invalid_infinite_radius(self):
        res = multitask_epsilon(
            BoundInputs(B=1e300, gamma=1e-10, **self.TINY), 0.05)
        assert res.epsilon == math.inf and not res.valid
        assert res.terms["function_cover"] == 0.0
        assert res.warnings[-1].endswith("kernel_overhead = inf")

    def test_invert_with_both_logs_infinite_is_not_bracketed(self):
        with pytest.raises(InputError, match="not bracketed"):
            invert_epsilon(BoundInputs(B=1e308, gamma=1e-150, **self.TINY),
                           0.5)

    def test_float_oracles_follow_the_clamp_rule(self):
        got = lifelong_delta(BoundInputs(B=1e300, gamma=1e-100, **self.TINY),
                             0.5)
        *want, _ = orc.float_lifelong_delta(1, 10, 1.0, 1e300, 1e-100, 0.5)
        assert [got.delta, got.log_sample_term, got.log_environment_term,
                got.overflow, got.valid] == want
        res = multitask_epsilon(
            BoundInputs(B=1e300, gamma=1e-10, **self.TINY), 0.05)
        eps, _, terms, _ = orc.float_multitask_epsilon(1, 10, 1.0, 1e300,
                                                       1e-10, 0.05)
        assert (res.epsilon, res.terms) == (eps, terms)
        assert orc.float_invert_epsilon(1, 10, 1.0, 1e308, 1e-150, 0.5) is None

    def test_log_add_of_two_infinities(self):
        assert bounds._log_add(math.inf, math.inf) == math.inf
        assert bounds._log_add(-math.inf, -math.inf) == -math.inf

    def test_invert_raises_on_a_nan(self, monkeypatch):
        # a NaN fails every comparison: it would pass the bracket check
        monkeypatch.setattr(bounds, "_log_add", lambda a, b: math.nan)
        with pytest.raises(NumericError, match="is NaN"):
            invert_epsilon(make_inputs(), 0.5)


def clamped_values(warnings):
    """The clamped log arguments a result's warnings name, as printed."""
    return [w.split(" = ")[-1].split(" <= 1")[0] for w in warnings]


PROBLEM = dict(
    n=st.one_of(st.integers(1, 8), st.integers(1, 10**7)),
    m=st.one_of(st.integers(1, 4), st.integers(1, 10**7)),
    d_phi=st.floats(1.0, 50.0),
    B=st.floats(1e-8, 1e3),
    gamma=st.floats(1e-4, 1e3))


class TestFloatOracleEquality:
    """The bounds, built from the covers, equal bit for bit the formulas with
    the cover constants multiplied in."""

    @settings(max_examples=400, deadline=None)
    @given(delta=st.floats(1e-12, 1.0), epsilon=st.floats(1e-4, 3.0),
           C=st.floats(1e-2, 1e2), **PROBLEM)
    @example(n=1, m=1, d_phi=1.0, B=1.0, gamma=2.0, delta=0.05, epsilon=0.5,
             C=1.0)
    @example(n=3, m=32, d_phi=4.0, B=1.0, gamma=0.1, delta=0.05, epsilon=0.5,
             C=1.0)
    @example(n=10**7, m=10**7, d_phi=50.0, B=1e-8, gamma=1e3, delta=1e-12,
             epsilon=1e-4, C=1e2)
    # (gamma/2)**2 and gamma**2/4 differ in the last bit at this gamma
    @example(n=100000, m=1000, d_phi=2.0, B=1.0, gamma=0.012493241393569547,
             delta=0.05, epsilon=0.6, C=1.0)
    def test_multitask_and_lifelong(self, n, m, d_phi, B, gamma, delta,
                                    epsilon, C):
        inputs = BoundInputs(n=n, m=m, d_phi=d_phi, B=B, gamma=gamma)
        res = multitask_epsilon(inputs, delta)
        eps, valid, terms, clamped = orc.float_multitask_epsilon(
            n, m, d_phi, B, gamma, delta)
        assert (res.epsilon, res.valid, res.terms) == (eps, valid, terms)
        assert clamped_values(res.warnings) == [f"{x:g}" for x in clamped]
        got = lifelong_delta(inputs, epsilon, BoundConstants(C=C))
        *want, clamped = orc.float_lifelong_delta(n, m, d_phi, B, gamma,
                                                  epsilon, C)
        assert [got.delta, got.log_sample_term, got.log_environment_term,
                got.overflow, got.valid] == want
        assert clamped_values(got.warnings) == [f"{x:g}" for x in clamped]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(5 * 10**4, 10**7), m=st.integers(10**4, 10**7),
           d_phi=st.floats(1.0, 4.0), B=st.floats(1e-5, 1e-3),
           gamma=st.floats(0.5, 2.0), target=st.floats(1e-3, 0.9))
    @example(target=0.3, **find_invertible_inputs())
    # one ulp of eps moves delta by more than 1e-9 here
    @example(n=4062222, m=292913, d_phi=1.372849829498692,
             B=0.0006739181705466941, gamma=1.4707842673613751,
             target=0.5542312152216472)
    def test_invert_epsilon(self, n, m, d_phi, B, gamma, target):
        inputs = BoundInputs(n=n, m=m, d_phi=d_phi, B=B, gamma=gamma)
        want = orc.float_invert_epsilon(n, m, d_phi, B, gamma, target)
        if want is None:
            with pytest.raises(InputError, match="infeasible"):
                invert_epsilon(inputs, target)
        else:
            assert invert_epsilon(inputs, target) == want
