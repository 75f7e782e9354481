import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvbond.defaultmodel import (
    DefaultSpec,
    FirmModel,
    IntensityFunction,
    survival_prob,
)
from dvbond.mathkit import normal_cdf

FIRM = FirmModel(V0=100.0, mu=0.07, b=0.05, s_V=0.2)
# drift-cancelling firm: mu - b = s_V^2 / 2
BALANCED = FirmModel(V0=100.0, mu=0.07, b=0.05, s_V=0.2)


class TestIntensity:
    def test_log_reciprocal_at_one(self):
        f = IntensityFunction.log_reciprocal()
        assert f(1.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_vanishes_for_large_firms(self):
        f = IntensityFunction.log_reciprocal()
        assert f(1e12) < 1e-11

    def test_constant_family(self):
        f = IntensityFunction.constant(0.1)
        for v in (0.5, 1.0, 1e6):
            assert f(v) == 0.1

    def test_strictly_decreasing(self):
        f = IntensityFunction.log_reciprocal()
        grid = np.logspace(-3, 3, 41)
        vals = f(grid)
        assert np.all(np.diff(vals) < 0)

    def test_decay_factor_closed_form(self):
        # exp(-lambda(V) * dt) = (V / (1 + V))^dt for the built-in family.
        f = IntensityFunction.log_reciprocal()
        for v in (0.2, 1.0, 100.0):
            for dt in (0.25, 0.5, 2.0):
                assert math.exp(-f(v) * dt) == pytest.approx(
                    (v / (1.0 + v)) ** dt, rel=1e-14)

    def test_domain_error(self):
        # V = 0 has a limit (test_limit_at_zero); V < 0 and NaN have none.
        f = IntensityFunction.log_reciprocal()
        for v in (-1.0, math.nan):
            with pytest.raises(ValueError):
                f(v)

    @pytest.mark.parametrize("f, limit", [(IntensityFunction.log_reciprocal(), math.inf),
                                          (IntensityFunction.constant(0.03), 0.03)])
    def test_limit_at_zero(self, f, limit):
        # A declared value that underflowed to 0 gets the limit of lambda
        # there, on the scalar and the array path, and V < 0 stays rejected.
        assert f(0.0) == limit
        np.testing.assert_array_equal(f(np.array([0.0, 5e-324])), [limit, limit])
        for v in (-1.0, np.array([0.0, -1.0])):
            with pytest.raises(ValueError, match="V >= 0"):
                f(v)

    def test_custom_states_its_limits(self):
        # A custom callable's values at V = 0 and V = inf are its limits,
        # with no RuntimeWarning from its 1/0, and V < 0 stays rejected.
        f = IntensityFunction.custom(lambda v: 0.01 / v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f(0.0) == math.inf and f(math.inf) == 0.0
            np.testing.assert_array_equal(f(np.array([0.0, 2.0, np.inf])),
                                          [math.inf, 0.005, 0.0])
        for v in (-1.0, np.array([1.0, -1.0])):
            with pytest.raises(ValueError, match="V >= 0"):
                f(v)

    @pytest.mark.parametrize("fn, end", [
        (lambda v: 0.1 + v * np.exp(-v), "inf"),   # inf * 0 at V = inf
        (lambda v: 0.01 * v * np.log(v), "0"),      # 0 * -inf at V = 0
        (lambda v: 0.01 / (1.0 + v) - 0.001 * (v > 1e300), "inf"),  # negative
    ], ids=["nan-at-inf", "nan-at-0", "negative-at-inf"])
    def test_custom_limit_rejected_at_construction(self, fn, end):
        # A limit that is NaN or negative is named by its end, and the
        # callable's invalid-value warning there is not what is raised.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^custom intensity .* at V = {end}, "):
                IntensityFunction.custom(fn)

    @pytest.mark.parametrize("f", [IntensityFunction.log_reciprocal(),
                                   IntensityFunction.constant(0.03),
                                   IntensityFunction.custom(lambda v: 0.01 / v)],
                             ids=["log_reciprocal", "constant", "custom"])
    def test_nan_rejected(self, f):
        # On the scalar and the array path alike, in every family.
        for v in (math.nan, np.array([1.0, math.nan]), np.array(math.nan)):
            with pytest.raises(ValueError, match="V >= 0"):
                f(v)

    def test_custom_validated(self):
        ok = IntensityFunction.custom(lambda v: 0.01 / v)
        assert ok(2.0) == pytest.approx(0.005)
        with pytest.raises(ValueError):
            IntensityFunction.custom(lambda v: v - 1.0)  # goes negative
        with pytest.raises(ValueError):
            IntensityFunction.constant(-0.1)

    def test_custom_equality_follows_the_callable(self):
        def f(v):
            return 0.01 / v

        def g(v):
            return 0.02 / v

        assert IntensityFunction.custom(f) == IntensityFunction.custom(f)
        assert IntensityFunction.custom(f) != IntensityFunction.custom(g)
        assert len({IntensityFunction.custom(f), IntensityFunction.custom(g)}) == 2

    def test_unhashable_custom_rejected(self):
        class Unhashable:
            __hash__ = None

            def __call__(self, v):
                return 0.01 / v

        with pytest.raises(ValueError, match="hashable"):
            IntensityFunction.custom(Unhashable())


class TestDMinus:
    # The standardized log-distance d_minus to a barrier, seen through
    # survival_prob = N(d_minus).

    def test_vanishing_numerator(self):
        assert survival_prob(BALANCED, 80.0, 80.0, 0.7) == 0.5

    def test_unit_displacement(self):
        # rel 3e-14 on N(1) is rel 1e-13 on d_minus = 1.
        ratio = math.exp(0.2 * math.sqrt(0.5))
        assert survival_prob(BALANCED, 80.0 * ratio, 80.0, 0.5) == pytest.approx(
            normal_cdf(1.0), rel=3e-14, abs=0.0)

    def test_standardized_log_distance(self):
        # Below the barrier, where N(d_minus) keeps its relative precision:
        # rel 2.5e-13 on N(-4.9013) is rel 1e-14 on d_minus.
        d = math.log(2.0) / (0.2 * math.sqrt(0.5))
        assert d == pytest.approx(4.9013, abs=1e-3)
        assert survival_prob(BALANCED, 40.0, 80.0, 0.5) == pytest.approx(
            normal_cdf(-d), rel=2.5e-13, abs=0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            survival_prob(FIRM, 0.0, 80.0, 0.5)
        with pytest.raises(ValueError):
            survival_prob(FIRM, 100.0, 80.0, 0.0)


class TestSurvivalProb:
    def test_zero_barrier_certain(self):
        assert survival_prob(FIRM, 100.0, 0.0, 0.5) == 1.0

    def test_at_the_barrier_balanced(self):
        assert survival_prob(BALANCED, 80.0, 80.0, 0.5) == 0.5

    def test_frequency_oracle(self):
        rng = np.random.default_rng(123)
        n = 1_000_000
        endpoints = 100.0 * np.exp(FIRM.log_drift * 0.5 + FIRM.s_V * math.sqrt(0.5)
                                   * rng.standard_normal(n))
        freq = float(np.mean(endpoints > 80.0))
        se = math.sqrt(freq * (1 - freq) / n)
        assert survival_prob(FIRM, 100.0, 80.0, 0.5) == pytest.approx(
            freq, abs=3 * se)

    @settings(max_examples=60, deadline=None)
    @given(
        v=st.floats(1.0, 1e4),
        bump=st.floats(0.0, 10.0),
        k=st.floats(0.5, 1e4),
    )
    def test_monotone_in_value_and_barrier(self, v, bump, k):
        assert survival_prob(FIRM, v + bump, k, 0.5) >= survival_prob(
            FIRM, v, k, 0.5)
        assert survival_prob(FIRM, v, k + bump, 0.5) <= survival_prob(
            FIRM, v, k, 0.5)


class TestSpecs:
    def test_default_spec_validation(self):
        with pytest.raises(ValueError):
            DefaultSpec(t1=0.5, t2=0.5, K1=1.0, K2=1.0, R_u=0.4, R_e=0.3)
        with pytest.raises(ValueError):
            DefaultSpec(t1=0.5, t2=1.0, K1=-1.0, K2=1.0, R_u=0.4, R_e=0.3)
        with pytest.raises(ValueError):
            DefaultSpec(t1=0.5, t2=1.0, K1=1.0, K2=1.0, R_u=1.4, R_e=0.3)

    def test_firm_validation(self):
        with pytest.raises(ValueError):
            FirmModel(V0=0.0, mu=0.07, b=0.05, s_V=0.2)
        with pytest.raises(ValueError):
            FirmModel(V0=100.0, mu=0.07, b=0.05, s_V=0.0)
        # s_V**2 of log_drift overflows past ~1.3e154: a ValueError that
        # names s_V, not an OverflowError.
        with pytest.raises(ValueError, match=r"s_V .*got 1e\+160"):
            FirmModel(V0=100.0, mu=0.07, b=0.05, s_V=1e160)
        assert math.isfinite(FirmModel(V0=100.0, mu=0.07, b=0.05, s_V=1e100).log_drift)
