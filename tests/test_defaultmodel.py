import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvbond.defaultmodel import (
    DefaultSpec,
    FirmModel,
    IntensityFunction,
    d_minus,
    firm_value_step,
    survival_prob,
)

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
        f = IntensityFunction.log_reciprocal()
        with pytest.raises(ValueError):
            f(0.0)
        with pytest.raises(ValueError):
            f(-1.0)

    def test_custom_validated(self):
        ok = IntensityFunction.custom(lambda v: 0.01 / v)
        assert ok(2.0) == pytest.approx(0.005)
        with pytest.raises(ValueError):
            IntensityFunction.custom(lambda v: v - 1.0)  # goes negative
        with pytest.raises(ValueError):
            IntensityFunction.constant(-0.1)


class TestFirmValueStep:
    def test_drift_cancellation(self):
        assert firm_value_step(BALANCED, 100.0, 0.5, 0.0) == pytest.approx(
            100.0, rel=1e-15)

    def test_deterministic_growth_limit(self):
        nearly_flat = FirmModel(V0=100.0, mu=0.07, b=0.05, s_V=1e-12)
        got = firm_value_step(nearly_flat, 100.0, 0.5, 3.0)
        assert got == pytest.approx(100.0 * math.exp(0.02 * 0.5), rel=1e-9)

    def test_lognormal_map(self):
        # exponent (mu - b - s^2/2) dt + s sqrt(dt) z = 0 + 0.2 sqrt(0.5)
        got = firm_value_step(BALANCED, 100.0, 0.5, 1.0)
        assert got == pytest.approx(100.0 * math.exp(0.2 * math.sqrt(0.5)),
                                    rel=1e-14)
        assert got == pytest.approx(115.191, abs=1e-3)

    def test_substeps_match_single_step_distribution(self):
        rng = np.random.default_rng(99)
        n = 1_000_000
        one = np.log(firm_value_step(FIRM, 100.0, 1.0, rng.standard_normal(n)))
        v = np.full(n, 100.0)
        for _ in range(4):
            v = firm_value_step(FIRM, v, 0.25, rng.standard_normal(n))
        sub = np.log(v)
        se_mean = sub.std(ddof=1) / math.sqrt(n)
        assert one.mean() == pytest.approx(sub.mean(), abs=3 * math.sqrt(2) * se_mean)
        se_var = sub.var(ddof=1) * math.sqrt(2.0 / n)
        assert one.var(ddof=1) == pytest.approx(sub.var(ddof=1),
                                                abs=3 * math.sqrt(2) * se_var)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            firm_value_step(FIRM, -1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            firm_value_step(FIRM, 100.0, 0.0, 0.0)


class TestDMinus:
    def test_vanishing_numerator(self):
        assert d_minus(1.0, BALANCED, 0.7) == 0.0

    def test_unit_displacement(self):
        ratio = math.exp(0.2 * math.sqrt(0.5))
        assert d_minus(ratio, BALANCED, 0.5) == pytest.approx(1.0, rel=1e-13)

    def test_standardized_log_distance(self):
        got = d_minus(2.0, BALANCED, 0.5)
        assert got == pytest.approx(math.log(2.0) / (0.2 * math.sqrt(0.5)),
                                    rel=1e-14)
        assert got == pytest.approx(4.9013, abs=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            d_minus(0.0, FIRM, 0.5)
        with pytest.raises(ValueError):
            d_minus(1.0, FIRM, 0.0)


class TestSurvivalProb:
    def test_zero_barrier_certain(self):
        assert survival_prob(FIRM, 100.0, 0.0, 0.5) == 1.0

    def test_at_the_barrier_balanced(self):
        assert survival_prob(BALANCED, 80.0, 80.0, 0.5) == 0.5

    def test_frequency_oracle(self):
        rng = np.random.default_rng(123)
        n = 1_000_000
        endpoints = firm_value_step(FIRM, 100.0, 0.5, rng.standard_normal(n))
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
