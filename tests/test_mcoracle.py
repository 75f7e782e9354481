import math
import multiprocessing
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dvbond import (
    DefaultSpec,
    FirmModel,
    IntensityFunction,
    McConfig,
    PiecewiseConstant,
    PricingInputs,
    PricingMode,
    ShortRateModel,
    expected_default_leg,
    price_bond,
    price_full,
    simulate_price,
    zcb_price,
)
from dvbond.mcoracle import (
    _U_CAP,
    CHUNK_PATHS,
    LEG_NAMES,
    _build_plan,
    _declared_value,
    _rate_transition,
    _simulate_chunk,
    _truncated_exp_clock,
)
from dvbond.ratecurve import _segment_moments

from conftest import make_inputs

# Rate coefficients with breakpoints at 0.4, 0.5 and 0.7, on both sides of
# t1 = 0.5: four segments over [0, 1].
PIECEWISE_RATE = dict(a1=PiecewiseConstant((0.4,), (0.01, 0.03)),
                      a2=PiecewiseConstant((0.7,), (0.2, 0.35)),
                      s_r=PiecewiseConstant((0.5,), (0.01, 0.02)))


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(n_paths=0)
        with pytest.raises(ValueError):
            McConfig(n_paths=100, rate_steps_per_year=0)
        with pytest.raises(ValueError):
            McConfig(n_paths=101, antithetic=True)
        with pytest.raises(ValueError):
            McConfig(n_paths=100, seed=-1)
        with pytest.raises(ValueError):
            McConfig(n_paths=100, n_threads=0)


class TestDegenerateScenarios:
    def test_deterministic_discounting(self):
        # Flat rate pinned at its mean level, no default channels: every
        # path pays exp(-r*T) exactly.
        inputs = make_inputs(
            rate=dict(a1=0.2 * 0.05, a2=0.2, s_r=0.0),
            default=dict(K1=0.0, K2=0.0, R_u=1.0, R_e=1.0),
            intensity=IntensityFunction.constant(0.0),
        )
        est = simulate_price(inputs, McConfig(n_paths=2000, seed=1))
        assert est.price == pytest.approx(math.exp(-0.05), rel=1e-12)
        assert est.std_error < 1e-12

    def test_full_recovery_is_par(self, p0_rate, p0_firm):
        spec = DefaultSpec(t1=0.5, t2=1.0, K1=70.0, K2=80.0, R_u=1.0, R_e=1.0)
        inputs = PricingInputs(rate_model=p0_rate, firm=p0_firm, spec=spec,
                               r=0.05, t=0.0)
        est = simulate_price(inputs, McConfig(n_paths=100_000, seed=5))
        z = zcb_price(p0_rate, 0.05, 0.0)
        assert abs(est.price - z) <= 3 * est.std_error

    def test_no_intensity_means_no_jump_legs(self):
        inputs = make_inputs(intensity=IntensityFunction.constant(0.0))
        est = simulate_price(inputs, McConfig(n_paths=50_000, seed=2))
        assert est.leg_breakdown["unexpected_leg1"] == 0.0
        assert est.leg_breakdown["unexpected_leg2"] == 0.0

    def test_huge_first_barrier_routes_everything_to_expected_t1(self):
        inputs = make_inputs(default=dict(K1=1e9))
        est = simulate_price(inputs, McConfig(n_paths=50_000, seed=2))
        assert est.leg_breakdown["expected_t1"] == pytest.approx(est.price,
                                                                 abs=1e-15)


class TestEstimatorMechanics:
    def test_legs_partition_price(self, p0_inputs):
        est = simulate_price(p0_inputs, McConfig(n_paths=120_000, seed=9))
        assert set(est.leg_breakdown) == set(LEG_NAMES)
        assert sum(est.leg_breakdown.values()) == pytest.approx(est.price,
                                                                abs=1e-12)
        z = zcb_price(p0_inputs.rate_model, p0_inputs.r, 0.0)
        for name, value in est.leg_breakdown.items():
            assert -1e-15 <= value <= z + 1e-12, name

    def test_same_seed_bit_identical(self, p0_inputs):
        cfg = McConfig(n_paths=100_000, seed=31)
        a = simulate_price(p0_inputs, cfg)
        b = simulate_price(p0_inputs, cfg)
        assert a == b

    def test_thread_count_invisible(self, p0_inputs):
        estimates = [
            simulate_price(p0_inputs, McConfig(n_paths=150_000, seed=17,
                                               n_threads=k))
            for k in (1, 4)
        ]
        assert estimates[0] == estimates[1]

    def test_uneven_final_chunk(self, p0_inputs):
        # One full chunk plus a remainder; merge order must not care.
        cfg1 = McConfig(n_paths=(1 << 16) + 1234, seed=8, n_threads=1)
        cfg3 = McConfig(n_paths=(1 << 16) + 1234, seed=8, n_threads=3)
        assert simulate_price(p0_inputs, cfg1) == simulate_price(p0_inputs, cfg3)

    def test_uneven_final_chunk_antithetic(self, p0_inputs):
        cfg1 = McConfig(n_paths=(1 << 16) + 1234, seed=8, antithetic=True,
                        n_threads=1)
        cfg3 = McConfig(n_paths=(1 << 16) + 1234, seed=8, antithetic=True,
                        n_threads=3)
        assert simulate_price(p0_inputs, cfg1) == simulate_price(p0_inputs, cfg3)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with threads
    def test_forked_child_gets_its_own_workers(self, p0_inputs):
        # The worker pool outlives the call, but a forked child has none of
        # its threads: the child must start its own rather than wait.
        cfg = McConfig(n_paths=2 * CHUNK_PATHS, seed=5, n_threads=2)
        want = simulate_price(p0_inputs, cfg)
        child = multiprocessing.get_context("fork").Process(
            target=lambda: sys.exit(simulate_price(p0_inputs, cfg) != want))
        child.start()
        child.join(timeout=60)
        if child.exitcode is None:
            child.kill()
        assert child.exitcode == 0

    def test_antithetic_unbiased_and_tighter(self, p0_inputs):
        plain = simulate_price(p0_inputs, McConfig(n_paths=200_000, seed=7))
        anti = simulate_price(p0_inputs, McConfig(n_paths=200_000, seed=7,
                                                  antithetic=True))
        gap = math.hypot(plain.std_error, anti.std_error)
        assert anti.price == pytest.approx(plain.price, abs=4 * gap)
        assert anti.std_error < plain.std_error

    def test_antithetic_mirrors_rate_normals(self):
        # Full recovery: the payoff is the path's discount factor alone,
        # nearly linear in the rate normals, so mirrored pairs cancel.
        inputs = make_inputs(rate=dict(s_r=0.05),
                             default=dict(R_u=1.0, R_e=1.0))
        plain = simulate_price(inputs, McConfig(n_paths=20_000, seed=7))
        anti = simulate_price(inputs, McConfig(n_paths=20_000, seed=7,
                                               antithetic=True))
        assert anti.std_error < 0.1 * plain.std_error

    def test_estimate_metadata(self, p0_inputs):
        est = simulate_price(p0_inputs, McConfig(n_paths=4096, seed=77))
        assert est.n_paths == 4096
        assert est.seed == 77
        assert est.std_error > 0.0


class TestAgainstClosedForm:
    def test_benchmark_price(self, p0_inputs):
        est = simulate_price(p0_inputs, McConfig(n_paths=300_000, seed=101,
                                                 n_threads=4))
        closed = price_full(p0_inputs, PricingMode.CORRECTED).price
        assert abs(closed - est.price) <= 3 * est.std_error

    def test_expected_t1_leg_matches_corrected_form(self, p0_inputs):
        est = simulate_price(p0_inputs, McConfig(n_paths=300_000, seed=101,
                                                 n_threads=4))
        leg = expected_default_leg(p0_inputs, PricingMode.CORRECTED)
        assert abs(leg - est.leg_breakdown["expected_t1"]) <= \
            3 * est.leg_std_error["expected_t1"]

    @pytest.mark.parametrize("overrides", [
        {}, {"intensity": IntensityFunction.constant(2.0)}, {"firm": {"s_V": 0.6}},
        {"rate": PIECEWISE_RATE, "intensity": IntensityFunction.constant(2.0)},
    ], ids=["P0", "lambda0=2", "s_V=0.6", "piecewise-lambda0=2"])
    def test_every_corrected_leg_within_3_se(self, overrides):
        # The five legs one by one, survive_both and unexpected_leg2
        # included, which the closed form splits from I21 + I22. With the
        # piecewise rate, the one transition of a path that jumps between
        # the announcements crosses t1 and the breakpoints 0.4, 0.5, 0.7.
        inputs = make_inputs(**overrides)
        closed = price_bond(inputs).legs
        est = simulate_price(inputs, McConfig(n_paths=1_000_000, seed=7, n_threads=2))
        assert list(closed) == list(est.leg_breakdown) == list(LEG_NAMES)
        for name, value in closed.items():
            assert abs(est.leg_breakdown[name] - value) <= 3 * est.leg_std_error[name], name

    def test_every_leg_after_t1_within_3_se(self):
        # After t1 the closed form splits the price into the three
        # maturity endings the simulation labels; the two legs of t1 are 0
        # in both.
        inputs = make_inputs(t=0.75, V1=95.0)
        closed = price_bond(inputs).legs
        est = simulate_price(inputs, McConfig(n_paths=200_000, seed=7, n_threads=2))
        assert list(closed) == list(est.leg_breakdown) == list(LEG_NAMES)
        for name in ("unexpected_leg1", "expected_t1"):
            assert closed[name] == est.leg_breakdown[name] == 0.0
        for name in ("survive_both", "unexpected_leg2", "expected_t2"):
            assert abs(est.leg_breakdown[name] - closed[name]) \
                <= 3 * est.leg_std_error[name], name

    def test_post_announcement_regime(self, p0_rate, p0_firm, p0_spec):
        inputs = PricingInputs(rate_model=p0_rate, firm=p0_firm, spec=p0_spec,
                               r=0.05, t=0.7, V1=90.0)
        est = simulate_price(inputs, McConfig(n_paths=200_000, seed=6,
                                              n_threads=4))
        assert est.leg_breakdown["expected_t1"] == 0.0
        assert est.leg_breakdown["unexpected_leg1"] == 0.0
        assert abs(price_bond(inputs).price - est.price) <= 3 * est.std_error

    def test_mid_first_interval_valuation(self, p0_rate, p0_firm, p0_spec):
        # Valuing inside the first interval: the jump window shrinks to
        # [t, t1) but the declared-value law stays anchored at time 0.
        inputs = PricingInputs(rate_model=p0_rate, firm=p0_firm, spec=p0_spec,
                               r=0.04, t=0.25)
        est = simulate_price(inputs, McConfig(n_paths=300_000, seed=23,
                                              n_threads=4))
        closed = price_full(inputs, PricingMode.CORRECTED).price
        assert abs(closed - est.price) <= 3 * est.std_error

    def test_piecewise_rate_model(self, p0_firm, p0_spec):
        from dvbond import PiecewiseConstant
        rate = ShortRateModel(
            a1=PiecewiseConstant((0.4,), (0.01, 0.03)),
            a2=PiecewiseConstant((0.7,), (0.2, 0.35)),
            s_r=PiecewiseConstant((0.5,), (0.01, 0.02)),
            maturity=1.0,
        )
        inputs = PricingInputs(rate_model=rate, firm=p0_firm, spec=p0_spec,
                               r=0.05, t=0.0)
        est = simulate_price(inputs, McConfig(n_paths=300_000, seed=29,
                                              n_threads=4))
        closed = price_full(inputs, PricingMode.CORRECTED).price
        assert abs(closed - est.price) <= 3 * est.std_error

    def test_kinked_custom_intensity(self, p0_rate, p0_firm):
        # Hazard with a slope kink at V = 90; the pricer's adaptive
        # panels and the simulation must still agree.
        kinked = IntensityFunction.custom(
            lambda v: 0.02 + 0.3 * np.maximum(0.0, 1.0 - v / 90.0))
        spec = DefaultSpec(t1=0.5, t2=1.0, K1=70.0, K2=80.0, R_u=0.4,
                           R_e=0.3, intensity=kinked)
        inputs = PricingInputs(rate_model=p0_rate, firm=p0_firm, spec=spec,
                               r=0.05, t=0.0)
        est = simulate_price(inputs, McConfig(n_paths=300_000, seed=37,
                                              n_threads=4))
        closed = price_full(inputs, PricingMode.CORRECTED).price
        assert abs(closed - est.price) <= 3 * est.std_error

    def test_underflow_against_zero_barrier_prices_the_limit(self):
        # A declared value that underflows to 0 stands for a tiny one: no
        # breach of a zero barrier, and an intensity of inf. The
        # simulation prices the closed form's limit, for every seed.
        for inputs in (make_inputs(firm=dict(s_V=1e100), default=dict(K1=0.0)),
                       make_inputs(firm=dict(s_V=1e100), default=dict(K2=0.0),
                                   t=0.7, V1=95.0)):
            closed = price_bond(inputs).price
            for seed in (1, 2, 3):
                est = simulate_price(inputs, McConfig(n_paths=20_000, seed=seed))
                assert abs(est.price - closed) <= 3 * est.std_error

    def test_custom_intensity_takes_its_own_limit(self):
        # At s_V = 50 only some V1 underflow to 0, where the custom twin of
        # the log-reciprocal family states the limit inf. Every seed
        # prices, with no RuntimeWarning from the callable's 1/0; they once
        # raised or priced by seed.
        twin = IntensityFunction.custom(lambda v: np.log1p(1.0 / np.asarray(v)))
        inputs = make_inputs(firm=dict(s_V=50.0), default=dict(K1=0.0), intensity=twin)
        closed = price_bond(inputs).price
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(1, 7):
                est = simulate_price(inputs, McConfig(n_paths=2000, seed=seed))
                assert abs(est.price - closed) <= 3 * est.std_error

    @pytest.mark.parametrize("case", ["pre", "post"])
    def test_tiny_firm_value_against_zero_barriers(self, case):
        # lambda = inf: every path jumps at once and pays R_u Z, so the
        # declared values that underflow to 0 (most of them at s_V = 3)
        # are never used. They once raised, naming s_V.
        inputs = (make_inputs(firm=dict(V0=5e-324, s_V=3.0), default=dict(K1=0.0, K2=0.0))
                  if case == "pre" else
                  make_inputs(firm=dict(s_V=3.0), default=dict(K2=0.0), t=0.7, V1=5e-324))
        leg = "unexpected_leg1" if case == "pre" else "unexpected_leg2"
        closed = price_bond(inputs)
        assert closed.price == inputs.spec.R_u * closed.zcb
        for seed in (1, 2, 3):
            est = simulate_price(inputs, McConfig(n_paths=2000, seed=seed))
            assert est.price == pytest.approx(closed.price, rel=1e-14)
            assert est.leg_breakdown[leg] == est.price

    def test_underflowed_first_breach_needs_no_second_intensity(self):
        # Every V1 underflows and breaches K1 = 70: each path pays the
        # first-barrier recovery, which the closed form prices.
        inputs = make_inputs(firm=dict(s_V=1e100))
        est = simulate_price(inputs, McConfig(n_paths=20_000, seed=5))
        assert est.leg_breakdown["expected_t1"] + est.leg_breakdown["unexpected_leg1"] \
            == pytest.approx(est.price, abs=1e-15)
        assert abs(price_full(inputs).price - est.price) <= 3 * est.std_error

    def test_overflowed_first_value_keeps_the_second_barrier(self):
        # mu = 501400, s_V = 1000: about half of the V1 overflow to inf,
        # and some of their V2 = V0 exp(both steps) lie below K2. Every leg
        # matches the closed form, with no RuntimeWarning (the jump clock
        # of a huge V1 overflows to inf, its limit). unexpected_leg2 is
        # ~8e-7, under one expected event in 20,000 paths: a seed that
        # samples none has no z for it.
        inputs = make_inputs(firm=dict(mu=501400.0, s_V=1000.0))
        closed = price_bond(inputs)
        for seed in (1, 2, 3):
            est = simulate_price(inputs, McConfig(n_paths=20_000, seed=seed))
            assert abs(est.price - closed.price) <= 3 * est.std_error
            for name, value in closed.legs.items():
                mc = est.leg_breakdown[name]
                if mc == 0.0:
                    assert abs(value) * est.n_paths < 1.0, (seed, name)
                else:
                    assert abs(mc - value) <= 3 * est.leg_std_error[name], (seed, name)

    def test_long_maturity_memory_is_per_path(self):
        # 30 years: a per-step rate grid would need gigabytes per chunk.
        inputs = make_inputs(default=dict(t1=15.0, t2=30.0))
        tracemalloc.start()
        try:
            est = simulate_price(inputs, McConfig(n_paths=1 << 16, seed=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        closed = price_full(inputs, PricingMode.CORRECTED).price
        assert abs(closed - est.price) <= 3 * est.std_error


def ode_moments(rate: ShortRateModel, r0: float, lo: float, hi: float):
    """Mean and covariance of (r_hi, int_lo^hi r) given r_lo = r0.

    Integrates the moment equations m_r' = a1 - a2 m_r, m_I' = m_r,
    v_rr' = s^2 - 2 a2 v_rr, v_rI' = v_rr - a2 v_rI, v_II' = 2 v_rI
    piece by piece between the coefficient breakpoints.
    """
    cuts = sorted({lo, hi}.union(
        b for f in (rate.a1, rate.a2, rate.s_r) for b in f.breakpoints
        if lo < b < hi))
    y = np.array([r0, 0.0, 0.0, 0.0, 0.0])
    for left, right in zip(cuts, cuts[1:]):
        a1, a2, s = rate.a1(left), rate.a2(left), rate.s_r(left)

        def rhs(_, v, a1=a1, a2=a2, s=s):
            m_r, _m_i, v_rr, v_ri, _v_ii = v
            return [a1 - a2 * m_r, m_r, s * s - 2 * a2 * v_rr,
                    v_rr - a2 * v_ri, 2 * v_ri]

        y = solve_ivp(rhs, (left, right), y, method="DOP853", rtol=1e-13,
                      atol=1e-20).y[:, -1]
    m_r, m_i, v_rr, v_ri, v_ii = y
    return np.array([m_r, m_i]), np.array([[v_rr, v_ri], [v_ri, v_ii]])


def piecewise_inputs(p0_firm, p0_spec):
    rate = ShortRateModel(
        a1=PiecewiseConstant((0.4,), (0.01, 0.03)),
        a2=PiecewiseConstant((0.7,), (0.2, 0.35)),
        s_r=PiecewiseConstant((0.5,), (0.01, 0.02)),
        maturity=1.0,
    )
    return PricingInputs(rate_model=rate, firm=p0_firm, spec=p0_spec,
                         r=0.05, t=0.0)


class TestRateTransition:
    @pytest.mark.parametrize("r0", [0.0, 0.05])
    @pytest.mark.parametrize("h", [1e-3, 0.049, 0.051, 0.5, 4.0])
    def test_segment_moments_match_ode(self, h, r0):
        # a2 = 0.2: h = 0.049 / 0.051 sit on either side of the series switch.
        rate = ShortRateModel(a1=0.01, a2=0.2, s_r=0.01, maturity=10.0)
        mean, cov = ode_moments(rate, r0, 0.0, h)
        decay, ramp, lag, var_r, cov_ri, var_i = (
            v[0] for v in _segment_moments(0.01, 0.2, 0.01, np.array([h])))
        got_mean = [decay * r0 + 0.01 * ramp, ramp * r0 + 0.01 * lag]
        got_cov = [[var_r, cov_ri], [cov_ri, var_i]]
        np.testing.assert_allclose(got_mean, mean, rtol=1e-10)
        np.testing.assert_allclose(got_cov, cov, rtol=1e-9)

    def test_integral_variance_nonnegative_for_tiny_steps(self):
        h = 5e-9  # a2 * h = 1e-9
        _, _, _, var_r, cov, var_i = (
            v[0] for v in _segment_moments(0.01, 0.2, 0.01, np.array([h])))
        assert var_i == pytest.approx(0.01**2 * h**3 / 3, rel=1e-8)
        # Conditional variance of the integral given r: s^2 h^3 / 12.
        assert var_i - cov * cov / var_r == pytest.approx(0.01**2 * h**3 / 12,
                                                          rel=1e-6)

    @staticmethod
    def sample(inputs, lo, hi, n, seed):
        plan = _build_plan(inputs, McConfig(n_paths=n))
        z = np.random.default_rng(seed).standard_normal(
            (len(plan.segments), 2, n))
        r, integral = _rate_transition(plan, np.full(n, inputs.r), lo,
                                       np.full(n, hi), z)
        return plan, np.stack([r, integral])

    @staticmethod
    def assert_sample_moments(sample, mean, cov):
        n = sample.shape[1]
        sd = np.sqrt(np.diag(cov))
        assert np.all(np.abs(sample.mean(axis=1) - mean) <= 4 * sd / math.sqrt(n))
        got = np.cov(sample)
        np.testing.assert_allclose(np.diag(got) / np.diag(cov), 1.0,
                                   atol=4 * math.sqrt(2 / n))
        rho = cov[0, 1] / (sd[0] * sd[1])
        got_rho = got[0, 1] / math.sqrt(got[0, 0] * got[1, 1])
        assert abs(got_rho - rho) <= 4 * (1 - rho * rho) / math.sqrt(n)

    def test_constant_coefficients(self, p0_inputs):
        _, sample = self.sample(p0_inputs, 0.1, 0.9, 400_000, 11)
        self.assert_sample_moments(
            sample, *ode_moments(p0_inputs.rate_model, 0.05, 0.1, 0.9))

    def test_straddles_every_breakpoint(self, p0_firm, p0_spec):
        inputs = piecewise_inputs(p0_firm, p0_spec)
        plan, sample = self.sample(inputs, 0.3, 0.8, 400_000, 12)
        assert len(plan.segments) == 4
        mean, cov = ode_moments(inputs.rate_model, 0.05, 0.3, 0.8)
        self.assert_sample_moments(sample, mean, cov)
        # Zero normals give the conditional mean exactly.
        r, integral = _rate_transition(plan, np.full(1, 0.05), 0.3,
                                       np.full(1, 0.8), np.zeros((4, 2, 1)))
        np.testing.assert_allclose([r[0], integral[0]], mean, rtol=1e-10)

    def test_per_path_lengths(self, p0_firm, p0_spec):
        # Each path stops at its own time; a zero-length step is an identity.
        inputs = piecewise_inputs(p0_firm, p0_spec)
        plan = _build_plan(inputs, McConfig(n_paths=4))
        hi = np.array([0.0, 0.45, 0.6, 1.0])
        z = np.random.default_rng(5).standard_normal((4, 2, 4))
        r, integral = _rate_transition(plan, np.full(4, 0.05), 0.0, hi, z)
        assert r[0] == 0.05 and integral[0] == 0.0
        for k in range(1, 4):
            mean, _ = ode_moments(inputs.rate_model, 0.05, 0.0, hi[k])
            r_k, i_k = _rate_transition(plan, np.full(1, 0.05), 0.0,
                                        np.full(1, hi[k]), np.zeros((4, 2, 1)))
            np.testing.assert_allclose([r_k[0], i_k[0]], mean, rtol=1e-10)
            # Segments beyond hi[k] draw nothing: their normals are unused.
            z_k = z[:, :, k:k + 1].copy()
            z_k[np.array([s[0] for s in plan.segments]) >= hi[k]] = 99.0
            r_z, i_z = _rate_transition(plan, np.full(1, 0.05), 0.0,
                                        np.full(1, hi[k]), z_k)
            np.testing.assert_allclose([r_z[0], i_z[0]], [r[k], integral[k]],
                                       rtol=1e-14)


class TestDrawHelpers:
    def test_declared_value_never_nan(self):
        # V1 overflows to inf, and the second step would underflow exp to
        # 0: V2 comes from ln V0 plus both steps, finite and below K2.
        firm = FirmModel(V0=100.0, mu=501400.0, b=0.05, s_V=1000.0)
        log_v1, v1 = _declared_value(math.log(firm.V0), np.array([0.1, 0.1]),
                                     firm, 0.5)
        assert np.all(v1 == np.inf)
        _, v2 = _declared_value(log_v1, np.array([-3.0, 0.0]), firm, 0.5)
        scale = firm.s_V * math.sqrt(0.5)
        want = math.exp(math.log(firm.V0) + firm.log_drift + scale * (0.1 - 3.0))
        assert 0.0 < want < 80.0
        assert v2[0] == pytest.approx(want, rel=1e-10)
        assert v2[1] == np.inf

    def test_clock_of_a_subnormal_intensity_is_inf(self):
        # ln(1 + 1/V) at V ~ 1e310 is subnormal; xi / lambda overflows to
        # inf, the limit (no jump), without a warning.
        lam = np.array([5e-324, 1e-310, 0.0, 2.0])
        xi = _truncated_exp_clock(lam, np.full(4, 0.5))
        assert list(xi[:3]) == [np.inf] * 3
        assert xi[3] == pytest.approx(math.log(2.0) / 2.0, rel=1e-15)

    def test_clock_limits(self):
        # At lambda = 0 no time is below any finite horizon: it is +inf,
        # or 0/0 = NaN at u = 0.0. At lambda = inf every time is 0. A
        # scalar lambda and one per path give the same times, and neither
        # warns.
        lams = np.array([0.0, 1e-300, 1.0, np.inf])
        u = np.array([0.0, 0.5, _U_CAP])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scalar = np.array([_truncated_exp_clock(lam, u.copy()) for lam in lams])
            per_path = _truncated_exp_clock(np.repeat(lams, u.size), np.tile(u, lams.size))
        np.testing.assert_array_equal(per_path, scalar.ravel())
        assert not np.any(scalar[0] < np.finfo(float).max)
        assert np.all(scalar[-1] == 0.0)
        np.testing.assert_array_equal(scalar[2], -np.log1p(-u))
        assert scalar[1, 0] == 0.0 and np.all(np.isfinite(scalar[1]))


class TestNominalIntegral:
    @pytest.mark.parametrize("rate", ["constant", "piecewise"])
    @pytest.mark.parametrize("t, V1", [(0.0, None), (0.3, None), (0.75, 90.0)])
    def test_lognormal_mean_is_the_discount_bond(self, rate, t, V1):
        # E[exp(-int_t^t2 r)] = exp(-mean + var / 2) = Z(r, t).
        piecewise = dict(a1=PiecewiseConstant((0.4,), (0.01, 0.03)),
                         a2=PiecewiseConstant((0.7,), (0.2, 0.35)),
                         s_r=PiecewiseConstant((0.5, 0.8), (0.01, 0.02, 0.03)))
        inputs = make_inputs(rate=piecewise if rate == "piecewise" else None,
                             t=t, V1=V1)
        plan = _build_plan(inputs, McConfig(n_paths=2))
        mean, sd = plan.nominal
        log_z = math.log(zcb_price(inputs.rate_model, inputs.r, t))
        assert -mean + 0.5 * sd * sd == pytest.approx(log_z, rel=1e-13, abs=0.0)
        assert (mean, sd) == pytest.approx(_reference_nominal(plan), rel=1e-13)


def _reference_clock(lam, u):
    lam = np.asarray(lam, dtype=float)
    safe = np.where(lam > 0.0, lam, 1.0)
    return np.where(lam > 0.0, -np.log1p(-u) / safe, np.inf)


def _reference_transition(plan, r, lo, hi, z):
    """Per-path rate transition on every path and every segment."""
    integral = np.zeros_like(r)
    for (left, right, a1, a2, s_r), (z_r, z_i) in zip(plan.segments, z):
        h = np.maximum(np.minimum(hi, right) - np.maximum(lo, left), 0.0)
        decay, ramp, lag, var_r, cov, var_int = _segment_moments(a1, a2, s_r, h)
        sd_r = np.sqrt(var_r)
        load = np.divide(cov, sd_r, out=np.zeros_like(cov), where=sd_r > 0.0)
        sd_int = np.sqrt(np.maximum(var_int - load * load, 0.0))
        integral += ramp * r + a1 * lag + load * z_r + sd_int * z_i
        r = decay * r + a1 * ramp + sd_r * z_r
    return r, integral


def _reference_nominal(plan):
    """(mean, SD) of a nominal path's int_t^t2 r, from _reference_transition.

    The integral is linear in the normals: at z = 0 it is the mean, and
    at each unit vector the mean plus that normal's loading, whose
    squares sum to the variance.
    """
    x = plan.inputs
    k = len(plan.segments) * 2
    z = np.concatenate([np.zeros((k, 1)), np.eye(k)], axis=1)
    z = z.reshape(len(plan.segments), 2, k + 1)
    _, total = _reference_transition(plan, np.full(k + 1, x.r), x.t, x.spec.t2, z)
    return total[0], math.sqrt(np.sum(np.square(total[1:] - total[0])))


def _reference_chunk(plan, seed, chunk_idx, n_units):
    """One chunk with per-path work on every event path, five leg masks
    and per-leg pair statistics: the arithmetic that ``_simulate_chunk``
    must reproduce from the same draws.

    Draw order: z1, z2, u1, u2 (z1 and u1 only before t1), one normal
    per nominal unit, then (segments, 2) normals per event unit for its
    one transition from t to the payment time s2; a unit is a path or
    an antithetic pair, and it is an event unit when any of its paths
    jumps or breaches K1.
    """
    rng = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(chunk_idx,))))
    x = plan.inputs
    spec, firm = x.spec, x.firm
    pre = x.t < spec.t1
    z1 = rng.standard_normal(n_units) if pre else np.zeros(n_units)
    z2 = rng.standard_normal(n_units)
    u1 = rng.random(n_units) if pre else np.zeros(n_units)
    u2 = rng.random(n_units)
    if plan.antithetic:
        cap = math.nextafter(1.0, 0.0)
        z1 = np.concatenate([z1, -z1])
        z2 = np.concatenate([z2, -z2])
        u1 = np.concatenate([u1, np.minimum(1.0 - u1, cap)])
        u2 = np.concatenate([u2, np.minimum(1.0 - u2, cap)])
    m = len(z2)

    delta = spec.t2 - spec.t1
    if pre:
        log_v1 = (math.log(firm.V0) + firm.log_drift * spec.t1
                  + firm.s_V * math.sqrt(spec.t1) * z1)
        V1 = np.exp(log_v1)
        xi1 = _reference_clock(np.full(m, spec.intensity(firm.V0)), u1)
        jump1 = xi1 < spec.t1 - x.t
        barrier1 = V1 <= spec.K1
        seg2_start = spec.t1
        s1 = np.where(jump1, x.t + xi1, spec.t1)
    else:
        log_v1 = np.full(m, math.log(x.V1))
        V1 = np.full(m, x.V1)
        jump1 = np.zeros(m, dtype=bool)
        barrier1 = np.zeros(m, dtype=bool)
        seg2_start = x.t
        s1 = np.full(m, x.t)
    enter2 = ~jump1 & ~barrier1
    V2 = np.exp(log_v1 + firm.log_drift * delta + firm.s_V * math.sqrt(delta) * z2)
    barrier2 = V2 <= spec.K2
    xi2 = _reference_clock(spec.intensity(V1), u2)
    jump2 = enter2 & (xi2 < spec.t2 - seg2_start)
    s2 = np.where(jump2, seg2_start + xi2, np.where(enter2, spec.t2, s1))

    event = ~enter2 | jump2
    if plan.antithetic:
        event = np.tile(event[:n_units] | event[n_units:], 2)
    event_units = int(event[:n_units].sum())
    w = np.zeros(n_units)
    w[~event[:n_units]] = rng.standard_normal(n_units - event_units)
    zr = np.zeros((len(plan.segments), 2, n_units))
    zr[..., event[:n_units]] = rng.standard_normal(
        (len(plan.segments), 2, event_units))
    if plan.antithetic:
        w = np.concatenate([w, -w])
        zr = np.concatenate([zr, -zr], axis=-1)
    r2, integral = _reference_transition(plan, np.full(m, x.r), x.t, s2, zr)
    mean, sd = _reference_nominal(plan)
    total = np.where(event, integral, mean + sd * w)

    pay = np.exp(-total)
    surv_t2 = enter2 & ~jump2
    pay[surv_t2 & barrier2] *= spec.R_e
    early = ~surv_t2
    if early.any():
        recovery = np.where(jump1[early] | jump2[early], spec.R_u, spec.R_e)
        pay[early] *= recovery * zcb_price(x.rate_model, r2[early], s2[early])
    legs = {
        "survive_both": enter2 & ~jump2 & ~barrier2,
        "unexpected_leg1": jump1 & ~barrier1,
        "unexpected_leg2": jump2 & ~barrier2,
        "expected_t1": barrier1,
        "expected_t2": enter2 & barrier2,
    }

    def pair_stats(values):
        if plan.antithetic:
            values = 0.5 * (values[:n_units] + values[n_units:])
        mean = float(values.mean())
        return mean, float(np.square(values - mean).sum())

    stats = {"price": pair_stats(pay)}
    for name, mask in legs.items():
        stats[f"leg_{name}"] = pair_stats(pay * mask)
    return {"n": n_units, "event_units": event_units, "stats": stats}


def _chunk_cases():
    kinked = IntensityFunction.custom(
        lambda v: 0.02 + 0.3 * np.maximum(0.0, 1.0 - v / 90.0))
    return {
        "P0": dict(),
        "mid_first_interval": dict(r=0.04, t=0.25),
        "post_t1": dict(t=0.7, V1=90.0),
        "piecewise": dict(rate=PIECEWISE_RATE),
        "piecewise_mid": dict(rate=PIECEWISE_RATE, t=0.3),
        "kinked_intensity": dict(intensity=kinked),
        "no_intensity": dict(intensity=IntensityFunction.constant(0.0)),
        # Guard extremes: no path with an event, every path with one.
        "all_nominal": dict(default=dict(K1=0.0, K2=0.0),
                            intensity=IntensityFunction.constant(0.0)),
        "all_barrier1": dict(default=dict(K1=1e4)),
        "lambda_20": dict(intensity=IntensityFunction.constant(20.0)),
        "post_t1_lambda_20": dict(t=0.7, V1=90.0,
                                  intensity=IntensityFunction.constant(20.0)),
        # Z(r, t) = 0.066: the chunk's moments are in units of 2^-3.
        "low_zcb": dict(r=3.0),
    }


class TestChunkAgainstReference:
    """Per-key (mean, M2) of one chunk against the per-path reference.

    The chunk's record is in units of 2^plan.exponent; it is converted
    back exactly before the comparison. Tolerances: 1e-14 absolute on
    means (the leg sums run in another order) and 1e-12 relative on M2;
    a zero reference M2 must be 0.
    """

    @staticmethod
    def check(inputs, *, antithetic=False, n_units=CHUNK_PATHS, chunk_idx=0,
              seed=2024):
        plan = _build_plan(inputs, McConfig(n_paths=2, antithetic=antithetic))
        got = _simulate_chunk(plan, seed, chunk_idx, n_units)
        want = _reference_chunk(plan, seed, chunk_idx, n_units)
        assert got[0] == want["n"] == n_units
        assert list(want["stats"]) == ["price"] + [f"leg_{n}" for n in LEG_NAMES]
        got_means = np.ldexp(got[1], plan.exponent)
        got_m2s = np.ldexp(got[2], 2 * plan.exponent)
        for k, (key, (mean, m2)) in enumerate(want["stats"].items()):
            assert abs(got_means[k] - mean) <= 1e-14, key
            assert abs(got_m2s[k] - m2) <= 1e-12 * abs(m2), key
        return got

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("case", sorted(_chunk_cases()))
    def test_full_chunk(self, case, antithetic):
        inputs = make_inputs(**_chunk_cases()[case])
        if case.startswith("piecewise"):
            assert len(_build_plan(inputs, McConfig(n_paths=2)).segments) == 4
        n_units = CHUNK_PATHS // 2 if antithetic else CHUNK_PATHS
        self.check(inputs, antithetic=antithetic, n_units=n_units)

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_uneven_final_chunk(self, antithetic):
        self.check(make_inputs(), antithetic=antithetic, n_units=1234,
                   chunk_idx=3)

    @pytest.mark.parametrize("case", ["all_nominal", "P0", "all_barrier1",
                                      "lambda_20"])
    def test_per_path_work_only_on_event_units(self, monkeypatch, case):
        # One per-path transition (t -> s2) covers exactly the paths of
        # the event units, with a full normal set each. No nominal unit
        # gets per-path work.
        calls = []

        def spy(plan, r, lo, hi, z):
            calls.append(z.shape)
            return _rate_transition(plan, r, lo, hi, z)

        monkeypatch.setattr("dvbond.mcoracle._rate_transition", spy)
        inputs = make_inputs(**_chunk_cases()[case])
        segments = len(_build_plan(inputs, McConfig(n_paths=2)).segments)
        for antithetic in (False, True):
            calls.clear()
            n_units = CHUNK_PATHS // 2 if antithetic else CHUNK_PATHS
            self.check(inputs, antithetic=antithetic, n_units=n_units)
            plan = _build_plan(inputs, McConfig(n_paths=2, antithetic=antithetic))
            units = _reference_chunk(plan, 2024, 0, n_units)["event_units"]
            per_unit = 2 if antithetic else 1
            assert calls == [(segments, 2, per_unit * units)]
            if case == "all_nominal":
                assert units == 0
            elif case == "P0":
                assert 0 < units < n_units // 10
            else:  # every unit has an event and draws one full set
                assert units == n_units

    def test_guard_extremes(self):
        # No event at all: every leg but the par leg is exactly empty.
        # Record rows: the price, then the legs in LEG_NAMES order.
        _, means, m2s = self.check(make_inputs(**_chunk_cases()["all_nominal"]))
        for k in range(2, 1 + len(LEG_NAMES)):
            assert (means[k], m2s[k]) == (0.0, 0.0)
        # Every path breaches K1: everything sits in the expected_t1 leg.
        _, means, m2s = self.check(make_inputs(**_chunk_cases()["all_barrier1"]))
        for k, name in enumerate(LEG_NAMES, start=1):
            if name != "expected_t1":
                assert (means[k], m2s[k]) == (0.0, 0.0)
        # A single path: it is nominal or an event unit.
        for case in ("all_nominal", "all_barrier1", "P0"):
            self.check(make_inputs(**_chunk_cases()[case]), n_units=1)


class TestChunkMemory:
    """The traced peak of one 65,536-path chunk, per simulated path.

    A chunk holds each full-length array only until its last reader.
    Before t1 the widest moment is the declared values: the two rows of
    normals z1, z2 (16 B per path), which become ln V1 and ln V2 in
    place, next to V1 and V2 (16 B), plus 1-byte flags (the barrier
    flags and their temporaries). Every later stage holds less: lambda(V1)
    (8 B) comes after z and V2 are gone and takes V1's place, the
    uniforms (16 B) come after V1 is gone, and the payoff stage holds
    the discounted payoffs, the leg labels and one deviation array
    (8 B each). After t1 there is one row and one value fewer. So 40 B
    per path bounds a plain chunk on either side of t1.

    An antithetic chunk draws half of each row and joins it to its
    mirror, and its pair statistics add half-length arrays (the pair
    price and the pair legs' labels and values) next to the payoffs
    and labels: the mirror's transient copies, 16 B per path more.
    """

    @pytest.mark.parametrize("antithetic, bound", [(False, 40), (True, 56)])
    @pytest.mark.parametrize("t, V1", [(0.0, None), (0.75, 95.0)])
    def test_chunk_peak_is_bounded_per_path(self, t, V1, antithetic, bound):
        plan = _build_plan(make_inputs(t=t, V1=V1),
                           McConfig(n_paths=2, antithetic=antithetic))
        n_units = CHUNK_PATHS // 2 if antithetic else CHUNK_PATHS
        _simulate_chunk(plan, 7, 0, n_units)  # builds the rate table untraced
        tracemalloc.start()
        try:
            _simulate_chunk(plan, 7, 0, n_units)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * CHUNK_PATHS
