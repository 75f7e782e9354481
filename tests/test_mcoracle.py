import math
import tracemalloc

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
    price_full,
    price_last_interval,
    simulate_price,
    zcb_price,
)
from dvbond.mcoracle import (
    CHUNK_PATHS,
    LEG_NAMES,
    _build_plan,
    _rate_transition,
    _simulate_chunk,
)
from dvbond.ratecurve import _segment_moments

from conftest import make_inputs


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

    def test_post_announcement_regime(self, p0_rate, p0_firm, p0_spec):
        inputs = PricingInputs(rate_model=p0_rate, firm=p0_firm, spec=p0_spec,
                               r=0.05, t=0.7, V1=90.0)
        est = simulate_price(inputs, McConfig(n_paths=200_000, seed=6,
                                              n_threads=4))
        assert est.leg_breakdown["expected_t1"] == 0.0
        assert est.leg_breakdown["unexpected_leg1"] == 0.0
        assert abs(price_last_interval(inputs) - est.price) <= 3 * est.std_error

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


def _reference_chunk(plan, seed, chunk_idx, n_units):
    """One chunk with per-path work on every path, five leg masks and
    per-leg pair statistics: the arithmetic that ``_simulate_chunk``
    must reproduce from the same Philox draws."""
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(chunk_idx))
    spec, firm = plan.spec, plan.firm
    z1 = rng.standard_normal(n_units)
    z2 = rng.standard_normal(n_units)
    u1 = rng.random(n_units)
    u2 = rng.random(n_units)
    zr = rng.standard_normal((2, len(plan.segments), 2, n_units))
    if plan.antithetic:
        cap = math.nextafter(1.0, 0.0)
        z1 = np.concatenate([z1, -z1])
        z2 = np.concatenate([z2, -z2])
        u1 = np.concatenate([u1, np.minimum(1.0 - u1, cap)])
        u2 = np.concatenate([u2, np.minimum(1.0 - u2, cap)])
        zr = np.concatenate([zr, -zr], axis=-1)
    m = len(z1)

    delta = spec.t2 - spec.t1
    if plan.t < spec.t1:
        V1 = firm.V0 * np.exp(
            firm.log_drift * spec.t1 + firm.s_V * math.sqrt(spec.t1) * z1)
        xi1 = _reference_clock(np.full(m, spec.intensity(firm.V0)), u1)
        jump1 = xi1 < spec.t1 - plan.t
        barrier1 = V1 <= spec.K1
        seg2_start = spec.t1
        s1 = np.where(jump1, plan.t + xi1, spec.t1)
    else:
        V1 = np.full(m, plan.V1_known)
        jump1 = np.zeros(m, dtype=bool)
        barrier1 = np.zeros(m, dtype=bool)
        seg2_start = plan.t
        s1 = np.full(m, plan.t)
    enter2 = ~jump1 & ~barrier1
    V2 = V1 * np.exp(firm.log_drift * delta + firm.s_V * math.sqrt(delta) * z2)
    barrier2 = V2 <= spec.K2
    xi2 = _reference_clock(spec.intensity(V1), u2)
    jump2 = enter2 & (xi2 < spec.t2 - seg2_start)
    s2 = np.where(jump2, seg2_start + xi2, np.where(enter2, spec.t2, s1))
    r1, int1 = _reference_transition(plan, np.full(m, plan.r0), plan.t, s1, zr[0])
    r2, int2 = _reference_transition(plan, r1, s1, s2, zr[1])

    pay = np.exp(-(int1 + int2))
    surv_t2 = enter2 & ~jump2
    pay[surv_t2 & barrier2] *= spec.R_e
    early = ~surv_t2
    if early.any():
        recovery = np.where(jump1[early] | jump2[early], spec.R_u, spec.R_e)
        pay[early] *= recovery * zcb_price(plan.rate_model, r2[early], s2[early])
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
    return {"n": n_units, "stats": stats}


def _chunk_cases():
    kinked = IntensityFunction.custom(
        lambda v: 0.02 + 0.3 * np.maximum(0.0, 1.0 - v / 90.0))
    piecewise = dict(a1=PiecewiseConstant((0.4,), (0.01, 0.03)),
                     a2=PiecewiseConstant((0.7,), (0.2, 0.35)),
                     s_r=PiecewiseConstant((0.5,), (0.01, 0.02)))
    return {
        "P0": dict(),
        "mid_first_interval": dict(r=0.04, t=0.25),
        "post_t1": dict(t=0.7, V1=90.0),
        "piecewise": dict(rate=piecewise),
        "piecewise_mid": dict(rate=piecewise, t=0.3),
        "kinked_intensity": dict(intensity=kinked),
        "no_intensity": dict(intensity=IntensityFunction.constant(0.0)),
        # Guard extremes: no path with an event, every path with one.
        "all_nominal": dict(default=dict(K1=0.0, K2=0.0),
                            intensity=IntensityFunction.constant(0.0)),
        "all_barrier1": dict(default=dict(K1=1e4)),
        "lambda_20": dict(intensity=IntensityFunction.constant(20.0)),
        "post_t1_lambda_20": dict(t=0.7, V1=90.0,
                                  intensity=IntensityFunction.constant(20.0)),
    }


class TestChunkAgainstReference:
    """Per-key (mean, M2) of one chunk against the per-path reference.

    Tolerances: 1e-14 absolute on means (the leg sums run in another
    order) and 1e-12 relative on M2; a zero reference M2 must be 0.
    """

    @staticmethod
    def check(inputs, *, antithetic=False, n_units=CHUNK_PATHS, chunk_idx=0,
              seed=2024):
        plan = _build_plan(inputs, McConfig(n_paths=2, antithetic=antithetic))
        got = _simulate_chunk(plan, seed, chunk_idx, n_units)
        want = _reference_chunk(plan, seed, chunk_idx, n_units)
        assert got["n"] == want["n"] == n_units
        assert got["stats"].keys() == want["stats"].keys()
        for key, (mean, m2) in want["stats"].items():
            got_mean, got_m2 = got["stats"][key]
            assert abs(got_mean - mean) <= 1e-14, key
            assert abs(got_m2 - m2) <= 1e-12 * abs(m2), key
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

    @pytest.mark.parametrize("case, nominal_pass, per_path_paths", [
        ("all_nominal", True, 0),
        ("P0", True, None),  # a few events, well under half
        ("all_barrier1", False, CHUNK_PATHS),
        ("lambda_20", False, CHUNK_PATHS),
    ])
    def test_guard_picks_route(self, monkeypatch, case, nominal_pass,
                               per_path_paths):
        # Scalar-time transitions are the nominal pass; the first
        # per-path transition covers the event subset or every path.
        calls = []

        def spy(plan, r, lo, hi, z):
            calls.append((np.ndim(hi), z.shape[-1]))
            return _rate_transition(plan, r, lo, hi, z)

        monkeypatch.setattr("dvbond.mcoracle._rate_transition", spy)
        self.check(make_inputs(**_chunk_cases()[case]))
        shared = [n for ndim, n in calls if ndim == 0]
        per_path = [n for ndim, n in calls if ndim == 1]
        assert shared == ([CHUNK_PATHS] * 2 if nominal_pass else [])
        if per_path_paths is None:
            assert 0 < per_path[0] < CHUNK_PATHS // 2
        else:
            assert per_path[0] == per_path_paths

    def test_guard_extremes(self):
        # No event at all: every leg but the par leg is exactly empty.
        got = self.check(make_inputs(**_chunk_cases()["all_nominal"]))
        for name in LEG_NAMES[1:]:
            assert got["stats"][f"leg_{name}"] == (0.0, 0.0)
        # Every path breaches K1: everything sits in the expected_t1 leg.
        got = self.check(make_inputs(**_chunk_cases()["all_barrier1"]))
        for name in LEG_NAMES:
            if name != "expected_t1":
                assert got["stats"][f"leg_{name}"] == (0.0, 0.0)
        # A single path: the event subset is empty or everything.
        for case in ("all_nominal", "all_barrier1", "P0"):
            self.check(make_inputs(**_chunk_cases()[case]), n_units=1)
