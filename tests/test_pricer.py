import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from dvbond import (
    DefaultSpec,
    FirmModel,
    IntensityFunction,
    McConfig,
    PricingInputs,
    PricingMode,
    QuadratureConvergenceError,
    QuadratureSpec,
    compute_alphas,
    expected_default_leg,
    price_bond,
    price_full,
    simulate_price,
    survival_prob,
    zcb_price,
)
from dvbond import PiecewiseConstant, ShortRateModel, mathkit, mcoracle, pricer
from dvbond.mathkit import (
    QuadFormMatrix,
    bivariate_cdf_bruteforce,
    bivariate_cdf_quadform,
    integrate_left_tail,
    normal_cdf,
)
from dvbond.pricer import LEG_NAMES, price_batch

from conftest import make_inputs
from test_acceptance import random_scenario


def last_interval_factor(spec, firm, V1, t):
    """Exact announcement-interval value factor (survival-weighted)."""
    lam = spec.intensity(V1)
    decay = np.exp(-lam * (spec.t2 - t))
    delta = spec.t2 - spec.t1
    if spec.K2 == 0.0:
        surv = np.ones_like(np.asarray(V1, dtype=float))
    else:
        surv = ndtr((np.log(np.asarray(V1) / spec.K2) + firm.log_drift * delta)
                    / (firm.s_V * math.sqrt(delta)))
    return (spec.R_u + (1 - spec.R_u) * decay) * surv \
        + (spec.R_u + (spec.R_e - spec.R_u) * decay) * (1 - surv)


def quadform_pair(t1, t2):
    """Unit-determinant inverse-scale matrices coupling the two
    announcement checks, coupling +sqrt(t1/(t2-t1)) and its negative."""
    delta = t2 - t1
    c = math.sqrt(t1 / delta)
    return (QuadFormMatrix(m11=t2 / delta, m12=c, m22=1.0),
            QuadFormMatrix(m11=t2 / delta, m12=-c, m22=1.0))


def announcement_factor(mode, firm, spec, V1):
    """The pricer's value factor at t1 given V1, in the grouping of ``mode``."""
    return pricer._interval_factor(pricer._CONVENTIONS[mode], firm, spec, V1, spec.t1)


class TestIntervalFactor:
    # The last-interval value factor of the exact (corrected) grouping.
    # K2 = 0 clears the maturity barrier for certain, K2 = 1e9 breaches it.

    @staticmethod
    def factor(spec, t, lam):
        spec = dataclasses.replace(spec, intensity=IntensityFunction.constant(lam))
        firm = FirmModel(V0=100.0, mu=0.07, b=0.05, s_V=0.2)
        return pricer._interval_factor(pricer._CORRECTED, firm, spec, 100.0, t)

    def test_no_intensity_survived(self, p0_spec):
        cleared = dataclasses.replace(p0_spec, K2=0.0)
        assert self.factor(cleared, 0.7, 0.0) == 1.0

    def test_against_backward_ode(self):
        # du/dt = lam*u - lam*R_u backward from u(t2) = 1.
        from scipy.integrate import solve_ivp
        spec = DefaultSpec(t1=0.0001, t2=1.0001, K1=1.0, K2=0.0,
                           R_u=0.4, R_e=0.3)
        sol = solve_ivp(lambda t, u: 0.1 * u - 0.1 * 0.4, (1.0001, 0.0001),
                        [1.0], rtol=1e-12, atol=1e-14)
        got = self.factor(spec, 0.0001, 0.1)
        assert got == pytest.approx(float(sol.y[0, -1]), abs=1e-10)
        assert got == pytest.approx(0.4 + 0.6 * math.exp(-0.1), abs=1e-14)

    def test_terminal_values(self, p0_spec):
        cleared = dataclasses.replace(p0_spec, K2=0.0)
        breached = dataclasses.replace(p0_spec, K2=1e9)
        assert self.factor(cleared, p0_spec.t2, 0.3) == 1.0
        assert self.factor(breached, p0_spec.t2, 0.3) == p0_spec.R_e


class TestPriceLastInterval:
    def test_full_recovery_is_par(self):
        inputs = make_inputs(default=dict(R_u=1.0, R_e=1.0), t=0.5, V1=100.0)
        z = zcb_price(inputs.rate_model, inputs.r, 0.5)
        assert price_bond(inputs).price == pytest.approx(z, rel=1e-14)

    def test_default_free(self):
        inputs = make_inputs(default=dict(K2=0.0), t=0.5, V1=100.0,
                             intensity=IntensityFunction.constant(0.0))
        z = zcb_price(inputs.rate_model, inputs.r, 0.5)
        assert price_bond(inputs).price == pytest.approx(z, rel=1e-14)

    def test_against_monte_carlo(self, p0_rate, p0_firm, p0_spec):
        inputs = PricingInputs(rate_model=p0_rate, firm=p0_firm, spec=p0_spec,
                               r=0.05, t=0.5, V1=100.0)
        est = simulate_price(inputs, McConfig(n_paths=400_000, seed=3,
                                              n_threads=4))
        assert abs(price_bond(inputs).price - est.price) <= 3 * est.std_error

    def test_requires_declared_value(self, p0_rate, p0_firm, p0_spec):
        with pytest.raises(ValueError):
            PricingInputs(rate_model=p0_rate, firm=p0_firm, spec=p0_spec,
                          r=0.05, t=0.5)


class TestFFactor:
    def test_full_recovery(self, p0_firm):
        spec = DefaultSpec(t1=0.5, t2=1.0, K1=70.0, K2=80.0, R_u=1.0, R_e=1.0)
        for mode in PricingMode:
            assert announcement_factor(mode, p0_firm, spec, 123.0) == \
                pytest.approx(1.0, abs=1e-15)

    def test_no_barrier_constant_intensity(self, p0_firm):
        spec = DefaultSpec(t1=0.5, t2=1.0, K1=70.0, K2=0.0, R_u=0.4, R_e=0.3,
                           intensity=IntensityFunction.constant(0.2))
        want = 0.4 + 0.6 * math.exp(-0.2 * 0.5)
        for mode in PricingMode:
            assert announcement_factor(mode, p0_firm, spec, 50.0) == \
                pytest.approx(want, rel=1e-14)

    def test_equals_component_sum(self, p0_firm, p0_spec):
        # The printed factor is the sum of its four displayed parts:
        # floor and jump-survival payout on the maturity-survival branch,
        # then the same pair, both carrying R_e, on the breach branch.
        R_u, R_e = p0_spec.R_u, p0_spec.R_e
        delta = p0_spec.t2 - p0_spec.t1
        for w in (-2.0, -0.5, 0.0, 0.3, 1.7):
            V1 = p0_firm.V0 * math.exp(p0_firm.log_drift * 0.5 + 0.2 * w)
            decay = math.exp(-p0_spec.intensity(V1) * delta)
            n_up = normal_cdf((math.log(V1 / p0_spec.K2) + p0_firm.log_drift * delta)
                              / (p0_firm.s_V * math.sqrt(delta)))
            parts = (R_u * n_up, (1 - R_u) * decay * n_up,
                     R_u * R_e * (1 - n_up), R_e * (1 - R_u) * decay * (1 - n_up))
            got = announcement_factor(PricingMode.PAPER_LITERAL, p0_firm, p0_spec, V1)
            assert got == pytest.approx(sum(parts), abs=1e-14)


class TestComputeAlphas:
    def test_balanced_at_barrier(self):
        firm = FirmModel(V0=70.0, mu=0.07, b=0.05, s_V=0.2)
        spec = DefaultSpec(t1=0.5, t2=1.0, K1=70.0, K2=70.0, R_u=0.4, R_e=0.3)
        a = compute_alphas(firm, spec)
        assert a.alpha1 == 0.0
        assert a.alpha2 == 0.0

    def test_reference_values(self, p0_firm, p0_spec):
        a = compute_alphas(p0_firm, p0_spec)
        scale = 0.2 * math.sqrt(0.5)
        assert a.alpha1 == pytest.approx(math.log(100 / 70) / scale, rel=1e-14)
        assert a.alpha2 == pytest.approx(math.log(100 / 80) / scale, rel=1e-14)
        assert a.alpha1 == pytest.approx(2.5221, abs=1e-4)
        assert a.alpha2 == pytest.approx(1.5779, abs=1e-4)

    def test_change_of_variables_identity(self, p0_firm, p0_spec):
        # At zero displacement the maturity check reduces to alpha2:
        # rel 2e-14 on N(alpha2 = 1.58) is rel 1e-13 on alpha2.
        V1_mid = p0_firm.V0 * math.exp(p0_firm.log_drift * p0_spec.t1)
        a = compute_alphas(p0_firm, p0_spec)
        assert survival_prob(p0_firm, V1_mid, p0_spec.K2, 0.5) == pytest.approx(
            normal_cdf(a.alpha2), rel=2e-14, abs=0.0)

    def test_zero_barriers_short_circuit(self, p0_firm):
        spec = DefaultSpec(t1=0.5, t2=1.0, K1=0.0, K2=0.0, R_u=0.4, R_e=0.3)
        a = compute_alphas(p0_firm, spec)
        assert a.alpha1 == math.inf and a.alpha2 == math.inf


class TestTermI21I23:
    def test_no_floor_recovery(self):
        terms = price_full(make_inputs(default=dict(R_u=0.0))).terms
        assert (terms.i21, terms.i23) == (0.0, 0.0)

    def test_no_barriers_limit(self):
        inputs = make_inputs(default=dict(K1=0.0, K2=0.0))
        for mode in PricingMode:
            terms = price_full(inputs, mode).terms
            assert terms.i21 == pytest.approx(inputs.spec.R_u, abs=1e-12)
            assert terms.i23 == 0.0

    def test_corrected_floor_splits_survival_mass(self, p0_inputs, p0_firm, p0_spec):
        a = compute_alphas(p0_firm, p0_spec)
        terms = price_full(p0_inputs, PricingMode.CORRECTED).terms
        assert terms.i21 + terms.i23 == pytest.approx(
            p0_spec.R_u * normal_cdf(a.alpha1), abs=1e-11)

    def test_literal_matches_bruteforce_quadrature(self, p0_inputs, p0_firm, p0_spec):
        a = compute_alphas(p0_firm, p0_spec)
        plus, minus = quadform_pair(p0_spec.t1, p0_spec.t2)
        terms = price_full(p0_inputs, PricingMode.PAPER_LITERAL).terms
        i21, i23 = terms.i21, terms.i23
        assert i21 == pytest.approx(
            p0_spec.R_u * bivariate_cdf_bruteforce(a.alpha1, a.alpha2, plus,
                                                   abs_tol=1e-11), abs=1e-8)
        assert i23 == pytest.approx(
            p0_spec.R_u * p0_spec.R_e
            * bivariate_cdf_bruteforce(a.alpha1, -a.alpha2, minus,
                                       abs_tol=1e-11), abs=1e-8)

    def test_direct_mapping_matches_quadform(self):
        # The bivariate probability is taken as a standard bivariate
        # normal CDF; the quadratic form of quadform_pair is its reference.
        rng = np.random.default_rng(7007)
        worst = 0.0
        for inputs in (random_scenario(rng) for _ in range(200)):
            spec = inputs.spec
            a = compute_alphas(inputs.firm, spec)
            plus, minus = quadform_pair(spec.t1, spec.t2)
            for mode, m in ((PricingMode.CORRECTED, minus),
                            (PricingMode.PAPER_LITERAL, plus)):
                n_up, _ = pricer._barrier_probabilities(
                    a.alpha1, a.alpha2, spec.t1, spec.t2, pricer._CONVENTIONS[mode].sign,
                    normal_cdf(a.alpha1))
                want = bivariate_cdf_quadform(a.alpha1, a.alpha2, m)
                worst = max(worst, abs(n_up - want))
        assert worst <= 1e-15

    def test_modes_differ_for_finite_thresholds(self, p0_inputs):
        corrected, literal = (price_full(p0_inputs, mode).terms for mode in PricingMode)
        assert (corrected.i21, corrected.i23) != (literal.i21, literal.i23)


class TestTermI22I24:
    def test_literal_full_floor_kills_both(self):
        terms = price_full(make_inputs(default=dict(R_u=1.0)),
                           PricingMode.PAPER_LITERAL).terms
        assert (terms.i22, terms.i24) == (0.0, 0.0)

    def test_constant_intensity_factorization(self):
        inputs = make_inputs(intensity=IntensityFunction.constant(0.1))
        spec = inputs.spec
        decay = math.exp(-0.1 * 0.5)
        for mode in PricingMode:
            terms = price_full(inputs, mode).terms
            i21, i22, i23, i24 = terms.i21, terms.i22, terms.i23, terms.i24
            assert i22 == pytest.approx(
                (1 - spec.R_u) * decay * i21 / spec.R_u, abs=1e-11)
            if mode is PricingMode.PAPER_LITERAL:
                want24 = spec.R_e * (1 - spec.R_u) * decay \
                    * i23 / (spec.R_u * spec.R_e)
            else:
                want24 = (spec.R_e - spec.R_u) * decay * i23 / spec.R_u
            assert i24 == pytest.approx(want24, abs=1e-11)

    def test_constant_intensity_against_quadrature(self):
        # The left-tail integrals of the constant kernel F, as the
        # log-reciprocal and custom intensities still evaluate them.
        for t1, t2, K1, K2, lam in ((0.5, 1.0, 70.0, 80.0, 0.1),
                                    (0.3, 1.2, 90.0, 85.0, 0.0),
                                    (1.5, 2.0, 40.0, 120.0, 0.2)):
            inputs = make_inputs(default=dict(t1=t1, t2=t2, K1=K1, K2=K2),
                                 intensity=IntensityFunction.constant(lam))
            spec = inputs.spec
            a = compute_alphas(inputs.firm, spec)
            F = math.exp(-lam * (t2 - t1))
            c = math.sqrt(t1 / (t2 - t1))
            sign = {PricingMode.CORRECTED: -1.0, PricingMode.PAPER_LITERAL: 1.0}
            coeff24 = {PricingMode.CORRECTED: spec.R_e - spec.R_u,
                       PricingMode.PAPER_LITERAL: spec.R_e * (1 - spec.R_u)}
            for mode in PricingMode:
                s = sign[mode]
                want22 = (1 - spec.R_u) * F * integrate_left_tail(
                    lambda x: ndtr(a.alpha2 + s * c * x), a.alpha1)
                want24 = coeff24[mode] * F * integrate_left_tail(
                    lambda x: ndtr(-a.alpha2 - s * c * x), a.alpha1)
                terms = price_full(inputs, mode).terms
                assert terms.i22 == pytest.approx(want22, abs=1e-12)
                assert terms.i24 == pytest.approx(want24, abs=1e-12)

    def test_shared_pass_matches_separate_integrals(self):
        # Acceptance criterion 7's 200 scenarios; the log-reciprocal
        # ones against one scalar quadrature per term and mode.
        rng = np.random.default_rng(7007)
        checked = 0
        for inputs in (random_scenario(rng) for _ in range(200)):
            firm, spec = inputs.firm, inputs.spec
            if spec.intensity.family != "log_reciprocal":
                continue
            a = compute_alphas(firm, spec)
            a1, a2 = a.alpha1, a.alpha2
            delta = spec.t2 - spec.t1
            c = math.sqrt(spec.t1 / delta)
            scale = firm.s_V * math.sqrt(spec.t1)
            log_v1 = math.log(firm.V0) + firm.log_drift * spec.t1

            def F(x):
                return np.exp(-delta * spec.intensity(np.exp(log_v1 + scale * x)))

            kernels = {
                PricingMode.CORRECTED: (
                    spec.R_e - spec.R_u,
                    lambda x: F(-x) * ndtr(a2 - c * x),
                    lambda x: F(-x) * ndtr(-a2 + c * x)),
                PricingMode.PAPER_LITERAL: (
                    spec.R_e * (1 - spec.R_u),
                    lambda x: F(x) * ndtr(a2 + c * x),
                    lambda x: F(x) * ndtr(-a2 - c * x)),
            }
            for mode, (coeff24, up, dn) in kernels.items():
                terms = price_full(inputs, mode).terms
                assert abs(terms.i22 - (1 - spec.R_u) * integrate_left_tail(up, a1)) <= 1e-12
                assert abs(terms.i24 - coeff24 * integrate_left_tail(dn, a1)) <= 1e-12
            checked += 1
        assert checked > 100

    def test_deep_first_barrier_breach(self):
        # alpha1 below -12 leaves no left tail to integrate.
        inputs = make_inputs(default=dict(K1=1e7))
        assert compute_alphas(inputs.firm, inputs.spec).alpha1 < -12.0
        for mode in PricingMode:
            res = price_full(inputs, mode)
            assert (res.terms.i22, res.terms.i24) == (0.0, 0.0)
            # R_e < R_u gives I24 a negative coefficient; its empty tail
            # still gives +0.0 (printed "0", not "-0"), batched or not.
            for terms in (res.terms, price_batch([inputs], mode)[0].terms):
                assert math.copysign(1.0, terms.i24) == 1.0
            assert res.price == pytest.approx(
                expected_default_leg(inputs, mode), abs=1e-15)

    def test_one_bivariate_cdf_per_price(self, monkeypatch):
        calls = []
        real = mathkit.bvn_cdf

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mathkit, "bvn_cdf", counted)
        for intensity in (IntensityFunction.log_reciprocal(),
                          IntensityFunction.constant(0.1)):
            inputs = make_inputs(intensity=intensity)
            for mode in PricingMode:
                calls.clear()
                price_full(inputs, mode)
                assert len(calls) == 1

    def test_corrected_term_sign(self, p0_inputs):
        # R_e < R_u makes the corrected breach adjustment negative.
        assert price_full(p0_inputs, PricingMode.CORRECTED).terms.i24 < 0.0
        assert price_full(p0_inputs, PricingMode.PAPER_LITERAL).terms.i24 > 0.0


class TestExpectedDefaultLeg:
    def test_zero_barrier(self):
        inputs = make_inputs(default=dict(K1=0.0))
        assert expected_default_leg(inputs) == 0.0

    def test_full_expected_recovery_no_intensity(self):
        inputs = make_inputs(default=dict(R_e=1.0),
                             intensity=IntensityFunction.constant(0.0))
        a = compute_alphas(inputs.firm, inputs.spec)
        z = zcb_price(inputs.rate_model, inputs.r, 0.0)
        want = z * normal_cdf(-a.alpha1)
        assert expected_default_leg(inputs, PricingMode.CORRECTED) == \
            pytest.approx(want, rel=1e-14)

    def test_mode_formulas(self, p0_inputs):
        spec = p0_inputs.spec
        lam0 = spec.intensity(p0_inputs.firm.V0)
        decay = math.exp(-lam0 * spec.t1)
        a = compute_alphas(p0_inputs.firm, spec)
        z = zcb_price(p0_inputs.rate_model, p0_inputs.r, 0.0)
        n = normal_cdf(-a.alpha1)
        corr = expected_default_leg(p0_inputs, PricingMode.CORRECTED)
        lit = expected_default_leg(p0_inputs, PricingMode.PAPER_LITERAL)
        assert corr == pytest.approx(
            z * (spec.R_u + (spec.R_e - spec.R_u) * decay) * n, rel=1e-14)
        assert lit == pytest.approx(
            z * spec.R_e * (spec.R_u + (1 - spec.R_u) * decay) * n, rel=1e-14)
        assert corr != pytest.approx(lit, rel=1e-6)


class TestPriceFull:
    def test_par_when_both_recoveries_full(self):
        inputs = make_inputs(default=dict(R_u=1.0, R_e=1.0))
        for mode in PricingMode:
            res = price_full(inputs, mode)
            assert res.price == pytest.approx(res.zcb, rel=1e-13)

    def test_default_free(self):
        inputs = make_inputs(default=dict(K1=0.0, K2=0.0),
                             intensity=IntensityFunction.constant(0.0))
        res = price_full(inputs)
        assert res.price == pytest.approx(res.zcb, rel=1e-15)

    def test_decomposition_identity_each_mode(self, p0_inputs):
        firm, spec = p0_inputs.firm, p0_inputs.spec
        a1 = compute_alphas(firm, spec).alpha1
        scale = firm.s_V * math.sqrt(spec.t1)

        def factor_at(x, mode):
            v = firm.V0 * np.exp(firm.log_drift * spec.t1 + scale * x)
            if mode is PricingMode.PAPER_LITERAL:
                return np.array([announcement_factor(mode, firm, spec, vi) for vi in v])
            return last_interval_factor(spec, firm, v, spec.t1)

        for mode in PricingMode:
            res = price_full(p0_inputs, mode)
            sign = -1.0 if mode is PricingMode.CORRECTED else 1.0
            direct = integrate_left_tail(
                lambda x: factor_at(sign * x, mode), a1)
            t = res.terms
            assert t.i21 + t.i22 + t.i23 + t.i24 == pytest.approx(direct, abs=1e-8)

    def test_orientation_free_terms_match_across_modes(self, p0_inputs):
        rc = price_full(p0_inputs, PricingMode.CORRECTED)
        rl = price_full(p0_inputs, PricingMode.PAPER_LITERAL)
        assert rc.terms.i1 == rl.terms.i1
        assert rc.zcb == rl.zcb

    def test_bounds(self, p0_inputs):
        res = price_full(p0_inputs)
        lo = min(p0_inputs.spec.R_u, p0_inputs.spec.R_e) * res.zcb
        assert lo - 1e-12 <= res.price <= res.zcb + 1e-12

    def test_continuous_at_first_announcement(self, p0_rate, p0_firm, p0_spec):
        # Averaging the post-announcement price over the declared-value
        # law reproduces the pre-announcement price as t approaches t1.
        eps = 1e-9
        inputs = PricingInputs(rate_model=p0_rate, firm=p0_firm, spec=p0_spec,
                               r=0.05, t=p0_spec.t1 - eps)
        got = price_full(inputs, PricingMode.CORRECTED).price

        a1 = compute_alphas(p0_firm, p0_spec).alpha1
        scale = p0_firm.s_V * math.sqrt(p0_spec.t1)

        def integrand(z):
            v1 = p0_firm.V0 * math.exp(p0_firm.log_drift * p0_spec.t1 + scale * z)
            post = PricingInputs(rate_model=p0_rate, firm=p0_firm, spec=p0_spec,
                                 r=0.05, t=p0_spec.t1, V1=v1)
            return price_bond(post).price \
                * math.exp(-z * z / 2) / math.sqrt(2 * math.pi)

        surviving, _ = quad(integrand, -a1, 14.0, epsabs=1e-13, epsrel=1e-12)
        z_t1 = zcb_price(p0_rate, 0.05, p0_spec.t1)
        want = surviving + z_t1 * p0_spec.R_e * normal_cdf(-a1)
        assert got == pytest.approx(want, abs=1e-7)

    def test_rejects_post_announcement_times(self, p0_rate, p0_firm, p0_spec):
        inputs = PricingInputs(rate_model=p0_rate, firm=p0_firm, spec=p0_spec,
                               r=0.05, t=0.5, V1=100.0)
        with pytest.raises(ValueError):
            price_full(inputs)

    def test_quadrature_failure_carries_partial_terms(self, p0_inputs):
        starved = QuadratureSpec(abs_tol=5e-324, max_nodes=32)
        with pytest.raises(QuadratureConvergenceError) as err:
            price_full(p0_inputs, quad=starved)
        assert "i1" in err.value.partial_terms


class TestPriceBondRouting:
    def test_routes_to_last_interval_at_t1(self, p0_rate, p0_firm, p0_spec):
        inputs = PricingInputs(rate_model=p0_rate, firm=p0_firm, spec=p0_spec,
                               r=0.05, t=0.5, V1=100.0)
        res = price_bond(inputs)
        assert res.terms is None
        assert res.price == pytest.approx(
            res.zcb * last_interval_factor(p0_spec, p0_firm, 100.0, 0.5), rel=1e-15)

    def test_pre_announcement_equals_price_full(self, p0_inputs):
        assert price_bond(p0_inputs).price == price_full(p0_inputs).price


class TestHugeDrift:
    def test_overflow_is_silent_and_exact(self):
        # With mu = 1e6 the declared value overflows to inf at the far
        # quadrature nodes, where lambda = 0 and F = 1 are the exact limit.
        inputs = make_inputs(firm=dict(mu=1e6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode in PricingMode:
                got = price_full(inputs, mode).price
                assert price_batch([inputs], mode)[0].price == \
                    pytest.approx(got, abs=1e-15)
            assert price_full(inputs).price == pytest.approx(0.948410604176158,
                                                             abs=1e-15)

    def test_underflow_is_the_zero_survival_limit(self):
        # With mu = -1e6 and no first barrier the declared value
        # underflows to 0 at every quadrature node, where lambda = inf
        # and F = 0; the corrected price keeps only the recovery R_u Z.
        inputs = make_inputs(firm=dict(mu=-1e6), default=dict(K1=0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode in PricingMode:
                got = price_bond(inputs, mode)
                assert_results_match(price_batch([inputs], mode)[0], got)
        got = price_bond(inputs)
        assert got.price == pytest.approx(inputs.spec.R_u * got.zcb, abs=1e-12)

    @pytest.mark.parametrize("firm", [dict(mu=-1e6), dict(s_V=50.0)], ids=["mu", "s_V"])
    def test_custom_intensity_underflow_prices_the_limit(self, firm):
        # A custom intensity states its own limit at V1 = 0: its twin of
        # the log-reciprocal family gives inf there, as the family does,
        # and prices the family's limit in both routes and modes, with no
        # RuntimeWarning from the callable's 1/0.
        custom = IntensityFunction.custom(lambda v: np.log1p(1.0 / np.asarray(v)))
        inputs = make_inputs(firm=firm, default=dict(K1=0.0), intensity=custom)
        builtin = make_inputs(firm=firm, default=dict(K1=0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode in PricingMode:
                want = price_bond(builtin, mode).price
                assert abs(price_bond(inputs, mode).price - want) <= 1e-15
                assert abs(price_batch([inputs], mode)[0].price - want) <= 1e-15

    def test_full_recovery_custom_intensity(self):
        # R_u = R_e = 1 pays par in every ending, yet the tails still run
        # for the J22 of legs: the corrected price is Z and the legs sum
        # to it, also where V1 underflows to the callable's limit.
        custom = IntensityFunction.custom(lambda v: np.log1p(1.0 / np.asarray(v)))
        for inputs in (make_inputs(default=dict(R_u=1.0, R_e=1.0), intensity=custom),
                       make_inputs(firm=dict(mu=-1e6), default=dict(K1=0.0, R_u=1.0, R_e=1.0),
                                   intensity=custom)):
            res = price_bond(inputs)
            assert res.price == res.zcb
            assert abs(sum(res.legs.values()) - res.zcb) <= 1e-15 * res.zcb

    def test_custom_intensity_underflow_in_a_shared_pass(self):
        # Both points share one intensity and so one tail pass; only
        # point 1 underflows, and each prices as it does alone.
        custom = IntensityFunction.custom(lambda v: np.log1p(1.0 / np.asarray(v)))
        batch = [make_inputs(default=dict(K1=0.0), intensity=custom),
                 make_inputs(firm=dict(mu=-1e6), default=dict(K1=0.0),
                             intensity=custom)]
        for mode in PricingMode:
            for res, inputs in zip(price_batch(batch, mode), batch):
                assert_results_match(res, price_bond(inputs, mode))


class TestTinyFirmVolatility:
    @pytest.mark.parametrize("t1", [0.5, 0.95])
    def test_prices_as_the_small_volatility_limit(self, t1):
        # s_V = 1e-160 puts alpha1 and alpha2 near 1e77, which once gave
        # a NaN price (t1 = 0.5) or an OverflowError (t1 = 0.95) in the
        # bivariate normal CDF.
        for mode in PricingMode:
            got = price_full(make_inputs(firm=dict(s_V=1e-160), default=dict(t1=t1)),
                             mode).price
            want = price_full(make_inputs(firm=dict(s_V=1e-20), default=dict(t1=t1)),
                              mode).price
            assert math.isfinite(got)
            assert abs(got - want) <= 1e-15


class TestLegs:
    @pytest.mark.parametrize("mode", list(PricingMode))
    def test_partition_and_sum_on_criterion_7(self, mode):
        # The legs are the Monte Carlo legs, in LEG_NAMES order, and they
        # add up to the price. survive_both and unexpected_leg2 split
        # Z e^{-lambda(V0)(t1-t)} (I21 + I22); the full-recovery draw has
        # I22 = 0 and still splits.
        rng = np.random.default_rng(7007)
        draws = [random_scenario(rng) for _ in range(200)]
        draws.append(make_inputs(default=dict(R_u=1.0, R_e=1.0)))
        for inputs in draws:
            res = price_full(inputs, mode)
            assert list(res.legs) == list(LEG_NAMES)
            assert abs(sum(res.legs.values()) - res.price) \
                <= 1e-15 * sum(abs(v) for v in res.legs.values())
            t, spec = res.terms, inputs.spec
            jump_free = res.zcb * math.exp(-spec.intensity(inputs.firm.V0)
                                           * (spec.t1 - inputs.t))
            want = jump_free * (t.i21 + t.i22)
            got = res.legs["survive_both"] + res.legs["unexpected_leg2"]
            assert abs(got - want) <= 1e-15 * want
            assert res.legs["unexpected_leg2"] >= -1e-15 * want
        assert res.terms.i22 == 0.0 and 0.0 < res.legs["unexpected_leg2"] < want

    def test_one_definition_of_the_names(self):
        assert mcoracle.LEG_NAMES is LEG_NAMES

    def test_terms_in_price_units(self, p0_inputs):
        res = price_full(p0_inputs)
        t, spec = res.terms, p0_inputs.spec
        scale = res.zcb * math.exp(-spec.intensity(p0_inputs.firm.V0) * spec.t1)
        assert list(res.legs) == list(LEG_NAMES)
        assert res.legs["unexpected_leg1"] == t.i1
        assert res.legs["expected_t1"] == t.expected_default
        assert res.legs["expected_t2"] == scale * (t.i23 + t.i24)
        # The split legs take the raw I22 tail J22, which the breakdown
        # holds only as I22 = (1 - R_u) J22; dividing back costs an ulp of
        # J22, which unexpected_leg2 = scale (I21 - R_u J22) bears against
        # the larger I21.
        j22 = t.i22 / (1.0 - spec.R_u)
        assert res.legs["survive_both"] == pytest.approx(scale * j22, rel=1e-15, abs=0.0)
        assert res.legs["unexpected_leg2"] == pytest.approx(
            scale * (t.i21 - spec.R_u * j22), rel=0.0, abs=1e-15 * scale * t.i21)

    def test_none_after_first_announcement(self):
        inputs = make_inputs(t=0.6, V1=95.0)
        for mode in PricingMode:
            assert price_bond(inputs, mode).legs is None
            assert price_batch([inputs], mode)[0].legs is None


class TestCreditSpread:
    def test_zero_for_par(self):
        inputs = make_inputs(default=dict(R_u=1.0, R_e=1.0))
        assert price_bond(inputs).spread == 0.0
        # -ln(price / Z) is -0.0 at par; the floor returns +0.0.
        assert math.copysign(1.0, price_bond(inputs).spread) == 1.0

    def test_pure_hazard_rate(self):
        inputs = make_inputs(default=dict(K1=0.0, K2=0.0, R_u=0.0, R_e=0.3),
                             intensity=IntensityFunction.constant(0.01))
        assert price_bond(inputs).spread == pytest.approx(0.01, rel=1e-10)

    def test_positive_for_benchmark(self, p0_inputs):
        assert price_bond(p0_inputs).spread > 0.0

    def test_infinite_for_zero_price(self):
        # The first barrier is breached for certain and nothing is recovered.
        inputs = make_inputs(default=dict(K1=1e7, R_u=0.0, R_e=0.0))
        for mode in PricingMode:
            assert price_bond(inputs, mode).price == 0.0
            assert price_bond(inputs, mode).spread == math.inf


class TestPriceProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=40, deadline=None)
    @given(
        ru=st.floats(0.0, 1.0),
        re=st.floats(0.0, 1.0),
        k1=st.floats(0.0, 130.0),
        k2=st.floats(0.0, 130.0),
        sv=st.floats(0.05, 0.6),
        t=st.floats(0.0, 0.45),
    )
    def test_price_between_recovery_floor_and_par(self, ru, re, k1, k2, sv, t):
        inputs = make_inputs(firm=dict(s_V=sv),
                             default=dict(R_u=ru, R_e=re, K1=k1, K2=k2), t=t)
        res = price_full(inputs, PricingMode.CORRECTED)
        assert min(ru, re) * res.zcb - 1e-12 <= res.price <= res.zcb + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(t1=st.floats(0.1, 0.98))
    def test_thin_second_interval_stays_finite(self, t1):
        inputs = make_inputs(default=dict(t1=t1))
        res = price_full(inputs, PricingMode.CORRECTED)
        assert 0.0 < res.price <= res.zcb + 1e-12


class TestPricingInputsValidation:
    def test_time_range(self, p0_rate, p0_firm, p0_spec):
        with pytest.raises(ValueError):
            PricingInputs(rate_model=p0_rate, firm=p0_firm, spec=p0_spec,
                          r=0.05, t=1.0)

    def test_maturity_consistency(self, p0_firm, p0_spec):
        from dvbond import ShortRateModel
        bad = ShortRateModel(a1=0.01, a2=0.2, s_r=0.01, maturity=2.0)
        with pytest.raises(ValueError):
            PricingInputs(rate_model=bad, firm=p0_firm, spec=p0_spec,
                          r=0.05, t=0.0)


def assert_results_match(got, want, tol=1e-12):
    assert got.mode is want.mode
    assert abs(got.price - want.price) <= tol
    assert abs(got.zcb - want.zcb) <= tol
    if want.terms is None:
        assert got.terms is None and got.legs is None
        return
    for name in want.terms._fields:
        assert abs(getattr(got.terms, name) - getattr(want.terms, name)) <= tol, name
    assert list(got.legs) == list(want.legs)
    for name, value in want.legs.items():
        assert abs(got.legs[name] - value) <= tol, name


class TestPriceBatch:
    @pytest.mark.parametrize("mode", list(PricingMode))
    def test_matches_price_bond_on_criterion_7(self, mode):
        rng = np.random.default_rng(7007)
        batch = [random_scenario(rng) for _ in range(200)]
        for got, inputs in zip(price_batch(batch, mode), batch):
            assert_results_match(got, price_bond(inputs, mode))

    def test_mixed_batch_keeps_input_order(self):
        piecewise = ShortRateModel(a1=PiecewiseConstant((0.3,), (0.01, 0.03)),
                                   a2=0.2, s_r=0.01, maturity=1.0)
        p0 = make_inputs()
        batch = [
            make_inputs(t=0.6, V1=95.0),
            make_inputs(intensity=IntensityFunction.custom(
                lambda v: np.full(np.shape(v), 0.02))),
            make_inputs(default=dict(K1=0.0)),
            make_inputs(r=0.02),
            make_inputs(default=dict(K2=0.0)),
            dataclasses.replace(p0, rate_model=piecewise),
            make_inputs(default=dict(K1=1e7)),
            make_inputs(default=dict(K1=1e7, R_u=0.0, R_e=0.0)),
            make_inputs(t=0.7, V1=60.0, r=0.03),
            make_inputs(intensity=IntensityFunction.constant(0.05)),
            p0,
            make_inputs(r=0.02),
        ]
        for mode in PricingMode:
            got = price_batch(batch, mode)
            assert len(got) == len(batch)
            for res, inputs in zip(got, batch):
                assert_results_match(res, price_bond(inputs, mode))
            assert got[0].terms is None and got[8].terms is None
            assert got[7].price == 0.0

    def test_empty_batch(self):
        assert price_batch([]) == []

    def test_shared_term_set(self, monkeypatch):
        # Points that differ only in r share one term set and one rate
        # model: one quadrature pass, one bivariate CDF, one Z call.
        calls = {"quad": 0, "bvn": 0, "zcb": 0}

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(pricer, "integrate_left_tail",
                            counting("quad", pricer.integrate_left_tail))
        monkeypatch.setattr(mathkit, "bvn_cdf", counting("bvn", mathkit.bvn_cdf))
        monkeypatch.setattr(pricer, "zcb_price", counting("zcb", pricer.zcb_price))
        batch = [make_inputs(r=r) for r in np.linspace(-0.01, 0.08, 50)]
        got = price_batch(batch)
        assert calls == {"quad": 1, "bvn": 1, "zcb": 1}
        assert len({res.terms.i22 for res in got}) == 1

    def test_distinct_term_sets(self, monkeypatch):
        # Points along V0 have a term set each: scalar terms per set,
        # one bivariate CDF each, and one quadrature pass for all tails.
        calls = {"quad": 0, "bvn": 0}

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapped

        batch = [make_inputs(firm=dict(V0=v)) for v in np.linspace(60.0, 200.0, 40)]
        want = [price_full(inputs) for inputs in batch]
        monkeypatch.setattr(pricer, "integrate_left_tail",
                            counting("quad", pricer.integrate_left_tail))
        monkeypatch.setattr(mathkit, "bvn_cdf", counting("bvn", mathkit.bvn_cdf))
        got = price_batch(batch)
        assert calls == {"quad": 1, "bvn": len(batch)}
        for res, expected in zip(got, want):
            assert_results_match(res, expected)

    def test_custom_intensities_keep_their_callables(self):
        # Specs that differ only in their callable have a term set each.
        batch = [make_inputs(intensity=IntensityFunction.custom(
                     lambda v, c=c: c * np.log1p(1.0 / np.asarray(v))))
                 for c in (1.0, 50.0, 1.0)]
        for mode in PricingMode:
            got = price_batch(batch, mode)
            for res, inputs in zip(got, batch):
                assert_results_match(res, price_bond(inputs, mode))
            assert got[1].price < got[0].price - 1e-3
            assert got[2].price == pytest.approx(got[0].price, abs=1e-15)

    def test_starved_batch_computes_its_term_sets_once(self, monkeypatch):
        calls = []
        real = pricer._term_sets
        monkeypatch.setattr(pricer, "_term_sets",
                            lambda *args: calls.append(1) or real(*args))
        starved = QuadratureSpec(abs_tol=1e-15, max_nodes=32)
        batch = [make_inputs(intensity=IntensityFunction.constant(0.1)),
                 make_inputs()]
        with pytest.raises(QuadratureConvergenceError):
            price_batch(batch, quad=starved)
        assert len(calls) == 1

    def test_post_announcement_points_share_one_discount_bond_call(self, monkeypatch):
        calls = []
        real = pricer.zcb_price
        monkeypatch.setattr(pricer, "zcb_price",
                            lambda *args: calls.append(1) or real(*args))
        batch = [make_inputs(t=0.7, V1=95.0, r=r) for r in np.linspace(-0.01, 0.08, 50)]
        got = price_batch(batch)
        assert len(calls) == 1
        monkeypatch.undo()
        for res, inputs in zip(got, batch):
            assert_results_match(res, price_bond(inputs))

    @pytest.mark.parametrize("rates, index", [
        ((1e5, 0.05), 2),  # one call on arrays fails at its second point
        ((0.05,), 1),  # a group of one takes the float path
    ])
    def test_discount_bond_failure_names_its_point(self, rates, index):
        # s_r = 100 overflows exp(A - B r) at r = 0.05 but not at r = 1e5.
        wild = ShortRateModel(a1=0.01, a2=0.2, s_r=100.0, maturity=1.0)
        batch = [make_inputs()] + [
            dataclasses.replace(make_inputs(r=r), rate_model=wild) for r in rates]
        with pytest.raises(ValueError) as err:
            price_batch(batch + [make_inputs()])
        assert err.value.batch_index == index
        with pytest.raises(ValueError) as scalar:
            price_bond(batch[index])
        assert str(err.value) == str(scalar.value)

    def test_quadrature_failure_is_the_scalar_error(self):
        starved = QuadratureSpec(abs_tol=1e-15, max_nodes=32)
        batch = [make_inputs(intensity=IntensityFunction.constant(0.1)),
                 make_inputs()]
        with pytest.raises(QuadratureConvergenceError) as err:
            price_batch(batch, quad=starved)
        assert err.value.batch_index == 1
        assert set(err.value.partial_terms) == {"i1", "expected_default", "zcb"}
        with pytest.raises(QuadratureConvergenceError) as scalar:
            price_bond(batch[1], quad=starved)
        assert err.value.partial_terms == scalar.value.partial_terms


class TestPriceResultView:
    """A result holds its valuation's numbers and a shared term set;
    ``terms`` and ``legs`` are built from them when read."""

    def test_fields_cannot_be_assigned(self, p0_inputs):
        res = price_bond(p0_inputs)
        for name, value in (("price", 1.0), ("terms", None), ("legs", None)):
            with pytest.raises(AttributeError):
                setattr(res, name, value)
        assert res.terms is not None and res.legs is not None

    def test_terms_and_legs_read_twice_are_equal(self, p0_inputs):
        for mode in PricingMode:
            for res in (price_bond(p0_inputs, mode), price_batch([p0_inputs], mode)[0]):
                assert res.terms == res.terms and res.legs == res.legs
                assert res.legs is not res.legs  # a fresh dict each read

    def test_equal_records_share_one_term_set(self, monkeypatch):
        # Distinct but equal firm and spec objects, and points that share
        # the same objects, all key the one term set of P0: one tail pass.
        calls = []
        real = pricer.integrate_left_tail
        monkeypatch.setattr(pricer, "integrate_left_tail",
                            lambda *args: calls.append(args[1]) or real(*args))
        p0 = make_inputs()
        batch = [make_inputs(r=0.01), p0, dataclasses.replace(p0, r=0.03), make_inputs()]
        assert batch[0].firm is not p0.firm and batch[0].spec is not p0.spec
        got = price_batch(batch)
        assert len(calls) == 1 and isinstance(calls[0], float)  # one bound
        assert len({res.terms.i22 for res in got}) == 1
        monkeypatch.undo()
        for res, inputs in zip(got, batch):
            assert_results_match(res, price_bond(inputs), tol=0.0)

    def test_unread_results_build_no_breakdown(self, monkeypatch):
        built = []

        class Counting(pricer.TermBreakdown):
            def __new__(cls, *args):
                built.append(1)
                return super().__new__(cls, *args)

        monkeypatch.setattr(pricer, "TermBreakdown", Counting)
        got = price_batch([make_inputs(firm=dict(V0=v)) for v in (80.0, 100.0, 120.0)])
        assert [res.price for res in got] and built == []
        assert got[1].terms.i1 > 0.0 and len(built) == 1
