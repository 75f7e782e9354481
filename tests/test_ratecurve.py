import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from dvbond.ratecurve import (
    PiecewiseConstant,
    ShortRateModel,
    _segment_moments,
    _segment_moments1,
    coeff_A,
    coeff_B,
    zcb_price,
)

VASICEK = ShortRateModel(a1=0.01, a2=0.2, s_r=0.01, maturity=1.0)

PIECEWISE = ShortRateModel(
    a1=PiecewiseConstant((0.5,), (0.01, 0.02)),
    a2=PiecewiseConstant((0.3, 0.7), (0.2, 0.3, 0.25)),
    s_r=PiecewiseConstant((0.6,), (0.01, 0.015)),
    maturity=1.0,
)

LITERAL_PIECEWISE = ShortRateModel(
    a1=PIECEWISE.a1, a2=PIECEWISE.a2, s_r=PIECEWISE.s_r, maturity=1.0,
    paper_literal_a=True,
)


def pde_residual(model, r, t, h=1e-4):
    """Relative residual of the discount-bond equation by central differences."""
    zt = (zcb_price(model, r, t + h) - zcb_price(model, r, t - h)) / (2 * h)
    zr = (zcb_price(model, r + h, t) - zcb_price(model, r - h, t)) / (2 * h)
    zrr = (zcb_price(model, r + h, t) - 2 * zcb_price(model, r, t)
           + zcb_price(model, r - h, t)) / h**2
    a1v, a2v, sv = model.a1(t), model.a2(t), model.s_r(t)
    terms = (zt, 0.5 * sv**2 * zrr, (a1v - a2v * r) * zr,
             -r * zcb_price(model, r, t))
    return abs(sum(terms)) / sum(abs(x) for x in terms)


class TestPiecewiseConstant:
    def test_lookup_is_right_continuous(self):
        f = PiecewiseConstant((0.5, 0.8), (1.0, 2.0, 3.0))
        assert f(0.0) == 1.0
        assert f(0.5) == 2.0
        assert f(0.79) == 2.0
        assert f(0.8) == 3.0
        np.testing.assert_array_equal(f(np.array([0.0, 0.5, 0.9])),
                                      [1.0, 2.0, 3.0])

    def test_nan_time_rejected(self):
        # A NaN time once mapped to the last value, on both paths.
        f = PiecewiseConstant((0.5,), (1.0, 2.0))
        for t in (math.nan, np.array([0.2, math.nan])):
            with pytest.raises(ValueError, match="time"):
                f(t)

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstant((0.5, 0.5), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            PiecewiseConstant((0.5,), (1.0,))


class TestShortRateModel:
    def test_rejects_nonpositive_reversion(self):
        with pytest.raises(ValueError):
            ShortRateModel(a1=0.01, a2=0.0, s_r=0.01, maturity=1.0)
        with pytest.raises(ValueError):
            ShortRateModel(a1=0.01, a2=PiecewiseConstant((0.5,), (0.2, -0.1)),
                           s_r=0.01, maturity=1.0)

    def test_rejects_subnormal_reversion(self):
        # ramp = -expm1(-a2 h) / a2 has no precision left below it.
        for a2 in (5e-324, 2e-308):
            with pytest.raises(ValueError, match=r"^a2\(t\) = .* smallest normal"):
                ShortRateModel(a1=0.01, a2=a2, s_r=0.01, maturity=1.0)
        ShortRateModel(a1=0.01, a2=2.3e-308, s_r=0.01, maturity=1.0)

    def test_rejects_negative_volatility(self):
        with pytest.raises(ValueError):
            ShortRateModel(a1=0.01, a2=0.2, s_r=-0.01, maturity=1.0)

    def test_rejects_breakpoints_outside_horizon(self):
        with pytest.raises(ValueError):
            ShortRateModel(a1=PiecewiseConstant((1.5,), (0.01, 0.02)),
                           a2=0.2, s_r=0.01, maturity=1.0)


class TestCoeffB:
    def test_zero_at_maturity(self):
        assert coeff_B(VASICEK, 1.0) == 0.0

    def test_vasicek_closed_form(self):
        want = (1.0 - math.exp(-0.2)) / 0.2
        assert coeff_B(VASICEK, 0.0) == pytest.approx(want, abs=1e-14)

    def test_against_backward_ode(self):
        # Independent oracle: B' = a2 B - 1 integrated backward from 0.
        sol = solve_ivp(lambda t, y: 0.2 * y - 1.0, (1.0, 0.0), [0.0],
                        rtol=1e-12, atol=1e-14, dense_output=True)
        for t in (0.0, 0.25, 0.6, 0.95):
            assert coeff_B(VASICEK, t) == pytest.approx(float(sol.sol(t)[0]),
                                                        abs=1e-10)

    def test_small_reversion_limit(self):
        tiny = ShortRateModel(a1=0.0, a2=1e-12, s_r=0.0, maturity=1.0)
        assert coeff_B(tiny, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_piecewise_against_backward_ode(self):
        def rhs(t, y):
            return PIECEWISE.a2(t) * y - 1.0
        sol = solve_ivp(rhs, (1.0, 0.0), [0.0], rtol=1e-12, atol=1e-14,
                        dense_output=True, max_step=0.01)
        for t in (0.0, 0.31, 0.55, 0.85):
            assert coeff_B(PIECEWISE, t) == pytest.approx(float(sol.sol(t)[0]),
                                                          abs=1e-10)

    def test_domain(self):
        for t in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                coeff_B(VASICEK, t)
            with pytest.raises(ValueError):
                zcb_price(VASICEK, 0.05, t)

    def test_vectorized_matches_scalar(self):
        ts = np.linspace(0.0, 1.0, 9)
        np.testing.assert_allclose(coeff_B(VASICEK, ts),
                                   [coeff_B(VASICEK, t) for t in ts],
                                   rtol=0, atol=1e-15)


class TestCoeffA:
    def test_zero_at_maturity(self):
        assert coeff_A(VASICEK, 1.0) == 0.0

    def test_zero_integrand(self):
        flat = ShortRateModel(a1=0.0, a2=0.2, s_r=0.0, maturity=1.0)
        for t in (0.0, 0.4, 1.0):
            assert coeff_A(flat, t) == pytest.approx(0.0, abs=1e-16)

    def test_against_adaptive_quadrature(self):
        def integrand(u):
            b = coeff_B(VASICEK, u)
            return 0.01 * b - 0.5 * 0.01**2 * b * b
        for t in (0.0, 0.3, 0.8):
            ref, _ = quad(integrand, t, 1.0, epsabs=1e-14, epsrel=1e-14)
            assert coeff_A(VASICEK, t) == pytest.approx(-ref, abs=1e-10)

    def test_piecewise_against_adaptive_quadrature(self):
        def integrand(u):
            b = coeff_B(PIECEWISE, u)
            return PIECEWISE.a1(u) * b - 0.5 * PIECEWISE.s_r(u)**2 * b * b
        edges = [0.1, 0.3, 0.5, 0.6, 0.7, 1.0]
        ref = sum(quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-14)[0]
                  for lo, hi in zip(edges, edges[1:]))
        assert coeff_A(PIECEWISE, 0.1) == pytest.approx(-ref, abs=1e-12)

    def test_literal_variant_differs(self):
        literal = ShortRateModel(a1=0.01, a2=0.2, s_r=0.01, maturity=1.0,
                                 paper_literal_a=True)
        assert coeff_A(literal, 0.0) != pytest.approx(coeff_A(VASICEK, 0.0),
                                                      abs=1e-6)

    def test_vectorized_matches_scalar(self):
        ts = np.linspace(0.0, 1.0, 9)
        for model in (VASICEK, PIECEWISE):
            np.testing.assert_allclose(coeff_A(model, ts),
                                       [coeff_A(model, t) for t in ts],
                                       rtol=0, atol=1e-14)

    def test_piecewise_closed_form_against_quadrature(self):
        # Both A conventions on a model with breaks in all three
        # coefficients, at and between the segment edges.
        for model in (PIECEWISE, LITERAL_PIECEWISE):
            level = model.a2 if model.paper_literal_a else model.a1

            def integrand(u):
                b = coeff_B(model, u)
                return level(u) * b - 0.5 * model.s_r(u) ** 2 * b * b

            for t in (0.0, 0.1, 0.3, 0.45, 0.5, 0.6, 0.65, 0.7, 0.9, 1.0):
                edges = [t] + [e for e in (0.3, 0.5, 0.6, 0.7, 1.0) if e > t]
                ref = sum(quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-14)[0]
                          for lo, hi in zip(edges, edges[1:]))
                assert abs(coeff_A(model, t) + ref) <= 1e-13


class TestZcbPrice:
    def test_par_at_maturity(self):
        for r in (-0.05, 0.0, 0.08):
            assert zcb_price(VASICEK, r, 1.0) == 1.0

    def test_flat_zero_rate(self):
        flat = ShortRateModel(a1=0.0, a2=0.2, s_r=0.0, maturity=1.0)
        for t in (0.0, 0.5, 1.0):
            assert zcb_price(flat, 0.0, t) == 1.0

    def test_decreasing_in_rate(self):
        h = 1e-6
        for t in (0.0, 0.5, 0.9):
            assert zcb_price(VASICEK, 0.05 + h, t) < zcb_price(VASICEK, 0.05 - h, t)

    def test_pde_residual_small(self):
        worst = max(pde_residual(VASICEK, r, t)
                    for r in np.linspace(-0.02, 0.15, 8)
                    for t in np.linspace(1e-3, 1 - 1e-3, 8))
        assert worst < 1e-6

    def test_pde_residual_piecewise(self):
        worst = max(pde_residual(PIECEWISE, r, t)
                    for r in (0.0, 0.05, 0.1)
                    for t in (0.1, 0.45, 0.62, 0.9))
        assert worst < 1e-6

    def test_literal_variant_fails_the_pde(self):
        literal = ShortRateModel(a1=0.01, a2=0.2, s_r=0.01, maturity=1.0,
                                 paper_literal_a=True)
        worst = max(pde_residual(literal, 0.05, t) for t in (0.2, 0.5, 0.8))
        assert worst > 1e-6

    def test_discount_factor_monte_carlo(self):
        # Euler discounting oracle, independent of the affine machinery.
        rng = np.random.default_rng(777)
        n, steps = 200_000, 64
        h = 1.0 / steps
        r = np.full(n, 0.05)
        integral = np.zeros(n)
        for _ in range(steps):
            r_next = r + (0.01 - 0.2 * r) * h \
                + 0.01 * math.sqrt(h) * rng.standard_normal(n)
            integral += 0.5 * (r + r_next) * h
            r = r_next
        disc = np.exp(-integral)
        se = disc.std(ddof=1) / math.sqrt(n)
        assert zcb_price(VASICEK, 0.05, 0.0) == pytest.approx(
            float(disc.mean()), abs=3 * se)

    def test_scalar_path_matches_array_path(self):
        # a2 = 1e-9 and 2e-4 keep a2*tau below the series switch (1e-2),
        # a2 = 0.02 runs a2*tau through it, and the piecewise models
        # cross their breaks.
        series = ShortRateModel(a1=0.02, a2=1e-9, s_r=0.01, maturity=1.0)
        switch = ShortRateModel(a1=0.02, a2=2e-4, s_r=0.01, maturity=1.0)
        crossing = ShortRateModel(a1=0.02, a2=0.02, s_r=0.01, maturity=1.0)
        edges = np.array([0.3, 0.5, 0.6, 0.7])
        ts = np.concatenate([np.linspace(0.0, 1.0, 101), edges,
                             edges - 1e-12, edges + 1e-12, [1.0 - 1e-9]])
        for model in (series, switch, crossing, PIECEWISE, LITERAL_PIECEWISE):
            for r in (-0.02, 0.05):
                z_arr = zcb_price(model, np.full_like(ts, r), ts)
                z_one = np.array([zcb_price(model, r, float(t)) for t in ts])
                np.testing.assert_allclose(z_one, z_arr, rtol=1e-15, atol=0)

    @staticmethod
    def mp_zcb(mpmath, segments, r):
        """Z at the left end of ``segments``, (length, a1, a2, s_r) from
        the left, by the A and B recursion of the backward ODE at 40
        digits."""
        with mpmath.workdps(40):
            a_end = b_end = mpmath.mpf(0)
            for segment in reversed(segments):
                tau, level, a2, s_r = (mpmath.mpf(v) for v in segment)

                def ramp(k):
                    return -mpmath.expm1(-k * a2 * tau) / (k * a2)
                r1, s2 = ramp(1), s_r * s_r
                a_const = ((r1 - tau) * (level / a2 - s2 / (2 * a2 * a2))
                           - s2 * r1 * r1 / (4 * a2))
                a_end, b_end = (
                    a_end + a_const - level * b_end * r1
                    + s2 / 2 * (b_end * b_end * ramp(2) + b_end * r1 * r1),
                    b_end * mpmath.exp(-a2 * tau) + r1)
            return float(mpmath.exp(a_end - b_end * mpmath.mpf(r)))

    def test_small_reversion_matches_mpmath(self):
        # a2*tau ~ 1e-4 over long maturities: a Taylor switch near there
        # can cost ~2e-8 relative in Z.
        mpmath = pytest.importorskip("mpmath")
        one = ShortRateModel(a1=0.001, a2=5e-6, s_r=0.02, maturity=25.0)
        two = ShortRateModel(a1=0.001, a2=PiecewiseConstant((15.0,), (3e-6, 5e-6)),
                             s_r=0.02, maturity=30.0)
        for model, segments in (
                (one, [(25.0, 0.001, 5e-6, 0.02)]),
                (two, [(15.0, 0.001, 3e-6, 0.02), (15.0, 0.001, 5e-6, 0.02)])):
            exact = self.mp_zcb(mpmath, segments, 0.03)
            assert zcb_price(model, 0.03, 0.0) == pytest.approx(exact, rel=1e-13, abs=0)
            z_arr = zcb_price(model, np.array([0.03]), np.array([0.0]))
            assert z_arr[0] == pytest.approx(exact, rel=1e-13, abs=0)

    def test_moments_where_the_reversion_underflows(self):
        # a2 h underflows to 0 for h > 0: the series serves, as in the
        # scalar twin, and the closed forms it replaces warn of nothing.
        h = np.array([1e-30, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _segment_moments(0.01, 1e-300, 0.01, h)
        assert [v[0] for v in got] == list(_segment_moments1(0.01, 1e-300, 0.01, 1e-30))
        np.testing.assert_allclose(got[2], h * h / 2, rtol=1e-15)
        np.testing.assert_allclose(got[5], 0.01**2 * h**3 / 3, rtol=1e-15)

    def test_overflowing_exponent_names_s_r(self):
        # s_r = 100 makes A(0) ~ 1438: exp would overflow to inf.
        wild = ShortRateModel(a1=0.01, a2=0.2, s_r=100.0, maturity=1.0)
        for r, t in ((0.05, 0.0), (np.array([0.05, 0.05]), np.array([1.0, 0.0]))):
            with pytest.raises(ValueError, match=r"exponent A - B\*r = 1438.*s_r"):
                zcb_price(wild, r, t)
        # Still finite one step below the limit; par at maturity.
        assert zcb_price(wild, 0.05, 1.0) == 1.0
        assert np.all(np.isfinite(zcb_price(wild, np.array([0.05]), 0.9)))

    def test_array_error_carries_first_index(self):
        # t = 1 is par; from the second element on the exponent overflows.
        wild = ShortRateModel(a1=0.01, a2=0.2, s_r=100.0, maturity=1.0)
        with pytest.raises(ValueError) as err:
            zcb_price(wild, np.full(3, 0.05), np.array([1.0, 0.0, 0.5]))
        assert err.value.index == 1
        with pytest.raises(ValueError) as scalar:
            zcb_price(wild, 0.05, 0.0)
        assert str(err.value) == str(scalar.value)
        assert not hasattr(scalar.value, "index")
        with pytest.raises(ValueError, match=r"= nan at r = nan") as err:
            zcb_price(VASICEK, np.array([0.05, 0.01, math.nan, math.nan]), 0.5)
        assert err.value.index == 2
        # A 2-D call gives the flat position; a time outside [0, T] is
        # named as the scalar call names it.
        with pytest.raises(ValueError) as err:
            zcb_price(VASICEK, 0.05, np.array([[0.5, 0.2], [3.0, -1.0]]))
        assert err.value.index == 2
        with pytest.raises(ValueError) as scalar:
            zcb_price(VASICEK, 0.05, 3.0)
        assert str(err.value) == str(scalar.value)

    def test_nan_exponent_rejected(self):
        with pytest.raises(ValueError, match="exponent A - B\\*r = nan"):
            zcb_price(VASICEK, np.array([0.05, math.nan]), 0.5)
        with pytest.raises(ValueError, match="exponent A - B\\*r = nan"):
            zcb_price(VASICEK, math.nan, 0.5)

