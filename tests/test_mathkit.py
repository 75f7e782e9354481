import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr

from dvbond import mathkit, pricer
from dvbond.defaultmodel import DefaultSpec, FirmModel, IntensityFunction
from dvbond.mathkit import (
    DEFAULT_QUADRATURE,
    GAUSSIAN_TAIL_CUTOFF,
    QuadFormMatrix,
    QuadratureConvergenceError,
    QuadratureSpec,
    TailNodes,
    bivariate_cdf_bruteforce,
    bivariate_cdf_quadform,
    bvn_cdf,
    integrate_left_tail,
    normal_cdf,
)

UNIT_PLUS = QuadFormMatrix(m11=2.0, m12=1.0, m22=1.0)    # t1=0.5, t2=1
UNIT_MINUS = QuadFormMatrix(m11=2.0, m12=-1.0, m22=1.0)


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    def test_limits(self):
        assert normal_cdf(math.inf) == 1.0
        assert normal_cdf(-math.inf) == 0.0

    def test_known_value(self):
        # mpmath.ncdf(mpf('1.96')) = 0.975002104851779...
        assert normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-16)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            normal_cdf(math.nan)

    def test_against_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for a in np.linspace(-8.0, 8.0, 81):
            assert abs(normal_cdf(a) - float(mpmath.ncdf(a))) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-30, 30), st.floats(-30, 30))
    def test_monotone_and_complement(self, a, b):
        lo, hi = sorted((a, b))
        assert normal_cdf(lo) <= normal_cdf(hi)
        assert normal_cdf(a) + normal_cdf(-a) == pytest.approx(1.0, abs=1e-15)


class TestNormalCdfArray:
    """``mathkit._ndtr``, the numpy normal CDF of the pricer's tail kernel."""

    SPECIAL = (8.3, 26.5, 37.5, 38.5)

    def test_against_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        z = np.concatenate([np.linspace(-40.0, 40.0, 8001),
                            np.linspace(-3.0, 3.0, 6001),
                            np.array(self.SPECIAL), -np.array(self.SPECIAL)])
        want = np.array([float(mpmath.ncdf(mpmath.mpf(float(v)))) for v in z])
        assert np.max(np.abs(mathkit._ndtr(z) - want)) <= 2.5e-16

    def test_exact_limits_and_no_subnormal(self):
        z = np.array([-np.inf, -38.5, -37.5, 37.5, 38.5, np.inf])
        assert mathkit._ndtr(z).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        got = mathkit._ndtr(np.linspace(-40.0, 0.0, 40001))
        assert np.all((got == 0.0) | (got >= np.finfo(float).tiny))

    def test_shapes_kept(self):
        z = np.linspace(-9.0, 9.0, 256 * 15)
        flat = mathkit._ndtr(z)
        assert flat.shape == z.shape
        nodes = mathkit._ndtr(z.reshape(256, 15))
        assert nodes.shape == (256, 15)
        assert np.array_equal(nodes.ravel(), flat)

    def test_no_runtime_warning(self):
        z = np.array([-np.inf, -1e308, -40.0, -37.5, -5e-324, 0.0, 5e-324, 37.5,
                      1e308, np.inf])
        # Underflow is left at numpy's default, ignored: powers of a tiny
        # |z| underflow to 0, where they add nothing to P or Q.
        with warnings.catch_warnings(), np.errstate(over="raise", divide="raise",
                                                    invalid="raise"):
            warnings.simplefilter("error")
            got = mathkit._ndtr(z)
        assert got[5] == 0.5 and np.all(np.diff(got) >= 0.0)

    def test_tail_kernel_matches_scipy(self, monkeypatch):
        # The I22/I24 rows with N from scipy.special.ndtr, the kernel's
        # earlier normal CDF, on P0 and the corners of the criterion-7
        # box, in both orientations.
        x = np.linspace(-GAUSSIAN_TAIL_CUTOFF, GAUSSIAN_TAIL_CUTOFF, 721)
        intensity = IntensityFunction.log_reciprocal()
        box = itertools.product((0.5, 3.0), (0.25, 0.75), (50.0, 200.0), (0.0, 0.1),
                                (0.0, 0.06), (0.1, 0.5), (0.4, 0.95), (0.8, 1.25))
        cases = [(1.0, 0.5, 100.0, 0.07, 0.05, 0.2, 0.7, 80.0 / 70.0)] + list(box)
        args = []
        for t2, t1_share, V0, mu, b, s_V, k1_share, k2_share in cases:
            firm = FirmModel(V0=V0, mu=mu, b=b, s_V=s_V)
            K1 = V0 * k1_share
            spec = DefaultSpec(t1=t2 * t1_share, t2=t2, K1=K1, K2=K1 * k2_share,
                               R_u=0.4, R_e=0.3, intensity=intensity)
            alpha2 = pricer.compute_alphas(firm, spec).alpha2
            delta, log_v1 = spec.t2 - spec.t1, math.log(V0) + firm.log_drift * spec.t1
            for sign in (-1.0, 1.0):
                args.append((alpha2, delta, log_v1, sign * s_V * math.sqrt(spec.t1),
                             sign * math.sqrt(spec.t1 / delta)))
        got = [pricer._tail_rows(x, intensity, *a) for a in args]
        monkeypatch.setattr(mathkit, "_ndtr", ndtr)
        for rows, a in zip(got, args):
            assert np.max(np.abs(rows - pricer._tail_rows(x, intensity, *a))) <= 1e-15


class TestIntegrateLeftTail:
    def test_constant_to_zero(self):
        got = integrate_left_tail(lambda x: np.ones_like(x), 0.0)
        assert got == pytest.approx(0.5, abs=1e-13)

    def test_phi_times_cdf_antiderivative(self):
        # d/dx [N(x)^2 / 2] = phi(x) N(x), so the integral to 0 is
        # N(0)^2 / 2 = 1/8.
        got = integrate_left_tail(lambda x: ndtr(x), 0.0)
        assert got == pytest.approx(0.125, abs=1e-12)

    def test_total_mass_with_truncation(self):
        got = integrate_left_tail(lambda x: np.ones_like(x), math.inf)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_deep_left_tail_is_zero(self):
        for upper in (-GAUSSIAN_TAIL_CUTOFF, -13.0, -math.inf):
            got = integrate_left_tail(lambda x: np.ones_like(x), upper)
            assert got == 0.0 and math.copysign(1.0, got) == 1.0

    def test_truncation_loss_negligible_for_bounded_integrands(self):
        # Mass beyond the cutoff bounds the truncation error for |f| <= 1.
        assert normal_cdf(-GAUSSIAN_TAIL_CUTOFF) < 1e-30

    def test_matches_scipy_on_smooth_kernel(self):
        f = lambda x: np.exp(-0.3 * np.log1p(np.exp(x)))
        ref, _ = quad(lambda x: f(x) * math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
                      -14, 1.3, epsabs=1e-13, epsrel=1e-13)
        assert integrate_left_tail(f, 1.3) == pytest.approx(ref, abs=1e-11)

    def test_deterministic(self):
        f = lambda x: ndtr(1.0 - 0.7 * x)
        assert integrate_left_tail(f, 2.0) == integrate_left_tail(f, 2.0)

    def test_budget_overflow_carries_estimate(self):
        spec = QuadratureSpec(abs_tol=5e-324, max_nodes=64)
        with pytest.raises(QuadratureConvergenceError) as err:
            integrate_left_tail(lambda x: np.ones_like(x), 0.0, spec)
        assert err.value.estimate == pytest.approx(0.5, abs=1e-6)
        assert err.value.error_bound >= 0.0
        assert err.value.failed.tolist() == [True]

    def test_rows_match_separate_calls(self):
        # Only the kinked row needs bisection; the shared panels must
        # leave both rows where their own adaptive passes put them.
        smooth = lambda x: ndtr(1.0 - 0.7 * x)
        kinked = lambda x: np.abs(x - 0.37)
        nodes = []

        def counted(f):
            def g(x):
                nodes.append(x.size)
                return f(x)
            return g

        separate = []
        for f in (smooth, kinked):
            nodes.clear()
            separate.append(integrate_left_tail(counted(f), 1.3))
            separate.append(sum(nodes))
        first_pass = 15 * math.ceil(1.3 + GAUSSIAN_TAIL_CUTOFF)
        assert separate[1] == first_pass < separate[3]

        joint = integrate_left_tail(lambda x: np.array([smooth(x), kinked(x)]), 1.3)
        assert isinstance(joint, np.ndarray) and joint.shape == (2,)
        assert abs(joint[0] - separate[0]) <= 1e-13
        assert abs(joint[1] - separate[2]) <= 1e-13

    def test_tolerance_follows_panel_count(self):
        # |sin 3x| has kinks at k pi / 3, so bisection takes the panel
        # count far past its first pass of 14. A round runs while the
        # summed error estimate exceeds abs_tol, and bisects the panels
        # over abs_tol / (the count after the last round); the first-pass
        # count would stop at 3,090 nodes, and a rule that holds every
        # panel within abs_tol / n whatever the sum would take 3,630.
        mpmath = pytest.importorskip("mpmath")
        nodes = []

        def counted(x):
            nodes.append(x.size)
            return np.abs(np.sin(3.0 * x))

        got = integrate_left_tail(counted, 1.3)
        assert sum(nodes) == 3300
        mpmath.mp.dps = 40
        kinks = [k * mpmath.pi / 3 for k in range(-12, 2)]
        want = mpmath.quad(lambda x: abs(mpmath.sin(3 * x)) * mpmath.npdf(x),
                           [-mpmath.inf, *kinks, mpmath.mpf(1.3)])
        assert abs(got - float(want)) <= DEFAULT_QUADRATURE.abs_tol

    def test_row_within_its_summed_budget_takes_the_first_pass(self):
        # Two of the 15 first-pass panels exceed abs_tol / 15 on their
        # own, but the 15 error estimates sum to 4.4e-13, within abs_tol,
        # so no panel is bisected. The integral is P(X <= 3, Y - 1.4 X <= 1)
        # for independent standard normals X and Y.
        nodes = []

        def counted(x):
            nodes.append(x.size)
            return mathkit._ndtr(1.0 + 1.4 * x)

        got = integrate_left_tail(counted, 3.0)
        assert nodes == [225]
        sd = math.sqrt(1.0 + 1.4 ** 2)
        assert abs(got - bvn_cdf(3.0, 1.0 / sd, -1.4 / sd)) <= 1e-15

    def test_rows_over_empty_range_are_zeros(self):
        got = integrate_left_tail(lambda x: np.array([x, 2.0 * x, x * x]),
                                  -GAUSSIAN_TAIL_CUTOFF - 1.0)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [0.0, 0.0, 0.0]

    def test_budget_overflow_carries_estimate_per_row(self):
        spec = QuadratureSpec(abs_tol=5e-324, max_nodes=64)
        with pytest.raises(QuadratureConvergenceError) as err:
            integrate_left_tail(lambda x: np.array([np.ones_like(x), 2.0 * x]),
                                0.0, spec)
        assert err.value.estimate.shape == (2,)
        assert err.value.estimate[0] == pytest.approx(0.5, abs=1e-6)
        # int_{-inf}^0 2 x phi(x) dx = -2 phi(0)
        assert err.value.estimate[1] == pytest.approx(
            -2.0 / math.sqrt(2.0 * math.pi), abs=1e-6)
        assert err.value.error_bound.shape == (2,)
        assert (err.value.error_bound >= 0.0).all()

    # Bounds below the cutoff (no panels), a kink that forces bisection,
    # finite bounds and +inf; the kernel's slope varies with the bound.
    MANY_UPPER = (-GAUSSIAN_TAIL_CUTOFF - 1.0, 0.37, 1.3, -2.2, math.inf)
    SLOPES = (0.5, 1.0, -0.7, 2.0, 0.3)

    @staticmethod
    def kink_rows(x, slope):
        return np.array([ndtr(1.0 - slope * x), np.abs(x - 0.37)])

    def test_many_bounds_match_separate_calls(self):
        # Each bound keeps the panels of its own call; only the order
        # of summation over ~30 panels differs (30 ulps of the sum).
        slopes = np.array(self.SLOPES)
        seen = []

        def kernel(nodes):
            assert isinstance(nodes, TailNodes) and nodes.x.shape[1] == 15
            seen.append(nodes.x.size)
            return self.kink_rows(nodes.x, slopes[nodes.owner])

        joint = integrate_left_tail(kernel, np.array(self.MANY_UPPER))
        assert joint.shape == (2, len(self.MANY_UPPER))
        separate_nodes = []
        for j, (upper, slope) in enumerate(zip(self.MANY_UPPER, self.SLOPES)):
            def one(x, slope=slope):
                separate_nodes.append(x.size)
                return self.kink_rows(x, slope)
            want = integrate_left_tail(one, upper)
            assert np.abs(joint[:, j] - want).max() <= 1e-14
        assert joint[:, 0].tolist() == [0.0, 0.0]
        assert sum(seen) == sum(separate_nodes)

    def test_many_bounds_of_one_row(self):
        uppers = np.array([0.0, math.inf, -GAUSSIAN_TAIL_CUTOFF])
        got = integrate_left_tail(lambda nodes: np.ones_like(nodes.x), uppers)
        assert got.shape == (3,)
        assert got == pytest.approx([0.5, 1.0, 0.0], abs=1e-12)

    def test_many_bounds_budget_marks_failed(self):
        # The kinked row of the second bound needs more than 600 nodes;
        # the others converge in their first pass, and keep its value.
        uppers = np.array([-2.0, 1.3, -3.0])
        spec = QuadratureSpec(max_nodes=600)

        def kernel(nodes):
            kink = np.where(nodes.owner == 1, np.abs(nodes.x - 0.37), 0.0)
            return np.array([ndtr(nodes.x), kink])

        with pytest.raises(QuadratureConvergenceError) as err:
            integrate_left_tail(kernel, uppers, spec)
        assert err.value.failed.tolist() == [False, True, False]
        assert err.value.estimate.shape == err.value.error_bound.shape == (2, 3)
        for j in (0, 2):
            want = ndtr(uppers[j]) ** 2 / 2.0
            assert err.value.estimate[0, j] == pytest.approx(want, abs=1e-12)
        with pytest.raises(QuadratureConvergenceError):
            integrate_left_tail(lambda x: np.abs(x - 0.37), 1.3, spec)

    def test_many_bounds_budget_spares_converged_bounds(self):
        # A first pass may already use more than max_nodes; the budget
        # binds only a bound that needs bisection, as in a call of its
        # own, so the smooth bound converges while the kinked one fails.
        spec = QuadratureSpec(max_nodes=32)
        assert integrate_left_tail(ndtr, 0.0, spec) == pytest.approx(0.125, abs=1e-12)

        def kernel(nodes):
            return np.where(nodes.owner == 1, np.abs(nodes.x - 0.37), ndtr(nodes.x))

        with pytest.raises(QuadratureConvergenceError) as err:
            integrate_left_tail(kernel, np.array([0.0, 1.3]), spec)
        assert err.value.failed.tolist() == [False, True]
        assert err.value.estimate[0] == pytest.approx(0.125, abs=1e-12)

    def test_many_bounds_refine_past_a_failed_bound(self):
        # The two-kink bound runs out of nodes in its fourth round; the
        # cubic one needs seven and must end where its own call does.
        cubic = lambda x: np.maximum(x - 0.37, 0.0) ** 3
        two = lambda x: np.abs(x - 0.37) + np.abs(x + 1.1)
        nodes = []

        def counted(x):
            nodes.append(x.size)
            return cubic(x)

        alone = integrate_left_tail(counted, 1.3)
        spec = QuadratureSpec(max_nodes=sum(nodes))
        with pytest.raises(QuadratureConvergenceError) as err:
            integrate_left_tail(
                lambda n: np.where(n.owner == 0, cubic(n.x), two(n.x)),
                np.array([1.3, 1.3]), spec)
        assert err.value.failed.tolist() == [False, True]
        assert abs(err.value.estimate[0] - alone) <= 1e-14

    def test_many_bounds_budget_is_per_bound(self):
        # Four bounds that each fit the budget converge together,
        # although their nodes add up to four times the budget.
        nodes = []

        def kinked(x):
            nodes.append(x.size)
            return np.abs(x - 0.37)

        alone = integrate_left_tail(kinked, 1.3)
        spec = QuadratureSpec(max_nodes=sum(nodes))
        got = integrate_left_tail(lambda n: np.abs(n.x - 0.37), np.full(4, 1.3), spec)
        assert np.abs(got - alone).max() <= 1e-14
        # One node less, and the last bisection round no longer fits.
        short = QuadratureSpec(max_nodes=sum(nodes) - 1)
        with pytest.raises(QuadratureConvergenceError):
            integrate_left_tail(kinked, 1.3, short)
        with pytest.raises(QuadratureConvergenceError) as err:
            integrate_left_tail(lambda n: np.abs(n.x - 0.37), np.full(4, 1.3), short)
        assert err.value.failed.all()

    @staticmethod
    def _tail_or_error(f, upper, spec):
        """(estimate, failed mask) of a call, whether or not it converges."""
        try:
            return integrate_left_tail(f, upper, spec), np.zeros(np.size(upper), bool)
        except QuadratureConvergenceError as err:
            return err.estimate, err.failed

    @seed(20130215)
    @settings(max_examples=100, deadline=None, database=None)
    @given(st.lists(st.tuples(st.floats(-13.0, 13.0) | st.just(math.inf),
                              st.floats(-3.0, 3.0)), min_size=1, max_size=6),
           st.integers(32, 4000))
    def test_many_bounds_are_separate_calls(self, bounds_kinks, max_nodes):
        # Per bound: the estimate, the failed flag and the nodes spent
        # are those of a call over that bound alone.
        uppers, kinks = (np.array(v) for v in zip(*bounds_kinks))
        spec = QuadratureSpec(max_nodes=max_nodes)
        joint_nodes = np.zeros(len(uppers), dtype=int)

        def kinked(x, kink):
            return np.array([np.abs(x - kink), ndtr(x) * np.maximum(x - kink, 0.0)])

        def joint_kernel(nodes):
            np.add.at(joint_nodes, nodes.owner.ravel(), nodes.x.shape[1])
            return kinked(nodes.x, kinks[nodes.owner])

        joint, joint_failed = self._tail_or_error(joint_kernel, uppers, spec)
        for j, (upper, kink) in enumerate(zip(uppers.tolist(), kinks.tolist())):
            nodes = []

            def one(x, kink=kink):
                nodes.append(x.size)
                return kinked(x, kink)

            alone, failed = self._tail_or_error(one, upper, spec)
            assert np.abs(joint[:, j] - alone).max() <= 1e-14
            assert joint_failed[j] == failed[0]
            assert joint_nodes[j] == sum(nodes)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            integrate_left_tail(lambda x: x, math.nan)
        with pytest.raises(ValueError):
            integrate_left_tail(lambda nodes: nodes.x, np.array([0.0, math.nan]))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_nodes=16)


class TestQuadFormMatrix:
    def test_positive_definite_enforced(self):
        with pytest.raises(ValueError):
            QuadFormMatrix(m11=1.0, m12=2.0, m22=1.0)
        with pytest.raises(ValueError):
            QuadFormMatrix(m11=-1.0, m12=0.0, m22=1.0)

    def test_unit_determinant_of_coupling_pair(self):
        assert UNIT_PLUS.det == pytest.approx(1.0, abs=1e-12)
        assert UNIT_MINUS.det == pytest.approx(1.0, abs=1e-12)


class TestBivariateCdf:
    def test_analytic_eighth(self):
        # Same antiderivative as above: int phi(x) N(x) dx to 0 = 1/8.
        assert bivariate_cdf_quadform(0.0, 0.0, UNIT_PLUS) == pytest.approx(
            0.125, abs=1e-10)

    def test_analytic_three_eighths(self):
        # int_{-inf}^0 phi(x) N(-x) dx = 1/2 - 1/8.
        assert bivariate_cdf_quadform(0.0, 0.0, UNIT_MINUS) == pytest.approx(
            0.375, abs=1e-10)

    def test_total_probability(self):
        assert bivariate_cdf_quadform(math.inf, math.inf, UNIT_PLUS) == 1.0

    def test_empty_tails(self):
        assert bivariate_cdf_quadform(-math.inf, 1.0, UNIT_PLUS) == 0.0
        assert bivariate_cdf_quadform(1.0, -math.inf, UNIT_PLUS) == 0.0

    def test_marginal_consistency(self):
        # With m22 = det = 1 the x-marginal is standard normal, so
        # N2(a, +inf) must reproduce N(a).
        for a in (-2.0, -0.5, 0.0, 1.0, 2.5):
            got = bivariate_cdf_quadform(a, math.inf, UNIT_PLUS)
            assert got == pytest.approx(normal_cdf(a), abs=1e-9)

    def test_monotone_in_each_bound(self):
        grid = np.linspace(-2.5, 2.5, 11)
        for b in (-1.0, 0.5):
            vals = [bivariate_cdf_quadform(a, b, UNIT_MINUS) for a in grid]
            assert all(x <= y + 1e-14 for x, y in zip(vals, vals[1:]))
        for a in (-1.0, 0.5):
            vals = [bivariate_cdf_quadform(a, b, UNIT_PLUS) for b in grid]
            assert all(x <= y + 1e-14 for x, y in zip(vals, vals[1:]))

    def test_reduction_matches_bruteforce(self):
        for a in (-2.0, 0.0, 1.0):
            for b in (-1.0, 0.0, 2.0):
                fast = bivariate_cdf_quadform(a, b, UNIT_PLUS)
                slow = bivariate_cdf_bruteforce(a, b, UNIT_PLUS, abs_tol=1e-11)
                assert fast == pytest.approx(slow, abs=1e-8)

    def test_general_matrix_falls_back(self):
        # Diagonal inverse-scale 2*I: independent normals of variance
        # 1/2, so the CDF factorizes into N(a*sqrt(2)) * N(b*sqrt(2)).
        m = QuadFormMatrix(m11=2.0, m12=0.0, m22=2.0)
        got = bivariate_cdf_quadform(0.3, -0.4, m)
        want = normal_cdf(0.3 * math.sqrt(2)) * normal_cdf(-0.4 * math.sqrt(2))
        assert got == pytest.approx(want, abs=1e-9)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            bivariate_cdf_quadform(math.nan, 0.0, UNIT_PLUS)


def bvn_oracle(mpmath, h, k, rho):
    """Phi2(h, k; rho) in 30 digits from Sheppard's formula

    Phi(h) Phi(k) + (1/2pi) int_0^asin(rho)
        exp(-(h^2 + k^2 - 2 h k sin t) / (2 cos^2 t)) dt.
    """
    with mpmath.workdps(30):
        h, k, rho = mpmath.mpf(h), mpmath.mpf(k), mpmath.mpf(rho)
        f = lambda t: mpmath.exp(-(h * h + k * k - 2 * h * k * mpmath.sin(t))
                                 / (2 * mpmath.cos(t) ** 2))
        return float(mpmath.ncdf(h) * mpmath.ncdf(k)
                     + mpmath.quad(f, [0, mpmath.asin(rho)]) / (2 * mpmath.pi))


class TestBvnCdf:
    # |rho| < 0.3, < 0.75 and < 0.925 select 6, 12 and 20 nodes; the
    # asymptotic expansion takes over from 0.925.
    RHOS = (0.1, 0.29, 0.5, 0.74, 0.8, 0.92, 0.93, 0.99)
    POINTS = ((-8.0, 3.0), (8.0, -1.5), (0.0, 0.0), (0.7, -0.4), (-1.5, 2.5),
              (3.0, 3.0), (8.0, 8.0), (-2.0, -2.5), (-0.3, -8.0))

    def test_against_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        for rho in self.RHOS + tuple(-r for r in self.RHOS):
            for h, k in self.POINTS:
                worst = max(worst, abs(bvn_cdf(h, k, rho)
                                       - bvn_oracle(mpmath, h, k, rho)))
        assert worst <= 1e-14

    def test_infinite_bounds(self):
        for rho in (-0.95, -0.5, 0.0, 0.6, 0.97):
            for x in (-8.0, -1.0, 0.0, 2.0, 8.0):
                assert bvn_cdf(math.inf, x, rho) == normal_cdf(x)
                assert bvn_cdf(x, math.inf, rho) == normal_cdf(x)
                assert bvn_cdf(-math.inf, x, rho) == 0.0
                assert bvn_cdf(x, -math.inf, rho) == 0.0
            assert bvn_cdf(math.inf, math.inf, rho) == 1.0

    def test_huge_finite_bounds(self):
        # Squaring a bound near 1e160 once overflowed, and inf - inf
        # gave NaN; past 40 a bound is infinite in double.
        assert bvn_cdf(1e200, 1e200, 0.7) == 1.0
        assert bvn_cdf(3.0, 1e160, 0.95) == normal_cdf(3.0)
        assert bvn_cdf(-1e200, 2.0, -0.5) == 0.0
        for rho in (-0.99, -0.95, -0.5, 0.0, 0.6, 0.93, 0.99):
            for k in (-38.0, -3.0, 0.0, 2.5, 39.0):
                assert bvn_cdf(40.0, k, rho) == bvn_cdf(1e300, k, rho) == normal_cdf(k)
                assert bvn_cdf(k, -40.0, rho) == bvn_cdf(k, -1e300, rho) == 0.0

    def test_independence(self):
        for h, k in self.POINTS:
            assert bvn_cdf(h, k, 0.0) == pytest.approx(
                normal_cdf(h) * normal_cdf(k), abs=1e-16)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bvn_cdf(math.nan, 0.0, 0.5)
        with pytest.raises(ValueError):
            bvn_cdf(0.0, 0.0, 1.5)
