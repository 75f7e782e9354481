"""The pre-t1 legs as the expectation over V1 of the post-t1 legs.

The paper values the bond one subinterval at a time. On [t1, t2] the
intensity lambda(V1) is a known constant, so with
F = e^{-lambda(V1)(t2 - t1)} and S2 the maturity survival over t2 - t1,
each leg per unit Z(r, t1) at t1 given V1 is elementary:

    survive_both     F S2
    unexpected_leg2  R_u (1 - F) S2
    expected_t2      (R_u + (R_e - R_u) F) (1 - S2)

Before t1, with d1 = e^{-lambda(V0)(t1 - t)} and V1 lognormal, each
corrected leg per unit Z(r, t) is d1 E[1{V1 > K1} (that leg)], a 1-D
Gaussian integral taken here with scipy ``quad``, and unexpected_leg1 +
expected_t1 = R_u (1 - d1) + d1 R_e N(-alpha1). The integrals use no
bivariate CDF, no J22 split and no shared panels, so they check the
pricer's orientation sign, I21/I23 pairing, J22 split, tail pass and
decay1 with no sampling noise.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from dvbond import (
    DefaultSpec,
    FirmModel,
    IntensityFunction,
    PiecewiseConstant,
    PricingInputs,
    PricingMode,
    ShortRateModel,
    price_batch,
    price_bond,
)
from dvbond.mathkit import DEFAULT_QUADRATURE

from conftest import make_inputs
from test_acceptance import random_scenario
from test_pde import KINKED

EPS = np.finfo(float).eps
# Roundoff of the pricer's legs per unit Z, in units of EPS on the sum of
# their magnitudes: the bivariate CDF is good to ~1e-15 (5 EPS) on a
# probability, and each leg adds a few rounded products and sums.
ULPS = 16
# Past 40 standard deviations the Gaussian weight is below 1e-347.
CUT = 40.0
SPLIT = ("survive_both", "unexpected_leg2", "expected_t2")


def post_t1_legs(firm, spec, V1):
    """The three post-t1 legs per unit Z(r, t1) at t1 given V1."""
    delta = spec.t2 - spec.t1
    F = math.exp(-spec.intensity(V1) * delta)
    S2 = 1.0 if spec.K2 == 0.0 else float(ndtr(
        (math.log(V1 / spec.K2) + firm.log_drift * delta) / (firm.s_V * math.sqrt(delta))))
    return (F * S2, spec.R_u * (1.0 - F) * S2,
            (spec.R_u + (spec.R_e - spec.R_u) * F) * (1.0 - S2))


def expected_legs(inputs):
    """(d1 E[1{V1 > K1} leg] and quad's error bound for each leg of SPLIT,
    unexpected_leg1 + expected_t1), all per unit Z(r, t)."""
    firm, spec = inputs.firm, inputs.spec
    d1 = math.exp(-spec.intensity(firm.V0) * (spec.t1 - inputs.t))
    mean = math.log(firm.V0) + firm.log_drift * spec.t1
    scale = firm.s_V * math.sqrt(spec.t1)
    # V1 > K1 where the standard normal x of ln V1 = mean + scale x
    # exceeds -alpha1; the kinked intensity has its kink at V1 = 90.
    alpha1 = math.inf if spec.K1 == 0.0 else (mean - math.log(spec.K1)) / scale
    lower = max(-alpha1, -CUT)
    kink = (math.log(90.0) - mean) / scale if spec.intensity is KINKED else 0.0
    points = [p for p in sorted({0.0, kink}) if lower < p < CUT] or None
    legs = []
    for j in range(len(SPLIT)):
        # Below epsabs = 1e-13 QUADPACK reports roundoff on some draws,
        # and its error bound may then be too small.
        value, error = quad(
            lambda x: post_t1_legs(firm, spec, math.exp(mean + scale * x))[j]
            * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
            lower, CUT, points=points, epsabs=1e-13, epsrel=0.0, limit=200)
        legs.append((d1 * value, d1 * error))
    first = spec.R_u * (1.0 - d1) + d1 * spec.R_e * float(ndtr(-alpha1))
    return legs, first


def box_draws(n, seed):
    """Criterion 7 draws, turned in turn into each branch of the pricer:
    K1 = 0, K2 = 0, a piecewise a1 and R_u = 1 (about a third of the
    draws already have a constant intensity)."""
    rng = np.random.default_rng(seed)
    draws = []
    for k in range(n):
        x = random_scenario(rng)
        spec, rate = x.spec, x.rate_model
        branch = k % 5
        if branch == 1:
            spec = dataclasses.replace(spec, K1=0.0)
        elif branch == 2:
            spec = dataclasses.replace(spec, K2=0.0)
        elif branch == 3:
            rate = dataclasses.replace(rate, a1=PiecewiseConstant(
                (spec.t2 * rng.uniform(0.2, 0.8),), (rate.a1(0.0), rng.uniform(0.0, 0.05))))
        elif branch == 4:
            spec = dataclasses.replace(spec, R_u=1.0)
        draws.append(dataclasses.replace(x, spec=spec, rate_model=rate))
    return draws


DRAWS = box_draws(40, 20130215) + [
    make_inputs(t=t, intensity=intensity) for t in (0.0, 0.3, 0.49)
    for intensity in (KINKED, IntensityFunction.constant(0.05))]


def check(inputs, res, want):
    """Each leg of ``res`` per unit Z against the integrals ``want``.

    The tails of an analytic kernel converge far past the pricer's
    ``abs_tol``; at the kink of KINKED its Gauss-Kronrod estimate holds
    them only to it. Each leg holds at most one tail, with a coefficient
    of at most 1, times d1 <= 1.
    """
    legs = {name: value / res.zcb for name, value in res.legs.items()}
    tol = ULPS * EPS * sum(abs(v) for v in legs.values())
    if inputs.spec.intensity is KINKED:
        tol += DEFAULT_QUADRATURE.abs_tol
    split, first = want
    for name, (value, error) in zip(SPLIT, split):
        assert abs(legs[name] - value) <= error + tol, name
    assert abs(legs["unexpected_leg1"] + legs["expected_t1"] - first) <= tol


def test_every_leg_is_the_expectation_of_its_post_t1_leg():
    want = [expected_legs(x) for x in DRAWS]
    for route in (lambda: [price_bond(x) for x in DRAWS], lambda: price_batch(DRAWS)):
        for inputs, res, expected in zip(DRAWS, route(), want):
            check(inputs, res, expected)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the kink lies 1.7e-5 inside a bisected tail panel, before its first "
    "Kronrod node: the panel's error estimate is ~1e-20 and J22 is off by 2e-12"))
def test_kink_before_the_first_node_of_a_panel():
    # A criterion 7 draw with the kinked intensity.
    inputs = PricingInputs(
        rate_model=ShortRateModel(a1=0.01799979182114611, a2=0.07897254941812565,
                                  s_r=0.005686075730476452, maturity=1.688627276376347),
        firm=FirmModel(V0=96.16646752444075, mu=0.05939678972670384,
                       b=0.05946826234888067, s_V=0.20133967049249424),
        spec=DefaultSpec(t1=0.49584482287322806, t2=1.688627276376347,
                         K1=77.27756617710452, K2=75.79625785277594, R_u=0.8496239694641142,
                         R_e=0.43401169323557576, intensity=KINKED),
        r=0.0018954225702374795, t=0.08718956353181187)
    check(inputs, price_bond(inputs), expected_legs(inputs))


@pytest.mark.parametrize("intensity", [None, KINKED], ids=["P0", "kinked"])
def test_paper_literal_misses_the_expectation(intensity):
    # The printed orientation couples the two announcement checks with
    # the wrong sign, which moves survive_both far beyond the bound.
    inputs = make_inputs(intensity=intensity)
    (survive, error), _, _ = expected_legs(inputs)[0]
    res = price_bond(inputs, PricingMode.PAPER_LITERAL)
    assert abs(res.legs["survive_both"] / res.zcb - survive) > 1e6 * (error + ULPS * EPS)
