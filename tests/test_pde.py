"""The paper's subinterval PDE, checked on the closed form.

Between announcements the declared value is a known constant, so the
jump intensity lambda is one too: lambda(V0) before t1 and lambda(V1)
after it. On each subinterval the bond value u(r, t) then solves

    u_t + (a1 - a2 r) u_r + 1/2 s_r^2 u_rr - (r + lambda) u + lambda R_u Z = 0,

where lambda R_u Z(r, t) is the recovery paid at a jump. The residual is
taken from ``price_bond`` by central differences.

Of the three places where the printed closed form departs from the
exact expectation, two (the region orientation and the grouping at
maturity) set only the value reached at t1 and leave the PDE alone. The
third, the grouping of the first-barrier leg, changes the recovery the
pre-announcement value earns at a jump: R_e R_u on the paths that go on
to breach K1, so R_u N(alpha1) + R_u R_e N(-alpha1) in all, where the
exact value earns R_u.
"""

import dataclasses

import numpy as np
import pytest

from dvbond import IntensityFunction, PricingMode, compute_alphas, price_bond, zcb_price
from dvbond.mathkit import normal_cdf

from conftest import make_inputs

H_R, H_T = 1e-4, 1e-5
EPS = np.finfo(float).eps
# Relative error of one price, in units of EPS: a price is a product and
# a sum of a handful of rounded terms.
ULPS = 8

KINKED = IntensityFunction.custom(lambda v: 0.02 + 0.3 * np.maximum(0.0, 1.0 - v / 90.0))


def residual(inputs, mode, recovery):
    """(PDE residual at (inputs.r, inputs.t) with jump recovery
    ``recovery``, its tolerance)."""
    rate, spec, r, t = inputs.rate_model, inputs.spec, inputs.r, inputs.t

    def u(dr=0.0, dt=0.0):
        return price_bond(dataclasses.replace(inputs, r=r + dr, t=t + dt), mode).price

    u0, up, down = u(), u(dr=H_R), u(dr=-H_R)
    u_t = (u(dt=H_T) - u(dt=-H_T)) / (2.0 * H_T)
    u_r = (up - down) / (2.0 * H_R)
    u_rr = (up - 2.0 * u0 + down) / H_R**2
    drift, s_r = rate.a1(t) - rate.a2(t) * r, rate.s_r(t)
    lam = spec.intensity(inputs.firm.V0 if t < spec.t1 else inputs.V1)
    value = (u_t + drift * u_r + 0.5 * s_r**2 * u_rr - (r + lam) * u0
             + lam * recovery * zcb_price(rate, r, t))
    # Roundoff: ULPS * EPS * |u| per price, divided by the steps of each
    # difference (4 / h^2 in u_rr). Truncation: h^2 / 6 times a third
    # derivative (h^2 / 12 times a fourth in u_rr), each at most |u|, as
    # B(t, t2) <= t2 - t <= 1 and every rate (r, a2, lambda) is below 1.
    roundoff = ULPS * EPS * (1.0 / H_T + abs(drift) / H_R + 2.0 * s_r**2 / H_R**2)
    truncation = (H_T**2 + abs(drift) * H_R**2) / 6.0 + s_r**2 * H_R**2 / 24.0
    return value, (roundoff + truncation) * abs(u0)


INTENSITIES = pytest.mark.parametrize("intensity", [None, KINKED], ids=["P0", "kinked"])
RATES = pytest.mark.parametrize("r", [0.02, 0.05])


@INTENSITIES
@RATES
@pytest.mark.parametrize("mode", list(PricingMode), ids=lambda m: m.value)
def test_after_t1_both_modes_solve_it(intensity, r, mode):
    # Both modes price after t1 with the exact grouping.
    inputs = make_inputs(intensity=intensity, r=r, t=0.75, V1=95.0)
    value, tol = residual(inputs, mode, inputs.spec.R_u)
    assert abs(value) <= tol


@INTENSITIES
@RATES
def test_before_t1_corrected_solves_it(intensity, r):
    inputs = make_inputs(intensity=intensity, r=r, t=0.25)
    value, tol = residual(inputs, PricingMode.CORRECTED, inputs.spec.R_u)
    assert abs(value) <= tol


@INTENSITIES
@RATES
def test_before_t1_paper_literal_earns_the_printed_recovery(intensity, r):
    # With R_u the printed form misses the PDE by lambda R_u (1 - R_e)
    # N(-alpha1) Z, far beyond the tolerance; with the recovery its
    # first-barrier leg implies it solves it.
    inputs = make_inputs(intensity=intensity, r=r, t=0.25)
    spec = inputs.spec
    alpha1 = compute_alphas(inputs.firm, spec).alpha1
    printed = spec.R_u * (normal_cdf(alpha1) + spec.R_e * normal_cdf(-alpha1))
    value, tol = residual(inputs, PricingMode.PAPER_LITERAL, spec.R_u)
    assert abs(value) > 1e3 * tol
    value, tol = residual(inputs, PricingMode.PAPER_LITERAL, printed)
    assert abs(value) <= tol
