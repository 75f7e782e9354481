"""Closed-form price of the two-announcement defaultable bond.

Valuing at time t before the first announcement t1, the bond can end in
five ways: a sudden (jump) default before t1; a barrier default at t1
(declared value V1 <= K1); a jump default between the announcements; a
barrier default at maturity (V2 <= K2); or survival to a par payoff.
Conditioning interval by interval and averaging over the lognormal law
of the declared values produces a closed form

    price = I1 + Z * exp(-lambda(V0) * (t1 - t)) * (I21 + I22 + I23 + I24)
          + expected_default_term

where Z = Z(r, t) is the default-free discount bond and

    I1   recovery R_u collected when a jump hits before t1, weighted by
         the first-barrier survival probability N(alpha1);
    I21  recovery floor R_u on paths clearing both barriers;
    I22  payout above the floor on paths clearing both barriers and
         surviving the second-interval jump risk (left-tail quadrature
         of the jump-survival kernel F);
    I23  recovery on paths clearing the first barrier but breaching the
         second;
    I24  jump-survival portion of that second-breach recovery;
    expected_default_term   the first-barrier-breach leg.

I21 and I23 are bivariate normal probabilities in the quadratic-form
parameterization (unit determinant, coupling +/- sqrt(t1/(t2-t1))),
evaluated in closed form as standard bivariate normal CDFs at
(alpha1, alpha2 sqrt((t2 - t1)/t2)) with correlation +/- sqrt(t1/t2);
they sum to N(alpha1), so one bivariate CDF gives both. I22 and I24
are Gaussian-weighted left-tail integrals, taken in one quadrature
pass over shared panels that evaluates F and one normal CDF per node.
With a constant intensity F is the constant exp(-lambda0 (t2 - t1)),
and they are F times the same two probabilities as I21 and I23;
``price_full`` computes those once.

``price_bond`` prices one valuation; ``price_batch`` prices many with
the same formulas evaluated on arrays. Every term but Z depends only
on (firm, spec, t) and the price is linear in Z, so it computes each
distinct term set once, evaluates the bivariate CDFs elementwise and
integrates the I22/I24 tails of all term sets in one quadrature pass.

Two pricing modes exist because the historically printed closed form
disagrees with the exact expectation of the model in three places, and
the disagreements are instructive enough to keep evaluable:

* Region orientation. Averaging over the first declared value
  restricts to {V1 > K1}, i.e. to Brownian displacements ABOVE
  -alpha1. Rewriting that as a left tail up to +alpha1 requires
  reflecting the integrand (x -> -x); the printed form flips the
  region but keeps the unreflected integrand, which couples the two
  announcement checks with the wrong sign (its survive-both
  probability can fall below the independence bound N(a1) * N(a2)).
* Default-branch grouping. The exact value on the maturity-breach
  branch is R_u + (R_e - R_u) * F; the printed form carries
  R_e * (R_u + (1 - R_u) * F). They coincide only when
  R_u (1 - R_e) (1 - F) = 0.
* First-barrier leg. Same grouping slip at the first announcement:
  exact Z * [R_u + (R_e - R_u) e^{-lambda(V0)(t1-t)}] * N(-alpha1)
  versus printed R_e * Z * [R_u + (1 - R_u) e^{...}] * N(-alpha1).

CORRECTED mode prices the model exactly (it is the one the Monte Carlo
engine in ``mcoracle`` reproduces to sampling noise, and it is
continuous at t1 against ``price_last_interval``). PAPER_LITERAL
evaluates the printed closed form verbatim so the discrepancy can be
measured; its one internal contradiction (the second-breach
coefficient appears both as R_u and as R_u * R_e in different
displays) is resolved to R_u * R_e, which is what its own term
decomposition sums to.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import ndtr

from . import mathkit
from .defaultmodel import DefaultSpec, FirmModel, survival_prob
from .mathkit import (
    DEFAULT_QUADRATURE,
    QuadFormMatrix,
    QuadratureConvergenceError,
    QuadratureSpec,
    integrate_left_tail,
    normal_cdf,
)
from .ratecurve import ShortRateModel, zcb_price

__all__ = [
    "PricingMode",
    "PricingInputs",
    "Alpha",
    "TermBreakdown",
    "PriceResult",
    "interval_factor_u1",
    "price_last_interval",
    "f_factor",
    "g_components",
    "compute_alphas",
    "quadform_pair",
    "term_I21_I23",
    "term_I22_I24",
    "expected_default_leg",
    "price_full",
    "price_bond",
    "price_batch",
    "credit_spread",
]


class PricingMode(enum.Enum):
    """Exact expectation (CORRECTED) or the printed closed form."""

    CORRECTED = "corrected"
    PAPER_LITERAL = "paper-literal"


@dataclass(frozen=True)
class PricingInputs:
    """Everything a single valuation needs.

    ``V1`` is the declared value at the first announcement; it must be
    supplied when valuing at or after t1 and is ignored before.
    """

    rate_model: ShortRateModel
    firm: FirmModel
    spec: DefaultSpec
    r: float
    t: float
    V1: float | None = None

    def __post_init__(self):
        for name in ("r", "t", "V1"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.t < self.spec.t2:
            raise ValueError(
                f"valuation time must lie in [0, {self.spec.t2}), got {self.t}"
            )
        if abs(self.rate_model.maturity - self.spec.t2) > 1e-12:
            raise ValueError(
                "discount-bond maturity must equal the bond maturity t2 "
                f"({self.rate_model.maturity} != {self.spec.t2})"
            )
        if self.t >= self.spec.t1:
            if self.V1 is None or not self.V1 > 0.0:
                raise ValueError(
                    "valuing at or after the first announcement requires "
                    "a positive declared value V1"
                )


@dataclass(frozen=True)
class Alpha:
    """Standardized survival thresholds at the two announcement dates.

    Either entry is +inf when the matching barrier is zero (survival
    certain).
    """

    alpha1: float
    alpha2: float


@dataclass(frozen=True)
class TermBreakdown:
    """Closed-form price decomposition.

    ``i1`` and ``expected_default`` include the discount-bond factor;
    the four ``i2x`` terms are the dimensionless integrals multiplying
    Z * exp(-lambda(V0) (t1 - t)). In CORRECTED mode ``i24`` carries
    the coefficient R_e - R_u and may be negative.
    """

    i1: float
    i21: float
    i22: float
    i23: float
    i24: float
    expected_default: float

    @property
    def i2_total(self) -> float:
        return self.i21 + self.i22 + self.i23 + self.i24


@dataclass(frozen=True)
class PriceResult:
    """Bond price with its decomposition and the discount bond used.

    ``terms`` is None when the valuation fell in the post-announcement
    regime (t >= t1), where the closed form is a two-branch expression
    with no integral decomposition.
    """

    price: float
    mode: PricingMode
    terms: TermBreakdown | None
    zcb: float


def interval_factor_u1(spec: DefaultSpec, lam: float, t: float,
                       survived_terminal: bool) -> float:
    """Value factor on the last interval for a known hazard rate.

    Solves the one-factor decay equation backward from the terminal
    payoff (1 when the maturity barrier is cleared, R_e otherwise):

        R_u + (1 - R_u) e^{-lam (t2 - t)}     cleared
        R_u + (R_e - R_u) e^{-lam (t2 - t)}   breached
    """
    if lam < 0.0:
        raise ValueError(f"intensity must be nonnegative, got {lam}")
    if not spec.t1 <= t <= spec.t2:
        raise ValueError(f"t must lie in [{spec.t1}, {spec.t2}], got {t}")
    decay = math.exp(-lam * (spec.t2 - t))
    terminal = 1.0 if survived_terminal else spec.R_e
    return spec.R_u + (terminal - spec.R_u) * decay


def price_last_interval(inputs: PricingInputs, V1: float | None = None) -> float:
    """Bond price between the announcements, given the declared V1.

    The maturity barrier check uses the lognormal transition anchored
    at the announcement (the declared value is the only firm
    information available), so the survival probability is
    N[d_minus(V1/K2, t2 - t1)] regardless of the valuation time.
    """
    spec = inputs.spec
    if V1 is None:
        V1 = inputs.V1
    if V1 is None or not V1 > 0.0:
        raise ValueError("price_last_interval requires a positive V1")
    if not spec.t1 <= inputs.t < spec.t2:
        raise ValueError(
            f"valuation time must lie in [{spec.t1}, {spec.t2}), got {inputs.t}"
        )
    return _last_interval(inputs, V1, zcb_price(inputs.rate_model, inputs.r, inputs.t))


def _last_interval(inputs: PricingInputs, V1: float, z: float) -> float:
    """``price_last_interval`` for a validated V1 and the discount bond z."""
    spec = inputs.spec
    lam = spec.intensity(V1)
    surv = survival_prob(inputs.firm, V1, spec.K2, spec.t2 - spec.t1)
    u_cleared = interval_factor_u1(spec, lam, inputs.t, True)
    u_breached = interval_factor_u1(spec, lam, inputs.t, False)
    return z * (u_cleared * surv + u_breached * (1.0 - surv))


def f_factor(firm: FirmModel, spec: DefaultSpec, V1):
    """Announcement-date value factor: price at t1 equals Z(r, t1) * f(V1).

    Jump-survival bracket times the barrier-weighted terminal mix; sums
    exactly to the four components of ``g_components``. Accepts arrays.
    """
    V1_arr = np.asarray(V1, dtype=float)
    if np.any(V1_arr <= 0.0):
        raise ValueError("f_factor requires V1 > 0")
    delta = spec.t2 - spec.t1
    decay = np.exp(-spec.intensity(V1_arr) * delta)
    surv = survival_prob(firm, V1_arr, spec.K2, delta)
    out = (spec.R_u + (1.0 - spec.R_u) * decay) * (
        surv + spec.R_e * (1.0 - surv)
    )
    return float(out) if np.ndim(out) == 0 else out


def g_components(firm: FirmModel, spec: DefaultSpec, w):
    """The four additive parts of the announcement-date factor.

    ``w`` is the Brownian displacement at t1, so the declared value is
    V1 = V0 exp[(mu - b - s_V^2/2) t1 + s_V w]. Returns
    (g21, g22, g23, g24): recovery floor and jump-survival payout on
    the maturity-survival branch, then the same pair on the
    maturity-breach branch (both breach parts carry R_e).
    """
    w_arr = np.asarray(w, dtype=float)
    delta = spec.t2 - spec.t1
    V1 = firm.V0 * np.exp(firm.log_drift * spec.t1 + firm.s_V * w_arr)
    decay = np.exp(-spec.intensity(V1) * delta)
    if spec.K2 == 0.0:
        n_up = np.ones_like(w_arr)
    else:
        n_up = ndtr(
            (np.log(V1 / spec.K2) + firm.log_drift * delta)
            / (firm.s_V * math.sqrt(delta))
        )
    n_dn = 1.0 - n_up
    g21 = spec.R_u * n_up
    g22 = (1.0 - spec.R_u) * decay * n_up
    g23 = spec.R_u * spec.R_e * n_dn
    g24 = spec.R_e * (1.0 - spec.R_u) * decay * n_dn
    if np.ndim(w) == 0:
        return float(g21), float(g22), float(g23), float(g24)
    return g21, g22, g23, g24


def compute_alphas(firm: FirmModel, spec: DefaultSpec) -> Alpha:
    """Survival thresholds: alpha1 for the t1 barrier, alpha2 for t2.

    alpha1 standardizes ln(V0/K1) plus drift over t1 by s_V sqrt(t1);
    alpha2 standardizes ln(V0/K2) plus drift over the full horizon t2
    by s_V sqrt(t2 - t1) (the second-interval scale, because the first
    interval's displacement enters the maturity check through the
    quadrature variable). A zero barrier short-circuits to +inf.
    """
    if spec.K1 < 0.0 or spec.K2 < 0.0:
        raise ValueError("barriers must be nonnegative")
    if spec.K1 == 0.0:
        alpha1 = math.inf
    else:
        alpha1 = (math.log(firm.V0 / spec.K1) + firm.log_drift * spec.t1) / (
            firm.s_V * math.sqrt(spec.t1)
        )
    if spec.K2 == 0.0:
        alpha2 = math.inf
    else:
        alpha2 = (math.log(firm.V0 / spec.K2) + firm.log_drift * spec.t2) / (
            firm.s_V * math.sqrt(spec.t2 - spec.t1)
        )
    return Alpha(alpha1=alpha1, alpha2=alpha2)


def quadform_pair(t1: float, t2: float) -> tuple[QuadFormMatrix, QuadFormMatrix]:
    """Inverse-scale matrices coupling the two announcement checks.

    Both have unit determinant and m22 = 1; the coupling entry is
    +sqrt(t1/(t2-t1)) for the both-barriers-cleared probability and its
    negative for the cleared-then-breached probability.
    """
    delta = t2 - t1
    c = math.sqrt(t1 / delta)
    plus = QuadFormMatrix(m11=t2 / delta, m12=c, m22=1.0)
    minus = QuadFormMatrix(m11=t2 / delta, m12=-c, m22=1.0)
    return plus, minus


def term_I21_I23(
    alphas: Alpha,
    spec: DefaultSpec,
    mode: PricingMode = PricingMode.CORRECTED,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """Bivariate-probability terms of the decomposition.

    CORRECTED pairs the left-tail region with the reflected integrand,
    so the recovery floor R_u splits over the exact joint law:

        I21 = R_u * N2(alpha1,  alpha2 : M-)
        I23 = R_u * N2(alpha1, -alpha2 : M+)

    and I21 + I23 = R_u * N(alpha1). PAPER_LITERAL keeps the printed
    assignment,

        I21 = R_u       * N2(alpha1,  alpha2 : M+)
        I23 = R_u * R_e * N2(alpha1, -alpha2 : M-).

    Both probabilities are closed-form; ``quad`` is accepted for
    compatibility and not used.
    """
    if spec.R_u == 0.0:
        return 0.0, 0.0
    probs = _barrier_probabilities(alphas.alpha1, alphas.alpha2, spec.t1, spec.t2,
                                   mode, normal_cdf(alphas.alpha1))
    return _i21_i23(spec.R_u, spec.R_e, mode, probs)


# The helpers below hold the per-mode formulas of both routes. Their
# numeric arguments are floats for ``price_full`` and arrays with one
# entry per term set for ``price_batch``.


def _i21_i23(R_u, R_e, mode: PricingMode, probs):
    """``term_I21_I23`` from the ``_barrier_probabilities`` pair."""
    coeff23 = R_u if mode is PricingMode.CORRECTED else R_u * R_e
    return R_u * probs[0], coeff23 * probs[1]


def _barrier_probabilities(alpha1, alpha2, t1, t2, mode: PricingMode, n_surv1):
    """The two bivariate probabilities of the decomposition.

    First the one I21 (and, for a constant intensity, I22) weights,
    then the one of I23 (and I24); the modes pair them with opposite
    coupling matrices of ``quadform_pair``. With unit determinant,
    N2(alpha1, alpha2 : M) is the standard bivariate normal CDF at
    (alpha1, alpha2 sqrt((t2 - t1) / t2)) with correlation
    +sqrt(t1/t2) for the CORRECTED pairing and -sqrt(t1/t2) for the
    PAPER_LITERAL one. The two matrices differ only in the sign of the
    coupling, so the pair sums to N(alpha1) = ``n_surv1`` in either
    mode and the second is ``n_surv1`` minus the first.
    """
    rho = (t1 / t2) ** 0.5
    n_up = mathkit.bvn_cdf(alpha1, alpha2 * ((t2 - t1) / t2) ** 0.5,
                           rho if mode is PricingMode.CORRECTED else -rho)
    return n_up, n_surv1 - n_up


def _i22_i24_coefficients(R_u, R_e, mode: PricingMode):
    """Coefficients of the I22 and I24 tails."""
    coeff22 = 1.0 - R_u
    if mode is PricingMode.CORRECTED:
        return coeff22, R_e - R_u
    return coeff22, R_e * coeff22


def _i22_i24_terms(coefficients, tails):
    """I22 and I24 from their coefficients and tails. Adding 0.0 turns
    the -0.0 of a negative coefficient times an empty tail (alpha1 below
    the cutoff, or no maturity barrier for I24) into 0.0."""
    return (coefficients[0] * tails[0] + 0.0, coefficients[1] * tails[1] + 0.0)


def _tail_params(firm: FirmModel, spec: DefaultSpec, mode: PricingMode):
    """The parameters of ``_tail_rows`` after alpha2: delta = t2 - t1,
    the mean of ln V1, s s_V sqrt(t1) and s c."""
    delta = spec.t2 - spec.t1
    s = -1.0 if mode is PricingMode.CORRECTED else 1.0
    return (delta, math.log(firm.V0) + firm.log_drift * spec.t1,
            s * firm.s_V * math.sqrt(spec.t1), s * math.sqrt(spec.t1 / delta))


def _tail_rows(x, intensity, alpha2, delta, log_v1, scale, sc) -> np.ndarray:
    """The I22 and I24 kernels at the nodes x, F(s x) N(alpha2 + s c x)
    and F(s x) minus it; parameters are floats, or arrays that broadcast
    against x."""
    F = np.exp(-delta * intensity(np.exp(log_v1 + scale * x)))
    up = F * ndtr(alpha2 + sc * x)
    return np.array([up, F - up])


def term_I22_I24(
    alphas: Alpha,
    firm: FirmModel,
    spec: DefaultSpec,
    mode: PricingMode = PricingMode.CORRECTED,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """Quadrature terms of the decomposition, with c = sqrt(t1/(t2-t1)).

    CORRECTED integrates the reflected kernels (exact expectation over
    {V1 > K1} written as a left tail):

        I22 = (1 - R_u)   * int F(-x) N( alpha2 - c x) phi(x) dx
        I24 = (R_e - R_u) * int F(-x) N(-alpha2 + c x) phi(x) dx

    (I24 may be negative when R_e < R_u). PAPER_LITERAL evaluates the
    printed kernels:

        I22 = (1 - R_u)       * int F(x) N( alpha2 + c x) phi(x) dx
        I24 = (1 - R_u) * R_e * int F(x) N(-alpha2 - c x) phi(x) dx

    The modes differ only in the orientation sign s (-1 CORRECTED, +1
    PAPER_LITERAL) of F(s x) N(alpha2 + s c x). One quadrature pass
    evaluates both once per node and both integrals on shared panels,
    the breach kernel taken as F(s x) - F(s x) N(alpha2 + s c x).
    With a constant intensity F factors out of either integral, leaving
    F times the bivariate probabilities of ``term_I21_I23``, which are
    used with no quadrature. The kernel can have slope kinks for custom
    intensities, which the adaptive panels absorb.
    """
    probs = _barrier_probabilities(alphas.alpha1, alphas.alpha2, spec.t1, spec.t2,
                                   mode, normal_cdf(alphas.alpha1))
    return _i22_i24(alphas, firm, spec, mode, quad, probs)


def _i22_i24(alphas: Alpha, firm: FirmModel, spec: DefaultSpec,
             mode: PricingMode, quad: QuadratureSpec,
             probs: tuple[float, float]) -> tuple[float, float]:
    """``term_I22_I24``; ``probs`` is the ``_barrier_probabilities`` pair,
    read only for a constant intensity."""
    coefficients = _i22_i24_coefficients(spec.R_u, spec.R_e, mode)
    if coefficients == (0.0, 0.0):
        return 0.0, 0.0
    if spec.intensity.family == "constant":
        F = math.exp(-spec.intensity.lambda0 * (spec.t2 - spec.t1))
        tails = F * probs[0], F * probs[1]
    else:
        params = _tail_params(firm, spec, mode)

        def rows(x):
            return _tail_rows(x, spec.intensity, alphas.alpha2, *params)

        tails = integrate_left_tail(rows, alphas.alpha1, quad)
    i22, i24 = _i22_i24_terms(coefficients, tails)
    return float(i22), float(i24)


def expected_default_leg(inputs: PricingInputs,
                         mode: PricingMode = PricingMode.CORRECTED) -> float:
    """First-barrier-breach leg of the pre-announcement price.

    The breach value does not depend on V1, so in CORRECTED mode the
    leg is that value times the breach probability N(-alpha1):

        Z * [R_u + (R_e - R_u) e^{-lambda(V0)(t1-t)}] * N(-alpha1).

    PAPER_LITERAL instead multiplies the jump-survival bracket by R_e:

        Z * R_e * [R_u + (1 - R_u) e^{-lambda(V0)(t1-t)}] * N(-alpha1).
    """
    spec = inputs.spec
    if not 0.0 <= inputs.t < spec.t1:
        raise ValueError(
            f"valuation time must lie in [0, {spec.t1}), got {inputs.t}"
        )
    alphas = compute_alphas(inputs.firm, spec)
    z = zcb_price(inputs.rate_model, inputs.r, inputs.t)
    decay1 = math.exp(-spec.intensity(inputs.firm.V0) * (spec.t1 - inputs.t))
    return _default_leg(spec.R_u, spec.R_e, mode, z, decay1,
                        normal_cdf(-alphas.alpha1))


def _default_leg(R_u, R_e, mode: PricingMode, z, decay1, n_breach):
    """``expected_default_leg`` from the discount bond, the first-interval
    jump survival exp(-lambda(V0)(t1 - t)) and N(-alpha1)."""
    if mode is PricingMode.CORRECTED:
        return z * (R_u + (R_e - R_u) * decay1) * n_breach
    return z * R_e * (R_u + (1.0 - R_u) * decay1) * n_breach


def price_full(
    inputs: PricingInputs,
    mode: PricingMode = PricingMode.CORRECTED,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> PriceResult:
    """Pre-announcement price with its full term decomposition.

    Valid for 0 <= t < t1. Every admissible payoff lies between
    min(R_u, R_e) and 1 times the discount bond, so the CORRECTED
    price does too (the printed form can drift slightly outside for
    extreme barrier/intensity corners). A quadrature convergence
    failure propagates with the terms computed so far attached to the
    exception as ``partial_terms``.
    """
    spec = inputs.spec
    if not 0.0 <= inputs.t < spec.t1:
        raise ValueError(
            f"price_full requires a valuation time in [0, {spec.t1}), "
            f"got {inputs.t}; value later times with price_last_interval"
        )
    z = zcb_price(inputs.rate_model, inputs.r, inputs.t)
    decay1 = math.exp(-spec.intensity(inputs.firm.V0) * (spec.t1 - inputs.t))
    alphas = compute_alphas(inputs.firm, spec)
    n_surv1 = normal_cdf(alphas.alpha1)

    i1 = spec.R_u * z * (1.0 - decay1) * n_surv1
    leg = _default_leg(spec.R_u, spec.R_e, mode, z, decay1, normal_cdf(-alphas.alpha1))
    probs = _barrier_probabilities(alphas.alpha1, alphas.alpha2, spec.t1, spec.t2,
                                   mode, n_surv1)
    i21, i23 = _i21_i23(spec.R_u, spec.R_e, mode, probs)
    try:
        i22, i24 = _i22_i24(alphas, inputs.firm, spec, mode, quad, probs)
    except QuadratureConvergenceError as err:
        err.partial_terms = {"i1": i1, "expected_default": leg, "zcb": z}
        raise
    terms = TermBreakdown(i1=i1, i21=i21, i22=i22, i23=i23, i24=i24,
                          expected_default=leg)
    price = i1 + z * decay1 * terms.i2_total + leg
    return PriceResult(price=price, mode=mode, terms=terms, zcb=z)


def price_bond(
    inputs: PricingInputs,
    mode: PricingMode = PricingMode.CORRECTED,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> PriceResult:
    """Price at any valuation time before maturity.

    Times at or past the first announcement (which require the declared
    V1) are routed to the post-announcement closed form, which has no
    integral decomposition.
    """
    if inputs.t < inputs.spec.t1:
        return price_full(inputs, mode, quad)
    z = zcb_price(inputs.rate_model, inputs.r, inputs.t)
    return PriceResult(price=_last_interval(inputs, inputs.V1, z), mode=mode,
                       terms=None, zcb=z)


def price_batch(
    inputs: Sequence[PricingInputs],
    mode: PricingMode = PricingMode.CORRECTED,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[PriceResult]:
    """``price_bond`` of many valuations, in input order.

    Equals ``[price_bond(x, mode, quad) for x in inputs]`` up to
    roundoff. Valuations at or after t1 and custom intensities are
    priced by ``price_bond``. The others are priced together:

    * every term but Z depends only on (firm, spec, t) and the price
      is linear in Z, so the terms are computed once per distinct
      (firm, spec, t) (a sweep over r0 or a rate coefficient shares one
      set) and Z once per valuation, one ``zcb_price`` call per
      distinct rate model;
    * the term sets are computed as arrays: the bivariate CDF
      elementwise and the I22/I24 tails in one quadrature pass over
      the panels of all of them.

    A term set whose quadrature runs out of its node budget is priced
    by ``price_bond``, which raises QuadratureConvergenceError with
    ``partial_terms``. An error raised here also carries
    ``batch_index``, the position in ``inputs`` of the valuation.
    """
    results: list[PriceResult | None] = [None] * len(inputs)
    scalar, batched, term_set = [], [], []
    keys: dict[tuple, int] = {}
    for i, x in enumerate(inputs):
        if x.t >= x.spec.t1 or x.spec.intensity.family == "custom":
            scalar.append(i)
        else:
            batched.append(i)
            term_set.append(keys.setdefault((x.firm, x.spec, x.t), len(keys)))
    if batched:
        terms = _term_sets(list(keys), mode, quad)
        g = np.array(term_set)
        z = _discount_bonds([inputs[i] for i in batched])
        i1 = z * terms.i1[g]
        leg = z * terms.leg[g]
        price = i1 + z * (terms.decay1 * (terms.i21 + terms.i22 + terms.i23
                                          + terms.i24))[g] + leg
        i2x = np.stack([terms.i21, terms.i22, terms.i23, terms.i24]).T.tolist()
        failed = terms.failed.tolist()
        for i, k, p, zk, i1k, legk in zip(batched, term_set, price.tolist(),
                                          z.tolist(), i1.tolist(), leg.tolist()):
            if failed[k]:
                scalar.append(i)
                continue
            breakdown = TermBreakdown(i1k, *i2x[k], expected_default=legk)
            results[i] = PriceResult(price=p, mode=mode, terms=breakdown, zcb=zk)
    for i in sorted(scalar):
        try:
            results[i] = price_bond(inputs[i], mode, quad)
        except QuadratureConvergenceError as err:
            err.batch_index = i
            raise
    return results


class _TermSets(NamedTuple):
    """Per term set: ``TermBreakdown`` with ``i1`` and ``leg`` per unit
    Z, the first-interval jump survival, and the quadrature failures."""

    i1: np.ndarray
    i21: np.ndarray
    i22: np.ndarray
    i23: np.ndarray
    i24: np.ndarray
    leg: np.ndarray
    decay1: np.ndarray
    failed: np.ndarray


def _term_sets(keys: list[tuple], mode: PricingMode,
               quad: QuadratureSpec) -> _TermSets:
    """The terms of ``price_full`` but Z for each (firm, spec, t) key,
    t < t1, of a built-in intensity.

    The alphas and the kernel parameters come from the scalar
    ``compute_alphas`` and ``_tail_params``, so each quadrature keeps
    the upper bound, and thus the panels, of the scalar route.
    """
    rows = []
    for firm, spec, t in keys:
        alphas = compute_alphas(firm, spec)
        rows.append((t, spec.t1, spec.t2, spec.R_u, spec.R_e,
                     spec.intensity(firm.V0), alphas.alpha1, alphas.alpha2,
                     spec.intensity.family == "constant"))
    t, t1, t2, R_u, R_e, lam0, a1, a2, constant = np.array(rows).T
    constant = constant.astype(bool)

    decay1 = np.exp(-lam0 * (t1 - t))
    n_surv1 = ndtr(a1)
    probs = _barrier_probabilities(a1, a2, t1, t2, mode, n_surv1)
    i21, i23 = _i21_i23(R_u, R_e, mode, probs)
    coefficients = _i22_i24_coefficients(R_u, R_e, mode)
    # lam0 is lambda0 for a constant intensity.
    tails = np.where(constant, np.exp(-lam0 * (t2 - t1)), 0.0) * np.stack(probs)
    failed = np.zeros(len(keys), dtype=bool)
    q = np.flatnonzero(~constant & ((coefficients[0] != 0.0)
                                    | (coefficients[1] != 0.0)))
    if len(q):
        # Every non-constant intensity here is log-reciprocal.
        intensity = keys[q[0]][1].intensity
        params = np.array([(a2[j], *_tail_params(*keys[j][:2], mode)) for j in q]).T

        def kernels(nodes):
            return _tail_rows(nodes.x, intensity, *(p[nodes.owner] for p in params))

        try:
            tails[:, q] = integrate_left_tail(kernels, a1[q], quad)
        except QuadratureConvergenceError as err:
            tails[:, q] = err.estimate
            failed[q] = err.failed
    i22, i24 = _i22_i24_terms(coefficients, tails)
    return _TermSets(
        i1=R_u * (1.0 - decay1) * n_surv1, i21=i21, i22=i22, i23=i23, i24=i24,
        leg=_default_leg(R_u, R_e, mode, 1.0, decay1, ndtr(-a1)), decay1=decay1,
        failed=failed)


def _discount_bonds(points: list[PricingInputs]) -> np.ndarray:
    """Z(r, t) of each valuation: one ``zcb_price`` call per distinct
    rate model, on arrays when the model has several valuations."""
    groups: dict[ShortRateModel, list[int]] = {}
    for j, x in enumerate(points):
        groups.setdefault(x.rate_model, []).append(j)
    z = np.empty(len(points))
    for model, js in groups.items():
        if len(js) == 1:
            z[js[0]] = zcb_price(model, points[js[0]].r, points[js[0]].t)
        else:
            z[js] = zcb_price(model, np.array([points[j].r for j in js]),
                              np.array([points[j].t for j in js]))
    return z


def credit_spread(
    inputs: PricingInputs,
    mode: PricingMode = PricingMode.CORRECTED,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Continuously compounded yield spread over the default-free bond.

    -ln(price / Z) / (t2 - t), floored at zero against roundoff when
    the price equals the discount bond exactly. A price of zero
    (default certain, nothing recovered) has an infinite spread.
    """
    return _spread(price_bond(inputs, mode, quad), inputs.spec.t2 - inputs.t)


def _spread(result: PriceResult, horizon: float) -> float:
    """``credit_spread`` of a priced result over ``horizon`` = t2 - t."""
    if result.price <= 0.0:
        return math.inf
    return max(-math.log(result.price / result.zcb) / horizon, 0.0)
