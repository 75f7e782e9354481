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

``price_bond`` prices one valuation; ``price_batch`` prices many. Every
term but Z depends only on (firm, spec, t) and the price is linear in
Z, so one function, ``_term_sets``, computes the terms per unit Z of
each distinct (firm, spec, t): scalar ``math`` per term set, except
for one quadrature pass over the I22/I24 tails of all of them.
``price_full`` is that function on one term set times Z.

Two pricing modes exist because the historically printed closed form
disagrees with the exact expectation of the model in three places, and
the disagreements are instructive enough to keep evaluable. Both modes
run the same code; each has one ``_Convention`` record, looked up once
per price, and the three places map onto its two fields:

* Region orientation: ``sign``. Averaging over the first declared
  value restricts to {V1 > K1}, i.e. to Brownian displacements ABOVE
  -alpha1. Rewriting that as a left tail up to +alpha1 requires
  reflecting the integrand (x -> -x), orientation s = -1; the printed
  form flips the region but keeps the unreflected integrand, s = +1,
  which couples the two announcement checks with the wrong sign (its
  survive-both probability can fall below the independence bound
  N(a1) * N(a2)). The bivariate correlation is -s sqrt(t1/t2).
* Default-branch grouping: ``breach``. A breach branch is valued
  floor + coefficient * F. At maturity the exact value is
  R_u + (R_e - R_u) * F; the printed form carries
  R_e * (R_u + (1 - R_u) * F), i.e. floor R_u R_e and coefficient
  R_e (1 - R_u). They coincide only when R_u (1 - R_e) (1 - F) = 0.
  The floor is the I23 coefficient, the jump-survival coefficient the
  I24 one.
* First-barrier leg: ``breach`` again. The same grouping at the first
  announcement gives Z * [floor + coefficient * e^{-lambda(V0)(t1-t)}]
  * N(-alpha1): exact Z * [R_u + (R_e - R_u) e^{...}] * N(-alpha1)
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
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import ndtr

from . import mathkit
from .defaultmodel import DefaultSpec, FirmModel, survival_prob
from .mathkit import (
    DEFAULT_QUADRATURE,
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
    "price_last_interval",
    "compute_alphas",
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
class _Convention:
    """How a pricing mode evaluates the closed form (module docs).

    ``sign`` is the orientation s: the first-interval kernels are
    F(s x) N(alpha2 + s c x) and the bivariate correlation is
    -s sqrt(t1/t2). ``breach`` maps (R_u, R_e) to the (floor,
    jump-survival coefficient) of a barrier-breach branch.
    """

    sign: float
    breach: Callable


_CORRECTED = _Convention(sign=-1.0, breach=lambda R_u, R_e: (R_u, R_e - R_u))
_CONVENTIONS = {
    PricingMode.CORRECTED: _CORRECTED,
    PricingMode.PAPER_LITERAL: _Convention(
        sign=1.0, breach=lambda R_u, R_e: (R_u * R_e, R_e * (1.0 - R_u))),
}


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
    Z * exp(-lambda(V0) (t1 - t)). With c = sqrt(t1/(t2-t1)), CORRECTED
    pairs the left-tail region with the reflected integrand (the exact
    expectation over {V1 > K1}), so the floor R_u splits over the exact
    joint law and I21 + I23 = R_u * N(alpha1):

        I21 = R_u         * N2(alpha1,  alpha2 : M-)
        I22 = (1 - R_u)   * int F(-x) N( alpha2 - c x) phi(x) dx
        I23 = R_u         * N2(alpha1, -alpha2 : M+)
        I24 = (R_e - R_u) * int F(-x) N(-alpha2 + c x) phi(x) dx

    where ``i24`` may be negative (R_e < R_u). PAPER_LITERAL keeps the
    printed assignment and kernels:

        I21 = R_u             * N2(alpha1,  alpha2 : M+)
        I22 = (1 - R_u)       * int F(x) N( alpha2 + c x) phi(x) dx
        I23 = R_u * R_e       * N2(alpha1, -alpha2 : M-)
        I24 = (1 - R_u) * R_e * int F(x) N(-alpha2 - c x) phi(x) dx

    The integrals run over the left tail x < alpha1. The I23 and I24
    coefficients are the breach (floor, coefficient) of the mode's
    convention. With a constant intensity F factors out of I22 and
    I24, leaving F times the bivariate probabilities of I21 and I23.
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

    ``legs`` splits the price as the Monte Carlo oracle splits it, in
    price units, keyed by the tuple of ``mcoracle.LEG_NAMES`` each leg
    covers; the legs sum to the price up to roundoff:

        ("survive_both", "unexpected_leg2")  Z e^{-lambda(V0)(t1-t)} (I21 + I22)
        ("expected_t2",)                     Z e^{-lambda(V0)(t1-t)} (I23 + I24)
        ("unexpected_leg1",)                 I1
        ("expected_t1",)                     the first-barrier leg

    I21 + I22 does not split survival from a jump before t2, so the
    first leg covers both. ``terms`` and ``legs`` are None when the
    valuation fell in the post-announcement regime (t >= t1), where the
    closed form is a two-branch expression with no integral
    decomposition.
    """

    price: float
    mode: PricingMode
    terms: TermBreakdown | None
    zcb: float
    legs: dict[tuple[str, ...], float] | None = None


def price_last_interval(inputs: PricingInputs) -> float:
    """Bond price between the announcements, given the declared V1.

    The maturity barrier check uses the lognormal transition anchored
    at the announcement (the declared value is the only firm
    information available), so the survival probability is
    N[d_minus(V1/K2, t2 - t1)] regardless of the valuation time.
    """
    spec = inputs.spec
    if not spec.t1 <= inputs.t < spec.t2:
        raise ValueError(
            f"valuation time must lie in [{spec.t1}, {spec.t2}), got {inputs.t}"
        )
    return _last_interval(inputs, zcb_price(inputs.rate_model, inputs.r, inputs.t))


def _last_interval(inputs: PricingInputs, z: float) -> float:
    """``price_last_interval`` for the discount bond z; t >= t1, so
    ``PricingInputs`` has checked that V1 > 0."""
    return z * _interval_factor(_CORRECTED, inputs.firm, inputs.spec, inputs.V1, inputs.t)


def _interval_factor(conv: _Convention, firm: FirmModel, spec: DefaultSpec,
                     V1: float, t: float) -> float:
    """Value factor at t in [t1, t2) given the declared V1: the price is
    Z(r, t) times it.

    The maturity branches are valued R_u + (1 - R_u) F cleared and
    floor + coefficient * F breached, F = e^{-lambda(V1)(t2 - t)}, and
    weighted by the maturity survival N[d_minus(V1/K2, t2 - t1)]. In
    the exact grouping each branch solves the one-factor decay equation
    backward from its terminal payoff (1 cleared, R_e breached). At
    t = t1 this is the announcement-date factor that I21 + ... + I24
    average over V1 on {V1 > K1}, exactly for CORRECTED and in the
    printed grouping for PAPER_LITERAL.
    """
    decay = math.exp(-spec.intensity(V1) * (spec.t2 - t))
    surv = survival_prob(firm, V1, spec.K2, spec.t2 - spec.t1)
    floor, coefficient = conv.breach(spec.R_u, spec.R_e)
    return ((spec.R_u + (1.0 - spec.R_u) * decay) * surv
            + (floor + coefficient * decay) * (1.0 - surv))


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


def _barrier_probabilities(alpha1: float, alpha2: float, t1: float, t2: float,
                           sign: float, n_surv1: float) -> tuple[float, float]:
    """The two bivariate probabilities of the decomposition.

    First the one I21 (and, for a constant intensity, I22) weights,
    then the one of I23 (and I24). In the quadratic-form
    parameterization they are N2(alpha1, alpha2 : M) and
    N2(alpha1, -alpha2 : M') for the unit-determinant matrices
    M+/- = [[t2 / (t2 - t1), +/-c], [+/-c, 1]], c = sqrt(t1 / (t2 - t1)):
    CORRECTED pairs M- with M+, PAPER_LITERAL M+ with M-. N2(alpha1,
    alpha2 : M) is the standard bivariate normal CDF at
    (alpha1, alpha2 sqrt((t2 - t1) / t2)) with correlation
    -s sqrt(t1/t2) for the orientation sign s. The two matrices differ
    only in the sign of the coupling, so the pair sums to
    N(alpha1) = ``n_surv1`` and the second is ``n_surv1`` minus the
    first.
    """
    n_up = mathkit.bvn_cdf(alpha1, alpha2 * ((t2 - t1) / t2) ** 0.5,
                           -sign * (t1 / t2) ** 0.5)
    return n_up, n_surv1 - n_up


def _tail_params(firm: FirmModel, spec: DefaultSpec, sign: float):
    """The parameters of ``_tail_rows`` after alpha2: delta = t2 - t1,
    the mean of ln V1, s s_V sqrt(t1) and s c."""
    delta = spec.t2 - spec.t1
    return (delta, math.log(firm.V0) + firm.log_drift * spec.t1,
            sign * firm.s_V * math.sqrt(spec.t1), sign * math.sqrt(spec.t1 / delta))


def _tail_rows(x, intensity, alpha2, delta, log_v1, scale, sc) -> np.ndarray:
    """The I22 and I24 kernels at the nodes x, F(s x) N(alpha2 + s c x)
    and F(s x) minus it; parameters are floats, or arrays that broadcast
    against x."""
    # For a huge drift V1 overflows to inf at the far nodes, where the
    # intensity is 0 and F = 1, the exact limit. For a huge negative one
    # V1 underflows to 0 and the log-reciprocal ln(1 + 1/V1) to inf, so
    # F = 0; there ln V1 < -709 and the exact F is below e^{-709 delta}.
    # The log-reciprocal is evaluated here, as IntensityFunction rejects
    # V1 = 0; the limit of a custom intensity there is unknown.
    with np.errstate(over="ignore", divide="ignore"):
        v1 = np.exp(log_v1 + scale * x)
        if intensity.family == "custom" and not np.all(v1 > 0.0):
            raise ValueError("custom intensity: V1 underflows to 0 on the quadrature "
                             "nodes (firm drift mu too negative)")
        lam = np.log1p(1.0 / v1) if intensity.family == "log_reciprocal" \
            else intensity(v1)
    F = np.exp(-delta * lam)
    up = F * ndtr(alpha2 + sc * x)
    return np.array([up, F - up])


class _Terms(NamedTuple):
    """The terms of one (firm, spec, t): ``TermBreakdown`` with ``i1``
    and ``leg`` per unit Z, the first-interval jump survival
    e^{-lambda(V0)(t1 - t)}, and the QuadratureConvergenceError of a
    term set whose I22/I24 tails ran out of their node budget."""

    i1: float
    i21: float
    i22: float
    i23: float
    i24: float
    leg: float
    decay1: float
    error: QuadratureConvergenceError | None = None


def _term_sets(keys: list[tuple], conv: _Convention,
               quad: QuadratureSpec) -> list[_Terms]:
    """The terms of ``price_full`` per unit Z of each (firm, spec, t)
    key, t < t1.

    Each term set is scalar ``math`` but for the I22/I24 tails of a
    non-constant intensity with a nonzero coefficient. The tails of all
    keys take one ``integrate_left_tail`` call: over a float bound when
    one key needs them (the cheaper loop, that of a single price), else
    over the array of bounds, whose keys then share one intensity
    (``price_batch`` prices custom intensities one by one). Each bound
    keeps the panels of a call of its own, so the two differ only in
    summation order. Adding 0.0 to I22 and I24 turns the -0.0 of a
    negative coefficient times an empty tail (alpha1 below the cutoff,
    or no maturity barrier for I24) into 0.0.
    """
    rows, tails = [], []
    for firm, spec, t in keys:
        alphas = compute_alphas(firm, spec)
        decay1 = math.exp(-spec.intensity(firm.V0) * (spec.t1 - t))
        n_surv1 = normal_cdf(alphas.alpha1)
        floor, coefficient = conv.breach(spec.R_u, spec.R_e)
        probs = _barrier_probabilities(alphas.alpha1, alphas.alpha2, spec.t1, spec.t2,
                                       conv.sign, n_surv1)
        coefficients = 1.0 - spec.R_u, coefficient
        i22 = i24 = 0.0
        if spec.intensity.family == "constant":
            F = math.exp(-spec.intensity.lambda0 * (spec.t2 - spec.t1))
            i22 = coefficients[0] * F * probs[0] + 0.0
            i24 = coefficients[1] * F * probs[1] + 0.0
        elif coefficients != (0.0, 0.0):
            tails.append((len(rows), coefficients, alphas.alpha1,
                          (alphas.alpha2, *_tail_params(firm, spec, conv.sign))))
        rows.append(_Terms(
            i1=spec.R_u * (1.0 - decay1) * n_surv1, i21=spec.R_u * probs[0], i22=i22,
            i23=floor * probs[1], i24=i24,
            leg=(floor + coefficient * decay1) * normal_cdf(-alphas.alpha1),
            decay1=decay1))
    if tails:
        index, pairs, bounds, params = zip(*tails)
        intensity = keys[index[0]][1].intensity
        if len(tails) == 1:
            bound = bounds[0]

            def kernel(x):
                return _tail_rows(x, intensity, *params[0])
        else:
            bound = np.array(bounds)
            columns = np.array(params).T

            def kernel(nodes):
                return _tail_rows(nodes.x, intensity, *(p[nodes.owner] for p in columns))
        errors = [None] * len(tails)
        try:
            estimate = integrate_left_tail(kernel, bound, quad)
        except QuadratureConvergenceError as err:
            estimate, errors = err.estimate, [err if bad else None for bad in err.failed]
        for k, (c22, c24), (tail22, tail24), error in zip(
                index, pairs, estimate.reshape(2, -1).T.tolist(), errors):
            rows[k] = rows[k]._replace(i22=c22 * tail22 + 0.0, i24=c24 * tail24 + 0.0,
                                       error=error)
    return rows


def _priced(terms: _Terms, z: float, mode: PricingMode) -> PriceResult:
    """The ``PriceResult`` of a term set at the discount bond z."""
    breakdown = TermBreakdown(z * terms.i1, terms.i21, terms.i22, terms.i23,
                              terms.i24, z * terms.leg)
    price = breakdown.i1 + z * terms.decay1 * breakdown.i2_total + breakdown.expected_default
    legs = {("survive_both", "unexpected_leg2"): z * terms.decay1 * (terms.i21 + terms.i22),
            ("expected_t2",): z * terms.decay1 * (terms.i23 + terms.i24),
            ("unexpected_leg1",): breakdown.i1,
            ("expected_t1",): breakdown.expected_default}
    return PriceResult(price=price, mode=mode, terms=breakdown, zcb=z, legs=legs)


def expected_default_leg(inputs: PricingInputs,
                         mode: PricingMode = PricingMode.CORRECTED) -> float:
    """First-barrier-breach leg of the pre-announcement price,
    Z * [floor + coefficient * e^{-lambda(V0)(t1-t)}] * N(-alpha1) with
    the breach grouping of the mode (module docs)."""
    return price_full(inputs, mode).terms.expected_default


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
    terms = _term_sets([(inputs.firm, spec, inputs.t)], _CONVENTIONS[mode], quad)[0]
    if terms.error is not None:
        terms.error.partial_terms = {"i1": z * terms.i1,
                                     "expected_default": z * terms.leg, "zcb": z}
        raise terms.error
    return _priced(terms, z, mode)


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
    return PriceResult(price=_last_interval(inputs, z), mode=mode,
                       terms=None, zcb=z)


def price_batch(
    inputs: Sequence[PricingInputs],
    mode: PricingMode = PricingMode.CORRECTED,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> list[PriceResult]:
    """``price_bond`` of many valuations, in input order.

    Equals ``[price_bond(x, mode, quad) for x in inputs]`` up to
    roundoff. Valuations at or after t1 and custom intensities are
    priced by ``price_bond``. Every term of the others but Z depends
    only on (firm, spec, t) and the price is linear in Z, so
    ``_term_sets`` computes the terms once per distinct (firm, spec, t)
    (a sweep over r0 or a rate coefficient shares one set), with the
    I22/I24 tails of all of them in one quadrature pass, and Z is
    computed once per valuation, one ``zcb_price`` call per distinct
    rate model.

    A term set whose quadrature runs out of its node budget is priced
    by ``price_bond``, which raises QuadratureConvergenceError with
    ``partial_terms``. That error, and the ``ValueError`` of a discount
    bond whose exponent overflows, also carry ``batch_index``, the
    position in ``inputs`` of the valuation.
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
        terms = _term_sets(list(keys), _CONVENTIONS[mode], quad)
        try:
            z = _discount_bonds([inputs[i] for i in batched])
        except ValueError as err:
            err.batch_index = batched[err.batch_index]
            raise
        for i, k, zk in zip(batched, term_set, z.tolist()):
            if terms[k].error is None:
                results[i] = _priced(terms[k], zk, mode)
            else:
                scalar.append(i)
    for i in sorted(scalar):
        try:
            results[i] = price_bond(inputs[i], mode, quad)
        except (QuadratureConvergenceError, ValueError) as err:
            err.batch_index = i
            raise
    return results


def _discount_bonds(points: list[PricingInputs]) -> np.ndarray:
    """Z(r, t) of each valuation: one ``zcb_price`` call per distinct
    rate model, on arrays when the model has several valuations.

    A ``ValueError`` carries ``batch_index``, the position in ``points``
    of the valuation whose Z fails: a group that fails on arrays is
    priced again one valuation at a time.
    """
    groups: dict[ShortRateModel, list[int]] = {}
    for j, x in enumerate(points):
        groups.setdefault(x.rate_model, []).append(j)
    z = np.empty(len(points))
    for model, js in groups.items():
        if len(js) > 1:
            try:
                z[js] = zcb_price(model, np.array([points[j].r for j in js]),
                                  np.array([points[j].t for j in js]))
                continue
            except ValueError:
                pass
        for j in js:
            try:
                z[j] = zcb_price(model, points[j].r, points[j].t)
            except ValueError as err:
                err.batch_index = j
                raise
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
    spread = -math.log(result.price / result.zcb) / horizon
    # Not max(spread, 0.0), which keeps the -0.0 of a par price.
    return spread if spread > 0.0 else 0.0
