"""Pricing of corporate bonds whose issuer declares its firm value
only at discrete announcement dates.

The library combines a barrier (structural) default check at each
announcement date with a jump (reduced-form) default whose hazard rate
is set by the last declared value, under a mean-reverting Gaussian
short rate. It ships a closed-form pricer with a full term
decomposition, an independent Monte Carlo engine for validation, and a
scenario-file command line (``dvbond``).
"""

from .defaultmodel import (
    DefaultSpec,
    FirmModel,
    IntensityFunction,
    d_minus,
    firm_value_step,
    survival_prob,
)
from .mathkit import (
    QuadFormMatrix,
    QuadratureConvergenceError,
    QuadratureSpec,
    bivariate_cdf_bruteforce,
    bivariate_cdf_quadform,
    integrate_left_tail,
    normal_cdf,
)
from .mcoracle import McConfig, McEstimate, simulate_price
from .pricer import (
    Alpha,
    PriceResult,
    PricingInputs,
    PricingMode,
    TermBreakdown,
    compute_alphas,
    credit_spread,
    expected_default_leg,
    f_factor,
    g_components,
    interval_factor_u1,
    price_batch,
    price_bond,
    price_full,
    price_last_interval,
    term_I21_I23,
    term_I22_I24,
)
from .ratecurve import PiecewiseConstant, ShortRateModel, coeff_A, coeff_B, zcb_price

__version__ = "0.1.0"

__all__ = [
    "Alpha",
    "DefaultSpec",
    "FirmModel",
    "IntensityFunction",
    "McConfig",
    "McEstimate",
    "PiecewiseConstant",
    "PriceResult",
    "PricingInputs",
    "PricingMode",
    "QuadFormMatrix",
    "QuadratureConvergenceError",
    "QuadratureSpec",
    "ShortRateModel",
    "TermBreakdown",
    "bivariate_cdf_bruteforce",
    "bivariate_cdf_quadform",
    "coeff_A",
    "coeff_B",
    "compute_alphas",
    "credit_spread",
    "d_minus",
    "expected_default_leg",
    "f_factor",
    "firm_value_step",
    "g_components",
    "integrate_left_tail",
    "interval_factor_u1",
    "normal_cdf",
    "price_batch",
    "price_bond",
    "price_full",
    "price_last_interval",
    "simulate_price",
    "survival_prob",
    "term_I21_I23",
    "term_I22_I24",
    "zcb_price",
]
