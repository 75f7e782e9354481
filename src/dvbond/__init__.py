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
    survival_prob,
)
from .mathkit import (
    QuadratureConvergenceError,
    QuadratureSpec,
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
    expected_default_leg,
    price_batch,
    price_bond,
    price_full,
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
    "QuadratureConvergenceError",
    "QuadratureSpec",
    "ShortRateModel",
    "TermBreakdown",
    "coeff_A",
    "coeff_B",
    "compute_alphas",
    "expected_default_leg",
    "integrate_left_tail",
    "normal_cdf",
    "price_batch",
    "price_bond",
    "price_full",
    "simulate_price",
    "survival_prob",
    "zcb_price",
]
