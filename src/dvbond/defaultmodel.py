"""Firm-value dynamics, default intensity, barriers and recoveries.

The firm value follows a geometric Brownian motion

    dV(t) = (mu - b) V dt + s_V V dW(t)

and is declared publicly only at two announcement dates t1 < t2 = T.
Between announcements, sudden (jump) default arrives with a constant
hazard rate set by the last declared value through an intensity
function lambda(V); the built-in decreasing family is

    lambda(V) = ln(1 + 1/V)

which fades to zero for large firms. At each announcement date the
declared value is also checked against a barrier K_i; falling to or
below the barrier triggers default with recovery R_e times the
default-free bond, while jump default pays R_u times it.

Barriers are monitored only at the announcement dates, not
continuously; the barrier comparison uses <= (the boundary event has
probability zero under the lognormal law).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .mathkit import normal_cdf

__all__ = [
    "FirmModel",
    "IntensityFunction",
    "DefaultSpec",
    "d_minus",
    "survival_prob",
]

# Log-spaced probe used to sanity-check user-supplied intensities.
_CUSTOM_PROBE = np.logspace(-6.0, 6.0, 61)


def _require_finite(obj, names: tuple[str, ...]) -> None:
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class FirmModel:
    """Declared-firm-value GBM: initial value, drift, payout, volatility."""

    V0: float
    mu: float
    b: float
    s_V: float

    def __post_init__(self):
        _require_finite(self, ("V0", "mu", "b", "s_V"))
        if not self.V0 > 0.0:
            raise ValueError(f"V0 must be positive, got {self.V0}")
        if not self.s_V > 0.0:
            raise ValueError(f"s_V must be positive, got {self.s_V}")
        try:
            self.log_drift  # squares s_V
        except OverflowError:
            raise ValueError("s_V must be at most ~1.3e154 (s_V^2 overflows), "
                             f"got {self.s_V}") from None

    @property
    def log_drift(self) -> float:
        """Drift of log V per year: mu - b - s_V^2 / 2."""
        return self.mu - self.b - 0.5 * self.s_V**2


@dataclass(frozen=True)
class IntensityFunction:
    """Hazard rate of sudden default as a function of declared firm value.

    Families:
      * ``log_reciprocal`` - lambda(V) = ln(1 + 1/V), strictly
        decreasing, vanishing for large V;
      * ``constant`` - lambda(V) = lambda0 >= 0;
      * ``custom`` - any nonnegative callable of V (must accept numpy
        arrays); probed on a log grid at construction.
    """

    family: str
    lambda0: float = 0.0
    fn: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.family not in ("log_reciprocal", "constant", "custom"):
            raise ValueError(f"unknown intensity family {self.family!r}")
        _require_finite(self, ("lambda0",))
        if self.family == "constant" and self.lambda0 < 0.0:
            raise ValueError(f"lambda0 must be nonnegative, got {self.lambda0}")
        if self.family == "custom":
            if self.fn is None:
                raise ValueError("custom intensity needs a callable")
            probe = np.asarray(self.fn(_CUSTOM_PROBE), dtype=float)
            if probe.shape != _CUSTOM_PROBE.shape:
                raise ValueError("custom intensity must map arrays elementwise")
            if not np.all(np.isfinite(probe)) or np.any(probe < 0.0):
                raise ValueError(
                    "custom intensity must be finite and nonnegative on V > 0"
                )

    @classmethod
    def log_reciprocal(cls) -> "IntensityFunction":
        return cls("log_reciprocal")

    @classmethod
    def constant(cls, lambda0: float) -> "IntensityFunction":
        return cls("constant", lambda0=float(lambda0))

    @classmethod
    def custom(cls, fn: Callable) -> "IntensityFunction":
        return cls("custom", fn=fn)

    def __call__(self, V):
        if isinstance(V, (int, float)) and self.family != "custom":
            if not V > 0.0:
                raise ValueError("intensity requires V > 0")
            return math.log1p(1.0 / V) if self.family == "log_reciprocal" \
                else self.lambda0
        V_arr = np.asarray(V, dtype=float)
        if np.any(V_arr <= 0.0):
            raise ValueError("intensity requires V > 0")
        if self.family == "log_reciprocal":
            out = np.log1p(1.0 / V_arr)
        elif self.family == "constant":
            out = np.full_like(V_arr, self.lambda0)
        else:
            out = np.asarray(self.fn(V_arr), dtype=float)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DefaultSpec:
    """Announcement dates, barriers, recoveries and the intensity map.

    t1 < t2 are the announcement dates (t2 is the bond maturity),
    K1/K2 the barriers checked there, R_u/R_e the recovery fractions
    for sudden and barrier default respectively.
    """

    t1: float
    t2: float
    K1: float
    K2: float
    R_u: float
    R_e: float
    intensity: IntensityFunction = field(default_factory=IntensityFunction.log_reciprocal)

    def __post_init__(self):
        _require_finite(self, ("t1", "t2", "K1", "K2", "R_u", "R_e"))
        if not 0.0 < self.t1 < self.t2:
            raise ValueError(f"need 0 < t1 < t2, got t1={self.t1}, t2={self.t2}")
        if self.K1 < 0.0 or self.K2 < 0.0:
            raise ValueError(f"barriers must be >= 0, got K1={self.K1}, K2={self.K2}")
        for name in ("R_u", "R_e"):
            r = getattr(self, name)
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {r}")


def d_minus(x_over_K: float, fm: FirmModel, tau: float) -> float:
    """Standardized log-distance to a barrier over a horizon tau.

    [ln(x/K) + (mu - b - s_V^2/2) tau] / (s_V sqrt(tau)).
    """
    if not x_over_K > 0.0:
        raise ValueError(f"x/K must be positive, got {x_over_K}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return (math.log(x_over_K) + fm.log_drift * tau) / (fm.s_V * math.sqrt(tau))


def survival_prob(fm: FirmModel, V_now: float, K: float, tau: float) -> float:
    """Probability that the firm value exceeds barrier K after tau years.

    N[d_minus(V_now/K, tau)]; exactly 1 for K = 0 (the GBM stays
    positive).
    """
    if K < 0.0:
        raise ValueError(f"barrier must be >= 0, got {K}")
    if K == 0.0:
        return 1.0
    return normal_cdf(d_minus(V_now / K, fm, tau))
