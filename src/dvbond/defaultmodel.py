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
probability zero under the lognormal law). A declared value that
underflows to 0 takes its limit: no breach of a barrier of 0, which
the lognormal value never reaches, and the intensity that
``IntensityFunction`` alone gives at V = 0; one that overflows to inf
takes the intensity it gives at V = inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .mathkit import _require_finite, log_ratio, normal_cdf

__all__ = [
    "FirmModel",
    "IntensityFunction",
    "DefaultSpec",
    "survival_prob",
]

# Probe of user-supplied intensities: their limits at V = 0 and V = inf
# around a log-spaced grid.
_CUSTOM_PROBE = np.r_[0.0, np.logspace(-6.0, 6.0, 61), np.inf]


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
        decreasing, vanishing for large V and inf at V = 0 (as below
        ~5.6e-309, where 1/V overflows);
      * ``constant`` - lambda(V) = lambda0 >= 0;
      * ``custom`` - any nonnegative, hashable callable of V (must
        accept numpy arrays). Its values at V = 0 and V = inf are the
        limits an underflowed or overflowed V takes: nonnegative, inf
        allowed, probed with a log grid at construction, and a NaN or
        negative one is rejected there, naming its end.

    Two intensities are equal when their family, lambda0 and callable
    are: custom intensities of different callables differ, so the
    pricer never shares a term set between them.
    """

    family: str
    lambda0: float = 0.0
    fn: Callable | None = None

    def __post_init__(self):
        if self.family not in ("log_reciprocal", "constant", "custom"):
            raise ValueError(f"unknown intensity family {self.family!r}")
        _require_finite(self, ("lambda0",))
        if self.family == "constant" and self.lambda0 < 0.0:
            raise ValueError(f"lambda0 must be nonnegative, got {self.lambda0}")
        if self.family == "custom":
            if self.fn is None:
                raise ValueError("custom intensity needs a callable")
            try:
                hash(self.fn)
            except TypeError:
                raise ValueError("custom intensity needs a hashable callable") from None
            with np.errstate(all="ignore"):  # a NaN is reported below
                probe = np.asarray(self.fn(_CUSTOM_PROBE), dtype=float)
            if probe.shape != _CUSTOM_PROBE.shape:
                raise ValueError("custom intensity must map arrays elementwise")
            for end, limit in (("0", probe[0]), ("inf", probe[-1])):
                if not limit >= 0.0:
                    raise ValueError(f"custom intensity must have a nonnegative limit "
                                     f"(inf allowed) at V = {end}, got {limit}")
            if not np.all((probe[1:-1] >= 0.0) & (probe[1:-1] < np.inf)):
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
            if not V >= 0.0:
                raise ValueError("intensity requires V >= 0")
            return self.lambda0 if self.family == "constant" \
                else math.log1p(1.0 / V) if V > 0.0 else math.inf
        V_arr = np.asarray(V, dtype=float)
        if not np.all(V_arr >= 0.0):
            raise ValueError("intensity requires V >= 0")
        with np.errstate(over="ignore", divide="ignore"):
            out = self._unchecked(V_arr)
        return float(out) if out.ndim == 0 else out

    def _unchecked(self, V: np.ndarray) -> np.ndarray:
        """lambda(V) of an array V >= 0, unchecked. 1/V divides by zero
        at V = 0 and overflows below ~5.6e-309: callers ignore both."""
        if self.family == "constant":
            return np.full_like(V, self.lambda0)
        return np.log1p(1.0 / V) if self.family == "log_reciprocal" \
            else np.asarray(self.fn(V), dtype=float)


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


def survival_prob(fm: FirmModel, V_now: float, K: float, tau: float) -> float:
    """Probability that the firm value exceeds barrier K after tau years.

    N(d) for the standardized log-distance
    d = [ln(V_now/K) + (mu - b - s_V^2/2) tau] / (s_V sqrt(tau));
    exactly 1 for K = 0 (the GBM stays positive). The log-distance is
    ln V_now - ln K where V_now/K underflows, as it does for a tiny
    declared value.
    """
    if K < 0.0:
        raise ValueError(f"barrier must be >= 0, got {K}")
    if K == 0.0:
        return 1.0
    if not V_now > 0.0:
        raise ValueError(f"V must be positive, got {V_now}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return normal_cdf((log_ratio(V_now, K) + fm.log_drift * tau)
                      / (fm.s_V * math.sqrt(tau)))
