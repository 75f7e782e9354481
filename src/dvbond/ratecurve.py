"""Default-free zero-coupon bond under a mean-reverting affine short rate.

The short rate follows

    dr(t) = (a1(t) - a2(t) * r) dt + s_r(t) dW(t)

with a2(t) > 0 and s_r(t) >= 0, all three coefficients piecewise
constant in time (constants being the classic Vasicek case). The
discount bond maturing at T is affine,

    Z(r, t) = exp(A(t) - B(t) * r),

where B solves B' = a2(t) * B - 1 backward from B(T) = 0 and

    A(t) = -int_t^T [ a1(u) * B(u) - s_r(u)^2 * B(u)^2 / 2 ] du.

Both coefficients are in closed form segment by segment. On a
constant-coefficient segment with level l, reversion a and volatility
s whose right edge e carries B(e) = beta and A(e), a time t = e - tau
inside it has

    B(t) = beta * exp(-a tau) + R(a)
    A(t) = A(e) + A0(l, a, s, tau) - l beta R(a)
           + s^2 / 2 * (beta^2 R(2a) + beta R(a)^2)

with R(x) = (1 - exp(-x tau)) / x and A0 the constant-coefficient A
over tau (the beta = 0 case). The values at the segment edges are
swept backward from maturity once per model and cached.

``paper_literal_a`` is a diagnostic switch that builds A from the
mean-reversion coefficient a2 instead of the drift level a1. That
variant is NOT a solution of the discount-bond equation (the PDE
residual check exposes it); it exists so the discrepancy between the
two conventions can be demonstrated from the command line.

All functions accept scalar or ndarray times and are pure. A float
time (and, for ``zcb_price``, a float rate) takes a scalar path in
``math``; arrays are evaluated elementwise with numpy.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "PiecewiseConstant",
    "ShortRateModel",
    "coeff_A",
    "coeff_B",
    "zcb_price",
]

# Below this value of a2*(T-t) the closed forms switch to Taylor series
# to dodge catastrophic cancellation.
_SMALL_B = 1e-6
_SMALL_A = 1e-4

# Largest x with a finite exp(x).
_MAX_EXP = math.log(np.finfo(float).max)


def _require_finite(name: str, values) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-continuous step function of time.

    ``values[i]`` applies on [breakpoints[i-1], breakpoints[i]), with
    values[0] before the first breakpoint and values[-1] after the last.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _require_finite("breakpoints", self.breakpoints)
        _require_finite("values", self.values)
        if len(self.values) != len(self.breakpoints) + 1:
            raise ValueError(
                f"need {len(self.breakpoints) + 1} values for "
                f"{len(self.breakpoints)} breakpoints, got {len(self.values)}"
            )
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @classmethod
    def constant(cls, value: float) -> "PiecewiseConstant":
        return cls((), (float(value),))

    @property
    def is_constant(self) -> bool:
        return len(self.breakpoints) == 0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(np.asarray(self.breakpoints), t, side="right")
        out = np.asarray(self.values)[idx]
        return float(out) if out.ndim == 0 else out


def _as_step(name: str, f) -> PiecewiseConstant:
    if isinstance(f, PiecewiseConstant):
        return f
    _require_finite(name, (float(f),))
    return PiecewiseConstant.constant(f)


class _SegmentTable(NamedTuple):
    """Constant-coefficient spans 0 = e0 < ... < em = T and A, B at the edges.

    ``level`` is a1 per segment (a2 under ``paper_literal_a``).
    """

    edges: tuple[float, ...]
    level: tuple[float, ...]
    a2: tuple[float, ...]
    s_r: tuple[float, ...]
    b_edges: tuple[float, ...]
    a_edges: tuple[float, ...]


@dataclass(frozen=True)
class ShortRateModel:
    """Affine short-rate model coefficients and bond maturity.

    a1 : drift level (rate units / year)
    a2 : mean-reversion speed (1/year), must stay positive
    s_r : rate volatility (rate units / sqrt(year)), nonnegative
    maturity : discount-bond maturity T in years
    paper_literal_a : diagnostic A-convention switch (see module docs)
    """

    a1: PiecewiseConstant | float
    a2: PiecewiseConstant | float
    s_r: PiecewiseConstant | float
    maturity: float
    paper_literal_a: bool = False

    def __post_init__(self):
        for name in ("a1", "a2", "s_r"):
            object.__setattr__(self, name, _as_step(name, getattr(self, name)))
        object.__setattr__(self, "maturity", float(self.maturity))
        _require_finite("maturity", (self.maturity,))
        if not self.maturity > 0.0:
            raise ValueError(f"maturity must be positive, got {self.maturity}")
        for name in ("a1", "a2", "s_r"):
            bps = getattr(self, name).breakpoints
            if any(b <= 0.0 or b >= self.maturity for b in bps):
                raise ValueError(
                    f"{name} breakpoints must lie strictly inside "
                    f"(0, {self.maturity}), got {bps}"
                )
        # With every breakpoint inside (0, T), each value applies somewhere.
        if any(v <= 0.0 for v in self.a2.values):
            raise ValueError("a2(t) must be positive on [0, maturity]")
        if any(v < 0.0 for v in self.s_r.values):
            raise ValueError("s_r(t) must be nonnegative on [0, maturity]")

    @functools.cached_property
    def _table(self) -> _SegmentTable:
        """Segment constants and A, B at the edges, built on first use."""
        pts = {0.0, self.maturity}
        for f in (self.a1, self.a2, self.s_r):
            pts.update(f.breakpoints)
        edges = tuple(sorted(pts))
        left = edges[:-1]

        def on_segments(f: PiecewiseConstant) -> tuple[float, ...]:
            return tuple(f.values[bisect.bisect_right(f.breakpoints, e)] for e in left)

        level = on_segments(self.a2 if self.paper_literal_a else self.a1)
        a2 = on_segments(self.a2)
        s_r = on_segments(self.s_r)
        m = len(left)
        b_edges = [0.0] * (m + 1)
        a_edges = [0.0] * (m + 1)
        for j in range(m - 1, -1, -1):
            a_edges[j], b_edges[j] = _segment_AB(
                level[j], a2[j], s_r[j], edges[j + 1] - edges[j],
                b_edges[j + 1], a_edges[j + 1])
        return _SegmentTable(edges, level, a2, s_r, tuple(b_edges), tuple(a_edges))


def _is_scalar(x) -> bool:
    return isinstance(x, (int, float))


def _ramp1(a2: float, tau: float) -> float:
    """(1 - exp(-a2*tau)) / a2 with a Taylor branch for tiny a2*tau."""
    x = a2 * tau
    if x < _SMALL_B:
        return tau * (1.0 - x / 2.0 + x * x / 6.0 - x * x * x / 24.0)
    return -math.expm1(-x) / a2


def _A_constant1(level: float, a2: float, s_r: float, tau: float, b: float) -> float:
    """Closed-form A over tau with constant coefficients; b = _ramp1(a2, tau)."""
    x = a2 * tau
    if x < _SMALL_A:
        tau2 = tau * tau
        return (-level * tau2 * (0.5 - x / 6.0 + x * x / 24.0)
                + 0.5 * s_r**2 * tau2 * tau * (1.0 / 3.0 - x / 4.0 + 7.0 * x * x / 60.0))
    return (b - tau) * (level / a2 - s_r**2 / (2.0 * a2**2)) - s_r**2 * b * b / (4.0 * a2)


def _segment_AB(level: float, a2: float, s_r: float, tau: float,
                beta: float, a_end: float) -> tuple[float, float]:
    """(A, B) at tau before a segment's right edge, where B = beta, A = a_end."""
    ramp = _ramp1(a2, tau)
    b = beta * math.exp(-a2 * tau) + ramp
    a = a_end + _A_constant1(level, a2, s_r, tau, ramp)
    if beta != 0.0:
        a += -level * beta * ramp + 0.5 * s_r**2 * (
            beta * beta * _ramp1(2.0 * a2, tau) + beta * ramp * ramp)
    return a, b


def _time_error(model: ShortRateModel, t) -> ValueError:
    return ValueError(f"time must lie in [0, {model.maturity}], got {t!r}")


def _ramp(a2, tau):
    """Elementwise ``_ramp1`` of 1-d arrays; the series only where needed."""
    x = a2 * tau
    out = -np.expm1(-x) / a2  # finite for any a2 > 0: 0 <= out <= tau
    small = np.flatnonzero(x < _SMALL_B)
    if small.size:
        xs, ts = x[small], tau[small]
        out[small] = ts * (1.0 - xs / 2.0 + xs * xs / 6.0 - xs * xs * xs / 24.0)
    return out


def _A_constant(level, a2, s_r, tau, b):
    """Elementwise ``_A_constant1`` of 1-d arrays; the series only where
    needed."""
    x = a2 * tau
    small = np.flatnonzero(x < _SMALL_A)
    if small.size:
        a2 = a2.copy()
        a2[small] = 1.0  # the closed form is discarded there; keep it finite
    out = (b - tau) * (level / a2 - s_r**2 / (2.0 * a2**2)) \
        - s_r**2 * b * b / (4.0 * a2)
    if small.size:
        lv, sr, ts, xs = level[small], s_r[small], tau[small], x[small]
        tau2 = ts * ts
        out[small] = (
            -lv * tau2 * (0.5 - xs / 6.0 + xs * xs / 24.0)
            + 0.5 * sr**2 * tau2 * ts * (1.0 / 3.0 - xs / 4.0 + 7.0 * xs * xs / 60.0)
        )
    return out


def _AB(model: ShortRateModel, t):
    """(A(t), B(t)): floats for a float time, else arrays from one
    segment lookup."""
    tab = model._table
    if _is_scalar(t):
        if not 0.0 <= t <= model.maturity:
            raise _time_error(model, t)
        j = min(bisect.bisect_right(tab.edges, t), len(tab.a2)) - 1
        return _segment_AB(tab.level[j], tab.a2[j], tab.s_r[j], tab.edges[j + 1] - t,
                           tab.b_edges[j + 1], tab.a_edges[j + 1])
    t = np.asarray(t, dtype=float)
    if np.any(np.isnan(t)) or np.any(t < 0.0) or np.any(t > model.maturity):
        raise _time_error(model, t)
    shape, t = t.shape, t.reshape(-1)
    edges = np.asarray(tab.edges)
    j = np.minimum(np.searchsorted(edges, t, side="right"), len(tab.a2)) - 1
    tau = edges[j + 1] - t
    level = np.asarray(tab.level)[j]
    a2 = np.asarray(tab.a2)[j]
    s_r = np.asarray(tab.s_r)[j]
    beta = np.asarray(tab.b_edges)[j + 1]
    ramp = _ramp(a2, tau)
    a = np.asarray(tab.a_edges)[j + 1] + _A_constant(level, a2, s_r, tau, ramp) \
        - level * beta * ramp \
        + 0.5 * s_r**2 * (beta * beta * _ramp(2.0 * a2, tau) + beta * ramp * ramp)
    return a.reshape(shape), (beta * np.exp(-a2 * tau) + ramp).reshape(shape)


def _out(x):
    return float(x) if np.ndim(x) == 0 else x


def coeff_B(model: ShortRateModel, t):
    """Rate-sensitivity coefficient B(t) of the discount bond.

    Closed form per constant-coefficient segment; B(T) = 0 and B >= 0.
    Scalar in, scalar out; arrays are mapped elementwise.
    """
    return _out(_AB(model, t)[1])


def coeff_A(model: ShortRateModel, t):
    """Log-level coefficient A(t) of the discount bond; A(T) = 0.

    Closed form per constant-coefficient segment (module docs), with A
    at the segment edges cached on the model.
    """
    return _out(_AB(model, t)[0])


def _exponent_error(model: ShortRateModel, x: float, r: float) -> ValueError:
    return ValueError(
        f"discount bond exponent A - B*r = {x:.6g} at r = {r:.6g} is NaN or "
        f"above {_MAX_EXP:.6g}, where exp overflows: the rate volatility s_r "
        f"(up to {max(model.s_r.values):g}) or the rate is too large")


def zcb_price(model: ShortRateModel, r, t):
    """Discount bond price Z(r, t) = exp(A(t) - B(t) * r); Z(r, T) = 1.

    Raises ``ValueError`` naming ``s_r`` and the exponent when exp would
    overflow or the exponent is NaN: a large rate volatility makes A
    huge, and a price of inf would otherwise pass on silently.
    """
    a, b = _AB(model, t)
    if _is_scalar(t) and _is_scalar(r):
        x = a - b * r
        if not x <= _MAX_EXP:
            raise _exponent_error(model, x, r)
        return math.exp(x)
    r = np.asarray(r, dtype=float)
    x = a - b * r
    fits = x <= _MAX_EXP
    if not fits.all():
        i = int(np.argmin(fits))  # the first exponent that does not fit
        raise _exponent_error(model, float(x.flat[i]),
                              float(np.broadcast_to(r, x.shape).flat[i]))
    return _out(np.exp(x))
