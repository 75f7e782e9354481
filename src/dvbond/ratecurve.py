"""Default-free zero-coupon bond under a mean-reverting affine short rate.

The short rate follows

    dr(t) = (a1(t) - a2(t) * r) dt + s_r(t) dW(t)

with a2(t) > 0 (a normal float) and s_r(t) >= 0, all three
coefficients piecewise constant in time (constants being the classic
Vasicek case). The discount bond maturing at T is affine,

    Z(r, t) = exp(A(t) - B(t) * r),    A(T) = B(T) = 0.

Both coefficients come from the exact transition of the rate over a
constant-coefficient segment. With level l, reversion a and volatility
s, a step of length h from r gives

    r_h = decay r + l ramp + noise_r,
    int_0^h r = ramp r + l lag + noise_int,

with decay = exp(-a h), ramp = (1 - decay) / a, lag = (h - ramp) / a
and Gaussian noises of variances var_r, var_int and covariance cov
(``_segment_moments``; the simulation draws the same transition).
Z(r, t) = E[exp(-int_t^e r) Z(r_e, e)] over a segment whose right edge
e carries B(e) = beta and A(e) then gives, at t = e - h,

    B(t) = ramp + beta decay,
    A(t) = A(e) - l (lag + beta ramp)
           + var_int / 2 + beta cov + beta^2 var_r / 2.

The values at the segment edges are swept backward from maturity once
per model and cached.

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

from .mathkit import _require_finite

__all__ = [
    "PiecewiseConstant",
    "ShortRateModel",
    "coeff_A",
    "coeff_B",
    "zcb_price",
]

# Below this x = a2*h the moments lag and var_int switch to Taylor
# series: their closed forms lose ~eps/x and ~eps/x^2 to cancellation
# (var_int turns negative near x ~ 1e-8), while the series truncation
# error at the switch is ~4e-14 and ~1e-12 relative.
_SMALL_X = 1e-2

# Largest x with a finite exp(x).
_MAX_EXP = math.log(np.finfo(float).max)


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
        _require_finite(self, ("breakpoints", "values"))
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
        if np.isnan(t).any():
            raise ValueError(f"time must not be NaN, got {t}")
        idx = np.searchsorted(np.asarray(self.breakpoints), t, side="right")
        out = np.asarray(self.values)[idx]
        return float(out) if out.ndim == 0 else out


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
        # A number is checked under its own name; a1, a2 and s_r become steps.
        for name in ("a1", "a2", "s_r", "maturity"):
            value = getattr(self, name)
            if not isinstance(value, PiecewiseConstant):
                object.__setattr__(self, name, float(value))
                _require_finite(self, (name,))
                if name != "maturity":
                    object.__setattr__(self, name, PiecewiseConstant.constant(value))
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
        a2_min = min(self.a2.values)
        if a2_min <= 0.0:
            raise ValueError("a2(t) must be positive on [0, maturity]")
        if a2_min < np.finfo(float).tiny:  # -expm1(-a2 h) / a2 keeps no digits
            raise ValueError(f"a2(t) = {a2_min:g} is below the smallest normal float")
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


def _series(s_r, h, x):
    """(lag, var_int) from their Taylor series in x = a2*h; floats or
    arrays."""
    lag = h * h * (1 / 2 - x * (1 / 6 - x * (1 / 24 - x * (1 / 120 - x / 720))))
    var_int = s_r * s_r * h * h * h * (
        1 / 3 - x * (1 / 4 - x * (7 / 60 - x * (1 / 24 - x * 31 / 2520))))
    return lag, var_int


def _segment_moments(a1, a2, s_r, h):
    """Transition moments of constant-coefficient steps of lengths h >= 0.

    ``h`` and the coefficients are each one value or one per element;
    the moments come back as arrays of at least one element. Returns
    (decay, ramp, lag, var_r, cov, var_int) of the module docs:
    var_r = s^2 (1 - e^{-2 a2 h}) / (2 a2),
    var_int = s^2 / a2^2 [h - 2 ramp + (1 - e^{-2 a2 h}) / (2 a2)] and
    cov = s^2 ramp^2 / 2. The drift level ``a1`` only scales ramp and
    lag in the means and does not enter. Squares are products, which
    give inf rather than an error for huge coefficients.
    """
    h = np.atleast_1d(np.asarray(h, dtype=float))
    x = a2 * h
    decay = np.exp(-x)
    ramp = -np.expm1(-x) / a2
    half_ramp2 = 0.5 * ramp * (1.0 + decay)  # (1 - e^{-2x}) / (2 a2)
    # These overflow only where the series replaces them (x = 0 at a tiny a2).
    with np.errstate(over="ignore", invalid="ignore"):
        lag = (h - ramp) / a2
        s_a = s_r / a2
        var_int = (h - 2.0 * ramp + half_ramp2) * s_a * s_a
    small = np.flatnonzero(x < _SMALL_X)
    if small.size:
        lag.flat[small], var_int.flat[small] = _series(
            np.broadcast_to(s_r, x.shape).flat[small], h.flat[small], x.flat[small])
    s_ramp = s_r * ramp
    return decay, ramp, lag, s_r * s_r * half_ramp2, 0.5 * s_ramp * s_ramp, var_int


def _segment_moments1(a1: float, a2: float, s_r: float, h: float):
    """``_segment_moments`` of one step, as floats from ``math``."""
    x = a2 * h
    decay = math.exp(-x)
    ramp = -math.expm1(-x) / a2
    half_ramp2 = 0.5 * ramp * (1.0 + decay)
    if x < _SMALL_X:
        lag, var_int = _series(s_r, h, x)
    else:
        s_a = s_r / a2
        lag = (h - ramp) / a2
        var_int = (h - 2.0 * ramp + half_ramp2) * s_a * s_a
    s_ramp = s_r * ramp
    return decay, ramp, lag, s_r * s_r * half_ramp2, 0.5 * s_ramp * s_ramp, var_int


def _segment_AB(level, a2, s_r, tau, beta, a_end):
    """(A, B) at tau before a segment's right edge, where B = beta and
    A = a_end (module docs); floats or arrays, elementwise."""
    moments = _segment_moments1 if _is_scalar(tau) else _segment_moments
    decay, ramp, lag, var_r, cov, var_int = moments(level, a2, s_r, tau)
    a = (a_end - level * (lag + beta * ramp)
         + 0.5 * var_int + beta * cov + 0.5 * beta * beta * var_r)
    return a, ramp + beta * decay


def _time_error(model: ShortRateModel, t) -> ValueError:
    return ValueError(f"time must lie in [0, {model.maturity}], got {t!r}")


def _raise_at_first(ok: np.ndarray, error) -> None:
    """Raise error(i), carrying ``index`` i, at the first False of ok."""
    if not ok.all():
        err = error(i := int(np.argmin(ok)))
        err.index = i
        raise err


def _AB(model: ShortRateModel, t):
    """(A(t), B(t)): floats for a float time, else arrays from one
    segment lookup (none for a one-segment model)."""
    tab = model._table
    if _is_scalar(t):
        if not 0.0 <= t <= model.maturity:
            raise _time_error(model, t)
        j = min(bisect.bisect_right(tab.edges, t), len(tab.a2)) - 1
        return _segment_AB(tab.level[j], tab.a2[j], tab.s_r[j], tab.edges[j + 1] - t,
                           tab.b_edges[j + 1], tab.a_edges[j + 1])
    t = np.asarray(t, dtype=float)
    _raise_at_first((t >= 0.0) & (t <= model.maturity),
                    lambda i: _time_error(model, float(t.flat[i])))
    shape, t = t.shape, t.reshape(-1)
    edges = np.asarray(tab.edges)
    j = 0 if len(tab.a2) == 1 else np.minimum(  # one segment: no lookup, no gathers
        np.searchsorted(edges, t, side="right"), len(tab.a2)) - 1
    a, b = _segment_AB(np.asarray(tab.level)[j], np.asarray(tab.a2)[j],
                       np.asarray(tab.s_r)[j], edges[j + 1] - t,
                       np.asarray(tab.b_edges)[j + 1], np.asarray(tab.a_edges)[j + 1])
    return a.reshape(shape), b.reshape(shape)


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
    huge, and a price of inf would otherwise pass on silently. On arrays
    the error is that of the first such element, whose flat position it
    carries as ``index``; so is the error of a time outside [0, T].
    """
    a, b = _AB(model, t)
    if _is_scalar(t) and _is_scalar(r):
        x = a - b * r
        if not x <= _MAX_EXP:
            raise _exponent_error(model, x, r)
        return math.exp(x)
    r = np.asarray(r, dtype=float)
    x = a - b * r
    _raise_at_first(x <= _MAX_EXP, lambda i: _exponent_error(
        model, float(x.flat[i]), float(np.broadcast_to(r, x.shape).flat[i])))
    return _out(np.exp(x))
