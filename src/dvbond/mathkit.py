"""Special functions and quadrature used by the bond pricer.

Provides three building blocks:

1. ``normal_cdf`` - the univariate standard normal CDF, accurate to
   better than 1e-15 absolute (erfc-based).
2. ``integrate_left_tail`` - adaptive Gauss-Kronrod evaluation of
   Gaussian-weighted left-tail integrals

       (1/sqrt(2*pi)) * int_{-inf}^{upper} f(x) * exp(-x^2/2) dx

   which serves every semi-infinite kernel of the pricer that has no
   closed form. An integrand may return k rows; they then share one
   panel set and one Gaussian-weight evaluation per node, and a panel
   is bisected while any row misses its error budget. The upper bound
   may be an array: the panels of all bounds are then evaluated
   together (the integrand learns the bound of each node from
   ``TailNodes``), each bound keeping the panels and node budget of a
   call of its own; a float bound is the case of one.
3. ``bvn_cdf`` - the standard bivariate normal CDF with correlation
   rho, by the Drezner-Wesolowsky/Genz method (Genz 2004, Statistics
   and Computing 14:251-260): a 6-, 12- or 20-point Gauss-Legendre
   rule by |rho|, and an asymptotic expansion for |rho| >= 0.925;
   absolute error ~1e-15. It takes floats and computes in ``math``,
   one call per price. ``bivariate_cdf_quadform`` evaluates
   it in the quadratic-form parameterization of the pricer, by a
   symmetric positive-definite inverse-scale matrix M:

       N2(a, b : M) = (sqrt(det M) / (2*pi))
                      * int_{-inf}^{a} int_{-inf}^{b} exp(-xi' M xi / 2) dy dx

   The Gaussian has covariance M^-1, so N2(a, b : M) is the
   standardized CDF at (a / sigma_x, b / sigma_y) with correlation
   -m12 / sqrt(m11 * m22). ``bivariate_cdf_bruteforce`` integrates
   the same density in two dimensions and serves as the test oracle.

All functions are pure and thread-safe; integrand callbacks must be
side-effect-free and accept numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "GAUSSIAN_TAIL_CUTOFF",
    "QuadFormMatrix",
    "QuadratureSpec",
    "QuadratureConvergenceError",
    "normal_cdf",
    "integrate_left_tail",
    "bvn_cdf",
    "bivariate_cdf_quadform",
    "bivariate_cdf_bruteforce",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Beyond 12 standard deviations the Gaussian weight is below 2e-32, so
# truncating semi-infinite integrals there costs < 1e-30 for any
# integrand bounded by 1.
GAUSSIAN_TAIL_CUTOFF = 12.0


class QuadratureConvergenceError(ArithmeticError):
    """Adaptive quadrature ran out of its node budget.

    Carries the best available estimate and the error bound at the
    point of failure: floats for a 1-D integrand, length-k arrays for
    a k-row one. With an array of m upper bounds both gain a trailing
    axis of length m. ``failed`` marks the bounds that ran out (one
    entry for a float bound); the estimates of the others are converged.
    """

    def __init__(self, message: str, estimate: float | np.ndarray,
                 error_bound: float | np.ndarray,
                 failed: np.ndarray | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound
        self.failed = failed


def normal_cdf(a: float) -> float:
    """Standard normal CDF N(a), absolute error below 1e-15.

    Accepts +/-inf (returning 1/0). NaN input raises ValueError.
    """
    if math.isnan(a):
        raise ValueError("normal_cdf: input is NaN")
    return 0.5 * math.erfc(-a / math.sqrt(2.0))


@dataclass(frozen=True)
class QuadFormMatrix:
    """Symmetric 2x2 inverse-scale matrix [[m11, m12], [m12, m22]].

    Must be positive definite: m11 > 0 and m11*m22 - m12^2 > 0.
    """

    m11: float
    m12: float
    m22: float

    def __post_init__(self):
        if not (self.m11 > 0.0 and self.det > 0.0):
            raise ValueError(
                "QuadFormMatrix must be positive definite: "
                f"m11={self.m11}, m12={self.m12}, m22={self.m22}"
            )

    @property
    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m12


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the adaptive Gaussian-weighted quadrature.

    ``abs_tol`` is the target absolute error; ``max_nodes`` caps the
    number of integrand evaluations.
    """

    abs_tol: float = 1e-12
    max_nodes: int = 32768

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_nodes < 32:
            raise ValueError(f"max_nodes must be >= 32, got {self.max_nodes}")


DEFAULT_QUADRATURE = QuadratureSpec()

# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1].
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
# Columns: the Kronrod weights, and the Kronrod weights minus the
# embedded Gauss-7 weights (on the odd Kronrod nodes), both over
# sqrt(2*pi); one matmul gives each panel's estimate and error estimate.
_WKE = np.column_stack([_WGK, _WGK])
_WKE[1::2, 1] -= np.polynomial.legendre.leggauss(7)[1]
_WKE /= _SQRT_2PI


class TailNodes(NamedTuple):
    """Nodes of a pass over several upper bounds.

    ``x`` holds the 15 nodes of each panel as a row, shape
    (n_panels, 15). ``owner`` holds the index of the bound of each
    panel, shape (n_panels, 1), so per-bound parameters indexed by it
    broadcast against ``x``. ``size`` is the node count, as for a flat
    node array, so a wrapper that counts the nodes an integrand receives
    by their ``size`` works with either form.
    """

    x: np.ndarray
    owner: np.ndarray

    @property
    def size(self) -> int:
        return self.x.size


# Panels per integrand call: 3,840 nodes, 30 KB per node array, so a
# pass over many bounds never holds large temporaries.
_PANEL_BLOCK = 256


def _panel_estimates(f, lows: np.ndarray, highs: np.ndarray, owner: np.ndarray):
    """Kronrod estimates and Kronrod-Gauss error estimates per panel,
    shaped (n_panels,) for a 1-D integrand and (k, n_panels) for k rows."""
    if len(lows) > _PANEL_BLOCK:
        parts = [_panel_estimates(f, lows[i:i + _PANEL_BLOCK], highs[i:i + _PANEL_BLOCK],
                                  owner[i:i + _PANEL_BLOCK])
                 for i in range(0, len(lows), _PANEL_BLOCK)]
        return tuple(np.concatenate(col, axis=-1) for col in zip(*parts))
    half = 0.5 * (highs - lows)
    x = (lows + half)[:, None] + half[:, None] * _XGK
    fx = np.asarray(f(TailNodes(x, owner[:, None])), dtype=float)
    sums = half[:, None] * ((fx * np.exp(-0.5 * x * x)) @ _WKE)
    return sums[..., 0], np.abs(sums[..., 1])


def _flat(f):
    """The integrand of ``TailNodes`` that calls f on a flat node array."""
    def g(nodes):
        fx = np.asarray(f(nodes.x.ravel()), dtype=float)
        return fx.reshape(*fx.shape[:-1], *nodes.x.shape) if fx.ndim else fx
    return g


def _per_row(sums: np.ndarray) -> float | np.ndarray:
    """A float for a 1-D integrand, the length-k array for k rows."""
    return float(sums) if sums.ndim == 0 else sums


def _sum_by_owner(values: np.ndarray, owner: np.ndarray, m: int) -> np.ndarray:
    """Per-bound panel sums: shape (m,) for a 1-D integrand, (k, m) for k rows."""
    if m == 1:
        # A plain sum, ~3x cheaper, for the one-bound scalar calls.
        return values.sum(axis=-1)[..., None]
    n_rows = 1 if values.ndim == 1 else len(values)
    ids = owner + m * np.arange(n_rows)[:, None]
    sums = np.bincount(ids.ravel(), weights=values.ravel(), minlength=n_rows * m)
    return sums.reshape(*values.shape[:-1], m)


def _initial_panels(lo: float, his: np.ndarray):
    """Panels of width <= 1 from ``lo`` to each bound (at least two per
    nonempty range, none for an empty one): their edges, the bound of
    each, and the count per bound, 1 for an empty range so that a
    tolerance can be divided by it. Width <= 1 keeps the first Kronrod
    pass honest on the full 24-sigma range."""
    if len(his) == 1:
        # The same panels in float arithmetic, ~5x cheaper than the
        # array code, for the one-bound scalar calls.
        width = min(float(his[0]), GAUSSIAN_TAIL_CUTOFF) - lo
        n0 = max(2, math.ceil(width)) if width > 0.0 else 0
        edges = lo + width / max(n0, 1) * np.arange(n0 + 1.0)
        return (edges[:n0], edges[1:], np.zeros(n0, dtype=np.intp),
                np.array([max(n0, 1)]))
    width = np.minimum(his, GAUSSIAN_TAIL_CUTOFF) - lo
    n0 = np.where(width > 0.0, np.maximum(2.0, np.ceil(width)), 0.0).astype(np.intp)
    owner = np.repeat(np.arange(len(his)), n0)
    j = np.arange(len(owner)) - np.repeat(np.cumsum(n0) - n0, n0)
    count = np.maximum(n0, 1)
    step = (width / count)[owner]
    return lo + step * j, lo + step * (j + 1.0), owner, count


def integrate_left_tail(
    f: Callable[[np.ndarray], np.ndarray],
    upper: float | np.ndarray,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float | np.ndarray:
    """Gaussian-weighted integral of f over the left tail.

    Computes (1/sqrt(2*pi)) * int f(x) exp(-x^2/2) dx from -inf to
    ``upper``, which may be infinite; the range is clipped to +/-12,
    where the Gaussian weight is negligible. The integrand callback
    receives a 1-D numpy array of n nodes. Values
    of shape (n,) (scalars broadcast) give a float; k rows of shape
    (k, n) give a length-k array, all rows sharing one panel set and
    one evaluation of the Gaussian weight per node.

    ``upper`` may also be a 1-D array of m bounds. The callback then
    receives ``TailNodes`` (the nodes and the index of the bound each
    belongs to), the panels of all bounds are evaluated together, and
    the result gains a trailing axis of length m. Each bound keeps the
    panels, node budget and error rule of a call with that bound
    alone, so the two differ only in summation order. A float bound is
    the case m = 1.

    A panel is bisected while any row's local Gauss-Kronrod error
    estimate exceeds ``abs_tol / n_panels`` (the panels of its own
    bound), so every row meets the tolerance. A bound whose bisection
    would exceed ``max_nodes`` stops there; once the others have
    converged, QuadratureConvergenceError is raised with the best
    estimate and bound of each row and a mask of the failed bounds.
    """
    one = isinstance(upper, (int, float))
    his = np.atleast_1d(np.asarray(upper, dtype=float))
    if one:
        f = _flat(f)
    if np.isnan(his).any():
        raise ValueError("integration bounds must not be NaN")
    m = len(his)
    lows, highs, owner, n_first = _initial_panels(-GAUSSIAN_TAIL_CUTOFF, his)
    n_panels = n_first.copy()
    nodes_total = 15 * len(owner)
    limit = spec.abs_tol / n_panels
    failed = np.zeros(m, dtype=bool)
    kron, err = _panel_estimates(f, lows, highs, owner)

    while True:
        bad = err > limit[owner]
        if not bad.any():
            break
        if bad.ndim == 2:
            bad = bad.any(axis=0)
        hit = owner[bad]
        split = np.bincount(hit, minlength=m)
        # No bound can overflow its budget while all of them together fit.
        if nodes_total + 30 * len(hit) > spec.max_nodes:
            # Each bisection adds one panel and evaluates two.
            nodes_used = 30 * n_panels - 15 * n_first
            over_budget = (split > 0) & (nodes_used + 30 * split > spec.max_nodes)
            # A failed bound keeps its panels, so it is found again in
            # every later round and never bisected.
            failed |= over_budget
            bad &= ~failed[owner]
            if not bad.any():
                break
            hit = owner[bad]
            split[failed] = 0
        b_lo, b_hi = lows[bad], highs[bad]
        mid = 0.5 * (b_lo + b_hi)
        new_lows = np.concatenate([b_lo, mid])
        new_highs = np.concatenate([mid, b_hi])
        new_owner = np.concatenate([hit, hit])
        new_kron, new_err = _panel_estimates(f, new_lows, new_highs, new_owner)
        n_panels += split
        nodes_total += 15 * len(new_owner)
        limit = spec.abs_tol / n_panels
        keep = ~bad
        lows = np.concatenate([lows[keep], new_lows])
        highs = np.concatenate([highs[keep], new_highs])
        owner = np.concatenate([owner[keep], new_owner])
        kron = np.concatenate([kron[..., keep], new_kron], axis=-1)
        err = np.concatenate([err[..., keep], new_err], axis=-1)

    estimate = _sum_by_owner(kron, owner, m)
    if failed.any():
        bound = _sum_by_owner(err, owner, m)
        message = (
            f"quadrature did not converge within {spec.max_nodes} nodes for "
            f"{failed.sum()} of {m} bounds (error bound "
            f"{np.max(bound[..., failed]):.3e}, target {spec.abs_tol:.3e})")
        if one:
            estimate, bound = _per_row(estimate[..., 0]), _per_row(bound[..., 0])
        raise QuadratureConvergenceError(message, estimate, bound, failed)
    return _per_row(estimate[..., 0]) if one else estimate


# Gauss-Legendre rules on [-1, 1] for the three |rho| bands of bvn_cdf.
_BVN_RULES = {
    n: tuple(zip(*(v.tolist() for v in np.polynomial.legendre.leggauss(n))))
    for n in (6, 12, 20)
}


def bvn_cdf(h: float, k: float, rho: float) -> float:
    """P(X <= h, Y <= k) for standard normals with correlation rho.

    Genz's algorithm on the upper orthant at (-h, -k). For |rho| <
    0.925 it integrates Plackett's identity over asin(rho) with 6, 12
    or 20 Gauss-Legendre nodes (|rho| below 0.3, 0.75 or 0.925); from
    0.925 on it integrates the Drezner-Wesolowsky asymptotic series
    in sqrt(1 - rho^2). Either bound may be +/-inf, and one beyond
    +/-40 is taken as infinite; |rho| <= 1.

    Floats only, evaluated in ``math``.
    """
    if math.isnan(h) or math.isnan(k) or math.isnan(rho):
        raise ValueError("bvn_cdf: NaN argument")
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"bvn_cdf: correlation must lie in [-1, 1], got {rho}")
    # Phi is exactly 0 or 1 in double from |x| >= 38.5, so a bound past
    # 40 is infinite here; kept finite, h*h or (h - k)**2 could overflow.
    h, k = (math.copysign(math.inf, x) if abs(x) > 40.0 else x for x in (h, k))
    if h == -math.inf or k == -math.inf:
        return 0.0
    if h == math.inf:
        return normal_cdf(k)
    if k == math.inf:
        return normal_cdf(h)
    h, k = -h, -k
    r = abs(rho)
    rule = _BVN_RULES[6 if r < 0.3 else 12 if r < 0.75 else 20]
    hk = h * k
    if r < 0.925:
        hs = 0.5 * (h * h + k * k)
        asr = math.asin(rho)
        total = 0.0
        for x, w in rule:
            sn = math.sin(0.5 * asr * (1.0 + x))
            total += w * math.exp((sn * hk - hs) / (1.0 - sn * sn))
        p = total * asr / (4.0 * math.pi) + normal_cdf(-h) * normal_cdf(-k)
        return min(max(p, 0.0), 1.0)
    if rho < 0.0:
        k, hk = -k, -hk
    p = 0.0
    if r < 1.0:
        as_ = (1.0 - rho) * (1.0 + rho)
        a = math.sqrt(as_)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        expo = -0.5 * (bs / as_ + hk)
        if expo > -100.0:
            p = a * math.exp(expo) * (
                1.0 - c * (bs - as_) * (1.0 - d * bs / 5.0) / 3.0
                + c * d * as_ * as_ / 5.0)
        if hk > -100.0:
            b = math.sqrt(bs)
            p -= (math.exp(-0.5 * hk) * _SQRT_2PI * normal_cdf(-b / a) * b
                  * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0))
        a *= 0.5
        for x, w in rule:
            xs = (a * (1.0 + x)) ** 2
            rs = math.sqrt(1.0 - xs)
            expo = -0.5 * (bs / xs + hk)
            if expo > -100.0:
                sp = 1.0 + c * xs * (1.0 + d * xs)
                ep = math.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                p += a * w * math.exp(expo) * (ep - sp)
        p = -p / (2.0 * math.pi)
    if rho > 0.0:
        p += normal_cdf(-max(h, k))
    elif h >= k:
        p = -p
    else:
        between = normal_cdf(k) - normal_cdf(h) if h < 0.0 \
            else normal_cdf(-h) - normal_cdf(-k)
        p = between - p
    return min(max(p, 0.0), 1.0)


def bivariate_cdf_quadform(
    a: float,
    b: float,
    m: QuadFormMatrix,
) -> float:
    """Bivariate normal CDF N2(a, b : M) for an inverse-scale matrix M.

    Closed form for every positive-definite M: the density has
    covariance M^-1, so

        N2(a, b : M) = bvn_cdf(a / sigma_x, b / sigma_y, rho)

    with sigma_x^2 = m22 / det M, sigma_y^2 = m11 / det M and
    rho = -m12 / sqrt(m11 * m22). For the pricer's unit-form matrices
    (m22 = det M = 1) this is rho = -m12 / sqrt(1 + m12^2).
    """
    if math.isnan(a) or math.isnan(b):
        raise ValueError("bivariate_cdf_quadform: NaN bound")
    det = m.det
    rho = -m.m12 / math.sqrt(m.m11 * m.m22)
    return bvn_cdf(a / math.sqrt(m.m22 / det), b / math.sqrt(m.m11 / det), rho)


def bivariate_cdf_bruteforce(
    a: float,
    b: float,
    m: QuadFormMatrix,
    abs_tol: float = 1e-10,
) -> float:
    """N2(a, b : M) by direct 2-D adaptive quadrature.

    Independent of the closed form; the cross-check route of the test
    suite. The
    infinite corners are truncated 13 marginal standard deviations out
    (variances of the implied Gaussian are m22/det and m11/det).
    ``scipy.integrate`` is imported here, its only use, so that
    importing the package does not load it.
    """
    from scipy.integrate import dblquad

    if math.isnan(a) or math.isnan(b):
        raise ValueError("bivariate_cdf_bruteforce: NaN bound")
    if a == -math.inf or b == -math.inf:
        return 0.0
    det = m.det
    sd_x = math.sqrt(m.m22 / det)
    sd_y = math.sqrt(m.m11 / det)
    x_hi = min(a, 13.0 * sd_x)
    y_hi = min(b, 13.0 * sd_y)
    x_lo = -13.0 * sd_x
    y_lo = -13.0 * sd_y
    if x_hi <= x_lo or y_hi <= y_lo:
        return 0.0
    norm = math.sqrt(det) / (2.0 * math.pi)

    def density(y, x):
        return norm * math.exp(
            -0.5 * (m.m11 * x * x + 2.0 * m.m12 * x * y + m.m22 * y * y)
        )

    value, _ = dblquad(density, x_lo, x_hi, y_lo, y_hi,
                       epsabs=abs_tol, epsrel=1e-12)
    return min(max(value, 0.0), 1.0)
