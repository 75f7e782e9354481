"""Joint Monte Carlo simulation of the defaultable bond.

Simulates the short rate, the declared firm values, jump defaults and
barrier defaults together, producing a price estimate with a standard
error that is independent of the closed-form machinery. This is the
arbiter for every derived pricing value and for the choice between the
two closed-form grouping conventions.

Design:

* The declared values V1, V2 are drawn from their exact lognormal
  transitions.
* The short rate and its time integral are drawn jointly and exactly:
  with piecewise-constant coefficients, (r_{s+h}, int_s^{s+h} r) given
  r_s is bivariate Gaussian with closed-form moments (Glasserman 2003,
  *Monte Carlo Methods in Financial Engineering*, sec. 3.3). Each path
  takes two transitions, t -> s1 and s1 -> s2, to the payment time,
  each chained over the coefficient segments it overlaps. The discount
  factor therefore carries no discretisation error, and memory is
  O(paths) whatever the maturity.
* Jump default within an interval uses the inverse CDF of the
  truncated exponential clock, and the recovery R_u * Z(r, tau) is
  discounted pathwise from the actual jump time tau rather than
  through the martingale shortcut, keeping the oracle faithful to the
  assumptions instead of to the algebra under test.
* A jump before the first announcement preempts the announcement-date
  barrier check.
* Paths are processed in fixed chunks of 65536, each owning a jumped
  substream of a counter-based Philox generator; chunk results merge
  in chunk order, so the estimate is bit-identical for a given seed
  regardless of the thread count. Each chunk's stream yields z1, z2,
  u1, u2 and then the rate normals.
* Antithetic variates mirror every draw (normals, rate normals
  included, negated; uniforms reflected); the standard error then
  comes from the pair means.

Leg bookkeeping groups each path by its barrier outcome: the
``expected_t1`` leg collects every path whose first declared value
breaches K1 (including those killed earlier by a jump), which makes it
the exact simulation counterpart of the closed form's
first-barrier-breach term, and likewise for ``expected_t2`` among
paths reaching the second interval. ``unexpected_leg1``/``2`` hold the
remaining jump defaults and ``survive_both`` the par payoffs.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .defaultmodel import DefaultSpec, FirmModel
from .pricer import PricingInputs
from .ratecurve import ShortRateModel, coeff_A, coeff_B

__all__ = ["CHUNK_PATHS", "LEG_NAMES", "McConfig", "McEstimate",
           "simulate_price"]

CHUNK_PATHS = 1 << 16

LEG_NAMES = ("survive_both", "unexpected_leg1", "unexpected_leg2",
             "expected_t1", "expected_t2")

# Largest double below 1; keeps mirrored uniforms inside [0, 1).
_U_CAP = math.nextafter(1.0, 0.0)

# Below this a2*h the rate-integral moments switch to Taylor series
# (truncation and cancellation error both ~1e-12 relative here).
_SMALL_X = 1e-2


@dataclass(frozen=True)
class McConfig:
    """Simulation controls.

    ``n_paths`` total paths (must be even when antithetic); ``seed``
    keys the Philox substreams; ``n_threads`` only parallelizes over
    chunks and never changes the result. ``rate_steps_per_year`` is
    validated but not read: the rate transitions are exact, so there
    is no grid. It remains for callers that still pass it.
    """

    n_paths: int
    rate_steps_per_year: int = 64
    seed: int = 0
    antithetic: bool = False
    n_threads: int = 1

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.rate_steps_per_year < 1:
            raise ValueError(
                f"rate_steps_per_year must be >= 1, got {self.rate_steps_per_year}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic sampling needs an even n_paths")
        if self.n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {self.n_threads}")


@dataclass(frozen=True)
class McEstimate:
    """Simulation estimate: price, its standard error and the leg split.

    ``leg_breakdown`` holds mean contributions that sum to the price;
    ``leg_std_error`` the matching standard errors (used to compare
    individual legs against their closed-form counterparts).
    """

    price: float
    std_error: float
    n_paths: int
    seed: int
    leg_breakdown: dict[str, float] = field(default_factory=dict)
    leg_std_error: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class _Plan:
    """Scenario constants shared by every chunk.

    ``segments`` splits [t, t2] at the rate-coefficient breakpoints into
    (left, right, a1, a2, s_r) spans of constant rate dynamics.
    """

    rate_model: ShortRateModel
    firm: FirmModel
    spec: DefaultSpec
    r0: float
    t: float
    V1_known: float | None
    segments: tuple[tuple[float, float, float, float, float], ...]
    antithetic: bool


def _build_plan(inputs: PricingInputs, cfg: McConfig) -> _Plan:
    spec, rate = inputs.spec, inputs.rate_model
    t, t2 = inputs.t, spec.t2
    edges = sorted({t, t2}.union(
        b for f in (rate.a1, rate.a2, rate.s_r) for b in f.breakpoints
        if t < b < t2
    ))
    return _Plan(
        rate_model=rate,
        firm=inputs.firm,
        spec=spec,
        r0=inputs.r,
        t=t,
        V1_known=inputs.V1,
        segments=tuple(
            (lo, hi, float(rate.a1(lo)), float(rate.a2(lo)), float(rate.s_r(lo)))
            for lo, hi in zip(edges, edges[1:])
        ),
        antithetic=cfg.antithetic,
    )


def _truncated_exp_clock(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Waiting time of the jump clock; +inf where the intensity is zero."""
    lam = np.asarray(lam, dtype=float)
    safe = np.where(lam > 0.0, lam, 1.0)
    return np.where(lam > 0.0, -np.log1p(-u) / safe, np.inf)


def _segment_moments(a1: float, a2: float, s_r: float, h):
    """Moments of constant-coefficient steps with lengths h >= 0 (an array).

    Given r at the start, r' = decay*r + a1*ramp + noise and
    int r = ramp*r + a1*lag + noise, with ramp = (1 - e^{-a2 h})/a2 and
    lag = (h - ramp)/a2. Returns (decay, ramp, lag, var_r, cov, var_int):
    the noise variances Var r' = s^2 (1 - e^{-2 a2 h})/(2 a2),
    Var int r = s^2/a2^2 [h - 2 ramp + (1 - e^{-2 a2 h})/(2 a2)] and
    their covariance s^2 ramp^2 / 2. ``lag`` and ``var_int`` lose
    ~eps/x^2 to cancellation at x = a2*h, and ``var_int`` turns
    negative near x ~ 1e-8, so both use Taylor series below _SMALL_X.
    """
    h = np.asarray(h, dtype=float)
    x = a2 * h
    decay = np.exp(-x)
    ramp = -np.expm1(-x) / a2
    half_ramp2 = 0.5 * ramp * (1.0 + decay)  # (1 - e^{-2x}) / (2 a2)
    lag = (h - ramp) / a2
    var_int = (h - 2.0 * ramp + half_ramp2) * (s_r / a2) ** 2
    small = np.flatnonzero(x < _SMALL_X)
    if small.size:
        hs, xs = h.flat[small], x.flat[small]
        lag.flat[small] = hs * hs * (
            1 / 2 - xs * (1 / 6 - xs * (1 / 24 - xs * (1 / 120 - xs / 720))))
        var_int.flat[small] = s_r * s_r * hs ** 3 * (
            1 / 3 - xs * (1 / 4 - xs * (7 / 60 - xs * (1 / 24 - xs * 31 / 2520))))
    return decay, ramp, lag, s_r * s_r * half_ramp2, 0.5 * (s_r * ramp) ** 2, var_int


def _rate_transition(plan: _Plan, r: np.ndarray, lo, hi, z: np.ndarray):
    """Exact joint draw of (r_hi, int_lo^hi r) given r at lo, per path.

    ``hi`` holds per-path times, ``lo`` per-path or shared ones, with
    lo <= hi; ``z`` holds standard normals of shape
    (len(plan.segments), 2, paths). The step is chained over the
    coefficient segments; a segment it does not overlap has length zero
    and is an exact identity.
    """
    integral = np.zeros_like(r)
    for (left, right, a1, a2, s_r), (z_r, z_i) in zip(plan.segments, z):
        h = np.maximum(np.minimum(hi, right) - np.maximum(lo, left), 0.0)
        decay, ramp, lag, var_r, cov, var_int = _segment_moments(a1, a2, s_r, h)
        sd_r = np.sqrt(var_r)
        load = np.divide(cov, sd_r, out=np.zeros_like(cov), where=sd_r > 0.0)
        sd_int = np.sqrt(np.maximum(var_int - load * load, 0.0))
        integral += ramp * r + a1 * lag + load * z_r + sd_int * z_i
        r = decay * r + a1 * ramp + sd_r * z_r
    return r, integral


def _zcb_at(plan: _Plan, tau: np.ndarray, r_tau: np.ndarray) -> np.ndarray:
    a = np.atleast_1d(coeff_A(plan.rate_model, tau))
    b = np.atleast_1d(coeff_B(plan.rate_model, tau))
    return np.exp(a - b * r_tau)


def _simulate_chunk(plan: _Plan, seed: int, chunk_idx: int, n_units: int) -> dict:
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(chunk_idx))
    spec, firm = plan.spec, plan.firm

    z1 = rng.standard_normal(n_units)
    z2 = rng.standard_normal(n_units)
    u1 = rng.random(n_units)
    u2 = rng.random(n_units)
    # Two transitions (t -> s1, s1 -> s2), each with a pair of normals
    # per coefficient segment.
    zr = rng.standard_normal((2, len(plan.segments), 2, n_units))
    if plan.antithetic:
        z1 = np.concatenate([z1, -z1])
        z2 = np.concatenate([z2, -z2])
        u1 = np.concatenate([u1, np.minimum(1.0 - u1, _U_CAP)])
        u2 = np.concatenate([u2, np.minimum(1.0 - u2, _U_CAP)])
        zr = np.concatenate([zr, -zr], axis=-1)
    m = len(z1)

    delta = spec.t2 - spec.t1
    pre_announcement = plan.t < spec.t1
    if pre_announcement:
        V1 = firm.V0 * np.exp(
            firm.log_drift * spec.t1 + firm.s_V * math.sqrt(spec.t1) * z1
        )
        lam0 = spec.intensity(firm.V0)
        xi1 = _truncated_exp_clock(np.full(m, lam0), u1)
        jump1 = xi1 < spec.t1 - plan.t
        barrier1 = V1 <= spec.K1
        seg2_start = spec.t1
        s1 = np.where(jump1, plan.t + xi1, spec.t1)
    else:
        V1 = np.full(m, plan.V1_known)
        jump1 = np.zeros(m, dtype=bool)
        barrier1 = np.zeros(m, dtype=bool)
        seg2_start = plan.t
        s1 = np.full(m, plan.t)
    enter2 = ~jump1 & ~barrier1

    V2 = V1 * np.exp(firm.log_drift * delta + firm.s_V * math.sqrt(delta) * z2)
    barrier2 = V2 <= spec.K2
    xi2 = _truncated_exp_clock(spec.intensity(V1), u2)
    jump2 = enter2 & (xi2 < spec.t2 - seg2_start)

    # Every path ends at its payment time s2: the jump time, the first
    # announcement date for a barrier-1 breach, or maturity. Paths that
    # stop in the first interval take a zero-length second transition.
    s2 = np.where(jump2, seg2_start + xi2, np.where(enter2, spec.t2, s1))
    r1, int1 = _rate_transition(plan, np.full(m, plan.r0), plan.t, s1, zr[0])
    r2, int2 = _rate_transition(plan, r1, s1, s2, zr[1])

    # Discount each payoff along its own path from tau, then value the
    # recovery claim on the default-free bond at (r_tau, tau).
    pay = np.exp(-(int1 + int2))
    surv_t2 = enter2 & ~jump2
    pay[surv_t2 & barrier2] *= spec.R_e
    early = ~surv_t2
    if early.any():
        recovery = np.where(jump1[early] | jump2[early], spec.R_u, spec.R_e)
        pay[early] *= recovery * _zcb_at(plan, s2[early], r2[early])

    legs = {
        "survive_both": enter2 & ~jump2 & ~barrier2,
        "unexpected_leg1": jump1 & ~barrier1,
        "unexpected_leg2": jump2 & ~barrier2,
        "expected_t1": barrier1,
        "expected_t2": enter2 & barrier2,
    }

    def pair_stats(values: np.ndarray) -> tuple[float, float]:
        """Sample mean and centered second moment (stable for SE)."""
        if plan.antithetic:
            values = 0.5 * (values[:n_units] + values[n_units:])
        mean = float(values.mean())
        return mean, float(np.square(values - mean).sum())

    stats = {"price": pair_stats(pay)}
    for name, mask in legs.items():
        stats[f"leg_{name}"] = pair_stats(pay * mask)
    return {"n": n_units, "stats": stats}


def _merge_stats(a: tuple[int, float, float],
                 b: tuple[int, float, float]) -> tuple[int, float, float]:
    """Combine (count, mean, centered M2) of two disjoint samples."""
    na, mean_a, m2a = a
    nb, mean_b, m2b = b
    n = na + nb
    delta = mean_b - mean_a
    mean = mean_a + delta * nb / n
    m2 = m2a + m2b + delta * delta * na * nb / n
    return n, mean, m2


def _mean_se(acc: tuple[int, float, float]) -> tuple[float, float]:
    n, mean, m2 = acc
    if n < 2:
        return mean, 0.0
    return mean, math.sqrt(max(m2, 0.0) / (n - 1) / n)


def simulate_price(inputs: PricingInputs, cfg: McConfig) -> McEstimate:
    """Monte Carlo price of the bond with standard error and leg split.

    Reproducible for a fixed (inputs, cfg): the same seed yields a
    bit-identical estimate at any thread count.
    """
    if not inputs.t < inputs.spec.t2:
        raise ValueError("valuation time must precede maturity")
    plan = _build_plan(inputs, cfg)

    units_per_chunk = CHUNK_PATHS // (2 if cfg.antithetic else 1)
    n_units = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    n_chunks = (n_units + units_per_chunk - 1) // units_per_chunk
    sizes = [min(units_per_chunk, n_units - i * units_per_chunk)
             for i in range(n_chunks)]

    if cfg.n_threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=cfg.n_threads) as pool:
            results = list(pool.map(
                lambda i: _simulate_chunk(plan, cfg.seed, i, sizes[i]),
                range(n_chunks),
            ))
    else:
        results = [_simulate_chunk(plan, cfg.seed, i, sizes[i])
                   for i in range(n_chunks)]

    acc = {key: (results[0]["n"], mean, m2)
           for key, (mean, m2) in results[0]["stats"].items()}
    for res in results[1:]:  # fixed chunk order keeps the merge deterministic
        for key, (mean, m2) in res["stats"].items():
            acc[key] = _merge_stats(acc[key], (res["n"], mean, m2))

    price, se = _mean_se(acc["price"])
    leg_means, leg_ses = {}, {}
    for name in LEG_NAMES:
        leg_means[name], leg_ses[name] = _mean_se(acc[f"leg_{name}"])
    return McEstimate(
        price=price,
        std_error=se,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
        leg_breakdown=leg_means,
        leg_std_error=leg_ses,
    )
