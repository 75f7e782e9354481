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
  r_s is bivariate Gaussian (Glasserman 2003, *Monte Carlo Methods in
  Financial Engineering*, sec. 3.3). Its moments are
  ``ratecurve._segment_moments``, the same that build the discount
  bond's A and B, so one module owns the segment integrals. An event
  path takes one transition, t -> s2, to its payment time s2 (the rate
  is Markov), chained over the coefficient segments it overlaps. The
  discount factor therefore carries no discretisation error, and
  memory is O(paths) whatever the maturity.
* Jump default within an interval uses the inverse CDF of the
  truncated exponential clock, and the recovery R_u * Z(r, tau) is
  discounted pathwise from the actual jump time tau rather than
  through the martingale shortcut, keeping the oracle faithful to the
  assumptions instead of to the algebra under test.
* A jump before the first announcement preempts the announcement-date
  barrier check.
* A declared value that underflows to 0 or overflows to inf takes the
  limit the closed form prices, whatever the draws and whatever the
  intensity family: at 0 it breaches a positive barrier and never a
  barrier of 0, and at either end ``IntensityFunction`` gives its
  intensity: for the log-reciprocal family inf at 0 (a jump at once)
  and 0 at inf, for a custom one its callable's values there.
* Paths run in fixed chunks of 65536, each on its own SFC64 stream,
  ``SeedSequence(seed, spawn_key=(chunk,))``; chunk results merge in
  chunk order, so the estimate is bit-identical for a given seed at
  any thread count; the worker threads persist across calls. A chunk
  draws z1, z2 (z1 only before t1) first and turns them into V1, V2,
  the barrier flags and lambda(V1); then u1, u2, which become the jump
  clocks; then one rate normal per nominal unit and the full rate
  normals of each event unit, once the event units are known. No
  full-length array outlives its last reader.
* A unit is a path or an antithetic pair, nominal when none of its
  paths jumps or breaches K1. A nominal path pays at t2, and its
  int_t^t2 r is one Gaussian shared by every nominal path
  (``_Plan.nominal``): one normal. An event unit's paths take a
  (segments, 2) block of normals and one ``_rate_transition`` call.
  Each path's law, and each pair's, is that of the full set.
* Antithetic variates mirror every draw (normals, rate normals
  included, negated; uniforms reflected); the standard error then
  comes from the pair means.

Leg bookkeeping groups each path by its barrier outcome: the
``expected_t1`` leg collects every path whose first declared value
breaches K1 (including those killed earlier by a jump), which makes it
the exact simulation counterpart of the closed form's
first-barrier-breach term, and likewise for ``expected_t2`` among
paths reaching the second interval. ``unexpected_leg1``/``2`` hold the
remaining jump defaults and ``survive_both`` the par payoffs: the five
``LEG_NAMES`` that also key the closed form's ``PriceResult.legs``. Each
path carries one leg label, its index into ``LEG_NAMES``; an antithetic
pair adds half of each payoff to its own path's leg. A chunk returns
one statistics record, the means and second moments of the price and
of each leg (by ``bincount`` over the labels), in units of 2^e for e
the ``math.frexp`` exponent of Z(r, t): an exact scale that keeps the
squared deviations of a tiny price from underflowing.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .pricer import LEG_NAMES, PricingInputs
from .ratecurve import _segment_moments, _segment_moments1, zcb_price

__all__ = ["CHUNK_PATHS", "LEG_NAMES", "McConfig", "McEstimate",
           "simulate_price"]

CHUNK_PATHS = 1 << 16
_Stats = tuple[int, np.ndarray, np.ndarray]  # a chunk's statistics record

# Each path's leg label is its index into LEG_NAMES (from ``pricer``).
_LEG = {name: i for i, name in enumerate(LEG_NAMES)}

# Largest double below 1; keeps mirrored uniforms inside [0, 1).
_U_CAP = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class McConfig:
    """Simulation controls.

    ``n_paths`` total paths (must be even when antithetic); ``seed``
    keys the chunks' SFC64 streams; ``n_threads`` only parallelizes over
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
    """The valuation and the constants shared by every chunk.

    ``segments`` splits [t, t2] at the rate-coefficient breakpoints into
    (left, right, a1, a2, s_r) spans of constant rate dynamics.
    ``exponent`` is the ``math.frexp`` exponent of Z(r, t), 0 when Z is 0.
    ``nominal`` is the (mean, SD) of a nominal path's int_t^t2 r.
    """

    inputs: PricingInputs
    segments: tuple[tuple[float, float, float, float, float], ...]
    antithetic: bool
    exponent: int
    nominal: tuple[float, float]


def _build_plan(inputs: PricingInputs, cfg: McConfig) -> _Plan:
    rate, t, t2 = inputs.rate_model, inputs.t, inputs.spec.t2
    edges = sorted({t, t2}.union(
        b for f in (rate.a1, rate.a2, rate.s_r) for b in f.breakpoints
        if t < b < t2
    ))
    segments = tuple(
        (lo, hi, float(rate.a1(lo)), float(rate.a2(lo)), float(rate.s_r(lo)))
        for lo, hi in zip(edges, edges[1:]))
    return _Plan(inputs, segments, cfg.antithetic,
                 math.frexp(zcb_price(rate, inputs.r, t))[1],
                 _nominal_integral(inputs.r, segments))


def _declared_value(log_prev, z: np.ndarray, firm, dt: float):
    """(ln V, V) for ln V = log_prev + log_drift dt + s_V sqrt(dt) z, ln V
    in place of ``z``. Taking V from ln V keeps inf * 0 out of V2. An
    overflow to inf or an underflow to 0 is V's limit, whose intensity
    ``IntensityFunction`` gives, and is not reported."""
    log_v = np.multiply(z, firm.s_V * math.sqrt(dt), out=z)
    log_v += firm.log_drift * dt
    log_v += log_prev
    with np.errstate(over="ignore"):
        return log_v, np.exp(log_v)


def _truncated_exp_clock(lam, u: np.ndarray) -> np.ndarray:
    """Waiting time of the jump clock, written over the uniforms ``u``.

    ``lam`` is one intensity or one per path; the time is +inf where it
    is small enough to overflow the quotient (the limit) or zero, and
    NaN where it is zero and u is 0.0. Neither is below any horizon.
    """
    xi = np.negative(u, out=u)
    np.log1p(xi, out=xi)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.divide(xi, lam, out=xi)
    return np.negative(xi, out=xi)


def _nominal_integral(r: float, segments) -> tuple[float, float]:
    """Mean and SD of the Gaussian int_t^t2 r from r(t) = ``r``, over ``segments``."""
    m_r, m_int = r, 0.0
    v_rr = v_ri = v_int = 0.0  # covariance of (r, integral)
    for left, right, a1, a2, s_r in segments:
        decay, ramp, lag, var_r, cov, var_int = _segment_moments1(a1, a2, s_r, right - left)
        m_int += ramp * m_r + a1 * lag
        m_r = decay * m_r + a1 * ramp
        v_int += ramp * (2.0 * v_ri + ramp * v_rr) + var_int
        v_ri = decay * (v_ri + ramp * v_rr) + cov
        v_rr = decay * decay * v_rr + var_r
    return m_int, math.sqrt(v_int)


def _rate_transition(plan: _Plan, r, lo, hi, z: np.ndarray):
    """Exact joint draw of (r_hi, int_lo^hi r) given r at lo, per path.

    ``r``, ``lo`` and ``hi`` are each shared (a scalar) or per path,
    with lo <= hi; ``z`` holds standard normals of shape
    (len(plan.segments), 2, paths). The step is chained over the
    coefficient segments; a segment it does not overlap has length zero
    and is an exact identity, so a segment no path overlaps is skipped.
    Returns per-path arrays.
    """
    n = z.shape[-1]
    integral = np.zeros(n)
    step, noise, r_out = np.empty(n), np.empty(n), np.empty(n)
    for (left, right, a1, a2, s_r), (z_r, z_i) in zip(plan.segments, z):
        h = np.maximum(np.minimum(hi, right) - np.maximum(lo, left), 0.0)
        if not np.any(h):
            continue
        decay, ramp, lag, var_r, cov, var_int = _segment_moments(a1, a2, s_r, h)
        sd_r = np.sqrt(var_r, out=var_r)
        load = np.divide(cov, sd_r, out=np.zeros_like(cov), where=sd_r > 0.0)
        var_int -= np.square(load, out=cov)
        sd_int = np.sqrt(np.maximum(var_int, 0.0, out=var_int), out=var_int)
        # integral += ramp*r + a1*lag + load*z_r + sd_int*z_i, left to right
        np.multiply(ramp, r, out=step)
        step += np.multiply(lag, a1, out=lag)
        step += np.multiply(load, z_r, out=noise)
        step += np.multiply(sd_int, z_i, out=noise)
        integral += step
        # r = decay*r + a1*ramp + sd_r*z_r
        np.multiply(decay, r, out=r_out)
        r_out += np.multiply(ramp, a1, out=ramp)
        r_out += np.multiply(sd_r, z_r, out=noise)
        r = r_out
    return (r if np.ndim(r) else np.full(n, r)), integral


def _leg_moments(label: np.ndarray, values: np.ndarray, n: int,
                 total: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-leg means and centered M2s over n units, in LEG_NAMES order.

    Entry k adds ``values[k]`` to leg ``label[k]`` of its unit; a unit
    has at most one entry per leg and is zero in every leg it has none.
    ``total`` is the pairwise sum of all entries. ``bincount`` sums in
    sequence (relative error ~eps*sqrt(entries)), so the leg with the
    most entries takes ``total`` minus the other legs instead.
    """
    legs = len(LEG_NAMES)
    count = np.bincount(label, minlength=legs)
    sums = np.bincount(label, weights=values, minlength=legs)
    largest = count.argmax()
    sums[largest] = 0.0
    sums[largest] = total - sums.sum()
    mean = sums / n
    dev = mean[label]
    np.subtract(values, dev, out=dev)
    dev *= dev
    m2 = np.bincount(label, weights=dev, minlength=legs) + (n - count) * mean * mean
    return mean, m2


def _simulate_chunk(plan: _Plan, seed: int, chunk_idx: int, n_units: int) -> _Stats:
    rng = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(chunk_idx,))))
    x = plan.inputs
    spec, firm, t = x.spec, x.firm, x.t
    pre_announcement = t < spec.t1
    z = rng.standard_normal((1 + pre_announcement, n_units))  # z1 (before t1), z2
    if plan.antithetic:
        z = np.concatenate([z, -z], axis=1)

    if pre_announcement:
        log_v1, V1 = _declared_value(math.log(firm.V0), z[0], firm, spec.t1)
        # A barrier of 0 is never breached, even by a V1 that underflowed.
        barrier1 = (V1 <= spec.K1) & (spec.K1 > 0.0)
        t_mid = spec.t1
    else:
        log_v1, V1 = math.log(x.V1), x.V1
        barrier1 = np.zeros(z.shape[1], dtype=bool)
        t_mid = t
    V2 = _declared_value(log_v1, z[-1], firm, spec.t2 - spec.t1)[1]
    barrier2 = (V2 <= spec.K2) & (spec.K2 > 0.0)
    del z, log_v1, V2
    with np.errstate(over="ignore", divide="ignore"):  # V1 = exp(ln V1) >= 0
        lam2 = spec.intensity._unchecked(V1) if pre_announcement else spec.intensity(V1)
    del V1

    u = rng.random((1 + pre_announcement, n_units))  # u1 (before t1), u2
    if plan.antithetic:
        u = np.concatenate([u, u], axis=1)
        np.subtract(1.0, u[:, n_units:], out=u[:, n_units:])
        np.minimum(u, _U_CAP, out=u)  # u < 1 is u <= _U_CAP: only mirrors move
    # The clocks overwrite the uniforms: u holds xi1 (before t1) and xi2.
    jump1 = barrier1
    if pre_announcement:
        jump1 = _truncated_exp_clock(spec.intensity(firm.V0), u[0]) < spec.t1 - t
    stop1 = jump1 | barrier1
    jump2 = _truncated_exp_clock(lam2, u[-1]) < spec.t2 - t_mid
    jump2 &= ~stop1

    # A nominal unit draws one normal for its shared Gaussian integral, an
    # event unit the full set for its per-path transition to s2.
    event = stop1 | jump2
    event_unit = event[:n_units] | event[n_units:] if plan.antithetic else event
    units = np.flatnonzero(event_unit)
    paths = np.concatenate([units, units + n_units]) if plan.antithetic else units
    jump1_ev, jump2_ev, stop1_ev = jump1[paths], jump2[paths], stop1[paths]
    # The payment time s2: the jump time, t1 after a breach of K1, or t2.
    s1 = np.where(jump1_ev, t + u[0, paths], t_mid) if pre_announcement else t_mid
    s2 = np.where(jump2_ev, t_mid + u[-1, paths], np.where(stop1_ev, s1, spec.t2))
    del u, lam2
    noise = np.zeros(n_units)
    noise[~event_unit] = rng.standard_normal(n_units - units.size)
    zr = rng.standard_normal((len(plan.segments), 2, units.size))
    int_mean, int_sd = plan.nominal
    noise *= int_sd
    if plan.antithetic:
        noise = np.concatenate([noise, -noise])
        zr = np.concatenate([zr, -zr], axis=-1)
    total = np.add(noise, int_mean, out=noise)
    # Leg labels index LEG_NAMES: a nominal path survives (0) or breaches K2.
    label = np.multiply(barrier2, _LEG["expected_t2"], dtype=np.intp)
    r2, total[paths] = _rate_transition(plan, x.r, t, s2, zr)
    del zr
    own = event[paths]
    ev = paths[own]
    label[ev] = np.select(
        [barrier1[ev], jump1_ev[own], barrier2[ev]],
        [_LEG["expected_t1"], _LEG["unexpected_leg1"], _LEG["expected_t2"]],
        _LEG["unexpected_leg2"])
    # Discount each payoff along its own path from its payment time: a
    # nominal one pays 1 or R_e at t2, an event one its recovery claim,
    # valued on the default-free bond at (r, s2).
    pay = np.exp(np.negative(total, out=total), out=total)
    barrier2[ev] = False  # an event path pays its own claim, below
    np.multiply(pay, spec.R_e, out=pay, where=barrier2)
    pay[ev] *= np.where(jump1_ev[own] | jump2_ev[own], spec.R_u, spec.R_e) * zcb_price(
        x.rate_model, r2[own], s2[own])
    np.ldexp(pay, -plan.exponent, out=pay)

    if plan.antithetic:
        # A pair adds half of each payoff to that path's leg.
        n = n_units
        pay_a, pay_b, label_a, label_b = pay[:n], pay[n:], label[:n], label[n:]
        same = label_a == label_b
        pair_a = np.where(same, pay_b, 0.0)
        pair_a += pay_a
        pair_a *= 0.5
        split = np.flatnonzero(~same)
        price = pay_a + pay_b
        price *= 0.5
        leg_label = np.concatenate([label_a, label_b[split]])
        leg_value = np.concatenate([pair_a, 0.5 * pay_b[split]])
    else:
        price, leg_label, leg_value = pay, label, pay
    price_sum = price.sum()
    leg_mean, leg_m2 = _leg_moments(leg_label, leg_value, n_units, price_sum)
    mean = price_sum / n_units
    price -= mean
    np.square(price, out=price)
    return n_units, np.r_[mean, leg_mean], np.r_[price.sum(), leg_m2]


def _merge_stats(a: _Stats, b: _Stats) -> _Stats:
    """Combine the (units, means, M2s) records of two disjoint samples."""
    na, mean_a, m2a = a
    nb, mean_b, m2b = b
    n = na + nb
    delta = mean_b - mean_a
    mean = mean_a + delta * nb / n
    m2 = m2a + m2b + delta * delta * na * nb / n
    return n, mean, m2


@functools.cache
def _pool(pid: int, n_threads: int) -> ThreadPoolExecutor:
    """Workers kept across calls; keyed by pid, so a forked child makes its own."""
    return ThreadPoolExecutor(max_workers=n_threads)


def simulate_price(inputs: PricingInputs, cfg: McConfig) -> McEstimate:
    """Monte Carlo price of the bond with standard error and leg split.

    Reproducible for a fixed (inputs, cfg): the same seed yields a
    bit-identical estimate at any thread count.
    """
    plan = _build_plan(inputs, cfg)
    units = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    step = CHUNK_PATHS // 2 if cfg.antithetic else CHUNK_PATHS
    sizes = [min(step, units - i) for i in range(0, units, step)]
    run = functools.partial(_simulate_chunk, plan, cfg.seed)
    if cfg.n_threads > 1 and len(sizes) > 1:
        pool = _pool(os.getpid(), cfg.n_threads)
        results = list(pool.map(run, range(len(sizes)), sizes))
    else:
        results = list(map(run, range(len(sizes)), sizes))
    # A fixed chunk order keeps the merge deterministic.
    n, means, m2s = functools.reduce(_merge_stats, results)
    ses = np.sqrt(np.maximum(m2s, 0.0) / (n - 1) / n) if n > 1 else np.zeros_like(m2s)
    means, ses = (np.ldexp(v, plan.exponent).tolist() for v in (means, ses))
    return McEstimate(means[0], ses[0], cfg.n_paths, cfg.seed,
                      leg_breakdown=dict(zip(LEG_NAMES, means[1:])),
                      leg_std_error=dict(zip(LEG_NAMES, ses[1:])))
