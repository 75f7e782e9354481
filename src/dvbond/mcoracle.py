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
  bond's A and B, so one module owns the segment integrals. Each path
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
* Per-path arithmetic goes only to paths with an event. A nominal path
  (no jump, no barrier breach) takes the same two transitions as every
  other nominal path, t -> t1 -> t2 (t -> t -> t2 after t1), so
  ``_rate_transition`` runs with scalar times: each segment's moments
  are computed once and broadcast over the paths' normals. Paths that
  jump or breach K1 are recomputed per path on their subset. When they
  are the majority of a chunk (a guard on the event share the chunk
  sees in its own draws, not a setting), the per-path form runs on
  every path instead. Both routes give bit-identical payoffs, and the
  payoff and rate integrals are updated in place.

Leg bookkeeping groups each path by its barrier outcome: the
``expected_t1`` leg collects every path whose first declared value
breaches K1 (including those killed earlier by a jump), which makes it
the exact simulation counterpart of the closed form's
first-barrier-breach term, and likewise for ``expected_t2`` among
paths reaching the second interval. ``unexpected_leg1``/``2`` hold the
remaining jump defaults and ``survive_both`` the par payoffs. Each
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .pricer import PricingInputs
from .ratecurve import _segment_moments, zcb_price

__all__ = ["CHUNK_PATHS", "LEG_NAMES", "McConfig", "McEstimate",
           "simulate_price"]

CHUNK_PATHS = 1 << 16
_Stats = tuple[int, np.ndarray, np.ndarray]  # a chunk's statistics record

LEG_NAMES = ("survive_both", "unexpected_leg1", "unexpected_leg2",
             "expected_t1", "expected_t2")
# Each path's leg label is its index into LEG_NAMES.
_SURVIVE, _UNEXPECTED_1, _UNEXPECTED_2, _EXPECTED_T1, _EXPECTED_T2 = range(5)

# Largest double below 1; keeps mirrored uniforms inside [0, 1).
_U_CAP = math.nextafter(1.0, 0.0)


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
    """The valuation and the constants shared by every chunk.

    ``segments`` splits [t, t2] at the rate-coefficient breakpoints into
    (left, right, a1, a2, s_r) spans of constant rate dynamics.
    ``exponent`` is the ``math.frexp`` exponent of Z(r, t), 0 when Z is 0.
    """

    inputs: PricingInputs
    segments: tuple[tuple[float, float, float, float, float], ...]
    antithetic: bool
    exponent: int


def _build_plan(inputs: PricingInputs, cfg: McConfig) -> _Plan:
    rate, t, t2 = inputs.rate_model, inputs.t, inputs.spec.t2
    edges = sorted({t, t2}.union(
        b for f in (rate.a1, rate.a2, rate.s_r) for b in f.breakpoints
        if t < b < t2
    ))
    return _Plan(inputs, tuple(
        (lo, hi, float(rate.a1(lo)), float(rate.a2(lo)), float(rate.s_r(lo)))
        for lo, hi in zip(edges, edges[1:])), cfg.antithetic,
        math.frexp(zcb_price(rate, inputs.r, t))[1])


def _declared_value(prev, z: np.ndarray, firm, dt: float) -> np.ndarray:
    """prev * exp(log_drift dt + s_V sqrt(dt) z), built in place of ``z``.

    An overflow is not reported: inf is the exact limit, with no breach
    and a log-reciprocal intensity of 0 (see ``pricer._tail_rows``)."""
    with np.errstate(over="ignore"):
        v = np.multiply(z, firm.s_V * math.sqrt(dt), out=z)
        v += firm.log_drift * dt
        np.exp(v, out=v)
        v *= prev
    return v


def _breaches(V: np.ndarray, K: float, used: np.ndarray, firm) -> np.ndarray:
    """The paths whose declared value V breaches the barrier K.

    A barrier of 0 is never breached. A V that underflows to 0 would
    breach it all the same, so a path in ``used`` (one whose V is not
    preempted by a jump) with such a V is out of the simulation's range.
    """
    if K > 0.0:
        return V <= K
    if np.any((V <= 0.0) & used):
        raise ValueError(f"s_V = {firm.s_V:g} (mu = {firm.mu:g}) is out of the "
                         "simulation's range: a declared value underflows to 0, "
                         "which a barrier of 0 would count as a breach")
    return np.zeros(V.shape, dtype=bool)


def _truncated_exp_clock(lam, u: np.ndarray) -> np.ndarray:
    """Waiting time of the jump clock, written over the uniforms ``u``.

    ``lam`` is one intensity or one per path; the time is +inf where it
    is zero.
    """
    xi = np.negative(u, out=u)
    np.log1p(xi, out=xi)
    np.negative(xi, out=xi)
    live = np.asarray(lam) > 0.0
    np.divide(xi, lam, out=xi, where=live)
    np.copyto(xi, np.inf, where=~live)
    return xi


def _rate_transition(plan: _Plan, r, lo, hi, z: np.ndarray):
    """Exact joint draw of (r_hi, int_lo^hi r) given r at lo, per path.

    ``r``, ``lo`` and ``hi`` are each shared (a scalar) or per path,
    with lo <= hi; ``z`` holds standard normals of shape
    (len(plan.segments), 2, paths). The step is chained over the
    coefficient segments; a segment it does not overlap has length zero
    and is an exact identity, so a segment no path overlaps is skipped.
    With scalar ``lo`` and ``hi`` the moments are computed once and
    broadcast. Returns per-path arrays.
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
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(chunk_idx))
    x = plan.inputs
    spec, firm, t = x.spec, x.firm, x.t

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

    pre_announcement = t < spec.t1
    if pre_announcement:
        V1 = _declared_value(firm.V0, z1, firm, spec.t1)
        xi1 = _truncated_exp_clock(spec.intensity(firm.V0), u1)
        jump1 = xi1 < spec.t1 - t
        barrier1 = _breaches(V1, spec.K1, ~jump1, firm)
        t_mid = spec.t1
    else:
        V1 = x.V1
        jump1 = barrier1 = np.zeros(m, dtype=bool)
        t_mid = t
    stop1 = jump1 | barrier1

    V2 = _declared_value(V1, z2, firm, spec.t2 - spec.t1)
    # Only a path that did not stop in the first interval needs lambda(V1);
    # a stopped one's V1 may have underflowed to 0.
    xi2 = _truncated_exp_clock(spec.intensity(
        np.where(stop1, firm.V0, V1) if pre_announcement else V1), u2)
    jump2 = xi2 < spec.t2 - t_mid
    jump2 &= ~stop1
    barrier2 = _breaches(V2, spec.K2, ~(stop1 | jump2), firm)

    # Every path ends at its payment time s2: the jump time, the first
    # announcement date for a barrier-1 breach, or maturity. A nominal
    # path (no jump, no breach) runs t -> t_mid -> t2, the same times on
    # every path, so its moments are computed once per segment. The
    # per-path form runs on the event paths only; when they are the
    # majority it runs on every path, and the nominal pass is skipped.
    ev = np.flatnonzero(stop1 | jump2)
    per_path_all = 2 * ev.size > m
    sel = slice(None) if per_path_all else ev
    s1 = np.where(jump1[sel], t + xi1[sel], t_mid) if pre_announcement else t_mid
    s2 = np.where(jump2[sel], t_mid + xi2[sel], np.where(stop1[sel], s1, spec.t2))
    z_sel = zr[..., sel]
    r2, total_sel = _rate_transition(plan, x.r, t, s1, z_sel[0])
    # r2 holds r at s1 so far. A path that stops in the first interval
    # pays at s2 = s1; the others go on from t_mid.
    go = np.flatnonzero(~stop1[sel])
    r_go, int_go = _rate_transition(plan, r2[go], t_mid, s2[go], z_sel[1][..., go])
    r2[go] = r_go
    total_sel[go] += int_go
    if per_path_all:
        total, total_ev, r2, s2 = total_sel, total_sel[ev], r2[ev], s2[ev]
    else:
        r_mid, total = _rate_transition(plan, x.r, t, t_mid, zr[0])
        total += _rate_transition(plan, r_mid, t_mid, spec.t2, zr[1])[1]
        total_ev = total_sel

    # Discount each payoff along its own path from tau, then value the
    # recovery claim on the default-free bond at (r_tau, tau).
    pay = np.exp(np.negative(total, out=total), out=total)
    np.multiply(pay, spec.R_e, out=pay, where=barrier2)
    # Leg labels index LEG_NAMES: a nominal path survives or breaches K2.
    label = np.where(barrier2, _EXPECTED_T2, _SURVIVE)
    if ev.size:
        recovery = np.where(jump1[ev] | jump2[ev], spec.R_u, spec.R_e)
        pay[ev] = np.exp(-total_ev) * (
            recovery * zcb_price(x.rate_model, r2, s2))
        label[ev] = np.select(
            [barrier1[ev], jump1[ev], barrier2[ev]],
            [_EXPECTED_T1, _UNEXPECTED_1, _EXPECTED_T2], _UNEXPECTED_2)
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
        with ThreadPoolExecutor(max_workers=cfg.n_threads) as pool:
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
