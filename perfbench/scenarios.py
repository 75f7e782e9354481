"""Inputs of the benchmark workloads.

Everything here is deterministic. The closed-form box and the sweep
grids are fixed pools whose prices at the reference commit are stored
in ``data/reference.npz``; a workload seed only chooses which pool
members a run prices and in what order, so every price a run makes can
be checked against a stored value.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# The box pool is regenerated from this seed on every run and checked
# against the digest stored with the reference prices.
BOX_POOL_SEED = 20130215
BOX_POOL_SIZE = 65536

# Columns of the box parameter matrix, in order.
BOX_COLUMNS = (
    "t1", "t2", "V0", "mu", "b", "s_V", "K1", "K2", "R_u", "R_e",
    "lambda0", "a1", "a1_late", "a1_break", "a2", "s_r", "r", "t", "V1",
)
# lambda0 < 0 marks the log-reciprocal intensity; a1_break = 0 a
# constant a1; V1 = 0 a valuation before the first announcement.

SWEEP_POOL_SIZE = 4096
R0_POOL = np.linspace(-0.01, 0.10, SWEEP_POOL_SIZE)
V0_POOL = np.linspace(50.0, 250.0, SWEEP_POOL_SIZE)

P0 = {
    "rate": {"a1": 0.01, "a2": 0.2, "s_r": 0.01, "r0": 0.05},
    "firm": {"V0": 100.0, "mu": 0.07, "b": 0.05, "s_V": 0.2},
    "default": {"t1": 0.5, "t2": 1.0, "K1": 70.0, "K2": 80.0,
                "R_u": 0.4, "R_e": 0.3},
}


def scenario_yaml() -> str:
    """P0 as a one-scenario file."""
    rate, firm, dflt = P0["rate"], P0["firm"], P0["default"]
    return f"""scenarios:
  P0:
    mode: corrected
    valuation_time: 0.0
    rate:
      a1: {rate['a1']!r}
      a2: {rate['a2']!r}
      s_r: {rate['s_r']!r}
      r0: {rate['r0']!r}
    firm:
      V0: {firm['V0']!r}
      mu: {firm['mu']!r}
      b: {firm['b']!r}
      s_V: {firm['s_V']!r}
    default:
      t1: {dflt['t1']!r}
      t2: {dflt['t2']!r}
      K1: {dflt['K1']!r}
      K2: {dflt['K2']!r}
      R_u: {dflt['R_u']!r}
      R_e: {dflt['R_e']!r}
      intensity:
        family: log-reciprocal
"""


def box_pool() -> np.ndarray:
    """The closed-form box: (BOX_POOL_SIZE, len(BOX_COLUMNS)) parameters.

    The ranges are those of acceptance criterion 7, widened so that
    every branch of the pricer takes a share: 15% piecewise a1 (the
    quadrature path of the discount curve), 5% K1 = 0 and 5% K2 = 0
    (the zero-barrier short-circuits), 10% valued after t1 with a
    declared V1 (``price_last_interval``), and 30% constant intensity
    (the factored jump-survival kernel).
    """
    rng = np.random.default_rng(BOX_POOL_SEED)
    n = BOX_POOL_SIZE
    u = lambda lo, hi: rng.uniform(lo, hi, n)  # noqa: E731
    t2 = u(0.5, 3.0)
    t1 = t2 * u(0.25, 0.75)
    V0 = u(50.0, 200.0)
    mu, b, s_V = u(0.0, 0.1), u(0.0, 0.06), u(0.1, 0.5)
    R_u = u(0.1, 0.95)
    R_e = 0.05 + (R_u - 0.05) * u(0.0, 1.0)
    K1 = V0 * u(0.4, 0.95)
    K2 = K1 * u(0.8, 1.25)
    lambda0 = np.where(u(0.0, 1.0) < 0.3, u(0.0, 0.2), -1.0)
    a1, a1_late = u(0.0, 0.05), u(0.0, 0.05)
    a1_break = t2 * u(0.2, 0.8)
    a2, s_r, r = u(0.05, 0.5), u(0.0, 0.02), u(-0.01, 0.08)
    t = t1 * u(0.0, 0.9)
    t_late = t1 + (t2 - t1) * u(0.0, 0.9)
    V1 = V0 * np.exp(u(-0.5, 0.5))

    kind = u(0.0, 1.0)
    piecewise = kind < 0.15
    K1 = np.where((kind >= 0.15) & (kind < 0.20), 0.0, K1)
    K2 = np.where((kind >= 0.20) & (kind < 0.25), 0.0, K2)
    late = (kind >= 0.25) & (kind < 0.35)
    a1_break = np.where(piecewise, a1_break, 0.0)
    t = np.where(late, t_late, t)
    V1 = np.where(late, V1, 0.0)
    return np.column_stack([
        t1, t2, V0, mu, b, s_V, K1, K2, R_u, R_e,
        lambda0, a1, a1_late, a1_break, a2, s_r, r, t, V1,
    ])


def pool_digest(*arrays: np.ndarray) -> str:
    """SHA-256 of the arrays' float64 bytes; ties prices to their inputs."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def box_inputs(dvbond, row: np.ndarray):
    """``PricingInputs`` for one row of the box pool."""
    p = dict(zip(BOX_COLUMNS, (float(x) for x in row)))
    if p["a1_break"] > 0.0:
        a1 = dvbond.PiecewiseConstant((p["a1_break"],), (p["a1"], p["a1_late"]))
    else:
        a1 = p["a1"]
    if p["lambda0"] < 0.0:
        intensity = dvbond.IntensityFunction.log_reciprocal()
    else:
        intensity = dvbond.IntensityFunction.constant(p["lambda0"])
    return dvbond.PricingInputs(
        rate_model=dvbond.ShortRateModel(a1=a1, a2=p["a2"], s_r=p["s_r"],
                                         maturity=p["t2"]),
        firm=dvbond.FirmModel(V0=p["V0"], mu=p["mu"], b=p["b"], s_V=p["s_V"]),
        spec=dvbond.DefaultSpec(t1=p["t1"], t2=p["t2"], K1=p["K1"], K2=p["K2"],
                                R_u=p["R_u"], R_e=p["R_e"], intensity=intensity),
        r=p["r"],
        t=p["t"],
        V1=p["V1"] if p["V1"] > 0.0 else None,
    )


def p0_inputs(dvbond, r0: float = P0["rate"]["r0"], V0: float = P0["firm"]["V0"]):
    """``PricingInputs`` of P0, optionally moved along one sweep axis."""
    rate, firm, dflt = P0["rate"], P0["firm"], P0["default"]
    return dvbond.PricingInputs(
        rate_model=dvbond.ShortRateModel(a1=rate["a1"], a2=rate["a2"],
                                         s_r=rate["s_r"], maturity=dflt["t2"]),
        firm=dvbond.FirmModel(V0=V0, mu=firm["mu"], b=firm["b"], s_V=firm["s_V"]),
        spec=dvbond.DefaultSpec(**dflt,
                                intensity=dvbond.IntensityFunction.log_reciprocal()),
        r=r0,
        t=0.0,
    )


def mc_array_bytes(n_paths: int, chunk_paths: int, steps_per_year: int,
                   t: float, t1: float, t2: float) -> int:
    """Bytes of the three (paths x steps) arrays one MC chunk allocates.

    Computed, not measured: the normal draws (paths x steps) plus the
    rate path and its running integral (paths x (steps + 1) each), for
    the grid the simulation builds (announcement date pinned to it).
    """
    n_steps = max(1, math.ceil((t2 - t) * steps_per_year))
    grid = np.linspace(t, t2, n_steps + 1)
    if t < t1 and not np.any(np.abs(grid - t1) < 1e-12):
        n_steps += 1
    paths = min(n_paths, chunk_paths)
    return 8 * paths * (n_steps + 2 * (n_steps + 1))
