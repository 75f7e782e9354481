"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion reports. Monte Carlo seeds are fixed, so every number
here is reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from dvbond import (
    DefaultSpec,
    FirmModel,
    IntensityFunction,
    McConfig,
    PricingInputs,
    PricingMode,
    ShortRateModel,
    coeff_A,
    coeff_B,
    compute_alphas,
    expected_default_leg,
    normal_cdf,
    price_full,
    simulate_price,
    zcb_price,
)
from dvbond.mathkit import (
    QuadFormMatrix,
    bivariate_cdf_bruteforce,
    bivariate_cdf_quadform,
)

from conftest import make_inputs


def report(criterion: str, detail: str, ok: bool, started: float,
           budget: float) -> None:
    elapsed = time.perf_counter() - started
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail} ({elapsed:.2f}s)"
    print(line)
    assert ok, line
    assert elapsed < budget, f"{criterion} exceeded its {budget}s budget: {elapsed:.2f}s"


def random_scenario(rng, *, full_recovery=False, ordered_recoveries=True):
    """A valid scenario drawn from an economically sensible box."""
    t2 = rng.uniform(0.5, 3.0)
    t1 = t2 * rng.uniform(0.25, 0.75)
    V0 = rng.uniform(50.0, 200.0)
    if full_recovery:
        R_u = R_e = 1.0
    else:
        R_u = rng.uniform(0.1, 0.95)
        R_e = rng.uniform(0.05, R_u) if ordered_recoveries else rng.uniform(0.05, 0.95)
    if rng.random() < 0.7:
        intensity = IntensityFunction.log_reciprocal()
    else:
        intensity = IntensityFunction.constant(rng.uniform(0.0, 0.2))
    K1 = V0 * rng.uniform(0.4, 0.95)
    return make_inputs(
        rate=dict(
            a1=rng.uniform(0.0, 0.05),
            a2=rng.uniform(0.05, 0.5),
            s_r=rng.uniform(0.0, 0.02),
        ),
        firm=dict(
            V0=V0,
            mu=rng.uniform(0.0, 0.1),
            b=rng.uniform(0.0, 0.06),
            s_V=rng.uniform(0.1, 0.5),
        ),
        default=dict(t1=t1, t2=t2, K1=K1, K2=K1 * rng.uniform(0.8, 1.25),
                     R_u=R_u, R_e=R_e),
        r=rng.uniform(-0.01, 0.08),
        t=t1 * rng.uniform(0.0, 0.9),
        intensity=intensity,
    )


@pytest.fixture(scope="session")
def p0_megarun(p0_inputs):
    """Criterion 2/3 shared oracle run: 1e6 plain paths, 64 steps/year."""
    cfg = McConfig(n_paths=1_000_000, rate_steps_per_year=64, seed=20260809,
                   n_threads=4)
    return simulate_price(p0_inputs, cfg)


def test_criterion_1_default_free_reduction():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(20):
        inputs = random_scenario(rng, full_recovery=True)
        for mode in PricingMode:
            res = price_full(inputs, mode)
            worst = max(worst, abs(res.price - res.zcb) / res.zcb)
    report("criterion 1 (par reduction)",
           f"worst |price - Z|/Z = {worst:.3e} over 20 scenarios x 2 modes, "
           "tolerance 1e-12",
           worst <= 1e-12, started, budget=1.0)


def test_criterion_2_oracle_agreement_headline(p0_inputs):
    started = time.perf_counter()
    closed = price_full(p0_inputs, PricingMode.CORRECTED).price
    cfg = McConfig(n_paths=1_000_000, rate_steps_per_year=64, seed=20260809,
                   n_threads=1)
    est = simulate_price(p0_inputs, cfg)
    z = (closed - est.price) / est.std_error
    report("criterion 2 (headline oracle agreement)",
           f"closed {closed:.7f} vs MC {est.price:.7f} +/- {est.std_error:.7f},"
           f" z = {z:+.3f} (single-threaded, 1e6 paths)",
           abs(z) <= 3.0, started, budget=60.0)


def test_criterion_3_leg_arbitration(p0_inputs, p0_megarun):
    started = time.perf_counter()
    leg_mc = p0_megarun.leg_breakdown["expected_t1"]
    leg_se = p0_megarun.leg_std_error["expected_t1"]
    z_corr_p0 = (expected_default_leg(p0_inputs, PricingMode.CORRECTED)
                 - leg_mc) / leg_se

    # Engineered so the printed first-barrier grouping is wildly off:
    # lambda(V0) * t1 = 0.6 and a barrier close to the firm value.
    engineered = make_inputs(
        default=dict(K1=95.0, R_u=0.8, R_e=0.2),
        intensity=IntensityFunction.constant(1.2),
    )
    est = simulate_price(engineered, McConfig(n_paths=400_000, seed=515,
                                              n_threads=4))
    mc, se = est.leg_breakdown["expected_t1"], est.leg_std_error["expected_t1"]
    z_corr = (expected_default_leg(engineered, PricingMode.CORRECTED) - mc) / se
    z_lit = (expected_default_leg(engineered, PricingMode.PAPER_LITERAL) - mc) / se
    ok = abs(z_corr_p0) <= 3.0 and abs(z_corr) <= 3.0 and abs(z_lit) > 5.0
    report("criterion 3 (leg arbitration)",
           f"P0 corrected z = {z_corr_p0:+.2f}; engineered corrected "
           f"z = {z_corr:+.2f}, printed-form z = {z_lit:+.1f}",
           ok, started, budget=120.0)


def test_criterion_4_bivariate_cdf():
    started = time.perf_counter()
    plus = QuadFormMatrix(m11=2.0, m12=1.0, m22=1.0)
    minus = QuadFormMatrix(m11=2.0, m12=-1.0, m22=1.0)
    err_plus = abs(bivariate_cdf_quadform(0.0, 0.0, plus) - 0.125)
    err_minus = abs(bivariate_cdf_quadform(0.0, 0.0, minus) - 0.375)

    grid = (-2.0, -1.0, 0.0, 1.0, 2.0)
    worst = 0.0
    for a in grid:
        for b in grid:
            fast = bivariate_cdf_quadform(a, b, plus)
            slow = bivariate_cdf_bruteforce(a, b, plus, abs_tol=1e-11)
            worst = max(worst, abs(fast - slow))
    ok = err_plus <= 1e-9 and err_minus <= 1e-9 and worst <= 1e-8
    report("criterion 4 (bivariate CDF)",
           f"|N2-1/8| = {err_plus:.2e}, |N2-3/8| = {err_minus:.2e}, "
           f"reduction vs brute force worst {worst:.2e} on 25-point grid",
           ok, started, budget=5.0)


def test_criterion_5_zcb_correctness(p0_rate):
    started = time.perf_counter()

    # PDE residual on a 50x50 grid by central differences.
    h = 1e-4
    r_grid = np.linspace(-0.02, 0.15, 50)
    t_grid = np.linspace(h, 1.0 - h, 50)
    rm, tm = np.meshgrid(r_grid, t_grid, indexing="ij")

    def Z(r, t):
        return np.exp(np.asarray(coeff_A(p0_rate, t))
                      - np.asarray(coeff_B(p0_rate, t)) * r)

    zt = (Z(rm, tm + h) - Z(rm, tm - h)) / (2 * h)
    zr = (Z(rm + h, tm) - Z(rm - h, tm)) / (2 * h)
    zrr = (Z(rm + h, tm) - 2 * Z(rm, tm) + Z(rm - h, tm)) / h**2
    terms = (zt, 0.5 * 0.01**2 * zrr, (0.01 - 0.2 * rm) * zr, -rm * Z(rm, tm))
    resid = np.abs(sum(terms)) / sum(np.abs(x) for x in terms)
    worst_pde = float(resid.max())

    # Closed-form A, B against joint backward ODE integration.
    def rhs(t, y):
        b, a = y
        return [0.2 * b - 1.0, 0.01 * b - 0.5 * 0.01**2 * b * b]
    sol = solve_ivp(rhs, (1.0, 0.0), [0.0, 0.0], rtol=1e-12, atol=1e-14,
                    dense_output=True)
    worst_ode = max(
        max(abs(coeff_B(p0_rate, t) - sol.sol(t)[0]),
            abs(coeff_A(p0_rate, t) - sol.sol(t)[1]))
        for t in (0.0, 0.2, 0.5, 0.8, 1.0)
    )

    # Discount-factor Monte Carlo, 1e6 Euler paths in chunks.
    rng = np.random.default_rng(55)
    steps, n, chunk = 64, 1_000_000, 125_000
    hh = 1.0 / steps
    total, total_sq = 0.0, 0.0
    for _ in range(n // chunk):
        r = np.full(chunk, 0.05)
        integral = np.zeros(chunk)
        for _ in range(steps):
            r_next = r + (0.01 - 0.2 * r) * hh \
                + 0.01 * math.sqrt(hh) * rng.standard_normal(chunk)
            integral += 0.5 * (r + r_next) * hh
            r = r_next
        disc = np.exp(-integral)
        total += float(disc.sum())
        total_sq += float(np.square(disc).sum())
    mean = total / n
    se = math.sqrt((total_sq - n * mean * mean) / (n - 1) / n)
    z_mc = (zcb_price(p0_rate, 0.05, 0.0) - mean) / se

    ok = worst_pde < 1e-6 and worst_ode <= 1e-10 and abs(z_mc) <= 3.0
    report("criterion 5 (discount bond)",
           f"PDE residual {worst_pde:.2e} on 50x50, A/B vs ODE {worst_ode:.2e}, "
           f"MC discount z = {z_mc:+.2f}",
           ok, started, budget=30.0)


def test_criterion_6_reduced_form_limit(p0_firm):
    started = time.perf_counter()
    inputs = make_inputs(default=dict(K1=0.0, K2=0.0))
    res = price_full(inputs, PricingMode.CORRECTED)
    spec = inputs.spec
    lam0 = spec.intensity(p0_firm.V0)
    scale = p0_firm.s_V * math.sqrt(spec.t1)

    def integrand(x):
        v1 = p0_firm.V0 * math.exp(p0_firm.log_drift * spec.t1 + scale * x)
        return math.exp(-spec.intensity(v1) * (spec.t2 - spec.t1)) \
            * math.exp(-x * x / 2) / math.sqrt(2 * math.pi)

    expectation, _ = quad(integrand, -14.0, 14.0, epsabs=1e-13, epsrel=1e-13)
    want = res.zcb * (spec.R_u + (1 - spec.R_u)
                      * math.exp(-lam0 * spec.t1) * expectation)
    rel = abs(res.price - want) / want
    report("criterion 6 (reduced-form limit)",
           f"barrier-free price vs independent quadrature, rel err {rel:.2e}",
           rel <= 1e-8, started, budget=1.0)


def test_criterion_7_bounds_and_monotonicity():
    started = time.perf_counter()
    rng = np.random.default_rng(7007)
    step = 1e-3
    tol = 1e-9
    worst_bound = 0.0
    violations = []

    # price direction per bumped field: +1 must not decrease the price,
    # -1 must not increase it.
    directions = (("R_u", +1), ("R_e", +1), ("K1", -1), ("K2", -1), ("V0", +1))

    for i, inputs in enumerate(random_scenario(rng) for _ in range(200)):
        base = price_full(inputs, PricingMode.CORRECTED)
        lo = min(inputs.spec.R_u, inputs.spec.R_e) * base.zcb
        worst_bound = max(worst_bound,
                          lo - base.price, base.price - base.zcb)

        for field, sign in directions:
            if field in ("R_u", "R_e"):
                old = getattr(inputs.spec, field)
                new = min(old + step, 1.0)
                bumped = make_like(inputs, **{field: new})
            elif field in ("K1", "K2"):
                old = getattr(inputs.spec, field)
                bumped = make_like(inputs, **{field: old * (1.0 + step)})
            else:
                bumped = make_like(inputs, V0=inputs.firm.V0 * (1.0 + step))
            moved = price_full(bumped, PricingMode.CORRECTED).price
            if sign * (moved - base.price) < -tol:
                violations.append((field, i, moved - base.price))

    ok = worst_bound <= 1e-12 and not violations
    report("criterion 7 (bounds and monotonicity)",
           f"worst bound violation {worst_bound:.2e}, "
           f"directional violations {len(violations)} over 200 scenarios",
           ok, started, budget=30.0)


def make_like(inputs: PricingInputs, **changes) -> PricingInputs:
    spec_fields = dict(t1=inputs.spec.t1, t2=inputs.spec.t2, K1=inputs.spec.K1,
                       K2=inputs.spec.K2, R_u=inputs.spec.R_u,
                       R_e=inputs.spec.R_e)
    firm_fields = dict(V0=inputs.firm.V0, mu=inputs.firm.mu, b=inputs.firm.b,
                       s_V=inputs.firm.s_V)
    for key, value in changes.items():
        if key in spec_fields:
            spec_fields[key] = value
        else:
            firm_fields[key] = value
    return PricingInputs(
        rate_model=inputs.rate_model,
        firm=FirmModel(**firm_fields),
        spec=DefaultSpec(**spec_fields, intensity=inputs.spec.intensity),
        r=inputs.r,
        t=inputs.t,
        V1=inputs.V1,
    )


def test_criterion_8_mc_determinism(p0_inputs):
    started = time.perf_counter()
    estimates = [
        simulate_price(p0_inputs, McConfig(n_paths=(1 << 18) + 1000, seed=4242,
                                           n_threads=k))
        for k in (1, 4, 8)
    ]
    ok = estimates[0] == estimates[1] == estimates[2]
    report("criterion 8 (MC determinism)",
           f"thread counts 1/4/8 bit-identical: price {estimates[0].price!r}, "
           f"se {estimates[0].std_error!r}",
           ok, started, budget=120.0)
