"""Command-line surface: price scenarios, sweep parameters, validate
against the Monte Carlo engine.

Exit codes: 0 success, 1 validation mismatch (Monte Carlo disagrees
with the corrected closed form beyond 3 standard errors), 2 input
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import math
import os
import re
import sys

from .config import ConfigError, Scenario, load_scenarios
from .defaultmodel import IntensityFunction
from .mathkit import QuadratureConvergenceError
from .mcoracle import McConfig, simulate_price
from .pricer import (PriceResult, PricingInputs, PricingMode, _spread,
                     price_batch, price_bond)

PRICE_COLUMNS = ("scenario", "mode", "price", "zcb", "spread",
                 "I1", "I21", "I22", "I23", "I24", "expected_leg")
SWEEP_COLUMNS = ("scenario", "mode", "axis", "axis_value") + PRICE_COLUMNS[2:]

# axis name -> the PricingInputs attribute that holds the field (None =
# the inputs themselves, under the field name of _INPUT_FIELDS where it
# differs from the axis); lambda0 replaces the spec's constant intensity.
_SWEEP_AXES = {
    **dict.fromkeys(("valuation_time", "r0", "V1"), None),
    **dict.fromkeys(("a1", "a2", "s_r"), "rate_model"),
    **dict.fromkeys(("V0", "mu", "b", "s_V"), "firm"),
    **dict.fromkeys(("t1", "t2", "K1", "K2", "R_u", "R_e", "lambda0"), "spec"),
}
_INPUT_FIELDS = {"r0": "r", "valuation_time": "t"}


def _fmt(x) -> str:
    return f"{x:.15g}"


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load(path: str) -> dict[str, Scenario]:
    try:
        return load_scenarios(path)
    except (OSError, ConfigError) as err:
        raise SystemExit(_fail(2, str(err)))


def _select(scenarios: dict[str, Scenario], name: str | None) -> Scenario:
    if name is not None:
        if name not in scenarios:
            raise SystemExit(_fail(
                2, f"scenario {name!r} not in file (have: {', '.join(scenarios)})"
            ))
        return scenarios[name]
    if len(scenarios) == 1:
        return next(iter(scenarios.values()))
    raise SystemExit(_fail(
        2, f"file has several scenarios ({', '.join(scenarios)}); pick one "
           "with --scenario"
    ))


def _mode(scenario: Scenario, flag: str | None) -> PricingMode:
    return PricingMode(flag) if flag else scenario.mode


def _csv_table(columns: tuple, prefix: list[str], rows) -> str:
    """The CSV text of ``columns`` and one row per (result, horizon, *lead)
    of ``rows``: the ``prefix`` fields, the ``lead`` numbers, then price
    through expected_leg. The prefix is quoted once by ``csv.writer``;
    the numbers never need quoting, so a row is one format call, and a
    row valued after t1 leaves the six term columns empty."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(prefix)
    head = buf.getvalue().replace("{", "{{").replace("}", "}}")
    numbers = len(columns) - len(prefix)
    full = head + ",{:.15g}" * numbers + "\r\n"
    post = head + ",{:.15g}" * (numbers - 6) + ",,,,,,\r\n"
    text = [",".join(columns) + "\r\n"]
    for result, horizon, *lead in rows:
        t, spread = result.terms, _spread(result, horizon)
        text.append(post.format(*lead, result.price, result.zcb, spread) if t is None
                    else full.format(*lead, result.price, result.zcb, spread, t.i1,
                                     t.i21, t.i22, t.i23, t.i24, t.expected_default))
    return "".join(text)


def _write_csv(path: str, text: str) -> None:
    # Rewritten in place and cut to the written length, which is cheaper
    # than emptying the file first; a symlink or the file's mode is kept.
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.truncate(fh.write(text.encode("utf-8")))
    except OSError as err:
        raise SystemExit(_fail(2, f"--csv {path}: {err.strerror or err}"))


def _priced_scenario(scenario: Scenario, mode: PricingMode,
                     paper_literal_a: bool) -> PriceResult:
    if paper_literal_a:
        scenario = dataclasses.replace(
            scenario,
            rate_model=dataclasses.replace(scenario.rate_model,
                                           paper_literal_a=True),
        )
    return price_bond(scenario.pricing_inputs(), mode)


def cmd_price(args) -> int:
    scenario = _select(_load(args.file), args.scenario)
    mode = _mode(scenario, args.mode)
    try:
        result = _priced_scenario(scenario, mode, args.paper_literal_a)
    except QuadratureConvergenceError as err:
        return _fail(3, f"quadrature failure: {err}")

    print(f"scenario {scenario.name} (mode {mode.value}"
          + (", literal-A discount curve" if args.paper_literal_a else "") + ")")
    print(f"  price   {_fmt(result.price)}")
    print(f"  zcb     {_fmt(result.zcb)}")
    horizon = scenario.spec.t2 - scenario.valuation_time
    print(f"  spread  {_fmt(_spread(result, horizon))}")
    if result.terms:
        t = result.terms
        print(f"  I1      {_fmt(t.i1)}")
        print(f"  I21     {_fmt(t.i21)}")
        print(f"  I22     {_fmt(t.i22)}")
        print(f"  I23     {_fmt(t.i23)}")
        print(f"  I24     {_fmt(t.i24)}")
        print(f"  exp.leg {_fmt(t.expected_default)}")
    else:
        print("  (post-announcement valuation: no term decomposition)")
    if args.csv:
        _write_csv(args.csv, _csv_table(PRICE_COLUMNS, [scenario.name, mode.value],
                                        [(result, horizon)]))
    return 0


def _sweep_point(inputs: PricingInputs, axis: str, value: float) -> PricingInputs:
    """The pricing inputs with the swept field set to ``value``.

    Only the object that holds the field is rebuilt, so its constructor
    checks the new value, and then ``PricingInputs`` checks the whole;
    a t2 point also moves the discount-bond maturity.
    """
    holder = _SWEEP_AXES[axis]
    if holder is None:
        return dataclasses.replace(inputs, **{_INPUT_FIELDS.get(axis, axis): value})
    change = ({"intensity": IntensityFunction.constant(value)}
              if axis == "lambda0" else {axis: value})
    parts = {holder: dataclasses.replace(getattr(inputs, holder), **change)}
    if axis == "t2":
        parts["rate_model"] = dataclasses.replace(inputs.rate_model,
                                                  maturity=value)
    return dataclasses.replace(inputs, **parts)


def cmd_sweep(args) -> int:
    """Price the scenario at each grid value of one field.

    Each point is the loaded scenario's ``PricingInputs`` with the swept
    field replaced; the replaced model and ``PricingInputs`` check the
    value again. Every grid value is validated before any is priced, so
    an invalid value exits 2 even when another value would fail to
    converge. Errors name the axis and the grid value, also those raised
    while the points are priced together by ``price_batch``. Each row is
    one format call on a template whose quoted prefix is built once.
    """
    scenario = _select(_load(args.file), args.scenario)
    mode = _mode(scenario, args.mode)
    if args.axis not in _SWEEP_AXES:
        return _fail(2, f"unknown axis {args.axis!r}; choose one of "
                        f"{', '.join(sorted(_SWEEP_AXES))}")
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip() != ""]
    except ValueError:
        return _fail(2, f"grid must be comma-separated numbers, got {args.grid!r}")
    if not grid:
        return _fail(2, "empty grid")

    if args.axis == "lambda0" and scenario.spec.intensity.family != "constant":
        return _fail(2, "axis lambda0 requires a constant intensity family")
    if args.axis in ("a1", "a2", "s_r") and not getattr(
        scenario.rate_model, args.axis
    ).is_constant:
        return _fail(2, f"axis {args.axis} requires a constant coefficient")

    base, points = scenario.pricing_inputs(), []
    for value in grid:
        try:
            points.append(_sweep_point(base, args.axis, value))
        except ValueError as err:
            return _fail(2, f"{args.axis} grid value {value!r}: {err}")
    try:
        results = price_batch(points, mode)
    except QuadratureConvergenceError as err:
        return _fail(3, f"{args.axis} grid value {grid[err.batch_index]!r}: "
                        f"quadrature failure: {err}")
    except ValueError as err:
        if not hasattr(err, "batch_index"):
            raise  # not tied to one point; main reports it
        return _fail(2, f"{args.axis} grid value {grid[err.batch_index]!r}: {err}")
    text = _csv_table(SWEEP_COLUMNS, [scenario.name, mode.value, args.axis],
                      zip(results, [x.spec.t2 - x.t for x in points], grid))
    sys.stdout.write(text)
    if args.csv:
        _write_csv(args.csv, text)
    return 0


# Roundoff floor of the z-score standard error, relative to the price.
_SE_ROUNDOFF = 1e-14

# The printed label of each closed-form leg of ``PriceResult.legs``.
_LEG_LABELS = {
    ("survive_both", "unexpected_leg2"): "survive+jump2 legs",
    ("expected_t2",): "expected_t2 leg",
    ("unexpected_leg1",): "unexpected_t1 leg",
    ("expected_t1",): "expected_t1 leg",
}


def cmd_validate(args) -> int:
    """Compare both closed-form modes to the simulation; gate on 3 SE.

    Every z-score divides by max(SE, _SE_ROUNDOFF * |MC price|). A
    scenario without randomness (s_r = 0, full recovery) has an SE of
    ~1e-18 from summation roundoff alone, which would turn agreement to
    the last printed digit into |z| >> 3. Any stochastic SE lies many
    orders of magnitude above the floor, so the 3-SE gate is not widened.
    """
    if args.paths < 2:
        return _fail(2, f"--paths must be at least 2, got {args.paths}")
    if args.threads < 1:
        return _fail(2, f"--threads must be at least 1, got {args.threads}")
    if not 0 <= args.seed < 2**64:
        return _fail(2, f"--seed must be a 64-bit unsigned integer, got {args.seed}")
    scenario = _select(_load(args.file), args.scenario)
    inputs = scenario.pricing_inputs()
    try:
        corrected = price_bond(inputs, PricingMode.CORRECTED)
        literal = price_bond(inputs, PricingMode.PAPER_LITERAL)
    except QuadratureConvergenceError as err:
        return _fail(3, f"quadrature failure: {err}")
    cfg = McConfig(
        n_paths=args.paths,
        seed=args.seed,
        antithetic=args.antithetic,
        n_threads=args.threads,
    )
    est = simulate_price(inputs, cfg)
    se_floor = _SE_ROUNDOFF * abs(est.price)

    def z_score(closed: float, mc: float, se: float) -> float:
        se = max(se, se_floor)
        return 0.0 if se == 0.0 else (closed - mc) / se

    z_corr = z_score(corrected.price, est.price, est.std_error)
    z_lit = z_score(literal.price, est.price, est.std_error)
    print(f"scenario {scenario.name}: {args.paths} paths, seed {args.seed}, "
          "exact rate transitions"
          + (", antithetic" if args.antithetic else ""))
    print(f"  closed corrected      {_fmt(corrected.price)}")
    print(f"  closed paper-literal  {_fmt(literal.price)}")
    print(f"  monte carlo           {_fmt(est.price)} +/- {_fmt(est.std_error)}")
    print(f"  z corrected           {z_corr:+.3f}")
    print(f"  z paper-literal       {z_lit:+.3f}")

    if corrected.legs is not None:
        print("  legs (corrected closed form vs monte carlo):")
        for keys, cf in corrected.legs.items():
            mc = sum(est.leg_breakdown[k] for k in keys)
            se = math.hypot(*(est.leg_std_error[k] for k in keys))
            print(f"    {_LEG_LABELS[keys]:20s} {_fmt(cf):>22s} vs {_fmt(mc):>22s}"
                  f"  z {z_score(cf, mc, se):+.3f}")
        lit_leg = literal.legs[("expected_t1",)]
        z_lit_leg = z_score(lit_leg, est.leg_breakdown["expected_t1"],
                            est.leg_std_error["expected_t1"])
        print(f"    expected_t1 (paper-literal grouping)"
              f" {_fmt(lit_leg):>22s}  z {z_lit_leg:+.3f}")

    ok = abs(z_corr) <= 3.0
    print("PASS: corrected closed form within 3 SE of the simulation"
          if ok else
          "FAIL: corrected closed form beyond 3 SE of the simulation")
    return 0 if ok else 1


def _attach_grid(argv: list[str]) -> list[str]:
    """Join a ``--grid`` value that starts with a minus sign to its flag.

    argparse exempts only a bare negative number from option parsing, so
    it reads "--grid -0.01,0.02" as a flag with no value.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--grid" and re.match(r"-[0-9.]", token):
            out[-1] = f"--grid={token}"
        else:
            out.append(token)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="dvbond",
        description="Defaultable-bond pricing from discretely declared firm value",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = {}
    for name, fn, text in (
        ("price", cmd_price, "price one scenario"),
        ("sweep", cmd_sweep, "price along a parameter grid"),
        ("validate", cmd_validate, "compare both closed-form modes to Monte Carlo"),
    ):
        p[name] = sub.add_parser(name, help=text)
        p[name].set_defaults(fn=fn)
        p[name].add_argument("file", help="scenario YAML file")
        p[name].add_argument("--scenario", help="scenario name (if several)")
        if name != "validate":
            p[name].add_argument("--mode", choices=[m.value for m in PricingMode],
                                 help="override the scenario's pricing mode")
    p["price"].add_argument("--csv", help="also write the result as a CSV row")
    p["price"].add_argument("--paper-literal-A", dest="paper_literal_a",
                            action="store_true",
                            help="diagnostic: build the discount curve's log-level "
                                 "coefficient from the mean-reversion coefficient")
    p["sweep"].add_argument("--axis", required=True, help="scenario field to vary")
    p["sweep"].add_argument("--grid", required=True, help="comma-separated values")
    p["sweep"].add_argument("--csv", help="also write the table to a file")
    p["validate"].add_argument("--paths", type=int, default=200_000)
    p["validate"].add_argument("--seed", type=int, default=42)
    p["validate"].add_argument("--threads", type=int, default=1)
    p["validate"].add_argument("--antithetic", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(
        _attach_grid(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.fn(args)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    except ValueError as err:
        return _fail(2, str(err))


if __name__ == "__main__":
    sys.exit(main())
