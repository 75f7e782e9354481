"""Command-line surface: price scenarios, sweep parameters, validate
against the Monte Carlo engine.

Exit codes: 0 success, 1 validation mismatch (Monte Carlo disagrees
with the corrected closed form beyond 3 standard errors), 2 input
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import functools
import io
import os
import sys

from .config import ConfigError, Scenario, load_scenarios
from .defaultmodel import IntensityFunction
from .mathkit import QuadratureConvergenceError
from .mcoracle import McConfig, simulate_price
from .pricer import LEG_NAMES, PricingInputs, PricingMode, price_batch, price_bond

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
# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


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
    """The CSV text of ``columns`` and one row per (result, *lead) of
    ``rows``: the ``prefix`` fields, the ``lead`` numbers, then price
    through expected_leg, the terms read from the shared term set as
    ``PriceResult.terms`` derives them. The prefix is quoted once; a row
    is one ``%`` format (as ``{:.15g}``, but cheaper), and one after t1
    has empty term cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(prefix)
    head = buf.getvalue().replace("%", "%%")
    numbers = len(columns) - len(prefix)
    full = head + ",%.15g" * numbers + "\r\n"
    post = head + ",%.15g" * (numbers - 6) + ",,,,,,\r\n"
    text = [",".join(columns) + "\r\n"]
    for result, *lead in rows:
        t, z = result._terms, result.zcb
        priced = (*lead, result.price, z, result.spread)
        text.append(post % priced if t is None else
                    full % (*priced, z * t.i1, t.i21, t.i22, t.i23, t.i24, z * t.leg))
    return "".join(text)


def _write_csv(path: str, text: str) -> None:
    # Rewritten in place and cut to the written length, which is cheaper
    # than emptying the file first; a symlink or the file's mode is kept.
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.truncate(fh.write(text.encode("utf-8")))
    except OSError as err:
        raise SystemExit(_fail(2, f"--csv {path}: {err.strerror or err}"))


def cmd_price(args) -> int:
    scenario = _select(_load(args.file), args.scenario)
    mode = _mode(scenario, args.mode)
    inputs = scenario.inputs
    if args.paper_literal_a:
        inputs = dataclasses.replace(
            inputs, rate_model=dataclasses.replace(inputs.rate_model, paper_literal_a=True))
    result = price_bond(inputs, mode)
    print(f"scenario {scenario.name} (mode {mode.value}"
          + (", literal-A discount curve" if args.paper_literal_a else "") + ")")
    terms = result.terms or ()
    for label, value in zip("price zcb spread I1 I21 I22 I23 I24 exp.leg".split(),
                            (result.price, result.zcb, result.spread, *terms)):
        print(f"  {label:8s}{_fmt(value)}")
    if not terms:
        print("  (post-announcement valuation: no term decomposition)")
    if args.csv:
        _write_csv(args.csv, _csv_table(PRICE_COLUMNS, [scenario.name, mode.value],
                                        [(result,)]))
    return 0


def _setter(record, name: str):
    """A function of a value: ``record`` built again by its constructor,
    field ``name`` set to the value, the other arguments read once (which
    ``dataclasses.replace`` does per call, at twice the cost)."""
    fields = [field.name for field in dataclasses.fields(record)]
    args, at = [getattr(record, field) for field in fields], fields.index(name)

    def rebuilt(value):
        args[at] = value
        return type(record)(*args)
    return rebuilt


def _point_maker(inputs: PricingInputs, axis: str):
    """A function of a grid value: ``inputs`` with the swept field set to
    it. The holder of the field and then ``PricingInputs`` are rebuilt,
    so both check it; a t2 point also moves the discount-bond maturity."""
    holder = _SWEEP_AXES[axis]
    if holder is None:
        return _setter(inputs, _INPUT_FIELDS.get(axis, axis))
    inner = _setter(getattr(inputs, holder), "intensity" if axis == "lambda0" else axis)
    outer, x = _setter(inputs, holder), inputs
    if axis == "lambda0":
        return lambda value: outer(inner(IntensityFunction.constant(value)))
    if axis == "t2":
        maturity = _setter(x.rate_model, "maturity")  # built after the spec checks t2
        return lambda value: PricingInputs(spec=inner(value), rate_model=maturity(value),
                                           firm=x.firm, r=x.r, t=x.t, V1=x.V1)
    return lambda value: outer(inner(value))


def cmd_sweep(args) -> int:
    """Price the scenario at each grid value of one field.

    Each point is built by ``_point_maker``. Every grid value is
    validated before any is priced, so an invalid value exits 2 even
    when another value would fail to converge. Errors name the axis and
    the grid value, also those raised while the points are priced
    together by ``price_batch``; the rows are ``_csv_table``'s.
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

    base = scenario.inputs
    if args.axis == "lambda0" and base.spec.intensity.family != "constant":
        return _fail(2, "axis lambda0 requires a constant intensity family")
    if args.axis in ("a1", "a2", "s_r") and \
            not getattr(base.rate_model, args.axis).is_constant:
        return _fail(2, f"axis {args.axis} requires a constant coefficient")

    points, point = [], _point_maker(base, args.axis)
    for value in grid:
        try:
            points.append(point(value))
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
                      zip(results, grid))
    sys.stdout.write(text)
    if args.csv:
        _write_csv(args.csv, text)
    return 0


# Roundoff floor of the z-score standard error, relative to the price.
_SE_ROUNDOFF = 1e-14


@functools.cache
def _keep_freed_memory() -> None:
    """Fix glibc's malloc thresholds at the ceiling its adaptive rule reaches.

    glibc raises its mmap and trim thresholds only as large blocks are
    freed. So whether a simulation thread hands a chunk's ~5 MB of NumPy
    temporaries back to the kernel, and faults them in again in the next
    chunk, depends on the process's allocation history: ~1,700 page
    faults and 1-5 ms per 2^18-path command in some processes, none in
    others; a 200-point ``V0`` sweep maps its ~280 KB normal-CDF tables
    afresh, ~900 faults. With fixed thresholds the freed memory stays in
    the process. Does nothing on other C libraries.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    libc = ctypes.CDLL(None)
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def cmd_validate(args) -> int:
    """Compare both closed-form modes to the simulation; gate on 3 SE.

    Every z-score divides by max(SE, _SE_ROUNDOFF * |MC price|). A
    scenario without randomness (s_r = 0, full recovery) has an SE of
    ~1e-18 from summation roundoff alone, which would turn agreement to
    the last printed digit into |z| >> 3. Any stochastic SE lies many
    orders of magnitude above the floor, so the 3-SE gate is not widened.

    Before t1 a table compares each of the ``LEG_NAMES`` legs of the
    simulation with that leg of both closed forms. A leg that is 0 in the
    simulation (no path paid on it) and nonzero in the closed form prints
    ``simulated leg is 0`` in place of a z, which the SE floor would
    make huge, or 0 for a tiny leg.
    """
    if args.paths < 2:
        return _fail(2, f"--paths must be at least 2, got {args.paths}")
    if args.antithetic and args.paths % 2:
        return _fail(2, f"--paths must be even with --antithetic, got {args.paths}")
    if args.threads < 1:
        return _fail(2, f"--threads must be at least 1, got {args.threads}")
    if not 0 <= args.seed < 2**64:
        return _fail(2, f"--seed must be a 64-bit unsigned integer, got {args.seed}")
    scenario = _select(_load(args.file), args.scenario)
    inputs = scenario.inputs
    corrected = price_bond(inputs, PricingMode.CORRECTED)
    literal = price_bond(inputs, PricingMode.PAPER_LITERAL)
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

    def leg_row(name: str, mc: str, se: str, cells) -> str:
        return (f"    {name:16s}{mc:>22s} +/- {se:8s}"
                + "".join(f" {cf:>22s} {z:16s}" for cf, z in cells)).rstrip()

    if corrected.legs is not None:
        print(leg_row("legs", "monte carlo", "SE", [(m.value, "z") for m in PricingMode]))
        for name in LEG_NAMES:
            mc, se = est.leg_breakdown[name], est.leg_std_error[name]
            print(leg_row(name, _fmt(mc), f"{se:.3g}", [
                (_fmt(cf), "simulated leg is 0" if mc == 0.0 and cf != 0.0
                 else f"z {z_score(cf, mc, se):+.3f}")
                for cf in (corrected.legs[name], literal.legs[name])]))

    ok = abs(z_corr) <= 3.0
    print("PASS: corrected closed form within 3 SE of the simulation"
          if ok else
          "FAIL: corrected closed form beyond 3 SE of the simulation")
    return 0 if ok else 1


def _attach_grid(argv: list[str]) -> list[str]:
    """Join a ``--grid`` value that starts with a minus sign to its flag.

    argparse exempts only a bare negative number from option parsing, so
    it reads "--grid -0.01,0.02" or "--grid -inf,0.05" as a flag with no
    value; any single-dash token after a bare ``--grid`` is its value.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--grid" and token[:1] == "-" and token[:2] != "--":
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
    _keep_freed_memory()
    try:
        return args.fn(args)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    except QuadratureConvergenceError as err:
        return _fail(3, f"quadrature failure: {err}")
    except ValueError as err:
        return _fail(2, str(err))


if __name__ == "__main__":
    sys.exit(main())
