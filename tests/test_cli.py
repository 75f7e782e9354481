import csv
import dataclasses
import io
import math
import os
import re
import textwrap
from pathlib import Path

import pytest
import yaml

from dvbond import cli, pricer
from dvbond.cli import main
from dvbond.config import ConfigError, _Loader, load_scenarios
from dvbond.mathkit import QuadratureSpec

P0_YAML = textwrap.dedent("""\
    scenarios:
      P0:
        mode: corrected
        valuation_time: 0.0
        rate:
          a1: 0.01
          a2: 0.2
          s_r: 0.01
          r0: 0.05
        firm:
          V0: 100.0
          mu: 0.07
          b: 0.05
          s_V: 0.2
        default:
          t1: 0.5
          t2: 1.0
          K1: 70.0
          K2: 80.0
          R_u: 0.4
          R_e: 0.3
          intensity:
            family: log-reciprocal
    """)

PAR_YAML = P0_YAML.replace("R_u: 0.4", "R_u: 1.0").replace("R_e: 0.3", "R_e: 1.0")
ZERO_YAML = P0_YAML.replace("K1: 70.0", "K1: 10000000.0") \
    .replace("R_u: 0.4", "R_u: 0.0").replace("R_e: 0.3", "R_e: 0.0")


# Every scenario document the tests write, and the README's P0.
YAML_DOCS = [P0_YAML, PAR_YAML, ZERO_YAML] + [
    P0_YAML.replace(old, new) for old, new in (
        ("      s_V: 0.2\n", ""), ("s_V: 0.2", "s_V: 0.2\n      sV: 1"),
        ("R_u: 0.4", "R_u: 1.4"), ("family: log-reciprocal", "family: [a, b]"),
        ("a1: 0.01", "a1:\n            breakpoints: [0.5]\n"
                     "            values: [0.01, 0.02]"),
        ("K1: 70.0", "K1: 1e7"), ("K1: 70.0", "K1: 1.0e7"), ("K1: 70.0", "K1: 1E+7"),
        ("r0: 0.05", "r0: -2.5E-3"), ("r0: 0.05", "r0: 5e-2"),
        ("K1: 70.0", 'K1: "1e7"'), ("V0: 100.0", "V0: .nan"),
        ("s_r: 0.01", "s_r: .inf"), ("s_r: 0.01", "s_r: 1e160"),
        ("a2: 0.2", "a2: 1e200"), ("mu: 0.07", "mu: -1000000.0"),
        ("valuation_time: 0.0", "valuation_time: 0.6"),
        ("s_V: 0.2", "s_V: 0.2\n      V1: 95.0"),
        ("family: log-reciprocal", "family: constant\n        lambda0: 0.03"),
        ("scenarios:\n", "scenarios:\n  HIGHVOL: {}\n"),
    )
] + re.findall(r"```yaml\n(.*?)```",
               (Path(__file__).parents[1] / "README.md").read_text(), re.S)


class _PureLoader(yaml.SafeLoader):
    """The pure-Python safe loader with ``_Loader``'s resolver."""


_PureLoader.yaml_implicit_resolvers = {
    first: list(resolvers)
    for first, resolvers in _Loader.yaml_implicit_resolvers.items()
}


@pytest.fixture
def p0_file(tmp_path):
    path = tmp_path / "p0.yaml"
    path.write_text(P0_YAML)
    return str(path)


def csv_writer_text(columns, lead_rows, points, mode):
    """``csv.writer`` text of ``columns`` and one row per point: its
    ``lead_rows`` fields, then the priced fields of ``price_batch``."""
    results = pricer.price_batch(points, pricer.PricingMode(mode))
    rows = [columns]
    for lead, x, res in zip(lead_rows, points, results):
        t = res.terms
        numbers = [res.price, res.zcb, pricer._spread(res, x.spec.t2 - x.t)]
        if t is not None:
            numbers += [t.i1, t.i21, t.i22, t.i23, t.i24, t.expected_default]
        rows.append(lead + [f"{v:.15g}" for v in numbers] + [""] * (9 - len(numbers)))
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


class TestConfig:
    def test_loads_benchmark(self, p0_file):
        scenarios = load_scenarios(p0_file)
        assert list(scenarios) == ["P0"]
        s = scenarios["P0"]
        assert s.spec.K1 == 70.0
        assert s.rate_model.maturity == s.spec.t2

    def test_missing_field_names_it(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(P0_YAML.replace("      s_V: 0.2\n", ""))
        with pytest.raises(ConfigError) as err:
            load_scenarios(str(path))
        assert "scenarios.P0.firm.s_V" in str(err.value)

    def test_unknown_key_names_it(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(P0_YAML.replace("s_V: 0.2", "s_V: 0.2\n      sV: 1"))
        with pytest.raises(ConfigError) as err:
            load_scenarios(str(path))
        assert "scenarios.P0.firm.sV" in str(err.value)
        assert "unknown key" in str(err.value)

    def test_invariant_violation_reported_with_path(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(P0_YAML.replace("R_u: 0.4", "R_u: 1.4"))
        with pytest.raises(ConfigError) as err:
            load_scenarios(str(path))
        assert "scenarios.P0.default" in str(err.value)

    def test_piecewise_coefficient(self, tmp_path):
        path = tmp_path / "pw.yaml"
        path.write_text(P0_YAML.replace(
            "a1: 0.01",
            "a1:\n            breakpoints: [0.5]\n            values: [0.01, 0.02]",
        ))
        s = load_scenarios(str(path))["P0"]
        assert s.rate_model.a1(0.25) == 0.01
        assert s.rate_model.a1(0.75) == 0.02

    def test_non_scalar_family_names_it(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(P0_YAML.replace("family: log-reciprocal", "family: [a, b]"))
        with pytest.raises(ConfigError) as err:
            load_scenarios(str(path))
        assert "scenarios.P0.default.intensity.family: unknown family" in str(err.value)

    @pytest.mark.parametrize("text, value", [
        ("K1: 1e7", 1e7), ("K1: 1.0e7", 1e7), ("K1: 1E+7", 1e7),
        ("r0: -2.5E-3", -2.5e-3), ("r0: 5e-2", 0.05)])
    def test_exponent_floats(self, tmp_path, text, value):
        # YAML 1.1 leaves an unsigned exponent or a point-less mantissa
        # as a string; the loader reads them as YAML 1.2 floats.
        key = text.split(":")[0]
        old = {"K1": "K1: 70.0", "r0": "r0: 0.05"}[key]
        path = tmp_path / "exp.yaml"
        path.write_text(P0_YAML.replace(old, text))
        s = load_scenarios(str(path))["P0"]
        assert (s.spec.K1 if key == "K1" else s.r0) == value
        assert main(["price", str(path)]) == 0

    def test_quoted_and_non_finite_numbers_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(P0_YAML.replace("K1: 70.0", 'K1: "1e7"'))
        with pytest.raises(ConfigError) as err:
            load_scenarios(str(path))
        assert "scenarios.P0.default.K1" in str(err.value)
        path.write_text(P0_YAML.replace("V0: 100.0", "V0: .nan"))
        with pytest.raises(ConfigError) as err:
            load_scenarios(str(path))
        assert "V0 must be finite" in str(err.value)

    @pytest.mark.parametrize("doc", YAML_DOCS,
                             ids=[f"doc{i}" for i in range(len(YAML_DOCS))])
    def test_loader_matches_pure_python(self, doc):
        # repr: a NaN is not equal to itself, and 1 == 1.0 == True.
        assert repr(yaml.load(doc, Loader=_Loader)) \
            == repr(yaml.load(doc, Loader=_PureLoader))

    def test_loader_is_libyaml_backed(self):
        assert issubclass(_Loader, getattr(yaml, "CSafeLoader", ())) \
            == yaml.__with_libyaml__

    def test_syntax_error_names_file(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("scenarios: [P0\n")
        with pytest.raises(ConfigError, match="not valid YAML") as err:
            load_scenarios(str(path))
        assert err.value.path == str(path)

    def test_post_announcement_requires_declared_value(self, tmp_path):
        path = tmp_path / "post.yaml"
        path.write_text(P0_YAML.replace("valuation_time: 0.0",
                                        "valuation_time: 0.6"))
        with pytest.raises(ConfigError):
            load_scenarios(str(path))
        path.write_text(P0_YAML.replace("valuation_time: 0.0",
                                        "valuation_time: 0.6")
                        .replace("s_V: 0.2", "s_V: 0.2\n      V1: 95.0"))
        s = load_scenarios(str(path))["P0"]
        assert s.V1 == 95.0


class TestPriceCommand:
    def test_prints_and_writes_csv(self, p0_file, tmp_path, capsys):
        out = tmp_path / "row.csv"
        assert main(["price", p0_file, "--csv", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "price" in stdout and "spread" in stdout
        header, row = out.read_text().strip().splitlines()
        assert header == ("scenario,mode,price,zcb,spread,"
                          "I1,I21,I22,I23,I24,expected_leg")
        fields = row.split(",")
        assert fields[0] == "P0" and fields[1] == "corrected"
        assert float(fields[2]) == pytest.approx(0.858006516156331, abs=1e-12)

    def test_par_scenario_price_equals_zcb(self, tmp_path, capsys):
        path = tmp_path / "par.yaml"
        path.write_text(PAR_YAML)
        out = tmp_path / "row.csv"
        assert main(["price", str(path), "--csv", str(out)]) == 0
        _, row = out.read_text().strip().splitlines()
        fields = row.split(",")
        assert float(fields[2]) == pytest.approx(float(fields[3]), abs=1e-12)

    def test_par_scenario_spread_prints_zero(self, tmp_path, capsys):
        # -ln(price / Z) is -0.0 at par, which must not print as "-0".
        path = tmp_path / "par.yaml"
        path.write_text(PAR_YAML)
        out = tmp_path / "row.csv"
        assert main(["price", str(path), "--csv", str(out)]) == 0
        assert "  spread  0\n" in capsys.readouterr().out
        _, row = out.read_text().strip().splitlines()
        assert row.split(",")[4] == "0"

    def test_zero_price_has_infinite_spread(self, tmp_path, capsys):
        # The first barrier is breached for certain and nothing is recovered.
        path = tmp_path / "zero.yaml"
        path.write_text(ZERO_YAML)
        out = tmp_path / "row.csv"
        assert main(["price", str(path), "--csv", str(out)]) == 0
        assert "  spread  inf" in capsys.readouterr().out
        _, row = out.read_text().strip().splitlines()
        assert row.split(",")[2:5] == ["0", "0.951243107339629", "inf"]

    def test_csv_bit_stable(self, p0_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["price", p0_file, "--csv", str(out1)])
        main(["price", p0_file, "--csv", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_mode_override(self, p0_file, tmp_path):
        out = tmp_path / "lit.csv"
        assert main(["price", p0_file, "--mode", "paper-literal",
                     "--csv", str(out)]) == 0
        _, row = out.read_text().strip().splitlines()
        assert row.split(",")[1] == "paper-literal"

    def test_paper_literal_discount_curve_flag(self, p0_file, capsys):
        assert main(["price", p0_file]) == 0
        base = capsys.readouterr().out
        assert main(["price", p0_file, "--paper-literal-A"]) == 0
        literal = capsys.readouterr().out
        assert base != literal

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(P0_YAML.replace("      s_V: 0.2\n", ""))
        assert main(["price", str(path)]) == 2
        assert "s_V" in capsys.readouterr().err

    def test_non_finite_coefficient_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inf.yaml"
        path.write_text(P0_YAML.replace("s_r: 0.01", "s_r: .inf"))
        assert main(["price", str(path)]) == 2
        err = capsys.readouterr().err
        assert "scenarios.P0.rate" in err and "s_r must be finite" in err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["price", str(tmp_path / "nope.yaml")]) == 2

    def test_unwritable_csv_exits_2(self, p0_file, tmp_path, capsys):
        out = tmp_path / "missing" / "row.csv"
        assert main(["price", p0_file, "--csv", str(out)]) == 2
        assert f"error: --csv {out}: No such file or directory" in \
            capsys.readouterr().err

    def test_huge_negative_drift_prices(self, tmp_path, capsys):
        path = tmp_path / "drift.yaml"
        path.write_text(P0_YAML.replace("mu: 0.07", "mu: -1000000.0")
                        .replace("K1: 70.0", "K1: 0.0"))
        assert main(["price", str(path)]) == 0
        assert "price" in capsys.readouterr().out

    def test_overflowing_discount_bond_exits_2(self, tmp_path, capsys):
        # s_r = 100 overflows exp(A - B r); the error names s_r and the
        # exponent instead of a traceback, and no inf is printed.
        path = tmp_path / "wild.yaml"
        path.write_text(P0_YAML.replace("s_r: 0.01", "s_r: 100.0"))
        assert main(["price", str(path)]) == 2
        captured = capsys.readouterr()
        assert "exponent A - B*r = 1438" in captured.err and "s_r" in captured.err
        assert captured.out == ""

    def test_huge_s_r_exits_2(self, tmp_path, capsys):
        # s_r * s_r overflows to inf and the exponent is NaN: exit 2 with
        # the discount-bond message, not an OverflowError traceback.
        path = tmp_path / "huge.yaml"
        path.write_text(P0_YAML.replace("s_r: 0.01", "s_r: 1e160"))
        assert main(["price", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: discount bond exponent A - B*r = nan")
        assert "s_r (up to 1e+160)" in captured.err
        assert captured.out == ""

    def test_huge_a2_prices(self, tmp_path, capsys):
        # a2 only divides in the segment moments, so a2 = 1e200 (whose
        # square overflows) prices: the rate reverts to ~0 at once.
        path = tmp_path / "huge.yaml"
        path.write_text(P0_YAML.replace("a2: 0.2", "a2: 1e200"))
        assert main(["price", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        got = dict(re.findall(r"^  (price|zcb) +(\S+)$", captured.out, re.M))
        price, zcb = float(got["price"]), float(got["zcb"])
        assert 0.3 * zcb <= price <= zcb  # min(R_u, R_e) Z <= price <= Z

    def test_huge_firm_volatility_exits_2(self, tmp_path, capsys):
        # s_V**2 overflows past ~1.3e154; the file is rejected naming s_V
        # instead of an OverflowError traceback, while 1e100 still prices.
        path = tmp_path / "huge.yaml"
        path.write_text(P0_YAML.replace("s_V: 0.2", "s_V: 1.0e160"))
        assert main(["price", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: scenarios.P0.firm: s_V must be at most "
                                "~1.3e154 (s_V^2 overflows), got 1e+160\n")
        assert captured.out == ""
        path.write_text(P0_YAML.replace("s_V: 0.2", "s_V: 1.0e100"))
        assert main(["price", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_numerical_failure_exits_3(self, p0_file, monkeypatch, capsys):
        from dvbond.mathkit import QuadratureConvergenceError

        def explode(*args, **kwargs):
            raise QuadratureConvergenceError("forced", 0.0, 1.0)

        monkeypatch.setattr("dvbond.cli.price_bond", explode)
        assert main(["price", p0_file]) == 3
        assert "quadrature" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, p0_file):
        assert main(["price", p0_file, "--scenario", "X"]) == 2

    def test_multi_scenario_selection(self, tmp_path, capsys):
        path = tmp_path / "multi.yaml"
        path.write_text(P0_YAML + P0_YAML.replace("scenarios:\n", "")
                        .replace("  P0:", "  HIGHVOL:")
                        .replace("s_V: 0.2", "s_V: 0.4"))
        assert main(["price", str(path)]) == 2  # ambiguous without --scenario
        assert "--scenario" in capsys.readouterr().err
        assert main(["price", str(path), "--scenario", "HIGHVOL"]) == 0
        assert "HIGHVOL" in capsys.readouterr().out

    @pytest.mark.parametrize("valuation_time", ["0.0", "0.75"])
    @pytest.mark.parametrize("mode", ["corrected", "paper-literal"])
    def test_csv_bytes_equal_csv_writer(self, tmp_path, capsys, valuation_time, mode):
        # A name with a comma, a double quote and braces is quoted as
        # csv.writer quotes it; after t1 the six term cells are empty.
        name = 'P0, "odd" {0}'
        path = tmp_path / "odd.yaml"
        path.write_text(P0_YAML.replace("  P0:", "  'P0, \"odd\" {0}':")
                        .replace("valuation_time: 0.0", f"valuation_time: {valuation_time}")
                        .replace("s_V: 0.2", "s_V: 0.2\n      V1: 95.0"))
        out = tmp_path / "row.csv"
        assert main(["price", str(path), "--mode", mode, "--csv", str(out)]) == 0
        inputs = load_scenarios(str(path))[name].pricing_inputs()
        assert out.read_bytes().decode() == csv_writer_text(
            cli.PRICE_COLUMNS, [[name, mode]], [inputs], mode)

    def test_post_announcement_scenario(self, tmp_path, capsys):
        path = tmp_path / "post.yaml"
        path.write_text(P0_YAML.replace("valuation_time: 0.0",
                                        "valuation_time: 0.6")
                        .replace("s_V: 0.2", "s_V: 0.2\n      V1: 95.0"))
        out = tmp_path / "row.csv"
        assert main(["price", str(path), "--csv", str(out)]) == 0
        assert "no term decomposition" in capsys.readouterr().out
        _, row = out.read_text().strip().splitlines()
        fields = row.split(",")
        assert float(fields[2]) > 0          # price
        assert fields[5:] == [""] * 6        # empty term cells


class TestSweepCommand:
    def test_spread_decreasing_in_firm_value(self, p0_file, capsys):
        assert main(["sweep", p0_file, "--axis", "V0",
                     "--grid", "80,100,120,150"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        spread_col = header.index("spread")
        spreads = [float(line.split(",")[spread_col]) for line in lines[1:]]
        assert all(a > b for a, b in zip(spreads, spreads[1:]))

    def test_price_nondecreasing_in_recovery(self, p0_file, capsys):
        assert main(["sweep", p0_file, "--axis", "R_u",
                     "--grid", "0,0.5,1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        price_col = lines[0].split(",").index("price")
        prices = [float(line.split(",")[price_col]) for line in lines[1:]]
        assert all(a <= b + 1e-15 for a, b in zip(prices, prices[1:]))

    def test_zero_price_point_completes(self, tmp_path, capsys):
        path = tmp_path / "zero.yaml"
        path.write_text(ZERO_YAML)
        assert main(["sweep", str(path), "--axis", "K1",
                     "--grid", "70,10000000"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        spread_col = lines[0].split(",").index("spread")
        spreads = [float(line.split(",")[spread_col]) for line in lines[1:]]
        assert math.isfinite(spreads[0]) and spreads[1] == math.inf

    def test_par_scenario_spread_prints_zero(self, tmp_path, capsys):
        path = tmp_path / "par.yaml"
        path.write_text(PAR_YAML)
        assert main(["sweep", str(path), "--axis", "r0",
                     "--grid", "0.01,0.05"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        spread_col = lines[0].split(",").index("spread")
        assert [line.split(",")[spread_col] for line in lines[1:]] == ["0", "0"]

    def test_empty_grid_exits_2(self, p0_file):
        assert main(["sweep", p0_file, "--axis", "V0", "--grid", ""]) == 2

    def test_unwritable_csv_exits_2(self, p0_file, tmp_path, capsys):
        out = tmp_path / "missing" / "sweep.csv"
        assert main(["sweep", p0_file, "--axis", "r0", "--grid", "0.01,0.05",
                     "--csv", str(out)]) == 2
        assert f"error: --csv {out}: No such file or directory" in \
            capsys.readouterr().err

    def test_unknown_axis_exits_2(self, p0_file):
        assert main(["sweep", p0_file, "--axis", "nope", "--grid", "1,2"]) == 2

    def test_invalid_grid_value_exits_2(self, p0_file):
        assert main(["sweep", p0_file, "--axis", "s_V", "--grid", "0.2,-0.1"]) == 2

    def test_negative_grid_value(self, p0_file, capsys):
        assert main(["sweep", p0_file, "--axis", "r0",
                     "--grid", "-0.01,0.02"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = [line.split(",")[3] for line in lines[1:]]
        assert values == ["-0.01", "0.02"]

    # A grid per axis; valuation_time crosses t1 and K1/K2 include zero.
    AXIS_GRIDS = {
        "valuation_time": "0.0,0.3,0.6", "r0": "-0.01,0.05", "a1": "0.0,0.02",
        "a2": "0.1,0.5", "s_r": "0.0,0.02", "V0": "80,120", "mu": "0.0,0.1",
        "b": "0.0,0.06", "s_V": "0.1,0.4", "V1": "60,120", "t1": "0.25,0.75",
        "t2": "0.8,2.0", "K1": "0,70", "K2": "0,90", "R_u": "0,1",
        "R_e": "0.1,1", "lambda0": "0.0,0.1",
    }

    def test_every_axis_matches_price_bond(self, tmp_path, capsys):
        assert set(self.AXIS_GRIDS) == set(cli._SWEEP_AXES)
        yaml = P0_YAML.replace("s_V: 0.2", "s_V: 0.2\n      V1: 95.0")
        files = {"log": tmp_path / "log.yaml", "const": tmp_path / "const.yaml"}
        files["log"].write_text(yaml)
        files["const"].write_text(yaml.replace(
            "family: log-reciprocal", "family: constant\n        lambda0: 0.03"))
        out_csv = tmp_path / "sweep.csv"
        for axis, grid in self.AXIS_GRIDS.items():
            path = files["const" if axis == "lambda0" else "log"]
            for mode in ("corrected", "paper-literal"):
                assert main(["sweep", str(path), "--axis", axis, "--grid", grid,
                             "--mode", mode, "--csv", str(out_csv)]) == 0
                printed = capsys.readouterr().out
                assert printed.encode() == out_csv.read_bytes()
                rows = list(csv.DictReader(io.StringIO(printed)))
                values = [float(v) for v in grid.split(",")]
                assert len(rows) == len(values)
                for row, value in zip(rows, values):
                    self.check_row(row, path, axis, value, mode)

    @staticmethod
    def check_row(row, path, axis, value, mode):
        # The expected point is the file with the swept key rewritten.
        text, n = re.subn(rf"^(\s*){axis}: .*$", rf"\g<1>{axis}: {value!r}",
                          path.read_text(), flags=re.MULTILINE)
        assert n == 1, axis
        point = path.with_name("point.yaml")
        point.write_text(text)
        scenario = load_scenarios(str(point))["P0"]
        inputs = scenario.pricing_inputs()
        want = pricer.price_bond(inputs, pricer.PricingMode(mode))
        t = want.terms
        expected = {
            "price": want.price, "zcb": want.zcb,
            "spread": pricer.credit_spread(inputs, pricer.PricingMode(mode)),
            "I1": t and t.i1, "I21": t and t.i21, "I22": t and t.i22,
            "I23": t and t.i23, "I24": t and t.i24,
            "expected_leg": t and t.expected_default,
        }
        assert float(row["axis_value"]) == value
        for column, number in expected.items():
            if number is None:
                assert row[column] == "", (axis, column)
            else:
                assert abs(float(row[column]) - number) <= 1e-12, (axis, column)

    def test_invalid_grid_value_names_value_and_field(self, p0_file, capsys):
        assert main(["sweep", p0_file, "--axis", "s_V", "--grid", "0.2,-0.1"]) == 2
        err = capsys.readouterr().err
        assert "s_V grid value -0.1" in err and "s_V must be positive" in err

    def test_nan_on_every_axis_exits_2(self, tmp_path, capsys):
        log = tmp_path / "log.yaml"
        log.write_text(P0_YAML)
        const = tmp_path / "const.yaml"
        const.write_text(P0_YAML.replace(
            "family: log-reciprocal", "family: constant\n        lambda0: 0.03"))
        for axis in cli._SWEEP_AXES:
            path = const if axis == "lambda0" else log
            assert main(["sweep", str(path), "--axis", axis,
                         "--grid", "nan"]) == 2, axis
            out, err = capsys.readouterr()
            assert out == "", axis
            assert err.startswith(f"error: {axis} grid value nan: "), err
            if axis == "r0":  # the axis, not the PricingInputs field r
                assert err == "error: r0 grid value nan: r must be finite, got nan\n"

    def test_axis_guards(self, p0_file, tmp_path, capsys):
        assert main(["sweep", p0_file, "--axis", "lambda0", "--grid", "0.1"]) == 2
        assert "requires a constant intensity family" in capsys.readouterr().err
        path = tmp_path / "pw.yaml"
        path.write_text(P0_YAML.replace(
            "a2: 0.2", "a2:\n            breakpoints: [0.5]\n            values: [0.2, 0.3]"))
        assert main(["sweep", str(path), "--axis", "a2", "--grid", "0.1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "axis a2 requires a constant coefficient" in err
        assert main(["sweep", str(path), "--axis", "a1", "--grid", "0.1"]) == 0

    def test_t2_point_checks_rate_breakpoints(self, tmp_path, capsys):
        path = tmp_path / "pw.yaml"
        path.write_text(P0_YAML.replace(
            "a1: 0.01",
            "a1:\n            breakpoints: [0.8]\n            values: [0.01, 0.02]",
        ))
        assert main(["sweep", str(path), "--axis", "t2", "--grid", "1.0,0.7"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "t2 grid value 0.7" in err and "a1 breakpoints" in err
        for mode in ("corrected", "paper-literal"):
            assert main(["sweep", str(path), "--axis", "t2", "--grid", "1.0,2.0",
                         "--mode", mode]) == 0
            rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
            assert len(rows) == 2
            for row, value in zip(rows, (1.0, 2.0)):
                self.check_row(row, path, "t2", value, mode)

    def test_quadrature_failure_names_grid_value(self, p0_file, monkeypatch, capsys):
        starved = QuadratureSpec(abs_tol=1e-15, max_nodes=32)
        real = pricer.price_batch
        monkeypatch.setattr(cli, "price_batch",
                            lambda inputs, mode: real(inputs, mode, starved))
        assert main(["sweep", p0_file, "--axis", "K1", "--grid", "1e7,70"]) == 3
        assert "K1 grid value 70.0: quadrature failure" in capsys.readouterr().err

    def test_overflowing_s_r_point_exits_2(self, p0_file, capsys):
        assert main(["sweep", p0_file, "--axis", "s_r", "--grid", "0.0,1e9"]) == 2
        captured = capsys.readouterr()
        assert "exponent A - B*r" in captured.err and "s_r (up to 1e+09)" in captured.err
        assert captured.out == ""

    def test_overflowing_point_names_grid_value(self, p0_file, capsys):
        # s_r points are priced one at a time, r0 points on arrays.
        assert main(["sweep", p0_file, "--axis", "s_r", "--grid", "0.0,1e9"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: s_r grid value 1000000000.0: discount bond exponent")
        assert main(["sweep", p0_file, "--axis", "r0",
                     "--grid", "0.05,-1e5,-2e5"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: r0 grid value -100000.0: discount bond exponent")
        assert captured.out == ""

    def test_huge_a2_point_prices(self, p0_file, capsys):
        assert main(["sweep", p0_file, "--axis", "a2", "--grid", "0.2,1e200"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["axis_value"] for row in rows] == ["0.2", "1e+200"]
        for row in rows:
            price, zcb = float(row["price"]), float(row["zcb"])
            assert 0.3 * zcb <= price <= zcb

    def test_huge_firm_volatility_point_exits_2(self, p0_file, capsys):
        assert main(["sweep", p0_file, "--axis", "s_V", "--grid", "0.2,1e160"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: s_V grid value 1e+160: s_V must be at most "
                       "~1.3e154 (s_V^2 overflows), got 1e+160\n")

    def test_quoted_name_bytes_equal_csv_writer(self, tmp_path, capsys):
        name = 'P0, "odd" {0}'
        path = tmp_path / "odd.yaml"
        path.write_text(P0_YAML.replace("  P0:", "  'P0, \"odd\" {0}':"))
        inputs = load_scenarios(str(path))[name].pricing_inputs()
        out = tmp_path / "sweep.csv"
        grid = [-0.01, 0.02, 0.05]
        for mode in ("corrected", "paper-literal"):
            assert main(["sweep", str(path), "--axis", "r0", "--grid", "-0.01,0.02,0.05",
                         "--mode", mode, "--csv", str(out)]) == 0
            expected = csv_writer_text(
                cli.SWEEP_COLUMNS, [[name, mode, "r0", f"{v:.15g}"] for v in grid],
                [dataclasses.replace(inputs, r=v) for v in grid], mode)
            assert expected.count('"P0, ""odd"" {0}",') == 3
            assert capsys.readouterr().out == expected
            assert out.read_bytes().decode() == expected

    def test_rows_across_t1_equal_csv_writer(self, tmp_path, capsys):
        # Full rows before t1 and empty-term rows after it, interleaved.
        path = tmp_path / "post.yaml"
        path.write_text(P0_YAML.replace("s_V: 0.2", "s_V: 0.2\n      V1: 95.0"))
        inputs = load_scenarios(str(path))["P0"].pricing_inputs()
        out = tmp_path / "sweep.csv"
        grid = [0.2, 0.75, 0.4, 0.9]
        for mode in ("corrected", "paper-literal"):
            assert main(["sweep", str(path), "--axis", "valuation_time",
                         "--grid", "0.2,0.75,0.4,0.9", "--mode", mode,
                         "--csv", str(out)]) == 0
            expected = csv_writer_text(
                cli.SWEEP_COLUMNS,
                [["P0", mode, "valuation_time", f"{v:.15g}"] for v in grid],
                [dataclasses.replace(inputs, t=v) for v in grid], mode)
            assert expected.count(",,,,,,\r\n") == 2
            assert capsys.readouterr().out == expected
            assert out.read_bytes().decode() == expected

    def test_csv_written(self, p0_file, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", p0_file, "--axis", "K2", "--grid", "60,80",
              "--csv", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("scenario,mode,axis,axis_value,price")
        assert len(lines) == 3

    def test_shorter_rewrite_leaves_only_its_bytes(self, p0_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        for grid in ("60,70,80,90", "60,80"):
            assert main(["sweep", p0_file, "--axis", "K2", "--grid", grid,
                         "--csv", str(out)]) == 0
            assert out.read_bytes() == capsys.readouterr().out.encode()
        assert main(["price", p0_file, "--csv", str(out)]) == 0
        assert out.read_bytes().count(b"\r\n") == 2

    def test_csv_through_symlink_keeps_mode(self, p0_file, tmp_path, capsys):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("x" * 10_000)
        target.chmod(0o600)
        link.symlink_to(target)
        assert main(["sweep", p0_file, "--axis", "K2", "--grid", "60",
                     "--csv", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == capsys.readouterr().out.encode()
        assert os.stat(target).st_mode & 0o777 == 0o600


class TestValidateCommand:
    def test_benchmark_passes(self, p0_file, capsys):
        code = main(["validate", p0_file, "--paths", "40000", "--seed", "21",
                     "--threads", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "z corrected" in out and "z paper-literal" in out
        assert "expected_t1" in out

    def test_unlucky_seed_fails_gate(self, p0_file, capsys):
        # Frozen adversarial draw: |z| > 3 at 2000 paths for this seed.
        code = main(["validate", p0_file, "--paths", "2000", "--seed", "88"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_single_path_rejected(self, p0_file, capsys):
        # One path has no standard error; this is an input error, not a
        # validation mismatch.
        assert main(["validate", p0_file, "--paths", "1"]) == 2
        assert "--paths" in capsys.readouterr().err

    def test_zero_threads_rejected(self, p0_file, capsys):
        # The error names the flag, not the McConfig field behind it.
        assert main(["validate", p0_file, "--paths", "1000", "--threads", "0"]) == 2
        err = capsys.readouterr().err
        assert "--threads" in err and "n_threads" not in err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_out_of_range_seed_rejected(self, p0_file, capsys, seed):
        # The error names the flag, not the McConfig field behind it.
        assert main(["validate", p0_file, "--paths", "1000", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: --seed must be a 64-bit unsigned "
                                f"integer, got {seed}\n")
        assert captured.out == ""

    def test_huge_firm_volatility_exits_2(self, tmp_path, capsys):
        # An input error (exit 2), not a traceback reported as exit 1.
        path = tmp_path / "huge.yaml"
        path.write_text(P0_YAML.replace("s_V: 0.2", "s_V: 1.0e160"))
        assert main(["validate", str(path), "--paths", "2000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: scenarios.P0.firm: s_V must be at most")
        assert captured.out == ""

    def test_zero_variance_scenario_passes(self, tmp_path, capsys):
        # No rate noise and full recovery: every path pays the discount
        # bond, and the SE is summation roundoff only.
        path = tmp_path / "flat.yaml"
        path.write_text(PAR_YAML.replace("s_r: 0.01", "s_r: 0.0")
                        .replace("r0: 0.05", "r0: 0.03"))
        code = main(["validate", str(path), "--paths", "20000", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        z = {line.split()[1]: float(line.split()[2])
             for line in out.splitlines() if line.startswith("  z ")}
        assert abs(z["corrected"]) <= 3.0 and abs(z["paper-literal"]) <= 3.0

    def test_overflowing_discount_bond_exits_2(self, tmp_path, capsys):
        # An input error (exit 2), not a validation mismatch (exit 1).
        path = tmp_path / "wild.yaml"
        path.write_text(P0_YAML.replace("s_r: 0.01", "s_r: 100.0"))
        assert main(["validate", str(path), "--paths", "2000"]) == 2
        captured = capsys.readouterr()
        assert "exponent A - B*r = 1438" in captured.err and "s_r" in captured.err
        assert "PASS" not in captured.out and "FAIL" not in captured.out

    def test_leg_lines_print_price_legs(self, p0_file, capsys):
        # The closed-form values of the leg lines are PriceResult.legs.
        assert main(["validate", p0_file, "--paths", "2000", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        lines = out.split("legs (corrected closed form vs monte carlo):\n")[1].splitlines()
        inputs = load_scenarios(p0_file)["P0"].pricing_inputs()
        corrected = pricer.price_bond(inputs, pricer.PricingMode.CORRECTED).legs
        literal = pricer.price_bond(inputs, pricer.PricingMode.PAPER_LITERAL).legs
        assert [line.split(" vs ")[0].split()[-1] for line in lines[:4]] == \
            [cli._fmt(v) for v in corrected.values()]
        assert lines[4].startswith("    expected_t1 (paper-literal grouping)")
        assert lines[4].split()[-3] == cli._fmt(literal[("expected_t1",)])

    def test_post_announcement_prints_no_legs(self, tmp_path, capsys):
        path = tmp_path / "post.yaml"
        path.write_text(P0_YAML.replace("valuation_time: 0.0", "valuation_time: 0.75")
                        .replace("s_V: 0.2", "s_V: 0.2\n      V1: 95.0"))
        assert main(["validate", str(path), "--paths", "2000", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "legs" not in out

    @pytest.mark.parametrize("t1", ["0.5", "0.95"])
    def test_tiny_firm_volatility(self, tmp_path, capsys, t1):
        # alpha1 and alpha2 near 1e77 once gave "price nan" (exit 0) or
        # a traceback (exit 1).
        path = tmp_path / "tiny.yaml"
        path.write_text(P0_YAML.replace("s_V: 0.2", "s_V: 1.0e-160")
                        .replace("t1: 0.5", f"t1: {t1}"))
        assert main(["price", str(path)]) == 0
        assert main(["validate", str(path), "--paths", "2000", "--seed", "7"]) == 0
        captured = capsys.readouterr()
        assert "nan" not in captured.out and captured.err == ""

    def test_antithetic_flag(self, p0_file, capsys):
        code = main(["validate", p0_file, "--paths", "40000", "--seed", "21",
                     "--antithetic"])
        assert code == 0
        assert "antithetic" in capsys.readouterr().out
