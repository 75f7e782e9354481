"""The package surface: its exported names and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dvbond
from dvbond import config, defaultmodel, mathkit, pricer
from test_cli import P0_YAML

EXPORTED = {
    "Alpha", "DefaultSpec", "FirmModel", "IntensityFunction", "McConfig",
    "McEstimate", "PiecewiseConstant", "PriceResult", "PricingInputs",
    "PricingMode", "QuadratureConvergenceError", "QuadratureSpec",
    "ShortRateModel", "TermBreakdown", "coeff_A", "coeff_B", "compute_alphas",
    "expected_default_leg", "integrate_left_tail",
    "normal_cdf", "price_batch", "price_bond",
    "price_full", "simulate_price", "survival_prob",
    "zcb_price",
}


def test_all_is_pinned_and_resolves():
    assert len(dvbond.__all__) == len(EXPORTED)
    assert set(dvbond.__all__) == EXPORTED
    for name in dvbond.__all__:
        assert getattr(dvbond, name) is not None


def test_deleted_names_are_gone():
    for module, name in ((pricer, "f_factor"), (pricer, "g_components"),
                         (pricer, "quadform_pair"), (pricer, "interval_factor_u1"),
                         (pricer, "_TermSets"), (pricer, "_i22_i24"),
                         (pricer, "term_I21_I23"), (pricer, "term_I22_I24"),
                         (pricer, "credit_spread"), (pricer, "_spread"),
                         (pricer, "price_last_interval"), (defaultmodel, "d_minus"),
                         (defaultmodel, "_standardize"),
                         (mathkit, "_bvn_cdf_array"), (mathkit, "_bvn_plackett"),
                         (mathkit, "_bvn_asymptotic"),
                         (defaultmodel, "firm_value_step"),
                         (config, "scenario_to_dict"), (config, "scenario_from_dict"),
                         (config, "_coefficient_to_node"), (config, "_FAMILY_TO_NAME")):
        assert not hasattr(module, name)
        assert not hasattr(dvbond, name)


def test_test_only_names_stay_in_their_modules():
    for module, name in ((mathkit, "QuadFormMatrix"),
                         (mathkit, "bivariate_cdf_quadform"),
                         (mathkit, "bivariate_cdf_bruteforce")):
        assert name not in dvbond.__all__
        assert callable(getattr(module, name))


def test_quadrature_spec_fields():
    assert list(mathkit.QuadratureSpec.__dataclass_fields__) == ["abs_tol", "max_nodes"]


# The argument vectors of the CLI commands run on P0 ("{}" is the file).
COMMANDS = (["price", "{}"],
            ["sweep", "{}", "--axis", "V0", "--grid", "80,100,120"],
            ["validate", "{}", "--paths", "2000"])

# Runs ``dvbond.cli.main`` on the arguments after the first; with a
# first argument of 1, a meta path finder refuses every scipy module.
RUN_CLI = """\
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

if sys.argv[1] == "1":
    sys.meta_path.insert(0, NoScipy())
from dvbond.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(dvbond.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          env=env, timeout=120, check=False)


def test_import_leaves_scipy_integrate_unloaded(tmp_path):
    # scipy is a test dependency only: the brute-force oracle imports
    # scipy.integrate, and no command loads any scipy module.
    path = tmp_path / "p0.yaml"
    path.write_text(P0_YAML)
    code = ("import contextlib, io, sys, dvbond.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "for argv in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert dvbond.cli.main(argv.split('|')) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = _python(code, *("|".join(argv).format(path) for argv in COMMANDS))
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split("\n") == ["[]", "[]", ""]


def test_commands_run_without_scipy(tmp_path):
    path = tmp_path / "p0.yaml"
    path.write_text(P0_YAML)
    for argv in COMMANDS:
        argv = [arg.format(path) for arg in argv]
        normal, refused = (_python(RUN_CLI, flag, *argv) for flag in ("0", "1"))
        assert normal.returncode == refused.returncode == 0, refused.stderr.decode()
        assert refused.stdout == normal.stdout and normal.stdout


def test_bruteforce_oracle_names_the_test_extra(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.integrate", None)
    m = mathkit.QuadFormMatrix(m11=2.0, m12=1.0, m22=1.0)
    with pytest.raises(ImportError, match=r"dvbond\[test\]") as err:
        mathkit.bivariate_cdf_bruteforce(0.0, 0.0, m)
    assert type(err.value) is ImportError
