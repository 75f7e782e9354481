"""The package surface: its exported names and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import dvbond
from dvbond import config, defaultmodel, mathkit, pricer

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


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate serves only the brute-force test oracle.
    src = str(Path(dvbond.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, dvbond.cli; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert done.stdout.strip() == "False"
