"""Scenario files: named pricing scenarios in YAML.

A file holds one or more named scenarios, each with a rate block, a
firm block and a default block::

    scenarios:
      P0:
        mode: corrected          # optional: corrected | paper-literal
        valuation_time: 0.0
        rate:
          a1: 0.01               # scalar, or {breakpoints: [...], values: [...]}
          a2: 0.2
          s_r: 0.01
          r0: 0.05
        firm:
          V0: 100.0
          mu: 0.07
          b: 0.05
          s_V: 0.2
          V1: 100.0              # only needed when valuation_time >= t1
        default:
          t1: 0.5
          t2: 1.0
          K1: 70.0
          K2: 80.0
          R_u: 0.4
          R_e: 0.3
          intensity:
            family: log-reciprocal   # or: constant (with lambda0)

Unknown keys anywhere are errors, and every complaint carries the
dotted path of the offending field. Custom (callable) intensities are
a library-only feature and cannot appear in scenario files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import yaml

from .defaultmodel import DefaultSpec, FirmModel, IntensityFunction
from .pricer import PricingInputs, PricingMode
from .ratecurve import PiecewiseConstant, ShortRateModel

__all__ = ["ConfigError", "Scenario", "load_scenarios"]

_INTENSITY_FAMILIES = ("constant", "log-reciprocal")


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader (libyaml if built in; it calls this Python resolver) that
    also reads the YAML 1.2 floats YAML 1.1 leaves as strings: 1e7, 1.0e7,
    2E-3 (no exponent sign, or no point). Quoted scalars stay strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


class ConfigError(ValueError):
    """Scenario-file validation failure, addressed by field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class Scenario:
    """One fully validated pricing scenario."""

    name: str
    mode: PricingMode
    valuation_time: float
    r0: float
    rate_model: ShortRateModel
    firm: FirmModel
    spec: DefaultSpec
    V1: float | None = None

    def pricing_inputs(self) -> PricingInputs:
        return PricingInputs(
            rate_model=self.rate_model,
            firm=self.firm,
            spec=self.spec,
            r=self.r0,
            t=self.valuation_time,
            V1=self.V1,
        )


def _require_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, path: str, required: tuple, optional: tuple = ()):
    for key in node:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in node:
            raise ConfigError(f"{path}.{key}", "missing required field")


def _number(node: dict, path: str, key: str) -> float:
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {value!r}")
    return float(value)


def _coefficient(node: dict, path: str, key: str):
    """A rate coefficient: scalar or piecewise-constant block."""
    value = node[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    sub = _require_mapping(value, f"{path}.{key}")
    _check_keys(sub, f"{path}.{key}", ("breakpoints", "values"))
    for field_name in ("breakpoints", "values"):
        if not isinstance(sub[field_name], list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in sub[field_name]
        ):
            raise ConfigError(f"{path}.{key}.{field_name}", "expected a list of numbers")
    try:
        return PiecewiseConstant(tuple(sub["breakpoints"]), tuple(sub["values"]))
    except ValueError as err:
        raise ConfigError(f"{path}.{key}", str(err)) from err


def _intensity(node: dict, path: str) -> IntensityFunction:
    _check_keys(node, path, ("family",), ("lambda0",))
    family = node["family"]
    if family not in _INTENSITY_FAMILIES:
        raise ConfigError(
            f"{path}.family",
            f"unknown family {family!r}; choose one of {list(_INTENSITY_FAMILIES)}",
        )
    if family == "constant":
        if "lambda0" not in node:
            raise ConfigError(f"{path}.lambda0", "missing required field")
        try:
            return IntensityFunction.constant(_number(node, path, "lambda0"))
        except ValueError as err:
            raise ConfigError(f"{path}.lambda0", str(err)) from err
    if "lambda0" in node:
        raise ConfigError(f"{path}.lambda0", "only valid for the constant family")
    return IntensityFunction.log_reciprocal()


def _parse_scenario(name: str, node, path: str) -> Scenario:
    node = _require_mapping(node, path)
    _check_keys(node, path, ("valuation_time", "rate", "firm", "default"), ("mode",))

    mode_name = node.get("mode", "corrected")
    try:
        mode = PricingMode(mode_name)
    except ValueError:
        raise ConfigError(
            f"{path}.mode",
            f"unknown mode {mode_name!r}; choose corrected or paper-literal",
        ) from None

    rate = _require_mapping(node["rate"], f"{path}.rate")
    _check_keys(rate, f"{path}.rate", ("a1", "a2", "s_r", "r0"))
    firm_node = _require_mapping(node["firm"], f"{path}.firm")
    _check_keys(firm_node, f"{path}.firm", ("V0", "mu", "b", "s_V"), ("V1",))
    dflt = _require_mapping(node["default"], f"{path}.default")
    _check_keys(dflt, f"{path}.default",
                ("t1", "t2", "K1", "K2", "R_u", "R_e", "intensity"))

    try:
        spec = DefaultSpec(
            t1=_number(dflt, f"{path}.default", "t1"),
            t2=_number(dflt, f"{path}.default", "t2"),
            K1=_number(dflt, f"{path}.default", "K1"),
            K2=_number(dflt, f"{path}.default", "K2"),
            R_u=_number(dflt, f"{path}.default", "R_u"),
            R_e=_number(dflt, f"{path}.default", "R_e"),
            intensity=_intensity(
                _require_mapping(dflt["intensity"], f"{path}.default.intensity"),
                f"{path}.default.intensity",
            ),
        )
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{path}.default", str(err)) from err

    try:
        firm = FirmModel(
            V0=_number(firm_node, f"{path}.firm", "V0"),
            mu=_number(firm_node, f"{path}.firm", "mu"),
            b=_number(firm_node, f"{path}.firm", "b"),
            s_V=_number(firm_node, f"{path}.firm", "s_V"),
        )
    except ValueError as err:
        raise ConfigError(f"{path}.firm", str(err)) from err

    try:
        rate_model = ShortRateModel(
            a1=_coefficient(rate, f"{path}.rate", "a1"),
            a2=_coefficient(rate, f"{path}.rate", "a2"),
            s_r=_coefficient(rate, f"{path}.rate", "s_r"),
            maturity=spec.t2,
        )
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{path}.rate", str(err)) from err

    V1 = None
    if "V1" in firm_node:
        V1 = _number(firm_node, f"{path}.firm", "V1")

    try:
        scenario = Scenario(
            name=name,
            mode=mode,
            valuation_time=_number(node, path, "valuation_time"),
            r0=_number(rate, f"{path}.rate", "r0"),
            rate_model=rate_model,
            firm=firm,
            spec=spec,
            V1=V1,
        )
        scenario.pricing_inputs()  # surfaces cross-field violations now
    except ValueError as err:
        raise ConfigError(path, str(err)) from err
    return scenario


def load_scenarios(path: str) -> dict[str, Scenario]:
    """Load and validate every scenario in a file, in file order."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_Loader)
        except yaml.YAMLError as err:
            raise ConfigError(str(path), f"not valid YAML ({err})") from err
    doc = _require_mapping(doc, "<root>")
    _check_keys(doc, "<root>", ("scenarios",))
    table = _require_mapping(doc["scenarios"], "scenarios")
    if not table:
        raise ConfigError("scenarios", "no scenarios defined")
    return {
        str(name): _parse_scenario(str(name), node, f"scenarios.{name}")
        for name, node in table.items()
    }

