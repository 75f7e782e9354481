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
    """One fully validated pricing scenario: its name, its pricing mode
    and the valuation it describes."""

    name: str
    mode: PricingMode
    inputs: PricingInputs

    def pricing_inputs(self) -> PricingInputs:
        return self.inputs


# Each block's (required, optional) fields, checked and read in this order.
_FIELDS = {
    "root": (("scenarios",), ()),
    "scenario": (("valuation_time", "rate", "firm", "default"), ("mode",)),
    "rate": (("a1", "a2", "s_r", "r0"), ()),
    "firm": (("V0", "mu", "b", "s_V"), ("V1",)),
    "default": (("t1", "t2", "K1", "K2", "R_u", "R_e", "intensity"), ()),
    "intensity": (("family",), ("lambda0",)),
    "coefficient": (("breakpoints", "values"), ()),
}


def _mapping(node, path: str, block: str | None = None) -> dict:
    """``node`` as a mapping, whose keys, given a block name, are that
    block's fields."""
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected a mapping, got {type(node).__name__}")
    if block is not None:
        required, optional = _FIELDS[block]
        for key in node:
            if key not in required and key not in optional:
                raise ConfigError(f"{path}.{key}", "unknown key")
        for key in required:
            if key not in node:
                raise ConfigError(f"{path}.{key}", "missing required field")
    return node


def _build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError raised as a ConfigError
    at ``path``. A ConfigError of an argument names its own field."""
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(path, str(err)) from err


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
    path = f"{path}.{key}"
    sub = _mapping(value, path, "coefficient")
    fields = _FIELDS["coefficient"][0]
    for field_name in fields:
        if not isinstance(sub[field_name], list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in sub[field_name]
        ):
            raise ConfigError(f"{path}.{field_name}", "expected a list of numbers")
    return _build(path, PiecewiseConstant, *(tuple(sub[f]) for f in fields))


def _intensity(node: dict, path: str, key: str) -> IntensityFunction:
    path = f"{path}.{key}"
    node = _mapping(node[key], path, "intensity")
    family = node["family"]
    if family not in _INTENSITY_FAMILIES:
        raise ConfigError(
            f"{path}.family",
            f"unknown family {family!r}; choose one of {list(_INTENSITY_FAMILIES)}",
        )
    if family == "constant":
        if "lambda0" not in node:
            raise ConfigError(f"{path}.lambda0", "missing required field")
        return _build(f"{path}.lambda0", IntensityFunction.constant,
                      _number(node, path, "lambda0"))
    if "lambda0" in node:
        raise ConfigError(f"{path}.lambda0", "only valid for the constant family")
    return IntensityFunction.log_reciprocal()


# The reader of each model field that is not a plain number.
_READERS = {"a1": _coefficient, "a2": _coefficient, "s_r": _coefficient,
            "intensity": _intensity}


def _parse_scenario(name: str, node, path: str) -> Scenario:
    node = _mapping(node, path, "scenario")
    mode_name = node.get("mode", "corrected")
    try:
        mode = PricingMode(mode_name)
    except ValueError:
        raise ConfigError(
            f"{path}.mode",
            f"unknown mode {mode_name!r}; choose corrected or paper-literal",
        ) from None
    blocks = {block: _mapping(node[block], f"{path}.{block}", block)
              for block in ("rate", "firm", "default")}

    def model(make, block: str, **extra):
        # The block's required fields that are arguments of its model.
        where = f"{path}.{block}"
        fields = {key: _READERS.get(key, _number)(blocks[block], where, key)
                  for key in _FIELDS[block][0] if key in make.__dataclass_fields__}
        return _build(where, make, **fields, **extra)

    spec = model(DefaultSpec, "default")
    firm = model(FirmModel, "firm")
    rate_model = model(ShortRateModel, "rate", maturity=spec.t2)
    V1 = _number(blocks["firm"], f"{path}.firm", "V1") if "V1" in blocks["firm"] else None
    t = _number(node, path, "valuation_time")
    r = _number(blocks["rate"], f"{path}.rate", "r0")
    inputs = _build(path, PricingInputs, rate_model, firm, spec, r=r, t=t, V1=V1)
    return Scenario(name=name, mode=mode, inputs=inputs)


def load_scenarios(path: str) -> dict[str, Scenario]:
    """Load and validate every scenario in a file, in file order."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_Loader)
        except yaml.YAMLError as err:
            raise ConfigError(str(path), f"not valid YAML ({err})") from err
    doc = _mapping(doc, "<root>", "root")
    table = _mapping(doc["scenarios"], "scenarios")
    if not table:
        raise ConfigError("scenarios", "no scenarios defined")
    return {
        str(name): _parse_scenario(str(name), node, f"scenarios.{name}")
        for name, node in table.items()
    }

