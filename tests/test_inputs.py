"""Every constructor rejects NaN and infinite inputs, naming the field."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dvbond import (
    DefaultSpec,
    FirmModel,
    IntensityFunction,
    PiecewiseConstant,
    ShortRateModel,
)

from conftest import P0_DEFAULT, P0_FIRM, P0_RATE, make_inputs

NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf))

# field name -> constructor call with that field set to the given value
BUILDERS = {
    "breakpoints": lambda v: PiecewiseConstant((v,), (0.01, 0.02)),
    "values": lambda v: PiecewiseConstant((0.5,), (0.01, v)),
    **{name: (lambda v, name=name: ShortRateModel(**{**P0_RATE, name: v}))
       for name in ("a1", "a2", "s_r", "maturity")},
    **{name: (lambda v, name=name: FirmModel(**{**P0_FIRM, name: v}))
       for name in ("V0", "mu", "b", "s_V")},
    **{name: (lambda v, name=name: DefaultSpec(**{**P0_DEFAULT, name: v}))
       for name in ("t1", "t2", "K1", "K2", "R_u", "R_e")},
    "lambda0": lambda v: DefaultSpec(**P0_DEFAULT,
                                     intensity=IntensityFunction.constant(v)),
    "r": lambda v: make_inputs(r=v),
    "t": lambda v: make_inputs(t=v),
    "V1": lambda v: make_inputs(t=0.6, V1=v),
}


@pytest.mark.parametrize("field", sorted(BUILDERS))
@given(value=NON_FINITE)
def test_non_finite_rejected_naming_field(field, value):
    with pytest.raises(ValueError) as err:
        BUILDERS[field](value)
    assert str(err.value).startswith(f"{field} must be finite")

