import math

import pytest
from hypothesis import reject, strategies as st

from ringheat.core import (PhysicalParams, ReducedParams, ReferenceCase, SingularConstantError,
                           SolutionConstants)
from ringheat.temperature import k_for_equal_boundaries


@pytest.fixture
def ref():
    return ReferenceCase()


@pytest.fixture
def ref_phys():
    """Dimensional embedding of the reference parameters (nu = 1, R20 = 1, T0 = 1)."""
    return PhysicalParams(rho=1.0, Cp=3.0, k_cond=24.0, mu=1.0, mu0=0.5,
                          T0=1.0, R10=2.0 ** 0.5, R20=1.0)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def general_family(draw):
    """(params, consts) drawn from the whole general family: A, B, a and C3
    log-uniform, eps and C5 uniform, K making the wall temperatures equal at
    tau = 0.  A draw whose K is not a float (its ((1 + a)/C3)^(8A/B)
    overflows) is not a member and is rejected."""
    params = ReducedParams(A=draw(_log_uniform(0.1, 10.0)), B=draw(_log_uniform(0.3, 50.0)),
                           eps=draw(st.floats(-2.0, 2.0)), a=draw(_log_uniform(0.1, 5.0)))
    C3 = draw(_log_uniform(0.05, 1.0))
    try:
        K = k_for_equal_boundaries(params, C3)
    except SingularConstantError:
        reject()
    return params, SolutionConstants(C3=C3, C5=draw(st.floats(0.0, 5.0)), K=K)
