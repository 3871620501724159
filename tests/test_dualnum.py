import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ringheat.dualnum import Dual, d1, d2, exp, log, sqrt, value

finite = st.floats(min_value=0.2, max_value=5.0)


def test_arithmetic_against_hand_values():
    x = Dual(3.0, 1.0)
    y = (x * x + 2.0 * x - 1.0) / x
    # f = x + 2 - 1/x, f' = 1 + 1/x^2
    assert value(y) == pytest.approx(3.0 + 2.0 - 1.0 / 3.0)
    assert y.b == pytest.approx(1.0 + 1.0 / 9.0)


def test_reflected_ops_and_numpy_scalars():
    x = Dual(2.0, 1.0)
    assert value(1.0 - x) == -1.0 and (1.0 - x).b == -1.0
    assert (6.0 / x).b == pytest.approx(-6.0 / 4.0)
    # numpy scalars must defer to Dual's reflected operators
    z = np.float64(3.0) * x + np.float64(1.0)
    assert isinstance(z, Dual)
    assert value(z) == 7.0 and z.b == 3.0


@given(finite)
def test_exp_log_sqrt_derivatives(x0):
    assert d1(exp, x0) == pytest.approx(math.exp(x0), rel=1e-12)
    assert d1(log, x0) == pytest.approx(1.0 / x0, rel=1e-12)
    assert d1(sqrt, x0) == pytest.approx(0.5 / math.sqrt(x0), rel=1e-12)


@given(finite)
def test_nested_second_derivative(x0):
    f = lambda x: x ** 2 * exp(-x)
    assert d2(f, x0) == pytest.approx((2.0 - 4.0 * x0 + x0 ** 2) * math.exp(-x0), rel=1e-12)


def test_power_rule_nested():
    f = lambda x: x ** 3
    assert d1(f, 2.0) == 12.0
    assert d2(f, 2.0) == 12.0


def test_constant_field_has_zero_derivatives():
    f = lambda x: 5.0
    assert d1(f, 1.0) == 0.0
    assert d2(f, 1.0) == 0.0


def test_dispatch_passes_arrays_through():
    x = np.array([1.0, 4.0])
    assert np.allclose(sqrt(x), [1.0, 2.0])
    assert np.allclose(exp(np.zeros(2)), 1.0)
