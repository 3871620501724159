import math
import re

import numpy as np
import pytest
from hypothesis import reject, strategies as st

from ringheat.core import (PhysicalParams, ReducedParams, ReferenceCase, SolutionConstants,
                           ValidationError)
from ringheat.temperature import k_for_equal_boundaries, theta_general


#: relative steps of the finite-difference oracle's first and second derivatives
FD_STEP, FD_STEP2 = 1e-4, 1e-3
#: the most the dual engine and the finite-difference oracle may differ by
#: on a smooth closed form
ENGINE_AGREEMENT_TOL = 1e-5


class FiniteDifferences:
    """4th-order central differences, the independent oracle of the library's
    dual-number `verification.DerivativeEngine`, with its `d1`/`d2` interface.

    The step is elementwise relative, h = FD_STEP*max(1, |x|).  The
    second-derivative step FD_STEP2 is wider (1e-3): at 1e-4 the h^-2
    roundoff (~4e-8) times the equation coefficient B*s at the far corner of
    the standard grid would reach 1e-5, while truncation at 1e-3 is still
    ~1e-12.  Arguments may be floats or numpy arrays of one shape; the result
    has that shape, and is a float for float arguments.
    """

    def d1(self, f, args, i):
        g, x, h = _fd_section(f, args, i, FD_STEP)
        return _fd_shaped((g(x - 2 * h) - 8 * g(x - h) + 8 * g(x + h) - g(x + 2 * h)) / (12 * h),
                          args)

    def d2(self, f, args, i):
        g, x, h = _fd_section(f, args, i, FD_STEP2)
        return _fd_shaped((-g(x - 2 * h) + 16 * g(x - h) - 30 * g(x) + 16 * g(x + h)
                           - g(x + 2 * h)) / (12 * h * h), args)


def _fd_section(f, args, i, step):
    """(f of its i-th argument with the others held, that argument, its step)."""

    def g(x):
        a = list(args)
        a[i] = x
        return f(*a)

    x = np.asarray(args[i], dtype=float)
    return g, x, step * np.maximum(1.0, np.abs(x))


def _fd_shaped(y, args):
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    y = np.broadcast_to(np.asarray(y, dtype=float), shape)
    return float(y) if y.ndim == 0 else y.copy()


FD = FiniteDifferences()


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
    overflows) is not a member and is rejected.  A member whose
    theta_general(0, eta) is not finite on a grid is kept: solves and
    `verify` reject it, and `assert_overflowing_start` checks that rejection."""
    params = ReducedParams(A=draw(_log_uniform(0.1, 10.0)), B=draw(_log_uniform(0.3, 50.0)),
                           eps=draw(st.floats(-2.0, 2.0)), a=draw(_log_uniform(0.1, 5.0)))
    C3 = draw(_log_uniform(0.05, 1.0))
    try:
        K = k_for_equal_boundaries(params, C3)
    except ValidationError:
        reject()
    return params, SolutionConstants(C3=C3, C5=draw(st.floats(0.0, 5.0)), K=K)


_OVERFLOWING_PARAMS = ReducedParams(A=math.exp(2.25), B=math.exp(-1.125), eps=0.0, a=1.0)
#: (params, consts) of a `general_family` member whose K underflows to -0.0
#: while ((1 + eta)/C3)^(8A/B) overflows: theta_general(0, eta) is nan from
#: eta = 91/128 on
OVERFLOWING_MEMBER = (_OVERFLOWING_PARAMS, SolutionConstants(
    C3=math.exp(-2.5), C5=0.0, K=k_for_equal_boundaries(_OVERFLOWING_PARAMS, math.exp(-2.5))))


def assert_overflowing_start(err, params, consts):
    """`err` is `temperature.require_finite_start`'s ValidationError for
    (params, consts): it names their K and C3 and an eta at which
    theta_general(0, eta) is not finite."""
    m = re.fullmatch(r"constants\.K = (\S+) and constants\.C3 = (\S+) "
                     r"overflow theta\(0, eta\) at eta = (\S+)", str(err))
    assert m and (m[1], m[2]) == (repr(consts.K), repr(consts.C3)), err
    with np.errstate(all="ignore"):
        assert not np.isfinite(theta_general(0.0, np.array([float(m[3])]), params, consts)).all()
