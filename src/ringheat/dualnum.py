"""Forward-mode dual numbers for exact derivatives of closed-form fields.

Every closed form in this package does its transcendental math through the
dispatching `exp`/`log`/`sqrt` below, so the same source evaluates on plain
floats, numpy arrays, and `Dual` values.  Nesting one `Dual` inside another
propagates exact second derivatives: there is no truncation error, which is
what lets residual pass/fail thresholds sit at 1e-9 instead of an
fd-limited 1e-5.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Dual", "exp", "log", "sqrt", "value", "d1", "d2"]


class Dual:
    """Number ``a + b*e`` with ``e*e == 0``; parts may themselves be Dual."""

    __slots__ = ("a", "b")

    # Opt out of numpy's ufunc machinery so `np.float64 * Dual` defers to the
    # reflected operators below instead of building object arrays.
    __array_ufunc__ = None

    def __init__(self, a, b=0.0):
        self.a = a
        self.b = b

    def __repr__(self):
        return f"Dual({self.a!r}, {self.b!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a + other.a, self.b + other.b)
        return Dual(self.a + other, self.b)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a - other.a, self.b - other.b)
        return Dual(self.a - other, self.b)

    def __rsub__(self, other):
        return Dual(other - self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a * other.a, self.a * other.b + self.b * other.a)
        return Dual(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a / other.a,
                        (self.b * other.a - self.a * other.b) / (other.a * other.a))
        return Dual(self.a / other, self.b / other)

    def __rtruediv__(self, other):
        return Dual(other / self.a, -other * self.b / (self.a * self.a))

    def __pow__(self, p):
        # constant (non-Dual) exponent only; integer p stays exact
        return Dual(self.a ** p, p * self.a ** (p - 1) * self.b)


def value(x):
    """Strip all derivative parts, returning the underlying float/array."""
    while isinstance(x, Dual):
        x = x.a
    return x


def exp(x):
    if isinstance(x, Dual):
        ea = exp(x.a)
        return Dual(ea, x.b * ea)
    return np.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.a), x.b / x.a)
    return np.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        ra = sqrt(x.a)
        return Dual(ra, x.b / (2.0 * ra))
    return np.sqrt(x)


def _b_part(y):
    return y.b if isinstance(y, Dual) else 0.0


def d1(f, x):
    """df/dx at x (a float or an array): one forward dual pass, exact for closed forms."""
    return _b_part(f(Dual(x, 1.0)))


def d2(f, x):
    """d2f/dx2 at x (a float or an array) via a nested dual pass."""
    y = f(Dual(Dual(x, 1.0), Dual(1.0, 0.0)))
    return _b_part(_b_part(y))
