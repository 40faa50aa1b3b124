"""Truncated univariate complex power series.

A :class:`Series` holds coefficients c_0..c_N (coefficient of z^k at
index k) for a fixed truncation order N.  All arithmetic is exact to
the shared truncation order; coefficients beyond it are never consulted.
Results of binary operations carry ``order = min`` of the operand orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: absolute tolerance for coefficient comparisons
COEFF_TOL = 1e-12


class SeriesError(ValueError):
    """Base class for series precondition failures."""


class ZeroConstantTerm(SeriesError):
    """Division by a series whose constant term vanishes."""


class NonzeroConstant(SeriesError):
    """Operation requires a series vanishing at 0."""


class NonzeroInnerConstant(SeriesError):
    """Composition requires the inner series to vanish at 0."""


@dataclass(frozen=True)
class Series:
    """Immutable truncated power series; ``coeffs[k]`` multiplies z^k."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if len(self.coeffs) < 1:
            raise SeriesError("series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        """Evaluate the truncated polynomial by Horner's scheme.

        ``z`` may be a scalar or a numpy array.
        """
        acc = np.zeros_like(np.asarray(z, dtype=complex)) + self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            acc = acc * z + c
        return acc

    def truncate(self, order: int) -> "Series":
        if order >= self.order:
            return self
        return Series(self.coeffs[: order + 1])

    def __add__(self, other):
        return add(self, _coerce(other, self.order))

    def __sub__(self, other):
        o = _coerce(other, self.order)
        return add(self, Series(tuple(-c for c in o.coeffs)))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Series(tuple(c * other for c in self.coeffs))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)


def _coerce(x, order: int) -> Series:
    if isinstance(x, Series):
        return x
    return constant(complex(x), order)


def constant(value: complex, order: int) -> Series:
    c = [complex(value)] + [0j] * order
    return Series(tuple(c))


def identity(order: int) -> Series:
    """The series z."""
    c = [0j] * (order + 1)
    c[1] = 1.0 + 0j
    return Series(tuple(c))


def from_coeffs(coeffs, order: int) -> Series:
    """The given coefficients, truncated or zero-padded to ``order``."""
    s = Series(tuple(coeffs)).truncate(order)
    return Series(s.coeffs + (0j,) * (order - s.order))


def _shared(a: Series, b: Series) -> int:
    return min(a.order, b.order)


def add(a: Series, b: Series) -> Series:
    n = _shared(a, b)
    return Series(tuple(a.coeffs[k] + b.coeffs[k] for k in range(n + 1)))


def mul(a: Series, b: Series) -> Series:
    n = _shared(a, b)
    full = np.convolve(np.asarray(a.coeffs[: n + 1]), np.asarray(b.coeffs[: n + 1]))
    return Series(tuple(full[: n + 1]))


def div(a: Series, b: Series) -> Series:
    """Long division; requires b(0) != 0.  ``mul(result, b) == a`` to order."""
    if abs(b.coeffs[0]) <= COEFF_TOL:
        raise ZeroConstantTerm("division by series with zero constant term")
    n = _shared(a, b)
    ac = np.asarray(a.coeffs[: n + 1])
    bc = np.asarray(b.coeffs[: n + 1])
    out = np.zeros(n + 1, dtype=complex)
    for k in range(n + 1):
        s = ac[k]
        if k:
            s = s - np.dot(bc[1 : k + 1], out[k - 1 :: -1])
        out[k] = s / bc[0]
    return Series(tuple(out))


def compose(outer: Series, inner: Series) -> Series:
    """Taylor coefficients of outer(inner(z)); inner must vanish at 0.

    Horner evaluation over series: O(N) series products, no FFT.
    """
    if abs(inner.coeffs[0]) > COEFF_TOL:
        raise NonzeroInnerConstant("inner series must have zero constant term")
    n = _shared(outer, inner)
    inner_n = inner.truncate(n)
    acc = constant(outer.coeffs[n], n)
    for k in range(n - 1, -1, -1):
        acc = mul(acc, inner_n) + constant(outer.coeffs[k], n)
    return acc


def derivative(a: Series) -> Series:
    """Term-by-term derivative; order drops by one."""
    if a.order == 0:
        return Series((0j,))
    return Series(tuple(k * a.coeffs[k] for k in range(1, a.order + 1)))


def integrate_div_t(a: Series) -> Series:
    """Map sum a_k z^k (k>=1) to sum (a_k/k) z^k, i.e. integral of a(t)/t.

    Requires a(0) = 0; the result also vanishes at 0 and satisfies
    z * result' == a to the truncation order.
    """
    if abs(a.coeffs[0]) > COEFF_TOL:
        raise NonzeroConstant("integrand must vanish at 0")
    out = [0j] + [a.coeffs[k] / k for k in range(1, a.order + 1)]
    return Series(tuple(out))


def exp_series(a: Series) -> Series:
    """Series of exp(a) for a(0) = 0, via the recurrence (exp a)' = a' exp a."""
    if abs(a.coeffs[0]) > COEFF_TOL:
        raise NonzeroConstant("exp_series requires a(0) = 0")
    n = a.order
    ac = np.asarray(a.coeffs)
    out = np.zeros(n + 1, dtype=complex)
    out[0] = 1.0
    # k e_k = sum_{j=1..k} j a_j e_{k-j}
    for k in range(1, n + 1):
        j = np.arange(1, k + 1)
        out[k] = np.dot(j * ac[1 : k + 1], out[k - 1 :: -1]) / k
    return Series(tuple(out))


def shift_mul_z(a: Series) -> Series:
    """Multiply by z keeping the truncation order (top coefficient drops)."""
    return Series((0j,) + a.coeffs[:-1])
