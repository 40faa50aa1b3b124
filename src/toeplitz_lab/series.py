"""Truncated univariate complex power series.

A :class:`Series` holds coefficients c_0..c_N (coefficient of z^k at
index k) for a fixed truncation order N.  All arithmetic is exact to
the shared truncation order; coefficients beyond it are never consulted.
Results of binary operations carry ``order = min`` of the operand orders.

The arithmetic lives in the ``*_coeffs`` kernels, which act on complex
arrays of shape (..., N+1): index k of the last axis multiplies z^k and
the leading axes are a batch that broadcasts.  Binary kernels take equal
last axes, and every kernel checks its precondition on every batch row.
The :class:`Series` functions call the same kernels on a batch of one.
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


def _require_vanishing(a, exc, message):
    if np.any(np.abs(a[..., 0]) > COEFF_TOL):
        raise exc(message)


def mul_coeffs(a, b):
    """Truncated Cauchy product."""
    n = a.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for j in range(n):
        out[..., j:] += a[..., j, None] * b[..., : n - j]
    return out


def div_coeffs(a, b):
    """Long division a / b; requires b(0) != 0 in every batch row."""
    if np.any(np.abs(b[..., 0]) <= COEFF_TOL):
        raise ZeroConstantTerm("division by series with zero constant term")
    n = a.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for k in range(n):
        s = a[..., k]
        if k:
            s = s - (b[..., 1 : k + 1] * out[..., k - 1 :: -1]).sum(axis=-1)
        out[..., k] = s / b[..., 0]
    return out


def compose_coeffs(outer, inner):
    """outer(inner(z)) by Horner's scheme; inner must vanish at 0."""
    _require_vanishing(inner, NonzeroInnerConstant, "inner series must have zero constant term")
    acc = np.zeros(np.broadcast_shapes(outer.shape, inner.shape), dtype=complex)
    acc[..., 0] = outer[..., -1]
    for k in range(outer.shape[-1] - 2, -1, -1):
        acc = mul_coeffs(acc, inner)
        acc[..., 0] += outer[..., k]
    return acc


def integrate_div_t_coeffs(a):
    """sum a_k z^k (k >= 1) to sum (a_k / k) z^k; requires a(0) = 0."""
    _require_vanishing(a, NonzeroConstant, "integrand must vanish at 0")
    out = np.zeros(a.shape, dtype=complex)
    out[..., 1:] = a[..., 1:] / np.arange(1, a.shape[-1])
    return out


def exp_coeffs(a):
    """exp(a) for a(0) = 0, via the recurrence (exp a)' = a' exp a."""
    _require_vanishing(a, NonzeroConstant, "exp_series requires a(0) = 0")
    ja = np.arange(a.shape[-1]) * a
    out = np.zeros(a.shape, dtype=complex)
    out[..., 0] = 1.0
    # k e_k = sum_{j=1..k} j a_j e_{k-j}
    for k in range(1, a.shape[-1]):
        out[..., k] = (ja[..., 1 : k + 1] * out[..., k - 1 :: -1]).sum(axis=-1) / k
    return out


def shift_mul_z_coeffs(a):
    """Multiply by z keeping the truncation order (top coefficient drops)."""
    out = np.zeros(a.shape, dtype=complex)
    out[..., 1:] = a[..., :-1]
    return out


def _shared(a: Series, b: Series) -> int:
    return min(a.order, b.order)


def _arr(a: Series, n: int):
    return np.asarray(a.coeffs[: n + 1])


def add(a: Series, b: Series) -> Series:
    n = _shared(a, b)
    return Series(tuple(a.coeffs[k] + b.coeffs[k] for k in range(n + 1)))


def mul(a: Series, b: Series) -> Series:
    n = _shared(a, b)
    return Series(mul_coeffs(_arr(a, n), _arr(b, n)))


def div(a: Series, b: Series) -> Series:
    """Long division; requires b(0) != 0.  ``mul(result, b) == a`` to order."""
    n = _shared(a, b)
    return Series(div_coeffs(_arr(a, n), _arr(b, n)))


def compose(outer: Series, inner: Series) -> Series:
    """Taylor coefficients of outer(inner(z)); inner must vanish at 0.

    Horner evaluation over series: O(N) series products, no FFT.
    """
    n = _shared(outer, inner)
    return Series(compose_coeffs(_arr(outer, n), _arr(inner, n)))


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
    return Series(integrate_div_t_coeffs(_arr(a, a.order)))


def exp_series(a: Series) -> Series:
    """Series of exp(a) for a(0) = 0, via the recurrence (exp a)' = a' exp a."""
    return Series(exp_coeffs(_arr(a, a.order)))


def shift_mul_z(a: Series) -> Series:
    """Multiply by z keeping the truncation order (top coefficient drops)."""
    return Series(shift_mul_z_coeffs(_arr(a, a.order)))
