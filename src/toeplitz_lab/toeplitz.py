"""Toeplitz determinants of small order from Taylor coefficients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import Series

_NORM_TOL = 1e-12

#: generic determinants above this size are out of scope
MAX_GENERIC_SIZE = 6


def jsonable(x):
    """``x`` as JSON data: a dataclass as a dict of its fields, a complex
    number as ``[re, im]``, lists, tuples and dicts item by item.  Atomic
    types are tested first, as most values are atomic."""
    if x is None or isinstance(x, (str, int, float)):
        return x
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    fields = getattr(x, "__dataclass_fields__", None)
    if fields is None:
        raise TypeError(f"no JSON form for {type(x).__name__}")
    return {name: jsonable(getattr(x, name)) for name in fields}


class NotNormalized(ValueError):
    """Series is not of the form z + b2 z^2 + b3 z^3 + ..."""


@dataclass(frozen=True)
class CoeffJet:
    """The pair (b2, b3) of a normalized function."""

    b2: complex
    b3: complex


#: least truncation order at which (b2, b3) are exact; nothing here reads more
JET_ORDER = 3


def coeff_jet(g: Series) -> CoeffJet:
    if g.order < JET_ORDER:
        raise NotNormalized(f"need coefficients up to z^{JET_ORDER}")
    if abs(g.coeffs[0]) > _NORM_TOL or abs(g.coeffs[1] - 1) > _NORM_TOL:
        raise NotNormalized("series must satisfy g(0)=0, g'(0)=1")
    return CoeffJet(g.coeffs[2], g.coeffs[3])


def det_t22(j: CoeffJet) -> complex:
    """det of [[b2, b3], [b3, b2]]."""
    return j.b2**2 - j.b3**2


def det_t31(j: CoeffJet) -> complex:
    """det of the 3x3 symmetric Toeplitz matrix with first row (1, b2, b3)."""
    return 2 * j.b2**2 * j.b3 - 2 * j.b2**2 - j.b3**2 + 1


def det_generic(entries, m: int) -> complex:
    """Determinant of the m x m symmetric Toeplitz matrix with the given
    first row, by LU elimination with partial pivoting.  Cross-check oracle
    for the closed forms; capped at m <= 6.
    """
    if m > MAX_GENERIC_SIZE:
        raise ValueError(f"generic determinant capped at m <= {MAX_GENERIC_SIZE}")
    row = np.asarray(entries, dtype=complex)
    if row.shape != (m,):
        raise ValueError(f"first row must have exactly {m} entries")
    idx = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    return complex(np.linalg.det(row[idx]))
