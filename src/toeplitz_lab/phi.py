"""Generator functions for the subordination classes.

A :class:`PhiSpec` names one of the built-in families

* ``halfplane``      -- (1+z)/(1-z)                (starlike)
* ``alpha``          -- (1+(1-2a)z)/(1-z)          (starlike of order a)
* ``janowski``       -- (1+Dz)/(1+Ez)
* ``power``          -- ((1+z)/(1-z))^g            (strongly starlike of order g)
* ``custom``         -- user-supplied Taylor series, optional inverse

and exposes the only data the closed-form bounds consume: the 2-jet
(first and second derivative at 0), plus the two bound-applicability
predicates and a pointwise inverse for subordination checks.  Each
built-in family is one record of ``_FAMILIES``; ``custom`` reads its series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import series as se
from .series import Series
from .toeplitz import JET_ORDER

JET_TOL = 1e-12

#: largest scale of a custom 2-jet, taken as the largest of d1, |d2|^(1/2)
#: and |e| = |d2|/(2 d1).  Every value the lab computes from a jet is a
#: polynomial of degree at most 4 in these with small coefficients, so up
#: to this scale it stays far inside the float range (about 1.8e308).
MAX_JET_SCALE = 1e75


class InvalidParameters(ValueError):
    pass


class NoInverseAvailable(ValueError):
    pass


@dataclass(frozen=True)
class Jet2:
    """(Phi'(0), Phi''(0)); the first is positive, the second real."""

    d1: float
    d2: float

    def __post_init__(self):
        if not self.d1 > 0:
            raise InvalidParameters("Phi'(0) must be positive")


@dataclass(frozen=True)
class PhiSpec:
    family: str
    params: tuple = ()
    custom_series: Series | None = None
    custom_inverse: Series | None = None

    def __post_init__(self):
        if self.family != "custom" and self.family not in _FAMILIES:
            raise InvalidParameters(f"unknown family {self.family!r}")

    def label(self) -> str:
        if self.params:
            return self.family + "(" + ", ".join(f"{p:g}" for p in self.params) + ")"
        return self.family


@dataclass(frozen=True)
class _Family:
    """A built-in family.  Each function takes the family's parameters last."""

    nparams: int
    valid: object  # (*params) -> bool
    message: str  # why `valid` failed, formatted with the parameters
    jet: object  # (*params) -> Jet2, in closed form
    series: object  # (order, *params) -> Series of Phi at 0 to that order
    inverse: object  # (w, *params) -> Phi^{-1}(w), vectorized over arrays


_FAMILIES = {
    # (1+z)/(1-z) = 1 + 2z + 2z^2 + ...
    "halfplane": _Family(
        0, lambda: True, "",
        jet=lambda: Jet2(2.0, 4.0),
        series=lambda order: Series((1.0,) + (2.0,) * order),
        inverse=lambda w: (w - 1) / (w + 1)),
    "alpha": _Family(
        1, lambda a: 0 <= a < 1, "alpha requires 0 <= a < 1, got {}",
        jet=lambda a: Jet2(2 * (1 - a), 4 * (1 - a)),
        series=lambda order, a: Series((1.0,) + (2 * (1 - a),) * order),
        inverse=lambda w, a: (w - 1) / (w + 1 - 2 * a)),
    # (1+Dz)/(1+Ez) = 1 + (D-E) z - E(D-E) z^2 + E^2 (D-E) z^3 - ...
    "janowski": _Family(
        2, lambda d, e: -1 <= e < d <= 1, "janowski requires -1 <= E < D <= 1, got D={}, E={}",
        jet=lambda d, e: Jet2(d - e, -2 * e * (d - e)),
        series=lambda order, d, e: Series(
            (1.0,) + tuple((d - e) * (-e) ** (k - 1) for k in range(1, order + 1))),
        inverse=lambda w, d, e: (w - 1) / (d - e * w)),
    "power": _Family(
        1, lambda g: 0 < g <= 1, "power requires 0 < g <= 1, got {}",
        jet=lambda g: Jet2(2 * g, 4 * g * g),
        # exp(g * log((1+z)/(1-z))), log series = 2 sum z^(2k+1)/(2k+1)
        series=lambda order, g: se.exp_series(
            Series(tuple(2.0 * g / k if k % 2 else 0j for k in range(order + 1)))),
        # principal g-th root, consistent with the branch fixed by Phi(0)=1
        inverse=lambda w, g: ((t := np.exp(np.log(w) / g)) - 1) / (t + 1)),
}


def _built_in(name: str, *params) -> PhiSpec:
    fam = _FAMILIES[name]
    if not fam.valid(*params):
        raise InvalidParameters(fam.message.format(*params))
    return PhiSpec(name, tuple(float(p) for p in params))


def halfplane() -> PhiSpec:
    return _built_in("halfplane")


def alpha(a: float) -> PhiSpec:
    return _built_in("alpha", a)


def janowski(d: float, e: float) -> PhiSpec:
    return _built_in("janowski", d, e)


def power(g: float) -> PhiSpec:
    return _built_in("power", g)


def custom(phi_series: Series, inverse: Series | None = None) -> PhiSpec:
    """A user-supplied generator.

    ``phi_series`` is the Taylor expansion at 0 (constant term must be 1).
    ``inverse``, when given, is the expansion of the inverse map in powers
    of (w - 1), with zero constant term, so that omega = inverse(w - 1).
    """
    if not all(np.isfinite(s.coeffs).all() for s in (phi_series, inverse) if s is not None):
        raise InvalidParameters("custom series coefficients must be finite")
    if abs(phi_series.coeffs[0] - 1) > JET_TOL:
        raise InvalidParameters("custom Phi must have Phi(0) = 1")
    if phi_series.order < 2:
        raise InvalidParameters("custom Phi needs at least a 2-jet")
    c1, c2 = phi_series.coeffs[1], phi_series.coeffs[2]
    if abs(c1.imag) > JET_TOL or c1.real <= 0:
        raise InvalidParameters("custom Phi must have real Phi'(0) > 0")
    if abs(c2.imag) > JET_TOL:
        raise InvalidParameters("custom Phi must have real Phi''(0)")
    d1, d2 = c1.real, 2 * c2.real
    if not max(d1, math.sqrt(abs(d2)), abs(d2) / (2 * d1)) <= MAX_JET_SCALE:
        raise InvalidParameters(
            f"custom Phi's 2-jet (d1, d2) = ({d1:g}, {d2:g}) is too large for float "
            f"arithmetic: d1, |d2|^(1/2) and |d2|/(2 d1) must be at most {MAX_JET_SCALE:g}")
    if inverse is not None and abs(inverse.coeffs[0]) > JET_TOL:
        raise InvalidParameters("custom inverse must vanish at w = 1")
    return PhiSpec("custom", (), phi_series, inverse)


def jet2(phi: PhiSpec) -> Jet2:
    """Closed-form 2-jet for built-in families; series-read for custom."""
    if phi.family == "custom":
        c = phi.custom_series.coeffs
        return Jet2(c[1].real, 2 * c[2].real)
    return _FAMILIES[phi.family].jet(*phi.params)


def phi_series(phi: PhiSpec, order: int = JET_ORDER) -> Series:
    """Taylor series of Phi at 0 to the given order (constant term 1)."""
    if phi.family == "custom":
        return se.from_coeffs(phi.custom_series.coeffs, order)
    return _FAMILIES[phi.family].series(order, *phi.params)


def condition_t22(phi: PhiSpec) -> bool:
    """|Phi''(0) + 2 Phi'(0)^2| >= 2 Phi'(0) > 0."""
    j = jet2(phi)
    return abs(j.d2 + 2 * j.d1**2) >= 2 * j.d1


def condition_t31(phi: PhiSpec) -> bool:
    """2 Phi'(0) - 2 Phi'(0)^2 <= Phi''(0) <= 6 Phi'(0)^2 - 2 Phi'(0)."""
    j = jet2(phi)
    return 2 * j.d1 - 2 * j.d1**2 <= j.d2 <= 6 * j.d1**2 - 2 * j.d1


def inverse_values(phi: PhiSpec, w):
    """Pointwise Phi^{-1}(w), vectorized over numpy arrays."""
    w = np.asarray(w, dtype=complex)
    if phi.family == "custom":
        if phi.custom_inverse is None:
            raise NoInverseAvailable("custom Phi has no inverse series")
        return phi.custom_inverse(w - 1)
    return _FAMILIES[phi.family].inverse(w, *phi.params)


def subordination_check(candidate: Series, phi: PhiSpec, grid: int = 64) -> bool:
    """True iff |Phi^{-1}(candidate(z))| < 1 on the sampling lattice.

    Sample points are z = r e^{i theta}, r in {0.3, 0.6, 0.9}, theta
    uniform with ``grid`` points.  The candidate must satisfy
    candidate(0) = 1.  This is a truncation-level check: candidate is
    evaluated as the polynomial it stores.
    """
    if abs(candidate.coeffs[0] - 1) > JET_TOL:
        raise ValueError("candidate must have constant term 1")
    theta = 2 * math.pi * np.arange(grid) / grid
    for r in (0.3, 0.6, 0.9):
        z = r * np.exp(1j * theta)
        om = inverse_values(phi, candidate(z))
        if not np.all(np.abs(om) < 1.0):
            return False
    return True


def parse_family(text: str) -> PhiSpec:
    """Parse a CLI family string.

    Accepted forms: ``starlike``, ``halfplane``, ``alpha:<x>``,
    ``janowski:<D>:<E>``, ``power:<g>``, ``custom:<path>`` where the path
    holds JSON ``{"coeffs": [[re, im], ...], "inverse": [[re, im], ...]}``
    (``inverse`` optional).
    """
    parts = text.split(":")
    name = parts[0].lower()
    name = "halfplane" if name == "starlike" else name
    try:
        if name in _FAMILIES and len(parts) == 1 + _FAMILIES[name].nparams:
            return _built_in(name, *map(float, parts[1:]))
        if name == "custom" and len(parts) >= 2:
            import json

            path = ":".join(parts[1:])
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            coeffs = [complex(re, im) for re, im in payload["coeffs"]]
            inv = payload.get("inverse")
            inv_series = (
                Series(tuple(complex(re, im) for re, im in inv)) if inv else None
            )
            return custom(Series(tuple(coeffs)), inv_series)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        raise InvalidParameters(f"bad family spec {text!r}: {exc}") from exc
    raise InvalidParameters(f"bad family spec {text!r}")
