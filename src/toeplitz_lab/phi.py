"""Generator functions for the subordination classes.

A :class:`PhiSpec` names one of the built-in families

* ``halfplane``      -- (1+z)/(1-z)                (starlike)
* ``alpha``          -- (1+(1-2a)z)/(1-z)          (starlike of order a)
* ``janowski``       -- (1+Dz)/(1+Ez)
* ``power``          -- ((1+z)/(1-z))^g            (strongly starlike of order g)
* ``custom``         -- user-supplied Taylor series, optional inverse

and exposes the only data the closed-form bounds consume: the 2-jet
(first and second derivative at 0), plus the two bound-applicability
predicates and a pointwise inverse for subordination checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import series as se
from .series import Series
from .toeplitz import JET_ORDER

JET_TOL = 1e-12


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

    def label(self) -> str:
        if self.params:
            return self.family + "(" + ", ".join(f"{p:g}" for p in self.params) + ")"
        return self.family


def halfplane() -> PhiSpec:
    return PhiSpec("halfplane")


def alpha(a: float) -> PhiSpec:
    if not 0 <= a < 1:
        raise InvalidParameters(f"alpha requires 0 <= a < 1, got {a}")
    return PhiSpec("alpha", (float(a),))


def janowski(d: float, e: float) -> PhiSpec:
    if not (-1 <= e < d <= 1):
        raise InvalidParameters(f"janowski requires -1 <= E < D <= 1, got D={d}, E={e}")
    return PhiSpec("janowski", (float(d), float(e)))


def power(g: float) -> PhiSpec:
    if not 0 < g <= 1:
        raise InvalidParameters(f"power requires 0 < g <= 1, got {g}")
    return PhiSpec("power", (float(g),))


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
    if inverse is not None and abs(inverse.coeffs[0]) > JET_TOL:
        raise InvalidParameters("custom inverse must vanish at w = 1")
    return PhiSpec("custom", (), phi_series, inverse)


def jet2(phi: PhiSpec) -> Jet2:
    """Closed-form 2-jet for built-in families; series-read for custom."""
    if phi.family == "halfplane":
        return Jet2(2.0, 4.0)
    if phi.family == "alpha":
        (a,) = phi.params
        return Jet2(2 * (1 - a), 4 * (1 - a))
    if phi.family == "janowski":
        d, e = phi.params
        return Jet2(d - e, -2 * e * (d - e))
    if phi.family == "power":
        (g,) = phi.params
        return Jet2(2 * g, 4 * g * g)
    if phi.family == "custom":
        c = phi.custom_series.coeffs
        return Jet2(c[1].real, 2 * c[2].real)
    raise InvalidParameters(f"unknown family {phi.family!r}")


def phi_series(phi: PhiSpec, order: int = JET_ORDER) -> Series:
    """Taylor series of Phi at 0 to the given order (constant term 1)."""
    if phi.family == "halfplane":
        # (1+z)/(1-z) = 1 + 2z + 2z^2 + ...
        return Series((1.0,) + (2.0,) * order)
    if phi.family == "alpha":
        (a,) = phi.params
        return Series((1.0,) + (2 * (1 - a),) * order)
    if phi.family == "janowski":
        d, e = phi.params
        # (1+Dz)/(1+Ez) = 1 + (D-E) z - E(D-E) z^2 + E^2 (D-E) z^3 - ...
        c = [1.0 + 0j]
        for k in range(1, order + 1):
            c.append((d - e) * (-e) ** (k - 1))
        return Series(tuple(c))
    if phi.family == "power":
        (g,) = phi.params
        # exp(g * log((1+z)/(1-z))), log series = 2 sum z^(2k+1)/(2k+1)
        logc = [0j] * (order + 1)
        for k in range(1, order + 1, 2):
            logc[k] = 2.0 * g / k
        return se.exp_series(Series(tuple(logc)))
    if phi.family == "custom":
        return se.from_coeffs(phi.custom_series.coeffs, order)
    raise InvalidParameters(f"unknown family {phi.family!r}")


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
    if phi.family == "halfplane":
        return (w - 1) / (w + 1)
    if phi.family == "alpha":
        (a,) = phi.params
        return (w - 1) / (w + 1 - 2 * a)
    if phi.family == "janowski":
        d, e = phi.params
        return (w - 1) / (d - e * w)
    if phi.family == "power":
        (g,) = phi.params
        # principal g-th root, consistent with the branch fixed by Phi(0)=1
        t = np.exp(np.log(w) / g)
        return (t - 1) / (t + 1)
    if phi.family == "custom":
        if phi.custom_inverse is None:
            raise NoInverseAvailable("custom Phi has no inverse series")
        return phi.custom_inverse(w - 1)
    raise InvalidParameters(f"unknown family {phi.family!r}")


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
    try:
        if name in ("starlike", "halfplane") and len(parts) == 1:
            return halfplane()
        if name == "alpha" and len(parts) == 2:
            return alpha(float(parts[1]))
        if name == "janowski" and len(parts) == 3:
            return janowski(float(parts[1]), float(parts[2]))
        if name == "power" and len(parts) == 2:
            return power(float(parts[1]))
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
