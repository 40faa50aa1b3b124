"""Ball and polydisc instances of the determinant bounds.

Mappings are of the form G(z) = z * h(l(z)) with a scalar series h,
h(0) = 1, and a linear functional l(z) that is either the first
coordinate or a support functional l_u at a fixed unit vector u.  For
such G the homogeneous Frechet-derivative terms are exact polynomials
in h's coefficients:

    D^2 G(0)(z^2)/2! = h1 l(z) z
    D^3 G(0)(z^3)/3! = h2 l(z)^2 z
    (1/2) D^2 G(0)(z, D^2 G(0)(z^2)/2!) = h1^2 l(z)^2 z

A lift h is admissible when 1 + w h'(w)/h(w) is subordinate to Phi;
taking h(w) = g(w)/w for a one-variable class member g produces exactly
these lifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import t22_bound, t31_bound
from .extremal import extremal_g
from .phi import PhiSpec, condition_t22, condition_t31, jet2
from .sampler import BoundViolated
from .series import Series
from .toeplitz import jsonable

MARGIN_TOL = 1e-9

SUP = "sup"
EUCLID = "euclid"


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class NormedPoint:
    """Interior point of the unit ball with its norm flavor.

    For the sup norm, ``k_index`` is the lowest index attaining the max
    modulus.
    """

    coords: tuple
    norm_kind: str

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(complex(c) for c in self.coords))
        if self.norm_kind not in (SUP, EUCLID):
            raise ValueError(f"norm_kind must be 'sup' or 'euclid', got {self.norm_kind!r}")
        if not 0 < self.norm < 1:
            raise ValueError("point must lie in the open unit ball, away from 0")

    @property
    def norm(self) -> float:
        v = np.abs(np.asarray(self.coords))
        return float(np.max(v) if self.norm_kind == SUP else np.linalg.norm(v))

    @property
    def k_index(self) -> int:
        if self.norm_kind != SUP:
            raise ValueError("k_index is defined for the sup norm only")
        return int(np.argmax(np.abs(np.asarray(self.coords))))


def lz_apply(base: NormedPoint, w) -> complex:
    """The support functional l_z at ``base`` applied to w.

    Sup norm: w_k conj(z_k)/|z_k| at the max-modulus index; Euclidean:
    <w, z>/||z||.  Satisfies l_z(z) = ||z|| and |l_z(w)| <= ||w||.
    """
    w = np.asarray(w, dtype=complex)
    z = np.asarray(base.coords)
    if w.shape != z.shape:
        raise DimensionMismatch(f"expected dimension {len(z)}, got {w.shape}")
    if base.norm_kind == SUP:
        k = base.k_index
        return complex(w[k] * np.conj(z[k]) / abs(z[k]))
    return complex(np.dot(w, np.conj(z)) / base.norm)


def _ell(z: NormedPoint, direction) -> complex:
    """The linear functional l(z): first coordinate or l_u(z)."""
    if direction is None:
        return z.coords[0]
    u = np.asarray(direction, dtype=complex)
    if u.shape != (len(z.coords),):
        raise DimensionMismatch("direction vector dimension mismatch")
    zv = np.asarray(z.coords)
    if z.norm_kind == SUP:
        k = int(np.argmax(np.abs(u)))
        return complex(zv[k] * np.conj(u[k]) / abs(u[k]))
    return complex(np.dot(zv, np.conj(u)) / np.linalg.norm(u))


@dataclass(frozen=True)
class HomogeneousTerms:
    q2: np.ndarray
    q3: np.ndarray
    b2sq_vec: np.ndarray


def homogeneous_terms(h: Series, z: NormedPoint, direction=None) -> HomogeneousTerms:
    """Exact degree-2/3 homogeneous terms of G(z) = z h(l(z)).

    ``direction=None`` uses l(z) = z_1; otherwise ``direction`` is a unit
    vector u and l = l_u for the point's norm.
    """
    if abs(h.coeffs[0] - 1) > 1e-12:
        raise ValueError("h must satisfy h(0) = 1")
    if h.order < 2:
        raise ValueError(f"h needs coefficients up to w^2, got order {h.order}")
    h1, h2 = h.coeffs[1], h.coeffs[2]
    ell = _ell(z, direction)
    zv = np.asarray(z.coords)
    return HomogeneousTerms(
        q2=h1 * ell * zv,
        q3=h2 * ell * ell * zv,
        b2sq_vec=h1 * h1 * ell * ell * zv,
    )


@dataclass
class MarginReport:
    family: str
    setting: str
    lhs_t22: float | None
    rhs_t22: float | None
    margin_t22: float | None
    lhs_t31: float | None
    rhs_t31: float | None
    margin_t31: float | None

    to_json_dict = jsonable


def _margin_report(phi, setting, lhs22, rhs22, lhs31, rhs31, tol) -> MarginReport:
    """Both inequalities at one point; a bound whose condition fails is
    reported as None.  Raises BoundViolated for a margin below -tol."""
    rhs22 = rhs22 if condition_t22(phi) else None
    rhs31 = rhs31 if condition_t31(phi) else None
    report = MarginReport(
        family=phi.label(),
        setting=setting,
        lhs_t22=lhs22,
        rhs_t22=rhs22,
        margin_t22=None if rhs22 is None else rhs22 - lhs22,
        lhs_t31=lhs31,
        rhs_t31=rhs31,
        margin_t31=None if rhs31 is None else rhs31 - lhs31,
    )
    for name, margin in (("t22", report.margin_t22), ("t31", report.margin_t31)):
        if margin is not None and margin < -tol:
            raise BoundViolated(f"{report.family} {setting} {name}: margin {margin}")
    return report


def verify_ball(
    phi: PhiSpec, h: Series, z: NormedPoint, direction=None, tol: float = MARGIN_TOL
) -> MarginReport:
    """Normalized ball inequalities at a single point.

    b2 = l_z(D^2 G(0)(z^2)/2!)/||z||^2 and b3 = l_z(D^3 G(0)(z^3)/3!)/||z||^3
    feed the one-variable determinant forms against the jet bounds.
    """
    jet = jet2(phi)
    terms = homogeneous_terms(h, z, direction)
    nrm = z.norm
    b2 = lz_apply(z, terms.q2) / nrm**2
    b3 = lz_apply(z, terms.q3) / nrm**3
    lhs22 = abs(b2**2 - b3**2)
    lhs31 = abs(2 * b2**2 * b3 - b3**2 - 2 * b2**2 + 1)
    return _margin_report(phi, f"ball/{z.norm_kind}/n={len(z.coords)}",
                          lhs22, t22_bound(jet), lhs31, t31_bound(jet), tol)


def verify_polydisc(
    phi: PhiSpec, h: Series, z: NormedPoint, tol: float = MARGIN_TOL
) -> MarginReport:
    """Componentwise polydisc inequalities for G(z) = z h(z_1), sup norm.

    The T22-type form checks sup_k |q3_k^2 - q2_k^2| against the
    ||z||-weighted right side; the T31-type form is componentwise
    |2 b2sq_k q3_k - q3_k^2 - 2 q2_k^2 + 1|, whose three ingredients are
    exactly the per-component quantities the proof bounds by
    (d1 ||z||^3 / 2)(3 d1 - e), (d1 ||z||^3 / 2)(e + d1) and d1 ||z||^2.
    """
    if z.norm_kind != SUP:
        raise ValueError("polydisc checks require the sup norm")
    jet = jet2(phi)
    e = jet.d2 / (2 * jet.d1)
    terms = homogeneous_terms(h, z, None)
    nrm = z.norm
    q2, q3, b2sq = terms.q2, terms.q3, terms.b2sq_vec
    lhs22 = float(np.max(np.abs(q3 * q3 - q2 * q2)))
    lhs31 = float(np.max(np.abs(2 * b2sq * q3 - q3 * q3 - 2 * q2 * q2 + 1)))
    rhs22 = (jet.d1**2 * nrm**6 / 4) * (e + jet.d1) ** 2 + (jet.d1 * nrm**2) ** 2
    rhs31 = (
        1
        + (jet.d1**2 * nrm**6 / 4) * (3 * jet.d1 - e) * (e + jet.d1)
        + 2 * jet.d1**2 * nrm**4
    )
    return _margin_report(phi, f"polydisc/n={len(z.coords)}",
                          lhs22, rhs22, lhs31, rhs31, tol)


def lift_from_class_member(g: Series) -> Series:
    """h(w) = g(w)/w for a normalized one-variable class member g.

    Then 1 + w h'(w)/h(w) = z g'/g, so the induced mapping z h(l(z)) z
    stays inside the high-dimensional class.
    """
    if abs(g.coeffs[0]) > 1e-12 or abs(g.coeffs[1] - 1) > 1e-12:
        raise ValueError("g must be normalized: g(z) = z + ...")
    return Series(g.coeffs[1:])


def extremal_lift(phi: PhiSpec) -> Series:
    """The lift of the one-variable extremal function, built at ``JET_ORDER``."""
    return lift_from_class_member(extremal_g(phi))


def random_interior_point(rng, n: int, norm_kind: str) -> NormedPoint:
    """Uniform-direction point with norm uniform in (0.05, 0.95)."""
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    kind_norm = np.max(np.abs(v)) if norm_kind == SUP else np.linalg.norm(v)
    r = 0.05 + 0.9 * rng.random()
    return NormedPoint(tuple(v / kind_norm * r), norm_kind)
