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

The checks run on arrays: lift rows h of shape (B, k >= 3) holding
(h0, h1, h2, ...) and points z of shape (B, n), row i of each being
sample i.  Every check holds on every row.  The one-point functions
(``verify_ball``, ``verify_polydisc``, ``homogeneous_terms``,
``lz_apply``, ``random_interior_point``) run the same code on a batch
of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import t22_bound, t31_bound
from .extremal import extremal_g
from .phi import PhiSpec, condition_t22, condition_t31, jet2
from .sampler import BoundViolated, rounding_slack
from .series import Series
from .toeplitz import jsonable

MARGIN_TOL = 1e-9

SUP = "sup"
EUCLID = "euclid"

#: the settings a margin report can check
BALL = "ball"
POLYDISC = "polydisc"

#: tolerance of the normalizations g(0) = 0, g'(0) = 1 and h(0) = 1
_NORM_TOL = 1e-12


class DimensionMismatch(ValueError):
    pass


def _rowdot(x):
    """x . x for every row of a real (B, n) array.

    Each row goes through the BLAS dot that ``np.linalg.norm`` takes on
    one complex vector, so a batch of one rounds as that norm does.
    """
    return (x[:, None, :] @ x[:, :, None])[:, 0, 0]


def _norms(z, norm_kind):
    """Sup or Euclidean norm of every row of z."""
    if norm_kind == SUP:
        return np.abs(z).max(-1)
    if norm_kind == EUCLID:
        return np.sqrt(_rowdot(z.real) + _rowdot(z.imag))
    raise ValueError(f"norm_kind must be 'sup' or 'euclid', got {norm_kind!r}")


def _interior_norms(z, norm_kind):
    """Row norms of z, each of which must lie in (0, 1)."""
    nrm = _norms(z, norm_kind)
    if not np.all((nrm > 0) & (nrm < 1)):
        raise ValueError("point must lie in the open unit ball, away from 0")
    return nrm


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
        _interior_norms(_row(self), self.norm_kind)

    @property
    def norm(self) -> float:
        return float(_norms(_row(self), self.norm_kind)[0])

    @property
    def k_index(self) -> int:
        if self.norm_kind != SUP:
            raise ValueError("k_index is defined for the sup norm only")
        return int(np.argmax(np.abs(np.asarray(self.coords))))


def _row(z: NormedPoint):
    """The point as a (1, n) batch."""
    return np.asarray(z.coords, dtype=complex)[None]


def _lz(z, nrm, norm_kind, w):
    """Row i of w under the support functional l_z of row i of z.

    Sup norm: w_k conj(z_k)/|z_k| at the max-modulus index, where
    |z_k| = ||z||; Euclidean: <w, z>/||z||.
    """
    if norm_kind == SUP:
        k = np.abs(z).argmax(-1)[:, None]
        zk = np.take_along_axis(z, k, -1)[:, 0]
        return np.take_along_axis(w, k, -1)[:, 0] * np.conj(zk) / nrm
    return (w * np.conj(z)).sum(-1) / nrm


def lz_apply(base: NormedPoint, w) -> complex:
    """The support functional l_z at ``base`` applied to w.

    Sup norm: w_k conj(z_k)/|z_k| at the max-modulus index; Euclidean:
    <w, z>/||z||.  Satisfies l_z(z) = ||z|| and |l_z(w)| <= ||w||.
    """
    w = np.asarray(w, dtype=complex)
    if w.shape != (len(base.coords),):
        raise DimensionMismatch(f"expected dimension {len(base.coords)}, got {w.shape}")
    z = _row(base)
    return complex(_lz(z, _norms(z, base.norm_kind), base.norm_kind, w[None])[0])


def _ell_rows(z, norm_kind, direction):
    """l(z) for every row of z: the first coordinate, or l_u at u = direction."""
    if direction is None:
        return z[:, 0]
    u = np.asarray(direction, dtype=complex)[None]
    if u.shape != (1, z.shape[-1]):
        raise DimensionMismatch("direction vector dimension mismatch")
    return _lz(u, _norms(u, norm_kind), norm_kind, z)


def _ell(z: NormedPoint, direction) -> complex:
    """The linear functional l(z): first coordinate or l_u(z)."""
    return complex(_ell_rows(_row(z), z.norm_kind, direction)[0])


def _terms(h, z, norm_kind, direction):
    """(q2, q3, b2sq_vec) rows of G(z) = z h(l(z)) for lift rows h."""
    if np.any(np.abs(h[:, 0] - 1) > _NORM_TOL):
        raise ValueError("h must satisfy h(0) = 1")
    if h.shape[-1] < 3:
        raise ValueError(f"h needs coefficients up to w^2, got order {h.shape[-1] - 1}")
    h1, h2 = h[:, 1, None], h[:, 2, None]
    ell = _ell_rows(z, norm_kind, direction)[:, None]
    return h1 * ell * z, h2 * ell * ell * z, h1 * h1 * ell * ell * z


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
    q2, q3, b2sq = _terms(np.asarray([h.coeffs]), _row(z), z.norm_kind, direction)
    return HomogeneousTerms(q2=q2[0], q3=q3[0], b2sq_vec=b2sq[0])


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


def _ball(jet, h, z, nrm, norm_kind, direction):
    """(lhs22, rhs22, lhs31, rhs31) of the normalized ball inequalities.

    b2 = l_z(D^2 G(0)(z^2)/2!)/||z||^2 and b3 = l_z(D^3 G(0)(z^3)/3!)/||z||^3
    feed the one-variable determinant forms against the jet bounds.
    """
    q2, q3, _ = _terms(h, z, norm_kind, direction)
    b2 = _lz(z, nrm, norm_kind, q2) / nrm**2
    b3 = _lz(z, nrm, norm_kind, q3) / nrm**3
    b2sq, b3sq = b2 * b2, b3 * b3
    ones = np.ones(len(z))
    return (np.abs(b2sq - b3sq), t22_bound(jet) * ones,
            np.abs(2 * b2sq * b3 - b3sq - 2 * b2sq + 1), t31_bound(jet) * ones)


def _polydisc(jet, h, z, nrm, norm_kind):
    """(lhs22, rhs22, lhs31, rhs31) of the componentwise polydisc inequalities.

    The T22-type form checks sup_k |q3_k^2 - q2_k^2| against the
    ||z||-weighted right side; the T31-type form is componentwise
    |2 b2sq_k q3_k - q3_k^2 - 2 q2_k^2 + 1|, whose three ingredients are
    exactly the per-component quantities the proof bounds by
    (d1 ||z||^3 / 2)(3 d1 - e), (d1 ||z||^3 / 2)(e + d1) and d1 ||z||^2.
    """
    if norm_kind != SUP:
        raise ValueError("polydisc checks require the sup norm")
    d1, e = jet.d1, jet.d2 / (2 * jet.d1)
    q2, q3, b2sq = _terms(h, z, SUP, None)
    q2sq, q3sq = q2 * q2, q3 * q3
    lhs22 = np.abs(q3sq - q2sq).max(-1)
    lhs31 = np.abs(2 * b2sq * q3 - q3sq - 2 * q2sq + 1).max(-1)
    rhs22 = (d1**2 * nrm**6 / 4) * (e + d1) ** 2 + (d1 * nrm**2) ** 2
    rhs31 = 1 + (d1**2 * nrm**6 / 4) * (3 * d1 - e) * (e + d1) + 2 * d1**2 * nrm**4
    return lhs22, rhs22, lhs31, rhs31


def margin_reports(
    phi: PhiSpec, h, z, norm_kind: str, settings=(BALL,), direction=None,
    tol: float = MARGIN_TOL, label: str = "sample",
) -> list:
    """Margin reports of lift rows h at points z, in one array pass.

    ``h`` is (B, k >= 3), or (1, k) for one lift at every point, and ``z``
    is (B, n).  The reports run row by row and, within a row, setting by
    setting.  ``direction`` picks l = l_u for the ball setting; the
    polydisc setting, sup norm only, always takes l(z) = z_1.  A bound
    whose condition fails is reported as None.  Raises BoundViolated for a
    margin below -(tol + `rounding_slack`), naming ``label`` and its row.
    """
    h = np.asarray(h, dtype=complex)
    z = np.asarray(z, dtype=complex)
    jet, family, n = jet2(phi), phi.label(), z.shape[-1]
    nrm = _interior_norms(z, norm_kind)
    checked = {"t22": condition_t22(phi), "t31": condition_t31(phi)}
    none = [None] * len(z)
    per_setting, margins = [], []
    for setting in settings:
        if setting == POLYDISC:
            name = f"polydisc/n={n}"
            lhs22, rhs22, lhs31, rhs31 = _polydisc(jet, h, z, nrm, norm_kind)
        elif setting == BALL:
            name = f"ball/{norm_kind}/n={n}"
            lhs22, rhs22, lhs31, rhs31 = _ball(jet, h, z, nrm, norm_kind, direction)
        else:
            raise ValueError(f"unknown setting {setting!r}")
        columns = []
        for t, lhs, rhs in (("t22", lhs22, rhs22), ("t31", lhs31, rhs31)):
            if checked[t]:
                margin = rhs - lhs
                margins.append((name, t, margin))
                columns += [lhs.tolist(), rhs.tolist(), margin.tolist()]
            else:
                columns += [lhs.tolist(), none, none]
        per_setting.append([MarginReport(family, name, *row) for row in zip(*columns)])
    if margins:
        bad = np.stack([m < -(tol + rounding_slack(jet, t)) for _, t, m in margins], -1)
        if bad.any():
            i, k = divmod(int(np.argmax(bad)), len(margins))
            name, t, m = margins[k]
            raise BoundViolated(f"{family} {name} {label} {i} {t}: margin {m[i]}")
    return [rep for row in zip(*per_setting) for rep in row]


def verify_ball(
    phi: PhiSpec, h: Series, z: NormedPoint, direction=None, tol: float = MARGIN_TOL
) -> MarginReport:
    """Normalized ball inequalities at a single point (see ``_ball``)."""
    (report,) = margin_reports(phi, [h.coeffs], [z.coords], z.norm_kind, (BALL,),
                               direction, tol, label="point")
    return report


def verify_polydisc(
    phi: PhiSpec, h: Series, z: NormedPoint, tol: float = MARGIN_TOL
) -> MarginReport:
    """Componentwise polydisc inequalities for G(z) = z h(z_1), sup norm
    (see ``_polydisc``)."""
    (report,) = margin_reports(phi, [h.coeffs], [z.coords], z.norm_kind, (POLYDISC,),
                               tol=tol, label="point")
    return report


def lift_rows(g):
    """Rows of h(w) = g(w)/w for class-member coefficient rows g (..., N+1).

    Every g must be normalized, g(z) = z + ...; then
    1 + w h'(w)/h(w) = z g'/g, so the induced mapping z h(l(z)) stays
    inside the high-dimensional class.
    """
    g = np.asarray(g, dtype=complex)
    if np.any(np.abs(g[..., 0]) > _NORM_TOL) or np.any(np.abs(g[..., 1] - 1) > _NORM_TOL):
        raise ValueError("g must be normalized: g(z) = z + ...")
    return g[..., 1:]


def lift_from_class_member(g: Series) -> Series:
    """h(w) = g(w)/w for a normalized one-variable class member g."""
    return Series(lift_rows(g.coeffs))


def extremal_lift(phi: PhiSpec) -> Series:
    """The lift of the one-variable extremal function, built at ``JET_ORDER``."""
    return lift_from_class_member(extremal_g(phi))


def random_points(rng, count: int, n: int, norm_kind: str):
    """(count, n) points, uniform in direction with norm uniform in (0.05, 0.95).

    Draws the real parts, the imaginary parts and the norms as three arrays.
    """
    v = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
    r = 0.05 + 0.9 * rng.random(count)
    return v / _norms(v, norm_kind)[:, None] * r[:, None]


def random_interior_point(rng, n: int, norm_kind: str) -> NormedPoint:
    """Uniform-direction point with norm uniform in (0.05, 0.95)."""
    return NormedPoint(tuple(random_points(rng, 1, n, norm_kind)[0]), norm_kind)
