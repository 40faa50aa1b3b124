"""Bound-attaining extremal functions and their certificates.

The extremal function is z exp(integral of (Phi(it) - 1)/t dt), whose
coefficient jet is (b2, b3) = (i d1, -(d2 + 2 d1^2)/4); certification
compares |det T_{2,2}| and |det T_{3,1}| of the constructed series with
the closed-form bounds and records the gaps exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import series as se
from .bounds import t22_bound, t31_bound
from .phi import PhiSpec, condition_t22, condition_t31, jet2, phi_series
from .sampler import rounding_slack
from .series import Series
from .toeplitz import JET_ORDER, coeff_jet, det_t22, det_t31, jsonable

CERT_TOL = 1e-10


class CertificationFailed(AssertionError):
    def __init__(self, message, gaps):
        super().__init__(message)
        self.gaps = gaps


def extremal_g(phi: PhiSpec, order: int = JET_ORDER) -> Series:
    """z exp(integral of (Phi(it) - 1)/t dt) as a truncated series."""
    ps = phi_series(phi, order)
    rotated = [c * (1j**k) for k, c in enumerate(ps.coeffs)]
    rotated[0] -= 1
    return se.shift_mul_z(se.exp_series(se.integrate_div_t(Series(tuple(rotated)))))


@dataclass
class ExtremalCertificate:
    family: str
    b2: complex
    b3: complex
    attained_t22: float
    bound_t22: float
    gap_t22: float
    cond_t22: bool
    attained_t31: float
    bound_t31: float
    gap_t31: float
    cond_t31: bool

    to_json_dict = jsonable


def certify(phi: PhiSpec) -> ExtremalCertificate:
    """Check that the extremal function attains each applicable bound.

    Raises :class:`CertificationFailed` when a gap reaches
    CERT_TOL + `sampler.rounding_slack` for a bound whose condition holds.
    """
    jet = jet2(phi)
    cj = coeff_jet(extremal_g(phi))
    c22, c31 = condition_t22(phi), condition_t31(phi)
    a22, b22 = abs(det_t22(cj)), t22_bound(jet)
    a31, b31 = abs(det_t31(cj)), t31_bound(jet)
    cert = ExtremalCertificate(
        family=phi.label(),
        b2=cj.b2,
        b3=cj.b3,
        attained_t22=a22,
        bound_t22=b22,
        gap_t22=abs(a22 - b22),
        cond_t22=c22,
        attained_t31=a31,
        bound_t31=b31,
        gap_t31=abs(a31 - b31),
        cond_t31=c31,
    )
    bad = {t: gap for t, ok, gap in (("t22", c22, cert.gap_t22), ("t31", c31, cert.gap_t31))
           if ok and gap >= CERT_TOL + rounding_slack(jet, t)}
    if bad:
        raise CertificationFailed(f"{phi.label()}: gaps {bad}", bad)
    return cert
