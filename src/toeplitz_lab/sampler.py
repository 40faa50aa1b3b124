"""Class members from Schwarz functions, plus independent suprema.

Two independent routes to the sharp bounds live here:

* ``montecarlo_verify`` samples Blaschke-product Schwarz functions,
  builds the induced class members g with z g'/g = Phi(omega(z)), and
  asserts the closed-form bounds on their determinants;
* ``oracle_sup`` finds the largest value of a target functional on a
  lattice over the exact Schwarz-Pick 2-jet body {(w1, w2): |w1| <= 1,
  |w2| <= 1 - |w1|^2}, which parametrizes every attainable (b2, b3)
  through b2 = d1 w1 and 2 b3 - b2^2 = d1 w2 + (d2/2) w1^2.

The target functionals are polynomials in w2, so their moduli attain
their maxima on the Schwarz-Pick boundary |w2| = 1 - |w1|^2 (maximum
modulus principle), and the lattice puts w2 there.  For fixed w1,
b3 = A(w1) + B(w1) u with |u| = 1, and every target factors into at most
two factors linear in u; the product of their moduli plus B is a bound
U(w1) on every value at that w1.  Replacing each term of those factors by
its modulus gives a cap M(r) >= U that depends on the radius r = |w1|
alone.  The scan drops every radius whose cap cannot reach the best value
found, bounds the rest by U, and evaluates exactly only the w1 points
where U can reach it.  Rows of equal radius hold the same floats, so each
distinct radius is scanned once.  The result is the same lattice maximum
and witness as evaluating every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import series as se
from .bounds import fekete_szego_bound, t22_bound, t31_bound
from .phi import PhiSpec, condition_t22, condition_t31, jet2, phi_series
from .series import Series
from .toeplitz import JET_ORDER, CoeffJet, det_t22, det_t31, jsonable


class BoundViolated(AssertionError):
    """A sampled function exceeded a sharp bound; carries the witness."""

    def __init__(self, message, word=None):
        super().__init__(message)
        self.word = word


@dataclass(frozen=True)
class SchwarzWord:
    """Finite parametrization of a Schwarz function.

    omega(z) = rotation * z^leading_power * prod_i (z + a_i)/(1 + conj(a_i) z)
    with |rotation| = 1, |a_i| < 1 and leading_power >= 1; the Blaschke
    construction guarantees omega(0) = 0 and |omega| < 1 on the disk.
    """

    rotation: complex
    factors: tuple = ()
    leading_power: int = 1

    def __post_init__(self):
        if abs(abs(self.rotation) - 1) > 1e-12:
            raise ValueError("rotation must have unit modulus")
        if self.leading_power < 1:
            raise ValueError("leading_power must be >= 1")
        if any(abs(a) >= 1 for a in self.factors):
            raise ValueError("Blaschke factor parameters must lie in the open disk")


@dataclass(frozen=True)
class JetBodyPoint:
    """A point of the Schwarz-Pick 2-jet body."""

    w1: complex
    w2: complex

    def __post_init__(self):
        if abs(self.w1) > 1 + 1e-12 or abs(self.w2) > 1 - abs(self.w1) ** 2 + 1e-9:
            raise ValueError("point outside the Schwarz-Pick body")


@dataclass(frozen=True)
class _WordBatch:
    """Schwarz words as arrays: slot j of row i is a factor iff j < nfac[i]."""

    rotation: np.ndarray  # (B,) unit complex
    factors: np.ndarray  # (B, F), 0 in unused slots
    nfac: np.ndarray  # (B,)
    power: np.ndarray  # (B,)

    @classmethod
    def of(cls, words) -> "_WordBatch":
        width = max((len(w.factors) for w in words), default=0)
        factors = np.zeros((len(words), width), dtype=complex)
        for i, w in enumerate(words):
            factors[i, : len(w.factors)] = w.factors
        return cls(
            np.array([w.rotation for w in words], dtype=complex),
            factors,
            np.array([len(w.factors) for w in words], dtype=int),
            np.array([w.leading_power for w in words], dtype=int),
        )

    def word(self, i: int) -> SchwarzWord:
        return SchwarzWord(
            complex(self.rotation[i]),
            tuple(complex(a) for a in self.factors[i, : self.nfac[i]]),
            int(self.power[i]),
        )


def _omega_coeffs(words: _WordBatch, order: int):
    """(B, order+1) Taylor coefficients of every word's omega."""
    out = (np.arange(order + 1) == words.power[:, None]).astype(complex)
    num = np.zeros_like(out)
    den = np.zeros_like(out)
    den[:, 0] = 1.0
    for j in range(words.factors.shape[1]):
        a, used = words.factors[:, j], j < words.nfac
        # (z + a)/(1 + conj(a) z) where the slot is used, 1/1 where it is not
        num[:, 0] = np.where(used, a, 1.0)
        num[:, 1] = used
        den[:, 1] = np.conj(a)
        out = se.mul_coeffs(out, se.div_coeffs(num, den))
    return words.rotation[:, None] * out


def _class_member_coeffs(phi_coeffs, words: _WordBatch, order: int):
    """(B, order+1) coefficients of g = z exp(int (Phi(omega(t)) - 1)/t dt)."""
    big_g = se.compose_coeffs(phi_coeffs, _omega_coeffs(words, order))
    big_g[:, 0] -= 1
    return se.shift_mul_z_coeffs(se.exp_coeffs(se.integrate_div_t_coeffs(big_g)))


def omega_series(w: SchwarzWord, order: int = JET_ORDER) -> Series:
    return Series(_omega_coeffs(_WordBatch.of([w]), order)[0])


def g_from_schwarz(phi: PhiSpec, w: SchwarzWord, order: int = JET_ORDER) -> Series:
    """Class member with z g'/g = Phi(omega(z)), normalized g(z) = z + ...

    Construction: g = z exp(integral of (Phi(omega(t)) - 1)/t dt).
    """
    phi_coeffs = np.asarray(phi_series(phi, order).coeffs)
    return Series(_class_member_coeffs(phi_coeffs, _WordBatch.of([w]), order)[0])


#: words per block of the batched sampler; bounds memory for any sample count
BLOCK = 1024


def _word_blocks(count: int, seed: int, max_factors: int):
    """The words of ``sample_words(count, seed, max_factors)``, in blocks.

    Word i is made from uniforms i*K .. i*K + K-1 of the seeded stream,
    K = 3 + 2*max_factors, so it depends on the seed and i alone.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, count, BLOCK):
        u = rng.random((min(BLOCK, count - start), 3 + 2 * max_factors))
        nfac = np.minimum((u[:, 1] * (max_factors + 1)).astype(int), max_factors)
        factors = np.sqrt(u[:, 3::2]) * np.exp(2j * math.pi * u[:, 4::2])
        yield _WordBatch(
            rotation=np.exp(2j * math.pi * u[:, 0]),
            factors=np.where(np.arange(max_factors) < nfac[:, None], factors, 0),
            nfac=nfac,
            power=1 + np.minimum((u[:, 2] * 3).astype(int), 2),
        )


def sample_words(count: int, seed: int, max_factors: int = 2) -> list:
    """Deterministic pseudo-random Schwarz words.

    Rotation phase uniform, factor count uniform on 0..max_factors,
    factor parameters area-uniform in the disk (radius = sqrt(uniform)),
    leading power uniform on {1, 2, 3}.  All are drawn as arrays.
    """
    return [b.word(i) for b in _word_blocks(count, seed, max_factors)
            for i in range(len(b.power))]


def member_rows(phi: PhiSpec, count: int, seed: int):
    """(count, JET_ORDER+1) coefficients of the class members of
    ``sample_words(count, seed)``; row i is built from word i.
    """
    phi_coeffs = np.asarray(phi_series(phi).coeffs)
    rows = [np.zeros((0, JET_ORDER + 1), dtype=complex)]
    rows += [_class_member_coeffs(phi_coeffs, words, JET_ORDER)
             for words in _word_blocks(count, seed, 2)]
    return np.concatenate(rows)


def _target_values(target, jet, w1, w2):
    """Vectorized |target functional| on jet-body points."""
    b2 = jet.d1 * w1
    b2sq = b2 * b2
    b3 = (jet.d1 * w2 + (jet.d2 / 2) * w1 * w1 + b2sq) / 2
    if target == "t22":
        return np.abs(det_t22(CoeffJet(b2, b3)))
    if target == "t31":
        return np.abs(det_t31(CoeffJet(b2, b3)))
    if isinstance(target, tuple) and target[0] == "fs":
        return np.abs(b3 - complex(target[1]) * b2sq)
    raise ValueError(f"unknown target {target!r}")


def target_bound(phi: PhiSpec, target) -> float:
    """Closed-form sharp bound for an oracle target."""
    j = jet2(phi)
    if target == "t22":
        return t22_bound(j)
    if target == "t31":
        return t31_bound(j)
    if isinstance(target, tuple) and target[0] == "fs":
        return fekete_szego_bound(j, complex(target[1]))
    raise ValueError(f"unknown target {target!r}")


@dataclass
class OracleResult:
    value: float
    argmax: JetBodyPoint


#: w1 points per block of the bound pass, and values per block of the exact
#: pass; bounds memory for any grid
_CHUNK = 2**14

#: pruning margin per unit of the term scale M of `_cap`.  Each float
#: operation in `_target_values`, `_bound` or `_cap` errs by at most a few
#: eps times the moduli it combines, and each of those is at most M, so a
#: float value is within 40 eps M of the exact value at the same float
#: (w1, w2), and a float U within 40 eps M of the exact U(w1); w2's own
#: rounding, |w2| <= (1 - |w1|^2)(1 + 3 eps), fits inside that.  Against
#: 200-bit arithmetic at random points both errors stayed under 3 eps M.
#: So a w1 point with U < L - 256 eps M has every float value below the
#: attained L: it can neither hold the maximum nor tie with it.  The cap
#: M(r) is computed from the radius r, while U and the values see the
#: float |r e^{i th}|, which differs from r by a few ulps.  Both take B
#: from the same float 1 - r^2, and with B fixed M is a polynomial of
#: degree at most 4 in r with nonnegative coefficients, so that moves it by
#: under 10 eps M, and a radius with M(r) < L - 256 eps M has every float
#: value below L as well.  Where L is itself below that margin nothing is
#: pruned and the scan is full.
_SLACK = 256 * np.finfo(float).eps


def _bound(target, jet, w1, rad2):
    """Upper bound U(w1) on |target| over |w2| <= rad2.

    With b3 = A + B u, A = ((d2/2) w1^2 + b2^2)/2, B = d1 rad2/2, |u| = 1,
    each target is a product of factors x + c B u with |c| = 1:
    t22 = (b2 - b3)(b2 + b3), t31 = (2 b2^2 - 1 - b3)(b3 - 1) and
    fs = b3 - lam b2^2.  So U = prod (|x| + B).
    """
    b2 = jet.d1 * w1
    b2sq = b2 * b2
    a = ((jet.d2 / 2) * w1 * w1 + b2sq) / 2
    if target == "t22":
        x = (b2 - a, b2 + a)
    elif target == "t31":
        x = (2 * b2sq - 1 - a, a - 1)
    elif isinstance(target, tuple) and target[0] == "fs":
        x = (a - complex(target[1]) * b2sq,)
    else:
        raise ValueError(f"unknown target {target!r}")
    b = jet.d1 * rad2 / 2
    return math.prod(np.abs(xk) + b for xk in x)


def _cap(target, jet, r, rad2):
    """Term scale M(r) of the factors of `_bound` at |w1| = r.

    M is U with each factor's terms replaced by their moduli, so it is at
    least U(w1) at every phase of w1, and it bounds every intermediate
    modulus of both U and `_target_values` there.  It depends on r alone.
    """
    m1 = jet.d1 * r
    m2 = m1 * m1
    ma = (abs(jet.d2 / 2) * r * r + m2) / 2
    if target == "t22":
        t = (m1 + ma,) * 2
    elif target == "t31":
        t = (2 * m2 + 1 + ma, ma + 1)
    elif isinstance(target, tuple) and target[0] == "fs":
        t = (ma + abs(complex(target[1])) * m2,)
    else:
        raise ValueError(f"unknown target {target!r}")
    b = jet.d1 * rad2 / 2
    return math.prod(tk + b for tk in t)


def rounding_slack(jet, target) -> float:
    """Rounding allowance `_SLACK` M = 256 eps M for a computed |target|.

    M is `_cap` at r = 1 and |w2| <= 1: it bounds |b2|, |b3| and every term
    of the target over the whole jet body, so it bounds every modulus that a
    class member's, a lift's (||z|| < 1) or the extremal function's value,
    or a bound, combines.  The kernels reach b2 and b3 in a few dozen
    operations, each off by a few eps times such a modulus.  Against 200-bit
    arithmetic, 3 000 members each of 8 generators with d1 up to 1e6 stayed
    within 3.4 eps M, and the extremal function and bounds within 0.4 eps M.
    """
    return float(_SLACK * _cap(target, jet, 1.0, 1.0))


def _scan(jet, target, r1, th1, th2):
    """Max of the target over the lattice, and its witness (i, j, k).

    The lattice is w1 = r1[i] e^{i th1[j]}, w2 = (1 - r1[i]^2) e^{i th2[k]}.
    Rows with equal radii hold the same floats, and the witness rule below
    picks the first of them, so only the first row of each distinct radius
    is scanned.  The cap M(r) of `_cap` bounds every value at a radius, and
    U(w1) of `_bound` every value at a w1 point, so exact values are taken,
    block by block, only where they can reach the maximum: first at the
    points of highest U on the radius of largest cap, whose best value L is
    a lower bound; then U is computed only on the radii with
    M >= L - margin, and exact values only at their points with
    U >= L - margin (see `_SLACK`).  Exact values come from
    `_target_values` on the same floats a full scan uses, so the maximum and
    witness are those of the full scan: the largest value, then the smallest
    k, then the smallest flat index i * len(th1) + j.
    """
    e1 = np.exp(1j * th1)
    rad2 = 1 - r1**2
    phase2 = np.exp(1j * th2)
    n = len(r1) * len(e1)

    def points(flat):
        i, j = np.divmod(flat, len(e1))
        return r1[i] * e1[j], rad2[i]

    rows = max(1, _CHUNK // len(phase2))

    def exact(keep):
        """Best value over the flat w1 indices ``keep``, and its least key."""
        best, key = -1.0, 0
        for s in range(0, len(keep), rows):
            flat = keep[s : s + rows]
            w1, r = points(flat)
            vals = _target_values(target, jet, w1[:, None], r[:, None] * phase2)
            top = vals.max()
            if top >= best:
                at, k = np.nonzero(vals == top)
                first = int((k * n + flat[at]).min())
                if top > best or first < key:
                    best, key = float(top), first
        return best, key

    radii = np.unique(r1, return_index=True)[1]
    cap = _cap(target, jet, r1[radii], rad2[radii])
    top = radii[np.argmax(cap)]
    bound = _bound(target, jet, r1[top] * e1, rad2[top])
    phases = np.argpartition(bound, max(len(e1) - rows, 0))[-rows:]
    low, _ = exact(top * len(e1) + phases)

    margin = low - _SLACK * cap
    live = cap >= margin
    radii, margin = radii[live], margin[live]
    per = max(1, _CHUNK // len(e1))
    keep = []
    for s in range(0, len(radii), per):
        ii = radii[s : s + per]
        bound = _bound(target, jet, r1[ii, None] * e1, rad2[ii, None])
        at, j = np.nonzero(bound >= margin[s : s + per, None])
        keep.append(ii[at] * len(e1) + j)
    best, key = exact(np.concatenate(keep))
    k, flat = divmod(key, n)
    i, j = divmod(flat, len(e1))
    return best, (i, j, k)


#: least lattice size per axis the oracle scans
MIN_GRID = 8


def oracle_sup(phi: PhiSpec, target, grid: int = 200):
    """Supremum of |target| over the Schwarz-Pick 2-jet body by lattice scan.

    The lattice is grid radii x grid phases of w1 and grid phases of w2,
    with |w2| = 1 - |w1|^2.  Writing b3 = A(w1) + B(w1) u, |u| = 1, each
    target is a product of factors linear in u, which bounds it at each w1
    by U(w1) and on each radius r = |w1| by a cap M(r) >= U.  Radii whose
    cap, and w1 points whose U, cannot reach the best value found are
    skipped; radii that repeat (the refinement lattice clips many to 1)
    are scanned once.  The result is the maximum and witness a scan of
    every lattice point gives.  A second pass scans a lattice one grid step
    either side of the best cell, which removes most of the
    lattice-resolution bias.  Converges to the sharp bound from below.
    """
    if grid < MIN_GRID:
        raise ValueError(f"grid must be >= {MIN_GRID}")
    jet = jet2(phi)
    r1 = np.linspace(0.0, 1.0, grid)
    th = np.linspace(0.0, 2 * math.pi, grid, endpoint=False)
    dr, dt = r1[1] - r1[0], th[1] - th[0]
    lattice, best = (r1, th, th), -1.0
    for _ in range(2):
        r, t1, t2 = lattice
        value, (i, j, k) = _scan(jet, target, r, t1, t2)
        if value > best:
            best, w1, w2 = value, r[i] * np.exp(1j * t1[j]), (1 - r[i] ** 2) * np.exp(1j * t2[k])
        lattice = (np.clip(np.linspace(r[i] - dr, r[i] + dr, grid), 0.0, 1.0),
                   np.linspace(t1[j] - dt, t1[j] + dt, grid),
                   np.linspace(t2[k] - dt, t2[k] + dt, grid))
    return OracleResult(best, JetBodyPoint(complex(w1), complex(w2)))


@dataclass
class VerificationReport:
    family: str
    theorem: str
    samples: int
    seed: int
    bound: float
    max_observed: float
    tol: float
    violations: list = field(default_factory=list)
    margin_histogram: list = field(default_factory=list)

    to_json_dict = jsonable


#: margin histogram cells over [0, bound]
HISTOGRAM_BINS = 10

#: float-accumulation slack for sampled functions (b2, b3 are truncation-exact)
SAMPLE_TOL = 1e-6


def montecarlo_verify(
    phi: PhiSpec,
    count: int,
    seed: int,
    theorem="t22",
    tol: float = SAMPLE_TOL,
):
    """Sample class members and assert the requested sharp bounds.

    ``theorem`` is "t22", "t31" or a tuple of them.  A name gets its
    :class:`VerificationReport`; a tuple gets a dict of reports keyed by
    name, in the tuple's order, all from one build of each block of class
    members.  Each sample's g is built to truncation ``JET_ORDER``, at
    which (b2, b3) are exact.

    Raises :class:`BoundViolated` (carrying the offending word) if any
    sample exceeds bound + tol + `rounding_slack`, for the first theorem in
    the order given that has one; a violation is a genuine test failure.
    """
    names = (theorem,) if isinstance(theorem, str) else tuple(theorem)
    kinds = {"t22": (t22_bound, det_t22, condition_t22),
             "t31": (t31_bound, det_t31, condition_t31)}
    reports, cells, counts, limits = {}, {}, {}, {}
    for name in names:
        if name not in kinds:
            raise ValueError(f"unknown theorem {name!r}")
        bound_of, _, condition = kinds[name]
        if not condition(phi):
            raise ValueError(f"{name} condition does not hold for this family")
        bound = bound_of(jet2(phi))
        reports[name] = VerificationReport(phi.label(), name, count, seed, bound, 0.0, tol)
        cells[name] = (0.0, max(bound, 1e-9))
        counts[name] = np.zeros(HISTOGRAM_BINS, dtype=int)
        limits[name] = bound + tol + rounding_slack(jet2(phi), name)

    phi_coeffs = np.asarray(phi_series(phi).coeffs)
    for words in _word_blocks(count, seed, 2):
        g = _class_member_coeffs(phi_coeffs, words, JET_ORDER)
        cj = CoeffJet(g[:, 2], g[:, 3])
        for name, rep in reports.items():
            values = np.abs(kinds[name][1](cj))
            rep.max_observed = max(rep.max_observed, float(values.max()))
            counts[name] += np.histogram(rep.bound - values, bins=HISTOGRAM_BINS,
                                         range=cells[name])[0]
            rep.violations += [{"value": float(values[i]), **jsonable(words.word(i))}
                               for i in np.flatnonzero(values > limits[name])]
    for name, rep in reports.items():
        if count > 0:
            rep.margin_histogram = _histogram(counts[name], cells[name])
    for name, rep in reports.items():
        if rep.violations:
            worst = max(rep.violations, key=lambda v: v["value"])
            raise BoundViolated(
                f"{phi.label()} {name}: observed {worst['value']} > bound {rep.bound}",
                word=worst,
            )
    return reports[theorem] if isinstance(theorem, str) else reports


def _histogram(counts, cells):
    edges = np.linspace(*cells, len(counts) + 1)
    return [
        {"lo": float(edges[i]), "hi": float(edges[i + 1]), "count": int(counts[i])}
        for i in range(len(counts))
    ]


def schwarz_jet(w: SchwarzWord) -> JetBodyPoint:
    """(omega'(0), omega''(0)/2) of the induced Schwarz function."""
    om = omega_series(w, 4)
    return JetBodyPoint(om.coeffs[1], om.coeffs[2])
