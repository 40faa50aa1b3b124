"""Checks of the program's outputs against computations kept apart from it.

Nothing here imports toeplitz_lab.  The bounds come from the paper's
corollary polynomials, the 2-jets (d1, d2) = (Phi'(0), Phi''(0)) from the
generators' closed forms, and (b2, b3) of a class member from pointwise
values on the circle |z| = 0.5 and an FFT.  Every check raises
:class:`CheckFailed` with the reason.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import HIGHDIM_RADII, HIGHDIM_SAMPLES, MC_SAMPLES


class CheckFailed(AssertionError):
    pass


#: relative slack on bounds: the formulas agree to ~1e-15, a 1e-6 error must show
BOUND_TOL = 1e-10
#: slack on the functional reproduced at a witness, and on equalities at extremals
VALUE_TOL = 1e-9
#: the oracle's allowed distance below the bound (acceptance criterion 5)
ORACLE_DEFICIT = 1e-3
#: agreement of the FFT jets with the program's series jets
JET_TOL = 1e-9
#: margins of the high-dimensional checks (highdim.MARGIN_TOL)
MARGIN_TOL = 1e-9


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(got, want, tol, what):
    _require(
        got is not None and abs(got - want) <= tol * max(1.0, abs(want)),
        f"{what}: got {got!r}, expected {want!r}",
    )


def parse_family(text: str) -> tuple:
    """CLI family text -> (family, params) as the program's PhiSpec names them."""
    name, *params = text.split(":")
    name = "halfplane" if name == "starlike" else name
    return name, tuple(float(p) for p in params)


def jet(family: str, params: tuple) -> tuple:
    """(d1, d2) of the generator."""
    if family == "halfplane":
        return 2.0, 4.0
    if family == "alpha":
        (a,) = params
        return 2 * (1 - a), 4 * (1 - a)
    if family == "power":
        (g,) = params
        return 2 * g, 4 * g * g
    if family == "janowski":
        d, e = params
        return d - e, -2 * e * (d - e)
    raise CheckFailed(f"no independent formulas for family {family!r}")


def bounds(family: str, params: tuple) -> dict:
    """Sharp t22 and t31 bounds from the paper's corollary forms."""
    if family == "halfplane":
        return {"t22": 13.0, "t31": 24.0}
    if family == "alpha":
        (a,) = params
        return {
            "t22": (1 - a) ** 2 * (4 * a**2 - 12 * a + 13),
            "t31": 12 * a**4 - 52 * a**3 + 91 * a**2 - 74 * a + 24,
        }
    if family == "power":
        (g,) = params
        return {"t22": 9 * g**4 + 4 * g**2, "t31": 15 * g**4 + 8 * g**2 + 1}
    if family == "janowski":
        d, e = params
        return {
            "t22": (d - e) ** 2 * (d**2 + 4 * e**2 - 4 * d * e + 4) / 4,
            "t31": 1 + 2 * (d - e) ** 2
            + (3 * d**2 - 5 * d * e + 2 * e**2) * (d**2 - 3 * d * e + 2 * e**2) / 4,
        }
    raise CheckFailed(f"no independent formulas for family {family!r}")


def phi_values(family: str, params: tuple, w):
    """Phi(w) pointwise."""
    if family == "halfplane":
        return (1 + w) / (1 - w)
    if family == "alpha":
        (a,) = params
        return (1 + (1 - 2 * a) * w) / (1 - w)
    if family == "power":
        (g,) = params
        return ((1 + w) / (1 - w)) ** g  # principal branch; the base has Re > 0
    if family == "janowski":
        d, e = params
        return (1 + d * w) / (1 + e * w)
    raise CheckFailed(f"no independent formulas for family {family!r}")


def functional(target: str, b2: complex, b3: complex) -> float:
    if target == "t22":
        return abs(b2 * b2 - b3 * b3)
    if target == "t31":
        return abs(2 * b2 * b2 * b3 - 2 * b2 * b2 - b3 * b3 + 1)
    raise CheckFailed(f"unknown target {target!r}")


def body_jet(d1: float, d2: float, w1: complex, w2: complex) -> tuple:
    """(b2, b3) of the class member whose Schwarz function starts w1 z + w2 z^2.

    Phi(omega) = 1 + p1 z + p2 z^2 + ... with p1 = d1 w1 and
    p2 = d1 w2 + (d2/2) w1^2; g = z exp(sum p_k z^k / k) gives
    b2 = p1 and b3 = p2/2 + p1^2/2.
    """
    p1 = d1 * w1
    p2 = d1 * w2 + d2 / 2 * w1 * w1
    return p1, (p2 + p1 * p1) / 2


# ---------------------------------------------------------------- class members

FFT_POINTS = 64
FFT_RADIUS = 0.5


def fft_jet(family: str, params: tuple, rotation, factors, power) -> tuple:
    """(b2, b3) of g with z g'/g = Phi(omega), omega a Blaschke word.

    omega is evaluated pointwise on |z| = 0.5, p = Phi(omega) - 1 is read
    off by FFT, and (b2, b3) follow as in :func:`body_jet`.  The aliasing
    error is of order 0.5**64.
    """
    k = np.arange(FFT_POINTS)
    z = FFT_RADIUS * np.exp(2j * math.pi * k / FFT_POINTS)
    omega = rotation * z**power
    for a in factors:
        omega = omega * (z + a) / (1 + np.conj(a) * z)
    p = np.fft.fft(phi_values(family, params, omega) - 1) / FFT_POINTS
    p1 = p[1] / FFT_RADIUS
    p2 = p[2] / FFT_RADIUS**2
    return complex(p1), complex((p2 + p1 * p1) / 2)


def draw_words(seed: int, count: int) -> list:
    """The benchmark's own Blaschke words (rotation, factors, leading power).

    The first is the extremal word omega(z) = i z; the rest are drawn like
    the program's sampler draws them, from a generator of the benchmark's own.
    """
    rng = np.random.default_rng([seed, 0xB2B3])
    words = [(1j, (), 1)]
    while len(words) < count:
        rotation = complex(np.exp(2j * math.pi * rng.random()))
        factors = tuple(
            complex(math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random()))
            for _ in range(int(rng.integers(0, 3)))
        )
        words.append((rotation, factors, int(rng.integers(1, 4))))
    return words


def check_jets(family_text: str, words, program_jet) -> int:
    """Compare ``program_jet(family_text, word)`` with :func:`fft_jet`.

    Also checks that each |det| stays within its bound.  Returns the number
    of words compared.
    """
    family, params = parse_family(family_text)
    bnd = bounds(family, params)
    for word in words:
        b2, b3 = fft_jet(family, params, *word)
        p2, p3 = program_jet(family_text, word)
        _require(abs(p2 - b2) <= JET_TOL and abs(p3 - b3) <= JET_TOL,
                 f"{family_text} word {word}: program (b2, b3) = ({p2}, {p3}), "
                 f"FFT gives ({b2}, {b3})")
        for target in ("t22", "t31"):
            _require(functional(target, b2, b3) <= bnd[target] + VALUE_TOL,
                     f"{family_text} word {word}: |{target}| above its bound")
    return len(words)


# ---------------------------------------------------------------- reports

def check_verify(payload: dict, job, seed: int) -> None:
    """One `verify --theorem both` payload: {"t22": report, "t31": report}."""
    family, params = parse_family(job.family)
    bnd = bounds(family, params)
    _require(sorted(payload) == ["t22", "t31"], f"{job.name}: theorems {sorted(payload)}")
    for theorem, rep in payload.items():
        what = f"{job.name} {theorem}"
        _close(rep["bound"], bnd[theorem], BOUND_TOL, f"{what} bound")
        _require(rep["theorem"] == theorem, f"{what}: theorem {rep['theorem']!r}")
        _require(rep["samples"] == MC_SAMPLES and rep["seed"] == seed,
                 f"{what}: samples {rep['samples']}, seed {rep['seed']}")
        _require(rep["violations"] == [], f"{what}: violations {rep['violations']}")
        # np.histogram over [0, bound] drops values outside it, so the counts
        # sum to `samples` only if 0 <= |det| <= bound for every sample
        counted = sum(b["count"] for b in rep["margin_histogram"])
        _require(counted == MC_SAMPLES, f"{what}: histogram holds {counted} samples")
        _require(0.0 <= rep["max_observed"] <= bnd[theorem],
                 f"{what}: max_observed {rep['max_observed']}")
        if family == "halfplane" and theorem == "t22":
            _require(rep["max_observed"] >= 0.95 * 13,
                     f"{what}: max_observed {rep['max_observed']} < 0.95*13")


def check_sharpness(payload: dict, job) -> None:
    """One `sharpness` payload: extremal certificate plus grid oracle."""
    family, params = parse_family(job.family)
    d1, d2 = jet(family, params)
    bnd = bounds(family, params)
    cert = payload["certificate"]
    _close(complex(*cert["b2"]), 1j * d1, VALUE_TOL, f"{job.name} certificate b2")
    _close(complex(*cert["b3"]), -(d2 + 2 * d1 * d1) / 4, VALUE_TOL,
           f"{job.name} certificate b3")
    for t in ("t22", "t31"):
        _close(cert[f"bound_{t}"], bnd[t], BOUND_TOL, f"{job.name} certificate bound_{t}")
        _close(cert[f"attained_{t}"], bnd[t], VALUE_TOL, f"{job.name} certificate attained_{t}")
    oracle = payload["oracle"]
    _require(sorted(oracle) == ["t22", "t31"], f"{job.name}: oracle targets {sorted(oracle)}")
    for t, res in oracle.items():
        what = f"{job.name} oracle {t}"
        _close(res["bound"], bnd[t], BOUND_TOL, f"{what} bound")
        value = res["value"]
        _require(value <= bnd[t] + VALUE_TOL, f"{what}: value {value} above the bound")
        _require(bnd[t] - value <= ORACLE_DEFICIT, f"{what}: value {value} short of {bnd[t]}")
        _close(res["deficit"], res["bound"] - value, BOUND_TOL, f"{what} deficit")
        w1, w2 = complex(*res["argmax_w1"]), complex(*res["argmax_w2"])
        _require(abs(w2) <= 1 - abs(w1) ** 2 + 1e-12,
                 f"{what}: witness ({w1}, {w2}) outside |w2| <= 1 - |w1|^2")
        _close(functional(t, *body_jet(d1, d2, w1, w2)), value, VALUE_TOL,
               f"{what} functional at the witness")


def check_highdim(payload: dict, job) -> None:
    """One `highdim` payload: axis points of the extremal lift, then samples."""
    family, params = parse_family(job.family)
    d1, d2 = jet(family, params)
    bnd = bounds(family, params)
    _require(payload["n"] == job.n and payload["norm"] == job.norm,
             f"{job.name}: n {payload['n']}, norm {payload['norm']}")
    ball = f"ball/{job.norm}/n={job.n}"
    polydisc = f"polydisc/n={job.n}"
    settings = [polydisc, ball] if job.norm == "sup" else [ball]
    runs = payload["runs"]
    _require(len(runs) == len(settings) * (len(HIGHDIM_RADII) + HIGHDIM_SAMPLES),
             f"{job.name}: {len(runs)} margin reports")
    for i, rep in enumerate(runs):
        what = f"{job.name} report {i}"
        _require(rep["setting"] == settings[i % len(settings)], f"{what}: setting {rep['setting']}")
        for t in ("t22", "t31"):
            margin = rep[f"margin_{t}"]
            _require(margin is not None and margin >= -MARGIN_TOL, f"{what}: margin_{t} {margin}")
            if rep["setting"] == ball:
                _close(rep[f"rhs_{t}"], bnd[t], BOUND_TOL, f"{what} rhs_{t}")
    axis = runs[: len(settings) * len(HIGHDIM_RADII)]
    for i, rep in enumerate(axis):
        r = HIGHDIM_RADII[i // len(settings)]
        what = f"{job.name} axis point r={r} {rep['setting']}"
        if rep["setting"] == polydisc:
            want = (d2 + 2 * d1 * d1) ** 2 * r**6 / 16 + d1 * d1 * r**4
            _close(rep["lhs_t22"], want, VALUE_TOL, f"{what} lhs_t22")
        else:
            _close(rep["lhs_t22"], bnd["t22"], VALUE_TOL, f"{what} lhs_t22")
            _close(rep["lhs_t31"], bnd["t31"], VALUE_TOL, f"{what} lhs_t31")


def check_payload(payload: dict, job, seed: int) -> None:
    if job.command == "verify":
        check_verify(payload, job, seed)
    elif job.command == "sharpness":
        check_sharpness(payload, job)
    elif job.command == "highdim":
        check_highdim(payload, job)
    else:
        raise CheckFailed(f"no check for command {job.command!r}")
