import json
from dataclasses import dataclass

import numpy as np
import pytest

import toeplitz_lab as tl
from toeplitz_lab import series as se
from toeplitz_lab.highdim import extremal_lift
from toeplitz_lab.toeplitz import NotNormalized, jsonable


def test_coeff_jet():
    koebe = se.div(se.identity(6), se.mul(tl.Series((1, -1, 0, 0, 0, 0, 0)),
                                          tl.Series((1, -1, 0, 0, 0, 0, 0))))
    j = tl.coeff_jet(koebe)
    assert j.b2 == 2 and j.b3 == 3
    assert tl.coeff_jet(se.identity(4)) == tl.CoeffJet(0, 0)
    j = tl.coeff_jet(tl.extremal_g(tl.halfplane()))
    assert abs(j.b2 - 2j) < 1e-12 and abs(j.b3 + 3) < 1e-12


def test_coeff_jet_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        tl.coeff_jet(tl.Series((1, 1, 0, 0)))
    with pytest.raises(NotNormalized):
        tl.coeff_jet(tl.Series((0, 2, 0, 0)))


def test_det_t22():
    assert tl.det_t22(tl.CoeffJet(2, 3)) == -5
    assert tl.det_t22(tl.CoeffJet(0, 0)) == 0
    assert tl.det_t22(tl.CoeffJet(2j, -3)) == -13


def test_det_t31():
    assert tl.det_t31(tl.CoeffJet(0, 0)) == 1
    assert tl.det_t31(tl.CoeffJet(2, 3)) == 8
    assert tl.det_t31(tl.CoeffJet(2j, -3)) == 24


def test_det_generic_examples():
    assert abs(tl.det_generic([1, 2j, -3], 3) - 24) < 1e-10
    assert abs(tl.det_generic([5, 5], 2)) < 1e-12


def test_det_generic_cap_and_shape():
    with pytest.raises(ValueError):
        tl.det_generic([1] * 7, 7)
    with pytest.raises(ValueError):
        tl.det_generic([1, 2], 3)


def test_det_generic_matches_closed_forms():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        b2 = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        b3 = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        j = tl.CoeffJet(b2, b3)
        assert abs(tl.det_generic([1, b2, b3], 3) - tl.det_t31(j)) < 1e-10
        assert abs(tl.det_generic([b2, b3], 2) - tl.det_t22(j)) < 1e-10


@dataclass(frozen=True)
class _Pair:
    z: complex
    items: tuple


def test_jsonable_converts_recursively():
    x = {"a": [_Pair(1 + 2j, (3, None, "s")), (0.5, True)], "b": np.complex128(-1j)}
    assert jsonable(x) == {"a": [{"z": [1.0, 2.0], "items": [3, None, "s"]}, [0.5, True]],
                           "b": [-0.0, -1.0]}
    with pytest.raises(TypeError):
        jsonable({1, 2})


def test_every_report_round_trips_through_strict_json():
    reports = [
        tl.report(tl.janowski(0.5, -0.5), [0, 0.3 + 0.4j]),
        tl.certify(tl.halfplane()),
        tl.verify_ball(tl.power(0.25), extremal_lift(tl.power(0.25)),
                       tl.NormedPoint((0.5, 0.2j), "sup")),
        tl.montecarlo_verify(tl.alpha(0.3), 50, seed=2, theorem="t31"),
    ]
    for rep in reports:
        d = rep.to_json_dict()
        assert json.loads(json.dumps(d, allow_nan=False)) == d
