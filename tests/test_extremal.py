import numpy as np
import pytest

import toeplitz_lab as tl
from toeplitz_lab import extremal as ex
from toeplitz_lab import series as se

TOL = 1e-12


def test_extremal_jets():
    j = tl.coeff_jet(tl.extremal_g(tl.halfplane()))
    assert abs(j.b2 - 2j) < TOL and abs(j.b3 + 3) < TOL
    g = 0.5
    j = tl.coeff_jet(tl.extremal_g(tl.power(g)))
    assert abs(j.b2 - 2j * g) < TOL and abs(j.b3 + 3 * g**2) < TOL


def test_extremal_jet_closed_form_random_families():
    rng = np.random.default_rng(51)
    for _ in range(100):
        a = rng.random() * 0.99
        g = 0.01 + 0.99 * rng.random()
        e = -1 + 2 * rng.random()
        d = min(e + (1 - e) * (0.01 + 0.99 * rng.random()), 1.0)
        for phi in (tl.alpha(a), tl.power(g), tl.janowski(d, e)):
            jet = tl.jet2(phi)
            j = tl.coeff_jet(tl.extremal_g(phi))
            assert abs(j.b2 - 1j * jet.d1) < TOL
            assert abs(j.b3 + (jet.d2 + 2 * jet.d1**2) / 4) < TOL


def test_certify_families():
    cert = tl.certify(tl.halfplane())
    assert abs(cert.attained_t22 - 13.0) < 1e-10
    assert abs(cert.attained_t31 - 24.0) < 1e-10
    cert = tl.certify(tl.alpha(0.5))
    assert abs(cert.attained_t22 - 2.0) < 1e-10
    assert abs(cert.attained_t31 - 4.0) < 1e-10
    cert = tl.certify(tl.power(1 / 3))
    assert abs(cert.attained_t22 - 5 / 9) < 1e-10


def test_certify_gaps_small_where_conditions_hold():
    for phi in (tl.halfplane(), tl.alpha(0.3), tl.alpha(0.5), tl.power(0.5),
                tl.power(0.9), tl.janowski(0.8, -0.6)):
        cert = tl.certify(phi)
        if cert.cond_t22:
            assert cert.gap_t22 < 1e-10
        if cert.cond_t31:
            assert cert.gap_t31 < 1e-10


def test_certify_jet_matches_order_16():
    for phi in (tl.halfplane(), tl.alpha(0.3), tl.alpha(0.5), tl.power(0.5),
                tl.power(0.9), tl.janowski(0.8, -0.6)):
        cert = tl.certify(phi)
        assert tl.CoeffJet(cert.b2, cert.b3) == tl.coeff_jet(tl.extremal_g(phi, 16))


def test_extremal_is_subordinate():
    for phi in (tl.halfplane(), tl.alpha(0.4), tl.power(0.6)):
        g = tl.extremal_g(phi, 48)
        big_g = se.div(se.derivative(g), tl.Series(g.coeffs[1:]))
        assert tl.subordination_check(big_g, phi, 32)


def test_certificate_json():
    d = tl.certify(tl.halfplane()).to_json_dict()
    assert d["b2"] == [0.0, 2.0]
    assert d["gap_t22"] < 1e-10


def test_certification_failure_path():
    # feed certify a jet/bound mismatch by monkeypatching the bound
    import toeplitz_lab.extremal as mod

    orig = mod.t22_bound
    mod.t22_bound = lambda jet: orig(jet) + 1.0
    try:
        with pytest.raises(ex.CertificationFailed) as err:
            tl.certify(tl.halfplane())
        assert "t22" in err.value.gaps
    finally:
        mod.t22_bound = orig
