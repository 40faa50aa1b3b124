import json

import numpy as np
import pytest

import toeplitz_lab as tl
from toeplitz_lab import highdim as hd
from toeplitz_lab import sampler as sp
from toeplitz_lab import series as se

HP = tl.halfplane()


def test_normed_point_basics():
    z = hd.NormedPoint((0.5, 0.2), "sup")
    assert z.norm == 0.5 and z.k_index == 0
    z = hd.NormedPoint((0.3, 0.4), "euclid")
    assert abs(z.norm - 0.5) < 1e-15
    with pytest.raises(ValueError):
        hd.NormedPoint((1.5, 0.0), "sup")
    with pytest.raises(ValueError):
        hd.NormedPoint((0.5,), "max")


def test_sup_tie_breaks_to_lowest_index():
    z = hd.NormedPoint((0.4, 0.4j), "sup")
    assert z.k_index == 0


def test_lz_apply():
    for kind in ("sup", "euclid"):
        z = hd.NormedPoint((0.3, 0.2j, -0.1), kind)
        got = tl.lz_apply(z, np.asarray(z.coords))
        assert abs(got - z.norm) < 1e-14
    z = hd.NormedPoint((0.5, 0.2), "sup")
    assert abs(tl.lz_apply(z, np.array([3 + 4j, 9])) - (3 + 4j)) < 1e-14
    z = hd.NormedPoint((0.5, 0.0), "euclid")
    assert abs(tl.lz_apply(z, np.array([0.0, 7.0]))) < 1e-14  # w perp z


def test_lz_operator_norm_one():
    rng = np.random.default_rng(61)
    for kind in ("sup", "euclid"):
        for _ in range(100):
            z = hd.random_interior_point(rng, 4, kind)
            w = rng.normal(size=4) + 1j * rng.normal(size=4)
            wn = np.max(np.abs(w)) if kind == "sup" else np.linalg.norm(w)
            assert abs(tl.lz_apply(z, w)) <= wn + 1e-12


def test_lz_dimension_mismatch():
    z = hd.NormedPoint((0.5, 0.2), "sup")
    with pytest.raises(hd.DimensionMismatch):
        tl.lz_apply(z, np.array([1.0, 2.0, 3.0]))


def test_homogeneous_terms_extremal_example():
    h = hd.extremal_lift(HP)  # h1 = 2i, h2 = -3
    r = 0.7
    z = hd.NormedPoint((r, 0j), "sup")
    terms = tl.homogeneous_terms(h, z)
    assert np.allclose(terms.q2, [2j * r**2, 0])
    assert np.allclose(terms.q3, [-3 * r**3, 0])
    assert np.allclose(terms.b2sq_vec, [-4 * r**3, 0])


def test_homogeneous_terms_refuse_short_lift():
    z = hd.NormedPoint((0.4, 0.3), "sup")
    with pytest.raises(ValueError, match="w\\^2"):
        tl.homogeneous_terms(tl.Series((1, 2j)), z)


def test_homogeneous_terms_identity_mapping():
    one = se.constant(1, 4)
    z = hd.NormedPoint((0.4, 0.3), "sup")
    terms = tl.homogeneous_terms(one, z)
    assert np.allclose(terms.q2, 0) and np.allclose(terms.q3, 0)


def restriction_coeffs(h, z, direction=None):
    """Coefficients of t^2, t^3 in t -> G(t z), via the series engine."""
    ell = hd._ell(z, direction)
    inner = ell * se.identity(h.order)
    comp = se.compose(h, inner)
    zv = np.asarray(z.coords)
    return zv * comp.coeffs[1], zv * comp.coeffs[2]


def test_homogeneous_terms_match_restriction_oracle():
    rng = np.random.default_rng(62)
    for _ in range(25):
        w = sp.sample_words(1, int(rng.integers(0, 2**62)))[0]
        h = hd.lift_from_class_member(tl.g_from_schwarz(HP, w, 10))
        for kind in ("sup", "euclid"):
            z = hd.random_interior_point(rng, 3, kind)
            t2, t3 = restriction_coeffs(h, z)
            terms = tl.homogeneous_terms(h, z)
            assert np.allclose(terms.q2, t2, atol=1e-12)
            assert np.allclose(terms.q3, t3, atol=1e-12)


def test_b2sq_vec_matches_polarization_oracle():
    # (1/2) D^2 G(0)(z, q2) via B(x, y) = (P2(x+y) - P2(x) - P2(y))/2
    rng = np.random.default_rng(63)
    h = hd.extremal_lift(tl.power(0.7))
    for _ in range(10):
        z = hd.random_interior_point(rng, 3, "sup")

        def p2(v):
            ell = v[0]
            return h.coeffs[1] * ell * v

        zv = np.asarray(z.coords)
        q2 = p2(zv)
        bilinear = (p2(zv + q2) - p2(zv) - p2(q2)) / 2
        terms = tl.homogeneous_terms(h, z)
        assert np.allclose(terms.b2sq_vec, bilinear, atol=1e-12)


def test_verify_ball_extremal_equality():
    h = hd.extremal_lift(HP)
    for n in (2, 3, 5):
        for r in (0.3, 0.6, 0.9):
            u = np.zeros(n, dtype=complex)
            u[0] = 1.0
            z = hd.NormedPoint((r,) + (0j,) * (n - 1), "euclid")
            rep = tl.verify_ball(HP, h, z, direction=u)
            assert abs(rep.margin_t22) < 1e-9
            assert abs(rep.margin_t31) < 1e-9


def test_verify_ball_identity_mapping():
    z = hd.NormedPoint((0.4, 0.2), "sup")
    rep = tl.verify_ball(HP, se.constant(1, 4), z)
    assert rep.lhs_t31 == 1.0
    assert rep.margin_t31 == rep.rhs_t31 - 1.0 >= 0


def test_verify_polydisc_extremal_equality():
    h = hd.extremal_lift(HP)
    for n in (2, 3, 5):
        for r in (0.3, 0.6, 0.9):
            z = hd.NormedPoint((r,) + (0j,) * (n - 1), "sup")
            rep = tl.verify_polydisc(HP, h, z)
            assert abs(rep.lhs_t22 - (9 * r**6 + 4 * r**4)) < 1e-9
            assert abs(rep.margin_t22) < 1e-9
            assert abs(rep.lhs_t31 - (15 * r**6 + 8 * r**4 + 1)) < 1e-9
            assert abs(rep.margin_t31) < 1e-9


def test_verify_polydisc_identity_mapping():
    z = hd.NormedPoint((0.4, 0.2), "sup")
    rep = tl.verify_polydisc(HP, se.constant(1, 4), z)
    assert rep.lhs_t22 == 0.0
    assert rep.margin_t22 >= 0


def test_verify_polydisc_requires_sup_norm():
    z = hd.NormedPoint((0.4, 0.2), "euclid")
    with pytest.raises(ValueError):
        tl.verify_polydisc(HP, se.constant(1, 4), z)


def test_random_lifted_samples_have_nonnegative_margins():
    rng = np.random.default_rng(64)
    for _ in range(100):
        w = sp.sample_words(1, int(rng.integers(0, 2**62)))[0]
        h = hd.lift_from_class_member(tl.g_from_schwarz(HP, w, 10))
        for n in (2, 3, 5):
            z = hd.random_interior_point(rng, n, "sup")
            rep = tl.verify_polydisc(HP, h, z)
            assert rep.margin_t22 >= -1e-9 and rep.margin_t31 >= -1e-9
            rep = tl.verify_ball(HP, h, z)
            assert rep.margin_t22 >= -1e-9 and rep.margin_t31 >= -1e-9
            ze = hd.random_interior_point(rng, n, "euclid")
            rep = tl.verify_ball(HP, h, ze)
            assert rep.margin_t22 >= -1e-9 and rep.margin_t31 >= -1e-9


def test_tie_point_invariance():
    # verified quantities do not depend on which tied index attains the max
    h = hd.extremal_lift(HP)
    z1 = hd.NormedPoint((0.4, 0.4, 0.1), "sup")
    z2 = hd.NormedPoint((0.4, 0.4 * np.exp(0.3j), 0.1), "sup")
    r1 = tl.verify_polydisc(HP, h, z1)
    assert r1.rhs_t22 == tl.verify_polydisc(HP, h, z2).rhs_t22


def test_res_rhs_monotone_in_norm():
    jet = tl.jet2(tl.power(0.8))
    e = jet.d2 / (2 * jet.d1)
    radii = np.linspace(0.05, 0.95, 19)
    vals = [
        (jet.d1**2 * r**6 / 4) * (e + jet.d1) ** 2 + (jet.d1 * r**2) ** 2
        for r in radii
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_n1_reduction_matches_1d_jet():
    # at n = 1 the normalized ball quantities are the CoeffJet of w h(w)
    w = sp.sample_words(1, 99)[0]
    g = tl.g_from_schwarz(HP, w, 10)
    h = hd.lift_from_class_member(g)
    j = tl.coeff_jet(g)
    r = 0.37
    z = hd.NormedPoint((r,), "sup")
    terms = tl.homogeneous_terms(h, z)
    b2 = tl.lz_apply(z, terms.q2) / z.norm**2
    b3 = tl.lz_apply(z, terms.q3) / z.norm**3
    assert abs(b2 - j.b2) < 1e-12
    assert abs(b3 - j.b3) < 1e-12
    rep = tl.verify_ball(HP, h, z)
    assert rep.rhs_t22 == tl.t22_bound(tl.jet2(HP))
    assert rep.rhs_t31 == tl.t31_bound(tl.jet2(HP))


def test_default_lift_reports_match_order_16():
    # (h1, h2) are exact from JET_ORDER on, so the default changes only cost
    families = (HP, tl.alpha(0.3), tl.alpha(0.5), tl.power(0.5), tl.power(0.9),
                tl.janowski(0.8, -0.6))
    rng = np.random.default_rng(65)
    for phi in families:
        lo = hd.extremal_lift(phi)
        hi = hd.lift_from_class_member(tl.extremal_g(phi, 16))
        for n in (2, 3):
            for kind in ("sup", "euclid"):
                for z in (hd.NormedPoint((0.6,) + (0j,) * (n - 1), kind),
                          hd.random_interior_point(rng, n, kind)):
                    assert (tl.verify_ball(phi, lo, z).to_json_dict()
                            == tl.verify_ball(phi, hi, z).to_json_dict())
                    if kind == "sup":
                        assert (tl.verify_polydisc(phi, lo, z).to_json_dict()
                                == tl.verify_polydisc(phi, hi, z).to_json_dict())


BATCH_FAMILIES = (HP, tl.alpha(0.3), tl.power(0.5), tl.janowski(0.8, -0.6))


def _batch(phi, n, kind, count=40, seed=66):
    rng = np.random.default_rng(seed)
    h = hd.lift_rows(sp.member_rows(phi, count, int(rng.integers(0, 2**63))))
    return h, hd.random_points(rng, count, n, kind)


def _close(got, want):
    assert got.keys() == want.keys()
    for key, x in want.items():
        y = got[key]
        if isinstance(x, float):
            assert abs(y - x) <= 1e-12 * max(1.0, abs(x)), (key, y, x)
        else:
            assert y == x, key


@pytest.mark.parametrize("phi", BATCH_FAMILIES, ids=lambda p: p.label())
def test_batched_reports_match_one_point_checks(phi):
    for n in (1, 2, 3, 5):
        for kind in ("sup", "euclid"):
            h, z = _batch(phi, n, kind)
            settings = (hd.POLYDISC, hd.BALL) if kind == "sup" else (hd.BALL,)
            reports = hd.margin_reports(phi, h, z, kind, settings)
            assert len(reports) == len(settings) * len(z)
            for i in range(len(z)):
                lift, point = tl.Series(h[i]), hd.NormedPoint(tuple(z[i]), kind)
                one = [tl.verify_ball(phi, lift, point)]
                if kind == "sup":
                    one.insert(0, tl.verify_polydisc(phi, lift, point))
                for got, want in zip(reports[i * len(settings):], one):
                    _close(got.to_json_dict(), want.to_json_dict())


def test_one_bad_row_in_a_batch_is_refused():
    g = sp.member_rows(HP, 30, 5)
    h, z = hd.lift_rows(g), hd.random_points(np.random.default_rng(5), 30, 3, "sup")
    bad_g = g.copy()
    bad_g[17, 1] = 1.01  # g'(0) != 1
    with pytest.raises(ValueError, match="normalized"):
        hd.lift_rows(bad_g)
    bad_h = h.copy()
    bad_h[9, 0] = 1.01  # h(0) != 1
    with pytest.raises(ValueError, match="h\\(0\\) = 1"):
        hd.margin_reports(HP, bad_h, z, "sup", (hd.BALL,))
    for scale in (1.0, 2.0, 0.0):
        bad_z = z.copy()
        bad_z[11] = bad_z[11] / np.abs(bad_z[11]).max() * scale  # sup norm 1, 2, 0
        with pytest.raises(ValueError, match="open unit ball"):
            hd.margin_reports(HP, h, bad_z, "sup", (hd.POLYDISC, hd.BALL))
    z = hd.random_points(np.random.default_rng(6), 30, 3, "euclid")
    with pytest.raises(ValueError, match="sup norm"):
        hd.margin_reports(HP, h, z, "euclid", (hd.POLYDISC,))


def test_violation_names_its_row_and_replays(monkeypatch):
    import re

    monkeypatch.setattr(hd, "t22_bound", lambda jet: 4.0)
    h, z = _batch(HP, 3, "sup", count=200)
    with pytest.raises(tl.BoundViolated) as info:
        hd.margin_reports(HP, h, z, "sup", (hd.POLYDISC, hd.BALL))
    m = re.fullmatch(r"halfplane ball/sup/n=3 sample (\d+) t22: margin (\S+)", str(info.value))
    assert m, str(info.value)
    i, margin = int(m.group(1)), float(m.group(2))
    assert margin < -hd.MARGIN_TOL
    # every earlier row passes, and row i alone reproduces the margin
    hd.margin_reports(HP, h[:i], z[:i], "sup", (hd.POLYDISC, hd.BALL))
    rep = tl.verify_ball(HP, tl.Series(h[i]), hd.NormedPoint(tuple(z[i]), "sup"), tol=np.inf)
    assert rep.margin_t22 == margin


def _parent_random_interior_point(rng, n, norm_kind):
    # the one-point draw as it was before the batched kernel, kept as the reference
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    kind_norm = np.max(np.abs(v)) if norm_kind == "sup" else np.linalg.norm(v)
    r = 0.05 + 0.9 * rng.random()
    return tuple(complex(c) for c in v / kind_norm * r)


def test_random_interior_point_is_the_one_point_draw():
    for seed in range(40):
        for n in range(1, 9):
            for kind in ("sup", "euclid"):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(5):
                    got = hd.random_interior_point(a, n, kind).coords
                    assert got == _parent_random_interior_point(b, n, kind)
                assert a.random() == b.random()  # the same stream is left


def test_highdim_sample_i_is_row_i(capsys):
    from toeplitz_lab.cli import main

    phi, n, count, seed = tl.janowski(0.8, -0.6), 3, 25, 12
    assert main(["highdim", "--family", "janowski:0.8:-0.6", "--n", str(n), "--r", "0.5",
                 "--samples", str(count), "--seed", str(seed)]) == 0
    runs = json.loads(capsys.readouterr().out)["runs"][2:]  # past the axis point
    rng = np.random.default_rng(seed)
    word_seed = int(rng.integers(0, 2**63))
    g = sp.member_rows(phi, count, word_seed)
    z = hd.random_points(rng, count, n, "sup")
    for i, w in enumerate(sp.sample_words(count, word_seed)):
        assert np.allclose(g[i], tl.g_from_schwarz(phi, w).coeffs, rtol=0, atol=1e-13)
        lift, point = hd.lift_from_class_member(tl.Series(g[i])), hd.NormedPoint(tuple(z[i]), "sup")
        assert runs[2 * i] == tl.verify_polydisc(phi, lift, point).to_json_dict()
        assert runs[2 * i + 1] == tl.verify_ball(phi, lift, point).to_json_dict()
