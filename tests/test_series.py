import math

import numpy as np
import pytest

from toeplitz_lab import series as se
from toeplitz_lab.sampler import SchwarzWord, omega_series
from toeplitz_lab.series import Series

TOL = 1e-12


def rand_series(rng, order):
    c = rng.random(order + 1) + 1j * rng.random(order + 1)
    return Series(tuple(c))


def assert_close(a: Series, b: Series, tol=TOL):
    n = min(a.order, b.order)
    for k in range(n + 1):
        assert abs(a.coeffs[k] - b.coeffs[k]) <= tol, (k, a.coeffs[k], b.coeffs[k])


def test_add_examples():
    one_plus = Series((1, 1, 0))
    one_minus = Series((1, -1, 0))
    assert se.add(one_plus, one_minus).coeffs == (2, 0, 0)
    a = Series((1, 2, 2))
    assert se.add(se.constant(0, 2), a).coeffs == a.coeffs
    assert se.add(a, a).coeffs == (2, 4, 4)


def test_mul_examples():
    assert se.mul(Series((1, 1, 0)), Series((1, -1, 0))).coeffs == (1, 0, -1)
    z = se.identity(3)
    assert se.mul(z, Series((1, 2, 3, 0))).coeffs == (0, 1, 2, 3)
    sq = se.mul(Series((1, 1, 1, 0, 0)), Series((1, 1, 1, 0, 0)))
    assert sq.coeffs == (1, 2, 3, 2, 1)


def test_div_examples():
    geo = se.div(se.constant(1, 5), Series((1, -1, 0, 0, 0, 0)))
    assert geo.coeffs == (1,) * 6
    a = Series((2, 3, 4))
    assert_close(se.div(a, a), se.constant(1, 2))
    halfplane = se.div(Series((1, 1, 0, 0)), Series((1, -1, 0, 0)))
    assert halfplane.coeffs == (1, 2, 2, 2)


def test_div_zero_constant():
    with pytest.raises(se.ZeroConstantTerm):
        se.div(se.constant(1, 3), se.identity(3))


def test_compose_examples():
    hp = Series((1, 2, 2, 2, 2))
    assert_close(se.compose(hp, se.identity(4)), hp)
    assert se.compose(hp, se.constant(0, 4)).coeffs[0] == 1
    # exp(lam z) has coefficients lam^k / k!
    expz = Series(tuple(1 / math.factorial(k) for k in range(6)))
    lam = 0.3 + 0.4j
    got = se.compose(expz, lam * se.identity(5))
    for k in range(6):
        assert abs(got.coeffs[k] - lam**k / math.factorial(k)) < TOL


def test_compose_rejects_inner_constant():
    with pytest.raises(se.NonzeroInnerConstant):
        se.compose(se.identity(3), se.constant(1, 3))


def test_exp_examples():
    assert se.exp_series(se.constant(0, 3)).coeffs == (1, 0, 0, 0)
    e = se.exp_series(se.identity(3))
    assert_close(e, Series((1, 1, 0.5, 1 / 6)))
    e2 = se.exp_series(Series((0, 2j, -2, 0)))
    assert abs(e2.coeffs[1] - 2j) < TOL
    assert abs(e2.coeffs[2] - (-4)) < TOL


def test_exp_rejects_nonzero_constant():
    with pytest.raises(se.NonzeroConstant):
        se.exp_series(se.constant(1, 3))


def test_integrate_div_t():
    assert se.integrate_div_t(se.identity(3)).coeffs == (0, 1, 0, 0)
    assert se.integrate_div_t(se.constant(0, 2)).coeffs == (0, 0, 0)
    got = se.integrate_div_t(Series((0, 2j, -4, 0)))
    assert got.coeffs == (0, 2j, -2, 0)
    with pytest.raises(se.NonzeroConstant):
        se.integrate_div_t(se.constant(1, 2))


def test_derivative():
    assert se.derivative(Series((0, 0, 1))).coeffs == (0, 2)
    assert se.derivative(se.constant(5, 0)).coeffs == (0,)
    assert se.derivative(Series((0, 1, 2, 3))).coeffs == (1, 4, 9)


def test_mul_commutative_associative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b, c = (rand_series(rng, 16) for _ in range(3))
        assert_close(se.mul(a, b), se.mul(b, a))
        assert_close(se.mul(se.mul(a, b), c), se.mul(a, se.mul(b, c)))


def test_div_roundtrip():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a, b = rand_series(rng, 12), rand_series(rng, 12)
        b = b + 1  # keep b(0) well away from 0
        assert_close(se.div(se.mul(a, b), b), a, tol=1e-12)


def test_exp_additivity():
    rng = np.random.default_rng(13)
    for _ in range(30):
        a = rand_series(rng, 10)
        b = rand_series(rng, 10)
        a = Series((0,) + a.coeffs[1:])
        b = Series((0,) + b.coeffs[1:])
        assert_close(
            se.exp_series(se.add(a, b)),
            se.mul(se.exp_series(a), se.exp_series(b)),
            tol=1e-10,
        )


def test_integrate_derivative_roundtrip():
    rng = np.random.default_rng(14)
    for _ in range(30):
        a = rand_series(rng, 10)
        a = Series((0,) + a.coeffs[1:])
        back = se.shift_mul_z(se.derivative(se.integrate_div_t(a)))
        assert_close(back, a.truncate(back.order))


def test_compose_identity_is_noop():
    rng = np.random.default_rng(15)
    for _ in range(20):
        a = rand_series(rng, 10)
        assert_close(se.compose(a, se.identity(10)), a)


def test_result_order_is_min_of_operands():
    a, b = se.constant(1, 8), se.constant(1, 5)
    assert se.add(a, b).order == 5
    assert se.mul(a, b).order == 5
    assert se.div(a, b).order == 5


@pytest.mark.parametrize("order", [3, 16])
def test_kernels_match_series_row_by_row(order):
    rng = np.random.default_rng(16)
    outer = [rand_series(rng, order) for _ in range(6)]
    # inner rows vanish at 0; the last word's leading power exceeds the order
    words = (SchwarzWord(1j, (0.3,), 1), SchwarzWord(-1.0, (0.5j, -0.2), 2),
             SchwarzWord(1.0, (), order + 1))
    inner = [Series((0,) + s.coeffs[1:]) for s in outer[:3]]
    inner += [omega_series(w, order) for w in words]
    a = np.array([s.coeffs for s in outer])
    b = np.array([s.coeffs for s in inner])

    def rows_equal(got, want):
        want = np.array([s.coeffs for s in want])
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=TOL, atol=TOL)

    rows = range(len(outer))
    rows_equal(se.mul_coeffs(a, b), [se.mul(outer[i], inner[i]) for i in rows])
    rows_equal(se.div_coeffs(b, a), [se.div(inner[i], outer[i]) for i in rows])
    rows_equal(se.compose_coeffs(a, b), [se.compose(outer[i], inner[i]) for i in rows])
    rows_equal(se.compose_coeffs(a[0], b), [se.compose(outer[0], s) for s in inner])
    rows_equal(se.integrate_div_t_coeffs(b), [se.integrate_div_t(s) for s in inner])
    rows_equal(se.exp_coeffs(b), [se.exp_series(s) for s in inner])
    rows_equal(se.shift_mul_z_coeffs(a), [se.shift_mul_z(s) for s in outer])
    assert not se.compose_coeffs(a, b)[-1, 1:].any()  # omega = O(z^(order+1))


def test_kernels_check_every_row():
    ok = np.array([[0, 1, 0, 0], [0, 2, 1, 0]], dtype=complex)
    bad = ok.copy()
    bad[1, 0] = 1.0
    with pytest.raises(se.NonzeroInnerConstant):
        se.compose_coeffs(ok, bad)
    with pytest.raises(se.NonzeroConstant):
        se.exp_coeffs(bad)
    with pytest.raises(se.NonzeroConstant):
        se.integrate_div_t_coeffs(bad)
    with pytest.raises(se.ZeroConstantTerm):
        se.div_coeffs(ok, bad)
