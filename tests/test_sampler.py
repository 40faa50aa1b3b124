import math

import numpy as np
import pytest

import toeplitz_lab as tl
from toeplitz_lab import sampler as sp
from toeplitz_lab import series as se
from toeplitz_lab.cli import main

TOL = 1e-12

HP = tl.halfplane()


def zgd_over_g(g):
    """z g'(z)/g(z) for a normalized series, via g' / (g/z)."""
    return se.div(se.derivative(g), tl.Series(g.coeffs[1:]))


def test_omega_series_examples():
    assert tl.omega_series(tl.SchwarzWord(1.0), 4).coeffs == (0, 1, 0, 0, 0)
    assert tl.omega_series(tl.SchwarzWord(1j), 4).coeffs == (0, 1j, 0, 0, 0)
    om = tl.omega_series(tl.SchwarzWord(1.0, (0.5,)), 4)
    # z (z + 1/2)/(1 + z/2) = z/2 + 3z^2/4 - 3z^3/8 + ...
    assert abs(om.coeffs[1] - 0.5) < TOL
    assert abs(om.coeffs[2] - 0.75) < TOL
    assert abs(om.coeffs[3] + 0.375) < TOL


def test_schwarz_word_validation():
    with pytest.raises(ValueError):
        tl.SchwarzWord(2.0)
    with pytest.raises(ValueError):
        tl.SchwarzWord(1.0, (1.5,))
    with pytest.raises(ValueError):
        tl.SchwarzWord(1.0, (), 0)


def test_g_from_schwarz_koebe():
    g = tl.g_from_schwarz(HP, tl.SchwarzWord(1.0), 8)
    for k in range(1, 9):
        assert abs(g.coeffs[k] - k) < 1e-12


def test_g_from_schwarz_squared_word():
    # omega(z) = z^2 gives b2 = 0, b3 = d1/2
    for phi in (HP, tl.alpha(0.4), tl.power(0.6)):
        g = tl.g_from_schwarz(phi, tl.SchwarzWord(1.0, (), 2), 8)
        j = tl.coeff_jet(g)
        assert abs(j.b2) < TOL
        assert abs(j.b3 - tl.jet2(phi).d1 / 2) < TOL


def test_g_from_schwarz_rotation_i_is_extremal():
    for phi in (HP, tl.power(0.5), tl.janowski(0.8, -0.6)):
        g = tl.g_from_schwarz(phi, tl.SchwarzWord(1j), 12)
        e = tl.extremal_g(phi, 12)
        for a, b in zip(g.coeffs, e.coeffs):
            assert abs(a - b) < 1e-12


def test_sample_words_deterministic():
    a = tl.sample_words(50, seed=5)
    b = tl.sample_words(50, seed=5)
    assert a == b
    assert tl.sample_words(0, seed=5) == []


def test_sampled_g_passes_subordination():
    words = tl.sample_words(15, seed=9, max_factors=1)
    for w in words:
        tame = sp.SchwarzWord(w.rotation, tuple(0.5 * a for a in w.factors),
                              w.leading_power)
        g = tl.g_from_schwarz(HP, tame, 64)
        assert tl.subordination_check(zgd_over_g(g), HP, 32)


def test_sampled_jets_stay_in_schwarz_pick_body():
    for w in tl.sample_words(200, seed=10, max_factors=3):
        p = sp.schwarz_jet(w)  # raises if outside the body
        assert abs(p.w2) <= 1 - abs(p.w1) ** 2 + 1e-12


def test_oracle_sup_examples():
    assert abs(tl.oracle_sup(HP, "t22", grid=200).value - 13.0) <= 1e-3
    assert abs(tl.oracle_sup(HP, "t31", grid=200).value - 24.0) <= 1e-3
    assert abs(tl.oracle_sup(tl.alpha(0.5), "t22", grid=200).value - 2.0) <= 1e-3
    assert abs(tl.oracle_sup(HP, ("fs", 1.0), grid=200).value - 1.0) <= 1e-3


def test_oracle_never_exceeds_bound():
    for phi in (HP, tl.alpha(0.3), tl.power(0.5), tl.janowski(0.8, -0.6)):
        for target in ("t22", "t31"):
            got = tl.oracle_sup(phi, target, grid=64).value
            assert got <= sp.target_bound(phi, target) + 1e-9


def test_oracle_monotone_on_nested_grids():
    jet = tl.jet2(HP)
    r_coarse = np.linspace(0, 1, 17)
    t_coarse = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    r_fine = np.linspace(0, 1, 33)  # contains every coarse radius
    t_fine = np.linspace(0, 2 * math.pi, 32, endpoint=False)
    for target in ("t22", "t31", ("fs", 0.25)):
        lo, _ = sp._scan(jet, target, r_coarse, t_coarse, t_coarse)
        hi, _ = sp._scan(jet, target, r_fine, t_fine, t_fine)
        assert hi >= lo - 1e-15


def test_oracle_rejects_small_grid():
    with pytest.raises(ValueError):
        tl.oracle_sup(HP, "t22", grid=4)


def test_montecarlo_verify_basics():
    rep = tl.montecarlo_verify(HP, 500, seed=123, theorem="t22")
    assert rep.violations == []
    assert rep.max_observed <= rep.bound + 1e-6
    assert rep.samples == 500
    empty = tl.montecarlo_verify(HP, 0, seed=1, theorem="t31")
    assert empty.max_observed == 0.0 and empty.margin_histogram == []


def test_montecarlo_refuses_failed_condition():
    with pytest.raises(ValueError):
        tl.montecarlo_verify(tl.power(0.2), 10, seed=1, theorem="t31")


def test_montecarlo_below_oracle():
    oracle = tl.oracle_sup(HP, "t22", grid=64).value
    rep = tl.montecarlo_verify(HP, 2000, seed=77, theorem="t22")
    assert rep.max_observed <= oracle + 1e-9


def test_report_json_roundtrip():
    rep = tl.montecarlo_verify(tl.power(0.5), 200, seed=3, theorem="t31")
    d = rep.to_json_dict()
    assert d["family"] == "power(0.5)"
    assert d["theorem"] == "t31"
    assert sum(h["count"] for h in d["margin_histogram"]) <= 200


ACCEPTANCE_FAMILIES = (HP, tl.alpha(0.3), tl.alpha(0.5), tl.power(0.5), tl.power(0.9),
                       tl.janowski(0.8, -0.6))


@pytest.mark.parametrize("order", [3, 16])
def test_batched_members_replay_through_scalar_build(monkeypatch, order):
    count, seed = 40, 21
    words = tl.sample_words(count, seed)
    monkeypatch.setattr(sp, "BLOCK", 7)  # several blocks and a short last one
    assert tl.sample_words(count, seed) == words
    for phi in ACCEPTANCE_FAMILIES:
        phi_coeffs = np.asarray(tl.phi_series(phi, order).coeffs)
        batched = np.concatenate([sp._class_member_coeffs(phi_coeffs, b, order)
                                  for b in sp._word_blocks(count, seed, 2)])
        assert batched.shape == (count, order + 1)
        values = []
        for w, g in zip(words, batched):
            j = tl.coeff_jet(tl.g_from_schwarz(phi, w, order))
            assert abs(j.b2 - g[2]) <= 1e-13 and abs(j.b3 - g[3]) <= 1e-13
            values.append(abs(tl.det_t22(j)))
        if tl.condition_t22(phi):
            rep = tl.montecarlo_verify(phi, count, seed, theorem="t22")
            assert abs(rep.max_observed - max(values)) <= 1e-12


def test_sample_words_prefix_and_distribution():
    words = tl.sample_words(3000, seed=8)
    assert tl.sample_words(10, seed=8) == words[:10]
    assert {len(w.factors) for w in words} == {0, 1, 2}
    assert {w.leading_power for w in words} == {1, 2, 3}
    radii = np.array([abs(a) for w in words for a in w.factors])
    assert radii.max() < 1 and abs(np.mean(radii**2) - 0.5) < 0.03  # area-uniform


def test_violation_replays_from_its_word(monkeypatch, capsys):
    monkeypatch.setattr(sp, "t22_bound", lambda jet: 0.0)
    with pytest.raises(tl.BoundViolated) as info:
        tl.montecarlo_verify(HP, 300, seed=4, theorem="t22")
    v = info.value.word
    w = tl.SchwarzWord(complex(*v["rotation"]), tuple(complex(*a) for a in v["factors"]),
                       v["leading_power"])
    got = abs(tl.det_t22(tl.coeff_jet(tl.g_from_schwarz(HP, w))))
    assert abs(got - v["value"]) <= 1e-12
    assert main(["verify", "--family", "starlike", "--samples", "50"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert sum(line.startswith("violation:") for line in err) == 1


def reference_scan(jet, target, r1, th1, th2):
    """The full lattice scan: every w1 point at every w2 phase, in k order."""
    w1 = r1[:, None] * np.exp(1j * th1)[None, :]
    rad2 = (1 - r1**2)[:, None]
    best = -1.0
    arg = (0, 0, 0)
    phase2 = np.exp(1j * th2)
    for k, p2 in enumerate(phase2):
        vals = sp._target_values(target, jet, w1, rad2 * p2)
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[i, j] > best:
            best = float(vals[i, j])
            arg = (i, j, k)
    return best, arg


def assert_scan_equals_reference(jet, target, r1, th1, th2):
    value, (i, j, k) = sp._scan(jet, target, r1, th1, th2)
    ref, (ri, rj, rk) = reference_scan(jet, target, r1, th1, th2)
    assert value == ref, (target, value, ref)
    assert (i, j, k) == (ri, rj, rk), (target, (i, j, k), (ri, rj, rk))


def full_lattice(grid):
    r1 = np.linspace(0.0, 1.0, grid)
    th = np.linspace(0.0, 2 * math.pi, grid, endpoint=False)
    return r1, th, th


SCAN_FAMILIES = ACCEPTANCE_FAMILIES + (tl.power(0.2), tl.alpha(0.9), tl.janowski(1, -1))
SCAN_TARGETS = ("t22", "t31", ("fs", 0.0), ("fs", 0.5), ("fs", 2.0), ("fs", 0.3 + 0.4j))


@pytest.mark.parametrize("grid", [8, 17, 64])
def test_pruned_scan_equals_full_scan(grid):
    for phi in SCAN_FAMILIES:
        for target in SCAN_TARGETS:
            assert_scan_equals_reference(tl.jet2(phi), target, *full_lattice(grid))


def test_pruned_scan_equals_full_scan_on_refinement_lattice(monkeypatch):
    # the refinement pass around w1 = i clips half its radii to r = 1
    monkeypatch.setattr(sp, "_CHUNK", 50)  # several blocks in both passes
    grid = 17
    r1, th, _ = full_lattice(grid)
    dr, dt = r1[1], th[1]
    fr1 = np.clip(np.linspace(1 - dr, 1 + dr, grid), 0.0, 1.0)
    assert (fr1 == 1.0).sum() > 1
    fth1 = np.linspace(math.pi / 2 - dt, math.pi / 2 + dt, grid)
    fth2 = np.linspace(-dt, dt, grid)
    for phi in SCAN_FAMILIES:
        for target in SCAN_TARGETS:
            assert_scan_equals_reference(tl.jet2(phi), target, fr1, fth1, fth2)


def test_flat_maximum_keeps_every_point(monkeypatch):
    # |b3 - b2^2/2| = |w2 + w1^2| on starlike reaches 1 at every w1
    evaluated = []
    values = sp._target_values

    def counting(target, jet, w1, w2):
        evaluated.extend(np.ravel(w1))
        return values(target, jet, w1, w2)

    jet, target, lattice = tl.jet2(HP), ("fs", 0.5), full_lattice(17)
    monkeypatch.setattr(sp, "_target_values", counting)
    got = sp._scan(jet, target, *lattice)
    monkeypatch.undo()
    assert got == reference_scan(jet, target, *lattice)
    r1, th1, _ = lattice
    points = r1[:, None] * np.exp(1j * th1)[None, :]
    assert set(points.ravel()) <= set(evaluated)


def scan_work(monkeypatch, jet, target, lattice):
    """`_scan` on the lattice, with the w1 points it bounded and evaluated."""
    work = {"bounded": [], "evaluated": []}
    bound, values = sp._bound, sp._target_values

    def counting_bound(target, jet, w1, rad2):
        work["bounded"].extend(np.ravel(w1))
        return bound(target, jet, w1, rad2)

    def counting_values(target, jet, w1, w2):
        work["evaluated"].extend(np.ravel(w1))
        return values(target, jet, w1, w2)

    with monkeypatch.context() as m:
        m.setattr(sp, "_bound", counting_bound)
        m.setattr(sp, "_target_values", counting_values)
        got = sp._scan(jet, target, *lattice)
    return got, work


def test_repeated_interior_radii_are_scanned_once(monkeypatch):
    # rows 5..14 repeat rows 0..4 inside the disk, away from the clip at
    # r = 1: the witness is the first equal row, and the repeats cost nothing
    monkeypatch.setattr(sp, "_CHUNK", 50)  # several blocks in both passes
    radii = np.array([0.9, 0.5, 0.1, 0.7, 0.3])
    th = full_lattice(17)[1]
    for phi in SCAN_FAMILIES:
        jet = tl.jet2(phi)
        for target in SCAN_TARGETS:
            assert_scan_equals_reference(jet, target, np.tile(radii, 3), th, th)
            _, tiled = scan_work(monkeypatch, jet, target, (np.tile(radii, 3), th, th))
            _, distinct = scan_work(monkeypatch, jet, target, (radii, th, th))
            assert tiled == distinct, (phi, target)


@pytest.mark.parametrize("phi, target, top", [
    (tl.power(0.2), ("fs", 0.0), 1.0),  # |b3| peaks at w1 = 0
    (HP, "t22", 0.9),  # radii up to 0.9 put the peak on r = 0.9
    (tl.janowski(1, -1), "t31", 0.9),
], ids=["power-fs0-at-0", "starlike-t22-at-0.9", "janowski-t31-at-0.9"])
def test_cap_keeps_the_interior_radius_of_the_maximum(monkeypatch, phi, target, top):
    r1, th, _ = full_lattice(17)
    lattice = (top * r1, th, th)
    jet = tl.jet2(phi)
    (value, (i, j, k)), work = scan_work(monkeypatch, jet, target, lattice)
    assert (value, (i, j, k)) == reference_scan(jet, target, *lattice)
    assert lattice[0][i] < 1
    # the cap dropped radii, so the interior one was kept by the cap test
    assert len({round(abs(w), 9) for w in work["bounded"]}) < len(r1)


def test_cap_bounds_every_phase_of_its_radius():
    # exactly M(r) >= U(r e^{i th}); the floats differ only by rounding,
    # which `_SLACK` allows for with a far wider margin
    r1, th, _ = full_lattice(17)
    rad2 = 1 - r1**2
    w1 = r1[:, None] * np.exp(1j * th)
    for phi in SCAN_FAMILIES:
        jet = tl.jet2(phi)
        for target in SCAN_TARGETS:
            cap = sp._cap(target, jet, r1, rad2)[:, None]
            bound = sp._bound(target, jet, w1, rad2[:, None])
            assert (bound <= cap * (1 + 10 * np.finfo(float).eps)).all(), (phi, target)


@pytest.mark.parametrize("phi", ACCEPTANCE_FAMILIES, ids=lambda p: p.label())
def test_both_theorems_in_one_pass_match_single_calls(phi):
    count, seed = 2500, 31  # three blocks, the last one short
    both = tl.montecarlo_verify(phi, count, seed, theorem=("t22", "t31"))
    assert list(both) == ["t22", "t31"]
    for t, rep in both.items():
        single = tl.montecarlo_verify(phi, count, seed, theorem=t)
        assert rep.to_json_dict() == single.to_json_dict()


def test_both_theorems_build_each_block_once(monkeypatch):
    calls = []
    build = sp._class_member_coeffs

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(sp, "_class_member_coeffs", counted)
    tl.montecarlo_verify(HP, 2 * sp.BLOCK + 5, 3, theorem=("t22", "t31"))
    assert len(calls) == 3
    calls.clear()
    assert main(["verify", "--family", "starlike", "--samples", "100", "--theorem", "both"]) == 0
    assert len(calls) == 1


def test_both_theorems_report_the_t22_violation_first(monkeypatch, capsys):
    monkeypatch.setattr(sp, "t22_bound", lambda jet: 0.0)
    monkeypatch.setattr(sp, "t31_bound", lambda jet: 0.0)
    with pytest.raises(tl.BoundViolated, match="^halfplane t22: observed"):
        tl.montecarlo_verify(HP, 300, seed=4, theorem=("t22", "t31"))
    with pytest.raises(tl.BoundViolated, match="^halfplane t31: observed"):
        tl.montecarlo_verify(HP, 300, seed=4, theorem=("t31", "t22"))
    assert main(["verify", "--family", "starlike", "--samples", "50"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("violation: halfplane t22: observed")
    assert captured.err.count("\n") == 1
