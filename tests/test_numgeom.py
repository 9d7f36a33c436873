import json
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import (
    condition2_closures,
    fraction_circle_angles,
    fraction_phi_hat_grid,
    gauss_triple,
    per_entry_parity_probe,
    per_loop_parity_probe,
    random_toeplitz_poly,
    random_decomposition_roundtrips,
    random_symbol_coeffs,
    scalar_draw_toeplitz_poly,
    symbol_coefficients,
    z2_smash_slot,
)
from pcomod import builtin, mutants
from pcomod.exprs import load_presentation
from pcomod.maps import NotWellDefinedError, gens_map
from pcomod.ncpoly import NCPoly
from pcomod.numgeom import (
    GridConfig,
    decomposition_report,
    delta_angle,
    disc_membership,
    equivariant_parity_probe,
    equivariant_parts,
    face_atlas,
    gauge_conjugation_report,
    mattprop_report,
    omega_hat,
    peter_weyl_report,
    phi_hat,
    phi_hat_grid,
    phi_identities_report,
    pi_n,
    pi_n_inverse,
    rp2_membership,
    splitting_identities_report,
    symbol,
    toeplitz_flip,
    winding_numbers,
)
from pcomod.numgeom import membership, probes
from pcomod.numgeom import circle
from pcomod.numgeom.circle import interval_fn, read_once
from pcomod.numgeom.grids import TOL, Z2, circle_angles, interval_nodes
from pcomod.numgeom.toeplitz import draw_symbols, fold_symbol_draws
from pcomod.scalars import S_ONE, GaussRat, Scalar
from pcomod.suites import symbol_relation_residual

CFG = GridConfig()


def test_phi_hat_values():
    assert phi_hat(1, np.pi / 4) == pytest.approx(1.0, abs=1e-15)
    assert phi_hat(1, np.pi) == -1.0
    assert phi_hat(2, np.pi / 2) == 1.0
    # linear sector value
    assert phi_hat(1, np.pi / 2) == pytest.approx(0.0, abs=1e-15)


def test_delta_values_match_square_corners():
    assert oracles.delta_map(1, 1, 1) == pytest.approx(np.exp(9j * np.pi / 4))
    assert oracles.delta_map(1, 1, -1) == pytest.approx(np.exp(7j * np.pi / 4))
    assert oracles.delta_map(1, -1, 1) == pytest.approx(np.exp(3j * np.pi / 4))
    assert oracles.delta_map(1, -1, -1) == pytest.approx(np.exp(5j * np.pi / 4))
    assert oracles.delta_map(2, 1, 1) == pytest.approx(np.exp(1j * np.pi / 4))
    # Z2-equivariance: delta(-k, -t) = -delta(k, t)
    k = np.array([1.0, -1.0])[:, None]
    t = np.linspace(-1, 1, 33)[None, :]
    for i in (1, 2):
        assert np.max(np.abs(oracles.delta_map(i, -k, -t) + oracles.delta_map(i, k, t))) < 1e-14


def test_grid_oddness_bit_exact():
    for i in (1, 2):
        v = phi_hat_grid(i, CFG.n_circle)
        assert np.max(np.abs(v + np.roll(v, -(CFG.n_circle // 2)))) == 0.0


@pytest.mark.parametrize("n", [8, 16, 24, 64, 720, 7200, 14400])
def test_grid_tables_match_fraction_loops(n):
    assert circle_angles(n).tobytes() == fraction_circle_angles(n).tobytes()
    for i in (1, 2):
        assert phi_hat_grid(i, n).tobytes() == fraction_phi_hat_grid(i, n).tobytes()


def test_chart_and_splitting_reports():
    rep = phi_identities_report(CFG)
    assert max(rep.values()) < 1e-12
    rep = splitting_identities_report(CFG, 8)
    assert max(rep.values()) < 1e-9


def test_gauge_report():
    rep = gauge_conjugation_report(CFG, 60)
    assert rep["involution"] == 0.0
    assert rep["phi_closed_form"] == 0.0
    assert rep["sigma_conj"] < 1e-12


def test_gauge_involution_rejects_a_point_map_that_is_not_one(monkeypatch):
    """(a, t, c) -> (ac, ct, -c) applied twice gives (-a, -t, c): the exact
    involution check reads the point map, so it reports the difference 2."""
    monkeypatch.setattr(circle, "gauge_pullback", lambda F: lambda a, t, c: F(a * c, c * t, -c))
    rep = gauge_conjugation_report(CFG, 60)
    assert rep["involution"] == 2.0


def test_memberships():
    ts = builtin.toeplitz_system()
    al = ts.alphabet
    one, zero, s = NCPoly.one(al), NCPoly.zero(al), NCPoly.gen(al, "s")
    ok, r = rp2_membership([one, one, one], CFG)
    assert ok and r == 0.0
    ok, r = rp2_membership([s, zero, zero], CFG)
    assert not ok and r == pytest.approx(1.0, abs=1e-12)
    ok, _ = disc_membership([one, one, one], CFG)
    assert ok
    sm = builtin.toeplitz_z2_smash().system
    atlas = face_atlas([sm.one()] * 3, CFG)
    assert atlas["pass"] and atlas["max_residual"] == 0.0
    atlas = face_atlas([NCPoly.gen(sm.alphabet, "u")] * 3, CFG)
    assert not atlas["pass"] and atlas["max_residual"] == pytest.approx(2.0, abs=1e-12)


def test_face_atlas_localizes_corruption():
    one = builtin.toeplitz_z2_smash().system.one()
    good = face_atlas([one] * 3, CFG)
    assert good["pass"] and len(good["edges"]) == 12
    bad = face_atlas([one, -one, one], CFG)
    assert not bad["pass"]
    broken = [k for k, v in bad["edges"].items() if v > TOL]
    assert broken and all(k[0] in ("01", "12") for k in broken)


@pytest.mark.parametrize("grid", [(720, 257), (64, 33)])
def test_gluing_table_matches_per_check_oracles(grid):
    """Every membership check read from membership.GLUINGS gives the floats,
    and face_atlas the edge dict in order, of the per-check copies in
    tests/oracles.py, on 200 random degree-<=3 tuples and sphere elements.
    Every fifth case repeats one random constant in every slot, a member,
    so residuals of exactly 0 are compared too."""
    cfg = GridConfig(n_circle=grid[0], m_interval=grid[1])
    rng = cfg.rng(61)
    zero = NCPoly.zero(builtin.toeplitz_system().alphabet)
    for trial in range(200):
        if trial % 5 == 0:
            tup = [random_toeplitz_poly(rng, 0)] * 3
            elt = [z2_smash_slot(tup[0], zero)] * 3
        else:
            tup = [random_toeplitz_poly(rng, 3) for _ in range(3)]
            elt = [z2_smash_slot(random_toeplitz_poly(rng, 3), random_toeplitz_poly(rng, 3)) for _ in range(3)]
        assert rp2_membership(tup, cfg) == oracles.rp2_membership(tup, cfg)
        assert disc_membership(tup, cfg) == oracles.disc_membership(tup, cfg)
        got, want = face_atlas(elt, cfg), oracles.face_atlas(elt, cfg)
        assert (got["pass"], got["max_residual"]) == oracles.sphere_membership(elt, cfg)
        assert list(got["edges"].items()) == list(want["edges"].items())
        assert got == want


def _exact_symbol_map():
    """The exact symbol: the algebra map s -> u, ss -> ui into O(U(1)),
    certified on the Toeplitz relation."""
    U = builtin.o_u1().system
    gens = {"s": NCPoly.gen(U.alphabet, "u"), "ss": NCPoly.gen(U.alphabet, "ui")}
    return gens_map("symbol", builtin.toeplitz_system(), U, gens), U


def test_symbol_exactness_and_flip():
    ts = builtin.toeplitz_system()
    S, U = _exact_symbol_map()
    rng = CFG.rng(41)
    for _ in range(40):
        p = random_toeplitz_poly(rng, 3)
        r = random_toeplitz_poly(rng, 3)
        assert S.apply(ts.mul(p, r)) == U.mul(S.apply(p), S.apply(r))
        assert S.apply(ts.star(p)) == U.star(S.apply(p))


def test_float_symbol_is_the_exact_symbol_read_by_degree():
    """symbol(p).coeffs is the image of p in O(U(1)) with u^k read as degree
    k and ui^k as -k, in the same order."""
    S, _ = _exact_symbol_map()
    rng = CFG.rng(43)
    for max_deg in (0, 1, 2, 3, 4):
        for _ in range(40):
            p = random_toeplitz_poly(rng, max_deg)
            exact = [
                (sum(1 if g == "u" else -1 for g in w), c.to_complex()) for w, c in S.apply(p).terms.items()
            ]
            assert list(symbol(p).coeffs.items()) == exact
            assert all(type(c) is complex for c in symbol(p).coeffs.values())


def test_decomposition_roundtrips_and_split():
    rep = decomposition_report()
    assert rep["pass"] and rep["cases"] == 10 * 3 * 4
    al = builtin.toeplitz_z2_smash().system.alphabet
    s = NCPoly.gen(al, "s")
    elt = NCPoly.one(al) + s + NCPoly.word(al, ("s", "u"))
    plus, minus = equivariant_parts(elt)
    assert (plus + minus - elt).is_zero()
    # eigenparts really are eigenvectors
    assert (toeplitz_flip(plus) - plus).is_zero()
    assert (toeplitz_flip(minus) + minus).is_zero()


ROUNDTRIP_KEYS = ("forward_roundtrip", "backward_roundtrip", "eigenspace", "pass")


@pytest.mark.parametrize("seed", [20130915, 1, 7])
def test_decomposition_certificate_agrees_with_sampling(seed):
    cert = decomposition_report()
    sampled = random_decomposition_roundtrips(GridConfig(seed=seed), n_random=200)
    assert {k: cert[k] for k in ROUNDTRIP_KEYS} == {k: sampled[k] for k in ROUNDTRIP_KEYS}
    assert cert["pass"]


def _third_for_half(pi_inv):
    """pi_n_inverse with the indicator factor 1/2 replaced by 1/3."""
    two_thirds = Scalar.of(Fraction(2, 3))
    return lambda p, n, sign: pi_inv(p, n, sign).scale(two_thirds)


def _odd_words_sign_swapped(pi_inv):
    """pi_n_inverse with the opposite sign on odd-length words."""

    def mutant(p, n, sign):
        even = NCPoly(p.alphabet, {w: c for w, c in p.terms.items() if len(w) % 2 == 0})
        return pi_inv(even, n, sign) + pi_inv(p - even, n, -sign)

    return mutant


@pytest.mark.parametrize(
    "mutate, broken",
    [(_third_for_half, "forward_roundtrip"), (_odd_words_sign_swapped, "eigenspace")],
)
def test_decomposition_mutants_rejected(monkeypatch, mutate, broken):
    monkeypatch.setattr(membership, "pi_n_inverse", mutate(membership.pi_n_inverse))
    cert = decomposition_report()
    sampled = random_decomposition_roundtrips(CFG, n_random=40)
    for rep in (cert, sampled):
        assert not rep["pass"] and rep[broken] > TOL


def _coefficients_dropped(pi_inv):
    """pi_n_inverse that reads which words its inputs hold but not their
    coefficients: right on the unit word triples of the forward check, wrong
    on the -w that pi_n gives for some eigenvectors w (x) 1 and w (x) u."""
    return lambda p, n, sign: pi_inv(NCPoly(p.alphabet, dict.fromkeys(p.terms, S_ONE)), n, sign)


def test_decomposition_backward_roundtrip_is_an_independent_claim(monkeypatch):
    monkeypatch.setattr(membership, "pi_n_inverse", _coefficients_dropped(membership.pi_n_inverse))
    cert = decomposition_report()
    assert not cert["pass"]
    assert cert["forward_roundtrip"] == 0.0 and cert["eigenspace"] == 0.0
    assert cert["backward_roundtrip"] > TOL
    assert not random_decomposition_roundtrips(CFG, n_random=8)["pass"]


@pytest.mark.parametrize(
    "mutate", [None, _third_for_half, _odd_words_sign_swapped, _coefficients_dropped],
    ids=["real-maps", "third-for-half", "odd-words-sign-swapped", "coefficients-dropped"],
)
def test_decomposition_certificate_matches_three_slot_loop(monkeypatch, mutate):
    """One slot stands for three: the certificate's dict equals the loop's
    that runs every case on [word] * 3, on the real maps and under each
    pi_n_inverse mutant."""
    if mutate is not None:
        monkeypatch.setattr(membership, "pi_n_inverse", mutate(membership.pi_n_inverse))
    cert = decomposition_report()
    assert cert == oracles.decomposition_three_slot_loop()
    assert cert["pass"] is (mutate is None)


def _state_after(residual, states):
    """residual, recording the generator state it leaves behind."""

    def run(rng, n_random):
        out = residual(rng, n_random)
        states.append(rng.bit_generator.state)
        return out

    return run


@pytest.mark.parametrize("seed", [20130915, 1, 31])
def test_mattprop_condition2_matches_closures(monkeypatch, seed):
    cfg = GridConfig(seed=seed)
    for n_random in (0, 1, 100, 1000):
        states = []
        with monkeypatch.context() as m:
            m.setattr(probes, "_condition2_residual", _state_after(probes._condition2_residual, states))
            fast = mattprop_report(cfg, n_random)
        with monkeypatch.context() as m:
            m.setattr(probes, "_condition2_residual", _state_after(condition2_closures, states))
            slow = mattprop_report(cfg, n_random)
        assert fast["condition2_residual"] == slow["condition2_residual"]
        assert fast == slow
        assert states[0] == states[1]


def _integers_then_normals(rng, n_random):
    """The per-trial draws that probes._condition2_draws reads from raw
    words: rng.integers(-3, 4, size=20), then rng.normal(size=2)."""
    ints, g = np.empty((n_random, 20), dtype=np.int64), np.empty((n_random, 2))
    for t in range(n_random):
        ints[t] = rng.integers(-3, 4, size=20)
        g[t] = rng.normal(size=2)
    return ints, g


@pytest.mark.parametrize("buffered_half", [False, True])
def test_condition2_draws_match_integers_calls(buffered_half):
    """The raw-word reader against Generator.integers, with and without a
    32-bit half buffered at entry (an odd integers draw leaves one): the
    same integers, the same normals and the same generator state, the
    buffered half included."""
    for seed in range(200):
        for n_random in (0, 1, 2, 1000):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            if buffered_half:
                fast.integers(-3, 4, size=3)
                slow.integers(-3, 4, size=3)
            assert fast.bit_generator.state["has_uint32"] == buffered_half
            ints, g = probes._condition2_draws(fast, n_random)
            want_ints, want_g = _integers_then_normals(slow, n_random)
            assert np.array_equal(ints, want_ints), (seed, n_random)
            assert g.reshape(-1, 2).tobytes() == want_g.tobytes(), (seed, n_random)
            assert fast.bit_generator.state == slow.bit_generator.state, (seed, n_random)


def test_integers_from_words_declines_a_half_numpy_may_reject():
    """numpy redraws a half u whose product 7 u has a low word below
    (2**32 - 7) % 7 = 4; the reader declines every u with a low word below 7,
    the one u = ceil(k 2**32 / 7) for each k = 0..6, at any position, the
    buffered half included, and reads u + 1 (low word 7 more)."""
    rejected = [-(-k * 2**32 // 7) for k in range(7)]
    assert sorted(7 * u % 2**32 for u in rejected) == list(range(7))
    words = np.random.default_rng(3).bit_generator.random_raw((3, 10))

    def read(half, u, has_uint32=0, uinteger=0):
        ints = np.empty((3, 20), dtype=np.int64)
        ints.view("<u8")[:, 10:] = words
        if half is not None:
            ints.view("<u4")[half // 20, 20 + half % 20] = u
        return probes.integers_from_words(ints, has_uint32, uinteger)

    for u in rejected:
        for half in (0, 1, 19, 20, 33, 59):
            assert read(half, u) is None, (u, half)
            assert read(half, u + 1) is not None, (u, half)
        assert read(None, None, 1, u) is None
        assert read(None, None, 1, u + 1) is not None


@pytest.mark.parametrize("seed", [20130915, 1, 31])
def test_condition2_replays_the_integers_calls_where_the_reader_declines(monkeypatch, seed):
    """With the reader declining every draw, condition (2) draws again from
    the entry state: the report and the generator state are still the
    closures'."""
    declined = []
    monkeypatch.setattr(probes, "integers_from_words", lambda *args: declined.append(args[0].shape))
    cfg = GridConfig(seed=seed)
    for n_random in (0, 1, 100):
        states = []
        with monkeypatch.context() as m:
            m.setattr(probes, "_condition2_residual", _state_after(probes._condition2_residual, states))
            fast = mattprop_report(cfg, n_random)
        with monkeypatch.context() as m:
            m.setattr(probes, "_condition2_residual", _state_after(condition2_closures, states))
            slow = mattprop_report(cfg, n_random)
        assert fast == slow and states[0] == states[1], n_random
        assert declined.pop() == (n_random, 20)


class RecordingGrid(GridConfig):
    """A GridConfig that keeps every generator it hands out, so that a test
    can read the state a report leaves them in."""

    def rng(self, salt: int = 0):
        gen = super().rng(salt)
        self.__dict__.setdefault("handed", []).append(gen)
        return gen


def _report_and_states(report, cfg, *args):
    grid = RecordingGrid(cfg.n_circle, cfg.m_interval, cfg.seed)
    out = report(grid, *args)
    return out, [gen.bit_generator.state for gen in grid.handed]


SAMPLED_GRIDS = [(720, 257), (8, 2), (64, 33), (1440, 129)]


@pytest.mark.parametrize("m", [2, 33, 257])
def test_interval_fn_matches_np_interp_row_by_row(m):
    rng = np.random.default_rng(m)
    nodes = interval_nodes(m)
    t = np.concatenate([rng.uniform(-1.5, 1.5, size=300), nodes, [-1.0, 1.0, -3.0, 3.0, -0.0, 0.0]])
    rows = rng.normal(size=(5, m)) + 1j * rng.normal(size=(5, m))
    for samples in (rows.real, rows):
        for query in (t, t[: t.size // 2 * 2].reshape(-1, 2), t[-1]):
            got = interval_fn(samples, nodes)(query)
            assert got.shape == (5,) + np.shape(query)
            for row, sample_row in zip(got, samples):
                assert row.tobytes() == oracles.interp_fn(sample_row, nodes)(query).tobytes()


def test_interval_fn_at_a_zero_sample_differs_at_most_in_its_sign():
    nodes = interval_nodes(5)
    row = np.array([-0.0, 1.0, -0.0, -2.0, 0.0])
    t = np.concatenate([nodes, [-0.9, -0.3, 0.4]])
    got = interval_fn(row[None, :], nodes)(t)[0]
    want = oracles.interp_fn(row, nodes)(t)
    assert np.array_equal(got, want)
    assert got[5:].tobytes() == want[5:].tobytes()


@pytest.mark.parametrize("seed", [20130915, 1, 7])
@pytest.mark.parametrize("grid", SAMPLED_GRIDS)
def test_sampled_identity_blocks_match_trial_loops(grid, seed):
    """The block passes give the trial-at-a-time residuals bit for bit and
    leave the generator where the loops leave it, also when n_random is not
    a multiple of the block size."""
    cfg = GridConfig(n_circle=grid[0], m_interval=grid[1], seed=seed)
    for fast, slow in (
        (splitting_identities_report, oracles.splitting_identities_loop),
        (gauge_conjugation_report, oracles.gauge_conjugation_loop),
    ):
        for args in ((), (0,), (1,), (8,), (17,), (60,), (200,)):
            assert _report_and_states(fast, cfg, *args) == _report_and_states(slow, cfg, *args)


@pytest.mark.parametrize("seed", [20130915, 1, 7])
@pytest.mark.parametrize("grid", SAMPLED_GRIDS)
def test_mattprop_condition1_matches_trial_loop(monkeypatch, grid, seed):
    cfg = GridConfig(n_circle=grid[0], m_interval=grid[1], seed=seed)
    fast = _report_and_states(mattprop_report, cfg, 100)
    monkeypatch.setattr(probes, "_condition1_residuals", oracles.condition1_loop)
    assert fast == _report_and_states(mattprop_report, cfg, 100)


@pytest.mark.parametrize("seed", [20130915, 1, 7])
@pytest.mark.parametrize("grid", SAMPLED_GRIDS)
def test_mattprop_corner_matches_trial_loop(monkeypatch, grid, seed):
    """The corner identity from one block of symbols gives the residual of
    one random_toeplitz_poly at a time bit for bit, and condition (2) reads
    the generator from where each leaves it."""
    cfg = GridConfig(n_circle=grid[0], m_interval=grid[1], seed=seed)
    fast = _report_and_states(mattprop_report, cfg, 100)
    monkeypatch.setattr(probes, "_corner_residual", oracles.corner_identity_loop)
    assert fast == _report_and_states(mattprop_report, cfg, 100)


@pytest.mark.parametrize("seed", [20130915, 1, 7])
def test_symbol_blocks_match_per_trial_draws(seed):
    """toeplitz.draw_symbols against one exact random_toeplitz_poly and its
    symbol per trial: the same (k, coefficient) rows, padding aside, and the
    same generator state after; and the corner residual bit for bit."""
    for trials in (1, 5, 16, 41):
        fast, slow = GridConfig(seed=seed).rng(6), GridConfig(seed=seed).rng(6)
        ks, coeffs = draw_symbols(fast, trials)
        got = [list(zip(k.tolist(), c.tolist())) for k, c in zip(ks, coeffs)]
        assert got == [_padded(oracles.symbol_coefficients(slow, 3)) for _ in range(trials)]
        assert fast.bit_generator.state == slow.bit_generator.state
        fast, slow = GridConfig(seed=seed).rng(6), GridConfig(seed=seed).rng(6)
        assert probes._corner_residual(fast, trials) == oracles.corner_identity_loop(slow, trials)
        assert fast.bit_generator.state == slow.bit_generator.state


def test_symbol_certificate_agrees_with_random_products():
    ts = builtin.toeplitz_system()
    assert symbol_relation_residual(ts) == 0.0
    assert oracles.symbol_products_residual(ts, GridConfig().rng(7)) == 0.0


def test_symbol_certificate_rejects_a_mutant_relation():
    """ss*s -> 0 in place of ss*s -> 1: the symbol of ss*s is still 1."""
    mutant, _ = load_presentation({**builtin.PRESENTATIONS["toeplitz"], "relations": ["ss*s = 0"]})
    assert symbol_relation_residual(mutant) == 1.0
    assert oracles.symbol_products_residual(mutant, GridConfig().rng(7)) > 0.0


def test_symbol_map_rejects_a_mutant_generator_table():
    """s -> u, ss -> u sends ss*s to u^2, not 1: the relation check fails."""
    U = builtin.o_u1().system
    u = NCPoly.gen(U.alphabet, "u")
    with pytest.raises(NotWellDefinedError, match="ss\\*s"):
        gens_map("symbol", builtin.toeplitz_system(), U, {"s": u, "ss": u})


def test_winding_numbers_and_guards():
    th = circle_angles(720)
    assert winding_numbers(np.exp(1j * th)) == (1, True)
    assert winding_numbers(np.exp(3j * th)) == (3, True)
    assert winding_numbers(np.ones_like(th, dtype=complex)) == (0, True)
    # a 10x denser sampling gives the same winding (density oracle)
    th10 = circle_angles(7200)
    assert winding_numbers(np.exp(3j * th10)) == (3, True)
    # a zero sample (SINGULAR) and a phase step past the guard (DENSITY)
    singular, dense = np.exp(1j * th) - 1.0, np.exp(40j * circle_angles(64))
    assert winding_numbers(singular) == (0, False)
    assert winding_numbers(dense) == (0, False)
    with pytest.raises(oracles.WindingError, match="SINGULAR"):
        oracles.winding_number(singular)
    with pytest.raises(oracles.WindingError, match="DENSITY"):
        oracles.winding_number(dense)
    # a block reads each row as it stands
    block = np.stack([np.exp(1j * th), singular, np.exp(-2j * th), np.exp(1j * th) * 0.5 + 2.0])
    windings, ok = winding_numbers(block)
    assert windings.tolist() == [1, 0, -2, 0] and ok.tolist() == [True, False, True, True]


@pytest.mark.parametrize("n_circle", [8, 16, 64, 720])
def test_winding_numbers_match_loop_at_a_time_oracle(n_circle):
    """Random Laurent polynomials of degree <= 6, many of which fail a guard
    on the small grids: a loop passes the guards exactly when the oracle
    does not raise, and then the windings agree."""
    rng = np.random.default_rng(n_circle)
    table = oracles.fourier_table(circle_angles(n_circle), 6)
    coeffs = rng.normal(size=(400, 13)) + 1j * rng.normal(size=(400, 13))
    coeffs[:100, 6] += 6.0  # a dominant constant term: winding 0
    coeffs[100:200, 9] += 6.0  # a dominant z^3 term: winding 3
    dets = coeffs @ table
    windings, ok = winding_numbers(dets)
    for row, w, passed in zip(dets, windings, ok):
        try:
            want = oracles.winding_number(row)
        except oracles.WindingError:
            assert not passed
        else:
            assert passed and w == want
    assert ok.any() and (n_circle == 720 or not ok.all())


def test_winding_additive_and_rotation_invariant():
    th = circle_angles(720)
    rng = CFG.rng(43)
    for _ in range(10):
        c1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        f = np.exp(2j * th) * (2.5 + c1[0] * np.exp(1j * th) * 0.2 + c1[1] * 0.1)
        g = np.exp(-1j * th) * (3.0 + c1[2] * 0.2)
        (wf, wg, wfg), ok = winding_numbers(np.stack([f, g, f * g]))
        assert ok.all() and wfg == wf + wg
        shift = int(rng.integers(0, 720))
        assert winding_numbers(np.roll(f, shift)) == (wf, True)


def test_parity_probe_small():
    rep = equivariant_parity_probe(1, 10, CFG)
    assert rep.all_odd
    rep2 = equivariant_parity_probe(2, 25, CFG)
    assert rep2.all_odd and rep2.control_has_both


def _watch_parity_blocks(m):
    """Record, for each block the sampler evaluates, its coefficients (at
    det_coeffs), its determinant samples (at winding_numbers), which loops
    passed the min |det| filter and how many loops it used (at replay)."""
    blocks = []
    coeffs, windings, replay = probes.det_coeffs, probes.winding_numbers, probes.replay

    def at_coeffs(c):
        d = coeffs(c)
        blocks.append({"c": c.copy(), "d": d})
        return d

    def at_windings(dets, min_abs=None):
        blocks[-1]["dets"] = dets.copy()
        return windings(dets, min_abs)

    def at_replay(kept, w, ok, need):
        used, taken, resamples = replay(kept, w, ok, need)
        blocks[-1].update(kept=kept.copy(), used=used)
        return used, taken, resamples

    m.setattr(probes, "det_coeffs", at_coeffs)
    m.setattr(probes, "winding_numbers", at_windings)
    m.setattr(probes, "replay", at_replay)
    return blocks


def _assert_parity_probe_matches_per_entry_oracle(monkeypatch, n, trials, cfg):
    """The probe against tests/oracles.per_entry_parity_probe, which takes
    LAPACK determinants at every sample: the same windings and resamples;
    the loops each block used, block after block, are the oracle's drawn
    coefficients byte for byte; and the determinant samples of every used
    loop that passed the filter are within 1e-12 * max|det| of LAPACK's."""
    with monkeypatch.context() as m:
        blocks = _watch_parity_blocks(m)
        fast = probes.equivariant_parity_probe(n, trials, cfg)
    slow, slow_dets, slow_draws = per_entry_parity_probe(n, trials, cfg)
    assert (fast.windings, fast.control_windings, fast.resamples) == (
        slow.windings,
        slow.control_windings,
        slow.resamples,
    ), (n, trials)
    used = [b["c"][: b["used"]] for b in blocks]
    assert [c.tobytes() for block in used for c in block] == [c.tobytes() for c in slow_draws], (n, trials)
    seen = [dets for b in blocks for dets in b["dets"][: b["used"]][b["kept"][: b["used"]]]]
    assert len(seen) == len(slow_dets)
    for dets, ref in zip(seen, slow_dets):
        assert np.max(np.abs(dets - ref)) <= 1e-12 * np.max(np.abs(ref)), (n, trials)


@pytest.mark.parametrize("seed", [20130915, 1, 2, 7, 31, 99])
def test_parity_probe_matches_per_entry_oracle(monkeypatch, seed):
    _assert_parity_probe_matches_per_entry_oracle(monkeypatch, 2, 12, GridConfig(seed=seed))


@pytest.mark.parametrize("seed", [20130915, 1, 2, 7, 31, 99])
def test_parity_sampler_matches_per_entry_oracle(monkeypatch, seed):
    """Every loop size, and trial counts at the edges of the sampler's
    blocks: a family may end just before, at or just after the end of a
    block, and the control family draws on from where the odd one stopped."""
    cfg = GridConfig(seed=seed)
    b = probes.LOOP_BLOCK
    for n in (1, 2, 3):
        for trials in (1, b - 1, b, b + 1, 2 * b + 1):
            _assert_parity_probe_matches_per_entry_oracle(monkeypatch, n, trials, cfg)


@pytest.mark.parametrize("n_circle", [8, 16])
def test_parity_sampler_matches_per_entry_oracle_on_small_grids(monkeypatch, n_circle):
    """Grids with fewer points than a determinant of size 2 or 3 has
    coefficients (13 or 19), where most loops fail a winding guard and a
    trial can use several blocks."""
    cfg = GridConfig(n_circle=n_circle)
    for n in (1, 2, 3):
        for trials in (1, 4):
            _assert_parity_probe_matches_per_entry_oracle(monkeypatch, n, trials, cfg)


@pytest.mark.parametrize("grid", [720, 64, 16, 8])
@pytest.mark.parametrize("seed", [20130915, 7])
def test_parity_probe_matches_per_loop_oracle(grid, seed):
    """The block pipeline against the loop-at-a-time path it replaced
    (np.convolve coefficients, a Fourier table product, winding_number per
    loop): the same report.  Fewer trials on the small grids, where most
    loops fail a guard."""
    cfg = GridConfig(n_circle=grid, seed=seed)
    trials = 40 if grid >= 64 else 6
    for n in (1, 2, 3):
        fast = equivariant_parity_probe(n, trials, cfg)
        slow, _ = per_loop_parity_probe(n, trials, cfg)
        assert (fast.windings, fast.control_windings, fast.resamples) == (
            slow.windings,
            slow.control_windings,
            slow.resamples,
        ), (grid, n)


@pytest.mark.parametrize("seed", [20130915, 1, 7])
def test_det_coeffs_match_fraction_leibniz(monkeypatch, seed):
    """probes.det_coeffs on the sampler's own draws against the exact
    determinant coefficients (oracles.fraction_det_coeffs), on every loop a
    block used.  Bound, a priori: on any path from a real monomial of the
    Leibniz sum to a computed coefficient there are at most
    K = 8 * (n - 1) + n! - 1 roundings, namely per product stage one real
    product, one combination of two into a part of a complex product and at
    most 6 additions over at most 7 shifted terms (the first lands on an
    exact 0), then n! - 1 additions across the permutations.  So each real
    part errs by at most gamma_K * M, M the majorant sum of the monomials'
    absolute values and gamma_K = K u / (1 - K u), u = 2**-53.  For n = 1,
    K = 0: exact.  An odd loop's even-degree coefficients are exactly 0."""
    u = Fraction(1, 2**53)
    for n in (1, 2, 3):
        k = 8 * (n - 1) + factorial(n) - 1
        gamma = k * u / (1 - k * u)
        checked = []
        with monkeypatch.context() as m:
            blocks = _watch_parity_blocks(m)
            loops = probes.LoopSampler(GridConfig(seed=seed).rng(4), n, 64)
            for first_row in ("odd", "even", "odd", "even"):
                start = len(blocks)
                loops.windings(first_row, 1)
                checked += [(first_row, b) for b in blocks[start:]]
        for first_row, b in checked:
            for c, got in zip(b["c"][: b["used"]], b["d"][: b["used"]]):
                exact, majorant = oracles.fraction_det_coeffs(c)
                assert len(exact) == got.size == 6 * n + 1
                for deg, (z, e, mj) in enumerate(zip(got, exact, majorant), start=-3 * n):
                    assert abs(Fraction(z.real) - e.re) <= gamma * mj, (n, deg)
                    assert abs(Fraction(z.imag) - e.im) <= gamma * mj, (n, deg)
                    if first_row == "odd" and deg % 2 == 0:
                        assert not e and z == 0, (n, deg)


@pytest.mark.parametrize("seed", [20130915, 1, 7])
def test_parity_passes_read_only_loops_they_use(monkeypatch, seed):
    """A pass reads at most the loops its family still needs, so it uses
    every loop it reads: a family that ends partway through a block leaves
    the rest unread for the other family."""
    cfg = GridConfig(seed=seed)
    for n, trials in ((2, 100), (3, 17), (1, 5)):
        with monkeypatch.context() as m:
            blocks = _watch_parity_blocks(m)
            probes.equivariant_parity_probe(n, trials, cfg)
        assert all(b["used"] == len(b["c"]) for b in blocks), (n, trials)


def test_parity_mutant_witness_matches_loop_oracle():
    witness = mutants._parity_mislabeled_generator()
    assert witness and witness == oracles.parity_mislabeled_loop()


@pytest.mark.parametrize("seed", [20130915, 1, 7])
def test_omega_hat_matches_z2_parts_closures(seed):
    """Bit for bit, on blocks of random interpolants, for both splittings,
    at circle angles and at chart angles of both argument orders, with a
    scalar Z2 argument and with Z2 broadcast against the interval."""
    rng = GridConfig(seed=seed).rng(11)
    nodes = interval_nodes(33)
    draws = rng.normal(size=(5, 4, nodes.size))
    h0 = interval_fn(draws[:, 0] + 1j * draws[:, 1], nodes)
    h1 = interval_fn(draws[:, 2] + 1j * draws[:, 3], nodes)
    fs = {
        1: lambda kk, tt: h0(tt) + np.asarray(kk) * h1(tt),
        2: lambda tt, kk: h0(tt) + np.asarray(kk) * h1(tt),
    }
    t = nodes[None, :]
    angles = [circle_angles(64)]
    angles += [delta_angle(j, k, t) for j in (1, 2) for k in (1.0, -1.0, Z2[:, None])]
    for i, f in fs.items():
        for th in angles:
            got = omega_hat(i, f)(th)
            want = oracles.z2_parts_omega_hat(i, f)(th)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_omega_hat_calls_f_once_at_each_z2_point():
    for i in (1, 2):
        calls = []
        # the Z2 argument comes first for omega_1 and second for omega_2
        omega_hat(i, lambda *xs: calls.append(xs[i - 1]) or xs[0] * xs[1])(circle_angles(16))
        assert calls == [1.0, -1.0]


@pytest.mark.parametrize("seed", [20130915, 1, 7])
def test_peter_weyl_matches_degree_loop(seed):
    cfg = GridConfig(seed=seed)
    for samples, degrees in ((2000, (-2, -1, 0, 1, 2)), (300, (3, -1)), (50, (0,))):
        assert peter_weyl_report(samples, cfg, degrees) == oracles.peter_weyl_loop(samples, cfg, degrees)


def test_peter_weyl_at_a_few_samples_matches_degree_loop():
    """At 1, 2 and 3 samples a patch, and with the a-patch the cleaving set,
    can be empty; its maxima are then 0.  Seed 1 at one sample empties the
    a-patch, the default seed the c-patch."""
    empty = set()
    for seed in (20130915, 1):
        cfg = GridConfig(seed=seed)
        for samples in (1, 2, 3):
            assert peter_weyl_report(samples, cfg) == oracles.peter_weyl_loop(samples, cfg)
            v = cfg.rng(5).normal(size=(samples, 4))
            a_patch = v[:, 0] ** 2 + v[:, 1] ** 2 >= v[:, 2] ** 2 + v[:, 3] ** 2
            empty |= {"a"} if not a_patch.any() else {"c"} if a_patch.all() else set()
    assert empty == {"a", "c"}


@pytest.mark.parametrize("re, im", [(0, 0), (0, 5), (-7, 0), (-3, -4), (10**40, -(10**30)), (-(2**200), 1)])
def test_gaussrat_int_path_matches_fraction_path(re, im):
    fast = GaussRat(re, im)
    slow = GaussRat(Fraction(re), Fraction(im))
    assert (fast.a, fast.b, fast.d) == (slow.a, slow.b, slow.d) == gauss_triple(re, im)
    assert type(fast.a) is type(fast.b) is type(fast.d) is int


def test_gaussrat_non_int_parts_take_the_fraction_path():
    for re, im in ((True, np.int64(-2)), (np.int64(3), 0), (Fraction(6, 3), False)):
        g = GaussRat(re, im)
        assert (g.a, g.b, g.d) == gauss_triple(re, im)
        assert type(g.a) is type(g.b) is type(g.d) is int


@pytest.mark.parametrize("seed", range(24))
def test_random_toeplitz_poly_matches_scalar_draws(seed):
    fast, slow = GridConfig(seed=seed).rng(6), GridConfig(seed=seed).rng(6)
    for max_deg, coeff_range in ((3, 3), (3, 3), (1, 1), (2, 0), (3, 5)):
        p = random_toeplitz_poly(fast, max_deg, coeff_range)
        q = scalar_draw_toeplitz_poly(slow, max_deg, coeff_range)
        assert p == q
        assert all(type(g) is int for c in p.terms.values() for g in (c.n[0].a, c.n[0].b, c.n[0].d))
    assert fast.bit_generator.state == slow.bit_generator.state
    assert fast.integers(-3, 4) == slow.integers(-3, 4)


def _folded_rows(ints, max_deg=3):
    """fold_symbol_draws on a block of integer rows, as one (k, coefficient)
    list per row, padding included."""
    ks, coeffs = fold_symbol_draws(np.asarray(ints), max_deg)
    return [list(zip(k.tolist(), c.tolist())) for k, c in zip(ks, coeffs)]


def _padded(items, max_deg=3):
    return list(items) + [(0, 0j)] * (2 * max_deg + 1 - len(items))


def test_random_symbol_coeffs_matches_exact_symbol():
    """The block fold, row by row, against the dict-at-a-time fold and the
    exact symbol of the same draw (one draw per seed)."""
    rows, want = [], []
    for seed in range(2000):
        fast, slow = GridConfig(seed=seed).rng(6), GridConfig(seed=seed).rng(6)
        items = list(random_symbol_coeffs(fast, 3).items())
        assert items == symbol_coefficients(slow, 3)
        assert fast.bit_generator.state == slow.bit_generator.state
        rows.append(GridConfig(seed=seed).rng(6).integers(-3, 4, size=20))
        want.append(_padded(items))
    got = _folded_rows(rows)
    assert got == want
    assert all(type(c) is complex for row in got for _, c in row)


@pytest.mark.parametrize("max_deg", [0, 1, 2, 4])
def test_symbol_fold_matches_dict_fold_at_other_degrees(max_deg):
    """At degree 4 three basis words share degree 0, so a degree can leave
    and enter again: it goes to the end, as in the dict."""
    n_ints = (max_deg + 1) * (max_deg + 2)  # (re, im) for each basis word
    rows = GridConfig(seed=max_deg).rng(12).integers(-3, 4, size=(3000, n_ints))
    want = [_padded(random_symbol_coeffs(ScriptedDraws(row), max_deg).items(), max_deg) for row in rows]
    assert _folded_rows(rows, max_deg) == want


class ScriptedDraws:
    """Generator stand-in whose integers() returns the scripted draws in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def integers(self, low, high, size):
        out = np.array(self.draws.pop(0))
        assert out.shape == (size,) and low <= out.min() and out.max() < high
        return out


def _draw(**coeffs):
    """The 20 integers of a degree-<=3 draw: (re, im) per basis word in basis
    order, named e, s, ss, s2, s_ss, ss2, s3, s2_ss, s_ss2, ss3; 0 elsewhere."""
    names = ("e", "s", "ss", "s2", "s_ss", "ss2", "s3", "s2_ss", "s_ss2", "ss3")
    return [part for name in names for part in coeffs.get(name, (0, 0))]


@pytest.mark.parametrize(
    "draw, expected",
    [
        # all zero: random_toeplitz_poly returns the unit
        (_draw(), [(0, 1 + 0j)]),
        # the first word of the k = 0 pair is 0, so k = 0 enters after k = 1
        (_draw(s=(1, 1), s_ss=(2, -1)), [(1, 1 + 1j), (0, 2 - 1j)]),
        # the k = 1 pair cancels: k = 1 is popped after k = -1 entered
        (_draw(s=(3, 0), ss=(0, -2), s2_ss=(-3, 0), e=(1, 0)), [(0, 1 + 0j), (-1, -2j)]),
        # the k = 0 pair cancels and nothing else is drawn: the symbol is 0
        (_draw(e=(-2, 3), s_ss=(2, -3)), []),
        # the k = -1 pair adds up
        (_draw(ss=(1, -1), s_ss2=(2, 3), ss3=(0, 1)), [(-1, 3 + 2j), (-3, 1j)]),
    ],
)
def test_random_symbol_coeffs_edge_cases(draw, expected):
    got = list(random_symbol_coeffs(ScriptedDraws(draw), 3).items())
    assert got == symbol_coefficients(ScriptedDraws(draw), 3) == expected
    assert _folded_rows([draw]) == [_padded(expected)]


def test_peter_weyl_spot_values():
    # |a| = 1: omega = 1 and the first factor vanishes
    aa = 1.0
    omega2 = 2.0 / (1.0 + abs(aa - 0.0))
    assert omega2 == 1.0 and (1 - omega2 * aa) == 0.0
    # |a|^2 = |c|^2 = 1/2: omega^2 = 2 and both factors vanish
    omega2 = 2.0 / (1.0 + abs(0.5 - 0.5))
    assert omega2 == 2.0 and (1 - omega2 * 0.5) == 0.0
    rep = peter_weyl_report(2000, CFG)
    for key in ("zero_identity", "cleaving_multiplicative", "line_bundle_equivariance"):
        assert rep[key] < TOL, key


def test_mattprop_report():
    rep = mattprop_report(CFG, n_random=100)
    for key in ("condition1_splitting", "condition1_kernel_image", "corner_identity", "condition2_residual"):
        assert rep[key] < TOL, key


def _counting_interval_fn(calls):
    """circle.interval_fn whose interpolants count their evaluations."""

    def make(samples, nodes):
        fn = interval_fn(samples, nodes)

        def counted(t):
            calls.append(np.shape(t))
            return fn(t)

        return counted

    return make


def test_condition1_reads_its_interpolant_once_per_point_set(monkeypatch):
    calls = []
    monkeypatch.setattr(probes, "interval_fn", _counting_interval_fn(calls))
    probes._condition1_residuals(CFG.rng(6), interval_nodes(CFG.m_interval))
    assert len(calls) <= 5


@pytest.mark.parametrize("n_random", [circle.SPLITTING_BLOCK, 2 * circle.SPLITTING_BLOCK + 1])
def test_splitting_block_reads_its_interpolants_once_per_point_set(monkeypatch, n_random):
    calls = []
    monkeypatch.setattr(circle, "interval_fn", _counting_interval_fn(calls))
    splitting_identities_report(CFG, n_random)
    n_blocks = -(-n_random // circle.SPLITTING_BLOCK)
    assert len(calls) <= 12 * n_blocks


def test_shared_interpolant_values_are_read_only():
    nodes = interval_nodes(9)
    h = interval_fn(np.arange(18.0).reshape(2, 9) * (1 + 1j), nodes)
    for points in (*circle.chart_points(nodes).values(), nodes[None, :], Z2[:, None]):
        v = read_once(h, points)
        assert not v.flags.writeable
        assert v.tobytes() == h(points).tobytes()
        with pytest.raises(ValueError):
            v += 1.0


# A fresh interpreter imports pcomod.numgeom, runs the parity probe and prints
# its thread count, the BLAS thread variables, and every write to os.environ
# made after the prelude.  The environment it starts with is the test's own,
# minus the three variables, plus `preset`.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_THREAD_PROBE = """
import json, os
{prelude}
writes = []
_set, _del = os._Environ.__setitem__, os._Environ.__delitem__
os._Environ.__setitem__ = lambda self, k, v: (writes.append(("set", k)), _set(self, k, v))[1]
os._Environ.__delitem__ = lambda self, k: (writes.append(("del", k)), _del(self, k))[1]
before = dict(os.environ)
import pcomod.numgeom
from pcomod.suites import SuiteConfig, run_suite
assert run_suite(SuiteConfig(suite="parity-probe")).passed
print(json.dumps({{
    "threads": len(os.listdir("/proc/self/task")),
    "environ_unchanged": dict(os.environ) == before,
    "vars": {{v: os.environ.get(v) for v in {names!r}}},
    "writes": writes,
}}))
"""


def _fresh_thread_probe(prelude: str = "", **preset) -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=str(src))
    code = _THREAD_PROBE.format(prelude=prelude, names=_BLAS_THREAD_VARS)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


needs_task_list = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")


@needs_task_list
def test_numgeom_import_starts_no_blas_thread():
    """No check calls BLAS, so the import pins OpenBLAS to the calling thread
    and gives the environment back as it found it."""
    got = _fresh_thread_probe()
    assert got["threads"] == 1
    assert got["environ_unchanged"]
    assert got["vars"] == dict.fromkeys(_BLAS_THREAD_VARS)


@needs_task_list
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_numgeom_import_keeps_a_users_blas_thread_setting(var):
    got = _fresh_thread_probe(**{var: "2"})
    assert got["vars"] == {**dict.fromkeys(_BLAS_THREAD_VARS), var: "2"}
    assert got["writes"] == [] and got["environ_unchanged"]


@needs_task_list
def test_numgeom_import_after_numpy_changes_nothing():
    got = _fresh_thread_probe(prelude="import numpy")
    assert got["vars"] == dict.fromkeys(_BLAS_THREAD_VARS)
    assert got["writes"] == [] and got["environ_unchanged"]
