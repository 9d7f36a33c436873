import random
from pathlib import Path

import pytest

from pcomod import builtin
from pcomod.comodule import CleavingMap, SmashProduct
from pcomod.maps import NotWellDefinedError, gens_map
from pcomod.ncpoly import Alphabet, NCPoly, word_str
from pcomod.rewrite import RewriteSystem
from pcomod.scalars import GaussRat, S_ONE, S_Q, Scalar
from pcomod.tensors import Tensor, linear_image

from oracles import (
    LaurentModel,
    composed_word_image,
    convolution_table,
    identity_table,
    looped_coact_word,
    looped_delta_word,
    looped_dictionary_word,
    multiplied_word_image,
    summed_image,
    unit_counit_map,
)


def test_tensor_leg_normalization(gl):
    sysm = gl.system
    al = sysm.alphabet
    t = Tensor((sysm, sysm), {(("b", "a"), ("d", "a")): S_ONE})
    # both legs normalize; coefficients multiply out
    da = sysm.normal_form(NCPoly.word(al, ("d", "a")))
    ba = sysm.normal_form(NCPoly.word(al, ("b", "a")))
    want = Tensor.of((sysm, sysm), ba, da)
    assert t == want


def test_tensor_surgery(z2):
    sysm = z2.system
    u = NCPoly.gen(sysm.alphabet, "u")
    one = NCPoly.one(sysm.alphabet)
    t = Tensor.of((sysm, sysm), u, u)
    assert t.merge_legs(0).leg_poly(0) == one  # u*u = 1
    assert t.swap_legs(0, 1) == t
    assert t.contract_leg(1, z2.counit_word).leg_poly(0) == u
    tt = t.expand_leg(0, z2.delta_word)
    assert tt == Tensor.of((sysm, sysm, sysm), u, u, u)


def test_tensor_results_store_normal_legs_and_no_zero(su):
    """Sums, products and leg surgery on random tensors with cancelling
    coefficients store no zero and only normal legs: the normalising
    constructor gives each result back."""
    sysm = su.system
    a = NCPoly.gen(sysm.alphabet, "a")
    words = sysm.all_words(2)
    coeffs = [S_ONE, -S_ONE, S_Q, -S_Q, S_Q - S_ONE, S_Q.inv() + S_ONE]
    rng = random.Random(26)

    def rand(legs):
        raw = {tuple(rng.choice(words) for _ in range(legs)): rng.choice(coeffs) for _ in range(rng.randint(0, 5))}
        return Tensor((sysm,) * legs, raw)

    for _ in range(40):
        t, u = rand(2), rand(2)
        results = [
            t + u,
            t - u,
            t - t,
            t.mul(u),
            t.map_leg(1, lambda w: sysm.mul(NCPoly.word(sysm.alphabet, w), a)),
            t.contract_leg(1, su.counit_word),
            t.merge_legs(0),
        ]
        if t.terms:
            results.append(t.expand_leg(0, su.delta_word))
        for r in results:
            assert not any(c.is_zero() for c in r.terms.values())
            assert Tensor(r.systems, r.terms) == r
        poly = t.merge_legs(0).leg_poly(0)
        assert NCPoly(poly.alphabet, poly.terms) == poly


def test_linear_map_modes_and_validation(z2, u1):
    al1 = u1.system.alphabet
    alz = z2.system.alphabet
    pi = gens_map(
        "pi", u1.system, z2.system, {"u": NCPoly.gen(alz, "u"), "ui": NCPoly.gen(alz, "u")}
    )
    assert pi.apply(NCPoly.word(al1, ("u", "u", "ui"))) == NCPoly.gen(alz, "u")
    with pytest.raises(NotWellDefinedError):
        gens_map("bad", u1.system, z2.system, {"u": NCPoly.gen(alz, "u"), "ui": NCPoly.one(alz)})


def test_algebra_map_must_respect_a_central_letter():
    """c is central in the domain, so its image y must commute with x's."""
    dom = RewriteSystem(Alphabet(["x", "c"], central=["c"]), [], name="dom")
    free = Alphabet(["x", "y"])
    cod = RewriteSystem(free, [], name="free")
    with pytest.raises(NotWellDefinedError, match="c\\*x"):
        gens_map("m", dom, cod, {"x": NCPoly.gen(free, "x"), "c": NCPoly.gen(free, "y")})
    # a central image is accepted
    gens_map("ok", dom, cod, {"x": NCPoly.gen(free, "x"), "c": NCPoly.one(free)})


def test_convolution_unit_and_antipode(z2, u1):
    # eta o eps is the convolution unit
    e = unit_counit_map(z2)
    idm = identity_table(z2.system, 2)
    assert convolution_table(z2, e.apply_word, idm.__getitem__, idm) == idm
    # (id * S)(u) = eps(u) 1 = 1, matching the Laurent/group models
    conv2 = convolution_table(z2, idm.__getitem__, z2.S.apply_word, idm)
    assert conv2[("u",)] == NCPoly.one(z2.system.alphabet)
    id1 = identity_table(u1.system, 3)
    got = convolution_table(u1, id1.__getitem__, u1.S.apply_word, id1)[("u", "u")]
    oracle = LaurentModel.convolution_id_S(2)
    assert got == NCPoly.one(u1.system.alphabet) and oracle == {0: 1}


def test_cleaving_convolved_with_inverse_is_unit(z2_smash):
    j = z2_smash.cleaving()
    H = z2_smash.hopf
    words = H.system.basis_words(2)
    conv = convolution_table(H, j.j.apply_word, j.j_inv.apply_word, words, z2_smash.system)
    one = z2_smash.system.one()
    for w in words:
        assert conv[w] == one.scale(H.counit_word(w))


def test_convolution_associative_randomized(u1):
    rng = random.Random(23)
    alz = u1.system.alphabet
    words = u1.system.basis_words(3)

    def rand_table():
        table = {}
        for w in words:
            c = Scalar.of(GaussRat(rng.randint(-2, 2), rng.randint(-1, 1)))
            k = rng.choice(words)
            table[w] = NCPoly.word(alz, k, c) if not c.is_zero() else NCPoly.zero(alz)
        return table

    def conv(f, g):
        return convolution_table(u1, f.__getitem__, g.__getitem__, words)

    for _ in range(12):
        f, g, h = rand_table(), rand_table(), rand_table()
        fg_h = conv(conv(f, g), h)
        f_gh = conv(f, conv(g, h))
        for w in u1.system.basis_words(2):
            assert fg_h[w] == f_gh[w]


def _random_poly(rng, alphabet, words, n_terms):
    return NCPoly(alphabet, {rng.choice(words): Scalar.of(rng.choice((-2, -1, 1, 2, 3))) for _ in range(n_terms)})


@pytest.mark.parametrize("q", ["formal", 3])
@pytest.mark.parametrize("name", ["su_q2", "gl_q2"])
def test_convolve_matches_summed_oracle(name, q):
    """H.convolve(w, f, g) equals the free products f(w_(1)) g(w_(2)) summed
    term by term over Delta(w) and normalised once, for random table maps and
    for the antipode laws."""
    rng = random.Random(31)
    H = builtin.build(name, q)
    sysm = H.system
    al = sysm.alphabet
    words = sysm.basis_words(3)

    def oracle(w, f, g):
        return sysm.normal_form(
            summed_image(H.delta_word(w), lambda k: f(k[0]).concat(g(k[1])), sysm.zero())
        )

    word = lambda v: NCPoly.word(al, v)
    pairs = [(H.S.apply_word, word), (word, H.S.apply_word)]
    for _ in range(6):
        f, g = ({w: _random_poly(rng, al, words, 2) for w in words} for _ in range(2))
        pairs.append((f.__getitem__, g.__getitem__))
    for f, g in pairs:
        for w in rng.sample(words, k=20):
            assert H.convolve(w, f, g, sysm) == oracle(w, f, g), word_str(w)


@pytest.mark.parametrize("kind", ["ncpoly", "tensor"])
def test_linear_image_matches_summed_oracle(su, kind):
    """linear_image equals the term-by-term sum on random word maps, including
    sums that cancel to zero in some or all terms."""
    rng = random.Random(41)
    sysm = su.system
    al = sysm.alphabet
    words = sysm.basis_words(2)
    if kind == "ncpoly":
        zero = sysm.zero()
        pool = [_random_poly(rng, al, words, 3) for _ in range(4)]
    else:
        zero = Tensor.zero((sysm, sysm))
        pool = [
            Tensor.of((sysm, sysm), _random_poly(rng, al, words, 2), _random_poly(rng, al, words, 2))
            for _ in range(4)
        ]
    domain = sysm.basis_words(3)
    for trial in range(30):
        images = {w: rng.choice(pool) for w in domain}
        p = _random_poly(rng, al, domain, rng.randint(1, 6))
        got = linear_image(p, images.__getitem__, zero)
        assert got == summed_image(p, images.__getitem__, zero)
        assert all(not c.is_zero() for c in got.terms.values())
    # w1 - w2 with f(w1) = f(w2), and 2 w1 - w2 - w3 with f(w2) = f(w3) = 2 f(w1)
    w1, w2, w3 = domain[1], domain[2], domain[3]
    images = {w1: pool[0], w2: pool[0], w3: pool[0].scale(Scalar.of(2))}
    p = NCPoly(al, {w1: S_ONE, w2: -S_ONE})
    assert linear_image(p, images.__getitem__, zero) == zero == summed_image(p, images.__getitem__, zero)
    p = NCPoly(al, {w1: Scalar.of(4), w3: -S_ONE, w2: Scalar.of(-2)})
    assert linear_image(p, images.__getitem__, zero).is_zero()


@pytest.mark.parametrize("name", ["su_q2", "gl_q2"])
def test_memoised_apply_word_matches_uncached_product(name):
    """S, S^-1 (anti mode) and S^2 (algebra mode) agree with the plain
    left-to-right product on every basis word of degree <= 3: on first use,
    longest words first so the memo fills through the recursion, and on a
    second pass served from the memo."""
    H = builtin.build(name)
    sysm = H.system
    s2 = {
        g: summed_image(
            H.antipode_table[g],
            lambda w: multiplied_word_image(sysm, H.antipode_table, w, True),
            sysm.zero(),
        )
        for g in sysm.alphabet.gens
    }
    maps = [
        (H.S, H.antipode_table, True),
        (H.S_inv, H.antipode_inv_table, True),
        (gens_map("S2", sysm, sysm, s2, check=False), s2, False),
    ]
    words = sysm.basis_words(3)
    for m, images, anti in maps:
        for w in list(reversed(words)) + words:
            assert m.apply_word(w) == multiplied_word_image(sysm, images, w, anti), (m.name, w)


def _same_terms(got, want):
    """Equal, with the terms in the same order (it shapes witness strings)."""
    return got == want and list(got.terms.items()) == list(want.terms.items())


def _words_twice(system):
    """All words of degree <= 3, longest first so the memo fills through the
    recursion, then again served from the memo."""
    words = system.all_words(3)
    return list(reversed(words)) + words


@pytest.mark.parametrize("q", ["formal", 3])
@pytest.mark.parametrize("name", builtin.HOPF_NAMES)
def test_coproduct_map_matches_product_loop(name, q):
    H = builtin.build(name, q)
    for w in _words_twice(H.system):
        assert _same_terms(H.delta_word(w), looped_delta_word(H, w)), w


def _coaction_cases():
    for q in ("formal", 3):
        for name in builtin.COMODULE_NAMES:
            yield pytest.param(name, q, id=f"{name}-{q}")
        yield pytest.param("patch_prolonged", q, id=f"patch_prolonged-{q}")
    yield pytest.param("sphere_prolonged", None, id="sphere_prolonged")


@pytest.mark.parametrize("name, q", list(_coaction_cases()))
def test_coaction_map_matches_product_loop(name, q):
    """Every builtin comodule algebra and every prolonged piece; on the
    prolonged pieces the dictionary map too."""
    if name.endswith("_prolonged"):
        pro = builtin.sphere_prolonged() if name == "sphere_prolonged" else builtin.patch_prolonged(q)
        comodules = [piece.comodule for piece in pro.trivialisation.covering.pieces]
        for piece, d in zip(comodules, pro.dictionaries):
            bsys, hsys = d.codomain.systems
            fiber = {f: d.gen_images[f] for f in pro.fiber_names.values()}
            for w in _words_twice(piece.system):
                assert _same_terms(d.apply_word(w), looped_dictionary_word(bsys, hsys, fiber, w)), w
    else:
        comodules = [builtin.build(name, q)]
    for P in comodules:
        for w in _words_twice(P.system):
            assert _same_terms(P.coact_word(w), looped_coact_word(P, w)), (P.name, w)


def test_cleaving_inverse_matches_composition(monkeypatch):
    """j_inv, the anti-algebra map with images j(S(g)), equals j applied after
    S on every basis word of degree <= 3, for every cleaving the suites build
    or read from a smash product or take from a builder (builders and smash
    products memoise, so theirs may predate the run)."""
    from pcomod.suites import SuiteConfig, run_suite

    built = []
    init = CleavingMap.__init__
    cleaving = SmashProduct.cleaving

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def recording_cleaving(self):
        built.append(cleaving(self))
        return built[-1]

    monkeypatch.setattr(CleavingMap, "__init__", recording_init)
    monkeypatch.setattr(SmashProduct, "cleaving", recording_cleaving)
    for q in ("formal", 3):
        run_suite(SuiteConfig(suite="all", q=q))
    example = Path(__file__).resolve().parents[1] / "scripts" / "example_covering.json"
    run_suite(SuiteConfig(suite="covering", covering=str(example)))
    # both recorders work: they saw the smash cleavings the strong-connection
    # suite reads, and the cleavings built for the file's two pieces
    seen = {id(cl) for cl in built}
    assert {id(sm.cleaving()) for sm in (builtin.toeplitz_z2_smash(), builtin.toeplitz_u1_smash())} <= seen
    assert sum(cl.j.name.startswith("gamma[") for cl in built) >= 2
    built += [builtin.pw_patch()[1], *builtin.sphere_covering().cleavings]
    built += builtin.sphere_prolonged().trivialisation.cleavings
    for q in ("formal", 3):
        built += builtin.patch_prolonged(q).trivialisation.cleavings
    for cl in {id(cl): cl for cl in built}.values():
        H = cl.P.hopf
        for w in H.system.basis_words(3):
            assert cl.j_inv.apply_word(w) == composed_word_image(cl.j, H.S, w), (cl.j.name, w)
