import random

import pytest

from pcomod import builtin, mutants
from pcomod.comodule import ComoduleAlgebra
from pcomod.exprs import parse_poly, parse_tensor_terms
from pcomod.hopf import (
    CheckFailure,
    HopfAlgebra,
    HopfIdeal,
    NotHopfIdealError,
    check_hopf_axioms,
    generator_map_isomorphism_problems,
    hopf_map_problems,
)
from pcomod.maps import gens_map
from pcomod.mutants import MUTANTS
from pcomod.ncpoly import Alphabet, NCPoly
from pcomod.rewrite import RewriteSystem
from pcomod.scalars import S_ONE, S_ZERO
from pcomod.tensors import Tensor

from oracles import (
    Z2Model,
    bounded_coaction_axioms,
    bounded_hopf_axioms,
    bounded_hopf_map_checks,
    bounded_isomorphism_checks,
    coinvariant_basis_words,
    group_like_words,
    left_coinvariant_test,
)


def test_delta_examples(z2, su):
    alz = z2.system.alphabet
    assert z2.delta_word(("u",)) == Tensor((z2.system, z2.system), {(("u",), ("u",)): S_ONE})
    als = su.system.alphabet
    want = parse_tensor_terms("a # a - Q*(gs # g)", als, 2)
    assert su.delta_word(("a",)) == Tensor((su.system, su.system), want)
    assert su.delta_word(()) == Tensor.of((su.system, su.system), su.system.one(), su.system.one())
    # the gamma column of the corepresentation matrix
    wantg = parse_tensor_terms("g # a + as # g", als, 2)
    assert su.delta_word(("g",)) == Tensor((su.system, su.system), wantg)


def test_axiom_suites_pass(z2, u1, su, gl, sl):
    for H in (z2, u1, su, gl, sl):
        assert check_hopf_axioms(H) == []


def test_corrupted_coproduct_fails_counit(z2):
    bad = HopfAlgebra(
        z2.system,
        {"u": Tensor((z2.system, z2.system), {(("u",), ()): S_ONE})},
        dict(z2.counit_table),
        dict(z2.antipode_table),
        dict(z2.antipode_inv_table),
        name="bad",
    )
    fails = check_hopf_axioms(bad)
    assert any(f.check.startswith("counit") and f.where == "u" for f in fails)


def test_quotient_u1_is_z2_by_structure_constants(u1, z2):
    J = builtin.u1_mod_z2_ideal()
    assert J.validate() == []
    qH, proj = J.quotient()
    # 2-dimensional: basis {1, u}; compare against the finite group model
    basis = qH.system.basis_words(3)
    assert basis == [(), ("u",)]
    for i in (0, 1):
        for j in (0, 1):
            prod = qH.system.mul(
                NCPoly.word(qH.system.alphabet, ("u",) * i),
                NCPoly.word(qH.system.alphabet, ("u",) * j),
            )
            k = Z2Model.mul(i, j)
            assert prod == NCPoly.word(qH.system.alphabet, ("u",) * k)
    for i in (0, 1):
        w = ("u",) * i
        legs = {(w, w): S_ONE}
        assert qH.delta_word(w) == Tensor((qH.system, qH.system), legs)
        assert qH.counit_word(w) == S_ONE
        assert qH.S.apply_word(w) == NCPoly.word(qH.system.alphabet, ("u",) * Z2Model.antipode(i))
    gm = {"u": z2.system.gen("u"), "ui": z2.system.gen("u")}
    assert generator_map_isomorphism_problems(qH, z2, gm, {"u": qH.system.gen("u")}) == []
    assert bounded_isomorphism_checks(qH, z2, gm, 3) == []


def test_quotient_gl_is_sl(gl, sl):
    J = builtin.gl_mod_det_ideal()
    assert J.validate() == []
    qG, _ = J.quotient()
    gm = {g: NCPoly.gen(sl.system.alphabet, g) for g in ("a", "b", "c", "d")}
    gm["Di"] = NCPoly.one(sl.system.alphabet)
    inverse = {g: qG.system.gen(g) for g in ("a", "b", "c", "d")}
    assert generator_map_isomorphism_problems(qG, sl, gm, inverse) == []
    assert bounded_isomorphism_checks(qG, sl, gm, 3) == []


def _quotient_identifications(q):
    """(H/J, target, phi on generators, its inverse on generators) for
    O(U(1))/<u^2 - 1> = C[Z/2] and GL_q(2)/<D - 1> = SL_q(2), as the
    ``reduction/quotient-identifications`` record states them."""
    z2 = builtin.c_z2()
    qh, _ = builtin.u1_mod_z2_ideal().quotient()
    yield qh, z2, {"u": z2.system.gen("u"), "ui": z2.system.gen("u")}, {"u": qh.system.gen("u")}
    sl = builtin.sl_q2(q)
    qg, _ = builtin.gl_mod_det_ideal(q).quotient()
    abcd = ("a", "b", "c", "d")
    yield qg, sl, {**{g: sl.system.gen(g) for g in abcd}, "Di": sl.system.one()}, {g: qg.system.gen(g) for g in abcd}


@pytest.mark.parametrize("q", ["formal", 3])
def test_quotient_isomorphisms_agree_with_rank_loop(q):
    """The inverse-on-generators certificate and the rank loop at degree 3
    both accept each quotient identification, and both reject a Hopf map
    that is not injective (u -> 1, the counit)."""
    for H1, H2, gm, inverse in _quotient_identifications(q):
        assert generator_map_isomorphism_problems(H1, H2, gm, inverse) == []
        assert bounded_isomorphism_checks(H1, H2, gm, 3) == []
    qh, z2, _, inverse = next(_quotient_identifications(q))
    counit = {"u": z2.system.one(), "ui": z2.system.one()}
    new = generator_map_isomorphism_problems(qh, z2, counit, inverse)
    old = bounded_isomorphism_checks(qh, z2, counit, 3)
    assert [(f.check, f.where) for f in new] == [
        ("iso-inverse", "psi(phi(u))"),
        ("iso-inverse", "psi(phi(ui))"),
        ("iso-inverse", "phi(psi(u))"),
    ]
    assert [f.check for f in old] == ["iso-injective", "iso-surjective"]


def _identification_map(k):
    """The forward map of the k-th quotient identification, with its ends."""
    H1, H2, gm, _ = list(_quotient_identifications("formal"))[k]
    return gens_map("phi", H1.system, H2.system, gm, check=True), H1, H2


# each Hopf map the reports use, as (phi, H1, H2)
SHIPPED_HOPF_MAPS = {
    "pi_u1_to_z2": lambda: (builtin.pi_u1_to_z2(), builtin.o_u1(), builtin.c_z2()),
    "su_q2_to_u1@formal": lambda: (builtin.su_q2_to_u1_map(), builtin.su_q2(), builtin.o_u1()),
    "su_q2_to_u1@3": lambda: (builtin.su_q2_to_u1_map(3), builtin.su_q2(3), builtin.o_u1()),
    "u1-mod-z2-is-z2": lambda: _identification_map(0),
    "gl-mod-det-is-sl": lambda: _identification_map(1),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_HOPF_MAPS))
def test_hopf_map_certificate_agrees_with_the_word_loop(name):
    """Every shipped Hopf map passes the generator certificate and the
    forward part of the bounded isomorphism oracle up to degree 3."""
    phi, H1, H2 = SHIPPED_HOPF_MAPS[name]()
    assert hopf_map_problems(phi, H1, H2) == []
    assert bounded_hopf_map_checks(phi, H1, H2, 3) == []


def test_hopf_map_antipode_failure_shows_both_sides():
    """The identity from su_q2 to its su-antipode-sign mutant keeps the
    coproduct and the counit but not the antipode at g; the failure shows
    phi(S(g)) and S(phi(g)), as the coproduct and counit failures show theirs."""
    H, bad = builtin.su_q2(), mutants._su_antipode_sign()
    gens = {g: NCPoly.gen(bad.system.alphabet, g) for g in H.system.alphabet.gens}
    phi = gens_map("id", H.system, bad.system, gens, check=True)
    assert hopf_map_problems(phi, H, bad) == [CheckFailure("hopf-map-antipode", "g", "(-q)*g != (q)*g")]


def test_wrong_inverse_is_an_inverse_witness():
    """phi: O(U(1))/<u^2 - 1> -> C[Z/2] is an isomorphism, but u -> 1 is not
    its inverse: the certificate names the round trip that fails."""
    qh, z2, gm, _ = next(_quotient_identifications("formal"))
    fails = generator_map_isomorphism_problems(qh, z2, gm, {"u": qh.system.one()})
    assert [(f.check, f.where) for f in fails] == [
        ("iso-inverse", "psi(phi(u))"),
        ("iso-inverse", "psi(phi(ui))"),
        ("iso-inverse", "phi(psi(u))"),
    ]


def test_quotient_by_zero_ideal(z2):
    J = HopfIdeal(z2, [], name="<0>")
    qH, _ = J.quotient()
    assert qH.system.rules == z2.system.rules
    assert check_hopf_axioms(qH) == []


def test_left_coinvariants(gl, u1):
    JG = builtin.gl_mod_det_ideal()
    al = gl.system.alphabet
    assert left_coinvariant_test(gl, JG, NCPoly.gen(al, "Di"))
    assert left_coinvariant_test(gl, JG, parse_poly("a*d - Q*b*c", al))
    assert left_coinvariant_test(gl, JG, NCPoly.one(al))
    JU = builtin.u1_mod_z2_ideal()
    assert not left_coinvariant_test(u1, JU, NCPoly.gen(u1.system.alphabet, "u"))


def test_coinvariant_words_closed_under_multiplication(u1):
    J = builtin.u1_mod_z2_ideal()
    words = coinvariant_basis_words(u1, J, 2)
    assert ("u", "u") in words and ("u",) not in words
    for w1 in words:
        for w2 in words:
            prod = u1.system.mul(
                NCPoly.word(u1.system.alphabet, w1), NCPoly.word(u1.system.alphabet, w2)
            )
            assert left_coinvariant_test(u1, J, prod)


def test_group_like_inverse_property(gl, u1, z2):
    for H in (gl, u1, z2):
        for w in group_like_words(H, 2):
            p = NCPoly.word(H.system.alphabet, w)
            assert H.system.mul(H.S.apply(p), p) == H.system.one()


def test_not_hopf_ideal_raises(u1):
    al = u1.system.alphabet
    J = HopfIdeal(u1, [NCPoly.gen(al, "u") + NCPoly.one(al)], name="<u+1>")
    report = J.validate()
    assert any(f.check == "counit-kill" for f in report)
    with pytest.raises(NotHopfIdealError):
        J.quotient()


def test_not_hopf_ideal_lists_only_true_failures(u1):
    """u + 1 is no Hopf ideal: eps(u + 1) = 2 and Delta(u + 1) = 2 (1 # 1)
    mod J.  S(u + 1) = ui + 1 is in J, as the interreduced quotient
    {u -> -1, ui -> -1} shows, so antipode stability holds.  The first
    failure is the negative control's witness."""
    al = u1.system.alphabet
    J = HopfIdeal(u1, [NCPoly.gen(al, "u") + NCPoly.one(al)], name="<u+1>")
    report = J.validate()
    assert [f.check for f in report] == ["counit-kill", "coideal"]
    assert str(report[0]) == "FAIL[counit-kill @ gen[0]=1 + u]: eps(g) = 2"


def test_anti_coalgebra_property_randomized(su):
    rng = random.Random(29)
    words = su.system.basis_words(3)
    flip = lambda t: t.swap_legs(0, 1)
    for w in rng.sample(words, k=12):
        lhs = su.delta_word(w).map_leg(0, su.S.apply_word).map_leg(1, su.S.apply_word)
        rhs = flip(su.delta(su.S.apply_word(w)))
        assert lhs == rhs


# -- the relation-plus-generator certificates against the bounded oracles -----

def _first_witness(failures):
    return f"{failures[0].check} @ {failures[0].where}" if failures else None


def _oracle_cases():
    for name in builtin.HOPF_NAMES + builtin.COMODULE_NAMES:
        for q, bound in (("formal", 4), (3, 3), (-1, 3)):
            yield pytest.param(name, q, bound, id=f"{name}-{q}")
    for m in MUTANTS:
        if m.table is not None:
            yield pytest.param(m, None, 2, id=f"mutant/{m.suite}/{m.name}")


@pytest.mark.parametrize("subject, q, bound", list(_oracle_cases()))
def test_generator_certificate_agrees_with_bounded_oracle(subject, q, bound):
    """Every builtin passes both the certificate and the degree-bounded loop;
    every corrupted axiom table gets the same first witness from both."""
    if isinstance(subject, str):
        obj = builtin.build(subject, q)
    else:
        obj = subject.table()
    if isinstance(obj, HopfAlgebra):
        new, old = check_hopf_axioms(obj), bounded_hopf_axioms(obj, bound)
    else:
        new, old = obj.check_axioms(), bounded_coaction_axioms(obj, bound)
    if isinstance(subject, str):
        assert new == [] and old == []
    else:
        assert _first_witness(new) == _first_witness(old)


def _dual_numbers() -> HopfAlgebra:
    """Q[x]/(x^2) with x primitive: Delta(x^2) = 2 x (x) x is not 0, so Delta
    is no algebra map on the quotient."""
    al = Alphabet(["x"])
    sysm = RewriteSystem(al, [(("x", "x"), NCPoly.zero(al))], name="dual")
    x = NCPoly.gen(al, "x")
    delta = {"x": Tensor((sysm, sysm), {(("x",), ()): S_ONE, ((), ("x",)): S_ONE})}
    return HopfAlgebra(sysm, delta, {"x": S_ZERO}, {"x": -x}, {"x": -x}, name="dual")


def test_dual_numbers_coproduct_breaks_the_relation():
    H = _dual_numbers()
    fails = check_hopf_axioms(H)
    assert [(f.check, f.where) for f in fails] == [("delta-well-defined", "x^2")]
    # every axiom holds on the basis words {1, x}: only the relation shows it
    assert bounded_hopf_axioms(H, 4) == []


def _free_group_algebra() -> HopfAlgebra:
    """The group algebra of the free group on g and h: g and h are group-like
    and do not commute."""
    al = Alphabet(["g", "gi", "h", "hi"])
    one = NCPoly.one(al)
    sysm = RewriteSystem(
        al, [(("g", "gi"), one), (("gi", "g"), one), (("h", "hi"), one), (("hi", "h"), one)], name="F2"
    )
    inverse = {"g": "gi", "gi": "g", "h": "hi", "hi": "h"}
    delta = {z: Tensor((sysm, sysm), {((z,), (z,)): S_ONE}) for z in al.gens}
    anti = {z: NCPoly.gen(al, inverse[z]) for z in al.gens}
    return HopfAlgebra(sysm, delta, {z: S_ONE for z in al.gens}, anti, dict(anti), name="F2")


def test_coaction_must_respect_a_central_letter():
    """x and the central c coact by the group-likes g and h: the coaction is
    coassociative and counital on every word, but rho(c) rho(x) = c x (x) h g
    differs from rho(x) rho(c) = x c (x) g h."""
    H = _free_group_algebra()
    assert check_hopf_axioms(H) == []
    al = Alphabet(["x", "c"], central=["c"])
    sysm = RewriteSystem(al, [], name="P")
    legs = (sysm, H.system)
    coaction = {
        p: Tensor.of(legs, NCPoly.gen(al, p), NCPoly.gen(H.system.alphabet, z))
        for p, z in (("x", "g"), ("c", "h"))
    }
    P = ComoduleAlgebra(sysm, H, coaction, name="P")
    assert [(f.check, f.where) for f in P.check_axioms()] == [("coaction-well-defined", "c*x")]
    assert bounded_coaction_axioms(P, 4) == []
