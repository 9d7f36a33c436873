import functools
import inspect
import json
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from pcomod import builtin, mutants
from pcomod import hopf as hopf_module
from pcomod import maps as maps_module
from pcomod.comodule import CleavingMap, ComoduleAlgebra, smash_product
from pcomod.exprs import load_presentation, parse_poly
from pcomod.hopf import HopfIdeal, check_hopf_axioms, hopf_map_problems, stored
from pcomod.maps import gens_map
from pcomod.ncpoly import NCPoly
from pcomod.numgeom import GridConfig, face_atlas, rp2_membership
from pcomod.numgeom.toeplitz import _toeplitz_basis, toeplitz_flip
from pcomod.pullback import (
    Covering,
    CoveringPiece,
    NotSurjectiveError,
    PairData,
    Trivialisation,
    cotensor_ideal_sum_check,
    cotensor_membership,
    ideal_distributivity_check,
    ideal_span,
    pair_differences,
    piece_glue,
    prolong,
    reducibility_check,
)
from pcomod.rewrite import RewriteSystem
from pcomod.ncpoly import Alphabet
from pcomod.scalars import S_ONE, S_Q, Scalar
from pcomod.suites import SuiteConfig, _load_trivialisation
from pcomod.tensors import Tensor

from oracles import (
    bounded_coinvariant_compatibility,
    bounded_hopf_map_checks,
    bounded_transition_checks,
    diagonal_transition,
)


def test_sphere_covering_validates(sphere):
    assert sphere.validate() == []


def _count_certificates(monkeypatch, triv) -> Counter:
    """Forget the relation checks and the certificates ``stored`` on the
    parts of ``triv``, then count the runs (not the calls) of the comodule
    and cleaving certificates, and the relation checks by the name of the
    map (the Hopf algebra's, for the counit) whose relations they check."""
    maps = [triv.hopf.Delta, triv.hopf.S, triv.hopf.S_inv]
    maps += [p.comodule.rho for p in triv.covering.pieces] + [cl.j for cl in triv.cleavings]
    parts = [triv, triv.covering, triv.hopf] + [p.comodule for p in triv.covering.pieces] + list(triv.cleavings)
    for pair in triv.covering.pairs.values():
        maps += [pair.map_i, pair.map_j, pair.target.rho]
        parts.append(pair.target)
    for m in maps:
        monkeypatch.delitem(vars(m), "mismatches", raising=False)
    certificates = (check_hopf_axioms, ComoduleAlgebra.check_axioms, CleavingMap.verify, Covering.validate,
                    Trivialisation.validate)
    for part in parts:
        for c in certificates:
            monkeypatch.delitem(vars(part), c.__qualname__, raising=False)
    counts = Counter()
    for cls, name in ((ComoduleAlgebra, "check_axioms"), (CleavingMap, "verify")):
        body = inspect.unwrap(getattr(cls, name))

        @functools.wraps(body)
        def counted(self, _body=body, _name=name):
            counts[_name] += 1
            return _body(self)

        monkeypatch.setattr(cls, name, stored(counted))

    def counted_relations(domain, word_image, poly_image, _orig=maps_module.relation_mismatches):
        counts[word_image.__self__.name] += 1
        return _orig(domain, word_image, poly_image)

    for module in (maps_module, hopf_module):
        monkeypatch.setattr(module, "relation_mismatches", counted_relations)
    return counts


def test_validate_certifies_each_shared_part_once(sphere, monkeypatch):
    """The sphere's three faces are one comodule with one cleaving, and its
    three pairs one target reached by two maps: one validate checks the Hopf
    axioms and certifies the face, each map, the target and the cleaving
    once, each relation check included."""
    counts = _count_certificates(monkeypatch, sphere)
    assert sphere.validate() == []
    face = sphere.covering.pieces[0].comodule
    edge = sphere.covering.pairs[(0, 1)].target
    H = sphere.hopf
    relation_checks = [H.Delta.name, H.name, H.S.name, H.S_inv.name, face.rho.name, "pi_untwisted",
                       "pi_twisted", edge.rho.name, sphere.cleavings[0].j.name]
    assert counts == {"check_axioms": 1, "verify": 1, **dict.fromkeys(relation_checks, 1)}


def test_shared_failures_are_reported_for_each_index(sphere, monkeypatch):
    """A cleaving shared by the three faces, j(u) = 1, is well defined but not
    colinear: it is verified once and its failure reported for each piece."""
    face = sphere.covering.pieces[0].comodule
    one = gens_map("j_one", sphere.hopf.system, face.system, {"u": face.system.one()}, check=True)
    triv = Trivialisation(sphere.covering, sphere.hopf, [CleavingMap(face, one)] * 3)
    counts = _count_certificates(monkeypatch, triv)
    fails = triv.validate()
    assert [(f.check, f.where) for f in fails] == [("cleaving-colinear", f"piece[{i}] u") for i in range(3)]
    assert counts["verify"] == 1 and counts["j_one"] == 1


def test_validate_checks_the_hopf_premise():
    """A trivialisation over a Hopf algebra that fails its axioms does not
    validate: the su-antipode-sign mutant, S(gamma) = +q gamma, under the one
    piece B (x) H with its cleaving, whose coaction and cleaving checks read
    only Delta and eps and so pass."""
    H = mutants._su_antipode_sign()
    B = RewriteSystem(Alphabet(["x"]), [], name="line")
    sm = smash_product(B, H, name="line x su_q2/corrupt-S")
    assert sm.check_axioms() == [] and sm.cleaving().verify() == []
    triv = Trivialisation(Covering([CoveringPiece(sm, base_gens=("x",))], {}), H, [sm.cleaving()])
    fails = triv.validate()
    assert [(f.check, f.where) for f in fails[:1]] == [("antipode-left", "g")]
    assert fails == check_hopf_axioms(H)


def test_prolong_keeps_each_leg_in_its_alphabet(monkeypatch):
    """Prolonging the sphere and the patch builds no tensor with a letter
    outside its leg's algebra: the cotensor check maps Delta(w)'s first leg
    through pi into Hbar, rather than reading H's words in Hbar's rules."""
    foreign = []
    init = Tensor.__init__

    def checked_init(self, systems, terms=None, _normalized=False):
        init(self, systems, terms, _normalized)
        for key in self.terms:
            for w, system in zip(key, self.systems):
                if not set(w) <= set(system.alphabet.gens):
                    foreign.append((system.name, w))

    monkeypatch.setattr(Tensor, "__init__", checked_init)
    builtin.sphere_prolonged.__wrapped__()
    builtin.patch_prolonged.__wrapped__(builtin.q_value("formal"))
    assert foreign == []


def test_membership_examples(sphere):
    al = sphere.covering.pieces[0].comodule.system.alphabet
    one, zero = NCPoly.one(al), NCPoly.zero(al)
    assert list(pair_differences(sphere.covering, [one, one, one])) == []
    assert list(pair_differences(sphere.covering, [zero, zero, zero])) == []
    assert list(pair_differences(sphere.covering, [one, zero, zero]))
    # chi-image tuples are members: project any element of one smash copy
    p = NCPoly.word(al, ("s", "u"))
    # the twisted identification separates the copies
    assert list(pair_differences(sphere.covering, [p, p, p]))


def test_pair_differences_needs_one_entry_per_piece(sphere):
    """A short or long tuple is a ValueError, for the membership test and for
    the gluing, rather than a tuple cut to the number of pieces."""
    al = sphere.covering.pieces[0].comodule.system.alphabet
    fiber = NCPoly.one(sphere.hopf.system.alphabet)
    for size in (2, 4):
        with pytest.raises(ValueError, match="3 pieces"):
            next(pair_differences(sphere.covering, [NCPoly.one(al)] * size))
        with pytest.raises(ValueError):
            piece_glue(sphere, [NCPoly.one(al)] * size, fiber)


def test_exact_sphere_membership_agrees_with_rp2(sphere):
    """The exact covering and the numeric quantum projective plane accept the
    same triples, over every triple of the Toeplitz monomials of degree <= 2
    and their flips (12**3 = 1728, 64 of them members).  An edge map that
    sends the twisted side's s to v*z would accept 80, (s^2, s^2, s^2) among
    them, so a change to the exact gluing must keep this agreement."""
    T = builtin.toeplitz_system()
    monomials = [NCPoly.word(T.alphabet, w) for w in _toeplitz_basis(2)]
    elements = monomials + [toeplitz_flip(m) for m in monomials]
    al = sphere.covering.pieces[0].comodule.system.alphabet
    cfg = GridConfig()
    members = 0
    for tup in product(elements, repeat=3):
        exact = next(pair_differences(sphere.covering, [NCPoly(al, p.terms) for p in tup]), None) is None
        assert exact == rp2_membership(tup, cfg)[0], tup
        members += exact
    assert members == 64


def test_face_atlas_and_exact_covering_read_the_same_slot_triples(sphere):
    """face_atlas and the exact covering take one toeplitz_z2_smash triple
    and accept the same ones, over every triple of the monomials of degree
    <= 2 in s, ss and u (9**3 = 729).  The 8 members are the triples of 1
    and s*ss, whose symbols are constant: both accept the unit triple, and
    both reject the constant fiber triple (u, u, u), which the atlas misses
    by 2.0 on an edge."""
    al = sphere.covering.pieces[0].comodule.system.alphabet
    monomials = [NCPoly.word(al, w) for w in sphere.covering.pieces[0].comodule.system.basis_words(2)]
    cfg = GridConfig()
    members = []
    for tup in product(monomials, repeat=3):
        atlas = face_atlas(tup, cfg)
        exact = next(pair_differences(sphere.covering, tup), None) is None
        assert exact == atlas["pass"], tup
        if exact:
            members.append(tup)
    one, u = NCPoly.one(al), NCPoly.gen(al, "u")
    assert len(members) == 8 and (one, one, one) in members
    assert next(pair_differences(sphere.covering, [u] * 3), None) is not None
    assert face_atlas([u] * 3, cfg)["max_residual"] == pytest.approx(2.0, abs=1e-12)


def test_transition_values_and_laws(sphere):
    # T_01(u) is the base parity class v, not the counit
    t01 = sphere.transition(0, 1, ("u",))
    edge = sphere.covering.pairs[(0, 1)].target
    assert t01 == NCPoly.gen(edge.system.alphabet, "v")
    assert edge.is_coinvariant(t01)
    assert sphere.transition(0, 1, ()) == NCPoly.one(edge.system.alphabet)
    assert sphere.validate() == []
    assert bounded_transition_checks(sphere, 2) == []
    assert diagonal_transition(sphere, 0, ("u",)) == NCPoly.one(sphere.covering.pieces[0].comodule.system.alphabet).scale(
        sphere.hopf.counit_word(("u",))
    )


# -- the transition certificate against the word loop

EXAMPLE = Path(__file__).resolve().parents[1] / "scripts" / "example_covering.json"


def _with_cleavings(triv: Trivialisation, cleavings) -> Trivialisation:
    return Trivialisation(triv.covering, triv.hopf, cleavings, name=triv.name)


def _squared_cleaving(triv: Trivialisation, i: int) -> CleavingMap:
    """gamma_i(u) = U^2, gamma_i(ui) = Ui^2 on a prolonged sphere piece."""
    P = triv.covering.pieces[i].comodule
    al = P.system.alphabet
    squares = {"u": NCPoly.word(al, ("U", "U")), "ui": NCPoly.word(al, ("Ui", "Ui"))}
    return CleavingMap(P, gens_map(f"gamma-squared[{i}]", triv.hopf.system, P.system, squares, check=False))


def _every_cleaving_squared() -> Trivialisation:
    triv = builtin.sphere_prolonged().trivialisation
    return _with_cleavings(triv, [_squared_cleaving(triv, i) for i in range(triv.covering.size)])


def _edge_coaction_breaks_relation() -> Trivialisation:
    """The sphere with the (0,1) edge coacting z -> z (x) u: z*zi = 1 goes to
    1 (x) u, which is not 1 (x) 1."""
    sphere = builtin.sphere_covering()
    cov = sphere.covering
    pair = cov.pairs[(0, 1)]
    edge = pair.target
    z = Tensor((edge.system, edge.hopf.system), {(("z",), ("u",)): S_ONE})
    bad = ComoduleAlgebra(edge.system, edge.hopf, {**edge.coaction_table, "z": z}, name="bad edge")
    pairs = {**cov.pairs, (0, 1): replace(pair, target=bad)}
    return Trivialisation(Covering(cov.pieces, pairs, name=cov.name), sphere.hopf, sphere.cleavings)


_TRIVIALISATIONS = {
    "sphere_covering": builtin.sphere_covering,
    "sphere_prolonged": lambda: builtin.sphere_prolonged().trivialisation,
    "patch_prolonged-formal": lambda: builtin.patch_prolonged("formal").trivialisation,
    "patch_prolonged-3": lambda: builtin.patch_prolonged(3).trivialisation,
    "example_covering": lambda: _load_trivialisation(SuiteConfig(suite="transition", covering=str(EXAMPLE))),
}


@pytest.mark.parametrize("name", list(_TRIVIALISATIONS))
def test_transition_certificate_agrees_with_word_loop(name):
    """Every trivialisation the program builds passes the certificate and the
    transition-law word loop at degree 3."""
    triv = _TRIVIALISATIONS[name]()
    assert triv.validate() == []
    assert bounded_transition_checks(triv, 3) == []


def test_bad_trivialisations_fail_the_certificate_where_the_word_loop_does():
    """Each trivialisation the word loop at degree 3 rejects, the certificate
    rejects too; the certificate also rejects two that the loop passes, whose
    transition laws hold but whose premises do not."""
    sphere = builtin.sphere_covering()
    pro = builtin.sphere_prolonged().trivialisation
    cases = {
        "edge-map-forgets-twist": Trivialisation(mutants._edge_map_forgets_twist(), sphere.hopf, sphere.cleavings),
        "piece-0-cleaving-squared": _with_cleavings(pro, [mutants._prolonged_cleaving_squared()] + pro.cleavings[1:]),
        "every-cleaving-squared": _every_cleaving_squared(),
        "edge-coaction-breaks-relation": _edge_coaction_breaks_relation(),
    }
    found = {}
    for name, triv in cases.items():
        new, old = triv.validate(), bounded_transition_checks(triv, 3)
        assert new or not old, name
        found[name] = ({f.check for f in new}, [(f.check, f.where) for f in old])
    checks, old = found["edge-map-forgets-twist"]
    assert "pair-map-colinear" in checks and old[0] == ("transition-coinvariant", "T_01(u)")
    checks, old = found["piece-0-cleaving-squared"]
    assert "cleaving-colinear" in checks and old
    assert found["every-cleaving-squared"] == ({"cleaving-colinear"}, [])
    checks, old = found["edge-coaction-breaks-relation"]
    assert "pair-coaction-well-defined" in checks and old == []


def test_equal_cleavings_give_counit_transitions(z2_smash):
    piece = CoveringPiece(z2_smash, base_gens=("s", "ss"))
    edge = z2_smash  # identify both pieces with themselves
    ident = {g: NCPoly.gen(z2_smash.system.alphabet, g) for g in z2_smash.system.alphabet.gens}
    pd = PairData(
        z2_smash,
        gens_map("p0", z2_smash.system, z2_smash.system, ident, check=False),
        gens_map("p1", z2_smash.system, z2_smash.system, ident, check=False),
    )
    cov = Covering([piece, piece], {(0, 1): pd}, name="two-copies")
    triv = Trivialisation(cov, z2_smash.hopf, [z2_smash.cleaving()] * 2)
    H = triv.hopf
    for w in H.system.basis_words(2):
        want = z2_smash.system.one().scale(H.counit_word(w))
        assert triv.transition(0, 1, w) == want


def test_reducibility_positive_and_negative(sphere_pro, plane_smash):
    J = builtin.u1_mod_z2_ideal()
    assert reducibility_check(sphere_pro.trivialisation, J) == []
    # the frame bundle is obstructed at generic q
    sm = plane_smash
    cov = Covering([CoveringPiece(sm, base_gens=("x", "y"))], {}, name="single")
    triv = Trivialisation(cov, sm.hopf, [sm.cleaving()])
    JG = builtin.gl_mod_det_ideal()
    witnesses = reducibility_check(triv, JG)
    assert witnesses
    w = next(f for f in witnesses if f.check == "action-annihilates-base")
    assert "x" in w.detail and "q^3" in w.detail
    # and trivially reducible for the zero ideal
    J0 = HopfIdeal(sm.hopf, [], name="<0>")
    assert reducibility_check(triv, J0) == []


def test_transition_kills_ideal_exactly(sphere_pro):
    J = builtin.u1_mod_z2_ideal()
    triv = sphere_pro.trivialisation
    for (i, j) in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)):
        for g in J.gens:
            assert triv.transition_poly(i, j, g).is_zero()


def test_cleavings_agree_on_coinvariants(sphere_pro):
    """Annihilating the ideal makes the trivialisations compatible on the
    coinvariant subalgebra: the glued reduction map is well defined. Part (a)
    of the verdict proves it in every degree; the word loop checks degree 2."""
    J = builtin.u1_mod_z2_ideal()
    witnesses = reducibility_check(sphere_pro.trivialisation, J)
    assert [f for f in witnesses if f.check != "action-annihilates-base"] == []
    assert bounded_coinvariant_compatibility(sphere_pro.trivialisation, J, 2) == []


def _unit_ideal(H) -> HopfIdeal:
    """<u - 1>, the kernel of the counit of C[Z/2]."""
    return HopfIdeal(H, [H.system.gen("u") - H.system.one()], name="<u-1>")


def test_twisted_sphere_fails_part_a_and_the_coinvariant_loop(sphere):
    """For J = <u - 1> every element of C[Z/2] is left coinvariant, and the
    sphere's parity twist makes T_01(u) the class v, not 1: part (a) of the
    verdict and the word loop both reject it."""
    J = _unit_ideal(sphere.hopf)
    transition = [f for f in reducibility_check(sphere, J) if f.check != "action-annihilates-base"]
    assert transition
    assert {f.check for f in transition} == {"transition-annihilates-J"}
    old = bounded_coinvariant_compatibility(sphere, J, 2)
    assert ("transition-counit-on-D", "T_01(u)") in [(f.check, f.where) for f in old]


def test_noncommutative_pair_target_is_not_certified(tmp_path):
    """Two pieces of toeplitz_z2_smash with empty kernels: the pair target is
    the smash product itself, where s*ss != ss*s, so T_01 killing the
    generator of J = <u - 1> proves nothing about J. The verdict says so with
    ``pair-target-commutative``. T_01 = eta eps on all of C[Z/2], so it does
    kill J here: the premise fails, the claim does not."""
    doc = {"base": "toeplitz_z2_smash", "pieces": [{"kernel": [], "cleaving": {"u": "u"}}] * 2}
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(doc))
    triv = _load_trivialisation(SuiteConfig(suite="transition", covering=str(path)))
    H = triv.hopf
    witnesses = reducibility_check(triv, _unit_ideal(H))
    assert witnesses
    assert [(f.check, f.where) for f in witnesses] == [("pair-target-commutative", "(0,1)")]
    target = triv.covering.pair_maps(0, 1)[0].system
    for w in H.system.basis_words(2):
        assert triv.transition(0, 1, w) == target.one().scale(H.counit_word(w))
    assert bounded_coinvariant_compatibility(triv, _unit_ideal(H), 2) == []


def test_cotensor_membership_examples(u1):
    T = builtin.toeplitz_comodule()  # s -> s (x) u over C(Z2)
    z2 = T.hopf
    pi = builtin.pi_u1_to_z2()

    def left_coact(w):
        t = Tensor(
            (u1.system, u1.system),
            {(w1, w2): c for (w1, w2), c in u1.delta_word(w).terms.items()},
        )
        return t.map_leg(0, pi.apply_word, codomain=z2.system)

    sysT = T.system
    s = NCPoly.gen(sysT.alphabet, "s")
    u = NCPoly.gen(u1.system.alphabet, "u")
    one_t = Tensor.of((sysT, u1.system), sysT.one(), u1.system.one())
    assert cotensor_membership(one_t, T.coact_word, left_coact)
    assert cotensor_membership(Tensor.of((sysT, u1.system), s, u), T.coact_word, left_coact)
    assert not cotensor_membership(
        Tensor.of((sysT, u1.system), s, u1.system.one()), T.coact_word, left_coact
    )


def test_prolong_certificates_and_identity(sphere, sphere_pro):
    assert sphere_pro.report == []
    triv = sphere_pro.trivialisation
    assert triv.validate() == []
    assert bounded_transition_checks(triv, 2) == []
    # prolonging along the identity reproduces the transition data
    H = builtin.c_z2()
    ident = gens_map(
        "id", H.system, H.system, {"u": NCPoly.gen(H.system.alphabet, "u")}, check=False
    )
    pro_id = prolong(sphere, ident, H, fiber_names={"u": "uf"})
    assert pro_id.report == []
    t_base = sphere.transition(0, 1, ("u",))
    t_pro = pro_id.trivialisation.transition(0, 1, ("u",))
    assert t_pro.coeff(("v",)) == t_base.coeff(("v",)) == S_ONE


def test_prolong_su_patches():
    """Peter-Weyl patches over the circle prolong along the quantum-group surjection."""
    P, cl = builtin.pw_patch()
    su = builtin.su_q2()
    pro = builtin.patch_prolonged()
    assert pro.report == []
    # the fiber dictionary sends A to w (x) a and G to wi (x) g
    d = pro.dictionaries[0]
    sysP = P.system
    assert d.apply_word(("A",)) == Tensor((sysP, su.system), {(("w",), ("a",)): S_ONE})
    assert d.apply_word(("G",)) == Tensor((sysP, su.system), {(("wi",), ("g",)): S_ONE})
    # the prolonged piece carries the quantum-group relations on the fiber
    psys = pro.trivialisation.covering.pieces[0].comodule.system
    ag = NCPoly.word(psys.alphabet, ("A", "G"))
    ga = NCPoly.word(psys.alphabet, ("G", "A"))
    assert psys.normal_form(ag - ga.scale(S_Q)).is_zero()
    # the disc coordinate commutes with the fiber
    ta = NCPoly.word(psys.alphabet, ("A", "t"))
    assert psys.normal_form(ta) == NCPoly.word(psys.alphabet, ("t", "A"))


def test_patch_prolongation_reduces_back():
    """The second shipped prolong-then-reduce instance: the quantum-group
    prolongation of the patch reduces along the gamma kernel."""
    pro = builtin.patch_prolonged()
    J = builtin.su_gamma_ideal()
    assert J.validate() == []
    assert reducibility_check(pro.trivialisation, J) == []


def test_prolong_at_the_classical_point():
    """At q = 1 the fiber algebra is commutative: its commutation rules hold
    already among the central fiber generators and are not installed."""
    pro = builtin.patch_prolonged(1)
    assert pro.report == []
    psys = pro.trivialisation.covering.pieces[0].comodule.system
    al = psys.alphabet
    assert {"A", "As", "G", "Gs"} <= al.central
    assert all(r.rhs != NCPoly.word(al, r.lhs_word) for r in psys.rules)
    ag = NCPoly.word(al, ("A", "G"))
    assert psys.normal_form(ag) == NCPoly.word(al, ("G", "A"))
    assert reducibility_check(pro.trivialisation, builtin.su_gamma_ideal(1)) == []


def test_prolong_requires_surjection(sphere):
    H = builtin.o_u1()
    z2 = builtin.c_z2()
    alz = z2.system.alphabet
    not_onto = gens_map(
        "pi1", H.system, z2.system,
        {"u": NCPoly.one(alz), "ui": NCPoly.one(alz)}, check=True,
    )
    with pytest.raises(NotSurjectiveError):
        prolong(sphere, not_onto, H, fiber_names={"u": "U", "ui": "Ui"})


# C[Z/2 x Z/2]: two commuting group-like involutions
Z2_X_Z2 = {
    "name": "c_z2xz2",
    "generators": ["u", "v"],
    "central": ["u", "v"],
    "scalar_tower": "Q",
    "relations": ["u*u = 1", "v*v = 1"],
    "hopf": {
        "delta": {"u": "u # u", "v": "v # v"},
        "counit": {"u": "1", "v": "1"},
        "antipode": {"u": "u", "v": "v"},
        "antipode_inv": {"u": "u", "v": "v"},
    },
}


def test_prolong_along_a_surjection_that_is_not_a_hopf_map(sphere):
    """u -> u, v -> -1 is an algebra map C[Z/2 x Z/2] -> C[Z/2] with a
    preimage of each generator, but not a coalgebra map: Delta(v) = v (x) v
    goes to 1 (x) 1, and eps(v) = 1 to -1. The certificate and the degree-2
    word loop reject it at v, and prolong along it reports that first."""
    _, H = load_presentation(Z2_X_Z2)
    z2 = builtin.c_z2()
    assert check_hopf_axioms(H) == []
    al = z2.system.alphabet
    pi = gens_map("pi_bad", H.system, z2.system, {"u": NCPoly.gen(al, "u"), "v": -NCPoly.one(al)}, check=True)
    fails = hopf_map_problems(pi, H, z2)
    assert [(f.check, f.where) for f in fails] == [("hopf-map-coproduct", "v"), ("hopf-map-counit", "v")]
    words = {f.where for f in fails}
    assert [(f.check, f.where) for f in bounded_hopf_map_checks(pi, H, z2, 2) if f.where in words] == [
        (f.check, f.where) for f in fails
    ]
    pro = prolong(sphere, pi, H, fiber_names={"u": "U", "v": "V"})
    assert pro.report[: len(fails)] == fails
    assert builtin.sphere_prolonged().report == []


def test_piece_glue(sphere, sphere_pro):
    al = sphere.covering.pieces[0].comodule.system.alphabet
    one = NCPoly.one(al)
    tup = piece_glue(sphere, [one] * 3, NCPoly.one(sphere.hopf.system.alphabet))
    assert all(p == one for p in tup)
    assert list(pair_differences(sphere.covering, tup)) == []
    u = NCPoly.gen(sphere.hopf.system.alphabet, "u")
    first = next(pair_differences(sphere.covering, piece_glue(sphere, [one] * 3, u)), None)
    assert first is not None and not first[2].is_zero()
    # the even fiber glues on the prolonged covering
    triv = sphere_pro.trivialisation
    alp = triv.covering.pieces[0].comodule.system.alphabet
    u2 = NCPoly.word(builtin.o_u1().system.alphabet, ("u", "u"))
    tup = piece_glue(triv, [NCPoly.one(alp)] * 3, u2)
    assert all(p == NCPoly.word(alp, ("U", "U")) for p in tup)
    assert list(pair_differences(triv.covering, tup)) == []


def test_membership_and_glue_share_the_pair_differences(sphere):
    """piece_glue of the unit base tuple and the fiber u is the tuple of
    cleaving images of u; pair_differences yields a nonzero difference at a
    pair of the covering for each pair where it fails to glue, the same
    ones on both, and the negative control's witnesses name those pairs."""
    u = NCPoly.gen(sphere.hopf.system.alphabet, "u")
    pieces = sphere.covering.pieces
    tup = [cl.j.apply(u) for cl in sphere.cleavings]
    diffs = list(pair_differences(sphere.covering, tup))
    assert diffs
    assert all((i, j) in sphere.covering.pairs and not d.is_zero() for i, j, d in diffs)
    glued = piece_glue(sphere, [NCPoly.one(p.comodule.system.alphabet) for p in pieces], u)
    assert glued == tup
    assert list(pair_differences(sphere.covering, glued)) == diffs
    assert mutants._constant_fiber_tuple_rejected() == [f"multipullback @ ({i},{j})" for i, j, _ in diffs]


def test_ideal_spans_and_distributivity():
    sq = Alphabet(("v", "w"), central=("v", "w"))
    one = NCPoly.one(sq)
    sysq = RewriteSystem(sq, [(("v", "v"), one), (("w", "w"), one)], name="z2xz2")
    g1 = [NCPoly.gen(sq, "v") - one]
    g2 = [NCPoly.gen(sq, "w") - one]
    g3 = [NCPoly.word(sq, ("v", "w")) - one]
    assert ideal_distributivity_check(sysq, g1, g2, g3, bound=4) == []
    span1 = ideal_span(sysq, g1, 3)
    assert span1.contains(dict(sysq.normal_form(NCPoly.word(sq, ("v", "w")) - NCPoly.gen(sq, "w")).terms))
    assert not span1.contains(dict(sysq.normal_form(NCPoly.gen(sq, "w") - one).terms))


def test_cotensor_ideal_sum(sphere_pro):
    base = builtin.toeplitz_system()
    prol = sphere_pro.trivialisation.covering.pieces[0].comodule.system
    al = base.alphabet
    k1 = NCPoly.one(al) - NCPoly.word(al, ("s", "ss"))
    k2 = NCPoly.gen(al, "s") - NCPoly.word(al, ("s", "s", "ss"))
    assert cotensor_ideal_sum_check(base, prol, k1, k2, bound=3) == []


def test_kernel_covering_certificate(z2_smash):
    al = z2_smash.system.alphabet
    proj = NCPoly.one(al) - NCPoly.word(al, ("s", "ss"))
    cov = Covering.from_kernels(z2_smash, [[proj], []], base_gens=[("s", "ss")] * 2)
    assert cov.kernel_intersection_certificate(3) == []
    bad = Covering.from_kernels(z2_smash, [[proj], [proj]], base_gens=[("s", "ss")] * 2)
    fails = bad.kernel_intersection_certificate(3)
    assert fails and fails[0].check == "kernel-intersection"


def test_prolong_reports_a_shared_face_once_per_piece(sphere):
    """A face that several pieces share is prolonged once, and its
    certificate failures are reported under each piece index that holds
    it: here the cleaving u -> 1, which is not colinear."""
    face = sphere.covering.pieces[0].comodule
    one = gens_map("gamma-one", sphere.hopf.system, face.system, {"u": face.system.one()}, check=True)
    triv = Trivialisation(sphere.covering, sphere.hopf, [CleavingMap(face, one)] * 3)
    pro = prolong(triv, builtin.pi_u1_to_z2(), builtin.o_u1(), fiber_names={"u": "U", "ui": "Ui"})
    assert [f.where for f in pro.report if f.check == "cotensor-membership"] == [
        f"piece[{i}] fiber {z}" for i in range(3) for z in ("u", "ui")
    ]
    assert len({id(p.comodule) for p in pro.trivialisation.covering.pieces}) == 1
