import random
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from pcomod import builtin, mutants
from pcomod.comodule import (
    CleavingMap,
    NotModuleAlgebraError,
    StrongConnection,
    canonical_map,
    over_quotient,
    smash_product,
    verify_strong_connection,
)
from pcomod.exprs import parse_poly
from pcomod.maps import NotWellDefinedError, gens_map
from pcomod.ncpoly import NCPoly
from pcomod.scalars import GaussRat, S_ONE, Scalar
from pcomod.suites import SuiteConfig, _load_trivialisation, suite_strong_connection
from pcomod.tensors import Tensor

from oracles import (
    bounded_cleaving_checks,
    cleaving_connection_table,
    reference_prolonged_presentations,
    reference_smash,
    reference_sphere_edge,
    unit_counit_map,
    verify_theta_properties,
)


def test_coinvariance_examples():
    T = builtin.toeplitz_comodule()
    al = T.system.alphabet
    assert T.is_coinvariant(T.system.normal_form(NCPoly.word(al, ("ss", "s"))))
    assert T.is_coinvariant(NCPoly.word(al, ("s", "ss")))
    assert not T.is_coinvariant(NCPoly.gen(al, "s"))
    assert T.is_coinvariant(NCPoly.one(al))
    assert T.check_axioms() == []


def test_canonical_map_examples(z2_smash):
    T = builtin.toeplitz_comodule()
    sysm = T.system
    s = NCPoly.gen(sysm.alphabet, "s")
    one = sysm.one()
    # can(p (x) 1) = p (x) 1
    p = sysm.normal_form(NCPoly.word(sysm.alphabet, ("s", "ss")))
    got = canonical_map(T, Tensor.of((sysm, sysm), p, one))
    assert got == Tensor((sysm, T.hopf.system), {(("s", "ss"), ()): S_ONE})
    # can(1 (x) s) = s (x) u
    got = canonical_map(T, Tensor.of((sysm, sysm), one, s))
    assert got == Tensor((sysm, T.hopf.system), {(("s",), ("u",)): S_ONE})
    # axiom-1 composition on every basis word of the fiber
    ell = StrongConnection.from_cleaving(z2_smash.cleaving())
    H = z2_smash.hopf
    for w in H.system.basis_words(4):
        got = canonical_map(z2_smash, ell.apply_word(w))
        assert got == Tensor((z2_smash.system, H.system), {((), w): S_ONE})


def test_smash_strong_connection_values(z2_smash):
    ell = StrongConnection.from_cleaving(z2_smash.cleaving())
    sysm = z2_smash.system
    u = sysm.alphabet
    # ell(u) = (1 (x) u) (x) (1 (x) u) in the flat presentation
    assert ell.apply_word(("u",)) == Tensor((sysm, sysm), {(("u",), ("u",)): S_ONE})
    assert ell.apply_word(()) == Tensor.of((sysm, sysm), sysm.one(), sysm.one())
    assert verify_strong_connection(ell, 4) == []


def test_u1_smash_strong_connection(u1_smash):
    ell = StrongConnection.from_cleaving(u1_smash.cleaving())
    assert verify_strong_connection(ell, 4) == []


def test_pw_patch_connection():
    P, cl = builtin.pw_patch()
    assert cl.verify() == []
    assert bounded_cleaving_checks(cl, 2) == []
    ell = StrongConnection.from_cleaving(cl)
    sysm = P.system
    # ell(u) = (omega a)^* (x) (omega a) in the patch avatar
    assert ell.apply_word(("u",)) == Tensor(
        (sysm, sysm), {(("wi",), ("w",)): S_ONE}
    )
    assert verify_strong_connection(ell, 2) == []


def test_corrupted_connection_fails_axiom_1(z2_smash):
    ell = StrongConnection.from_cleaving(z2_smash.cleaving())
    bad = Tensor((z2_smash.system, z2_smash.system), {(("u",), ()): S_ONE})
    fails = verify_strong_connection(
        StrongConnection(z2_smash, lambda w: bad if w == ("u",) else ell.apply_word(w)), 2
    )
    assert any(f.check == "connection-axiom-1" and f.where == "u" for f in fails)


def test_smash_construction_and_failure():
    B = builtin.quantum_plane()
    H = builtin.gl_q2()
    sm = builtin.plane_gl_smash()
    assert sm.action.module_algebra_problems() == []
    al = sm.system.alphabet
    # a x = q^-2 x a and Di x = q^3 x Di inside the smash
    assert sm.system.normal_form(NCPoly.word(al, ("a", "x"))) == NCPoly.word(al, ("x", "a")).scale(
        Scalar.q_power(-2)
    )
    assert sm.system.normal_form(NCPoly.word(al, ("Di", "x"))) == NCPoly.word(al, ("x", "Di")).scale(
        Scalar.q_power(3)
    )
    table = dict(builtin.plane_action_table())
    table[("a", "x")] = NCPoly.gen(B.alphabet, "x").scale(Scalar.q_power(-1))
    with pytest.raises(NotModuleAlgebraError) as exc:
        smash_product(B, H, table, name="bad")
    assert "module-algebra" in str(exc.value)


def test_tensor_check_commutator_reads_the_action():
    """The smash/trivial-action-tensor record's u*s - s*u comes from the
    action table: zero for the trivial action, -2 s*u for the flip u |> s = -s."""
    from pcomod.suites import _tensor_check_commutator

    assert _tensor_check_commutator({"s": "s", "ss": "ss"}).is_zero()
    flip = _tensor_check_commutator({"s": "-s", "ss": "-ss"})
    assert not flip.is_zero()
    assert flip == NCPoly.word(flip.alphabet, ("s", "u")).scale(Scalar.of(-2))


_PATCH_FIBER = {"a": "A", "as": "As", "g": "G", "gs": "Gs"}


def test_trivial_smash_fiber_is_central_exactly_when_h_is_commutative():
    """With no action table H's letters are central when H is commutative;
    over SU_q(2) they move right past B's letters and H reduces the suffix."""
    B = builtin.toeplitz_system()
    for H in (builtin.c_z2(), builtin.o_u1()):
        sm = smash_product(B, H)
        assert sm.system.alphabet.central == frozenset(H.system.alphabet.gens)
        assert sm.system.suffix_system is None
    H = builtin.su_q2()
    sm = smash_product(B, H, fiber_names=_PATCH_FIBER)
    al = sm.system.alphabet
    assert al.central == frozenset() and sm.h_gens == ("G", "Gs", "A", "As")
    assert sm.system.suffix_system == H.system.renamed(_PATCH_FIBER)
    assert sm.system.normal_form(NCPoly.word(al, ("G", "s"))) == NCPoly.word(al, ("s", "G"))
    assert sm.check_axioms() == [] and sm.cleaving().verify() == []


def _trivial_table(H, B):
    return {
        (z, b): NCPoly.gen(B.alphabet, b).scale(H.counit_table[z])
        for z in H.system.alphabet.gens
        for b in B.alphabet.gens
    }


def _patch_trivialisation():
    from pcomod.pullback import Covering, CoveringPiece, Trivialisation

    P, cl = builtin.pw_patch()
    return Trivialisation(Covering([CoveringPiece(P, base_gens=("t",))], {}), P.hopf, [cl])


def _sphere_prolonged_reference(k: int):
    """The k-th prolonged sphere piece (k < 3), else pair target k - 3."""
    return reference_prolonged_presentations(builtin.sphere_covering(), builtin.o_u1(), {"u": "U", "ui": "Ui"})[k]


def _sphere_prolonged_built(k: int):
    cov = builtin.sphere_prolonged().trivialisation.covering
    return cov.pieces[k].comodule if k < 3 else list(cov.pairs.values())[k - 3].target


# name -> (the builtin B (x) H, its presentation by the former builder)
_PRESENTATIONS = {
    **{
        name: (
            lambda name=name: builtin.build(name),
            lambda hopf=hopf, name=name: reference_smash(
                builtin.toeplitz_system(), hopf(), _trivial_table(hopf(), builtin.toeplitz_system()), name, True
            ),
        )
        for name, hopf in (("toeplitz_z2_smash", builtin.c_z2), ("toeplitz_u1_smash", builtin.o_u1))
    },
    **{
        f"plane_gl_smash-{q}": (
            lambda q=q: builtin.plane_gl_smash(q),
            lambda q=q: reference_smash(
                builtin.quantum_plane(q), builtin.gl_q2(q), builtin.plane_action_table(q), "plane_gl_smash", False
            ),
        )
        for q in ("formal", 3)
    },
    "sphere_edge": (builtin._sphere_edge, reference_sphere_edge),
    **{
        f"sphere_prolonged-{label}": (partial(_sphere_prolonged_built, k), partial(_sphere_prolonged_reference, k))
        for k, label in enumerate(["piece0", "piece1", "piece2", "pair01", "pair02", "pair12"])
    },
    **{
        f"patch_prolonged-{q}-piece0": (
            lambda q=q: builtin.patch_prolonged(q).trivialisation.covering.pieces[0].comodule,
            lambda q=q: reference_prolonged_presentations(_patch_trivialisation(), builtin.su_q2(q), _PATCH_FIBER)[0],
        )
        for q in ("formal", 3)
    },
}


@pytest.mark.parametrize("name", list(_PRESENTATIONS))
def test_presentation_matches_its_former_builder(name):
    """smash_product presents each B (x) H exactly as the builder it replaced:
    the same alphabet, central set, rules in order and suffix system, the
    same system name and the same coaction table."""
    built, ref = _PRESENTATIONS[name]
    P = built()
    system, coaction = ref()
    assert P.system == system
    assert P.system.name == system.name
    assert P.coaction_table == coaction


def test_smash_coinvariants(z2_smash):
    al = z2_smash.system.alphabet
    for b in z2_smash.b_gens:
        assert z2_smash.is_coinvariant(NCPoly.gen(al, b))
    for z in z2_smash.h_gens:
        assert not z2_smash.is_coinvariant(NCPoly.gen(al, z))


def test_coaction_counit_law_randomized(plane_smash, z2_smash, u1_smash):
    """(id (x) eps) o coaction = id on 1000 random degree-<= 4 elements per
    builtin comodule algebra."""
    rng = random.Random(31)
    comodules = [
        plane_smash,
        z2_smash,
        u1_smash,
        builtin.toeplitz_comodule(),
        builtin.o_u1_over_z2(),
        builtin.pw_patch()[0],
    ]
    for P in comodules:
        sysm = P.system
        words = sysm.basis_words(4)
        H = P.hopf
        for _ in range(1000 // len(comodules) + 1):
            terms = {
                w: Scalar.of(GaussRat(rng.randint(-2, 2)))
                for w in rng.sample(words, k=min(4, len(words)))
            }
            p = sysm.normal_form(NCPoly(sysm.alphabet, terms))
            got = P.coact(p).contract_leg(1, H.counit_word).leg_poly(0)
            assert got == p


def test_frame_candidate_mismatch(plane_smash):
    """Centrality of the would-be reduction map fails against the plane."""
    sm = plane_smash
    al = sm.hopf.system.alphabet
    Di = NCPoly.gen(al, "Di")
    f_img = sm.system.normal_form(NCPoly.gen(sm.system.alphabet, "Di"))
    x = NCPoly.gen(sm.system.alphabet, "x")
    diff = sm.system.normal_form(
        sm.system.mul(x, f_img) - sm.system.mul(f_img, x)
    )
    want = sm.system.normal_form(
        NCPoly.word(sm.system.alphabet, ("x", "Di")).scale(S_ONE - Scalar.q_power(3))
    )
    assert diff == want and not diff.is_zero()


def test_theta_roundtrip_and_obstruction(plane_smash):
    """The reference theta check on the candidate of frame_bundle_obstruction,
    theta = eps as an algebra map into the plane: it is unital and
    anti-multiplicative on D (D Di = 1 in GL_q(2)), but the commutation rule
    fails at (Di, x) by a factor q^3."""
    sm = plane_smash
    H = sm.hopf
    al = H.system.alphabet
    theta = unit_counit_map(H, sm.b_system)
    D = parse_poly("a*d - Q*b*c", al)
    fails = verify_theta_properties(theta, sm, [NCPoly.gen(al, "Di"), D])
    kinds = {f.check for f in fails}
    assert kinds == {"theta-commutation"}
    witness = next(f for f in fails if "k=Di, b=x" in f.where)
    assert "q^3" in witness.detail
    # anti-multiplicativity instance theta(D Di) = theta(Di) theta(D) = 1
    DDi = H.system.mul(D, NCPoly.gen(al, "Di"))
    assert DDi == H.system.one()


def test_principal_pair_certificates():
    """Both quotient pairs pass the certificates their records read: the
    circle pair its one-step lift on every quotient word, the determinant
    pair its comodule axioms and its cleaving."""
    ell = builtin.u1_mod_z2_connection()
    assert ell.P.check_axioms() == verify_strong_connection(ell, 3) == []
    cl = builtin.gl_mod_det_cleaving()
    assert cl.P.check_axioms() == cl.verify() == []


def test_u1_mod_z2_pair_covers_every_word_at_bound_one():
    """The o_u1-mod-z2 quotient C[Z/2] has no irreducible word of degree 2,
    so its basis is {1, u}, and the one-step lift at bound 1 checks every
    quotient word: it finds what bound 3 finds, which is nothing."""
    ell = builtin.u1_mod_z2_connection()
    assert ell.P.name == "o_u1 over o_u1/<u^2-1>"
    assert [w for w in ell.P.hopf.system.basis_words(2) if len(w) == 2] == []
    assert ell.P.hopf.system.basis_words(5) == [(), ("u",)]
    assert verify_strong_connection(ell, 1) == verify_strong_connection(ell, 3) == []


def test_u1_mod_z2_record_fails_without_its_basis_premise(monkeypatch, u1):
    """The o_u1-mod-z2 record reads bound 1 as every element only where the
    quotient has no irreducible word of degree 2: on O(U(1)) over itself,
    whose lift passes at bound 1, it fails on the premise."""
    ident = gens_map("id", u1.system, u1.system, {g: u1.system.gen(g) for g in u1.system.alphabet.gens})
    ell = StrongConnection(over_quotient(ident, u1, u1), lambda w: u1.delta_word(w).map_leg(0, u1.S.apply_word))
    assert verify_strong_connection(ell, 1) == []
    monkeypatch.setattr(builtin, "u1_mod_z2_connection", lambda: ell)
    records = {r.id: r for r in suite_strong_connection(SuiteConfig(suite="strong-connection"))}
    rec = records["quotient-pair-principal/o_u1-mod-z2"]
    assert rec.status == "fail" and rec.witness.startswith("FAIL[quotient-basis @ ")


def test_o_u1_over_z2_is_the_quotient_builder_on_the_parity_map(u1, z2):
    """over_quotient along pi_u1_to_z2 gives the table u -> u (x) u,
    ui -> ui (x) u under the name o_u1 over c_z2."""
    P = builtin.o_u1_over_z2()
    Ts = (u1.system, z2.system)
    assert P.name == "o_u1 over c_z2" and P.system is u1.system and P.hopf is z2
    assert P.coaction_table == {
        "u": Tensor(Ts, {(("u",), ("u",)): S_ONE}),
        "ui": Tensor(Ts, {(("ui",), ("u",)): S_ONE}),
    }


def _gl_sl_variant(images: dict, check: bool) -> CleavingMap:
    """The determinant pair's cleaving with some generator images replaced."""
    cl = builtin.gl_mod_det_cleaving()
    P = cl.P
    return CleavingMap(P, gens_map("j_variant", P.hopf.system, P.system, {**cl.j.gen_images, **images}, check=check))


@pytest.mark.parametrize("q", ["formal", 1, 2, 3, -1])
def test_gl_mod_det_cleaving_certified_at_each_q(q):
    """GL_q(2) is cleft over SL_q(2): the cleaving a -> Di*a, b -> Di*b,
    c -> c, d -> d, Di -> 1 passes its certificate, and the comodule its
    axioms, at formal q and at q = 1, 2, 3, -1."""
    cl = builtin.gl_mod_det_cleaving(q)
    assert cl.P.name == "gl_q2 over gl_q2/<D-1>"
    assert cl.P.check_axioms() == []
    assert cl.verify() == []


def test_gl_mod_det_rescaled_cleaving_is_not_colinear():
    """b -> 2*Di*b, c -> c/2 respects every relation (each relation has as
    many b's as c's in each word), so gens_map accepts it, but it is not
    colinear: rho(j(a)) has Di*b (x) c where (j (x) id) Delta(a) has
    2*Di*b (x) c."""
    cl = builtin.gl_mod_det_cleaving()
    sysH = cl.P.system
    half = Scalar.of(GaussRat(Fraction(1, 2)))
    bad = _gl_sl_variant({"b": cl.j.gen_images["b"].scale(Scalar.of(2)), "c": sysH.gen("c").scale(half)}, check=True)
    fails = bad.verify()
    assert [(f.check, f.where) for f in fails[:1]] == [("cleaving-colinear", "a")]


def test_gl_mod_det_unscaled_a_is_not_well_defined():
    """j(a) = a breaks the row grading: q*a*d = q*d*a + (q^2 - 1)*b*c goes to
    a relation with Di in one word only. gens_map refuses it, and the
    cleaving certificate names the broken relation first."""
    a = builtin.gl_mod_det_cleaving().P.system.gen("a")
    with pytest.raises(NotWellDefinedError):
        _gl_sl_variant({"a": a}, check=True)
    fails = _gl_sl_variant({"a": a}, check=False).verify()
    assert fails[0].check == "cleaving-well-defined"


# -- the generator certificate and the memoised connections against the word loops

def _patch_breaks_relation() -> CleavingMap:
    """j(u) = j(ui) = w: colinear at u, but j(u) j(ui) = w^2 is not 1."""
    P, _ = builtin.pw_patch()
    w = NCPoly.gen(P.system.alphabet, "w")
    return CleavingMap(P, gens_map("j_breaks_relation", P.hopf.system, P.system, {"u": w, "ui": w}, check=False))


EXAMPLE = Path(__file__).resolve().parents[1] / "scripts" / "example_covering.json"

_CLEAVINGS = {
    "toeplitz_z2_smash": lambda: [builtin.toeplitz_z2_smash().cleaving()],
    "toeplitz_u1_smash": lambda: [builtin.toeplitz_u1_smash().cleaving()],
    "pw_patch": lambda: [builtin.pw_patch()[1]],
    "sphere_covering": lambda: builtin.sphere_covering().cleavings,
    "sphere_prolonged": lambda: builtin.sphere_prolonged().trivialisation.cleavings,
    "patch_prolonged-formal": lambda: builtin.patch_prolonged("formal").trivialisation.cleavings,
    "patch_prolonged-3": lambda: builtin.patch_prolonged(3).trivialisation.cleavings,
    "plane_gl_smash-formal": lambda: [builtin.plane_gl_smash("formal").cleaving()],
    "plane_gl_smash-3": lambda: [builtin.plane_gl_smash(3).cleaving()],
    "gl_mod_det-formal": lambda: [builtin.gl_mod_det_cleaving("formal")],
    "gl_mod_det-3": lambda: [builtin.gl_mod_det_cleaving(3)],
    "example_covering": lambda: _load_trivialisation(SuiteConfig(suite="covering", covering=str(EXAMPLE))).cleavings,
}
_BAD_CLEAVINGS = {
    "mutant/cleaving-not-colinear": mutants._patch_cleaving_squared,
    "mutant/descended-cleaving-wrong-power": mutants._prolonged_cleaving_squared,
    "pw_patch-breaks-relation": _patch_breaks_relation,
}


@pytest.mark.parametrize("name", list(_CLEAVINGS))
def test_cleaving_certificate_agrees_with_word_loop(name):
    """Every cleaving the program builds passes the generator certificate and
    the word loop at degree 4."""
    for cl in _CLEAVINGS[name]():
        assert cl.verify() == []
        assert bounded_cleaving_checks(cl, 4) == []


@pytest.mark.parametrize("name", list(_BAD_CLEAVINGS))
def test_bad_cleavings_fail_certificate_and_word_loop(name):
    """The certificate and the word loop at degree 4 both reject each bad
    cleaving; the colinear mutants get the same first witness from both."""
    cl = _BAD_CLEAVINGS[name]()
    new, old = cl.verify(), bounded_cleaving_checks(cl, 4)
    assert new and old
    if name.startswith("mutant/"):
        assert (new[0].check, new[0].where) == (old[0].check, old[0].where) == ("cleaving-colinear", "u")
    else:
        assert [(f.check, f.where) for f in new] == [("cleaving-well-defined", "u*ui"), ("cleaving-colinear", "ui")]


@pytest.mark.parametrize(
    "name", ["toeplitz_z2_smash", "toeplitz_u1_smash", "pw_patch", "gl_mod_det-formal", *_BAD_CLEAVINGS]
)
def test_strong_connection_records_agree_with_word_loop(name):
    """The strong-connection and quotient-pair records read the cleaving
    certificate (StrongConnection.from_cleaving): it passes on the four
    shipped cleavings exactly where their connections pass the axioms on
    every basis word of degree <= 4, and it fails on each bad cleaving, whose
    connection fails them too."""
    cl = _BAD_CLEAVINGS[name]() if name in _BAD_CLEAVINGS else _CLEAVINGS[name]()[0]
    new = cl.verify()
    old = verify_strong_connection(StrongConnection.from_cleaving(cl), 4)
    assert bool(new) == bool(old) == (name in _BAD_CLEAVINGS)


@pytest.mark.parametrize("name", list(_CLEAVINGS))
def test_memoised_connection_matches_eager_table(name):
    """ell = (j o S (x) j) o Delta on every basis word of degree <= 4 equals
    the table filled eagerly from the uncached coproduct and j o S."""
    for cl in _CLEAVINGS[name]():
        ell = StrongConnection.from_cleaving(cl)
        for w, want in cleaving_connection_table(cl, 4).items():
            assert ell.apply_word(w) == want, (cl.j.name, w)
