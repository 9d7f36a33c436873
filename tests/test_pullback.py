import pytest

from pcomod import builtin
from pcomod.comodule import StrongConnection
from pcomod.exprs import parse_poly
from pcomod.hopf import HopfIdeal
from pcomod.maps import gens_map
from pcomod.ncpoly import NCPoly
from pcomod.pullback import (
    Covering,
    CoveringPiece,
    IncompatibleError,
    NotSurjectiveError,
    PairData,
    Trivialisation,
    cotensor_ideal_sum_check,
    cotensor_membership,
    ideal_base_correspondence,
    ideal_distributivity_check,
    in_ideal,
    multipullback_membership,
    pair_differences,
    piece_glue,
    prolong,
    reducibility_check,
    transition_checks,
    transition_functions,
)
from pcomod.rewrite import RewriteSystem
from pcomod.ncpoly import Alphabet
from pcomod.scalars import S_ONE, S_Q, Scalar
from pcomod.tensors import Tensor


def test_sphere_covering_validates(sphere):
    assert sphere.validate(2) == []


def test_membership_examples(sphere):
    al = sphere.covering.pieces[0].comodule.system.alphabet
    one, zero = NCPoly.one(al), NCPoly.zero(al)
    ok, _ = multipullback_membership(sphere.covering, [one, one, one])
    assert ok
    ok, _ = multipullback_membership(sphere.covering, [zero, zero, zero])
    assert ok
    ok, fails = multipullback_membership(sphere.covering, [one, zero, zero])
    assert not ok and fails
    # chi-image tuples are members: project any element of one smash copy
    p = NCPoly.word(al, ("s", "u"))
    ok, _ = multipullback_membership(sphere.covering, [p, p, p])
    assert not ok  # the twisted identification separates the copies


def test_transition_values_and_laws(sphere):
    # T_01(u) is the base parity class v, not the counit
    t01 = sphere.transition(0, 1, ("u",))
    edge = sphere.covering.pairs[(0, 1)].target
    assert t01 == NCPoly.gen(edge.system.alphabet, "v")
    assert edge.is_coinvariant(t01)
    assert sphere.transition(0, 1, ()) == NCPoly.one(edge.system.alphabet)
    assert transition_checks(sphere, 2) == []
    tab = transition_functions(sphere, 2)
    assert tab[(0, 0)][("u",)] == NCPoly.one(sphere.covering.pieces[0].comodule.system.alphabet).scale(
        sphere.hopf.counit_word(("u",))
    )


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
    verdict = reducibility_check(sphere_pro.trivialisation, J)
    assert verdict.reducible
    assert len(verdict.reduced_pieces) == 3
    # descended cleavings land in the reduced pieces and respect H/J
    for gb in verdict.descended_cleavings:
        assert gb.rule_compatibility_problems() == []
    # the frame bundle is obstructed at generic q
    sm = plane_smash
    cov = Covering([CoveringPiece(sm, base_gens=("x", "y"))], {}, name="single")
    triv = Trivialisation(cov, sm.hopf, [sm.cleaving()])
    JG = builtin.gl_mod_det_ideal(sm.hopf)
    verdict = reducibility_check(triv, JG)
    assert not verdict.reducible
    w = next(f for f in verdict.witnesses if f.check == "action-annihilates-base")
    assert "x" in w.detail and "q^3" in w.detail
    # and trivially reducible for the zero ideal
    J0 = HopfIdeal(sm.hopf, [], name="<0>")
    assert reducibility_check(triv, J0).reducible


def test_transition_kills_ideal_exactly(sphere_pro):
    J = builtin.u1_mod_z2_ideal()
    triv = sphere_pro.trivialisation
    for (i, j) in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)):
        for g in J.gens:
            assert triv.transition_poly(i, j, g).is_zero()


def test_cleavings_agree_on_coinvariants(sphere_pro):
    """Annihilating the ideal makes the trivialisations compatible on the
    coinvariant subalgebra: the glued reduction map is well defined."""
    from pcomod.hopf import coinvariant_compatibility_check

    J = builtin.u1_mod_z2_ideal()
    assert coinvariant_compatibility_check(sphere_pro.trivialisation, J, 2) == []


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
    assert triv.validate(2) == []
    assert transition_checks(triv, 2) == []
    # prolonging along the identity reproduces the transition data
    H = builtin.c_z2()
    ident = gens_map(
        "id", H.system, H.system, {"u": NCPoly.gen(H.system.alphabet, "u")}, check=False
    )
    pro_id = prolong(sphere, ident, H, fiber_names={"u": "uf"}, preimages={"u": ("u",)})
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
    verdict = reducibility_check(pro.trivialisation, J)
    assert verdict.reducible
    # the reduced piece identifies the gamma fibers with zero
    rsys = verdict.reduced_pieces[0].system
    g_img = rsys.normal_form(NCPoly.gen(rsys.alphabet, "G"))
    assert g_img.is_zero()
    for gb in verdict.descended_cleavings:
        assert gb.rule_compatibility_problems() == []


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
    assert reducibility_check(pro.trivialisation, builtin.su_gamma_ideal(builtin.su_q2(1))).reducible


def test_prolong_requires_surjection(sphere):
    H = builtin.o_u1()
    z2 = builtin.c_z2()
    alz = z2.system.alphabet
    not_onto = gens_map(
        "pi1", H.system, z2.system,
        {"u": NCPoly.one(alz), "ui": NCPoly.one(alz)}, check=True,
    )
    with pytest.raises(NotSurjectiveError):
        prolong(sphere, not_onto, H, preimages={})


def test_piece_glue(sphere, sphere_pro):
    al = sphere.covering.pieces[0].comodule.system.alphabet
    one = NCPoly.one(al)
    tup = piece_glue(sphere, [one] * 3, NCPoly.one(sphere.hopf.system.alphabet))
    assert all(p == one for p in tup)
    u = NCPoly.gen(sphere.hopf.system.alphabet, "u")
    with pytest.raises(IncompatibleError) as exc:
        piece_glue(sphere, [one] * 3, u)
    assert not exc.value.difference.is_zero()
    # the even fiber glues on the prolonged covering
    triv = sphere_pro.trivialisation
    alp = triv.covering.pieces[0].comodule.system.alphabet
    u2 = NCPoly.word(builtin.o_u1().system.alphabet, ("u", "u"))
    tup = piece_glue(triv, [NCPoly.one(alp)] * 3, u2)
    assert all(p == NCPoly.word(alp, ("U", "U")) for p in tup)


def test_membership_and_glue_share_the_pair_differences(sphere):
    """multipullback_membership reports every pair that pair_differences
    yields, and piece_glue raises on the first, with the same difference."""
    u = NCPoly.gen(sphere.hopf.system.alphabet, "u")
    pieces = sphere.covering.pieces
    tup = [cl.j.apply(u) for cl in sphere.cleavings]
    diffs = list(pair_differences(sphere.covering, tup))
    assert diffs
    ok, fails = multipullback_membership(sphere.covering, tup)
    assert not ok
    assert [(f.where, f.detail) for f in fails] == [(f"({i},{j})", f"difference {d!r}") for i, j, d in diffs]
    with pytest.raises(IncompatibleError) as exc:
        piece_glue(sphere, [NCPoly.one(p.comodule.system.alphabet) for p in pieces], u)
    assert (exc.value.i, exc.value.j, exc.value.difference) == diffs[0]


def test_ideal_base_correspondence(z2_smash):
    ell = StrongConnection.from_cleaving(z2_smash.cleaving(), 4)
    alS = z2_smash.system.alphabet
    alB = z2_smash.b_system.alphabet
    b0 = NCPoly.one(alB) - NCPoly.word(alB, ("s", "ss"))
    b0P = NCPoly.one(alS) - NCPoly.word(alS, ("s", "ss"))
    assert ideal_base_correspondence(z2_smash, ell, [b0P], [b0], bound=3) == []
    assert ideal_base_correspondence(z2_smash, ell, [], [], bound=2) == []
    fails = ideal_base_correspondence(z2_smash, ell, [NCPoly.gen(alS, "u")], [], bound=2)
    assert {f.check for f in fails} >= {"correspondence-BcapK-in-L"}


def test_ideal_spans_and_distributivity():
    sq = Alphabet(("v", "w"), central=("v", "w"))
    one = NCPoly.one(sq)
    sysq = RewriteSystem(sq, [(("v", "v"), one), (("w", "w"), one)], name="z2xz2")
    g1 = [NCPoly.gen(sq, "v") - one]
    g2 = [NCPoly.gen(sq, "w") - one]
    g3 = [NCPoly.word(sq, ("v", "w")) - one]
    assert ideal_distributivity_check(sysq, g1, g2, g3, bound=4) == []
    assert in_ideal(sysq, g1, NCPoly.word(sq, ("v", "w")) - NCPoly.gen(sq, "w"), 3)
    assert not in_ideal(sysq, g1, NCPoly.gen(sq, "w") - one, 3)


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
