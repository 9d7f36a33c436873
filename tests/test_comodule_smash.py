import random

import pytest

from pcomod import builtin
from pcomod.comodule import (
    CleavingMap,
    NotModuleAlgebraError,
    StrongConnection,
    canonical_map,
    principal_quotient_pair_certificate,
    smash_product,
    verify_strong_connection,
    verify_theta_properties,
)
from pcomod.exprs import parse_poly
from pcomod.ncpoly import NCPoly
from pcomod.scalars import GaussRat, S_ONE, S_Q, Scalar
from pcomod.tensors import Tensor

from oracles import unit_counit_map


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
    ell = StrongConnection.from_cleaving(z2_smash.cleaving(), 4)
    H = z2_smash.hopf
    for w in H.system.basis_words(4):
        got = canonical_map(z2_smash, ell.apply_word(w))
        assert got == Tensor((z2_smash.system, H.system), {((), w): S_ONE})


def test_smash_strong_connection_values(z2_smash):
    ell = StrongConnection.from_cleaving(z2_smash.cleaving(), 4)
    sysm = z2_smash.system
    u = sysm.alphabet
    # ell(u) = (1 (x) u) (x) (1 (x) u) in the flat presentation
    assert ell.apply_word(("u",)) == Tensor((sysm, sysm), {(("u",), ("u",)): S_ONE})
    assert ell.apply_word(()) == Tensor.of((sysm, sysm), sysm.one(), sysm.one())
    assert verify_strong_connection(ell, 4) == []


def test_u1_smash_strong_connection(u1_smash):
    ell = StrongConnection.from_cleaving(u1_smash.cleaving(), 4)
    assert verify_strong_connection(ell, 4) == []


def test_pw_patch_connection():
    P, cl = builtin.pw_patch()
    assert cl.verify(2) == []
    ell = StrongConnection.from_cleaving(cl, 2)
    sysm = P.system
    # ell(u) = (omega a)^* (x) (omega a) in the patch avatar
    assert ell.apply_word(("u",)) == Tensor(
        (sysm, sysm), {(("wi",), ("w",)): S_ONE}
    )
    assert verify_strong_connection(ell, 2) == []


def test_corrupted_connection_fails_axiom_1(z2_smash):
    ell = StrongConnection.from_cleaving(z2_smash.cleaving(), 2)
    ell.table[("u",)] = Tensor(
        (z2_smash.system, z2_smash.system), {(("u",), ()): S_ONE}
    )
    fails = verify_strong_connection(ell, 2)
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
    """verify_theta_properties on the candidate of frame_bundle_obstruction,
    theta = eps as an algebra map into the plane: it is anti-multiplicative
    on D, but the commutation rule fails at (Di, x) by a factor q^3."""
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


def test_principal_pair_certificates(u1, gl):
    fails, ell, P = principal_quotient_pair_certificate(u1, builtin.u1_mod_z2_ideal(u1), 3)
    assert fails == []
    fails, ell, P = principal_quotient_pair_certificate(gl, builtin.gl_mod_det_ideal(gl), 1)
    assert fails == []
