import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from pcomod import builtin
from pcomod.cli import main
from pcomod.exprs import parse_poly, parse_tensor_terms
from pcomod.hopf import HopfAlgebra
from pcomod.ncpoly import NCPoly
from pcomod.scalars import GaussRat, S_ONE, Scalar
from pcomod.tensors import Tensor

FIXED_Q = (1, 2, 3, -1, Fraction(1, 2))


def test_registry_and_errors():
    names = builtin.registry()
    for required in ("c_z2", "o_u1", "su_q2", "gl_q2", "sl_q2", "quantum_plane", "toeplitz"):
        assert required in names
    with pytest.raises(builtin.UnknownNameError) as exc:
        builtin.build("su_q3")
    assert "su_q2" in str(exc.value)  # nearest-match hint
    with pytest.raises(builtin.QZeroError):
        builtin.build("gl_q2", 0)


def test_su_delta_and_z2_antipode(su, z2):
    als = su.system.alphabet
    want = parse_tensor_terms("g # a + as # g", als, 2)
    assert su.delta_word(("g",)) == Tensor((su.system, su.system), want)
    assert z2.S.apply_word(("u",)) == NCPoly.gen(z2.system.alphabet, "u")


def test_q_one_degenerations():
    for name in ("su_q2", "gl_q2", "sl_q2"):
        H = builtin.build(name, 1)
        gens = H.system.alphabet.gens
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                comm = H.system.normal_form(
                    NCPoly.word(H.system.alphabet, (g, h))
                    - NCPoly.word(H.system.alphabet, (h, g))
                )
                assert comm.is_zero(), (name, g, h)
    B = builtin.quantum_plane(1)
    xy = NCPoly.word(B.alphabet, ("x", "y"))
    yx = NCPoly.word(B.alphabet, ("y", "x"))
    assert B.normal_form(xy - yx).is_zero()


def test_units_certificate():
    cert = builtin.quantum_plane_units_certificate(builtin.quantum_plane(), 6)
    assert cert.ok and cert.pairs_checked == 209


def test_su_to_u1_surjection_checks():
    assert builtin.su_q2_to_u1_checks() == []
    pi = builtin.su_q2_to_u1_map()
    su = builtin.su_q2()
    als = su.system.alphabet
    # the sphere relation maps to unitarity of u
    rel = parse_poly("as*a + gs*g - 1", als)
    assert pi.apply(rel).is_zero()
    # pi(Delta alpha) = u (x) u: the gamma term dies
    u1 = builtin.o_u1()
    img = su.delta_word(("a",)).map_leg(0, pi.apply_word, codomain=u1.system).map_leg(
        1, pi.apply_word, codomain=u1.system
    )
    assert img == Tensor((u1.system, u1.system), {(("u",), ("u",)): S_ONE})
    assert pi.apply(NCPoly.one(als)) == NCPoly.one(u1.system.alphabet)


def test_gl_antipode_squares():
    gl = builtin.gl_q2()
    al = gl.system.alphabet
    b = NCPoly.gen(al, "b")
    s2b = gl.S.apply(gl.S.apply(b))
    assert s2b == b.scale(Scalar.q_power(-2))


def test_toeplitz_matrix_spot_check():
    import numpy as np

    from oracles import masked_residual, toeplitz_matrix

    T = builtin.toeplitz_system()
    al = T.alphabet
    p = NCPoly.gen(al, "s") + NCPoly.word(al, ("ss", "ss"))
    r = NCPoly.word(al, ("s", "ss")) - NCPoly.one(al).scale(Scalar.of(2))
    n = 64
    prod = toeplitz_matrix(T.mul(p, r), n)
    spot = toeplitz_matrix(p, n) @ toeplitz_matrix(r, n)
    assert masked_residual(prod, spot, n // 8) < 1e-12
    # the isometry relation holds strictly away from the truncation corner
    ident = toeplitz_matrix(T.mul(NCPoly.gen(al, "ss"), NCPoly.gen(al, "s")), n)
    assert masked_residual(ident, np.eye(n), n // 8) < 1e-12


def _ordered(p):
    """Terms in stored order: reports print them in this order."""
    return list(p.terms.items())


def _system_tables(system):
    star = system.star_table or {}
    return [(r.lhs_word, _ordered(r.rhs)) for r in system.rules], {g: _ordered(p) for g, p in star.items()}


def _hopf_tables(H):
    return (
        _system_tables(H.system),
        {g: list(t.terms.items()) for g, t in H.delta_table.items()},
        H.counit_table,
        {g: _ordered(p) for g, p in H.antipode_table.items()},
        {g: _ordered(p) for g, p in H.antipode_inv_table.items()},
    )


@pytest.mark.parametrize("q", FIXED_Q, ids=str)
@pytest.mark.parametrize("name", (*builtin.HOPF_NAMES, "quantum_plane"))
def test_build_at_q_matches_substitution_oracle(name, q):
    """Parsing at q gives the tables of the formal build with q substituted:
    same rules, star, coproduct, counit and antipodes, terms in the same order."""
    got = builtin.build(name, q)
    want = oracles.substituted_build(name, builtin.q_value(q))
    if isinstance(want, HopfAlgebra):
        assert got.system == want.system
        assert _hopf_tables(got) == _hopf_tables(want)
    else:
        assert got == want
        assert _system_tables(got) == _system_tables(want)


@pytest.mark.parametrize("q", FIXED_Q, ids=str)
def test_plane_action_at_q_matches_substitution_oracle(q):
    got = builtin.plane_action_table(q)
    want = oracles.substituted_plane_action(builtin.q_value(q))
    assert {k: _ordered(p) for k, p in got.items()} == {k: _ordered(p) for k, p in want.items()}


@pytest.mark.parametrize("q", ("formal", 3, 2, 1, -1), ids=str)
def test_determinant_is_the_antipode_of_its_inverse(q):
    """gl_mod_det_ideal and the obstruction read D as S(Di); it is the
    parsed a*d - q*b*c at every q, term for term."""
    gl = builtin.gl_q2(q)
    D = parse_poly("a*d - Q*b*c", gl.system.alphabet)
    qv = builtin.q_value(q)
    if qv is not None:
        D = oracles.substituted_poly(D, qv)
    assert _ordered(gl.antipode_table["Di"]) == _ordered(D)
    assert builtin.gl_mod_det_ideal(gl).gens[0] == D - NCPoly.one(gl.system.alphabet)


_FIXED_Q_BUILDS = """
from pcomod import builtin
from pcomod.scalars import Scalar

def formal_q(k):
    raise AssertionError(f"formal q^{k} built at a fixed q")

Scalar.q_power = staticmethod(formal_q)
for name in builtin.registry():
    builtin.build(name, 3)
builtin.plane_action_table(3)
builtin.gl_mod_det_ideal(builtin.gl_q2(3))
assert builtin.patch_prolonged(3).report == []
assert builtin.su_q2_to_u1_checks(3) == []
assert builtin.frame_bundle_obstruction(3).consistent is False
"""


def test_fixed_q_builders_never_make_formal_q():
    """At a fixed q no builder goes through Q(i)(q): the parser reads Q as the
    value.  Builders memoise, so this runs in a fresh interpreter: a q = 3
    object another test built would come back without being built again."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", _FIXED_Q_BUILDS], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr


def test_builders_are_memoised_on_the_q_value(capsys):
    """One object per q value: 'formal' and 'cbrt1' share one, as do 3,
    GaussRat(3) and Fraction(3); q = 0 raises on every call."""
    assert builtin.gl_q2(3) is builtin.gl_q2(GaussRat(3)) is builtin.gl_q2(Fraction(3))
    assert builtin.su_q2("formal") is builtin.su_q2("cbrt1") is builtin.su_q2()
    assert builtin.plane_gl_smash(3) is builtin.build("plane_gl_smash", GaussRat(3))
    assert builtin.plane_gl_smash(3) is not builtin.plane_gl_smash(2)
    assert builtin.build("toeplitz_z2_smash", 3) is builtin.toeplitz_z2_smash()
    assert builtin.sphere_covering() is builtin.sphere_covering()
    for _ in range(2):
        with pytest.raises(builtin.QZeroError):
            builtin.gl_q2(0)
        with pytest.raises(builtin.QZeroError):
            builtin.plane_action_table(0)
        assert main(["verify", "--suite", "all", "--q", "0"]) == 2
        assert "CONFIG_ERROR" in capsys.readouterr().err
    with pytest.raises(builtin.UnknownNameError, match="nearest match: gl_q2"):
        builtin.build("gl_q3")
