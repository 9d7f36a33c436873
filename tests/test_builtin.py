import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from pcomod import builtin
from pcomod.cli import main
from pcomod.exprs import load_presentation, parse_poly, parse_tensor_terms
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
    with pytest.raises(builtin.QValueError):
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
    """The one-rule certificate and the degree-6 product loop both pass, at
    formal q, at q = 1 and at q = 3."""
    for q in ("formal", 1, 3):
        B = builtin.quantum_plane(q)
        assert builtin.quantum_plane_units_certificate(B) == [], q
        assert oracles.bounded_units_check(B, 6) == (209, ""), q


@pytest.mark.parametrize("relation", ["x*y = Q*y*x + x", "x*y = 0"])
def test_units_certificate_rejects_mutant_planes(relation):
    """A rule with two terms and a rule that kills x*y: the certificate and
    the degree-6 product loop both reject each plane."""
    B, _ = load_presentation({**builtin.PRESENTATIONS["quantum_plane"], "relations": [relation]})
    assert [f.check for f in builtin.quantum_plane_units_certificate(B)] == ["units-premise"]
    assert oracles.bounded_units_check(B, 6)[1]


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


# nonzero values at which a non-unit such as q - 1, q + 1, q^2 + 1 or 2q - 1 vanishes
SPECIAL_Q = (1, -1, GaussRat(0, 1), GaussRat(0, -1), Fraction(1, 2), GaussRat(1, 1))


@pytest.mark.parametrize("name", (*builtin.HOPF_NAMES, "quantum_plane"))
def test_formal_q_certificates_specialise(name):
    """A formal-q build has Laurent coefficients and unit leading
    coefficients, so q -> q0 != 0 is a ring map that keeps each rule's left
    side and each resolved overlap: the substituted build has the formal
    left sides, no conflict where the formal one has none, the same
    completeness, and it is what parsing at q0 builds."""
    formal = builtin.build(name)
    fsys = formal.system if isinstance(formal, HopfAlgebra) else formal
    freport = fsys.check_local_confluence(6)
    assert not freport.conflicts
    for q0 in SPECIAL_Q:
        want = oracles.substituted_build(name, builtin.q_value(q0))
        wsys = want.system if isinstance(want, HopfAlgebra) else want
        assert [r.lhs_word for r in wsys.rules] == [r.lhs_word for r in fsys.rules]
        report = wsys.check_local_confluence(6)
        assert not report.conflicts and report.complete == freport.complete, q0
        got = builtin.build(name, q0)
        if isinstance(want, HopfAlgebra):
            assert _hopf_tables(got) == _hopf_tables(want)
        else:
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
    assert builtin.gl_mod_det_ideal(q).gens[0] == D - NCPoly.one(gl.system.alphabet)


_FIXED_Q_BUILDS = """
from pcomod import builtin
from pcomod.scalars import Scalar

def formal_q(k):
    raise AssertionError(f"formal q^{k} built at a fixed q")

Scalar.q_power = staticmethod(formal_q)
for name in builtin.registry():
    builtin.build(name, 3)
builtin.plane_action_table(3)
builtin.gl_mod_det_ideal(3)
builtin.su_gamma_ideal(3)
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
    """One object per q value: 3, GaussRat(3) and Fraction(3) share one;
    q = 0 and 'cbrt1', which no builder computes at, raise on every call."""
    assert builtin.gl_q2(3) is builtin.gl_q2(GaussRat(3)) is builtin.gl_q2(Fraction(3))
    assert builtin.su_q2("formal") is builtin.su_q2()
    assert builtin.plane_gl_smash(3) is builtin.build("plane_gl_smash", GaussRat(3))
    assert builtin.plane_gl_smash(3) is not builtin.plane_gl_smash(2)
    assert builtin.build("toeplitz_z2_smash", 3) is builtin.toeplitz_z2_smash()
    assert builtin.sphere_covering() is builtin.sphere_covering()
    for _ in range(2):
        with pytest.raises(builtin.QValueError):
            builtin.gl_q2(0)
        with pytest.raises(builtin.QValueError):
            builtin.plane_action_table(0)
        with pytest.raises(builtin.QValueError):
            builtin.q_value("cbrt1")
        with pytest.raises(builtin.QValueError):
            builtin.su_q2("cbrt1")
        assert main(["verify", "--suite", "all", "--q", "0"]) == 2
        assert "CONFIG_ERROR" in capsys.readouterr().err
    with pytest.raises(builtin.UnknownNameError, match="nearest match: gl_q2"):
        builtin.build("gl_q3")


def _pair_maps(cov):
    return [m for d in cov.pairs.values() for m in (d.map_i, d.map_j)]


# name -> (the parts a structure lists for its pieces or pairs, how many distinct)
_SHARED_PARTS = {
    "sphere-pieces": (lambda: builtin.sphere_covering().covering.pieces, 1),
    "sphere-cleavings": (lambda: builtin.sphere_covering().cleavings, 1),
    "sphere-pair-maps": (lambda: _pair_maps(builtin.sphere_covering().covering), 2),
    "prolonged-faces": (
        lambda: [p.comodule for p in builtin.sphere_prolonged().trivialisation.covering.pieces], 1
    ),
    "prolonged-edges": (
        lambda: [d.target for d in builtin.sphere_prolonged().trivialisation.covering.pairs.values()], 1
    ),
}


@pytest.mark.parametrize("name", sorted(_SHARED_PARTS))
def test_sphere_builds_each_shared_part_once(name):
    """The sphere's three faces are one piece with one cleaving, its three
    pairs one edge with an untwisted and a twisted map, and prolongation
    keeps that sharing: one prolonged face and one prolonged edge."""
    parts, distinct = _SHARED_PARTS[name]
    listed = parts()
    assert len(listed) in (3, 6) and len({id(x) for x in listed}) == distinct


_IDEALS = {
    "u1_mod_z2": (lambda q: builtin.u1_mod_z2_ideal(), lambda q: builtin.o_u1()),
    "gl_mod_det": (builtin.gl_mod_det_ideal, builtin.gl_q2),
    "su_gamma": (builtin.su_gamma_ideal, builtin.su_q2),
}


@pytest.mark.parametrize("q", ("formal", 3), ids=str)
@pytest.mark.parametrize("name", sorted(_IDEALS))
def test_hopf_ideal_builders_are_memoised_on_q(name, q):
    """Each ideal builder returns one object per q, an ideal of the Hopf
    algebra its builder gives at that q."""
    ideal, hopf = _IDEALS[name]
    assert ideal(q) is ideal(q) and ideal(q).hopf is hopf(q)
