from fractions import Fraction

from pcomod import builtin
from pcomod.ncpoly import NCPoly
from pcomod.scalars import GaussRat, S_ONE, Scalar

from oracles import unit_counit_map, verify_theta_properties


def test_formal_obstruction_polynomial():
    v = builtin.frame_bundle_obstruction("formal")
    assert v.obstruction == Scalar.q_power(3) - S_ONE
    assert v.consistent is None
    assert "q^3" in v.witness
    assert any("units certificate" in s for s in v.steps)
    assert any(f.check == "theta-commutation" for f in v.failures)


def test_cube_roots_consistent():
    assert builtin.frame_bundle_obstruction("cbrt1").consistent is True
    assert builtin.frame_bundle_obstruction(1).consistent is True


def test_q_two_obstructed_with_witness():
    v = builtin.frame_bundle_obstruction(2)
    assert v.consistent is False
    assert v.obstruction == Scalar.of(7)
    assert "7*x" in v.witness


def test_rational_specialization():
    v = builtin.frame_bundle_obstruction(Fraction(1, 2))
    assert v.consistent is False
    assert v.obstruction == Scalar.of(GaussRat(Fraction(-7, 8)))


def test_commutation_failure_is_the_reference_first_failure():
    """The one failure the obstruction builds is the first one the generic
    theta check finds on its candidate theta = eps over D = {Di, det}, and
    there is one exactly when that check finds any.  At cbrt1 both run at
    formal q, where the obstruction is built."""
    for q in ("formal", "cbrt1", 1, 2, 3, -1):
        v = builtin.frame_bundle_obstruction(q)
        sm = builtin.plane_gl_smash("formal" if q == "cbrt1" else q)
        H = sm.hopf
        dpolys = [NCPoly.gen(H.system.alphabet, "Di"), H.antipode_table["Di"]]
        ref = verify_theta_properties(unit_counit_map(H, sm.b_system), sm, dpolys)
        assert v.failures == ref[:1], q
        assert (v.failures == []) == (q == 1), q
