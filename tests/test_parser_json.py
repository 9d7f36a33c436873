import pytest

from pcomod import builtin
from pcomod.exprs import (
    ParseError,
    load_presentation,
    parse_poly,
    parse_relation,
    parse_scalar,
    parse_tensor_terms,
)
from pcomod.ncpoly import Alphabet, NCPoly
from pcomod.scalars import GaussRat, S_ONE, Scalar

from oracles import dump_presentation, poly_to_expr, scalar_to_expr


AL = Alphabet(["a", "b"])


def test_atoms_and_precedence():
    assert parse_scalar("3/2") == Scalar.of(GaussRat(__import__("fractions").Fraction(3, 2)))
    assert parse_scalar("I^2") == Scalar.of(-1)
    assert parse_scalar("Q^-2") == Scalar.q_power(-2)
    p = parse_poly("2*a*b + b^2 - a", AL)
    assert p.coeff(("a", "b")) == Scalar.of(2)
    assert p.coeff(("b", "b")) == S_ONE
    assert p.coeff(("a",)) == Scalar.of(-1)
    # ^ binds tighter than *, unary minus tighter than +
    assert parse_poly("-a + a", AL).is_zero()
    assert parse_poly("(a + b)^2", AL) == parse_poly("a^2 + a*b + b*a + b^2", AL)


def test_relation_and_tensor_parsing():
    left, right = parse_relation("a*b = 2*b*a", AL)
    assert left == parse_poly("a*b", AL) and right == parse_poly("2*b*a", AL)
    terms = parse_tensor_terms("a # a + 3*(b # a*b)", AL, 2)
    assert terms[(("a",), ("a",))] == S_ONE
    assert terms[(("b",), ("a", "b"))] == Scalar.of(3)
    # '#' binds looser than '*': Q*a # b is (Q*a) # b
    terms = parse_tensor_terms("Q*a # b", AL, 2)
    assert terms[(("a",), ("b",))] == Scalar.q_power(1)


@pytest.mark.parametrize("expr, second", [("a#b - a#b + a#a", "a"), ("(a-a)#b + a#b", "b"), ("0#b + a#b", "b")])
def test_tensor_whose_terms_cancel_keeps_its_legs(expr, second):
    """A tensor carries its leg count, so a part that cancels or is zero is
    the zero tensor of that many legs, not a leg count read off a first term."""
    assert parse_tensor_terms(expr, AL, 2) == {(("a",), (second,)): S_ONE}


def test_tensor_leg_counts_must_agree():
    assert parse_tensor_terms("a#b#a", AL, 3) == {(("a",), ("b",), ("a",)): S_ONE}
    for expr, legs in (("a#b - a#b + a", 2), ("(a-a)#b + a#b#a", 3), ("a#b", 3), ("a", 2)):
        with pytest.raises(ParseError, match="legs"):
            parse_tensor_terms(expr, AL, legs)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("a *", AL)
    with pytest.raises(ParseError):
        parse_poly("zz", AL)
    with pytest.raises(ParseError):
        parse_poly("a^-1", AL)  # negative powers only on scalar atoms
    with pytest.raises(ParseError):
        parse_relation("a = b = 1", AL)
    with pytest.raises(ParseError):
        parse_scalar("a # b")


def test_rendering_roundtrip():
    for expr in ("Q^-1*a*b - 2*b", "(1 - Q^2)*a + 3/2", "I*a - b^2"):
        p = parse_poly(expr, AL)
        assert parse_poly(poly_to_expr(p), AL) == p
    s = (Scalar.q_power(3) - S_ONE) * Scalar.q_power(-2)
    assert parse_scalar(scalar_to_expr(s)) == s


@pytest.mark.parametrize("name", sorted(builtin.PRESENTATIONS))
def test_presentation_roundtrip(name):
    doc = builtin.export_presentation(name)
    system, hopf = load_presentation(doc)
    extra = {k: doc[k] for k in ("coaction", "action", "cleaving") if k in doc}
    dumped = dump_presentation(
        doc["name"], system, hopf, relations_src=doc["relations"], extra=extra
    )
    system2, hopf2 = load_presentation(dumped)
    assert system == system2
    if hopf is not None:
        assert hopf2 is not None
        assert hopf.delta_table == hopf2.delta_table
        assert hopf.counit_table == hopf2.counit_table
        assert hopf.antipode_table == hopf2.antipode_table


def test_tower_enforced():
    doc = {
        "name": "bad",
        "generators": ["a"],
        "precedence": ["a"],
        "scalar_tower": "Q",
        "relations": ["a*a = Q*a"],
    }
    with pytest.raises(ParseError):
        load_presentation(doc)
