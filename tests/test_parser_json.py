import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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

from oracles import (
    ExprTreeError,
    dump_presentation,
    eval_expr_tree,
    expr_tree_to_text,
    poly_to_expr,
    scalar_to_expr,
)


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
    # a bad number is a parse error, not an arithmetic one
    for expr in ("1/0", "0^-1", "(Q-Q)^-1", "1" * 4301):
        with pytest.raises(ParseError):
            parse_poly(expr, AL)
    # a negative power is defined on the units c*Q^k alone: at formal q,
    # 1 + Q is none, and at q = 2 it is the unit 3
    with pytest.raises(ParseError, match=re.escape("not a unit: (1 + q) is not a unit c*q^k")):
        parse_poly("(1+Q)^-1*a", AL)
    assert parse_poly("(2*Q)^-1*a", AL) == NCPoly.gen(AL, "a").scale(Scalar.of(Fraction(1, 2)) * Scalar.q_power(-1))
    assert parse_poly("(1+Q)^-1*a", AL, GaussRat(2)) == NCPoly.gen(AL, "a").scale(Scalar.of(Fraction(1, 3)))
    # a power is bounded in its exponent and in its terms: (a+b)^17 has
    # 2^17 words, while central letters keep (c+d)^20 at 21 terms
    for expr, match in (("a^1001", "exponent 1001"), ("(a+b)^17", "over 100000 terms")):
        with pytest.raises(ParseError, match=match):
            parse_poly(expr, AL)
    # a nested power is bounded in its words' letters and its scalars' bits
    for expr, match in (
        ("(a^1000)^300", "word of over 10000 letters"),
        ("((2^1000)^1000)^100*a", "over 100000 bits"),
        ("((Q+1)^100)^10*a", "over 100000 bits"),
        # and so is a power of a polynomial in its coefficients' bits
        ("((2^1000*a)^1000)^10", "coefficient of over 100000 bits"),
        ("(2^1000*a)^1000", "coefficient of over 100000 bits"),
    ):
        with pytest.raises(ParseError, match=match):
            parse_poly(expr, AL)
    assert parse_poly("(a^1000)^10", AL) == NCPoly.word(AL, ("a",) * 10_000)
    assert parse_poly("(2^1000)^50*a", AL) == NCPoly.gen(AL, "a").scale(Scalar.of(2**50_000))
    assert parse_poly("(2^1000*a)^50", AL) == NCPoly.word(AL, ("a",) * 50).scale(Scalar.of(2**50_000))
    assert len(parse_poly("(c+d)^20", Alphabet(["c", "d"], central=["c", "d"])).terms) == 21


_TREE_ATOMS = st.one_of(
    st.just(("gen", "a")),
    st.just(("gen", "b")),
    st.sampled_from([("I",), ("Q",)]),
    st.integers(1, 3).map(lambda n: ("int", n)),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda nm: ("frac", *nm)),
)


def _is_atom(tree) -> bool:
    return tree[0] in ("gen", "int", "frac", "I", "Q")


def _holds_tensor(tree) -> bool:
    return tree[0] == "#" or any(isinstance(t, tuple) and _holds_tensor(t) for t in tree[1:])


def _tree_nodes(sub):
    """One operator over smaller trees.  Atoms are nonzero, a negative
    exponent sits only on an atom, and a tensor is multiplied only by an atom
    or by another tensor: the trees keep clear of the bad-number cases, which
    test_parse_errors pins, and of a non-atomic constant multiplying a tensor."""

    @st.composite
    def node(draw):
        op = draw(st.sampled_from(["+", "-", "#", "*", "^", "neg"]))
        x = draw(sub)
        if op == "neg":
            return ("neg", x)
        if op == "^":
            k = draw(st.integers(-2, 3))
            return ("^", x, k if _is_atom(x) else abs(k))
        y = draw(sub)
        if op == "*":
            assume(_holds_tensor(x) == _holds_tensor(y) or _is_atom(x) or _is_atom(y))
        return (op, x, y)

    return node()


@settings(max_examples=500, deadline=None)
@given(tree=st.recursive(_TREE_ATOMS, _tree_nodes, max_leaves=8))
def test_parser_matches_tree_walking_oracle(tree):
    """parse_poly and parse_tensor_terms read a rendered expression tree as
    the oracle's tree walk values it, and both reject a tree with no value."""
    text = expr_tree_to_text(tree)
    try:
        legs, value = eval_expr_tree(tree, AL)
    except ExprTreeError:
        with pytest.raises(ParseError):
            parse_poly(text, AL)
        with pytest.raises(ParseError):
            parse_tensor_terms(text, AL, 2)
        return
    if legs == 1:
        assert parse_poly(text, AL).terms == value.terms
        value = {(w,): c for w, c in value.terms.items()}
    else:
        with pytest.raises(ParseError):
            parse_poly(text, AL)
    assert parse_tensor_terms(text, AL, legs) == value


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
    extra = {k: doc[k] for k in ("scalar_tower", "coaction", "action", "cleaving") if k in doc}
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
