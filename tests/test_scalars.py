import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import FracGauss, frac_gauss_eval, frac_gauss_rem, scalar_to_expr, substitute_q
from pcomod import scalars
from pcomod.exprs import parse_scalar
from pcomod.scalars import (
    CUBE_ROOT_MINPOLY,
    GR_ONE,
    GR_ZERO,
    GaussRat,
    S_I,
    S_ONE,
    S_Q,
    S_QINV,
    S_ZERO,
    Scalar,
    ScalarError,
)


def rand_scalar(rng) -> Scalar:
    num_deg = rng.randint(0, 2)
    den_pow = rng.randint(0, 2)
    out = S_ZERO
    for k in range(num_deg + 1):
        c = GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-2, 2)))
        out = out + Scalar.of(c) * Scalar.q_power(k)
    return out * Scalar.q_power(-den_pow)


def test_field_axioms_randomized():
    rng = random.Random(7)
    for _ in range(1000):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + S_ZERO == a and a * S_ONE == a
        if len(a.n) == 1:
            assert a * a.inv() == S_ONE
        elif a.n:
            with pytest.raises(ScalarError, match="is not a unit"):
                a.inv()


@given(st.integers(-6, 6), st.integers(-6, 6))
def test_q_power_group(j, k):
    assert Scalar.q_power(j) * Scalar.q_power(k) == Scalar.q_power(j + k)


@settings(max_examples=100)
@given(
    st.fractions(min_value=-20, max_value=20, max_denominator=9),
    st.fractions(min_value=-20, max_value=20, max_denominator=9),
)
def test_gauss_conjugation(re, im):
    g = Scalar.of(GaussRat(re, im))
    assert g.conj().conj() == g
    norm = g * g.conj()
    assert not norm.uses_i()


def test_cube_root_reduction():
    q3m1 = S_Q**3 - S_ONE
    assert q3m1.vanishes_mod(CUBE_ROOT_MINPOLY)
    assert not (S_Q**2 - S_ONE).vanishes_mod(CUBE_ROOT_MINPOLY)
    assert (S_Q**6 - S_ONE).vanishes_mod(CUBE_ROOT_MINPOLY)


def test_substitution_and_towers():
    x = (S_Q - S_Q.inv()) * Scalar.of(GaussRat(0, 1))
    assert x.uses_i() and x.uses_q()
    assert not x.in_tower("Q") and not x.in_tower("Q(i)") and x.in_tower("Q(i)(q)")
    v = substitute_q(x, GaussRat(2))
    assert v == Scalar.of(GaussRat(0, Fraction(3, 2)))
    with pytest.raises(ScalarError):
        substitute_q(S_ONE / S_Q, GaussRat(0))


def test_to_complex_reads_constants_only():
    """A constant scalar converts to its complex value, zero included; one
    that depends on q has no value and is a ScalarError."""
    assert Scalar.of(GaussRat(Fraction(1, 2), -3)).to_complex() == complex(0.5, -3)
    assert (S_Q - S_Q).to_complex() == 0j
    for x in (S_Q, S_ONE / S_Q, S_Q * Scalar.of(GaussRat(0, 1))):
        with pytest.raises(ScalarError):
            x.to_complex()


def test_reduced_form_is_canonical():
    """Every route to a value gives the same fields: zeros at the two ends of
    the coefficient tuple move into v or go, and a quotient by a unit c*q^k
    is a product.  A quotient by any other scalar is a ScalarError that
    names it."""
    a = Scalar((GR_ZERO, GR_ONE, GR_ONE, GR_ZERO), -1)   # = 1 + q
    assert a == S_Q + S_ONE and (a.n, a.v) == ((GR_ONE, GR_ONE), 0)
    b = Scalar.q_power(3) / Scalar.q_power(2)
    assert b == S_Q and (b.n, b.v) == ((GR_ONE,), 1)
    assert repr(S_Q.inv()) == "(1)/(q)"
    zero = Scalar((GR_ZERO,) * 3, 5)
    assert zero == S_ZERO and (zero.n, zero.v) == ((), 0)
    with pytest.raises(ScalarError, match=re.escape("(-1 + q) is not a unit c*q^k")):
        (S_Q**2 - S_ONE) / (S_Q - S_ONE)


# ---------------------------------------------------------------------------
# differential tests: integer-triple GaussRat against the two-Fraction oracle
# ---------------------------------------------------------------------------

parts = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.fractions(max_denominator=10**6),
)
gauss_pairs = st.tuples(parts, parts)


def assert_normal(g: GaussRat) -> None:
    assert type(g.a) is type(g.b) is type(g.d) is int
    assert g.d > 0
    assert gcd(g.a, g.b, g.d) == 1
    if not g.a and not g.b:
        assert (g.a, g.b, g.d) == (0, 0, 1)


def assert_same(g: GaussRat, o: FracGauss) -> None:
    assert_normal(g)
    assert (g.re, g.im) == (o.re, o.im)
    assert type(g.re) is Fraction and type(g.im) is Fraction
    assert bool(g) == bool(o)
    assert hash(g) == hash(o)
    assert repr(g) == repr(o)
    assert g.is_real() == o.is_real()
    assert g.to_complex() == o.to_complex()


@settings(max_examples=300)
@given(gauss_pairs, gauss_pairs)
def test_gaussrat_matches_fraction_oracle(x, y):
    g, h = GaussRat(*x), GaussRat(*y)
    o, p = FracGauss(*x), FracGauss(*y)
    assert_same(g, o)
    assert_same(h, p)
    assert_same(g + h, o + p)
    assert_same(g - h, o - p)
    assert_same(g * h, o * p)
    assert_same(-g, -o)
    assert_same(g.conj(), o.conj())
    assert (g == h) == (o == p)
    assert (g == GaussRat(*x)) and not (g == x)
    if p:
        assert_same(h.inv(), p.inv())
        assert_same(g / h, o / p)
    else:
        with pytest.raises(ZeroDivisionError):
            h.inv()


def test_gaussrat_int_and_zero_forms():
    assert (GaussRat().a, GaussRat().b, GaussRat().d) == (0, 0, 1)
    g = GaussRat(Fraction(1, 6), Fraction(-3, 4))  # (2 - 9i)/12
    assert (g.a, g.b, g.d) == (2, -9, 12)
    assert GaussRat(Fraction(1, 2), Fraction(1, 2)) * GaussRat(1, -1) == GaussRat(1)
    assert hash(GaussRat(3, -2)) == hash((Fraction(3), Fraction(-2)))


def lift(c: Scalar, t: Scalar) -> Scalar:
    """c + (q - 1) t: a q-polynomial operand whose value at q = 1 is c."""
    return c + (S_Q - S_ONE) * t


nonzero_pairs = gauss_pairs.filter(any)


@settings(max_examples=150)
@given(st.lists(gauss_pairs, min_size=3, max_size=3), st.lists(nonzero_pairs, min_size=3, max_size=3))
def test_constant_fast_path_matches_general_path(consts, slopes):
    """Constant operands take the one-coefficient fast path of Scalar + and *;
    the same expressions over q-polynomial operands take the Laurent path and
    must agree after q -> 1, or modulo q^2 + q + 1 for vanishes_mod.  Both
    are checked against the oracle.  A nonzero constant is a unit, and its
    q-polynomial lift, no monomial, is not."""
    a, b, c = (Scalar.of(GaussRat(*x)) for x in consts)
    oa, ob, oc = (FracGauss(*x) for x in consts)
    ts = [Scalar.of(GaussRat(*t)) for t in slopes]
    A, B, C = (lift(s, t) for s, t in zip((a, b, c), ts))

    def same(const: Scalar, general: Scalar, oracle: FracGauss) -> None:
        assert const.is_constant()
        assert const == Scalar(const.n, const.v)  # fast path is reduced
        assert substitute_q(general, GR_ONE) == const
        assert_same(const.constant_value(), oracle)

    same(a + b, A + B, oa + ob)
    same(a - b, A - B, oa - ob)
    same(a * b, A * B, oa * ob)
    same((a + b) * c, (A + B) * C, (oa + ob) * oc)
    same(a.conj(), A.conj(), oa.conj())
    # field axioms on both paths
    assert (a + b) + c == a + (b + c) and a * (b + c) == a * b + a * c
    assert (A + B) + C == A + (B + C) and A * (B + C) == A * B + A * C
    assert (a * b) * c == a * (b * c) and (A * B) * C == A * (B * C)
    assert a - a == S_ZERO and (a - a).n == ()
    minpoly = S_Q * S_Q + S_Q + S_ONE
    MA, MB, MC = (s + minpoly * t for s, t in zip((a, b, c), ts))
    for const, general in (
        (a + b, MA + MB),
        (a - b, MA - MB),
        (a * b - c, MA * MB - MC),
        ((a + b) * c, (MA + MB) * MC),
    ):
        assert const.vanishes_mod(CUBE_ROOT_MINPOLY) == const.is_zero()
        assert general.vanishes_mod(CUBE_ROOT_MINPOLY) == const.is_zero()
    if oa:
        assert_same(a.inv().constant_value(), oa.inv())
        assert_same((b / a).constant_value(), ob / oa)
        assert a * a.inv() == S_ONE
        if len(A.n) == 1:  # a + (q - 1) t is the monomial a*q when t = a
            same(a.inv(), A.inv(), oa.inv())
            same(b / a, B / A, ob / oa)
        else:
            for general in (A.inv, lambda: B / A):
                with pytest.raises(ScalarError, match="is not a unit"):
                    general()


def test_constant_fast_path_skips_polynomial_helpers(monkeypatch):
    def refuse(*args):
        raise AssertionError("constant arithmetic reached the polynomial helpers")

    a = Scalar.of(GaussRat(Fraction(2, 3), 1))
    b = Scalar.of(GaussRat(-5, Fraction(1, 7)))
    monkeypatch.setattr(scalars, "_laurent_add", refuse)
    monkeypatch.setattr(scalars, "_pmul", refuse)
    assert (a + b).constant_value() == GaussRat(Fraction(-13, 3), Fraction(8, 7))
    assert (a * b).constant_value() == GaussRat(Fraction(-73, 21), Fraction(-103, 21))
    assert a + (-a) is S_ZERO


@settings(max_examples=150)
@given(st.lists(gauss_pairs, min_size=1, max_size=4), st.integers(-3, 3), gauss_pairs)
def test_substitute_q_matches_oracle(num, k, value):
    """q^k * num at a Gaussian-rational q against the Fraction oracle; a
    negative power of q has no value at q = 0."""
    onum, ov = [FracGauss(*x) for x in num], FracGauss(*value)
    s = Scalar(tuple(GaussRat(*x) for x in num), k)
    if s.v < 0 and not ov:
        with pytest.raises(ScalarError):
            substitute_q(s, GaussRat(*value))
        return
    assume(ov or k >= 0)  # the oracle's q^k needs q != 0
    got = substitute_q(s, GaussRat(*value))
    assert got.is_constant()
    assert_same(got.constant_value(), x_power(ov, k) * frac_gauss_eval(onum, ov))


@settings(max_examples=150)
@given(st.lists(gauss_pairs, min_size=1, max_size=5), st.booleans(), st.integers(0, 2))
def test_vanishes_mod_matches_oracle(coeffs, force_multiple, shift):
    onum = [FracGauss(*x) for x in coeffs]
    minpoly = [FracGauss(1), FracGauss(1), FracGauss(1)]
    if force_multiple:  # times q^2 + q + 1
        onum = [
            sum((onum[i] for i in range(max(0, k - 2), min(k, len(onum) - 1) + 1)), FracGauss())
            for k in range(len(onum) + 2)
        ]
    num = tuple(GaussRat(c.re, c.im) for c in onum)
    s = Scalar(num, -shift)  # num / q^shift, q invertible mod minpoly
    assert s.vanishes_mod(CUBE_ROOT_MINPOLY) == (not frac_gauss_rem(onum, minpoly))
    if force_multiple:
        assert s.vanishes_mod(CUBE_ROOT_MINPOLY)


# ---------------------------------------------------------------------------
# the (n, v) representation against evaluation at Gaussian-rational q
# ---------------------------------------------------------------------------

small_parts = st.fractions(min_value=-5, max_value=5, max_denominator=4)
small_coeffs = st.lists(st.tuples(small_parts, small_parts), min_size=1, max_size=4)
# closed under conjugation, so conj(f(conj(x))) is defined wherever f(x) is
Q_POINTS = [
    FracGauss(2),
    FracGauss(Fraction(-1, 3)),
    FracGauss(1, 1),
    FracGauss(1, -1),
    FracGauss(Fraction(3, 2), -2),
    FracGauss(Fraction(3, 2), 2),
]


@st.composite
def scalar_cases(draw):
    """(Scalar, value at q) built from an oracle coefficient list: a Laurent
    polynomial q^k * p with k in -4..4, p's end coefficients zero or not."""
    num = [FracGauss(*c) for c in draw(small_coeffs)]
    k = draw(st.integers(-4, 4))
    return Scalar(to_engine(num), k), lambda x: x_power(x, k) * frac_gauss_eval(num, x)


def to_engine(coeffs) -> tuple:
    return tuple(GaussRat(c.re, c.im) for c in coeffs)


def to_oracle(poly) -> list:
    return [FracGauss(c.re, c.im) for c in poly]


def x_power(x: FracGauss, k: int) -> FracGauss:
    out = FracGauss(1)
    for _ in range(abs(k)):
        out = out * x
    return out if k >= 0 else out.inv()


def value_at(s: Scalar, x: FracGauss) -> FracGauss:
    """Evaluate q^v * n through the oracle."""
    return x_power(x, s.v) * frac_gauss_eval(to_oracle(s.n), x)


def assert_scalar_normal(s: Scalar) -> None:
    n, v = s.n, s.v
    assert type(n) is tuple and type(v) is int
    assert all(type(c) is GaussRat for c in n)
    if not n:
        assert v == 0
        return
    assert n[0] and n[-1]
    rebuilt = Scalar((GR_ZERO,) * 2 + n + (GR_ZERO,), v - 2)
    assert (rebuilt.n, rebuilt.v) == (n, v)
    assert rebuilt == s and hash(rebuilt) == hash(s)


@settings(max_examples=150, deadline=None)
@given(scalar_cases(), scalar_cases())
def test_laurent_and_general_paths_match_evaluation(x, y):
    """Every operation on Laurent polynomials stays in normal form and
    matches evaluation at Gaussian-rational q; the inverse of a scalar that
    is not a unit c*q^k, and a quotient by it, is a ScalarError."""
    a, fa = x
    b, fb = y
    results = {
        "+": (a + b, lambda p: fa(p) + fb(p)),
        "-": (a - b, lambda p: fa(p) - fb(p)),
        "*": (a * b, lambda p: fa(p) * fb(p)),
        "neg": (-a, lambda p: -fa(p)),
        "conj": (a.conj(), lambda p: fa(p.conj()).conj()),
    }
    if len(b.n) == 1:
        results["inv"] = (b.inv(), lambda p: fb(p).inv())
        results["/"] = (a / b, lambda p: fa(p) / fb(p))
    elif b.n:
        for op in (b.inv, lambda: a / b):
            with pytest.raises(ScalarError, match="is not a unit"):
                op()
    for s in (a, b):
        assert_scalar_normal(s)
    for op, (got, want) in results.items():
        assert_scalar_normal(got)
        for p in Q_POINTS:
            assert value_at(got, p) == want(p), (op, p)
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    zero = a - a
    assert zero == S_ZERO and (zero.n, zero.v) == ((), 0)


def test_laurent_arithmetic_skips_gcd(monkeypatch):
    """Sums, products and unit inverses of Laurent polynomials match the
    Fraction oracle at Gaussian-rational q and print as pinned; constants
    never reach the polynomial helpers at all."""
    half = Scalar.of(Fraction(1, 2))
    a = (S_ONE - S_Q**2) / S_Q                      # q^-1 - q
    b = S_Q + Scalar.of(GaussRat(0, 1)) * S_Q**3     # q + I q^3
    c = half * Scalar.q_power(-4)

    def fa(x):
        return x.inv() - x

    def fb(x):
        return x + FracGauss(0, 1) * x_power(x, 3)

    def fc(x):
        return FracGauss(Fraction(1, 2)) * x_power(x, -4)

    cases = {
        "a+b": (a + b, lambda x: fa(x) + fb(x)),
        "a*b": (a * b, lambda x: fa(x) * fb(x)),
        "a+c": (a + c, lambda x: fa(x) + fc(x)),
        "c*c": (c * c, lambda x: fc(x) * fc(x)),
        "b-b": (b - b, lambda x: FracGauss()),
        "a+q": (a + S_Q, lambda x: fa(x) + x),
        "1/c": (c.inv(), lambda x: fc(x).inv()),
        "-a": (-a, lambda x: -fa(x)),
    }
    for op, (got, want) in cases.items():
        assert_scalar_normal(got)
        for p in Q_POINTS:
            assert value_at(got, p) == want(p), (op, p)
    assert repr(cases["a+q"][0]) == "(1)/(q)" and cases["b-b"][0] is S_ZERO
    assert repr(cases["a*b"][0]) == "(1 + (-1+I)*q^2 - 1*I*q^4)"

    def refuse_poly(*args):
        raise AssertionError("constant arithmetic reached the polynomial helpers")

    monkeypatch.setattr(scalars, "_laurent_add", refuse_poly)
    monkeypatch.setattr(scalars, "_pmul", refuse_poly)
    two_thirds = Scalar.of(Fraction(2, 3))
    assert (half + two_thirds) * two_thirds - half == Scalar.of(Fraction(5, 18))
    assert (half * Scalar.q_power(3)) * (two_thirds * S_QINV) == Scalar.of(Fraction(1, 3)) * S_Q**2


@settings(max_examples=150, deadline=None)
@given(scalar_cases(), scalar_cases(), gauss_pairs, gauss_pairs)
def test_subtraction_matches_oracles(x, y, g, h):
    """``-`` on constant, Laurent and general operands matches the Fraction
    and FracGauss references and stays in normal form."""
    a, fa = x
    b, fb = y
    assert_same(GaussRat(*g) - GaussRat(*h), FracGauss(*g) - FracGauss(*h))
    assert_same(GaussRat(*g) - GaussRat(*g), FracGauss())
    c, e = Scalar.of(GaussRat(*g)), Scalar.of(GaussRat(*h))
    for u, v in ((a, b), (b, a), (c, e), (a, c), (c, b), (a, a), (c, c), (a, S_ZERO), (S_ZERO, b)):
        assert_scalar_normal(u - v)
    for p in Q_POINTS:
        assert value_at(a - b, p) == fa(p) - fb(p)
        assert value_at(a - c, p) == fa(p) - FracGauss(*g)
    assert_same((c - e).constant_value(), FracGauss(*g) - FracGauss(*h))


# repr and the expression-grammar rendering appear in failure witnesses and
# exported presentations; these strings are the ones the former dense num/den
# representation printed for the same Laurent polynomials.
REPR_PINS = [
    (lambda: S_ZERO, "0", "0"),
    (lambda: S_ONE, "1", "1"),
    (lambda: -S_ONE, "-1", "-1"),
    (lambda: Scalar.of(Fraction(2, 3)), "2/3", "2/3"),
    (lambda: Scalar.of(GaussRat(Fraction(1, 2), -1)), "(1/2-I)", "(1/2 - I)"),
    (lambda: Scalar.q_power(-3), "(1)/(q^3)", "Q^-3"),
    (lambda: -S_Q, "(-q)", "-Q"),
    (lambda: (S_ONE - S_Q**2) / S_Q, "(1 - q^2)/(q)", "Q^-1 - Q"),
    (lambda: S_I * S_Q**2 + Scalar.of(Fraction(1, 2)), "(1/2 + I*q^2)", "1/2 + I*Q^2"),
    (lambda: S_Q**2 - S_ONE, "(-1 + q^2)", "-1 + Q^2"),
    (
        lambda: Scalar.of(GaussRat(Fraction(1, 3), Fraction(1, 3))) * Scalar.q_power(-2) - S_Q,
        "((1/3+1/3*I) - q^3)/(q^2)",
        "(1/3 + 1/3*I)*Q^-2 - Q",
    ),
    (lambda: S_Q**3 * (S_ONE + S_Q) / Scalar.of(3), "(1/3*q^3 + 1/3*q^4)", "1/3*Q^3 + 1/3*Q^4"),
]


@pytest.mark.parametrize("make, text, expr", REPR_PINS)
def test_repr_and_expression_pins(make, text, expr):
    s = make()
    assert repr(s) == text
    assert scalar_to_expr(s) == expr
    assert parse_scalar(expr) == s
