import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import FracGauss, frac_gauss_eval, frac_gauss_rem, scalar_to_expr, substitute_q
from pcomod import scalars
from pcomod.exprs import ParseError, parse_scalar
from pcomod.scalars import (
    CUBE_ROOT_MINPOLY,
    GR_ONE,
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
        if not a.is_zero():
            assert a * a.inv() == S_ONE


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
    a = (S_Q**2 - S_ONE) / (S_Q - S_ONE)   # = q + 1
    assert a == S_Q + S_ONE
    b = Scalar.q_power(3) / Scalar.q_power(2)
    assert b == S_Q
    assert repr(S_Q.inv()) == "(1)/(q)"


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
    the same expressions over q-polynomial operands take the general path and
    must agree after q -> 1, or modulo q^2 + q + 1 for vanishes_mod.  Both
    are checked against the oracle."""
    a, b, c = (Scalar.of(GaussRat(*x)) for x in consts)
    oa, ob, oc = (FracGauss(*x) for x in consts)
    ts = [Scalar.of(GaussRat(*t)) for t in slopes]
    A, B, C = (lift(s, t) for s, t in zip((a, b, c), ts))

    def same(const: Scalar, general: Scalar, oracle: FracGauss) -> None:
        assert const.is_constant()
        assert const == Scalar(const.num, const.den)  # fast path is reduced
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
    assert a - a == S_ZERO and (a - a).num == ()
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
        same(a.inv(), A.inv(), oa.inv())
        same(b / a, B / A, ob / oa)
        assert a * a.inv() == S_ONE and A * A.inv() == S_ONE


def test_constant_fast_path_skips_polynomial_helpers(monkeypatch):
    def refuse(*args):
        raise AssertionError("constant arithmetic reached the polynomial helpers")

    a = Scalar.of(GaussRat(Fraction(2, 3), 1))
    b = Scalar.of(GaussRat(-5, Fraction(1, 7)))
    monkeypatch.setattr(scalars, "_padd", refuse)
    monkeypatch.setattr(scalars, "_pmul", refuse)
    assert (a + b).constant_value() == GaussRat(Fraction(-13, 3), Fraction(8, 7))
    assert (a * b).constant_value() == GaussRat(Fraction(-73, 21), Fraction(-103, 21))
    assert a + (-a) is S_ZERO


@settings(max_examples=150)
@given(
    st.lists(gauss_pairs, min_size=1, max_size=4),
    st.lists(gauss_pairs, min_size=1, max_size=3),
    gauss_pairs,
)
def test_substitute_q_matches_oracle(num, den, value):
    onum, oden, ov = [FracGauss(*x) for x in num], [FracGauss(*x) for x in den], FracGauss(*value)
    d = frac_gauss_eval(oden, ov)
    assume(d)  # then the reduced denominator does not vanish at the value either
    s = Scalar(tuple(GaussRat(*x) for x in num), tuple(GaussRat(*x) for x in den))
    got = substitute_q(s, GaussRat(*value))
    assert got.is_constant()
    assert_same(got.constant_value(), frac_gauss_eval(onum, ov) / d)


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
    s = Scalar(num, Scalar.q_power(shift).num)  # num / q^shift, q invertible mod minpoly
    assert s.vanishes_mod(CUBE_ROOT_MINPOLY) == (not frac_gauss_rem(onum, minpoly))
    if force_multiple:
        assert s.vanishes_mod(CUBE_ROOT_MINPOLY)


# ---------------------------------------------------------------------------
# the (n, d, v) representation against evaluation at Gaussian-rational q
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
    """(Scalar, value at q) built from oracle coefficient lists: a Laurent
    polynomial q^k * p with k in -4..4, or a general quotient p / r."""
    num = [FracGauss(*c) for c in draw(small_coeffs)]
    if draw(st.booleans()):
        k = draw(st.integers(-4, 4))
        if k >= 0:
            s = Scalar(to_engine([FracGauss()] * k + num))
        else:
            s = Scalar(to_engine(num), to_engine([FracGauss()] * -k + [FracGauss(1)]))
        return s, lambda x: x_power(x, k) * frac_gauss_eval(num, x)
    den = [FracGauss(*c) for c in draw(small_coeffs)]
    assume(all(frac_gauss_eval(den, x) for x in Q_POINTS))
    return Scalar(to_engine(num), to_engine(den)), lambda x: frac_gauss_eval(num, x) / frac_gauss_eval(den, x)


def to_engine(coeffs) -> tuple:
    return tuple(GaussRat(c.re, c.im) for c in coeffs)


def to_oracle(poly) -> list:
    return [FracGauss(c.re, c.im) for c in poly]


def x_power(x: FracGauss, k: int) -> FracGauss:
    out = FracGauss(1)
    for _ in range(abs(k)):
        out = out * x
    return out if k >= 0 else out.inv()


def oracle_gcd_is_one(a, b) -> bool:
    while b:
        a, b = b, frac_gauss_rem(a, b)
    return len(a) == 1


def value_at(s: Scalar, x: FracGauss) -> FracGauss:
    """Evaluate through the dense num/den views."""
    return frac_gauss_eval(to_oracle(s.num), x) / frac_gauss_eval(to_oracle(s.den), x)


def assert_scalar_normal(s: Scalar) -> None:
    n, d, v = s.n, s.d, s.v
    assert type(n) is tuple and type(d) is tuple and type(v) is int
    assert all(type(c) is GaussRat for c in n + d)
    if not n:
        assert (d, v) == (scalars.P_ONE, 0) and d is scalars.P_ONE
        return
    assert n[0] and n[-1] and d[0]
    assert d[-1] == GR_ONE
    assert (len(d) == 1) == (d is scalars.P_ONE)
    assert oracle_gcd_is_one(to_oracle(n), to_oracle(d))
    rebuilt = Scalar(s.num, s.den)
    assert (rebuilt.n, rebuilt.d, rebuilt.v) == (n, d, v)
    assert rebuilt == s and hash(rebuilt) == hash(s)


@settings(max_examples=150, deadline=None)
@given(scalar_cases(), scalar_cases())
def test_laurent_and_general_paths_match_evaluation(x, y):
    a, fa = x
    b, fb = y
    results = {
        "+": (a + b, lambda p: fa(p) + fb(p)),
        "-": (a - b, lambda p: fa(p) - fb(p)),
        "*": (a * b, lambda p: fa(p) * fb(p)),
        "neg": (-a, lambda p: -fa(p)),
        "conj": (a.conj(), lambda p: fa(p.conj()).conj()),
    }
    if not b.is_zero():
        results["inv"] = (b.inv(), lambda p: fb(p).inv())
        results["/"] = (a / b, lambda p: fa(p) / fb(p))
    for s in (a, b):
        assert_scalar_normal(s)
    for op, (got, want) in results.items():
        assert_scalar_normal(got)
        for p in Q_POINTS:
            if op in ("inv", "/") and not fb(p):
                continue
            assert value_at(got, p) == want(p), (op, p)
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    zero = a - a
    assert zero == S_ZERO and (zero.n, zero.d, zero.v) == ((), scalars.P_ONE, 0)


def test_laurent_arithmetic_skips_gcd(monkeypatch):
    """Sums and products of Laurent polynomials (denominator a power of q)
    never take a polynomial gcd or division; constants never reach the
    polynomial helpers at all."""
    half = Scalar.of(Fraction(1, 2))
    a = (S_ONE - S_Q**2) / S_Q                      # q^-1 - q
    b = S_Q + Scalar.of(GaussRat(0, 1)) * S_Q**3     # q + I q^3
    c = half * Scalar.q_power(-4)
    expected = {
        "a+b": a + b, "a*b": a * b, "a+c": a + c, "c*c": c * c, "b-b": b - b,
        "a+q": a + S_Q, "1/c": c.inv(), "-a": -a,
    }

    def refuse(*args):
        raise AssertionError("Laurent arithmetic reached a gcd or division")

    monkeypatch.setattr(scalars, "_pgcd", refuse)
    monkeypatch.setattr(scalars, "_pdivmod", refuse)
    got = {
        "a+b": a + b, "a*b": a * b, "a+c": a + c, "c*c": c * c, "b-b": b - b,
        "a+q": a + S_Q, "1/c": c.inv(), "-a": -a,
    }
    assert got == expected
    assert repr(got["a+q"]) == "(1)/(q)" and got["b-b"] is S_ZERO
    assert repr(got["a*b"]) == "(1 + (-1+I)*q^2 - 1*I*q^4)"

    def refuse_poly(*args):
        raise AssertionError("constant arithmetic reached the polynomial helpers")

    monkeypatch.setattr(scalars, "_padd", refuse_poly)
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
# exported presentations; these strings are the ones the dense num/den
# representation printed.
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
    (lambda: S_ONE / (S_ONE + S_Q), "(1)/(1 + q)", None),
    (lambda: S_Q**2 - S_ONE, "(-1 + q^2)", "-1 + Q^2"),
    (
        lambda: Scalar.of(GaussRat(Fraction(1, 3), Fraction(1, 3))) * Scalar.q_power(-2) - S_Q,
        "((1/3+1/3*I) - q^3)/(q^2)",
        "(1/3 + 1/3*I)*Q^-2 - Q",
    ),
    (lambda: (Scalar.of(2) * S_Q - S_ONE) / (S_Q**2 * (S_Q**2 + S_ONE)), "(-1 + 2*q)/(q^2 + q^4)", None),
    (lambda: S_Q**3 * (S_ONE + S_Q) / Scalar.of(3), "(1/3*q^3 + 1/3*q^4)", "1/3*Q^3 + 1/3*Q^4"),
]


@pytest.mark.parametrize("make, text, expr", REPR_PINS)
def test_repr_and_expression_pins(make, text, expr):
    s = make()
    assert repr(s) == text
    if expr is None:
        with pytest.raises(ParseError, match="cannot render denominator"):
            scalar_to_expr(s)
    else:
        assert scalar_to_expr(s) == expr
        assert parse_scalar(expr) == s
