"""Exact scalar tower: Q, Q(i), and rational functions in one parameter q over Q(i).

Every coefficient in the symbolic layer is a :class:`Scalar`, a reduced
rational function num/den where num, den are polynomials in q with Gaussian
rational coefficients (den monic, gcd(num, den) = 1, common q-powers
stripped).  Constants and Gaussian rationals are the degree-0 special case,
so one representation serves all three declared towers; each algebra just
declares which tower its coefficients must stay inside.

A Gaussian rational is three Python ints ``(a, b, d)`` standing for
``(a + b*i)/d`` over one common denominator, so each ring operation takes at
most one gcd, a sum of equal denominators needs no cross products, and a sum
over denominator 1 takes no gcd at all (after Henrici; Knuth, TAOCP Vol. 2,
4.5.1).  A constant Scalar (no q)
adds and multiplies its single coefficient directly, without the polynomial
helpers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

IntLike = Union[int, Fraction]


class ScalarError(ValueError):
    pass


_new = object.__new__


class GaussRat:
    """Gaussian rational (a + b*i)/d held as three ints.

    Invariant: d > 0 and gcd(a, b, d) = 1, so every value has exactly one
    representation and equality is field by field; zero is (0, 0, 1).  The
    real and imaginary parts are available as :class:`Fraction` properties.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: IntLike = 0, im: IntLike = 0):
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        self.a = int(re * d)
        self.b = int(im * d)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other: "GaussRat") -> "GaussRat":
        d = self.d
        if d == other.d:
            a = self.a + other.a
            b = self.b + other.b
        else:
            a = self.a * other.d + other.a * d
            b = self.b * other.d + other.b * d
            d *= other.d
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
        r = _new(GaussRat)
        r.a, r.b, r.d = a, b, d
        return r

    def __sub__(self, other: "GaussRat") -> "GaussRat":
        return self + (-other)

    def __neg__(self) -> "GaussRat":
        r = _new(GaussRat)
        r.a, r.b, r.d = -self.a, -self.b, self.d
        return r

    def __mul__(self, other: "GaussRat") -> "GaussRat":
        d = self.d * other.d
        if not self.b and not other.b:
            a = self.a * other.a
            b = 0
            g = gcd(a, d)
        else:
            a = self.a * other.a - self.b * other.b
            b = self.a * other.b + self.b * other.a
            g = gcd(a, b, d)
        r = _new(GaussRat)
        if g == 1:
            r.a, r.b, r.d = a, b, d
        else:
            r.a, r.b, r.d = a // g, b // g, d // g
        return r

    def inv(self) -> "GaussRat":
        # d / (a + b*i) = d*(a - b*i) / (a^2 + b^2)
        a, b = self.a, self.b
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        a *= self.d
        b *= -self.d
        g = gcd(a, b, n)
        r = _new(GaussRat)
        r.a, r.b, r.d = a // g, b // g, n // g
        return r

    def __truediv__(self, other: "GaussRat") -> "GaussRat":
        return self * other.inv()

    def conj(self) -> "GaussRat":
        r = _new(GaussRat)
        r.a, r.b, r.d = self.a, -self.b, self.d
        return r

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaussRat)
            and self.a == other.a
            and self.b == other.b
            and self.d == other.d
        )

    def __hash__(self):
        # equal to hash((re, im)) of the Fraction parts
        if self.d == 1:
            return hash((self.a, self.b))
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def is_real(self) -> bool:
        return not self.b

    def to_complex(self) -> complex:
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}*I" if im != 1 else "I"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        istr = "I" if mag == 1 else f"{mag}*I"
        return f"({re}{sign}{istr})"


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)

# ----------------------------------------------------------------------
# dense polynomial helpers over GaussRat; tuples, lowest degree first
# ----------------------------------------------------------------------

Poly = tuple  # tuple[GaussRat, ...]


def _trim(c: Sequence[GaussRat]) -> Poly:
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = out[i] + x
    return _trim(out)


def _pneg(a: Poly) -> Poly:
    return tuple(-x for x in a)


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    # monomial fast paths (trailing coefficient is nonzero by the trim invariant)
    if not any(b[:-1]):
        c = b[-1]
        shifted = a if c == GR_ONE else tuple(x * c for x in a)
        return (GR_ZERO,) * (len(b) - 1) + tuple(shifted)
    if not any(a[:-1]):
        c = a[-1]
        shifted = b if c == GR_ONE else tuple(x * c for x in b)
        return (GR_ZERO,) * (len(a) - 1) + tuple(shifted)
    out = [GR_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return _trim(out)


def _pscale(a: Poly, c: GaussRat) -> Poly:
    if not c:
        return ()
    return _trim([x * c for x in a])


def _pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [GR_ZERO] * max(0, len(a) - len(b) + 1)
    r = list(a)
    inv_lead = b[-1].inv()
    while len(r) >= len(b):
        c = r[-1] * inv_lead
        d = len(r) - len(b)
        q[d] = c
        for i, x in enumerate(b):
            r[i + d] = r[i + d] - c * x
        del r[-1]
        while r and not r[-1]:
            del r[-1]
    return _trim(q), _trim(r)


def _pgcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        a = _pscale(a, a[-1].inv())  # monic
    return a


def _is_q_power(p: Poly) -> bool:
    """True for monic monomials c_k q^k with c_k = 1 (includes the constant 1)."""
    return bool(p) and p[-1] == GR_ONE and not any(p[:-1])


def _peval(a: Poly, x: GaussRat) -> GaussRat:
    out = GR_ZERO
    for c in reversed(a):
        out = out * x + c
    return out


def _pconj(a: Poly) -> Poly:
    return tuple(c.conj() for c in a)


P_ONE: Poly = (GR_ONE,)


class Scalar:
    """Reduced rational function in q over the Gaussian rationals."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = P_ONE, _reduced: bool = False):
        if _reduced:
            self.num = num
            self.den = den
            return
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise ZeroDivisionError("Scalar with zero denominator")
        if not num:
            self.num, self.den = (), P_ONE
            return
        # strip common power of q
        shift = 0
        while shift < len(num) and shift < len(den) and not num[shift] and not den[shift]:
            shift += 1
        if shift:
            num, den = num[shift:], den[shift:]
        if _is_q_power(den):
            # after the strip, gcd(num, q^k) = 1; den is already monic
            self.num = num
            self.den = den
            return
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
        lead = den[-1]
        if lead != GR_ONE:
            inv = lead.inv()
            num = _pscale(num, inv)
            den = _pscale(den, inv)
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------
    @staticmethod
    def of(x: Union["Scalar", GaussRat, Fraction, int]) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, GaussRat):
            return Scalar((x,)) if x else S_ZERO
        return Scalar((GaussRat(x),)) if x else S_ZERO

    @staticmethod
    def i() -> "Scalar":
        return Scalar((GaussRat(0, 1),))

    @staticmethod
    def q_power(k: int) -> "Scalar":
        if k >= 0:
            return Scalar(tuple([GR_ZERO] * k + [GR_ONE]))
        return Scalar(P_ONE, tuple([GR_ZERO] * (-k) + [GR_ONE]))

    # -- predicates ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == P_ONE and self.den == P_ONE

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and self.den == P_ONE

    def constant_value(self) -> GaussRat:
        if not self.is_constant():
            raise ScalarError(f"{self} is not a constant")
        return self.num[0] if self.num else GR_ZERO

    def uses_i(self) -> bool:
        return any(not c.is_real() for c in self.num + self.den)

    def uses_q(self) -> bool:
        return len(self.num) > 1 or len(self.den) > 1

    def in_tower(self, tower: str) -> bool:
        if tower == "Q":
            return not self.uses_i() and not self.uses_q()
        if tower == "Q(i)":
            return not self.uses_q()
        if tower == "Q(i)(q)":
            return True
        raise ScalarError(f"unknown scalar tower {tower!r}")

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "Scalar") -> "Scalar":
        if not self.num:
            return other
        if not other.num:
            return self
        if len(self.num) == 1 == len(other.num) and len(self.den) == 1 == len(other.den):
            c = self.num[0] + other.num[0]
            return Scalar((c,), P_ONE, _reduced=True) if c else S_ZERO
        if self.den == other.den:
            return Scalar(_padd(self.num, other.num), self.den)
        return Scalar(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return Scalar(_pneg(self.num), self.den, _reduced=True)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if not self.num or not other.num:
            return S_ZERO
        if self.num == P_ONE and self.den == P_ONE:
            return other
        if other.num == P_ONE and other.den == P_ONE:
            return self
        if len(self.num) == 1 == len(other.num) and len(self.den) == 1 == len(other.den):
            return Scalar((self.num[0] * other.num[0],), P_ONE, _reduced=True)
        if self.den == P_ONE and other.den == P_ONE:
            return Scalar(_pmul(self.num, other.num), P_ONE)
        return Scalar(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def inv(self) -> "Scalar":
        if not self.num:
            raise ZeroDivisionError("inverse of zero Scalar")
        return Scalar(self.den, self.num)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inv()

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inv() ** (-k)
        out = S_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "Scalar":
        """Complex conjugation; the parameter q is fixed (treated as real)."""
        return Scalar(_pconj(self.num), _pconj(self.den))

    # -- specialization ---------------------------------------------------
    def substitute_q(self, value: GaussRat) -> "Scalar":
        den = _peval(self.den, value)
        if not den:
            raise ScalarError(f"denominator of {self} vanishes at q={value}")
        return Scalar.of(_peval(self.num, value) / den)

    def to_complex(self, q: complex | None = None) -> complex:
        if self.uses_q():
            if q is None:
                raise ScalarError(f"{self} depends on q; a value is required")
            n = sum(c.to_complex() * q**k for k, c in enumerate(self.num))
            d = sum(c.to_complex() * q**k for k, c in enumerate(self.den))
            return n / d
        return self.constant_value().to_complex() if self.num else 0j

    def vanishes_mod(self, minpoly: Poly) -> bool:
        """True iff this scalar is 0 after reducing q by the given minimal polynomial."""
        g = _pgcd(self.den, minpoly)
        if len(g) > 1:
            raise ScalarError("denominator not invertible modulo the minimal polynomial")
        return not _pdivmod(self.num, minpoly)[1]

    # -- plumbing ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        def poly_str(p: Poly) -> str:
            if not p:
                return "0"
            parts = []
            for k, c in enumerate(p):
                if not c:
                    continue
                if k == 0:
                    parts.append(repr(c))
                else:
                    qs = "q" if k == 1 else f"q^{k}"
                    if c == GR_ONE:
                        parts.append(qs)
                    elif c == -GR_ONE:
                        parts.append(f"-{qs}")
                    else:
                        parts.append(f"{c!r}*{qs}")
            s = " + ".join(parts)
            return s.replace("+ -", "- ")

        if self.den == P_ONE:
            if len(self.num) <= 1:
                return poly_str(self.num)
            return f"({poly_str(self.num)})"
        return f"({poly_str(self.num)})/({poly_str(self.den)})"


S_ZERO = Scalar((), P_ONE, _reduced=True)
S_ONE = Scalar(P_ONE, P_ONE, _reduced=True)
S_I = Scalar.i()
S_Q = Scalar.q_power(1)
S_QINV = Scalar.q_power(-1)

#: minimal polynomial q^2 + q + 1 of a primitive cube root of unity
CUBE_ROOT_MINPOLY: Poly = (GR_ONE, GR_ONE, GR_ONE)
