"""Exact scalar tower: Q, Q(i), and Laurent polynomials in one parameter q over Q(i).

Every coefficient in the symbolic layer is a :class:`Scalar`, a Laurent
polynomial q^v * n where n is a polynomial in q with Gaussian rational
coefficients, not divisible by q.  Constants and Gaussian rationals are the
degree-0 special case, so one representation serves all three declared
towers; each algebra just declares which tower its coefficients must stay
inside (the schema still names the widest one "Q(i)(q)").

A product of two scalars adds the exponents and multiplies the coefficient
tuples, and a sum aligns the exponents and strips zeros from the two ends;
neither takes a gcd, and the power of q is never stored as zero
coefficients.  Only the monomials c*q^k are units: the inverse of any other
scalar is a ScalarError, so no value has a denominator.

A Gaussian rational is three Python ints ``(a, b, d)`` standing for
``(a + b*i)/d`` over one common denominator, so each ring operation takes at
most one gcd, a sum of equal denominators needs no cross products, and a sum
over denominator 1 takes no gcd at all (after Henrici; Knuth, TAOCP Vol. 2,
4.5.1).  A constant Scalar (no q) adds and multiplies its single coefficient
directly, without the polynomial helpers.
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
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
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


def _pmul(a: Poly, b: Poly) -> Poly:
    """Product of two polynomials with nonzero leading coefficients; the
    product's leading coefficient is then nonzero too, so nothing is trimmed."""
    out = [GR_ZERO] * (len(a) + len(b) - 1)
    bz = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in bz:
                k = i + j
                o = out[k]
                out[k] = x * y if o is GR_ZERO else o + x * y
    return tuple(out)


P_ONE: Poly = (GR_ONE,)


def _scalar(n: Poly, v: int) -> "Scalar":
    """A Scalar from fields already in normal form."""
    r = _new(Scalar)
    r.n, r.v = n, v
    return r


def _laurent_add(n1: Poly, v1: int, n2: Poly, v2: int) -> "Scalar":
    """q^v1 * n1 + q^v2 * n2 for nonzero Laurent polynomials."""
    if v1 > v2:
        n1, v1, n2, v2 = n2, v2, n1, v1
    k = v2 - v1  # n2 starts k places above n1
    m = len(n1)
    top = k + len(n2)
    if k >= m:  # no overlap, nothing cancels
        return _scalar(n1 + (GR_ZERO,) * (k - m) + n2, v1)
    out = list(n1)
    if top > m:
        out += n2[m - k:]
    for i, x in enumerate(n2[: m - k], k):
        out[i] = out[i] + x
    # Only coefficients both operands reach can cancel: the lowest when the
    # exponents agree, the highest when the tops agree.
    hi = max(m, top)
    if top == m:
        while hi and not out[hi - 1]:
            hi -= 1
        if not hi:
            return S_ZERO
    lo = 0
    if not k:
        while not out[lo]:
            lo += 1
    return _scalar(tuple(out[lo:hi]), v1 + lo)


class Scalar:
    """Laurent polynomial q^v * n in q over the Gaussian rationals.

    Invariant: ``n`` is a coefficient tuple, lowest degree first, with
    nonzero lowest and highest coefficients.  Zero is ``((), 0)`` and a
    constant has ``v == 0`` and ``len(n) == 1``.  Every value has one
    representation, so equality is field by field.  The units are the
    monomials c*q^k; ``inv`` of any other value is a ScalarError.

    Why no denominators: an ideal whose generators have unit leading
    coefficients is oriented into rules by inverting units alone, and every
    q -> q0 != 0 is a ring map Q(i)[q, q^-1] -> Q(i) that keeps a unit a
    nonzero constant.  So each rule keeps its leading word at q0, each
    critical pair resolved at formal q stays resolved (Bergman 1978:
    resolvability is preserved by a ring map), and every formal-q
    certificate holds at every q0 != 0.  A leading coefficient such as 1 + q
    would vanish at q0 = -1 and break that, so it is refused instead.
    """

    __slots__ = ("n", "v")

    def __init__(self, coeffs: Sequence[GaussRat], v: int = 0):
        """q^v * (coeffs[0] + coeffs[1]*q + ...), brought to normal form."""
        hi = len(coeffs)
        while hi and not coeffs[hi - 1]:
            hi -= 1
        lo = 0
        while lo < hi and not coeffs[lo]:
            lo += 1
        self.n, self.v = tuple(coeffs[lo:hi]), (v + lo if hi else 0)

    # -- constructors ---------------------------------------------------
    @staticmethod
    def of(x: Union["Scalar", GaussRat, Fraction, int]) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if not isinstance(x, GaussRat):
            x = GaussRat(x)
        return _scalar((x,), 0) if x else S_ZERO

    @staticmethod
    def i() -> "Scalar":
        return _scalar((GaussRat(0, 1),), 0)

    @staticmethod
    def q_power(k: int) -> "Scalar":
        return _scalar(P_ONE, k)

    # -- predicates ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.n

    def is_one(self) -> bool:
        return not self.v and self.n == P_ONE

    def is_constant(self) -> bool:
        return len(self.n) <= 1 and not self.v

    def constant_value(self) -> GaussRat:
        if not self.is_constant():
            raise ScalarError(f"{self} is not a constant")
        return self.n[0] if self.n else GR_ZERO

    def uses_i(self) -> bool:
        return any(not c.is_real() for c in self.n)

    def uses_q(self) -> bool:
        return bool(self.v) or len(self.n) > 1

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
        n1 = self.n
        if not n1:
            return other
        n2 = other.n
        if not n2:
            return self
        v = self.v
        if len(n1) == 1 == len(n2) and v == other.v:
            c = n1[0] + n2[0]
            if not c:
                return S_ZERO
            r = _new(Scalar)
            r.n, r.v = (c,), v
            return r
        return _laurent_add(n1, v, n2, other.v)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        n = self.n
        r = _new(Scalar)
        r.n = (-n[0],) if len(n) == 1 else tuple([-x for x in n])
        r.v = self.v
        return r

    def __mul__(self, other: "Scalar") -> "Scalar":
        n1, n2 = self.n, other.n
        if not n1 or not n2:
            return S_ZERO
        if not self.v and n1 == P_ONE:
            return other
        if not other.v and n2 == P_ONE:
            return self
        if len(n1) == 1:
            c = n1[0]
            if len(n2) == 1:
                n = (c * n2[0],)
            elif c == GR_ONE:
                n = n2
            else:
                n = tuple([c * x for x in n2])
        elif len(n2) == 1:
            c = n2[0]
            n = n1 if c == GR_ONE else tuple([x * c for x in n1])
        else:
            n = _pmul(n1, n2)
        r = _new(Scalar)
        r.n, r.v = n, self.v + other.v
        return r

    def inv(self) -> "Scalar":
        n = self.n
        if not n:
            raise ZeroDivisionError("inverse of zero Scalar")
        if len(n) > 1:
            raise ScalarError(f"{self!r} is not a unit c*q^k of Q(i)[q, q^-1]")
        return _scalar((n[0].inv(),), -self.v)

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
        return _scalar(tuple(c.conj() for c in self.n), self.v)

    # -- specialization ---------------------------------------------------
    def to_complex(self) -> complex:
        """The value of a constant; a scalar that depends on q is a ScalarError."""
        return self.constant_value().to_complex()

    def vanishes_mod(self, minpoly: Poly) -> bool:
        """True iff this scalar is 0 after reducing q by the given monic
        minimal polynomial of a nonzero value, so that q^v is a unit modulo
        it and only the remainder of n decides."""
        r = list(self.n)
        top = len(minpoly) - 1
        while len(r) > top:
            c = r.pop()
            if c:
                d = len(r) - top
                for i, x in enumerate(minpoly[:top]):
                    r[d + i] = r[d + i] - c * x
        return not any(r)

    # -- plumbing ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self.v == other.v and self.n == other.n

    def __hash__(self):
        return hash((self.n, self.v))

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

        v = self.v
        if v < 0:
            return f"({poly_str(self.n)})/({'q' if v == -1 else f'q^{-v}'})"
        num = (GR_ZERO,) * v + self.n
        return poly_str(num) if len(num) <= 1 else f"({poly_str(num)})"


S_ZERO = _scalar((), 0)
S_ONE = _scalar(P_ONE, 0)
S_I = Scalar.i()
S_Q = Scalar.q_power(1)
S_QINV = Scalar.q_power(-1)

#: minimal polynomial q^2 + q + 1 of a primitive cube root of unity
CUBE_ROOT_MINPOLY: Poly = (GR_ONE, GR_ONE, GR_ONE)
