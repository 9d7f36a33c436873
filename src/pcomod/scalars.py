"""Exact scalar tower: Q, Q(i), and rational functions in one parameter q over Q(i).

Every coefficient in the symbolic layer is a :class:`Scalar`, a reduced
rational function q^v * n/d where n, d are polynomials in q with Gaussian
rational coefficients, neither divisible by q (d monic, gcd(n, d) = 1).
Constants and Gaussian rationals are the degree-0 special case, so one
representation serves all three declared towers; each algebra just declares
which tower its coefficients must stay inside.

In practice the coefficients of the q-deformed algebras are Laurent
polynomials (d = 1).  A product of two of them adds the exponents and
multiplies the coefficient tuples, and a sum aligns the exponents and strips
zeros from the two ends; neither takes a gcd, and the power of q is never
stored as zero coefficients.  Only a genuine denominator d != 1 reaches the
polynomial gcd.

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


def _pconj(a: Poly) -> Poly:
    return tuple(c.conj() for c in a)


P_ONE: Poly = (GR_ONE,)


def _reduce(num: Sequence[GaussRat], den: Sequence[GaussRat], v: int) -> tuple[Poly, Poly, int]:
    """Normal form ``(n, d, v')`` of q^v * num/den (see :class:`Scalar`)."""
    num = _trim(num)
    den = _trim(den)
    if not den:
        raise ZeroDivisionError("Scalar with zero denominator")
    if not num:
        return (), P_ONE, 0
    k = 0
    while not num[k]:
        k += 1
    j = 0
    while not den[j]:
        j += 1
    num, den, v = num[k:], den[j:], v + k - j
    if len(den) > 1:
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
    lead = den[-1]
    if lead != GR_ONE:
        inv = lead.inv()
        num = _pscale(num, inv)
        den = _pscale(den, inv)
    return num, (P_ONE if len(den) == 1 else den), v


def _scalar(n: Poly, d: Poly, v: int) -> "Scalar":
    """A Scalar from fields already in normal form."""
    r = _new(Scalar)
    r.n, r.d, r.v = n, d, v
    return r


def _laurent_add(n1: Poly, v1: int, n2: Poly, v2: int) -> "Scalar":
    """q^v1 * n1 + q^v2 * n2 for nonzero Laurent polynomials."""
    if v1 > v2:
        n1, v1, n2, v2 = n2, v2, n1, v1
    k = v2 - v1  # n2 starts k places above n1
    m = len(n1)
    top = k + len(n2)
    if k >= m:  # no overlap, nothing cancels
        return _scalar(n1 + (GR_ZERO,) * (k - m) + n2, P_ONE, v1)
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
    return _scalar(tuple(out[lo:hi]), P_ONE, v1 + lo)


class Scalar:
    """Reduced rational function q^v * n / d in q over the Gaussian rationals.

    Invariant: ``n`` and ``d`` are coefficient tuples, lowest degree first,
    with nonzero lowest and highest coefficients; ``d`` is monic and
    gcd(n, d) = 1, and ``d is P_ONE`` exactly when the value is a Laurent
    polynomial.  Zero is ``((), P_ONE, 0)`` and a constant has ``v == 0`` and
    ``len(n) == 1``.  Every value has one representation, so equality is
    field by field.  ``num`` and ``den`` give the dense reduced numerator and
    denominator polynomials with the power of q folded in.
    """

    __slots__ = ("n", "d", "v")

    def __init__(self, num: Poly, den: Poly = P_ONE):
        self.n, self.d, self.v = _reduce(num, den, 0)

    @property
    def num(self) -> Poly:
        v = self.v
        return (GR_ZERO,) * v + self.n if v > 0 else self.n

    @property
    def den(self) -> Poly:
        v = self.v
        return (GR_ZERO,) * -v + self.d if v < 0 else self.d

    # -- constructors ---------------------------------------------------
    @staticmethod
    def of(x: Union["Scalar", GaussRat, Fraction, int]) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if not isinstance(x, GaussRat):
            x = GaussRat(x)
        return _scalar((x,), P_ONE, 0) if x else S_ZERO

    @staticmethod
    def i() -> "Scalar":
        return _scalar((GaussRat(0, 1),), P_ONE, 0)

    @staticmethod
    def q_power(k: int) -> "Scalar":
        return _scalar(P_ONE, P_ONE, k)

    # -- predicates ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.n

    def is_one(self) -> bool:
        return not self.v and self.d is P_ONE and self.n == P_ONE

    def is_constant(self) -> bool:
        return len(self.n) <= 1 and not self.v and self.d is P_ONE

    def constant_value(self) -> GaussRat:
        if not self.is_constant():
            raise ScalarError(f"{self} is not a constant")
        return self.n[0] if self.n else GR_ZERO

    def uses_i(self) -> bool:
        return any(not c.is_real() for c in self.n + self.d)

    def uses_q(self) -> bool:
        return bool(self.v) or len(self.n) > 1 or self.d is not P_ONE

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
        d1, d2 = self.d, other.d
        if d1 is P_ONE is d2:
            v = self.v
            if len(n1) == 1 == len(n2) and v == other.v:
                c = n1[0] + n2[0]
                if not c:
                    return S_ZERO
                r = _new(Scalar)
                r.n, r.d, r.v = (c,), P_ONE, v
                return r
            return _laurent_add(n1, v, n2, other.v)
        v = min(self.v, other.v)
        a = (GR_ZERO,) * (self.v - v) + n1
        b = (GR_ZERO,) * (other.v - v) + n2
        if d1 == d2:
            return _scalar(*_reduce(_padd(a, b), d1, v))
        return _scalar(*_reduce(_padd(_pmul(a, d2), _pmul(b, d1)), _pmul(d1, d2), v))

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        n = self.n
        r = _new(Scalar)
        r.n = (-n[0],) if len(n) == 1 else tuple([-x for x in n])
        r.d, r.v = self.d, self.v
        return r

    def __mul__(self, other: "Scalar") -> "Scalar":
        n1, n2 = self.n, other.n
        if not n1 or not n2:
            return S_ZERO
        d1, d2 = self.d, other.d
        if not self.v and d1 is P_ONE and n1 == P_ONE:
            return other
        if not other.v and d2 is P_ONE and n2 == P_ONE:
            return self
        v = self.v + other.v
        if d1 is P_ONE is d2:
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
            r.n, r.d, r.v = n, P_ONE, v
            return r
        return _scalar(*_reduce(_pmul(n1, n2), _pmul(d1, d2), v))

    def inv(self) -> "Scalar":
        n = self.n
        if not n:
            raise ZeroDivisionError("inverse of zero Scalar")
        # q^-v * d/n, scaled so that n becomes monic; gcd(d, n) = 1 already
        c = n[-1].inv()
        d = self.d
        return _scalar(
            (c,) if d is P_ONE else tuple([x * c for x in d]),
            P_ONE if len(n) == 1 else tuple([x * c for x in n]),
            -self.v,
        )

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
        d = self.d
        return _scalar(_pconj(self.n), d if d is P_ONE else _pconj(d), self.v)

    # -- specialization ---------------------------------------------------
    def to_complex(self) -> complex:
        """The value of a constant; a scalar that depends on q is a ScalarError."""
        return self.constant_value().to_complex()

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
            and self.v == other.v
            and self.n == other.n
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.n, self.d, self.v))

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

        num, den = self.num, self.den
        if den == P_ONE:
            if len(num) <= 1:
                return poly_str(num)
            return f"({poly_str(num)})"
        return f"({poly_str(num)})/({poly_str(den)})"


S_ZERO = _scalar((), P_ONE, 0)
S_ONE = _scalar(P_ONE, P_ONE, 0)
S_I = Scalar.i()
S_Q = Scalar.q_power(1)
S_QINV = Scalar.q_power(-1)

#: minimal polynomial q^2 + q + 1 of a primitive cube root of unity
CUBE_ROOT_MINPOLY: Poly = (GR_ONE, GR_ONE, GR_ONE)
