"""Independent oracles used to freeze expected values: small hand-rolled models
that do not share code with the engine under test."""

from __future__ import annotations

from fractions import Fraction


# ---------------------------------------------------------------------------
# Gaussian rationals as two Fractions (reference for scalars.GaussRat)
# ---------------------------------------------------------------------------

class FracGauss:
    """Gaussian rational re + im*i with one exact Fraction per part."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return FracGauss(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FracGauss(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return FracGauss(-self.re, -self.im)

    def __mul__(self, other):
        return FracGauss(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inv(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return FracGauss(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * other.inv()

    def conj(self):
        return FracGauss(self.re, -self.im)

    def __eq__(self, other):
        return isinstance(other, FracGauss) and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_real(self):
        return self.im == 0

    def to_complex(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*I" if self.im != 1 else "I"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "I" if mag == 1 else f"{mag}*I"
        return f"({self.re}{sign}{istr})"


def frac_gauss_eval(coeffs, x):
    """Horner evaluation of sum_k coeffs[k] x^k."""
    out = FracGauss()
    for c in reversed(coeffs):
        out = out * x + c
    return out


def frac_gauss_rem(a, b):
    """Remainder of the coefficient list a (lowest degree first) by b, whose
    leading coefficient is nonzero; trailing zeros are dropped."""
    r = list(a)
    while r and not r[-1]:
        r.pop()
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        shift = len(r) - len(b)
        for i, x in enumerate(b):
            r[i + shift] = r[i + shift] - c * x
        while r and not r[-1]:
            r.pop()
    return r


# ---------------------------------------------------------------------------
# the order-two group algebra as a 2x2 table model
# ---------------------------------------------------------------------------

class Z2Model:
    """Functions on {+1, -1}: basis (1, u) with u the parity character."""

    basis = ("1", "u")

    @staticmethod
    def mul(i: int, j: int) -> int:
        return i ^ j  # u^i u^j = u^(i+j mod 2)

    @staticmethod
    def delta(i: int) -> list[tuple[int, int]]:
        return [(i, i)]  # group-likes

    @staticmethod
    def counit(i: int) -> int:
        return 1

    @staticmethod
    def antipode(i: int) -> int:
        return i


# ---------------------------------------------------------------------------
# Laurent model of the circle algebra
# ---------------------------------------------------------------------------

class LaurentModel:
    """Elements are dicts exponent -> Fraction; u = z, ui = z^-1."""

    @staticmethod
    def mul(a: dict, b: dict) -> dict:
        out: dict[int, Fraction] = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + c1 * c2
        return {k: c for k, c in out.items() if c}

    @staticmethod
    def antipode(a: dict) -> dict:
        return {-k: c for k, c in a.items()}

    @staticmethod
    def convolution_id_S(k: int) -> dict:
        # (id * S)(z^k) = z^k z^-k = 1
        return {0: Fraction(1)}


# ---------------------------------------------------------------------------
# quantum-plane normal form by inversion counting
# ---------------------------------------------------------------------------

def plane_normal_form(word: str) -> tuple[int, int, int]:
    """Word over {x, y}; returns (#x, #y, k) with the word equal to q^-k x^a y^b
    (each yx swap costs one inverse power of q)."""
    inversions = 0
    seen_y = 0
    for ch in word:
        if ch == "y":
            seen_y += 1
        elif ch == "x":
            inversions += seen_y
        else:
            raise ValueError(ch)
    return word.count("x"), word.count("y"), inversions


# ---------------------------------------------------------------------------
# Toeplitz word model: s^a ss^b with ss*s = 1
# ---------------------------------------------------------------------------

def toeplitz_normal_word(word: tuple[str, ...]) -> tuple[int, int]:
    """Stack model of the isometry relation: returns (a, b) with NF s^a ss^b."""
    a = b = 0
    for g in word:
        if g == "s":
            if b:
                b -= 1  # ss then s cancels: ss*s = 1 acts on the rightmost ss
            else:
                a += 1
        else:
            b += 1
    return a, b
