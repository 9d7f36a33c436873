"""Expression grammar and the algebra-presentation JSON schema.

Expression grammar (whitespace insignificant):
    atoms:  generator names, integer literals `n` or `n/m`, `I` (imaginary
            unit), `Q` (the parameter q: formal, or the value the parser
            was given, so a presentation is built once at its q)
    ops:    `*` (left-assoc), `+`, `-` (binary and unary), `^` integer power
            (negative exponents only on constants), `#` (tensor separator,
            binds between `*` and `+`), parentheses.

A subexpression whose value is a constant acts as a scalar: `(s - s + 2)^-1`
is 1/2.  A zero denominator, a negative power of zero and an integer literal
that `int()` rejects are parse errors, and so are an exponent above
MAX_EXPONENT in absolute value and a power whose expansion passes TERM_CAP
terms, a word of WORD_CAP letters or a scalar or coefficient of SCALAR_CAP
bits.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .ncpoly import EMPTY, Alphabet, NCPoly, add_terms
from .rewrite import TERM_CAP, RewriteSystem
from .scalars import S_ONE, S_Q, S_ZERO, GaussRat, Scalar

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|\^|\*|\+|-|#|\(|\)|/|=)")
_MINUS_ONE = -S_ONE
MAX_EXPONENT = 1000
WORD_CAP = 10_000  # the most letters in a word of a parsed power
SCALAR_CAP = 100_000  # the most bits in a parsed power's constant or coefficient (``_bits``)


class ParseError(ValueError):
    pass


def tokenize(s: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip() == "":
                break
            raise ParseError(f"bad token at {s[pos:pos+12]!r}")
        out.append(m.group(1))
        pos = m.end()
    out.append("<end>")
    return out


def _bits(c: Scalar) -> int:
    """The size of c written out densely: the bits of every coefficient of
    its numerator and denominator, plus one for each power of q it carries."""
    return abs(c.v) + sum(g.a.bit_length() + g.b.bit_length() + g.d.bit_length() for g in c.n + c.d)


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError as e:
        raise ParseError(f"bad integer literal {tok[:12]!r}...: {e}") from None


class Parsed:
    """A parsed expression: its terms {(word, ..., word): coeff} over the
    union alphabet, with no zero coefficient, and its leg count, carried so
    that a tensor whose terms cancel keeps it.  A polynomial has one leg; a
    scalar is a one-leg value whose only word is the empty word."""

    __slots__ = ("terms", "legs")

    def __init__(self, terms: dict, legs: int = 1):
        self.terms = terms
        self.legs = legs

    @staticmethod
    def scalar(c: Scalar) -> "Parsed":
        return Parsed({} if c.is_zero() else {(EMPTY,): c})

    def constant(self) -> Scalar | None:
        """The scalar this value is, or None."""
        if self.legs != 1 or len(self.terms) > 1:
            return None
        return self.terms.get((EMPTY,)) if self.terms else S_ZERO

    def scale(self, c: Scalar) -> "Parsed":
        return Parsed(add_terms({}, self.terms.items(), c), self.legs)

    def product(self, other: "Parsed", join, legs: int) -> "Parsed":
        """Every term of self times every term of other, their keys joined."""
        out: dict = {}
        for k1, c1 in self.terms.items():
            add_terms(out, ((join(k1, k2), c2) for k2, c2 in other.terms.items()), c1)
        return Parsed(out, legs)


class Parser:
    def __init__(self, s: str, alphabet: Alphabet, q: GaussRat | None = None):
        self.tokens = tokenize(s)
        self.i = 0
        self.alphabet = alphabet
        self.q = S_Q if q is None else Scalar.of(q)

    def peek(self) -> str:
        return self.tokens[self.i]

    def take(self) -> str:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, t: str):
        got = self.take()
        if got != t:
            raise ParseError(f"expected {t!r}, got {got!r}")

    # expr := tensor (('+'|'-') tensor)*
    def expr(self) -> Parsed:
        v = self.tensor()
        while self.peek() in ("+", "-"):
            sign = None if self.take() == "+" else _MINUS_ONE
            w = self.tensor()
            if w.legs != v.legs:
                raise ParseError(f"tensor has {w.legs} legs, expected {v.legs}")
            v = Parsed(add_terms(dict(v.terms), w.terms.items(), sign), v.legs)
        return v

    # tensor := product ('#' product)*
    def tensor(self) -> Parsed:
        v = self.product()
        while self.peek() == "#":
            self.take()
            w = self.product()
            v = v.product(w, operator.add, v.legs + w.legs)
        return v

    # product := unary ('*' unary)*
    def product(self) -> Parsed:
        v = self.unary()
        while self.peek() == "*":
            self.take()
            v = self.times(v, self.unary())
        return v

    def times(self, a: Parsed, b: Parsed) -> Parsed:
        c = a.constant()
        if c is not None:
            return b.scale(c)
        c = b.constant()
        if c is not None:
            return a.scale(c)
        if a.legs != 1 or b.legs != 1:
            raise ParseError("cannot multiply tensors")
        canon = self.alphabet.canon
        return a.product(b, lambda k1, k2: (canon(k1[0] + k2[0]),), 1)

    def unary(self) -> Parsed:
        if self.peek() == "-":
            self.take()
            return self.unary().scale(_MINUS_ONE)
        return self.power()

    def power(self) -> Parsed:
        v = self.atom()
        if self.peek() != "^":
            return v
        self.take()
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"bad exponent {tok!r}")
        k = sign * _int(tok)
        if abs(k) > MAX_EXPONENT:
            raise ParseError(f"exponent {k} is over {MAX_EXPONENT} in absolute value")
        c = v.constant()
        if c is not None:
            if k < 0:
                if c.is_zero():
                    raise ParseError("negative power of zero")
                c, k = c.inv(), -k
            out = S_ONE
            for _ in range(k):
                out = out * c
                if _bits(out) > SCALAR_CAP:
                    raise ParseError(f"power has over {SCALAR_CAP} bits")
            return Parsed.scalar(out)
        if v.legs != 1:
            raise ParseError("cannot raise a tensor to a power")
        if k < 0:
            raise ParseError("negative powers are only defined for constants")
        # a power of a polynomial of degree d has degree exactly k*d: words
        # multiply with no cancellation among the top terms
        d = max(len(w) for (w,) in v.terms)
        out = Parsed.scalar(S_ONE)
        for i in range(1, k + 1):
            if i * d > WORD_CAP:
                raise ParseError(f"power has a word of over {WORD_CAP} letters")
            out = self.times(out, v)
            if len(out.terms) > TERM_CAP:
                raise ParseError(f"power has over {TERM_CAP} terms")
            if any(_bits(c) > SCALAR_CAP for c in out.terms.values()):
                raise ParseError(f"power has a coefficient of over {SCALAR_CAP} bits")
        return out

    def atom(self) -> Parsed:
        tok = self.take()
        if tok == "(":
            v = self.expr()
            self.expect(")")
            return v
        if tok.isdigit():
            num = _int(tok)
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not den.isdigit():
                    raise ParseError(f"bad fraction denominator {den!r}")
                den = _int(den)
                if not den:
                    raise ParseError("zero denominator")
                return Parsed.scalar(Scalar.of(Fraction(num, den)))
            return Parsed.scalar(Scalar.of(num))
        if tok == "I":
            return Parsed.scalar(Scalar.i())
        if tok == "Q":
            return Parsed.scalar(self.q)
        if tok in self.alphabet.rank:
            return Parsed({((tok,),): S_ONE})
        raise ParseError(f"unknown atom {tok!r}")

    def finish(self, legs: int = 1) -> Parsed:
        v = self.expr()
        if self.peek() != "<end>":
            raise ParseError(f"trailing input at {self.peek()!r}")
        if v.legs != legs:
            raise ParseError(f"tensor has {v.legs} legs, expected {legs}")
        return v


def parse_poly(s: str, alphabet: Alphabet, q: GaussRat | None = None) -> NCPoly:
    terms = Parser(s, alphabet, q).finish().terms
    return NCPoly._of(alphabet, {w: c for (w,), c in terms.items()})


def parse_scalar(s: str, q: GaussRat | None = None) -> Scalar:
    # over the empty alphabet every one-leg value is a constant
    return Parser(s, Alphabet(()), q).finish().constant()


def parse_relation(s: str, alphabet: Alphabet, q: GaussRat | None = None) -> tuple[NCPoly, NCPoly]:
    if s.count("=") != 1:
        raise ParseError(f"relation must contain exactly one '=': {s!r}")
    left, right = s.split("=")
    return parse_poly(left, alphabet, q), parse_poly(right, alphabet, q)


def parse_tensor_terms(s: str, alphabet: Alphabet, legs: int, q: GaussRat | None = None) -> dict:
    """Raw tensor terms dict[(Word,)*legs -> Scalar] over a union alphabet."""
    return Parser(s, alphabet, q).finish(legs).terms


# ---------------------------------------------------------------------------
# presentation JSON
# ---------------------------------------------------------------------------

def load_presentation(doc: dict, q: GaussRat | None = None):
    """Build a RewriteSystem (plus optional Hopf structure) from a presentation
    document, reading `Q` as q (formal when q is None).  Returns
    (system, hopf_or_none)."""
    from .hopf import HopfAlgebra
    from .tensors import Tensor

    gens = list(doc["generators"])
    precedence = list(doc.get("precedence", gens))
    if sorted(precedence) != sorted(gens):
        raise ParseError("precedence must be a permutation of generators")
    alphabet = Alphabet(precedence, central=doc.get("central", ()))
    tower = doc.get("scalar_tower", "Q(i)(q)")
    relations = [parse_relation(r, alphabet, q) for r in doc.get("relations", ())]
    star = None
    if doc.get("star"):
        star = {g: parse_poly(e, alphabet, q) for g, e in doc["star"].items()}
        for g in gens:
            star.setdefault(g, NCPoly.gen(alphabet, g))
    system = RewriteSystem(alphabet, star=star).extend_by_ideal([a - b for a, b in relations], name=doc.get("name", ""))
    for rule in system.rules:
        for c in rule.rhs.terms.values():
            if not c.in_tower(tower):
                raise ParseError(f"coefficient {c!r} outside declared tower {tower}")
    hopf = None
    if doc.get("hopf"):
        h = doc["hopf"]
        delta = {
            g: Tensor((system, system), parse_tensor_terms(e, alphabet, 2, q))
            for g, e in h["delta"].items()
        }
        counit = {g: parse_scalar(e, q) for g, e in h["counit"].items()}
        antipode = {g: system.normal_form(parse_poly(e, alphabet, q)) for g, e in h["antipode"].items()}
        antipode_inv = {
            g: system.normal_form(parse_poly(e, alphabet, q)) for g, e in h["antipode_inv"].items()
        }
        hopf = HopfAlgebra(system, delta, counit, antipode, antipode_inv, name=doc.get("name", ""))
    return system, hopf

