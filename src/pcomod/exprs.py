"""Expression grammar and the algebra-presentation JSON schema.

Expression grammar (whitespace insignificant):
    atoms:  generator names, integer literals `n` or `n/m`, `I` (imaginary
            unit), `Q` (the parameter q: formal, or the value the parser
            was given, so a presentation is built once at its q)
    ops:    `*` (left-assoc), `+`, `-` (binary and unary), `^` integer power
            (negative exponents only on scalar atoms), `#` (tensor separator,
            binds between `*` and `+`), parentheses.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .ncpoly import Alphabet, NCPoly, Word
from .scalars import P_ONE, S_Q, GaussRat, Scalar

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|\^|\*|\+|-|#|\(|\)|/|=)")


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


class Value:
    """Intermediate parse value: scalar, polynomial, or raw tensor
    (dict[tuple[Word, ...], Scalar] over the union alphabet)."""

    __slots__ = ("kind", "data")

    def __init__(self, kind, data):
        self.kind = kind
        self.data = data

    @staticmethod
    def scalar(c: Scalar) -> "Value":
        return Value("scalar", c)

    @staticmethod
    def poly(p: NCPoly) -> "Value":
        return Value("poly", p)

    def as_poly(self, alphabet: Alphabet) -> NCPoly:
        if self.kind == "scalar":
            return NCPoly.const(alphabet, self.data)
        if self.kind == "poly":
            return self.data
        raise ParseError("tensor where a polynomial was expected")

    def as_tensor_terms(self, alphabet: Alphabet, legs: int) -> dict:
        if self.kind == "tensor":
            terms = self.data
        else:
            terms = {(w,): c for w, c in self.as_poly(alphabet).terms.items()}
        for key in terms:
            if len(key) != legs:
                raise ParseError(f"tensor has {len(key)} legs, expected {legs}")
        return terms


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
    def expr(self) -> Value:
        v = self.tensor()
        while self.peek() in ("+", "-"):
            op = self.take()
            w = self.tensor()
            v = _add(v, w if op == "+" else _neg(w), self.alphabet)
        return v

    # tensor := product ('#' product)*
    def tensor(self) -> Value:
        v = self.product()
        while self.peek() == "#":
            self.take()
            w = self.product()
            v = _tensor(v, w, self.alphabet)
        return v

    # product := unary ('*' unary)*
    def product(self) -> Value:
        v = self.unary()
        while self.peek() == "*":
            self.take()
            v = _mul(v, self.unary())
        return v

    def unary(self) -> Value:
        if self.peek() == "-":
            self.take()
            return _neg(self.unary())
        return self.power()

    def power(self) -> Value:
        v = self.atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            tok = self.take()
            if not tok.isdigit():
                raise ParseError(f"bad exponent {tok!r}")
            k = sign * int(tok)
            v = _pow(v, k, self.alphabet)
        return v

    def atom(self) -> Value:
        tok = self.take()
        if tok == "(":
            v = self.expr()
            self.expect(")")
            return v
        if tok.isdigit():
            num = int(tok)
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not den.isdigit():
                    raise ParseError(f"bad fraction denominator {den!r}")
                return Value.scalar(Scalar.of(Fraction(num, int(den))))
            return Value.scalar(Scalar.of(num))
        if tok == "I":
            return Value.scalar(Scalar.i())
        if tok == "Q":
            return Value.scalar(self.q)
        if tok in self.alphabet.rank:
            return Value.poly(NCPoly.gen(self.alphabet, tok))
        raise ParseError(f"unknown atom {tok!r}")

    def finish(self) -> Value:
        v = self.expr()
        if self.peek() != "<end>":
            raise ParseError(f"trailing input at {self.peek()!r}")
        return v


def _neg(v: Value) -> Value:
    if v.kind == "scalar":
        return Value.scalar(-v.data)
    if v.kind == "poly":
        return Value.poly(-v.data)
    return Value("tensor", {k: -c for k, c in v.data.items()})


def _add(a: Value, b: Value, alphabet: Alphabet) -> Value:
    if a.kind == "tensor" or b.kind == "tensor":
        legs = len(next(iter((a if a.kind == "tensor" else b).data)))
        ta = a.as_tensor_terms(alphabet, legs)
        tb = b.as_tensor_terms(alphabet, legs)
        out = dict(ta)
        for k, c in tb.items():
            v = out.get(k)
            v = v + c if v is not None else c
            if v.is_zero():
                out.pop(k, None)
            else:
                out[k] = v
        return Value("tensor", out)
    if a.kind == "scalar" and b.kind == "scalar":
        return Value.scalar(a.data + b.data)
    return Value.poly(a.as_poly(alphabet) + b.as_poly(alphabet))


def _mul(a: Value, b: Value) -> Value:
    if a.kind == "scalar" and b.kind == "scalar":
        return Value.scalar(a.data * b.data)
    if a.kind == "scalar":
        if b.kind == "poly":
            return Value.poly(b.data.scale(a.data))
        return Value("tensor", {k: c * a.data for k, c in b.data.items()})
    if b.kind == "scalar":
        if a.kind == "poly":
            return Value.poly(a.data.scale(b.data))
        return Value("tensor", {k: c * b.data for k, c in a.data.items()})
    if a.kind == "poly" and b.kind == "poly":
        return Value.poly(a.data.concat(b.data))
    raise ParseError("cannot multiply tensors")


def _tensor(a: Value, b: Value, alphabet: Alphabet) -> Value:
    ta = a.as_tensor_terms(alphabet, None) if a.kind == "tensor" else {
        (w,): c for w, c in a.as_poly(alphabet).terms.items()
    }
    tb = b.as_tensor_terms(alphabet, None) if b.kind == "tensor" else {
        (w,): c for w, c in b.as_poly(alphabet).terms.items()
    }
    out: dict = {}
    for k1, c1 in ta.items():
        for k2, c2 in tb.items():
            k = k1 + k2
            c = c1 * c2
            prev = out.get(k)
            out[k] = prev + c if prev is not None else c
    return Value("tensor", out)


def _pow(v: Value, k: int, alphabet: Alphabet) -> Value:
    if v.kind == "scalar":
        return Value.scalar(v.data**k)
    if v.kind == "poly":
        if k < 0:
            raise ParseError("negative powers are only defined for scalar atoms")
        out = NCPoly.one(alphabet)
        for _ in range(k):
            out = out.concat(v.data)
        return Value.poly(out)
    raise ParseError("cannot raise a tensor to a power")


def parse_poly(s: str, alphabet: Alphabet, q: GaussRat | None = None) -> NCPoly:
    return Parser(s, alphabet, q).finish().as_poly(alphabet)


def parse_scalar(s: str, q: GaussRat | None = None) -> Scalar:
    v = Parser(s, Alphabet(()), q).finish()
    if v.kind != "scalar":
        raise ParseError(f"{s!r} is not a scalar expression")
    return v.data


def parse_relation(s: str, alphabet: Alphabet, q: GaussRat | None = None) -> tuple[NCPoly, NCPoly]:
    if s.count("=") != 1:
        raise ParseError(f"relation must contain exactly one '=': {s!r}")
    left, right = s.split("=")
    return parse_poly(left, alphabet, q), parse_poly(right, alphabet, q)


def parse_tensor_terms(s: str, alphabet: Alphabet, legs: int, q: GaussRat | None = None) -> dict:
    """Raw tensor terms dict[(Word,)*legs -> Scalar] over a union alphabet."""
    return Parser(s, alphabet, q).finish().as_tensor_terms(alphabet, legs)


# ---------------------------------------------------------------------------
# rendering (inverse of the grammar, used by the exporters)
# ---------------------------------------------------------------------------

def scalar_to_expr(c: Scalar) -> str:
    if c.d is not P_ONE:
        raise ParseError(f"cannot render denominator of {c!r} in the expression grammar")

    def gauss(g: GaussRat) -> str:
        parts = []
        if g.re:
            parts.append(str(g.re))
        if g.im:
            istr = "I" if g.im == 1 else ("-I" if g.im == -1 else f"{g.im}*I")
            parts.append(istr if not parts else (f"+ {istr}" if g.im > 0 else f"- {abs(g.im)}*I".replace("1*I", "I") if g.im == -1 else f"+ {g.im}*I"))
        if not parts:
            return "0"
        s = " ".join(parts)
        return f"({s})" if (g.re and g.im) else s

    terms = []
    for k, g in enumerate(c.n):
        if not g:
            continue
        p = k + c.v
        qpart = "" if p == 0 else ("Q" if p == 1 else f"Q^{p}" if p > 0 else f"Q^-{-p}")
        gs = gauss(g)
        if qpart and gs == "1":
            terms.append(qpart)
        elif qpart and gs == "-1":
            terms.append(f"-{qpart}")
        elif qpart:
            terms.append(f"{gs}*{qpart}")
        else:
            terms.append(gs)
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def poly_to_expr(p: NCPoly) -> str:
    if not p.terms:
        return "0"
    parts = []
    for w in sorted(p.terms, key=p.alphabet.key):
        c = p.terms[w]
        cs = scalar_to_expr(c)
        body = "*".join(w) if w else ""
        if not body:
            parts.append(cs if ("+" not in cs or cs.startswith("(")) else f"({cs})")
        elif cs == "1":
            parts.append(body)
        elif cs == "-1":
            parts.append(f"-{body}")
        else:
            wrapped = cs if (" " not in cs) else f"({cs})"
            parts.append(f"{wrapped}*{body}")
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def tensor_to_expr(terms: dict) -> str:
    parts = []
    for key in sorted(terms, key=repr):
        c = terms[key]
        cs = scalar_to_expr(c)
        body = " # ".join("*".join(w) if w else "1" for w in key)
        if cs == "1":
            parts.append(body)
        elif cs == "-1":
            parts.append(f"-({body})")
        else:
            wrapped = cs if (" " not in cs) else f"({cs})"
            parts.append(f"{wrapped}*({body})")
    if not parts:
        return "0"
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


# ---------------------------------------------------------------------------
# presentation JSON
# ---------------------------------------------------------------------------

def load_presentation(doc: dict, q: GaussRat | None = None):
    """Build a RewriteSystem (plus optional Hopf structure) from a presentation
    document, reading `Q` as q (formal when q is None).  Returns
    (system, hopf_or_none)."""
    from .hopf import HopfAlgebra
    from .rewrite import RewriteSystem
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
    system = RewriteSystem.from_relations(
        alphabet, relations, star=star, name=doc.get("name", ""), scalar_tower=tower
    )
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


def dump_presentation(
    name: str,
    system,
    hopf=None,
    relations_src: list[str] | None = None,
    extra: dict | None = None,
) -> dict:
    doc = {
        "name": name,
        "generators": list(system.alphabet.gens),
        "precedence": list(system.alphabet.gens),
        "scalar_tower": system.scalar_tower,
        "relations": relations_src
        if relations_src is not None
        else [
            f"{poly_to_expr(NCPoly.word(system.alphabet, r.lhs_word))} = {poly_to_expr(r.rhs)}"
            for r in system.rules
        ],
    }
    if system.alphabet.central:
        doc["central"] = sorted(system.alphabet.central)
    if system.star_table:
        doc["star"] = {g: poly_to_expr(p) for g, p in system.star_table.items()}
    if hopf is not None:
        doc["hopf"] = {
            "delta": {g: tensor_to_expr(t.terms) for g, t in hopf.delta_table.items()},
            "counit": {g: scalar_to_expr(c) for g, c in hopf.counit_table.items()},
            "antipode": {g: poly_to_expr(p) for g, p in hopf.antipode_table.items()},
            "antipode_inv": {g: poly_to_expr(p) for g, p in hopf.antipode_inv_table.items()},
        }
    if extra:
        doc.update(extra)
    return doc
