"""Noncommutative polynomials: words over a declared alphabet with exact scalar coefficients."""

from __future__ import annotations

from typing import Iterable, Mapping

from .scalars import S_ONE, S_ZERO, Scalar

Word = tuple  # tuple[str, ...]
EMPTY: Word = ()


class AlphabetError(ValueError):
    pass


class Alphabet:
    """Generator names in precedence order (earlier = smaller) plus central markers.

    Words are canonicalized by moving central generators to the right end,
    sorted among themselves; this realizes the monoid quotient by the declared
    centrality relations exactly (no coefficients involved).
    """

    def __init__(self, gens: Iterable[str], central: Iterable[str] = ()):
        self.gens: tuple[str, ...] = tuple(gens)
        if len(set(self.gens)) != len(self.gens):
            raise AlphabetError("duplicate generator names")
        self.rank: dict[str, int] = {g: i for i, g in enumerate(self.gens)}
        self.central: frozenset[str] = frozenset(central)
        unknown = self.central - set(self.gens)
        if unknown:
            raise AlphabetError(f"central generators not in alphabet: {sorted(unknown)}")

    def canon(self, word: Word) -> Word:
        if not self.central or not word:
            return word
        nc = []
        c = []
        for g in word:
            (c if g in self.central else nc).append(g)
        if not c:
            return word
        c.sort(key=self.rank.__getitem__)
        return tuple(nc) + tuple(c)

    def split_central(self, word: Word) -> tuple[Word, Word]:
        """Split a *canonical* word into (noncentral prefix, central suffix)."""
        if not self.central:
            return word, EMPTY
        k = len(word)
        while k and word[k - 1] in self.central:
            k -= 1
        return word[:k], word[k:]

    def key(self, word: Word):
        """Monomial-order key: degree, then noncentral deglex, then sorted central part."""
        nc, c = self.split_central(word)
        r = self.rank
        return (len(word), len(nc), tuple(r[g] for g in nc), tuple(sorted(r[g] for g in c)))

    def __eq__(self, other):
        return (
            isinstance(other, Alphabet)
            and self.gens == other.gens
            and self.central == other.central
        )

    def __hash__(self):
        return hash((self.gens, self.central))

    def __repr__(self):
        return f"Alphabet({self.gens!r})"


def word_str(word: Word) -> str:
    if not word:
        return "1"
    out = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        out.append(word[i] if j - i == 1 else f"{word[i]}^{j - i}")
        i = j
    return "*".join(out)


class NCPoly:
    """Finite map word -> Scalar with no zero coefficients stored."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Word, Scalar] | None = None):
        self.alphabet = alphabet
        t: dict[Word, Scalar] = {}
        if terms:
            for w, c in terms.items():
                if c.is_zero():
                    continue
                w = alphabet.canon(w)
                prev = t.get(w)
                c = prev + c if prev is not None else c
                if c.is_zero():
                    t.pop(w, None)
                else:
                    t[w] = c
        self.terms = t

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero(alphabet: Alphabet) -> "NCPoly":
        return NCPoly(alphabet)

    @staticmethod
    def one(alphabet: Alphabet) -> "NCPoly":
        return NCPoly(alphabet, {EMPTY: S_ONE})

    @staticmethod
    def gen(alphabet: Alphabet, g: str) -> "NCPoly":
        if g not in alphabet.rank:
            raise AlphabetError(f"unknown generator {g!r}")
        return NCPoly(alphabet, {(g,): S_ONE})

    @staticmethod
    def word(alphabet: Alphabet, w: Word, coeff: Scalar = S_ONE) -> "NCPoly":
        return NCPoly(alphabet, {tuple(w): coeff})

    @staticmethod
    def const(alphabet: Alphabet, c: Scalar) -> "NCPoly":
        return NCPoly(alphabet, {EMPTY: c})

    # -- ring operations ----------------------------------------------------
    def __add__(self, other: "NCPoly") -> "NCPoly":
        if not other.terms:
            return self
        if not self.terms:
            return other
        t = dict(self.terms)
        for w, c in other.terms.items():
            prev = t.get(w)
            c = prev + c if prev is not None else c
            if c.is_zero():
                t.pop(w, None)
            else:
                t[w] = c
        out = NCPoly.__new__(NCPoly)
        out.alphabet = self.alphabet
        out.terms = t
        return out

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        """self + (-other) without the negated copy: the same terms in the
        same order."""
        if not other.terms:
            return self
        t = dict(self.terms)
        for w, c in other.terms.items():
            prev = t.get(w)
            c = prev - c if prev is not None else -c
            if c.is_zero():
                t.pop(w, None)
            else:
                t[w] = c
        out = NCPoly.__new__(NCPoly)
        out.alphabet = self.alphabet
        out.terms = t
        return out

    def __neg__(self) -> "NCPoly":
        out = NCPoly.__new__(NCPoly)
        out.alphabet = self.alphabet
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def scale(self, c: Scalar) -> "NCPoly":
        if c.is_zero():
            return NCPoly.zero(self.alphabet)
        if c.is_one():
            return self
        out = NCPoly.__new__(NCPoly)
        out.alphabet = self.alphabet
        out.terms = {w: cc * c for w, cc in self.terms.items()}
        return out

    def concat(self, other: "NCPoly") -> "NCPoly":
        """Free (concatenation) product; no rewriting."""
        canon = self.alphabet.canon
        t: dict[Word, Scalar] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = canon(w1 + w2)
                c = c1 * c2
                prev = t.get(w)
                c = prev + c if prev is not None else c
                if c.is_zero():
                    t.pop(w, None)
                else:
                    t[w] = c
        out = NCPoly.__new__(NCPoly)
        out.alphabet = self.alphabet
        out.terms = t
        return out

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def leading_word(self) -> Word:
        if not self.terms:
            raise ValueError("leading word of zero polynomial")
        return max(self.terms, key=self.alphabet.key)

    def coeff(self, w: Word) -> Scalar:
        return self.terms.get(self.alphabet.canon(tuple(w)), S_ZERO)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NCPoly)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=self.alphabet.key):
            c = self.terms[w]
            cs = repr(c)
            if not w:
                parts.append(cs)
            elif c.is_one():
                parts.append(word_str(w))
            elif cs.startswith("-") and cs[1:] == "1":
                parts.append(f"-{word_str(w)}")
            else:
                parts.append(f"{cs}*{word_str(w)}")
        return " + ".join(parts).replace("+ -", "- ")
