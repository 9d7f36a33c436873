"""Tensor elements over tuples of presented algebras, each leg kept in normal form."""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from .ncpoly import NCPoly, Word, add_terms, word_str
from .rewrite import RewriteSystem
from .scalars import S_ONE, Scalar

V = TypeVar("V", NCPoly, "Tensor")


def linear_image(p: NCPoly | Tensor, f: Callable[[Word], V], zero: V) -> V:
    """The linear extension of a word map: sum of c*f(w) over the terms c*w of p.

    On a Tensor, ``f`` takes each term's key, the tuple of its leg words.
    ``f`` returns values of the same kind as ``zero`` (NCPoly or Tensor), which
    also fixes the result's alphabet or systems.  A sum of normal forms is a
    normal form, so the result is one whenever every f(w) is.
    """
    acc: dict = {}
    for w, c in p.terms.items():
        add_terms(acc, f(w).terms.items(), c)
    if isinstance(zero, Tensor):
        return Tensor(zero.systems, acc, _normalized=True)
    return NCPoly._of(zero.alphabet, acc)


class Tensor:
    """Finite map (word, ..., word) -> Scalar with every leg normalized."""

    __slots__ = ("systems", "terms")

    def __init__(
        self,
        systems: Sequence[RewriteSystem],
        terms: dict | None = None,
        _normalized: bool = False,
    ):
        """``_normalized=True`` takes ``terms`` as they stand: every leg in
        normal form and no zero coefficient."""
        self.systems = tuple(systems)
        if not terms:
            self.terms = {}
            return
        if _normalized:
            self.terms = terms
            return
        acc: dict[tuple, Scalar] = {}
        for key, coeff in terms.items():
            if coeff.is_zero():
                continue
            # expand each leg's normal form
            expanded = [((), coeff)]
            for leg, sys in zip(key, self.systems):
                nf = sys._nf_word(sys.alphabet.canon(tuple(leg)))
                expanded = [(prefix + (w,), c * cc) for prefix, c in expanded for w, cc in nf.terms.items()]
            add_terms(acc, expanded)
        self.terms = acc

    # -- constructors -------------------------------------------------------
    @staticmethod
    def of(systems: Sequence[RewriteSystem], *polys: NCPoly) -> "Tensor":
        """Outer product of polynomials, one per leg."""
        assert len(polys) == len(systems)
        key_terms = [((), S_ONE)]
        for p in polys:
            key_terms = [(k + (w,), c * cc) for k, c in key_terms for w, cc in p.terms.items()]
        return Tensor(systems, dict(key_terms))

    @staticmethod
    def zero(systems: Sequence[RewriteSystem]) -> "Tensor":
        return Tensor(systems)

    # -- algebra ---------------------------------------------------------------
    def __add__(self, other: "Tensor") -> "Tensor":
        return Tensor(self.systems, add_terms(dict(self.terms), other.terms.items()), _normalized=True)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return Tensor(self.systems, add_terms(dict(self.terms), other.terms.items(), -S_ONE), _normalized=True)

    def scale(self, c: Scalar) -> "Tensor":
        if c.is_zero():
            return Tensor.zero(self.systems)
        return Tensor(
            self.systems, {k: cc * c for k, cc in self.terms.items()}, _normalized=True
        )

    def mul(self, other: "Tensor") -> "Tensor":
        """Componentwise product (a1 x a2 x ...)(b1 x b2 x ...) = a1b1 x a2b2 x ..."""
        acc: dict[tuple, Scalar] = {}
        for k1, c1 in self.terms.items():
            add_terms(acc, ((tuple(w1 + w2 for w1, w2 in zip(k1, k2)), c2) for k2, c2 in other.terms.items()), c1)
        return Tensor(self.systems, acc)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor)
            and self.systems == other.systems
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.systems, frozenset(self.terms.items())))

    # -- leg surgery --------------------------------------------------------------
    def map_leg(self, i: int, f: Callable[[Word], NCPoly], codomain: RewriteSystem | None = None) -> "Tensor":
        """Apply a linear map (given on words) to leg i."""
        systems = list(self.systems)
        if codomain is not None:
            systems[i] = codomain
        acc: dict[tuple, Scalar] = {}
        for k, c in self.terms.items():
            add_terms(acc, ((k[:i] + (w,) + k[i + 1 :], cc) for w, cc in f(k[i]).terms.items()), c)
        return Tensor(systems, acc)

    def expand_leg(self, i: int, f: Callable[[Word], "Tensor"]) -> "Tensor":
        """Replace leg i by the (multi-leg) image of a word-level map into a tensor."""
        out_systems = None
        acc: dict[tuple, Scalar] = {}
        for k, c in self.terms.items():
            img = f(k[i])
            if out_systems is None:
                out_systems = self.systems[:i] + img.systems + self.systems[i + 1 :]
            add_terms(acc, ((k[:i] + kk + k[i + 1 :], cc) for kk, cc in img.terms.items()), c)
        if out_systems is None:
            raise ValueError("cannot infer systems of an empty expansion")
        return Tensor(out_systems, acc, _normalized=True)

    def contract_leg(self, i: int, f: Callable[[Word], Scalar]) -> "Tensor":
        systems = self.systems[:i] + self.systems[i + 1 :]
        acc = add_terms({}, ((k[:i] + k[i + 1 :], c * f(k[i])) for k, c in self.terms.items()))
        return Tensor(systems, acc, _normalized=True)

    def merge_legs(self, i: int, system: RewriteSystem | None = None) -> "Tensor":
        """Multiply legs i and i+1 inside one algebra."""
        sys_m = system or self.systems[i]
        systems = self.systems[:i] + (sys_m,) + self.systems[i + 2 :]
        acc = add_terms({}, ((k[:i] + (k[i] + k[i + 1],) + k[i + 2 :], c) for k, c in self.terms.items()))
        return Tensor(systems, acc)

    def swap_legs(self, i: int, j: int) -> "Tensor":
        systems = list(self.systems)
        systems[i], systems[j] = systems[j], systems[i]
        acc: dict[tuple, Scalar] = {}
        for k, c in self.terms.items():
            kk = list(k)
            kk[i], kk[j] = kk[j], kk[i]
            acc[tuple(kk)] = c
        return Tensor(systems, acc, _normalized=True)

    def leg_poly(self, i: int) -> NCPoly:
        """Collapse a rank-1 tensor factor: only valid when all other legs are
        empty, so each key is its leg-i word, already a normal form."""
        if any(w for k in self.terms for j, w in enumerate(k) if j != i):
            raise ValueError("tensor is not concentrated in one leg")
        return NCPoly._of(self.systems[i].alphabet, {k[i]: c for k, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, key=lambda kk: tuple(map(repr, kk))):
            c = self.terms[k]
            body = " # ".join(word_str(w) for w in k)
            parts.append(body if c.is_one() else f"{c!r}*({body})")
        return " + ".join(parts)


class TensorSpace:
    """The tensor product of presented algebras as a codomain: the ``name``,
    ``one``, ``zero`` and ``mul`` that ``LinearMap`` calls on a RewriteSystem."""

    def __init__(self, systems: Sequence[RewriteSystem]):
        self.systems = tuple(systems)
        self.name = " (x) ".join(s.name for s in self.systems)

    def one(self) -> Tensor:
        return Tensor.of(self.systems, *(s.one() for s in self.systems))

    def zero(self) -> Tensor:
        return Tensor.zero(self.systems)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        return a.mul(b)
