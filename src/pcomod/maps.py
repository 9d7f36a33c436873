"""Linear maps between presented algebras: generator tables extended as algebra
or anti-algebra maps."""

from __future__ import annotations

from typing import Callable

from .ncpoly import NCPoly, Word, word_str
from .rewrite import RewriteSystem, stored
from .tensors import Tensor, TensorSpace, linear_image


def relation_mismatches(
    domain: RewriteSystem,
    word_image: Callable[[Word], object],
    poly_image: Callable[[NCPoly], object],
) -> list[tuple[Word, NCPoly, object, object]]:
    """The defining relations w = p of ``domain`` whose images differ, as
    (w, p, image of w, image of p).

    ``word_image`` must multiply generator images along the word as written,
    so that a centrality pair c*x is mapped as it stands. Images are compared
    as normal forms; reductions keep the class in the quotient, so equal
    normal forms prove the relation holds there whether or not the codomain's
    rules are confluent.
    """
    out = []
    for w, p in domain.relations():
        lhs, rhs = word_image(w), poly_image(p)
        if lhs != rhs:
            out.append((w, p, lhs, rhs))
    return out


def mismatch_message(w: Word, p: NCPoly, lhs, rhs) -> str:
    """A ``relation_mismatches`` entry as one line."""
    return f"rule {word_str(w)} -> {p!r} not respected: {lhs!r} vs {rhs!r}"


class NotWellDefinedError(ValueError):
    """A generator-table map does not respect the domain's rewrite rules."""


class LinearMap:
    """Map domain -> codomain extending a generator table, in one of two modes:

    - "algebra": multiplicative extension,
    - "anti": anti-multiplicative extension (words reversed).

    ``mismatches()`` lists the defining relations of the domain whose two
    sides the map sends apart; it is ``stored``, so read-only. With
    ``check`` a nonempty list raises at construction. Word images are
    memoised. The codomain may be a ``TensorSpace``, whose images are
    Tensors.
    """

    def __init__(
        self,
        name: str,
        domain: RewriteSystem,
        codomain: RewriteSystem | TensorSpace,
        mode: str = "algebra",
        gen_images: dict[str, NCPoly | Tensor] | None = None,
        check: bool = True,
    ):
        assert mode in ("algebra", "anti")
        self.name = name
        self.domain = domain
        self.codomain = codomain
        self.mode = mode
        self.gen_images = gen_images
        self._word_cache: dict[Word, NCPoly | Tensor] = {}
        missing = set(domain.alphabet.gens) - set(gen_images or ())
        if missing:
            raise NotWellDefinedError(f"{name}: no image for generators {sorted(missing)}")
        if check and self.mismatches():
            raise NotWellDefinedError(f"{name}: {mismatch_message(*self.mismatches()[0])}")

    # -- application -----------------------------------------------------------
    def apply_word(self, w: Word) -> NCPoly | Tensor:
        hit = self._word_cache.get(w)
        if hit is not None:
            return hit
        if not w:
            out = self.codomain.one()
        elif self.mode == "anti":
            out = self.codomain.mul(self.apply_word(w[1:]), self.gen_images[w[0]])
        else:
            out = self.codomain.mul(self.apply_word(w[:-1]), self.gen_images[w[-1]])
        self._word_cache[w] = out
        return out

    def apply(self, p: NCPoly) -> NCPoly | Tensor:
        return linear_image(p, self.apply_word, self.codomain.zero())

    @stored
    def mismatches(self) -> list[tuple[Word, NCPoly, object, object]]:
        """``relation_mismatches`` of this map over the defining relations of
        the domain (rules and centrality pairs, ``RewriteSystem.relations``)."""
        return relation_mismatches(self.domain, self.apply_word, self.apply)

    def __repr__(self):
        return f"LinearMap({self.name}: {self.domain.name} -> {self.codomain.name}, {self.mode})"


def gens_map(
    name: str,
    domain: RewriteSystem,
    codomain: RewriteSystem,
    images: dict[str, NCPoly],
    check: bool = True,
) -> LinearMap:
    return LinearMap(name, domain, codomain, gen_images=images, check=check)
