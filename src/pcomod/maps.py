"""Linear maps between presented algebras: generator tables extended as algebra
or anti-algebra maps."""

from __future__ import annotations

from typing import Callable

from .ncpoly import NCPoly, Word, word_str
from .rewrite import RewriteSystem
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
    for w, p in domain.relations:
        lhs, rhs = word_image(w), poly_image(p)
        if lhs != rhs:
            out.append((w, p, lhs, rhs))
    return out


class NotWellDefinedError(ValueError):
    """A generator-table map does not respect the domain's rewrite rules."""


class LinearMap:
    """Map domain -> codomain extending a generator table, in one of two modes:

    - "algebra": multiplicative extension,
    - "anti": anti-multiplicative extension (words reversed).

    With ``check`` the map is certified at construction to respect every
    defining relation of the domain (both sides must agree in the codomain).
    Word images are memoised. The codomain may be a ``TensorSpace``, whose
    images are Tensors.
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
        if check:
            problems = self.rule_compatibility_problems()
            if problems:
                raise NotWellDefinedError(f"{name}: {problems[0]}")

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

    # -- checks -------------------------------------------------------------------
    def rule_compatibility_problems(self) -> list[str]:
        """One message per defining relation of the domain (rules and
        centrality pairs, ``RewriteSystem.relations``) whose two sides this
        map sends to different normal forms."""
        return [
            f"rule {word_str(w)} -> {p!r} not respected: {lhs!r} vs {rhs!r}"
            for w, p, lhs, rhs in relation_mismatches(self.domain, self.apply_word, self.apply)
        ]

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
