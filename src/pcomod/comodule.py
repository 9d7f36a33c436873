"""Comodule algebras, Hopf algebras over their quotients, cleaving maps,
strong connections and smash products."""

from __future__ import annotations

from functools import cache
from typing import Callable

from .hopf import CheckFailure, HopfAlgebra
from .maps import LinearMap, gens_map
from .ncpoly import Alphabet, NCPoly, Word, word_str
from .rewrite import RewriteSystem, stored
from .scalars import S_ONE
from .tensors import Tensor, TensorSpace, linear_image


class NotModuleAlgebraError(ValueError):
    pass


class PreconditionError(ValueError):
    pass


class ComoduleAlgebra:
    """Presented algebra P with an H-coaction declared on generators and
    extended as an algebra map, the memoised LinearMap ``rho`` into
    ``TensorSpace((system, hopf.system))``. Nothing is checked at
    construction; ``check_axioms`` certifies it, once (``stored``)."""

    def __init__(
        self,
        system: RewriteSystem,
        hopf: HopfAlgebra,
        coaction: dict[str, Tensor],
        name: str = "",
    ):
        self.system = system
        self.hopf = hopf
        self.coaction_table = coaction
        self.name = name or f"{system.name} over {hopf.name}"
        self.rho = LinearMap(
            f"rho_{self.name}", system, TensorSpace((system, hopf.system)), gen_images=coaction, check=False
        )

    def coact_word(self, w: Word) -> Tensor:
        return self.rho.apply_word(w)

    def coact(self, p: NCPoly) -> Tensor:
        return self.rho.apply(p)

    def over(self, system: RewriteSystem, name: str = "") -> "ComoduleAlgebra":
        """The same coaction table read in ``system``, a quotient of this
        algebra."""
        coaction = {g: Tensor((system, self.hopf.system), t.terms) for g, t in self.coaction_table.items()}
        return ComoduleAlgebra(system, self.hopf, coaction, name=name)

    def is_coinvariant(self, p: NCPoly) -> bool:
        p = self.system.normal_form(p)
        target = Tensor(
            (self.system, self.hopf.system), {(w, ()): c for w, c in p.terms.items()}, _normalized=True
        )
        return self.coact(p) == target

    @stored
    def check_axioms(self) -> list[CheckFailure]:
        """The coaction respects every defining relation of P
        (``RewriteSystem.relations``), then is coassociative and counital on
        the words of degree <= 1, which generate P.

        Together these hold in every degree. Respecting the relations, the
        coaction rho is an algebra map P -> P (x) H. With Delta and eps algebra
        maps (``check_hopf_axioms``), (rho (x) id) rho and (id (x) Delta) rho
        are algebra maps P -> P (x) H (x) H, and (id (x) eps) rho and id are
        algebra maps P -> P; agreeing on generators, each pair agrees
        everywhere. Equal normal forms prove equality in the quotients
        whether or not their rules are confluent.
        """
        H = self.hopf
        failures = [
            CheckFailure("coaction-well-defined", word_str(w), f"{lhs!r} != {rhs!r}")
            for w, _, lhs, rhs in self.rho.mismatches()
        ]
        for w in self.system.basis_words(1):
            ws = word_str(w)
            d = self.coact_word(w)
            lhs = d.expand_leg(0, self.coact_word)
            rhs = d.expand_leg(1, H.delta_word)
            if lhs != rhs:
                failures.append(CheckFailure("coaction-coassociativity", ws, f"{lhs!r} != {rhs!r}"))
            ce = d.contract_leg(1, H.counit_word).leg_poly(0)
            wp = self.system.normal_form(NCPoly.word(self.system.alphabet, w))
            if ce != wp:
                failures.append(CheckFailure("coaction-counit", ws, f"{ce!r} != {wp!r}"))
        return failures

    def __repr__(self):
        return f"ComoduleAlgebra({self.name})"


def over_quotient(pi: LinearMap, H: HopfAlgebra, Hbar: HopfAlgebra) -> ComoduleAlgebra:
    """H as a right Hbar-comodule algebra along the Hopf surjection
    pi: H -> Hbar: the coaction (id (x) pi) o Delta, declared on generators."""
    coaction = {
        g: H.delta_table[g].map_leg(1, pi.apply_word, codomain=Hbar.system) for g in H.system.alphabet.gens
    }
    return ComoduleAlgebra(H.system, Hbar, coaction, name=f"{H.name} over {Hbar.name}")


def canonical_map(P: ComoduleAlgebra, t: Tensor) -> Tensor:
    """can(p (x) q) = p q_(0) (x) q_(1), over P (x) P."""
    expanded = t.expand_leg(1, P.coact_word)  # (P, P, H)
    return expanded.merge_legs(0, P.system)


# ---------------------------------------------------------------------------
# cleaving maps and strong connections
# ---------------------------------------------------------------------------

class CleavingMap:
    """Unital right-colinear convolution-invertible j: H -> P, an algebra map.
    ``j_inv`` is the memoised anti LinearMap with generator images j(S(g)):
    it is j o S, since both are anti-algebra maps (S is one) with the same
    generator images."""

    def __init__(self, P: ComoduleAlgebra, j: LinearMap):
        if j.mode != "algebra":
            raise PreconditionError(f"{j.name}: a cleaving must be an algebra map")
        self.P = P
        self.j = j
        self.name = j.name
        H = P.hopf
        self.j_inv = LinearMap(
            f"{j.name}oS",
            H.system,
            j.codomain,
            mode="anti",
            gen_images={g: j.apply(H.S.apply_word((g,))) for g in H.system.alphabet.gens},
            check=False,
        )

    @stored
    def verify(self) -> list[CheckFailure]:
        """j respects every defining relation of H, then rho(j(g)) =
        (j (x) id) Delta(g) on each generator g.

        Together these make j a cleaving in every degree, given the Hopf and
        coaction axioms, Delta and rho well defined among them
        (``check_hopf_axioms``, ``ComoduleAlgebra.check_axioms``). Respecting
        the relations, j is an algebra map H -> P, so it is unital. rho o j
        and (j (x) id) o Delta are then algebra maps H -> P (x) H that agree
        on generators, so they agree everywhere: j is colinear. j o S
        (``j_inv``) is its two-sided convolution inverse, since
        j(h_(1)) j(S(h_(2))) = j(h_(1) S(h_(2))) = eps(h) by the antipode law,
        and likewise on the other side.
        """
        P, H = self.P, self.P.hopf
        failures = [
            CheckFailure("cleaving-well-defined", word_str(w), f"{lhs!r} != {rhs!r}")
            for w, _, lhs, rhs in self.j.mismatches()
        ]
        for g in H.system.alphabet.gens:
            lhs = P.coact(self.j.apply_word((g,)))
            rhs = H.delta_word((g,)).map_leg(0, self.j.apply_word, codomain=P.system)
            if lhs != rhs:
                failures.append(CheckFailure("cleaving-colinear", g, f"{lhs!r} != {rhs!r}"))
        return failures


class StrongConnection:
    """Linear lifting ell: H -> P (x) P, a word map memoised on normal-form
    words."""

    def __init__(self, P: ComoduleAlgebra, word_map: Callable[[Word], Tensor]):
        self.P = P
        self.apply_word = cache(word_map)

    @staticmethod
    def from_cleaving(j: CleavingMap) -> "StrongConnection":
        """ell = (j o S (x) j) o Delta, a strong connection in every degree
        once ``j.verify()`` passes (cleft implies principal; Brzezinski-Hajac).

        The premises: j is a unital algebra map, colinear on every word
        (``CleavingMap.verify``), with the Hopf and coaction axioms
        (``check_hopf_axioms``, ``ComoduleAlgebra.check_axioms``). Write
        ell(h) = j(S(h_(1))) (x) j(h_(2)).

        - ell(1) = j(1) (x) j(1) = 1 (x) 1.
        - can(ell(h)) = j(S(h_(1))) j(h_(2)) (x) h_(3) = j(S(h_(1)) h_(2)) (x) h_(3)
          = 1 (x) h, by colinearity, the antipode law and the counit law.
        - ell(h)<1> ell(h)<2> = j(S(h_(1)) h_(2)) = eps(h) 1.
        - Right colinearity of the second leg: j(S(h_(1))) (x) rho(j(h_(2)))
          = j(S(h_(1))) (x) j(h_(2)) (x) h_(3) = ell(h_(1)) (x) h_(2), by
          colinearity and coassociativity.
        - Left colinearity of the first leg: rho(j(S(h_(1)))) =
          j(S(h_(2))) (x) S(h_(1)), as S is anti-coalgebra; flipped and next
          to j(h_(3)) that is S(h_(1)) (x) ell(h_(2)).

        ``verify_strong_connection`` checks the same axioms word by word;
        it stays for word maps that no generator check certifies."""
        P, H = j.P, j.P.hopf
        return StrongConnection(
            P,
            lambda w: H.delta_word(w)
            .map_leg(0, j.j_inv.apply_word, codomain=P.system)
            .map_leg(1, j.j.apply_word, codomain=P.system),
        )


def verify_strong_connection(ell: StrongConnection, degree_bound: int) -> list[CheckFailure]:
    """The three strong-connection axioms plus h^[1] h^[2] = eps(h), on basis
    words up to the bound: for connections that are no cleaving's, such as
    the one-step lift of the ``o_u1-mod-z2`` pair, whose Hopf algebra has no
    basis word past degree 1."""
    failures = []
    P = ell.P
    H = P.hopf
    Ps, Hs = P.system, H.system
    one = Ps.one()
    if ell.apply_word(()) != Tensor.of((Ps, Ps), one, one):
        failures.append(CheckFailure("connection-unital", "1", f"ell(1) = {ell.apply_word(())!r}"))
    for w in Hs.basis_words(degree_bound):
        ws = word_str(w)
        lw = ell.apply_word(w)
        # axiom 1: ell(h)<1> ell(h)<2>_(0)  (x)  ell(h)<2>_(1)  =  1 (x) h
        got = canonical_map(P, lw)
        want = Tensor((Ps, Hs), {((), w): S_ONE})
        if got != want:
            failures.append(CheckFailure("connection-axiom-1", ws, f"{got!r} != {want!r}"))
        # axiom 2: S(h1) (x) ell(h2)  =  ell(h)<1>_(1) (x) ell(h)<1>_(0) (x) ell(h)<2>
        lhs2 = H.delta_word(w).map_leg(0, H.S.apply_word).expand_leg(1, ell.apply_word)
        rhs2 = lw.expand_leg(0, P.coact_word).swap_legs(0, 1)
        if lhs2 != rhs2:
            failures.append(CheckFailure("connection-axiom-2", ws, f"{lhs2!r} != {rhs2!r}"))
        # axiom 3: ell(h1) (x) h2  =  ell(h)<1> (x) ell(h)<2>_(0) (x) ell(h)<2>_(1)
        lhs3 = H.delta_word(w).expand_leg(0, ell.apply_word)
        rhs3 = lw.expand_leg(1, P.coact_word)
        if lhs3 != rhs3:
            failures.append(CheckFailure("connection-axiom-3", ws, f"{lhs3!r} != {rhs3!r}"))
        # translation-map property: h^[1] h^[2] = eps(h) 1
        prod = lw.merge_legs(0, Ps).leg_poly(0)
        target = one.scale(H.counit_word(w))
        if prod != target:
            failures.append(CheckFailure("connection-translation", ws, f"{prod!r} != {target!r}"))
    return failures


# ---------------------------------------------------------------------------
# smash products
# ---------------------------------------------------------------------------

class SmashProduct(ComoduleAlgebra):
    """B x| H on the flat alphabet (B-generators then H-generators, the latter
    under their fiber names), built by ``smash_product``."""

    def __init__(self, system, hopf, coaction, b_system, action, fiber_names, name=""):
        super().__init__(system, hopf, coaction, name=name)
        self.b_system = b_system
        self.action = action  # ActionData, or None for the trivial action
        self.fiber_names = fiber_names  # H-generator -> its letter here

    @property
    def b_gens(self) -> tuple[str, ...]:
        return self.b_system.alphabet.gens

    @property
    def h_gens(self) -> tuple[str, ...]:
        return tuple(self.fiber_names[z] for z in self.hopf.system.alphabet.gens)

    @stored
    def cleaving(self) -> CleavingMap:
        """The algebra map sending each H-generator to its fiber letter, the
        same object on every call."""
        j = gens_map(
            f"j_{self.name}",
            self.hopf.system,
            self.system,
            {z: NCPoly.gen(self.system.alphabet, f) for z, f in self.fiber_names.items()},
            check=False,
        )
        return CleavingMap(self, j)


class ActionData:
    """Left H-module-algebra action on B, declared on (H-gen, B-gen) pairs."""

    def __init__(self, hopf: HopfAlgebra, b_system: RewriteSystem, table: dict[tuple[str, str], NCPoly]):
        self.hopf = hopf
        self.b_system = b_system
        self.name = f"{hopf.name} on {b_system.name}"
        self.table = {k: b_system.normal_form(v) for k, v in table.items()}
        self._cache: dict[tuple[Word, Word], NCPoly] = {}

    def act(self, hw: Word, bw: Word) -> NCPoly:
        """hw |> bw via h|>(b b') = (h1|>b)(h2|>b'), (hk)|>b = h|>(k|>b)."""
        key = (hw, bw)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        B = self.b_system
        if not hw:
            out = B.normal_form(NCPoly.word(B.alphabet, bw))
        elif len(hw) > 1:
            out = self.act_poly(hw[:1], self.act(hw[1:], bw))
        elif not bw:
            out = NCPoly.const(B.alphabet, self.hopf.counit_table[hw[0]])
        elif len(bw) == 1:
            out = self.table[(hw[0], bw[0])]
        else:
            out = self.hopf.convolve(
                hw, lambda v: self.act(v, bw[:1]), lambda v: self.act(v, bw[1:]), B
            )
        self._cache[key] = out
        return out

    def act_poly(self, hw: Word, bp: NCPoly) -> NCPoly:
        return linear_image(bp, lambda bw: self.act(hw, bw), self.b_system.zero())

    def act_hpoly(self, hp: NCPoly, bp: NCPoly) -> NCPoly:
        return linear_image(hp, lambda hw: self.act_poly(hw, bp), self.b_system.zero())

    @stored
    def module_algebra_problems(self) -> list[CheckFailure]:
        """Well-definedness on both presentations: every (B-rule, H-gen) and
        (H-rule, B-gen) pair must agree."""
        problems = []
        B, H = self.b_system, self.hopf
        for rule in B.rules:
            lhs = NCPoly.word(B.alphabet, rule.lhs_word)
            for g in H.system.alphabet.gens:
                left = self.act_poly((g,), lhs)
                right = self.act_poly((g,), rule.rhs)
                if B.normal_form(left - right) != B.zero():
                    problems.append(
                        CheckFailure(
                            "module-algebra/B-relation",
                            f"{g} |> ({word_str(rule.lhs_word)} - rhs)",
                            f"{left!r} != {right!r}",
                        )
                    )
        for rule in H.system.rules:
            for b in B.alphabet.gens:
                left = self.act(rule.lhs_word, (b,))
                right = self.act_hpoly(rule.rhs, NCPoly.gen(B.alphabet, b))
                if B.normal_form(left - right) != B.zero():
                    problems.append(
                        CheckFailure(
                            "module-algebra/H-relation",
                            f"({word_str(rule.lhs_word)}) |> {b}",
                            f"{left!r} != {right!r}",
                        )
                    )
        return problems


def smash_product(
    b_system: RewriteSystem,
    H: HopfAlgebra,
    action_table: dict[tuple[str, str], NCPoly] | None = None,
    name: str = "",
    fiber_names: dict[str, str] | None = None,
) -> SmashProduct:
    """Build B x| H on B's letters, then H's under ``fiber_names``; raises
    NotModuleAlgebraError when the action fails the module-algebra axioms
    (checked on all generator/relation pairs).

    No table is the trivial action h |> b = eps(h) b, whose smash product is
    B (x) H; it is a module-algebra action, as eps is an algebra map. With it
    and H commutative, H's letters are central and H's rules join B's.
    Otherwise the cross rules z b -> (z_(1) |> b) z_(2), b z for the trivial
    action, move H's letters right past B's, and H's renamed system reduces
    that suffix zone. B's letters are coinvariant and H's carry Delta."""
    action = None
    if action_table is not None:
        action = ActionData(H, b_system, action_table)
        problems = action.module_algebra_problems()
        if problems:
            raise NotModuleAlgebraError(f"{name or 'smash'}: {problems[0]}")
    fiber = H.system.renamed(fiber_names) if fiber_names else H.system
    fiber_names = fiber_names or {z: z for z in H.system.alphabet.gens}
    b_gens = b_system.alphabet.gens
    f_gens = fiber.alphabet.gens
    overlap = set(b_gens) & set(f_gens)
    if overlap:
        raise NotModuleAlgebraError(f"generator names shared between B and H: {sorted(overlap)}")
    central_fiber = action_table is None and H.system.is_commutative()
    central = tuple(b_system.alphabet.central) + (f_gens if central_fiber else ())
    alpha = Alphabet(b_gens + f_gens, central=central)

    def rename(w: Word) -> Word:
        return tuple(fiber_names[g] for g in w)

    rules = [(r.lhs_word, NCPoly(alpha, r.rhs.terms)) for r in b_system.rules]
    if central_fiber:
        for r in fiber.rules:
            rhs = NCPoly(alpha, r.rhs.terms)
            # a commutation rule of H reads w -> w once its letters are central
            if rhs != NCPoly.word(alpha, alpha.canon(r.lhs_word)):
                rules.append((r.lhs_word, rhs))
    else:
        for z in H.system.alphabet.gens:
            for b in b_gens:
                if action is None:
                    rhs = NCPoly.word(alpha, (b, fiber_names[z]))
                else:
                    rhs = linear_image(
                        H.delta_word((z,)),
                        lambda k: NCPoly(
                            alpha, {bw + rename(k[1]): c for bw, c in action.act(k[0], (b,)).terms.items()}
                        ),
                        NCPoly.zero(alpha),
                    )
                rules.append(((fiber_names[z], b), rhs))
    system = RewriteSystem(
        alpha,
        rules,
        name=name or f"{b_system.name}x|{H.name}",
        suffix_system=None if central_fiber else fiber,
    )
    coaction = {b: Tensor.of((system, H.system), NCPoly.gen(alpha, b), H.system.one()) for b in b_gens}
    for z in H.system.alphabet.gens:
        coaction[fiber_names[z]] = Tensor(
            (system, H.system), {(rename(w1), w2): c for (w1, w2), c in H.delta_word((z,)).terms.items()}
        )
    return SmashProduct(system, H, coaction, b_system, action, fiber_names, name=system.name)
