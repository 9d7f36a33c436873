"""Comodule algebras, cleaving maps, strong connections, smash products,
reduction data and the unital-map correspondence on smash products."""

from __future__ import annotations

from functools import partial
from typing import Sequence

from .hopf import CheckFailure, HopfAlgebra, HopfIdeal, quotient_hopf
from .linalg import RowSpace
from .maps import DegreeExceededError, LinearMap, gens_map, relation_mismatches
from .ncpoly import NCPoly, Word, word_str
from .rewrite import RewriteSystem
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
    construction; ``check_axioms`` certifies it."""

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

    def over(
        self, system: RewriteSystem, hopf: HopfAlgebra | None = None, name: str = ""
    ) -> "ComoduleAlgebra":
        """The same coaction table read in ``system``, a quotient of this
        algebra, over ``hopf`` (a quotient of this Hopf algebra; the same one
        when omitted)."""
        hopf = hopf or self.hopf
        coaction = {g: Tensor((system, hopf.system), t.terms) for g, t in self.coaction_table.items()}
        return ComoduleAlgebra(system, hopf, coaction, name=name)

    def is_coinvariant(self, p: NCPoly) -> bool:
        p = self.system.normal_form(p)
        target = Tensor(
            (self.system, self.hopf.system), {(w, ()): c for w, c in p.terms.items()}, _normalized=True
        )
        return self.coact(p) == target

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
            for w, _, lhs, rhs in relation_mismatches(self.system, self.coact_word, self.coact)
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


def canonical_map(P: ComoduleAlgebra, t: Tensor) -> Tensor:
    """can(p (x) q) = p q_(0) (x) q_(1), over P (x) P (B-balancing is a separate check)."""
    expanded = t.expand_leg(1, P.coact_word)  # (P, P, H)
    return expanded.merge_legs(0, P.system)


# ---------------------------------------------------------------------------
# cleaving maps and strong connections
# ---------------------------------------------------------------------------

class CleavingMap:
    """Unital right-colinear convolution-invertible j: H -> P, an algebra map.

    The convolution inverse of an algebra-map cleaving is j o S, an
    anti-algebra map (S is one): ``j_inv`` is the memoised anti LinearMap
    with generator images j(S(g)).
    """

    def __init__(self, P: ComoduleAlgebra, j: LinearMap):
        if j.mode != "algebra":
            raise PreconditionError(f"{j.name}: a cleaving must be an algebra map")
        self.P = P
        self.j = j
        H = P.hopf
        self.j_inv = LinearMap(
            f"{j.name}oS",
            H.system,
            j.codomain,
            mode="anti",
            gen_images={g: j.apply(H.S.apply_word((g,))) for g in H.system.alphabet.gens},
            check=False,
        )

    def verify(self, degree_bound: int) -> list[CheckFailure]:
        failures = []
        P, H = self.P, self.P.hopf
        one = P.system.one()
        if self.j.apply(H.system.one()) != one:
            failures.append(CheckFailure("cleaving-unital", "1", f"j(1) = {self.j.apply(H.system.one())!r}"))
        for w in H.system.basis_words(degree_bound):
            ws = word_str(w)
            jim = self.j.apply_word(w)
            lhs = P.coact(jim)
            rhs = H.delta_word(w).map_leg(0, self.j.apply_word, codomain=P.system)
            if lhs != rhs:
                failures.append(CheckFailure("cleaving-colinear", ws, f"{lhs!r} != {rhs!r}"))
            conv = H.convolve(w, self.j.apply_word, self.j_inv.apply_word, P.system)
            vnoc = H.convolve(w, self.j_inv.apply_word, self.j.apply_word, P.system)
            target = one.scale(H.counit_word(w))
            if conv != target:
                failures.append(CheckFailure("cleaving-inverse-right", ws, f"{conv!r} != {target!r}"))
            if vnoc != target:
                failures.append(CheckFailure("cleaving-inverse-left", ws, f"{vnoc!r} != {target!r}"))
        return failures


class StrongConnection:
    """Linear lifting ell: H -> P (x) P tabulated on normal-form words."""

    def __init__(self, P: ComoduleAlgebra, table: dict[Word, Tensor]):
        self.P = P
        self.table = dict(table)
        if () not in self.table:
            self.table[()] = Tensor.of((P.system, P.system), P.system.one(), P.system.one())

    @staticmethod
    def from_cleaving(j: CleavingMap, bound: int) -> "StrongConnection":
        """ell = (j^-1 (x) j) o Delta."""
        P, H = j.P, j.P.hopf
        table = {
            w: H.delta_word(w)
            .map_leg(0, j.j_inv.apply_word, codomain=P.system)
            .map_leg(1, j.j.apply_word, codomain=P.system)
            for w in H.system.basis_words(bound)
        }
        return StrongConnection(P, table)

    def apply_word(self, w: Word) -> Tensor:
        if w not in self.table:
            raise DegreeExceededError(f"strong connection untabulated at {word_str(w)}")
        return self.table[w]

    def apply(self, p: NCPoly) -> Tensor:
        return linear_image(p, self.apply_word, Tensor.zero((self.P.system, self.P.system)))

    def translation_sandwich(self, h: NCPoly, mid: NCPoly) -> NCPoly:
        """h^[1] * mid * h^[2], multiplied out in P."""
        P = self.P.system
        word = partial(NCPoly.word, P.alphabet)
        return linear_image(
            self.apply(h), lambda k: P.mul_many([word(k[0]), mid, word(k[1])]), P.zero()
        )


def verify_strong_connection(ell: StrongConnection, degree_bound: int) -> list[CheckFailure]:
    """The three strong-connection axioms plus h^[1] h^[2] = eps(h), on basis
    words up to the bound."""
    failures = []
    P = ell.P
    H = P.hopf
    Ps, Hs = P.system, H.system
    one = Ps.one()
    if ell.apply_word(()) != Tensor.of((Ps, Ps), one, one):
        failures.append(CheckFailure("connection-unital", "1", f"ell(1) = {ell.apply_word(())!r}"))
    for w in Hs.basis_words(degree_bound):
        if w not in ell.table:
            continue
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
    """B x| H on the flat alphabet (B-generators then H-generators), with the
    cross relations h b = (h_(1) |> b) h_(2) installed as rewrite rules."""

    def __init__(self, system, hopf, coaction, b_system, action, name=""):
        super().__init__(system, hopf, coaction, name=name)
        self.b_system = b_system
        self.action = action  # ActionData

    @property
    def b_gens(self) -> tuple[str, ...]:
        return self.b_system.alphabet.gens

    @property
    def h_gens(self) -> tuple[str, ...]:
        return self.hopf.system.alphabet.gens

    def split_word(self, w: Word) -> tuple[Word, Word]:
        hset = set(self.h_gens)
        b = tuple(g for g in w if g not in hset)
        h = tuple(g for g in w if g in hset)
        return b, h

    def project_base(self, p: NCPoly) -> NCPoly:
        """(id (x) eps): collapse the H-part of each normal-form word."""
        B = self.b_system

        def collapse(w: Word) -> NCPoly:
            bw, hw = self.split_word(w)
            return NCPoly.word(B.alphabet, bw, self.hopf.counit_word(hw))

        return linear_image(self.system.normal_form(p), collapse, B.zero())

    def cleaving(self) -> CleavingMap:
        j = gens_map(
            f"j_{self.name}",
            self.hopf.system,
            self.system,
            {g: NCPoly.gen(self.system.alphabet, g) for g in self.h_gens},
            check=False,
        )
        return CleavingMap(self, j)


class ActionData:
    """Left H-module-algebra action on B, declared on (H-gen, B-gen) pairs."""

    def __init__(self, hopf: HopfAlgebra, b_system: RewriteSystem, table: dict[tuple[str, str], NCPoly]):
        self.hopf = hopf
        self.b_system = b_system
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
    action_table: dict[tuple[str, str], NCPoly],
    name: str = "",
    h_central: bool = False,
) -> SmashProduct:
    """Build B x| H; raises NotModuleAlgebraError when the action fails
    the module-algebra axioms (checked on all generator/relation pairs)."""
    from .ncpoly import Alphabet

    action = ActionData(H, b_system, action_table)
    problems = action.module_algebra_problems()
    if problems:
        raise NotModuleAlgebraError(f"{name or 'smash'}: {problems[0]}")
    b_gens = b_system.alphabet.gens
    h_gens = H.system.alphabet.gens
    overlap = set(b_gens) & set(h_gens)
    if overlap:
        raise NotModuleAlgebraError(f"generator names shared between B and H: {sorted(overlap)}")
    central = tuple(b_system.alphabet.central) + (h_gens if h_central else ())
    alpha = Alphabet(b_gens + h_gens, central=central)

    def lift_b(p: NCPoly) -> NCPoly:
        return NCPoly(alpha, dict(p.terms))

    rules: list[tuple[Word, NCPoly]] = []
    for rule in b_system.rules:
        rules.append((rule.lhs_word, lift_b(rule.rhs)))
    if h_central:
        # centrality already encodes the cross relations; only the trivial
        # action is compatible with it
        for (z, b), p in action.table.items():
            expected = NCPoly.gen(b_system.alphabet, b).scale(H.counit_table[z])
            if b_system.normal_form(p - expected) != b_system.zero():
                raise NotModuleAlgebraError(
                    f"h_central smash requires the trivial action; {z}|>{b} = {p!r}"
                )
        for rule in H.system.rules:
            rules.append((rule.lhs_word, NCPoly(alpha, dict(rule.rhs.terms))))
        suffix = None
    else:
        suffix = H.system
        for z in h_gens:
            for b in b_gens:
                # z b = (z_(1) |> b) z_(2)
                rhs = linear_image(
                    H.delta_word((z,)),
                    lambda k: NCPoly(alpha, {bw + k[1]: c for bw, c in action.act(k[0], (b,)).terms.items()}),
                    NCPoly.zero(alpha),
                )
                rules.append(((z, b), rhs))
    system = RewriteSystem(
        alpha,
        rules,
        name=name or f"{b_system.name}x|{H.name}",
        suffix_system=suffix,
        scalar_tower=b_system.scalar_tower,
    )
    coaction: dict[str, Tensor] = {}
    for b in b_gens:
        coaction[b] = Tensor.of((system, H.system), NCPoly.gen(alpha, b), H.system.one())
    for z in h_gens:
        coaction[z] = Tensor(
            (system, H.system),
            {
                (w1, w2): c
                for (w1, w2), c in H.delta_word((z,)).terms.items()
            },
        )
    return SmashProduct(system, H, coaction, b_system, action, name=name or system.name)


# ---------------------------------------------------------------------------
# Miyashita-Ulbrich compatibility
# ---------------------------------------------------------------------------

def _adjoint(H: HopfAlgebra, h: NCPoly, k: NCPoly) -> NCPoly:
    """S(h_(1)) k h_(2), in normal form in H."""
    Hs = H.system
    return linear_image(
        h,
        lambda w: H.convolve(
            w, lambda v: Hs.mul(H.S.apply_word(v), k), partial(NCPoly.word, Hs.alphabet), Hs
        ),
        Hs.zero(),
    )


def miyashita_ulbrich_check(
    f: LinearMap,
    ell: StrongConnection,
    samples: Sequence[tuple[NCPoly, NCPoly]],
    P: ComoduleAlgebra | None = None,
) -> list[CheckFailure]:
    """f(S(h_(1)) k h_(2)) = h^[1] f(k) h^[2] on the given (k, h) samples."""
    P = P or ell.P
    H = P.hopf
    failures = []
    for k, h in samples:
        lhs = f.apply(_adjoint(H, h, k))
        rhs = ell.translation_sandwich(h, f.apply(k))
        if P.system.normal_form(lhs - rhs) != P.system.zero():
            failures.append(
                CheckFailure(
                    "miyashita-ulbrich",
                    f"(k={k!r}, h={h!r})",
                    f"{lhs!r} != {rhs!r}",
                )
            )
    return failures


# ---------------------------------------------------------------------------
# theta correspondence on smash products
# ---------------------------------------------------------------------------

def theta_forward(f: LinearMap, smash: SmashProduct, dwords: Sequence[Word]) -> LinearMap:
    """theta_f = (id_B (x) eps) o f, tabulated on the given coinvariant words."""
    table = {w: smash.project_base(f.apply_word(w)) for w in dwords}
    return LinearMap(
        f"theta[{f.name}]",
        smash.hopf.system,
        smash.b_system,
        mode="table",
        table=table,
    )


def theta_backward(theta: LinearMap, smash: SmashProduct, dwords: Sequence[Word]) -> LinearMap:
    """f_theta = (theta (x) id_H) o Delta, tabulated on the given words."""
    H = smash.hopf
    table = {
        w: H.delta_word(w)
        .map_leg(0, theta.apply_word, codomain=smash.b_system)
        .merge_legs(0, smash.system)
        .leg_poly(0)
        for w in dwords
    }
    return LinearMap(
        f"f[{theta.name}]",
        H.system,
        smash.system,
        mode="table",
        table=table,
    )


def verify_theta_properties(
    theta: LinearMap,
    smash: SmashProduct,
    dpolys: Sequence[NCPoly],
    hpolys: Sequence[NCPoly] = (),
) -> list[CheckFailure]:
    """The three reduction-data properties of a unital map theta: D -> B:
    anti-multiplicativity, the commutation rule, and S-equivariance."""
    failures = []
    H = smash.hopf
    B = smash.b_system
    act = smash.action
    one = B.one()
    if theta.apply(H.system.one()) != one:
        failures.append(CheckFailure("theta-unital", "1", f"theta(1) = {theta.apply(H.system.one())!r}"))
    for k in dpolys:
        for l in dpolys:
            kl = H.system.mul(k, l)
            try:
                lhs = theta.apply(kl)
                rhs = B.mul(theta.apply(l), theta.apply(k))
            except DegreeExceededError:
                continue
            if B.normal_form(lhs - rhs) != B.zero():
                failures.append(
                    CheckFailure(
                        "theta-antimultiplicative",
                        f"(k={k!r}, l={l!r})",
                        f"theta(kl)={lhs!r} != theta(l)theta(k)={rhs!r}",
                    )
                )
    for k in dpolys:
        for b in smash.b_gens:
            bp = NCPoly.gen(B.alphabet, b)
            try:
                lhs = B.mul(bp, theta.apply(k))
                rhs = linear_image(
                    k,
                    lambda w: H.convolve(w, theta.apply_word, lambda v: act.act(v, (b,)), B),
                    B.zero(),
                )
            except DegreeExceededError:
                continue
            if lhs != rhs:
                failures.append(
                    CheckFailure(
                        "theta-commutation",
                        f"(k={k!r}, b={b})",
                        f"b theta(k) = {lhs!r} != theta(k1)(k2|>b) = {rhs!r}",
                    )
                )
    for k in dpolys:
        for h in hpolys:
            try:
                lhs = theta.apply(_adjoint(H, h, k))
                rhs = act.act_hpoly(H.S.apply(h), theta.apply(k))
            except DegreeExceededError:
                continue
            if B.normal_form(lhs - rhs) != B.zero():
                failures.append(
                    CheckFailure(
                        "theta-S-equivariance",
                        f"(k={k!r}, h={h!r})",
                        f"{lhs!r} != {rhs!r}",
                    )
                )
    return failures


# ---------------------------------------------------------------------------
# reduction ideal (Hopf-Galois reduction data)
# ---------------------------------------------------------------------------

class ReductionIdeal:
    def __init__(self, P, generators, quotient_system, inverse_table, report):
        self.P = P
        self.generators = generators
        self.quotient_system = quotient_system
        self.inverse_table = inverse_table
        self.report = report


def reduction_ideal(
    P: ComoduleAlgebra,
    f: LinearMap,
    J: HopfIdeal,
    ell: StrongConnection,
    bound: int = 3,
    base_gens: Sequence[str] = (),
) -> ReductionIdeal:
    """I_f = P f(D /\\ ker eps), with the inverse correspondence
    f_I(k) = S^-1(k)^[1] (i_B o pi_I)(S^-1(k)^[2]) round-trip-tested on the table.

    Preconditions (colinearity, centrality against declared base generators,
    Miyashita-Ulbrich compatibility on degree-bounded samples) are enforced.
    """
    from .hopf import left_coinvariant_test

    H = P.hopf
    report: list[CheckFailure] = []
    dwords = [
        w
        for w in H.system.basis_words(bound)
        if left_coinvariant_test(H, J, NCPoly.word(H.system.alphabet, w))
    ]
    # colinearity of f on D
    for w in dwords:
        img = f.apply_word(w)
        lhs = P.coact(img)
        rhs = H.delta_word(w).map_leg(0, f.apply_word, codomain=P.system)
        if lhs != rhs:
            report.append(CheckFailure("reduction-colinearity", word_str(w), f"{lhs!r} != {rhs!r}"))
    # centrality in Z_P(B)
    for w in dwords:
        img = f.apply_word(w)
        for b in base_gens:
            bp = NCPoly.gen(P.system.alphabet, b)
            diff = P.system.mul(img, bp) - P.system.mul(bp, img)
            if P.system.normal_form(diff) != P.system.zero():
                report.append(
                    CheckFailure("reduction-centrality", f"f({word_str(w)}) vs {b}", f"{P.system.normal_form(diff)!r} != 0")
                )
    hsamples = [NCPoly.word(H.system.alphabet, w) for w in H.system.basis_words(max(1, bound - 1))]
    dsamples = [NCPoly.word(H.system.alphabet, w) for w in dwords]
    report.extend(
        miyashita_ulbrich_check(f, ell, [(k, h) for k in dsamples for h in hsamples], P)
    )
    if report:
        raise PreconditionError(f"reduction_ideal preconditions failed: {report[0]}")
    gens = []
    for w in dwords:
        g = f.apply(
            NCPoly.word(H.system.alphabet, w)
            - NCPoly.const(H.system.alphabet, H.counit_word(w))
        )
        if not g.is_zero():
            gens.append(g)
    qsys = P.system.extend_by_ideal(gens, name=f"{P.name}/I_f")
    inverse_table: dict[Word, NCPoly] = {}
    for w in dwords:
        inverse_table[w] = (
            ell.apply(H.S_inv.apply_word(w))
            .map_leg(1, lambda b: qsys.normal_form(NCPoly.word(qsys.alphabet, b)), codomain=qsys)
            .merge_legs(0, P.system)
            .leg_poly(0)
        )
        diff = qsys.normal_form(inverse_table[w] - f.apply_word(w))
        if not diff.is_zero():
            report.append(
                CheckFailure("reduction-roundtrip", word_str(w), f"f_I != f mod I at {word_str(w)}: {diff!r}")
            )
    return ReductionIdeal(P, gens, qsys, inverse_table, report)


# ---------------------------------------------------------------------------
# principality certificate for quotient pairs
# ---------------------------------------------------------------------------

def principal_quotient_pair_certificate(H: HopfAlgebra, J: HopfIdeal, bound: int):
    """Certify that H is a principal H/J-comodule algebra (for the coaction
    (id (x) pi) o Delta) by exhibiting a strong connection and verifying its
    axioms up to the bound.

    The connection is built recursively on quotient basis words: ell(1) = 1 (x) 1
    and ell([v g]) = S(g_(1)) ell([v])<1> (x) ell([v])<2> g_(2), the sandwich
    construction for quotients of matrix quantum groups.

    Returns (failures, connection, comodule).
    """
    qH, proj = quotient_hopf(H, J)
    coaction = {
        g: H.delta_table[g].map_leg(1, proj.apply_word, codomain=qH.system)
        for g in H.system.alphabet.gens
    }
    P = ComoduleAlgebra(H.system, qH, coaction, name=f"{H.name} over {qH.name}")
    Hs = H.system
    one = Hs.one()
    table: dict[Word, Tensor] = {(): Tensor.of((Hs, Hs), one, one)}
    words = sorted(qH.system.basis_words(bound), key=len)
    for w in words:
        if not w:
            continue
        v, g = w[:-1], w[-1]
        prev = table[v]
        # left-multiply leg 0 by S(g_(1)), right-multiply leg 1 by g_(2)
        table[w] = linear_image(
            H.delta_word((g,)),
            lambda k: Tensor.of((Hs, Hs), H.S.apply_word(k[0]), one)
            .mul(prev)
            .mul(Tensor.of((Hs, Hs), one, NCPoly.word(Hs.alphabet, k[1]))),
            Tensor.zero((Hs, Hs)),
        )
    ell = StrongConnection(P, table)
    return verify_strong_connection(ell, bound), ell, P


# ---------------------------------------------------------------------------
# graded-basis lemma (rank-one case) and bounded tensor-over-base equality
# ---------------------------------------------------------------------------

def graded_basis_check(
    A: ComoduleAlgebra, gamma: Word, gamma_inv: Word, e: NCPoly, f: NCPoly
) -> list[CheckFailure]:
    """{e} is a basis of the gamma-graded component iff f in the inverse
    component satisfies e f = 1 = f e (the rank-one instance)."""
    failures = []
    S = A.system
    Hs = A.hopf.system
    for name, elt, grade in (("e", e, gamma), ("f", f, gamma_inv)):
        got = A.coact(elt)
        want = Tensor((S, Hs), {(w, grade): c for w, c in S.normal_form(elt).terms.items()})
        if got != want:
            failures.append(CheckFailure("graded-component", name, f"{got!r} != {want!r}"))
    if S.mul(e, f) != S.one():
        failures.append(CheckFailure("graded-basis-ef", "e*f", f"{S.mul(e, f)!r} != 1"))
    if S.mul(f, e) != S.one():
        failures.append(CheckFailure("graded-basis-fe", "f*e", f"{S.mul(f, e)!r} != 1"))
    return failures


def tensor_over_base_equal(
    t1: Tensor,
    t2: Tensor,
    P: RewriteSystem,
    base_gens: Sequence[str],
    degree_cap: int = 8,
    gens_generate_base: bool = False,
):
    """Equality in P (x)_B P, decided against the span of balancing relations
    u b (x) v - u (x) b v over the listed base generators, degree by degree.

    Returns True, False, or "UNDECIDED" (the listed generators may not
    exhaust B, so failure to balance is inconclusive unless the caller
    asserts they generate it).
    """
    diff = t1 - t2
    if diff.is_zero():
        return True
    deg = max(len(a) + len(b) for (a, b) in diff.terms)
    if deg > degree_cap:
        return "UNDECIDED"
    relations = []
    words = P.all_words(deg)
    base = set(base_gens)
    for a in words:
        if not a or a[-1] not in base:
            continue
        for b in words:
            if len(a) + len(b) > deg:
                continue
            t_left = Tensor((P, P), {(a, b): S_ONE})
            t_right = Tensor((P, P), {(a[:-1], (a[-1],) + b): S_ONE})
            rel = t_left - t_right
            if not rel.is_zero():
                relations.append({k: c for k, c in rel.terms.items()})
    space = RowSpace()
    for rel in relations:
        space.add(rel)
    if space.contains(dict(diff.terms)):
        return True
    return False if gens_generate_base else "UNDECIDED"
