"""Hopf algebra structure on presented algebras: coproduct, counit, antipode,
convolution, Hopf ideals, quotients and Hopf isomorphisms."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, wraps
from typing import Callable

from .maps import LinearMap, NotWellDefinedError, gens_map, relation_mismatches
from .ncpoly import NCPoly, Word, word_str
from .rewrite import RewriteSystem
from .scalars import S_ONE, S_ZERO, Scalar
from .tensors import Tensor, TensorSpace, linear_image


class NotHopfIdealError(ValueError):
    pass


def stored(certificate: Callable) -> Callable:
    """Run ``certificate`` once per object it certifies: its result is kept in
    the object's ``__dict__`` under the certificate's qualified name (a
    method's holds a dot, so the method stays callable), and every later
    call returns it. The result is shared, so read-only."""
    key = certificate.__qualname__

    @wraps(certificate)
    def read(obj):
        kept = vars(obj)
        if key not in kept:
            kept[key] = certificate(obj)
        return kept[key]

    return read


@dataclass
class CheckFailure:
    check: str
    where: str
    detail: str

    def __repr__(self):
        return f"FAIL[{self.check} @ {self.where}]: {self.detail}"


class HopfAlgebra:
    """Presented algebra plus generator-level Delta, counit, antipode.

    Delta (into ``TensorSpace((system, system))``) and the counit extend as
    algebra maps, the antipode ``S`` (and its inverse ``S_inv``, supplied
    explicitly) as anti-algebra maps; Delta, S and S_inv are memoised
    LinearMaps.
    Nothing is checked at construction; ``check_hopf_axioms`` certifies that
    the tables respect the relations and satisfy the axioms, once
    (``stored``).
    """

    def __init__(
        self,
        system: RewriteSystem,
        delta: dict[str, Tensor],
        counit: dict[str, Scalar],
        antipode: dict[str, NCPoly],
        antipode_inv: dict[str, NCPoly],
        name: str = "",
    ):
        self.system = system
        self.name = name or system.name
        self.delta_table = delta
        self.counit_table = counit
        self.antipode_table = antipode
        self.antipode_inv_table = antipode_inv
        self.Delta = LinearMap(
            f"Delta_{self.name}", system, TensorSpace((system, system)), gen_images=delta, check=False
        )
        self.S = LinearMap(
            f"S_{self.name}", system, system, mode="anti", gen_images=antipode, check=False
        )
        self.S_inv = LinearMap(
            f"S^-1_{self.name}", system, system, mode="anti", gen_images=antipode_inv, check=False
        )

    # -- structure maps ------------------------------------------------------
    def delta_word(self, w: Word) -> Tensor:
        return self.Delta.apply_word(w)

    def delta(self, p: NCPoly) -> Tensor:
        return self.Delta.apply(p)

    def convolve(
        self,
        w: Word,
        f: Callable[[Word], NCPoly],
        g: Callable[[Word], NCPoly],
        cod: RewriteSystem,
    ) -> NCPoly:
        """(f*g)(w) = f(w_(1)) g(w_(2)) summed over Delta(w), in normal form in ``cod``."""
        return linear_image(self.delta_word(w), lambda k: cod.mul(f(k[0]), g(k[1])), cod.zero())

    def counit_word(self, w: Word) -> Scalar:
        out = S_ONE
        for g in w:
            out = out * self.counit_table[g]
            if out.is_zero():
                return S_ZERO
        return out

    def counit(self, p: NCPoly) -> Scalar:
        out = S_ZERO
        for w, c in p.terms.items():
            out = out + c * self.counit_word(w)
        return out

    def __repr__(self):
        return f"HopfAlgebra({self.name})"


# ----------------------------------------------------------------------------
# axiom suite
# ----------------------------------------------------------------------------

@stored
def check_hopf_axioms(H: HopfAlgebra) -> list[CheckFailure]:
    """Coassociativity, counit law, antipode law, antipode invertibility and
    the anti-coalgebra property of S, certified in every degree.

    The axioms are checked on the words of degree <= 1: the unit and the
    irreducible generators, which generate H, since a rule whose left side
    is one letter rewrites it into smaller letters and scalars. Then Delta
    (into H (x) H), the counit, S and S^-1 are checked on both sides of every
    defining relation (``RewriteSystem.relations``).
    Together these give every degree (Kassel, *Quantum Groups*, ch. III):

    - respecting the relations, Delta and eps are algebra maps and S, S^-1
      anti-algebra maps on the quotient, not only on the free algebra;
    - two algebra maps, or two anti-algebra maps, that agree on generators
      agree everywhere. This gives coassociativity ((Delta (x) id) Delta
      against (id (x) Delta) Delta), the counit laws ((eps (x) id) Delta and
      (id (x) eps) Delta against id), S^-1 S = S S^-1 = id, and the
      anti-coalgebra law (Delta S against (S (x) S) tau Delta);
    - {h : S(h_(1)) h_(2) = eps(h) 1} holds 1 and is closed under products,
      as S(h_(1) k_(1)) h_(2) k_(2) = S(k_(1)) S(h_(1)) h_(2) k_(2); the same
      holds for h_(1) S(h_(2)).

    A pass needs no confluence: every reduction step keeps the class in the
    quotient, so equal normal forms prove equality there. The generator
    checks run first, so the first failure of a corrupted table names a
    generator when one is wrong.
    """
    failures: list[CheckFailure] = []
    sysm = H.system
    one = sysm.one()
    word = partial(NCPoly.word, sysm.alphabet)
    for w in sysm.basis_words(1):
        ws = word_str(w)
        d = H.delta_word(w)
        left = d.expand_leg(0, H.delta_word)
        right = d.expand_leg(1, H.delta_word)
        if left != right:
            failures.append(CheckFailure("coassociativity", ws, f"{left!r} != {right!r}"))
        ce_l = d.contract_leg(0, H.counit_word).leg_poly(0)
        ce_r = d.contract_leg(1, H.counit_word).leg_poly(0)
        wp = sysm.normal_form(word(w))
        if ce_l != wp:
            failures.append(CheckFailure("counit-left", ws, f"{ce_l!r} != {wp!r}"))
        if ce_r != wp:
            failures.append(CheckFailure("counit-right", ws, f"{ce_r!r} != {wp!r}"))
        target = one.scale(H.counit_word(w))
        s_id = H.convolve(w, H.S.apply_word, word, sysm)
        if s_id != target:
            failures.append(CheckFailure("antipode-left", ws, f"{s_id!r} != {target!r}"))
        id_s = H.convolve(w, word, H.S.apply_word, sysm)
        if id_s != target:
            failures.append(CheckFailure("antipode-right", ws, f"{id_s!r} != {target!r}"))
        sw = H.S.apply_word(w)
        if H.S_inv.apply(sw) != wp:
            failures.append(CheckFailure("antipode-inverse", ws, f"S^-1(S({ws})) != {ws}"))
        if H.S.apply(H.S_inv.apply_word(w)) != wp:
            failures.append(CheckFailure("antipode-inverse", ws, f"S(S^-1({ws})) != {ws}"))
        lhs = d.map_leg(0, H.S.apply_word).map_leg(1, H.S.apply_word).swap_legs(0, 1)
        rhs = H.delta(sw)
        if lhs != rhs:
            failures.append(CheckFailure("anti-coalgebra", ws, f"{lhs!r} != {rhs!r}"))
    for check, mismatches in (
        ("delta-well-defined", H.Delta.mismatches),
        ("counit-well-defined", relation_mismatches(sysm, H.counit_word, H.counit)),
        ("antipode-well-defined", H.S.mismatches),
        ("antipode-inverse-well-defined", H.S_inv.mismatches),
    ):
        failures += [CheckFailure(check, word_str(w), f"{lhs!r} != {rhs!r}") for w, _, lhs, rhs in mismatches]
    return failures


# ----------------------------------------------------------------------------
# Hopf ideals and quotients
# ----------------------------------------------------------------------------

class HopfIdeal:
    """Two-sided ideal J given by generators. ``validate`` checks the
    Hopf-ideal axioms (counit kill, coideal containment, antipode stability)
    on the generators, by reduction in the quotient; as eps and Delta are
    algebra maps and S an anti-algebra map, that covers all of J. The
    quotient system, the failures and the quotient are each built once and
    shared, so read-only."""

    def __init__(self, H: HopfAlgebra, gens: list[NCPoly], name: str = "J"):
        self.hopf = H
        self.gens = [H.system.normal_form(g) for g in gens]
        self.name = name

    @cached_property
    def quotient_system(self) -> RewriteSystem:
        return self.hopf.system.extend_by_ideal(self.gens, name=f"{self.hopf.name}/{self.name}")

    @stored
    def validate(self) -> list[CheckFailure]:
        H = self.hopf
        failures: list[CheckFailure] = []
        qs = self.quotient_system
        zero2 = Tensor.zero((qs, qs))
        for i, g in enumerate(self.gens):
            where = f"gen[{i}]={g!r}"
            if not H.counit(g).is_zero():
                failures.append(CheckFailure("counit-kill", where, f"eps(g) = {H.counit(g)!r}"))
            d = H.delta(g)
            reduced = Tensor((qs, qs), d.terms)
            if reduced != zero2:
                failures.append(CheckFailure("coideal", where, f"Delta(g) != 0 mod J(x)H+H(x)J: {reduced!r}"))
            sg = qs.normal_form(H.S.apply(g))
            if not sg.is_zero():
                failures.append(CheckFailure("antipode-stability", where, f"S(g) = {sg!r} mod J"))
        return failures

    @cached_property
    def quotient(self) -> tuple[HopfAlgebra, LinearMap]:
        """H/J with inherited structure maps, plus the canonical surjection;
        NotHopfIdealError when ``validate`` fails."""
        failures = self.validate()
        if failures:
            raise NotHopfIdealError(f"{self.name}: {failures[0]}")
        H, qs = self.hopf, self.quotient_system
        delta = {g: Tensor((qs, qs), t.terms) for g, t in H.delta_table.items()}
        antipode = {g: qs.normal_form(p) for g, p in H.antipode_table.items()}
        antipode_inv = {g: qs.normal_form(p) for g, p in H.antipode_inv_table.items()}
        quotient = HopfAlgebra(
            qs, delta, dict(H.counit_table), antipode, antipode_inv, name=f"{H.name}/{self.name}"
        )
        proj = gens_map(f"pi_{H.name}/{self.name}", H.system, qs,
                        {g: NCPoly.gen(qs.alphabet, g) for g in H.system.alphabet.gens},
                        check=False)
        return quotient, proj


def hopf_map_problems(phi: LinearMap, H1: HopfAlgebra, H2: HopfAlgebra) -> list[CheckFailure]:
    """Certify the algebra map phi: H1 -> H2 (premise: ``gens_map`` with
    check=True; H1, H2 pass ``check_hopf_axioms``) a Hopf map in every degree.
    (phi (x) phi) o Delta and Delta o phi, eps o phi and eps are pairs of
    algebra maps, phi o S and S o phi of anti-algebra maps, so each pair
    agrees everywhere when it agrees on the generators of H1."""
    failures: list[CheckFailure] = []
    for g in H1.system.alphabet.gens:
        img = phi.apply_word((g,))
        lhs = H1.delta_word((g,)).map_leg(0, phi.apply_word, codomain=H2.system).map_leg(
            1, phi.apply_word, codomain=H2.system
        )
        rhs = H2.delta(img)
        if lhs != rhs:
            failures.append(CheckFailure("hopf-map-coproduct", g, f"{lhs!r} != {rhs!r}"))
        if H1.counit_table[g] != H2.counit(img):
            failures.append(CheckFailure("hopf-map-counit", g, f"{H1.counit_table[g]!r} != {H2.counit(img)!r}"))
        lhs, rhs = phi.apply(H1.antipode_table[g]), H2.S.apply(img)
        if lhs != rhs:
            failures.append(CheckFailure("hopf-map-antipode", g, f"{lhs!r} != {rhs!r}"))
    return failures


def generator_map_isomorphism_problems(
    H1: HopfAlgebra, H2: HopfAlgebra, gen_map: dict[str, NCPoly], inverse: dict[str, NCPoly]
) -> list[CheckFailure]:
    """Certify that the generator assignment phi = ``gen_map`` extends to a
    Hopf isomorphism H1 -> H2 whose inverse psi has the generator images
    ``inverse``, in every degree.

    phi and psi respect every defining relation (``gens_map`` with
    check=True), so they are algebra maps. psi o phi and the identity of H1
    are algebra maps; when they agree on the generators of H1, they agree
    everywhere, and likewise phi o psi and the identity of H2. So phi is
    bijective, and a Hopf map by ``hopf_map_problems``. The premise is that
    H1 and H2 are Hopf algebras (``check_hopf_axioms``)."""
    try:
        phi = gens_map("phi", H1.system, H2.system, gen_map, check=True)
    except NotWellDefinedError as e:
        return [CheckFailure("iso-well-defined", "rules", str(e))]
    try:
        psi = gens_map("psi", H2.system, H1.system, inverse, check=True)
    except NotWellDefinedError as e:
        return [CheckFailure("iso-inverse-well-defined", "rules", str(e))]
    failures = hopf_map_problems(phi, H1, H2)
    for there, back, dom in ((phi, psi, H1), (psi, phi, H2)):
        for g in dom.system.alphabet.gens:
            got = back.apply(there.apply_word((g,)))
            want = dom.system.normal_form(dom.system.gen(g))
            if got != want:
                failures.append(
                    CheckFailure("iso-inverse", f"{back.name}({there.name}({g}))", f"{got!r} != {want!r}")
                )
    return failures
