"""Coverings, multipullbacks, piecewise trivialisations, transition functions,
cotensor prolongations and the reducibility criterion."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Iterator, Sequence

from .comodule import CleavingMap, ComoduleAlgebra, smash_product
from .hopf import CheckFailure, HopfAlgebra, HopfIdeal, check_hopf_axioms, hopf_map_problems
from .linalg import RowSpace
from .maps import LinearMap, gens_map, mismatch_message
from .ncpoly import Alphabet, NCPoly, Word, word_str
from .rewrite import NonUnitLeadError, RewriteSystem, UnitIdealError, stored
from .tensors import Tensor, TensorSpace, linear_image


class NotSurjectiveError(ValueError):
    pass


@dataclass
class CoveringPiece:
    comodule: ComoduleAlgebra
    base_gens: tuple[str, ...] = ()


@dataclass
class PairData:
    """Double quotient P/(ker pi_i + ker pi_j) with the two canonical maps."""

    target: ComoduleAlgebra
    map_i: LinearMap
    map_j: LinearMap


class Covering:
    """Finite family of colinear quotient surjections.

    Either derived from kernel generators over a presented base, or declared
    piecewise (pieces + pairwise double-quotient data), in which case the base
    is the multipullback itself.

    Of the two assumptions the paper makes on a kernel-derived covering, the
    zero intersection of the kernels is certified up to a degree bound
    (``kernel_intersection_certificate``; the covering suite reads it at
    degree 2). That the kernels generate a distributive lattice is not
    checked.
    """

    def __init__(
        self,
        pieces: Sequence[CoveringPiece],
        pairs: dict[tuple[int, int], PairData],
        base: ComoduleAlgebra | None = None,
        kernels: Sequence[Sequence[NCPoly]] | None = None,
        name: str = "covering",
    ):
        self.pieces = list(pieces)
        self.pairs = dict(pairs)
        self.base = base
        self.kernels = [list(k) for k in kernels] if kernels is not None else None
        self.name = name

    @property
    def size(self) -> int:
        return len(self.pieces)

    def pair_maps(self, i: int, j: int) -> tuple[ComoduleAlgebra, LinearMap, LinearMap]:
        """Target and (map for i, map for j), for any ordered pair i != j."""
        if (i, j) in self.pairs:
            d = self.pairs[(i, j)]
            return d.target, d.map_i, d.map_j
        d = self.pairs[(j, i)]
        return d.target, d.map_j, d.map_i

    @staticmethod
    def from_kernels(
        base: ComoduleAlgebra,
        kernels: Sequence[Sequence[NCPoly]],
        base_gens: Sequence[Sequence[str]] | None = None,
        name: str = "covering",
    ) -> "Covering":
        def quotient(gens, tag, where):
            try:
                return base.system.extend_by_ideal(gens, name=f"{base.name}/{tag}")
            except UnitIdealError as e:
                raise UnitIdealError(f"the kernel of {where} holds a unit: {e}") from None
            except NonUnitLeadError as e:
                raise NonUnitLeadError(f"the kernel of {where} needs a non-unit inverse: {e}") from None

        pieces = []
        for idx, kern in enumerate(kernels):
            qsys = quotient(list(kern), f"k{idx}", f"piece {idx}")
            piece = base.over(qsys, name=f"{base.name}[{idx}]")
            pieces.append(
                CoveringPiece(piece, tuple(base_gens[idx]) if base_gens else ())
            )
        pairs = {}
        for i in range(len(kernels)):
            for j in range(i + 1, len(kernels)):
                qsys = quotient(list(kernels[i]) + list(kernels[j]), f"k{i}{j}", f"pair ({i},{j})")
                target = base.over(qsys, name=f"{base.name}[{i},{j}]")
                ident = {g: NCPoly.gen(qsys.alphabet, g) for g in base.system.alphabet.gens}
                pairs[(i, j)] = PairData(
                    target,
                    gens_map(f"pi^{i}_{j}", pieces[i].comodule.system, qsys, ident, check=False),
                    gens_map(f"pi^{j}_{i}", pieces[j].comodule.system, qsys, ident, check=False),
                )
        return Covering(pieces, pairs, base=base, kernels=kernels, name=name)

    # -- validation -----------------------------------------------------------
    @stored
    def validate(self) -> list[CheckFailure]:
        """The piece axioms, coinvariant base generators, and per pair both
        maps well defined and colinear on generators and the target's
        coaction respecting the target's relations, so that colinearity on
        generators extends to every word. ``kernel_intersection_certificate``
        is separate and bounded. Each face and each distinct pair map is
        certified once, and its failures reported for each index holding it."""

        @functools.cache
        def map_failures(mp: LinearMap, P: ComoduleAlgebra, target: ComoduleAlgebra) -> list[CheckFailure]:
            failures = [
                CheckFailure("pair-map-well-defined", mp.name, mismatch_message(*m)) for m in mp.mismatches()[:1]
            ]
            for g in P.system.alphabet.gens:
                lhs = target.coact(mp.apply_word((g,)))
                rhs = P.coact_word((g,)).map_leg(0, mp.apply_word, codomain=target.system)
                if lhs != rhs:
                    failures.append(CheckFailure("pair-map-colinear", f"{mp.name} at {g}", f"{lhs!r} != {rhs!r}"))
            return failures

        failures: list[CheckFailure] = []
        for idx, piece in enumerate(self.pieces):
            P = piece.comodule
            face = P.check_axioms() + [
                CheckFailure("base-gen-coinvariant", b, "not coinvariant")
                for b in piece.base_gens
                if not P.is_coinvariant(P.system.gen(b))
            ]
            failures.extend(CheckFailure(f.check, f"piece[{idx}] {f.where}", f.detail) for f in face)
        for (i, j), pair in self.pairs.items():
            for mp, piece in ((pair.map_i, self.pieces[i]), (pair.map_j, self.pieces[j])):
                failures.extend(map_failures(mp, piece.comodule, pair.target))
            failures.extend(
                CheckFailure("pair-coaction-well-defined", f"({i},{j}) {word_str(w)}", f"{lhs!r} != {rhs!r}")
                for w, _, lhs, rhs in pair.target.rho.mismatches()
            )
        return failures

    def kernel_intersection_certificate(self, degree_bound: int) -> list[CheckFailure]:
        """chi is injective on the degree-bounded basis (so /\\ ker pi_i = 0 there)."""
        basis = self.base.system.basis_words(degree_bound)
        vectors = []
        for w in basis:
            vec = {}
            for idx, piece in enumerate(self.pieces):
                nf = piece.comodule.system.normal_form(
                    NCPoly.word(self.base.system.alphabet, w)
                )
                for ww, c in nf.terms.items():
                    vec[(idx, ww)] = c
            vectors.append(vec)
        space = RowSpace()
        rank = sum(1 for v in vectors if space.add(v))
        if rank != len(basis):
            return [
                CheckFailure(
                    "kernel-intersection",
                    f"degree<={degree_bound}",
                    f"joint rank {rank} < {len(basis)}: kernels intersect nontrivially",
                )
            ]
        return []


def pair_differences(cov: Covering, tup: Sequence[NCPoly]) -> Iterator[tuple[int, int, NCPoly]]:
    """(i, j, pi^i_j(t_i) - pi^j_i(t_j)) in normal form, for each pair of the
    covering where the two double-quotient images of the tuple differ.  The
    tuple lies in the multipullback exactly when this yields nothing.  A
    tuple without one entry per piece is a ValueError."""
    if len(tup) != cov.size:
        raise ValueError(f"{cov.name} has {cov.size} pieces, the tuple {len(tup)} entries")
    for (i, j) in cov.pairs:
        target, mi, mj = cov.pair_maps(i, j)
        diff = target.system.normal_form(mi.apply(tup[i]) - mj.apply(tup[j]))
        if not diff.is_zero():
            yield i, j, diff


# ---------------------------------------------------------------------------
# trivialisations and transition functions
# ---------------------------------------------------------------------------

class Trivialisation:
    def __init__(self, covering: Covering, hopf: HopfAlgebra, cleavings: Sequence[CleavingMap], name=""):
        self.covering = covering
        self.hopf = hopf
        self.cleavings = list(cleavings)
        self.name = name or f"triv({covering.name})"

    @stored
    def validate(self) -> list[CheckFailure]:
        """The Hopf axioms, the covering's checks, then each piece's cleaving.

        These prove the three transition laws in every degree, into any pair
        target, commutative or not, from premises all checked here: the Hopf
        axioms (``check_hopf_axioms``); the piece axioms, the pair maps well
        defined and colinear on generators, and each pair target's coaction
        respecting its relations (``pair-coaction-well-defined``), all in
        ``Covering.validate``; the cleavings (``CleavingMap.verify``). So the
        pair maps and cleavings are unital algebra maps, colinear on every
        word, and gamma o S is a two-sided convolution inverse of gamma.
        Write T_ij(h) = A(h_(1)) B(h_(2)), A = pi^i_j o gamma_i and
        B = pi^j_i o gamma_j o S.

        - T_ii = gamma_i * (gamma_i o S) = eta eps by the antipode law.
        - (T_ij * T_ji)(h) = A(h_(1)) pi^j_i((gamma_j o S * gamma_j)(h_(2)))
          pi^i_j(gamma_i(S(h_(3)))) = pi^i_j(gamma_i(h_(1) S(h_(2)))) = eps(h) 1.
        - rho(T_ij(h)) = A(h_(1)) B(h_(4)) (x) h_(2) S(h_(3)) = T_ij(h) (x) 1,
          as the target's coaction is an algebra map and S anti-coalgebra.

        The bounded word loop over the laws is the oracle
        ``bounded_transition_checks`` in the tests.
        """
        failures = check_hopf_axioms(self.hopf) + self.covering.validate()
        for idx, cl in enumerate(self.cleavings):
            failures.extend(CheckFailure(f.check, f"piece[{idx}] {f.where}", f.detail) for f in cl.verify())
        return failures

    def transition(self, i: int, j: int, h_word: Word) -> NCPoly:
        """T_ij(h) = pi^i_j(gamma_i(h_(1))) pi^j_i(gamma_j(S(h_(2)))), i != j."""
        gamma_i = self.cleavings[i].j
        gamma_j_inv = self.cleavings[j].j_inv
        target, mi, mj = self.covering.pair_maps(i, j)
        return self.hopf.convolve(
            h_word,
            lambda v: mi.apply(gamma_i.apply_word(v)),
            lambda v: mj.apply(gamma_j_inv.apply_word(v)),
            target.system,
        )

    def transition_poly(self, i: int, j: int, h: NCPoly) -> NCPoly:
        target_sys = self.covering.pair_maps(i, j)[0].system
        return linear_image(h, lambda w: self.transition(i, j, w), target_sys.zero())


# ---------------------------------------------------------------------------
# reducibility criterion
# ---------------------------------------------------------------------------

def reducibility_check(triv: Trivialisation, J: HopfIdeal) -> list[CheckFailure]:
    """(a) T_ij(J) = 0 for all pairs; (b) J |>_i B_i = 0 with
    h |>_i b = gamma_i(h_(1)) b gamma_i(S(h_(2))).  Returns the witnesses;
    reducible when there are none.  The reduced pieces and descended
    H/J-cleavings this licenses are not built, as no report reads them.

    (a) is checked on the generators of J, which proves it for all of J when
    every pair target is commutative. That premise is checked first: a
    noncommutative target is the witness ``pair-target-commutative`` and
    means "not certified", not "obstructed". With a commutative target,
    T_ij is a convolution of algebra maps into a commutative algebra, so an
    algebra map (``Trivialisation.validate`` gives the rest), and an algebra
    map that kills the generators of J kills J.

    So T_ij = T o pi factors through pi: H -> H/J. Two corollaries, which
    the reports read from the witnesses of (a), the ones whose check is not
    ``action-annihilates-base``: let h lie in the left coinvariants
    D = {h : (pi (x) id) Delta h = 1 (x) h}. Applying T (x) id gives
    T_ij(h_(1)) (x) h_(2) = 1 (x) h, so
    - T_ij(h) = eps(h) 1, by the counit on the second leg;
    - pi^i_j(gamma_i(h)) = T_ij(h_(1)) pi^j_i(gamma_j(h_(2))) = pi^j_i(gamma_j(h)),
      as gamma_j o S is the convolution inverse of gamma_j: the
      trivialisations agree on D through the double quotients.
    The bounded word loop over both is the oracle
    ``bounded_coinvariant_compatibility`` in the tests."""
    H = triv.hopf
    witnesses: list[CheckFailure] = [
        CheckFailure("pair-target-commutative", f"({i},{j})", f"{pair.target.system.name} is not commutative")
        for (i, j), pair in triv.covering.pairs.items()
        if not pair.target.system.is_commutative()
    ]
    n = triv.covering.size
    for i, j in permutations(range(n), 2):
        for g_idx, g in enumerate(J.gens):
            img = triv.transition_poly(i, j, g)
            if not img.is_zero():
                witnesses.append(
                    CheckFailure("transition-annihilates-J", f"T_{i}{j}(gen[{g_idx}])", f"{img!r} != 0")
                )
    for i in range(n):
        piece = triv.covering.pieces[i]
        gamma, gamma_inv = triv.cleavings[i].j, triv.cleavings[i].j_inv
        psys = piece.comodule.system
        for g_idx, g in enumerate(J.gens):
            for b in piece.base_gens:
                bp = NCPoly.gen(psys.alphabet, b)
                acc = linear_image(
                    g,
                    lambda w: H.convolve(
                        w,
                        lambda v: psys.mul(gamma.apply_word(v), bp),
                        gamma_inv.apply_word,
                        psys,
                    ),
                    psys.zero(),
                )
                if not acc.is_zero():
                    witnesses.append(
                        CheckFailure(
                            "action-annihilates-base",
                            f"piece[{i}]: gen[{g_idx}] |> {b}",
                            f"{acc!r} != 0",
                        )
                    )
    return witnesses


# ---------------------------------------------------------------------------
# cotensor membership and prolongation
# ---------------------------------------------------------------------------

def cotensor_membership(
    t: Tensor,
    right_coact: Callable[[Word], Tensor],
    left_coact: Callable[[Word], Tensor],
) -> bool:
    """t in M box N iff (Delta_M (x) id)(t) = (id (x) {}_N Delta)(t)."""
    lhs = t.expand_leg(0, right_coact)
    rhs = t.expand_leg(1, left_coact)
    return lhs == rhs


@dataclass
class Prolongation:
    trivialisation: Trivialisation
    fiber_names: dict[str, str]
    dictionaries: list[LinearMap]  # Pbar_i box H -> Pbar_i (x) H, one per piece
    report: list[CheckFailure] = field(default_factory=list)


def prolong(
    base_triv: Trivialisation,
    pi: LinearMap,
    H: HopfAlgebra,
    fiber_names: dict[str, str],
) -> Prolongation:
    """Prolongation along a Hopf surjection pi: H -> Hbar, an algebra map
    that sends some generator of H to each generator of Hbar (else
    NotSurjectiveError);
    ``hopf_map_problems(pi, H, Hbar)`` heads the report. Presents each
    cotensor piece Pbar_i box H as the tensor product
    (``smash_product``, trivial action) of the rules among its base
    generators with H, whose letters, named by ``fiber_names``, are the
    fiber generators U_z = gammabar_i(pi(z_(1))) (x) z_(2), and each double
    quotient likewise from the base pair target. It certifies the fiber
    generators by cotensor membership and the dictionary (the algebra map
    sending U_z to its cotensor and each base generator b to b (x) 1) on
    every defining relation of Pbar_i box H (``RewriteSystem.relations``:
    rules, centrality pairs, the fiber's suffix relations), and installs the
    prolonged covering maps so transition functions can be computed.

    Each distinct face (comodule, base generators, cleaving), pair target
    and pair map is prolonged once, and pieces and pairs that share one
    share its prolongation; a face's certificate failures are reported once
    for each piece index that holds it.
    """
    Hbar = base_triv.hopf
    # surjectivity of pi: every Hbar-generator is the image of a generator
    images = {pi.apply_word((z,)) for z in H.system.alphabet.gens}
    for g in Hbar.system.alphabet.gens:
        if Hbar.system.normal_form(Hbar.system.gen(g)) not in images:
            raise NotSurjectiveError(f"no generator-level preimage of {g} under {pi.name}")

    def fiber_word(w: Word) -> Word:
        return tuple(fiber_names[z] for z in w)

    @functools.cache
    def prolong_face(comodule: ComoduleAlgebra, bgens: tuple[str, ...], cleaving: CleavingMap):
        """Pbar box H for one distinct face: its piece, cleaving, dictionary
        and certificate failures, each ``where`` without the piece index."""
        gbar = cleaving.j
        bsys = comodule.system
        failures: list[CheckFailure] = []
        # declared presentation of Pbar box H: the rules among base generators
        # (as letters with no central markers) tensored with H
        bset = set(bgens)
        sub = RewriteSystem(
            Alphabet(bgens),
            [
                (r.lhs_word, r.rhs)
                for r in bsys.rules
                if all(g in bset for g in r.lhs_word) and all(all(g in bset for g in w) for w in r.rhs.terms)
            ],
            name=bsys.name,
        )
        prolonged = smash_product(sub, H, name=f"{bsys.name} box {H.name}", fiber_names=fiber_names)
        psys = prolonged.system
        # fiber dictionary U_z -> gammabar(pi(z1)) (x) z2 and its certificates
        dct: dict[str, Tensor] = {}
        for z in H.system.alphabet.gens:
            t = H.delta_word((z,)).map_leg(
                0, lambda w: gbar.apply(pi.apply_word(w)), codomain=bsys
            )
            dct[fiber_names[z]] = t
            ok = cotensor_membership(
                t,
                comodule.coact_word,
                lambda w: H.delta_word(w).map_leg(0, pi.apply_word, codomain=Hbar.system),
            )
            if not ok:
                failures.append(CheckFailure("cotensor-membership", f"fiber {z}", f"{t!r}"))
        # relations imported: the dictionary, an algebra map into Pbar (x) H,
        # must respect every defining relation of the declared presentation
        dmap = LinearMap(
            f"dict[{bsys.name}]",
            psys,
            TensorSpace((bsys, H.system)),
            gen_images={
                **{b: Tensor.of((bsys, H.system), bsys.gen(b), H.system.one()) for b in bgens},
                **dct,
            },
            check=False,
        )
        for w, p, lhs_t, rhs_t in dmap.mismatches():
            failures.append(
                CheckFailure("imported-relation", f"rule {word_str(w)} -> {p!r}", f"{lhs_t!r} != {rhs_t!r}")
            )
        return CoveringPiece(prolonged, bgens), prolonged.cleaving(), dmap, failures

    # prolonged double quotients: base pair target extended by the same fiber;
    # every old-target generator sits in the base leg, hence is coinvariant
    @functools.cache
    def prolong_target(target: ComoduleAlgebra) -> ComoduleAlgebra:
        tsys = target.system
        return smash_product(tsys, H, name=f"{tsys.name} box {H.name}", fiber_names=fiber_names)

    @functools.cache
    def prolong_map(base_map: LinearMap, face: tuple, target: ComoduleAlgebra) -> LinearMap:
        """base_map box id, from the prolonged face into the prolonged target."""
        piece = prolong_face(*face)[0]
        qsys = prolong_target(target).system
        alpha = qsys.alphabet
        images = {b: NCPoly(alpha, dict(base_map.apply_word((b,)).terms)) for b in piece.base_gens}
        gbar = face[2].j

        def fiber_image(k: tuple[Word, Word]) -> NCPoly:
            # pi^i_j(gammabar(pi(z_(1)))) z_(2)'
            bar_img = base_map.apply(gbar.apply(pi.apply_word(k[0])))
            return qsys.normal_form(
                NCPoly(alpha, {bw + fiber_word(k[1]): c for bw, c in bar_img.terms.items()})
            )

        for z in H.system.alphabet.gens:
            images[fiber_names[z]] = linear_image(H.delta_word((z,)), fiber_image, qsys.zero())
        return gens_map(f"{base_map.name} box id", piece.comodule.system, qsys, images, check=True)

    faces = [
        (piece.comodule, tuple(piece.base_gens), cl)
        for piece, cl in zip(base_triv.covering.pieces, base_triv.cleavings, strict=True)
    ]
    built = [prolong_face(*face) for face in faces]
    report = hopf_map_problems(pi, H, Hbar)
    report += [CheckFailure(f.check, f"piece[{i}] {f.where}", f.detail) for i, b in enumerate(built) for f in b[3]]
    pieces, cleavings, dictionaries, _ = zip(*built)
    pairs = {
        (i, j): PairData(
            prolong_target(pair.target),
            prolong_map(pair.map_i, faces[i], pair.target),
            prolong_map(pair.map_j, faces[j], pair.target),
        )
        for (i, j), pair in base_triv.covering.pairs.items()
    }
    covering = Covering(pieces, pairs, name=f"{base_triv.covering.name} box {H.name}")
    triv = Trivialisation(covering, H, cleavings, name=f"prolong({base_triv.name})")
    return Prolongation(triv, fiber_names, list(dictionaries), report)


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

def piece_glue(
    triv: Trivialisation, base_tuple: Sequence[NCPoly], fiber: NCPoly
) -> list[NCPoly]:
    """The tuple (b_i gamma_i(fiber))_i, one entry per piece (else a
    ValueError).  It glues when ``pair_differences`` yields nothing."""
    return [
        piece.comodule.system.mul(b, cl.j.apply(fiber))
        for piece, cl, b in zip(triv.covering.pieces, triv.cleavings, base_tuple, strict=True)
    ]
