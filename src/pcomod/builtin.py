"""Ready-made algebra zoo: the group algebra of Z2, Laurent polynomials on U(1),
the quantum SU(2) and GL(2)/SL(2) coordinate rings, the quantum plane with its
GL_q(2) action, Toeplitz *-polynomials with their Z2-coaction, smash-product
pieces, and the end-to-end frame-bundle obstruction computation.

Every q-taking builder parses its presentation at that q: at a fixed q the
parser reads `Q` as the value itself, so every table holds constant scalars.

Each builder builds its object once per process and returns that same object
on every later call; q-taking builders, the Hopf ideals ``gl_mod_det_ideal``
and ``su_gamma_ideal`` among them, are memoised on ``q_value(q)``, so 3 and
GaussRat(3) share one object.  They
build at formal q or at an exact value, never at 'cbrt1': only
``frame_bundle_obstruction`` takes that mode, building at formal q and
reducing modulo q^2 + q + 1.  A structure of repeated parts holds each part
once: the sphere's three faces are one piece with one cleaving, and its
three pairs one edge with its two maps.  Outputs are
shared and read-only by contract: a caller that wants a changed table or map
copies it first (``dict(table)``, ``dataclasses.replace``) and builds its own
object from the copy."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .comodule import (
    CleavingMap,
    ComoduleAlgebra,
    SmashProduct,
    StrongConnection,
    over_quotient,
    smash_product,
)
from .exprs import load_presentation, parse_poly, parse_tensor_terms
from .hopf import CheckFailure, HopfAlgebra, HopfIdeal
from .maps import LinearMap, gens_map
from .ncpoly import Alphabet, NCPoly, word_str
from .rewrite import RewriteSystem
from .scalars import CUBE_ROOT_MINPOLY, GaussRat, Scalar
from .tensors import Tensor


class UnknownNameError(KeyError):
    pass


def nearest_match_hint(name: str, choices) -> str:
    """"; nearest match: X" for the closest of ``choices`` to ``name``, or ""."""
    import difflib  # only an unknown name needs it, so start-up skips it

    near = difflib.get_close_matches(name, choices, n=1)
    return f"; nearest match: {near[0]}" if near else ""


class QValueError(ValueError):
    pass


# ---------------------------------------------------------------------------
# presentation documents (the JSON schema is the source of truth)
# ---------------------------------------------------------------------------

PRESENTATIONS: dict[str, dict] = {
    "c_z2": {
        "name": "c_z2",
        "generators": ["u"],
        "precedence": ["u"],
        "scalar_tower": "Q",
        "relations": ["u*u = 1"],
        "star": {"u": "u"},
        "hopf": {
            "delta": {"u": "u # u"},
            "counit": {"u": "1"},
            "antipode": {"u": "u"},
            "antipode_inv": {"u": "u"},
        },
    },
    "o_u1": {
        "name": "o_u1",
        "generators": ["u", "ui"],
        "precedence": ["u", "ui"],
        "central": ["u", "ui"],
        "scalar_tower": "Q",
        "relations": ["u*ui = 1", "ui*u = 1"],
        "star": {"u": "ui", "ui": "u"},
        "hopf": {
            "delta": {"u": "u # u", "ui": "ui # ui"},
            "counit": {"u": "1", "ui": "1"},
            "antipode": {"u": "ui", "ui": "u"},
            "antipode_inv": {"u": "ui", "ui": "u"},
        },
    },
    "su_q2": {
        # generators: g = gamma, gs = gamma^*, a = alpha, as = alpha^*
        "name": "su_q2",
        "generators": ["a", "as", "g", "gs"],
        "precedence": ["g", "gs", "a", "as"],
        "scalar_tower": "Q(i)(q)",
        "relations": [
            "a*g = Q*g*a",
            "a*gs = Q*gs*a",
            "gs*g = g*gs",
            "g*as = Q*as*g",
            "gs*as = Q*as*gs",
            "as*a + gs*g = 1",
            "a*as + Q^2*g*gs = 1",
        ],
        "star": {"a": "as", "as": "a", "g": "gs", "gs": "g"},
        "hopf": {
            "delta": {
                "a": "a # a - Q*(gs # g)",
                "as": "as # as - Q*(g # gs)",
                "g": "g # a + as # g",
                "gs": "gs # as + a # gs",
            },
            "counit": {"a": "1", "as": "1", "g": "0", "gs": "0"},
            "antipode": {"a": "as", "as": "a", "g": "-Q*g", "gs": "-Q^-1*gs"},
            "antipode_inv": {"a": "as", "as": "a", "g": "-Q^-1*g", "gs": "-Q*gs"},
        },
    },
    "gl_q2": {
        "name": "gl_q2",
        "generators": ["a", "b", "c", "d", "Di"],
        "precedence": ["a", "b", "c", "d", "Di"],
        "central": ["Di"],
        "scalar_tower": "Q(i)(q)",
        "relations": [
            "a*b = Q*b*a",
            "a*c = Q*c*a",
            "b*d = Q*d*b",
            "c*d = Q*d*c",
            "b*c = c*b",
            "Q*a*d = Q*d*a + (Q^2 - 1)*b*c",
            "(a*d - Q*b*c)*Di = 1",
            "Di*(a*d - Q*b*c) = 1",
        ],
        "hopf": {
            "delta": {
                "a": "a # a + b # c",
                "b": "a # b + b # d",
                "c": "c # a + d # c",
                "d": "c # b + d # d",
                "Di": "Di # Di",
            },
            "counit": {"a": "1", "b": "0", "c": "0", "d": "1", "Di": "1"},
            "antipode": {
                "a": "d*Di",
                "b": "-Q^-1*b*Di",
                "c": "-Q*c*Di",
                "d": "a*Di",
                "Di": "a*d - Q*b*c",
            },
            "antipode_inv": {
                "a": "d*Di",
                "b": "-Q*b*Di",
                "c": "-Q^-1*c*Di",
                "d": "a*Di",
                "Di": "a*d - Q*b*c",
            },
        },
    },
    "sl_q2": {
        "name": "sl_q2",
        "generators": ["a", "b", "c", "d"],
        "precedence": ["a", "b", "c", "d"],
        "scalar_tower": "Q(i)(q)",
        "relations": [
            "a*b = Q*b*a",
            "a*c = Q*c*a",
            "b*d = Q*d*b",
            "c*d = Q*d*c",
            "b*c = c*b",
            "Q*a*d = Q*d*a + (Q^2 - 1)*b*c",
            "a*d - Q*b*c = 1",
        ],
        "hopf": {
            "delta": {
                "a": "a # a + b # c",
                "b": "a # b + b # d",
                "c": "c # a + d # c",
                "d": "c # b + d # d",
            },
            "counit": {"a": "1", "b": "0", "c": "0", "d": "1"},
            "antipode": {"a": "d", "b": "-Q^-1*b", "c": "-Q*c", "d": "a"},
            "antipode_inv": {"a": "d", "b": "-Q*b", "c": "-Q^-1*c", "d": "a"},
        },
    },
    "quantum_plane": {
        "name": "quantum_plane",
        "generators": ["x", "y"],
        "precedence": ["x", "y"],
        "scalar_tower": "Q(i)(q)",
        "relations": ["x*y = Q*y*x"],
    },
    "toeplitz": {
        "name": "toeplitz",
        "generators": ["s", "ss"],
        "precedence": ["s", "ss"],
        "scalar_tower": "Q(i)",
        "relations": ["ss*s = 1"],
        "star": {"s": "ss", "ss": "s"},
        "coaction": {"s": "s # u", "ss": "ss # u"},
    },
    "pw_patch": {
        # Peter-Weyl patch avatar: t a disc coordinate, w = class of (omega a),
        # a unitary generator
        "name": "pw_patch",
        "generators": ["t", "w", "wi"],
        "precedence": ["t", "w", "wi"],
        "central": ["t", "w", "wi"],
        "scalar_tower": "Q(i)",
        "relations": ["w*wi = 1", "wi*w = 1"],
        "star": {"t": "t", "w": "wi", "wi": "w"},
        "coaction": {"t": "t # 1", "w": "w # u", "wi": "wi # ui"},
        "cleaving": {"u": "w", "ui": "wi"},
    },
}

#: GL_q(2) action on the quantum plane (H-generator, B-generator) -> expression
PLANE_ACTION: dict[str, str] = {
    "a,x": "Q^-2*x",
    "b,x": "0",
    "c,x": "(Q^-2 - 1)*y",
    "d,x": "Q^-1*x",
    "Di,x": "Q^3*x",
    "a,y": "Q^-1*y",
    "b,y": "0",
    "c,y": "0",
    "d,y": "Q^-2*y",
    "Di,y": "Q^3*y",
}


# ---------------------------------------------------------------------------
# q specialization
# ---------------------------------------------------------------------------

def q_value(q) -> GaussRat | None:
    """None for formal q, an exact Gaussian rational for a nonzero number;
    q = 0 and any other value, 'cbrt1' among them, raise QValueError."""
    if q in ("formal", None):
        return None
    if isinstance(q, GaussRat):
        v = q
    elif isinstance(q, (int, Fraction)):
        v = GaussRat(q)
    else:
        raise QValueError(f"unsupported q specialization {q!r}")
    if not v:
        raise QValueError("q = 0 is not allowed")
    return v


def _memo_by_q(builder):
    """Memoise a q-taking builder on ``q_value(q)``; its body receives that
    value.  A q that ``q_value`` refuses (0, 'cbrt1') raises QValueError on
    every call, before the memo is read."""
    memo = functools.cache(builder)

    @functools.wraps(builder)
    def build_at(q="formal"):
        return memo(q_value(q))

    return build_at


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _hopf(name: str, q=None) -> HopfAlgebra:
    _, hopf = load_presentation(PRESENTATIONS[name], q_value(q))
    return hopf


@functools.cache
def c_z2() -> HopfAlgebra:
    return _hopf("c_z2")


@functools.cache
def o_u1() -> HopfAlgebra:
    return _hopf("o_u1")


@_memo_by_q
def su_q2(q="formal") -> HopfAlgebra:
    return _hopf("su_q2", q)


@_memo_by_q
def gl_q2(q="formal") -> HopfAlgebra:
    return _hopf("gl_q2", q)


@_memo_by_q
def sl_q2(q="formal") -> HopfAlgebra:
    return _hopf("sl_q2", q)


@_memo_by_q
def quantum_plane(q="formal") -> RewriteSystem:
    system, _ = load_presentation(PRESENTATIONS["quantum_plane"], q_value(q))
    return system


@functools.cache
def toeplitz_system() -> RewriteSystem:
    """The Toeplitz algebra's rewrite system."""
    system, _ = load_presentation(PRESENTATIONS["toeplitz"])
    return system


@functools.cache
def toeplitz_comodule() -> ComoduleAlgebra:
    """Toeplitz *-polynomials with the gauged coaction s -> s (x) u over C(Z2)."""
    system = toeplitz_system()
    H = c_z2()
    union = Alphabet(system.alphabet.gens + H.system.alphabet.gens)
    coaction = {}
    for g, e in PRESENTATIONS["toeplitz"]["coaction"].items():
        coaction[g] = Tensor((system, H.system), parse_tensor_terms(e, union, 2))
    return ComoduleAlgebra(system, H, coaction, name="toeplitz over c_z2")


@functools.cache
def o_u1_over_z2() -> ComoduleAlgebra:
    """O(U(1)) as a C(Z2)-comodule algebra along the parity surjection
    ``pi_u1_to_z2``: the coaction (id (x) pi) o Delta sends u to u (x) u and
    ui to ui (x) u."""
    return over_quotient(pi_u1_to_z2(), o_u1(), c_z2())


@functools.cache
def pw_patch() -> tuple[ComoduleAlgebra, CleavingMap]:
    """Peter-Weyl patch avatar over O(U(1)) with its algebra-map cleaving."""
    doc = PRESENTATIONS["pw_patch"]
    system, _ = load_presentation(doc)
    H = o_u1()
    union = Alphabet(system.alphabet.gens + H.system.alphabet.gens)
    coaction = {
        g: Tensor((system, H.system), parse_tensor_terms(e, union, 2))
        for g, e in doc["coaction"].items()
    }
    P = ComoduleAlgebra(system, H, coaction, name="pw_patch over o_u1")
    j = gens_map(
        "gamma_patch",
        H.system,
        system,
        {g: parse_poly(e, system.alphabet) for g, e in doc["cleaving"].items()},
        check=True,
    )
    return P, CleavingMap(P, j)


@functools.cache
def toeplitz_z2_smash() -> SmashProduct:
    """The sphere building block T (x) C(Z2): smash with trivial action."""
    return smash_product(toeplitz_system(), c_z2(), name="toeplitz_z2_smash")


@functools.cache
def toeplitz_u1_smash() -> SmashProduct:
    """Prolonged building block T (x) O(U(1))."""
    return smash_product(toeplitz_system(), o_u1(), name="toeplitz_u1_smash")


@_memo_by_q
def plane_action_table(q="formal") -> dict[tuple[str, str], NCPoly]:
    al = quantum_plane(q).alphabet
    qv = q_value(q)
    return {tuple(key.split(",")): parse_poly(e, al, qv) for key, e in PLANE_ACTION.items()}


@_memo_by_q
def plane_gl_smash(q="formal") -> SmashProduct:
    """A(C^2_q) x| A(GL_q(2)) with the declared left action."""
    B = quantum_plane(q)
    H = gl_q2(q)
    return smash_product(B, H, plane_action_table(q), name="plane_gl_smash")


@_memo_by_q
def su_q2_to_u1_map(q="formal") -> LinearMap:
    """The surjection onto the circle: alpha -> u, gamma -> 0."""
    u1 = o_u1().system
    u, ui, zero = NCPoly.gen(u1.alphabet, "u"), NCPoly.gen(u1.alphabet, "ui"), u1.zero()
    return gens_map("pi_su_u1", su_q2(q).system, u1, {"a": u, "as": ui, "g": zero, "gs": zero}, check=True)


@functools.cache
def u1_mod_z2_ideal() -> HopfIdeal:
    """<u^2 - 1> in O(U(1)), saturated with ui - u (same two-sided ideal)."""
    H = o_u1()
    al = H.system.alphabet
    u = NCPoly.gen(al, "u")
    ui = NCPoly.gen(al, "ui")
    one = NCPoly.one(al)
    return HopfIdeal(H, [u.concat(u) - one, ui - u], name="<u^2-1>")


@_memo_by_q
def gl_mod_det_ideal(q="formal") -> HopfIdeal:
    """<D - 1> in O(GL_q(2)) at q, saturated with Di - 1 (same two-sided
    ideal); D = S(Di) = a*d - q*b*c."""
    H = gl_q2(q)
    al = H.system.alphabet
    D = H.antipode_table["Di"]
    Di = NCPoly.gen(al, "Di")
    one = NCPoly.one(al)
    return HopfIdeal(H, [D - one, Di - one], name="<D-1>")


@functools.cache
def u1_mod_z2_connection() -> StrongConnection:
    """O(U(1)) over its quotient C[Z/2] by ``u1_mod_z2_ideal``, with the
    one-step lift ell(h) = S(h_(1)) (x) h_(2) of each quotient word h, read
    as a word of O(U(1)). ``verify_strong_connection`` checks it at bound 1,
    which covers every element: the quotient has no irreducible word of
    degree 2 (a premise its record checks), so its basis is {1, u}."""
    H = o_u1()
    Hbar, pi = u1_mod_z2_ideal().quotient
    return StrongConnection(over_quotient(pi, H, Hbar), lambda w: H.delta_word(w).map_leg(0, H.S.apply_word))


@_memo_by_q
def gl_mod_det_cleaving(q="formal") -> CleavingMap:
    """O(GL_q(2)) over its quotient SL_q(2) by ``gl_mod_det_ideal``, with the
    cleaving j: a -> Di*a, b -> Di*b, c -> c, d -> d, Di -> 1 (Di = D^-1,
    D = a*d - q*b*c). Cleft implies principal (``StrongConnection.from_cleaving``),
    so ``check_axioms`` and ``CleavingMap.verify`` certify the pair in every degree.

    j is well defined (``gens_map`` checks each relation of the quotient,
    which follow from those of GL_q(2) and D = Di = 1). Each relation of
    GL_q(2) but the determinant ones is homogeneous in the first-row letters
    a, b: each of its words holds the same number k of them. Di is central,
    so j sends such a relation to Di^k times itself, which is 0. Each word of
    D holds one of a, b, so j(D) = Di*D = 1; and j(Di) = 1. So D = Di = 1,
    D*Di = 1 and the centrality of Di go to true relations.

    j is colinear: as pi(Di) = 1, rho(Di*a) = Di*a (x) a + Di*b (x) c =
    (j (x) id) Delta(a), likewise at b; at c, d and Di both sides agree as
    j fixes c, d and sends Di to 1."""
    H = gl_q2(q)
    Hbar, pi = gl_mod_det_ideal(q).quotient
    table = {"a": "Di*a", "b": "Di*b", "c": "c", "d": "d", "Di": "1"}
    images = {g: parse_poly(e, H.system.alphabet) for g, e in table.items()}
    return CleavingMap(over_quotient(pi, H, Hbar), gens_map("j_gl_sl", Hbar.system, H.system, images, check=True))


@_memo_by_q
def su_gamma_ideal(q="formal") -> HopfIdeal:
    """The kernel <gamma, gamma*> in O(SU_q(2)) at q of the surjection onto
    the circle algebra."""
    H = su_q2(q)
    al = H.system.alphabet
    return HopfIdeal(H, [NCPoly.gen(al, "g"), NCPoly.gen(al, "gs")], name="<g,gs>")


@_memo_by_q
def patch_prolonged(q="formal"):
    """Prolongation of the Peter-Weyl patch trivialisation along the
    quantum-group surjection; the piece is the disc-times-SU_q(2) pattern."""
    from .pullback import Covering, CoveringPiece, Trivialisation, prolong

    P, cl = pw_patch()
    cov = Covering([CoveringPiece(P, base_gens=("t",))], {}, name="pw_patch_cover")
    triv = Trivialisation(cov, P.hopf, [cl], name="pw_patch_triv")
    return prolong(
        triv,
        su_q2_to_u1_map(q),
        su_q2(q),
        fiber_names={"a": "A", "as": "As", "g": "G", "gs": "Gs"},
    )


# ---------------------------------------------------------------------------
# the quantum-sphere covering (three Toeplitz-smash faces over C(Z2))
# ---------------------------------------------------------------------------

@functools.cache
def pi_u1_to_z2() -> LinearMap:
    """The parity surjection O(U(1)) -> C(Z2), u and u^-1 both to the order-2 generator."""
    H = o_u1()
    z2 = c_z2()
    al = z2.system.alphabet
    return gens_map(
        "pi_u1_z2",
        H.system,
        z2.system,
        {"u": NCPoly.gen(al, "u"), "ui": NCPoly.gen(al, "u")},
        check=True,
    )


@functools.cache
def _sphere_edge() -> SmashProduct:
    """Edge avatar for one face pair: two circle unitaries (untwisted and
    twisted symbol images) and the base Z2 coordinate v, tensored with
    C(Z2), whose letter is the fiber copy w."""
    gens = ("z", "zi", "z2", "z2i", "v")
    alpha = Alphabet(gens, central=gens)
    one = NCPoly.one(alpha)
    base = RewriteSystem(alpha, [(("z", "zi"), one), (("z2", "z2i"), one), (("v", "v"), one)])
    return smash_product(base, c_z2(), name="sphere_edge", fiber_names={"u": "w"})


@functools.cache
def sphere_covering():
    """The ungauged quantum-sphere trivialisation.  Its three faces are one
    piece, T (x) C(Z2) with its one cleaving, and its three pairs one edge
    pattern: the edge avatar, reached from the lower face by the untwisted
    map and from the higher face by the twisted one (the identity twisting
    choice, fiber image v*w)."""
    from .pullback import Covering, CoveringPiece, PairData, Trivialisation

    face = toeplitz_z2_smash()
    edge = _sphere_edge()
    z, zi, z2, z2i, w = (NCPoly.gen(edge.system.alphabet, g) for g in ("z", "zi", "z2", "z2i", "w"))
    vw = NCPoly.word(edge.system.alphabet, ("v", "w"))
    untwisted = gens_map("pi_untwisted", face.system, edge.system, {"s": z, "ss": zi, "u": w}, check=True)
    twisted = gens_map("pi_twisted", face.system, edge.system, {"s": z2, "ss": z2i, "u": vw}, check=True)
    pairs = dict.fromkeys(((0, 1), (0, 2), (1, 2)), PairData(edge, untwisted, twisted))
    cov = Covering([CoveringPiece(face, base_gens=("s", "ss"))] * 3, pairs, name="quantum_sphere_covering")
    return Trivialisation(cov, c_z2(), [face.cleaving()] * 3, name="quantum_sphere_trivialisation")


@functools.cache
def sphere_prolonged():
    """Prolongation of the sphere trivialisation to O(U(1)) along the parity
    surjection; the reduction back is the shipped instance of the criterion."""
    from .pullback import prolong

    return prolong(sphere_covering(), pi_u1_to_z2(), o_u1(), fiber_names={"u": "U", "ui": "Ui"})


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_BUILDERS = {
    "c_z2": lambda q: c_z2(),
    "o_u1": lambda q: o_u1(),
    "su_q2": su_q2,
    "gl_q2": gl_q2,
    "sl_q2": sl_q2,
    "quantum_plane": quantum_plane,
    "toeplitz": lambda q: toeplitz_comodule(),
    "o_u1_over_z2": lambda q: o_u1_over_z2(),
    "pw_patch": lambda q: pw_patch()[0],
    "toeplitz_z2_smash": lambda q: toeplitz_z2_smash(),
    "toeplitz_u1_smash": lambda q: toeplitz_u1_smash(),
    "plane_gl_smash": plane_gl_smash,
    "su_q2_to_u1": su_q2_to_u1_map,
}

HOPF_NAMES = ("c_z2", "o_u1", "su_q2", "gl_q2", "sl_q2")
COMODULE_NAMES = ("toeplitz", "o_u1_over_z2", "pw_patch", "toeplitz_z2_smash", "toeplitz_u1_smash", "plane_gl_smash")


def registry() -> list[str]:
    return sorted(_BUILDERS)


def build(name: str, q="formal"):
    builder = _BUILDERS.get(name)
    if builder is None:
        raise UnknownNameError(f"unknown builtin {name!r}{nearest_match_hint(name, _BUILDERS)}")
    return builder(q)


def export_presentation(name: str) -> dict:
    if name not in PRESENTATIONS:
        hint = nearest_match_hint(name, PRESENTATIONS)
        raise UnknownNameError(f"no presentation document for {name!r}{hint}")
    return dict(PRESENTATIONS[name])


# ---------------------------------------------------------------------------
# quantum-plane unit certificate
# ---------------------------------------------------------------------------

def quantum_plane_units_certificate(B: RewriteSystem) -> list[CheckFailure]:
    """Certify from its one rule that the only invertible elements of B are
    the nonzero scalars, in every degree.

    The premise, checked here: B has two noncentral generators x < y and
    exactly one rule, y*x -> c*x*y with c != 0.  Its normal forms are then the
    words x^a y^b, one in each bidegree (a, b).  Each reduction step sends a
    word to a nonzero multiple of one word with the same letters, so
    x^a y^b * x^e y^f is a nonzero multiple of x^(a+e) y^(b+f).  Order the
    bidegrees lexicographically: the top bidegree of a product p*r of nonzero
    elements is the sum of the factors' top bidegrees, with the product of
    their top coefficients times a power of c, which is not zero.  So p*r = 1
    forces both top bidegrees to be (0, 0): p and r are scalars.
    """
    al = B.alphabet
    if len(al.gens) != 2 or al.central:
        return [CheckFailure("units-premise", "generators", f"{al.gens} with central {sorted(al.central)}")]
    if len(B.rules) != 1:
        return [CheckFailure("units-premise", "rules", f"{len(B.rules)} rules, not one")]
    x, y = al.gens
    (rule,) = B.rules
    terms = rule.rhs.terms
    if rule.lhs_word != (y, x) or list(terms) != [(x, y)] or terms[(x, y)].is_zero():
        want = f"{y}*{x} -> c*{x}*{y} with c != 0"
        return [CheckFailure("units-premise", word_str(rule.lhs_word), f"rule {rule!r} is not {want}")]
    return []


# ---------------------------------------------------------------------------
# frame-bundle obstruction (end to end)
# ---------------------------------------------------------------------------

@dataclass
class ObstructionVerdict:
    mode: str
    obstruction: Scalar
    consistent: bool | None
    witness: str
    steps: list[str] = field(default_factory=list)
    failures: list[CheckFailure] = field(default_factory=list)


def frame_bundle_obstruction(q="formal") -> ObstructionVerdict:
    """Reducibility of the quantum-plane frame bundle to the SL_q(2) subgroup.

    Builds A(C^2_q) x| A(GL_q(2)) (verifying the action), certifies that the
    only units of the plane are scalars, and runs the unital-map constraint
    chain: theta(D^-1) theta(D) = 1 forces theta(D^-1) = mu, and the
    commutation rule at (D^-1, x) forces mu = q^3 mu.  Obstruction: q^3 - 1.
    The failed commutation rule is the one failure; there is none where it
    holds.  At q = 'cbrt1' the chain runs at formal q and the obstruction is
    reduced modulo q^2 + q + 1.
    """
    mode = q if isinstance(q, str) else repr(q)
    steps: list[str] = []
    smash = plane_gl_smash("formal" if q == "cbrt1" else q)
    steps.append("action well-defined: module-algebra axioms pass on all generator/relation pairs")
    fails = quantum_plane_units_certificate(smash.b_system)
    if fails:
        raise RuntimeError(f"units certificate failed: {fails[0]}")
    steps.append(
        "units certificate: the one rule y*x -> c*x*y with c != 0 keeps products of monomials "
        "monomial in every degree, so invertibles are scalars and theta(Di) = mu*1"
    )
    B = smash.b_system
    steps.append("anti-multiplicativity: theta(D Di) = theta(Di) theta(D) = theta(1) = 1, so mu is invertible")
    # commutation rule b*theta(k) = theta(k_(1)) (k_(2) |> b) at k = Di (group-like), b = x, mu = 1
    lhs = NCPoly.gen(B.alphabet, "x")  # x * theta(Di) with mu = 1
    rhs = smash.action.act(("Di",), ("x",))  # theta(Di) * (Di |> x)
    diff = B.normal_form(lhs - rhs)  # (1 - q^3) x
    obstruction = -diff.coeff(("x",))  # q^3 - 1
    failures = []
    if not diff.is_zero():
        detail = f"b theta(k) = {lhs!r} != theta(k1)(k2|>b) = {rhs!r}"
        failures.append(CheckFailure("theta-commutation", "(k=Di, b=x)", detail))
    if q == "cbrt1":
        consistent = obstruction.vanishes_mod(CUBE_ROOT_MINPOLY)
        steps.append("q a primitive cube root of 1: obstruction reduced modulo q^2 + q + 1")
    elif q_value(q) is None:
        consistent = None
        steps.append(f"formal parameter: obstruction polynomial {obstruction!r}")
    else:
        consistent = obstruction.is_zero()
    witness = "" if (consistent or diff.is_zero()) else f"mu*x - theta(Di)*(Di|>x) = {(-diff)!r} != 0"
    return ObstructionVerdict(mode, obstruction, consistent, witness, steps, failures)


# ---------------------------------------------------------------------------
# the quantum-group surjection checks
# ---------------------------------------------------------------------------

def su_q2_to_u1_checks(q="formal") -> list[CheckFailure]:
    """The checks of pi = ``su_q2_to_u1_map(q)`` that no other certificate
    makes (``prolong`` certifies pi a Hopf map): pi o * = * o pi on
    generators, hence everywhere, as both are antilinear anti-algebra maps;
    <gamma, gamma*> is a Hopf ideal; and pi kills its generators, hence it."""
    su, pi, J = su_q2(q), su_q2_to_u1_map(q), su_gamma_ideal(q)
    failures: list[CheckFailure] = []
    for g in su.system.alphabet.gens:
        star_then = pi.codomain.star(pi.apply_word((g,)))
        then_star = pi.apply(su.system.star(su.system.gen(g)))
        if star_then != then_star:
            failures.append(CheckFailure("surjection-star", g, f"{star_then!r} != {then_star!r}"))
    failures += J.validate()
    return failures + [
        CheckFailure("surjection-kills-ideal", f"gen[{i}]={g!r}", f"pi(g) = {pi.apply(g)!r}")
        for i, g in enumerate(J.gens)
        if not pi.apply(g).is_zero()
    ]
