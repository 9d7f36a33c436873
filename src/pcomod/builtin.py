"""Ready-made algebra zoo: the group algebra of Z2, Laurent polynomials on U(1),
the quantum SU(2) and GL(2)/SL(2) coordinate rings, the quantum plane with its
GL_q(2) action, Toeplitz *-polynomials with their Z2-coaction, smash-product
pieces, and the end-to-end frame-bundle obstruction computation.

Every q-taking builder parses its presentation at that q: at a fixed q the
parser reads `Q` as the value itself, so every table holds constant scalars.

Each builder builds its object once per process and returns that same object
on every later call; q-taking builders are memoised on ``q_value(q)``, so
'formal' and 'cbrt1' share one object, as do 3 and GaussRat(3).  Outputs are
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
    smash_product,
    verify_theta_properties,
)
from .exprs import load_presentation, parse_poly, parse_tensor_terms
from .hopf import CheckFailure, HopfAlgebra, HopfIdeal
from .maps import LinearMap, gens_map
from .ncpoly import Alphabet, NCPoly, word_str
from .rewrite import RewriteSystem
from .scalars import CUBE_ROOT_MINPOLY, GaussRat, S_ONE, Scalar
from .tensors import Tensor


class UnknownNameError(KeyError):
    pass


def nearest_match_hint(name: str, choices) -> str:
    """"; nearest match: X" for the closest of ``choices`` to ``name``, or ""."""
    import difflib  # only an unknown name needs it, so start-up skips it

    near = difflib.get_close_matches(name, choices, n=1)
    return f"; nearest match: {near[0]}" if near else ""


class QZeroError(ValueError):
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
    """None for the formal modes ('formal'/'cbrt1'), else an exact Gaussian rational."""
    if q in ("formal", "cbrt1", None):
        return None
    if isinstance(q, GaussRat):
        v = q
    elif isinstance(q, (int, Fraction)):
        v = GaussRat(q)
    else:
        raise QZeroError(f"unsupported q specialization {q!r}")
    if not v:
        raise QZeroError("q = 0 is not allowed")
    return v


def _memo_by_q(builder):
    """Memoise a q-taking builder on ``q_value(q)``; its body receives that
    value.  q = 0 raises QZeroError on every call, before the memo is read."""
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
    """O(U(1)) as a C(Z2)-comodule algebra via the parity surjection."""
    system = o_u1().system
    H = c_z2()
    Ts = (system, H.system)
    coaction = {
        "u": Tensor(Ts, {(("u",), ("u",)): S_ONE}),
        "ui": Tensor(Ts, {(("ui",), ("u",)): S_ONE}),
    }
    return ComoduleAlgebra(system, H, coaction, name="o_u1 over c_z2")


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


def trivial_action(H: HopfAlgebra, B: RewriteSystem) -> dict[tuple[str, str], NCPoly]:
    table = {}
    for z in H.system.alphabet.gens:
        for b in B.alphabet.gens:
            table[(z, b)] = NCPoly.gen(B.alphabet, b).scale(H.counit_table[z])
    return table


@functools.cache
def toeplitz_z2_smash() -> SmashProduct:
    """The sphere building block T (x) C(Z2): smash with trivial action."""
    B = toeplitz_system()
    H = c_z2()
    return smash_product(B, H, trivial_action(H, B), name="toeplitz_z2_smash", h_central=True)


@functools.cache
def toeplitz_u1_smash() -> SmashProduct:
    """Prolonged building block T (x) O(U(1))."""
    B = toeplitz_system()
    H = o_u1()
    return smash_product(B, H, trivial_action(H, B), name="toeplitz_u1_smash", h_central=True)


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


def _su_u1_images(al: Alphabet) -> dict[str, NCPoly]:
    """The surjection onto the circle on generators: alpha -> u, gamma -> 0."""
    return {
        "a": NCPoly.gen(al, "u"),
        "as": NCPoly.gen(al, "ui"),
        "g": NCPoly.zero(al),
        "gs": NCPoly.zero(al),
    }


@_memo_by_q
def su_q2_to_u1_map(q="formal") -> LinearMap:
    su = su_q2(q)
    u1 = o_u1()
    return gens_map("pi_su_u1", su.system, u1.system, _su_u1_images(u1.system.alphabet), check=True)


def u1_mod_z2_ideal(H: HopfAlgebra | None = None) -> HopfIdeal:
    """<u^2 - 1> in O(U(1)), saturated with ui - u (same two-sided ideal)."""
    H = H or o_u1()
    al = H.system.alphabet
    u = NCPoly.gen(al, "u")
    ui = NCPoly.gen(al, "ui")
    one = NCPoly.one(al)
    return HopfIdeal(H, [u.concat(u) - one, ui - u], name="<u^2-1>")


def gl_mod_det_ideal(H: HopfAlgebra | None = None) -> HopfIdeal:
    """<D - 1> in O(GL_q(2)), saturated with Di - 1 (same two-sided ideal);
    D = S(Di) = a*d - q*b*c at the q that H was built at."""
    H = H or gl_q2()
    al = H.system.alphabet
    D = H.antipode_table["Di"]
    Di = NCPoly.gen(al, "Di")
    one = NCPoly.one(al)
    return HopfIdeal(H, [D - one, Di - one], name="<D-1>")


def su_gamma_ideal(H: HopfAlgebra | None = None) -> HopfIdeal:
    """The kernel <gamma, gamma*> of the surjection onto the circle algebra."""
    H = H or su_q2()
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
        preimages={"u": ("a",), "ui": ("as",)},
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
def _sphere_edge() -> "ComoduleAlgebra":
    """Edge avatar for one face pair: two circle unitaries (untwisted and
    twisted symbol images), the base Z2 coordinate v, and the fiber copy w."""
    gens = ("z", "zi", "z2", "z2i", "v", "w")
    alpha = Alphabet(gens, central=gens)
    one = NCPoly.one(alpha)

    def word(*w):
        return NCPoly.word(alpha, tuple(w))

    rules = [
        (("z", "zi"), one),
        (("z2", "z2i"), one),
        (("v", "v"), one),
        (("w", "w"), one),
    ]
    sys = RewriteSystem(alpha, rules, name="sphere_edge", scalar_tower="Q(i)")
    H = c_z2()
    Ts = (sys, H.system)
    coaction = {g: Tensor(Ts, {((g,), ()): S_ONE}) for g in ("z", "zi", "z2", "z2i", "v")}
    coaction["w"] = Tensor(Ts, {(("w",), ("u",)): S_ONE})
    return ComoduleAlgebra(sys, H, coaction, name="sphere_edge over c_z2")


@functools.cache
def sphere_covering():
    """The ungauged quantum-sphere trivialisation: three T (x) C(Z2) faces,
    pairwise glued through edge avatars with the identity twisting choice
    (fiber image v*w on the twisted side)."""
    from .pullback import Covering, CoveringPiece, PairData, Trivialisation

    H = c_z2()
    pieces = []
    cleavings = []
    piece_objs = []
    for i in range(3):
        sm = toeplitz_z2_smash()
        piece_objs.append(sm)
        pieces.append(CoveringPiece(sm, base_gens=("s", "ss")))
        cleavings.append(sm.cleaving())
    pairs = {}
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        edge = _sphere_edge()
        al = edge.system.alphabet
        untwisted = {
            "s": NCPoly.gen(al, "z"),
            "ss": NCPoly.gen(al, "zi"),
            "u": NCPoly.gen(al, "w"),
        }
        twisted = {
            "s": NCPoly.gen(al, "z2"),
            "ss": NCPoly.gen(al, "z2i"),
            "u": NCPoly.word(al, ("v", "w")),
        }
        pairs[(i, j)] = PairData(
            edge,
            gens_map(f"pi^{i}_{j}", piece_objs[i].system, edge.system, untwisted, check=True),
            gens_map(f"pi^{j}_{i}", piece_objs[j].system, edge.system, twisted, check=True),
        )
    cov = Covering(pieces, pairs, name="quantum_sphere_covering")
    return Trivialisation(cov, H, cleavings, name="quantum_sphere_trivialisation")


@functools.cache
def sphere_prolonged():
    """Prolongation of the sphere trivialisation to O(U(1)) along the parity
    surjection; the reduction back is the shipped instance of the criterion."""
    from .pullback import prolong

    return prolong(
        sphere_covering(),
        pi_u1_to_z2(),
        o_u1(),
        fiber_names={"u": "U", "ui": "Ui"},
        preimages={"u": ("u",)},
    )


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
    "pw_patch": lambda q: pw_patch(),
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

@dataclass
class UnitsCertificate:
    max_degree: int
    pairs_checked: int
    ok: bool
    detail: str = ""


def quantum_plane_units_certificate(B: RewriteSystem, max_degree: int = 6) -> UnitsCertificate:
    """Desk-scale certificate that the only invertible elements are scalars.

    Checks that the product of any two basis monomials up to the bound is a
    single nonzero monomial whose bidegree is the sum of the factors'.  Since
    the lexicographically largest bidegree of a product is then the sum of
    the factors' largest bidegrees with nonzero coefficient, a product p*r of
    nonzero elements with deg p >= 1 can never collapse to a scalar, so no
    element of positive degree has an inverse of degree <= the bound.
    """
    basis = B.basis_words(max_degree)
    pairs = 0
    for w1 in basis:
        for w2 in basis:
            if not w1 and not w2:
                continue
            if len(w1) + len(w2) > max_degree:
                continue
            pairs += 1
            prod = B.mul(NCPoly.word(B.alphabet, w1), NCPoly.word(B.alphabet, w2))
            if len(prod.terms) != 1:
                return UnitsCertificate(max_degree, pairs, False, f"{word_str(w1)}*{word_str(w2)} not monomial")
            (w, c), = prod.terms.items()
            if c.is_zero():
                return UnitsCertificate(max_degree, pairs, False, f"{word_str(w1)}*{word_str(w2)} vanishes")
            bidg = lambda ww: (sum(1 for g in ww if g == "x"), sum(1 for g in ww if g == "y"))
            if bidg(w) != tuple(a + b for a, b in zip(bidg(w1), bidg(w2))):
                return UnitsCertificate(max_degree, pairs, False, f"bidegree drop at {word_str(w1)}*{word_str(w2)}")
    return UnitsCertificate(max_degree, pairs, True)


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
    """
    mode = q if isinstance(q, str) else repr(q)
    steps: list[str] = []
    smash = plane_gl_smash(q)
    steps.append("action well-defined: module-algebra axioms pass on all generator/relation pairs")
    cert = quantum_plane_units_certificate(smash.b_system, 6)
    if not cert.ok:
        raise RuntimeError(f"units certificate failed: {cert.detail}")
    steps.append(
        f"units certificate: {cert.pairs_checked} monomial products up to degree {cert.max_degree} "
        "stay monomial, so invertibles are scalars and theta(Di) = mu*1"
    )
    H = smash.hopf
    B = smash.b_system
    al = H.system.alphabet
    D = H.antipode_table["Di"]  # a*d - q*b*c
    steps.append("anti-multiplicativity: theta(D Di) = theta(Di) theta(D) = theta(1) = 1, so mu is invertible")
    # commutation rule b*theta(k) = theta(k_(1)) (k_(2) |> b) at k = Di (group-like), b = x, mu = 1
    x = NCPoly.gen(B.alphabet, "x")
    lhs = x  # x * theta(Di) with mu = 1
    rhs = smash.action.act(("Di",), ("x",))  # theta(Di) * (Di |> x)
    diff = B.normal_form(lhs - rhs)  # (1 - q^3) x
    coeff = diff.coeff(("x",))
    obstruction = -coeff  # q^3 - 1
    # the same failure through the generic theta machinery, for the report;
    # theta(Di^n) = mu^n with mu = 1 wlog is the counit-based candidate
    theta = gens_map(
        "theta_mu1",
        H.system,
        B,
        {g: NCPoly.const(B.alphabet, H.counit_table[g]) for g in al.gens},
        check=False,
    )
    dpolys = [NCPoly.word(al, ("Di",)), D]
    failures = verify_theta_properties(theta, smash, dpolys)
    if q_value(q) is not None:
        consistent = obstruction.is_zero()
    elif q == "cbrt1":
        consistent = obstruction.vanishes_mod(CUBE_ROOT_MINPOLY)
        steps.append("q a primitive cube root of 1: obstruction reduced modulo q^2 + q + 1")
    else:
        consistent = None
        steps.append(f"formal parameter: obstruction polynomial {obstruction!r}")
    witness = "" if (consistent or diff.is_zero()) else f"mu*x - theta(Di)*(Di|>x) = {(-diff)!r} != 0"
    return ObstructionVerdict(mode, obstruction, consistent, witness, steps, failures)


# ---------------------------------------------------------------------------
# the quantum-group surjection checks
# ---------------------------------------------------------------------------

def su_q2_to_u1_checks(q="formal") -> list[CheckFailure]:
    """pi(alpha) = u, pi(gamma) = 0: well-defined, a *-coalgebra map, kills <gamma, gamma*>."""
    su = su_q2(q)
    u1 = o_u1()
    failures: list[CheckFailure] = []
    pi = gens_map("pi_su_u1", su.system, u1.system, _su_u1_images(u1.system.alphabet), check=False)
    for msg in pi.rule_compatibility_problems():
        failures.append(CheckFailure("surjection-well-defined", "relations", msg))
    for g in su.system.alphabet.gens:
        lhs = (
            su.delta_word((g,))
            .map_leg(0, pi.apply_word, codomain=u1.system)
            .map_leg(1, pi.apply_word, codomain=u1.system)
        )
        rhs = u1.delta(pi.apply_word((g,)))
        if lhs != rhs:
            failures.append(CheckFailure("surjection-coalgebra", g, f"{lhs!r} != {rhs!r}"))
        if su.counit_table[g] != u1.counit(pi.apply_word((g,))):
            failures.append(CheckFailure("surjection-counit", g, ""))
        star_then = u1.system.star(pi.apply_word((g,)))
        then_star = pi.apply(su.system.star(NCPoly.gen(su.system.alphabet, g)))
        if star_then != then_star:
            failures.append(CheckFailure("surjection-star", g, f"{star_then!r} != {then_star!r}"))
    failures.extend(su_gamma_ideal(su).validate())
    for g in ("g", "gs"):
        if not pi.apply_word((g,)).is_zero():
            failures.append(CheckFailure("surjection-kills-ideal", g, f"pi({g}) != 0"))
    return failures
