"""Negative controls: deliberately corrupted structure tables, each of which
must be caught by the standard verifiers with a localized witness."""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable

import numpy as np

from . import builtin
from .comodule import (
    CleavingMap,
    ComoduleAlgebra,
    NotModuleAlgebraError,
    StrongConnection,
    smash_product,
    verify_strong_connection,
)
from .hopf import HopfAlgebra, HopfIdeal, check_hopf_axioms
from .maps import NotWellDefinedError, gens_map
from .ncpoly import NCPoly
from .pullback import Covering, pair_differences
from .scalars import S_ONE, Scalar
from .tensors import Tensor


class Mutant:
    def __init__(
        self,
        name: str,
        suite: str,
        detect: Callable[[], list[str]],
        table: Callable[[], HopfAlgebra | ComoduleAlgebra] | None = None,
    ):
        self.name = name
        self.suite = suite
        self.detect = detect  # returns nonempty witness list iff caught
        self.table = table  # builds the corrupted structure an axiom check rejects


def _axiom_mutant(name: str, suite: str, table: Callable[[], HopfAlgebra | ComoduleAlgebra]) -> Mutant:
    """A corrupted Hopf or comodule table, caught by its suite's axiom check."""
    check = check_hopf_axioms if suite == "hopf-axioms" else ComoduleAlgebra.check_axioms
    return Mutant(name, suite, lambda: _witnesses(check(table())), table)


def _cleaving_mutant(name: str, suite: str, cleaving: Callable[[], CleavingMap]) -> Mutant:
    """A corrupted cleaving, caught by its generator certificate."""
    return Mutant(name, suite, lambda: _witnesses(cleaving().verify()))


def _witnesses(failures) -> list[str]:
    return [f"{f.check} @ {f.where}" for f in failures]


# -- hopf-axioms mutants -----------------------------------------------------

def _z2_delta_u_x_1() -> HopfAlgebra:
    H = builtin.c_z2()
    return HopfAlgebra(
        H.system,
        {"u": Tensor((H.system, H.system), {(("u",), ()): S_ONE})},
        dict(H.counit_table),
        dict(H.antipode_table),
        dict(H.antipode_inv_table),
        name="c_z2/corrupt-delta",
    )


def _su_antipode_sign() -> HopfAlgebra:
    H = builtin.su_q2()
    anti = dict(H.antipode_table)
    anti["g"] = -anti["g"]  # S(gamma) = +q gamma instead of -q gamma
    return HopfAlgebra(H.system, dict(H.delta_table), dict(H.counit_table), anti,
                       dict(H.antipode_inv_table), name="su_q2/corrupt-S")


def _gl_counit_zero() -> HopfAlgebra:
    H = builtin.gl_q2()
    eps = dict(H.counit_table)
    eps["a"] = Scalar.of(0)
    return HopfAlgebra(H.system, dict(H.delta_table), eps, dict(H.antipode_table),
                       dict(H.antipode_inv_table), name="gl_q2/corrupt-eps")


# -- comodule-axioms mutants ---------------------------------------------------

def _toeplitz_coaction_degree_drop() -> ComoduleAlgebra:
    T = builtin.toeplitz_comodule()
    coact = dict(T.coaction_table)
    coact["ss"] = Tensor((T.system, T.hopf.system), {(("ss",), ()): S_ONE})
    return ComoduleAlgebra(T.system, T.hopf, coact, name="toeplitz/corrupt-coaction")


def _smash_coaction_flip_table() -> ComoduleAlgebra:
    sm = builtin.toeplitz_z2_smash()
    coact = dict(sm.coaction_table)
    coact["u"] = Tensor((sm.system, sm.hopf.system), {(("u",), ()): S_ONE})
    return ComoduleAlgebra(sm.system, sm.hopf, coact, name="smash/corrupt-coaction")


def _smash_coaction_flip() -> list[str]:
    """Trivializing the fiber coaction is formally consistent but breaks the
    smash-product invariant: a group-like fiber generator becomes coinvariant."""
    bad = _smash_coaction_flip_table()
    if bad.is_coinvariant(NCPoly.gen(bad.system.alphabet, "u")):
        return ["group-like fiber generator u became coaction-invariant"]
    return []


def _pw_patch_wrong_grade() -> ComoduleAlgebra:
    P, _ = builtin.pw_patch()
    coact = dict(P.coaction_table)
    coact["wi"] = Tensor((P.system, P.hopf.system), {(("wi",), ("u",)): S_ONE})
    return ComoduleAlgebra(P.system, P.hopf, coact, name="pw_patch/corrupt-grade")


# -- strong-connection mutants ---------------------------------------------------

def _connection_drops_fiber() -> list[str]:
    sm = builtin.toeplitz_z2_smash()
    ell = StrongConnection.from_cleaving(sm.cleaving())
    # (1 (x) u) (x) (1 (x) 1): the right leg loses u
    bad = Tensor((sm.system, sm.system), {(("u",), ()): S_ONE})
    dropped = StrongConnection(sm, lambda w: bad if w == ("u",) else ell.apply_word(w))
    return _witnesses(verify_strong_connection(dropped, 2))


def _connection_not_unital() -> list[str]:
    sm = builtin.toeplitz_z2_smash()
    ell = StrongConnection.from_cleaving(sm.cleaving())
    doubled = StrongConnection(sm, lambda w: ell.apply_word(w).scale(Scalar.of(1 if w else 2)))
    return _witnesses(verify_strong_connection(doubled, 2))


def _patch_cleaving_squared() -> CleavingMap:
    P, _ = builtin.pw_patch()
    al = P.system.alphabet
    squares = {"u": NCPoly.word(al, ("w", "w")), "ui": NCPoly.word(al, ("wi", "wi"))}
    return CleavingMap(P, gens_map("gamma_bad", P.hopf.system, P.system, squares, check=False))


# -- smash mutants ------------------------------------------------------------------

def _plane_action_mutant(z: str, b: str, power: int) -> list[str]:
    """The GL_q(2) action on the quantum plane with z |> b = q^power b, a
    weight that breaks the module-algebra axioms."""
    table = dict(builtin.plane_action_table("formal"))
    B = builtin.quantum_plane()
    table[(z, b)] = NCPoly.gen(B.alphabet, b).scale(Scalar.q_power(power))
    try:
        smash_product(B, builtin.gl_q2(), table, name="mutant")
    except NotModuleAlgebraError as e:
        return [str(e)]
    return []


# -- covering / transition mutants ----------------------------------------------------

def _edge_map_forgets_twist() -> Covering:
    """The sphere covering with the twisted map of pair (0,1) sending u to v:
    well defined, but not colinear at u."""
    cov = builtin.sphere_covering().covering
    pair = cov.pairs[(0, 1)]
    al = pair.target.system.alphabet
    bad_map = gens_map(
        "pi^1_0-bad",
        cov.pieces[1].comodule.system,
        pair.target.system,
        {"s": NCPoly.gen(al, "z2"), "ss": NCPoly.gen(al, "z2i"), "u": NCPoly.gen(al, "v")},
        check=True,
    )
    pairs = {**cov.pairs, (0, 1): replace(pair, map_j=bad_map)}
    return Covering(cov.pieces, pairs, base=cov.base, kernels=cov.kernels, name=cov.name)


def _constant_fiber_tuple_rejected() -> list[str]:
    """Not a corruption but the canonical no-false-pass control: the constant
    fiber tuple must NOT be a member (the bundle is nontrivial)."""
    triv = builtin.sphere_covering()
    u = NCPoly.gen(triv.covering.pieces[0].comodule.system.alphabet, "u")
    return [f"multipullback @ ({i},{j})" for i, j, _ in pair_differences(triv.covering, [u, u, u])]


def _kernel_overlap_detected() -> list[str]:
    sm = builtin.toeplitz_z2_smash()
    al = sm.system.alphabet
    proj = NCPoly.one(al) - NCPoly.word(al, ("s", "ss"))
    cov = Covering.from_kernels(sm, [[proj], [proj]], base_gens=[("s", "ss")] * 2, name="bad-cover")
    return _witnesses(cov.kernel_intersection_certificate(3))


# -- reduction-theorem mutants -----------------------------------------------------------

def _not_a_hopf_ideal() -> list[str]:
    H = builtin.o_u1()
    al = H.system.alphabet
    J = HopfIdeal(H, [NCPoly.gen(al, "u") + NCPoly.one(al)], name="<u+1>")
    return _witnesses(J.validate())


def _prolonged_cleaving_squared() -> CleavingMap:
    triv = builtin.sphere_prolonged().trivialisation
    P = triv.covering.pieces[0].comodule
    al = P.system.alphabet
    squares = {"u": NCPoly.word(al, ("U", "U")), "ui": NCPoly.word(al, ("Ui", "Ui"))}
    return CleavingMap(P, gens_map("gamma-bad", triv.hopf.system, P.system, squares, check=False))


def _surjection_not_algebra_map() -> list[str]:
    H = builtin.o_u1()
    z2 = builtin.c_z2()
    al = z2.system.alphabet
    try:
        gens_map(
            "pi-bad",
            H.system,
            z2.system,
            {"u": NCPoly.gen(al, "u"), "ui": NCPoly.one(al)},
            check=True,
        )
    except NotWellDefinedError as e:
        return [str(e)]
    return []


# -- numeric mutants -------------------------------------------------------------------

def _phi_wrong_slope() -> list[str]:
    from .numgeom.circle import _angdist, delta_angle
    from .numgeom.grids import TOL, GridConfig, Z2, interval_nodes

    cfg = GridConfig()
    bad_phi = lambda th: np.clip(2.0 - (3.0 / np.pi) * _angdist(th, 0.0), -1.0, 1.0)
    t = interval_nodes(cfg.m_interval)[None, :]
    k = Z2[:, None]
    resid = float(np.max(np.abs(bad_phi(delta_angle(1, k, t)) - k)))
    return [f"chart composition residual {resid:.3f}"] if resid > TOL else []


def _face_sign_flip() -> list[str]:
    from .numgeom.grids import GridConfig
    from .numgeom.membership import SphereElement, face_atlas

    cfg = GridConfig()
    ts = builtin.toeplitz_system()
    one = NCPoly.one(ts.alphabet)
    zero = NCPoly.zero(ts.alphabet)
    bad = SphereElement([(one, zero), (-one, zero), (one, zero)])
    fa = face_atlas(bad, cfg)
    if fa["pass"]:
        return []
    worst = max(fa["edges"], key=fa["edges"].get)
    return [f"edge {worst} residual {fa['edges'][worst]:.3f}"]


def _omega_wrong_denominator() -> list[str]:
    from .numgeom.grids import TOL, GridConfig

    cfg = GridConfig()
    rng = cfg.rng(99)
    v = rng.normal(size=(2000, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    a = v[:, 0] + 1j * v[:, 1]
    c = v[:, 2] + 1j * v[:, 3]
    aa, cc = np.abs(a) ** 2, np.abs(c) ** 2
    omega2 = 2.0 / (1.0 + aa)  # wrong: drops the |a|^2-|c|^2 fold
    resid = float(np.max(np.abs((1 - omega2 * aa) * (1 - omega2 * cc))))
    return [f"zero-identity residual {resid:.3f}"] if resid > TOL else []


def _parity_mislabeled_generator() -> list[str]:
    from .numgeom.grids import GridConfig
    from .numgeom.probes import LoopSampler

    cfg = GridConfig()
    windings, _ = LoopSampler(cfg.rng(100), 2, cfg.n_circle).windings("even", 20)
    evens = sum(w % 2 == 0 for w in windings)
    return [f"{evens}/20 even windings from the mislabeled family"] if evens else []


MUTANTS: list[Mutant] = [
    _axiom_mutant("z2-coproduct-drops-leg", "hopf-axioms", _z2_delta_u_x_1),
    _axiom_mutant("su-antipode-sign", "hopf-axioms", _su_antipode_sign),
    _axiom_mutant("gl-counit-zero", "hopf-axioms", _gl_counit_zero),
    _axiom_mutant("toeplitz-coaction-degree-drop", "comodule-axioms", _toeplitz_coaction_degree_drop),
    Mutant("smash-coaction-flip", "comodule-axioms", _smash_coaction_flip, _smash_coaction_flip_table),
    _axiom_mutant("patch-coaction-wrong-grade", "comodule-axioms", _pw_patch_wrong_grade),
    Mutant("connection-drops-fiber", "strong-connection", _connection_drops_fiber),
    Mutant("connection-not-unital", "strong-connection", _connection_not_unital),
    _cleaving_mutant("cleaving-not-colinear", "strong-connection", _patch_cleaving_squared),
    Mutant("action-wrong-weight", "smash", partial(_plane_action_mutant, "a", "x", -1)),
    Mutant("action-breaks-diagonal-weight", "smash", partial(_plane_action_mutant, "d", "y", -1)),
    Mutant("action-breaks-determinant", "smash", partial(_plane_action_mutant, "Di", "x", 2)),
    Mutant("edge-map-forgets-twist", "covering", lambda: _witnesses(_edge_map_forgets_twist().validate())),
    Mutant("constant-fiber-tuple-rejected", "covering", _constant_fiber_tuple_rejected),
    Mutant("kernel-overlap-detected", "covering", _kernel_overlap_detected),
    Mutant("counit-does-not-kill", "reduction-theorem", _not_a_hopf_ideal),
    _cleaving_mutant("descended-cleaving-wrong-power", "reduction-theorem", _prolonged_cleaving_squared),
    Mutant("surjection-not-algebra-map", "reduction-theorem", _surjection_not_algebra_map),
    Mutant("chart-wrong-slope", "sphere-gluing", _phi_wrong_slope),
    Mutant("face-sign-flip", "sphere-gluing", _face_sign_flip),
    Mutant("patch-function-wrong-fold", "peter-weyl", _omega_wrong_denominator),
    Mutant("parity-family-mislabeled", "parity-probe", _parity_mislabeled_generator),
]
