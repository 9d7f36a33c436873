"""Named verification suites: declarative compositions of the module
operations, producing machine-readable reports with exit-code semantics.

A suite body is a generator that does its work and yields one
``CheckRecord`` per check; ``run_suite`` times and labels the records."""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field, fields

from . import builtin
from .comodule import (
    CleavingMap,
    StrongConnection,
    principal_quotient_pair_certificate,
    smash_product,
    verify_strong_connection,
)
from .exprs import ParseError, parse_poly
from .hopf import (
    check_hopf_axioms,
    coinvariant_compatibility_check,
    generator_map_isomorphism_problems,
    quotient_hopf,
)
from .maps import NotWellDefinedError, gens_map, relation_mismatches
from .ncpoly import NCPoly
from .numgeom import (
    GridConfig,
    SphereElement,
    decomposition_report,
    disc_membership,
    equivariant_parity_probe,
    face_atlas,
    gauge_conjugation_report,
    mattprop_report,
    peter_weyl_report,
    phi_identities_report,
    rp2_membership,
    splitting_identities_report,
)
from .pullback import (
    Covering,
    CoveringPiece,
    IncompatibleError,
    Trivialisation,
    multipullback_membership,
    piece_glue,
    reducibility_check,
)
from .scalars import S_ONE, Scalar


class ConfigError(ValueError):
    pass


@dataclass
class CheckRecord:
    """One check's verdict.  ``run_suite`` sets ``runtime_ms`` (wall time
    since the suite's previous record, or since the suite started) and
    ``seed`` (``crc32(id) & 0xFFFF``, a label no check draws from)."""

    id: str
    claim: str
    status: str  # pass | fail | undecided
    witness: str = ""
    residual: float | None = None
    runtime_ms: float = 0.0
    seed: int | None = None


# a report's record dicts are built field by field: dataclasses.asdict would
# deep-copy values that are already plain
_RECORD_FIELDS = tuple(f.name for f in fields(CheckRecord))
_CANONICAL_FIELDS = tuple(k for k in _RECORD_FIELDS if k != "runtime_ms")


@dataclass
class SuiteConfig:
    suite: str
    algebra: str | None = None
    covering: str | None = None
    degree: int = 4
    q: str | int = "formal"
    grid: GridConfig = field(default_factory=GridConfig)
    trials: int = 100
    mc_samples: int = 10_000


@dataclass
class SuiteReport:
    suite: str
    params: dict
    records: list
    runtime_ms: float = 0.0

    @property
    def n_fail(self) -> int:
        return sum(1 for r in self.records if r.status == "fail")

    @property
    def n_undecided(self) -> int:
        return sum(1 for r in self.records if r.status == "undecided")

    @property
    def passed(self) -> bool:
        return self.n_fail == 0 and self.n_undecided == 0

    @property
    def exit_code(self) -> int:
        if self.n_fail:
            return 1
        if self.n_undecided:
            return 3
        return 0

    def to_json(self) -> str:
        doc = {
            "suite": self.suite,
            "params": self.params,
            "records": [{k: getattr(r, k) for k in _RECORD_FIELDS} for r in self.records],
            "pass": self.passed,
            "fail": self.n_fail,
            "undecided": self.n_undecided,
            "runtime_ms": self.runtime_ms,
        }
        return json.dumps(doc, indent=2, default=str)

    def canonical_json(self) -> str:
        """Reproducible form: identical configs + seed give identical bytes
        (runtimes excluded, everything else included)."""
        doc = {
            "suite": self.suite,
            "params": self.params,
            "records": [{k: getattr(r, k) for k in _CANONICAL_FIELDS} for r in self.records],
            "pass": self.passed,
        }
        return json.dumps(doc, indent=2, sort_keys=True, default=str)

    def to_markdown(self) -> str:
        lines = [f"# suite {self.suite}", "", "| check | status | residual | witness |", "|---|---|---|---|"]
        for r in self.records:
            res = "" if r.residual is None else f"{r.residual:.2e}"
            lines.append(f"| {r.id} | {r.status} | {res} | {r.witness[:80]} |")
        lines.append("")
        lines.append(f"result: {'pass' if self.passed else 'FAIL'} ({self.n_fail} fail, {self.n_undecided} undecided)")
        return "\n".join(lines)

    def write(self, path: str, fmt: str = "json"):
        write_atomic(path, self.to_json() if fmt == "json" else self.to_markdown())


def write_atomic(path: str, text: str):
    """Write ``text`` to a temp file beside ``path``, then move it into place
    with the mode a plain ``open`` would give it (mkstemp's is 0600); on
    failure the temp file is removed and the OSError propagates."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".report-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _check(id_: str, claim: str, ok, witness: str = "", residual=None) -> CheckRecord:
    return CheckRecord(id_, claim, "pass" if ok else "fail", witness, residual)


def _no_failures(id_: str, claim: str, failures) -> CheckRecord:
    return _check(id_, claim, not failures, f"{failures[0]}" if failures else "")


# ---------------------------------------------------------------------------
# suite bodies
# ---------------------------------------------------------------------------

def suite_hopf_axioms(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    for name in builtin.HOPF_NAMES:
        if cfg.algebra not in (None, name):
            continue
        H = builtin.build(name, cfg.q)
        conf = H.system.check_local_confluence(min(6, cfg.degree + 2))
        yield _no_failures(
            f"confluence/{name}",
            "all one-step reductions share one normal form up to the bound",
            conf.conflicts,
        )
        yield _no_failures(
            f"hopf-axioms/{name}",
            "coassociativity, counit, antipode laws and S-invertibility on the basis",
            check_hopf_axioms(H),
        )


def suite_comodule_axioms(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    for name in builtin.COMODULE_NAMES:
        if cfg.algebra not in (None, name):
            continue
        obj = builtin.build(name, cfg.q)
        P = obj[0] if isinstance(obj, tuple) else obj
        yield _no_failures(
            f"comodule-axioms/{name}",
            "coaction well-defined, coassociative, counital on the basis",
            P.check_axioms(),
        )


def suite_strong_connection(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    deg = min(cfg.degree, 4)
    instances = [
        ("toeplitz_z2_smash", builtin.toeplitz_z2_smash()),
        ("toeplitz_u1_smash", builtin.toeplitz_u1_smash()),
    ]
    for name, sm in instances:
        cl = sm.cleaving()
        yield _no_failures(f"cleaving/{name}", "unital colinear convolution-invertible cleaving", cl.verify())
        yield _no_failures(
            f"strong-connection/{name}",
            "three lifting axioms plus h^[1] h^[2] = eps(h) on every basis word",
            verify_strong_connection(StrongConnection.from_cleaving(cl), deg),
        )
    P, cl = builtin.pw_patch()
    fails = cl.verify() + verify_strong_connection(StrongConnection.from_cleaving(cl), 2)
    yield _no_failures("strong-connection/pw_patch", "patch cleaving and its connection at degree 2", fails)
    # the determinant pair carries a degree-one certificate: beyond the
    # generators the canonical lifts satisfy the axioms only up to
    # tensor-over-base balancing, which multiplication erases
    for name, J_builder, H_builder, pair_bound in (
        ("o_u1-mod-z2", builtin.u1_mod_z2_ideal, builtin.o_u1, min(cfg.degree, 3)),
        ("gl-mod-det", builtin.gl_mod_det_ideal, lambda: builtin.gl_q2(cfg.q), 1),
    ):
        H = H_builder()
        J = J_builder(H)
        fails, _, _ = principal_quotient_pair_certificate(H, J, pair_bound)
        yield _no_failures(
            f"quotient-pair-principal/{name}",
            "explicit strong connection for the quotient coaction on the pair",
            fails,
        )


def suite_smash(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    sm = builtin.plane_gl_smash(cfg.q)
    yield _no_failures(
        "smash/plane-gl-action",
        "declared action respects both presentations (module-algebra axioms)",
        sm.action.module_algebra_problems(),
    )
    yield _no_failures("smash/plane-gl-comodule", "smash coaction axioms", sm.check_axioms())
    sm2 = builtin.toeplitz_z2_smash()
    bad = []
    for b in sm2.b_gens:
        if not sm2.is_coinvariant(NCPoly.gen(sm2.system.alphabet, b)):
            bad.append(b)
    for z in sm2.h_gens:
        if sm2.is_coinvariant(NCPoly.gen(sm2.system.alphabet, z)):
            bad.append(z)
    yield _check(
        "smash/coinvariants",
        "base generators are coinvariant, group-like fiber generators are not",
        not bad,
        witness=",".join(bad),
    )
    trivial = builtin.trivial_action(builtin.c_z2(), builtin.toeplitz_system())
    tensor_like = smash_product(
        builtin.toeplitz_system(), builtin.c_z2(), trivial, name="tensor-check", h_central=True
    )
    diff = tensor_like.system.normal_form(
        NCPoly.word(tensor_like.system.alphabet, ("u", "s"))
        - NCPoly.word(tensor_like.system.alphabet, ("s", "u"))
    )
    yield _check(
        "smash/trivial-action-tensor",
        "the trivial action yields the tensor-product algebra",
        diff.is_zero(),
        witness="" if diff.is_zero() else repr(diff),
    )


def suite_covering(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    triv = _load_trivialisation(cfg)
    failures = triv.validate()
    if triv.covering.kernels is not None:
        failures += triv.covering.kernel_intersection_certificate(min(cfg.degree, 2))
    yield _no_failures(
        "covering/validate",
        "pieces, base generators and double-quotient maps are colinear and well-defined",
        failures,
    )
    al = triv.covering.pieces[0].comodule.system.alphabet
    one = NCPoly.one(al)
    zero = NCPoly.zero(al)
    ok1, _ = multipullback_membership(triv.covering, [one] * triv.covering.size)
    bad_tuple = [one] + [zero] * (triv.covering.size - 1)
    ok2, _ = multipullback_membership(triv.covering, bad_tuple)
    good = ok1 and (not ok2 if triv.covering.size > 1 else True)
    yield _check(
        "covering/membership",
        "compatible tuples pass, mismatched tuples are rejected with the difference",
        good,
        witness="" if good else "membership oracle inconsistent",
    )
    try:
        piece_glue(triv, [one] * triv.covering.size, NCPoly.one(triv.hopf.system.alphabet))
        glue_ok = True
        wit = ""
    except IncompatibleError as e:
        glue_ok = False
        wit = str(e)
    yield _check("covering/glue-unit", "the unit tuple glues", glue_ok, wit)


def _load_trivialisation(cfg: SuiteConfig):
    if cfg.covering:
        return load_covering_file(cfg.covering)
    return builtin.sphere_covering()


def load_covering_file(path: str):
    """Covering JSON: {"base": builtin-name, "pieces": [{"kernel": [...],
    "cleaving": {...}}, ...], "base_gens": [[...], ...]}; kernels/cleavings
    parsed over the base.  A file of any other shape is a ConfigError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read covering file {path}: {e}")
    _check_covering_shape(path, doc)
    obj = builtin.build(doc["base"])
    base = obj[0] if isinstance(obj, tuple) else obj
    if not hasattr(base, "coact_word"):
        raise ConfigError(f"base {doc['base']!r} is not a comodule algebra")
    hgens = set(base.hopf.system.alphabet.gens)
    for idx, piece in enumerate(doc["pieces"]):
        if set(piece["cleaving"]) != hgens:
            raise ConfigError(
                f"covering file {path}: piece {idx} cleaving must give an image for each of "
                f"{sorted(hgens)}, got {sorted(piece['cleaving'])}"
            )
    bg = doc.get("base_gens")
    unknown = sorted({b for gens in bg or () for b in gens} - set(base.system.alphabet.gens))
    if unknown:
        raise ConfigError(f"covering file {path}: base_gens {unknown} are not generators of {doc['base']}")
    kernels = [[_parse_file_poly(path, e, base.system.alphabet) for e in piece.get("kernel", ())]
               for piece in doc["pieces"]]
    cov = Covering.from_kernels(base, kernels, base_gens=[tuple(b) for b in bg] if bg else None,
                                name=doc.get("name", os.path.basename(path)))
    cleavings = []
    for idx, piece in enumerate(doc["pieces"]):
        psys = cov.pieces[idx].comodule.system
        images = {g: _parse_file_poly(path, e, psys.alphabet) for g, e in piece["cleaving"].items()}
        try:
            j = gens_map(f"gamma[{idx}]", base.hopf.system, psys, images, check=True)
        except NotWellDefinedError as e:
            raise ConfigError(f"covering file {path}: piece {idx} cleaving is not an algebra map: {e}")
        cleavings.append(CleavingMap(cov.pieces[idx].comodule, j))
    return Trivialisation(cov, base.hopf, cleavings, name=doc.get("name", "file-covering"))


def _check_covering_shape(path: str, doc) -> None:
    """Raise ConfigError unless ``doc`` has the JSON types load_covering_file reads."""

    def str_list(x) -> bool:
        return isinstance(x, list) and all(isinstance(e, str) for e in x)

    if not isinstance(doc, dict) or not isinstance(doc.get("base"), str):
        raise ConfigError(f"covering file {path} names no base builtin (key 'base')")
    pieces = doc.get("pieces")
    if not isinstance(pieces, list) or not pieces:
        raise ConfigError(f"covering file {path}: 'pieces' must be a non-empty list of objects")
    for idx, piece in enumerate(pieces):
        if not isinstance(piece, dict):
            raise ConfigError(f"covering file {path}: piece {idx} is not an object")
        if not str_list(piece.get("kernel", [])):
            raise ConfigError(f"covering file {path}: piece {idx} 'kernel' must be a list of strings")
        cleaving = piece.get("cleaving")
        if not (isinstance(cleaving, dict) and cleaving and str_list(list(cleaving.values()))):
            raise ConfigError(
                f"covering file {path}: piece {idx} needs a cleaving table (generator -> string) "
                "for a trivialisation"
            )
    bg = doc.get("base_gens")
    if bg is not None and not (isinstance(bg, list) and len(bg) == len(pieces) and all(map(str_list, bg))):
        raise ConfigError(f"covering file {path}: 'base_gens' must hold one list of generators per piece")
    if not isinstance(doc.get("name", ""), str):
        raise ConfigError(f"covering file {path}: 'name' must be a string")


def _parse_file_poly(path: str, expr: str, alphabet) -> NCPoly:
    try:
        return parse_poly(expr, alphabet)
    except ParseError as e:
        raise ConfigError(f"covering file {path}: cannot parse {expr!r}: {e}")


def suite_transition(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    triv = _load_trivialisation(cfg)
    yield _no_failures(
        "transition/laws",
        "T_ii = eta eps, T_ij * T_ji = eta eps, images coaction-invariant",
        triv.validate(),
    )
    tv = triv.transition(0, 1, ("u",)) if "u" in triv.hopf.system.alphabet.rank else None
    yield _check(
        "transition/values",
        "the Z2 transition function is the base parity class (identity twisting)",
        tv is None or not tv.is_zero(),
        witness=f"T_01(u) = {tv!r}" if tv is not None else "",
    )


def suite_reduction_theorem(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    # the positive instance: prolonged sphere reduced back along the parity kernel
    pro = builtin.sphere_prolonged()
    yield _no_failures("reduction/prolong-certificates", "cotensor membership and imported relations", pro.report)
    J = builtin.u1_mod_z2_ideal()
    yield _no_failures("reduction/ideal-axioms", "the reducing ideal is a Hopf ideal", J.validate())
    verdict = reducibility_check(pro.trivialisation, J)
    yield _check(
        "reduction/sphere-instance",
        "transition functions annihilate the ideal and its base action vanishes",
        verdict.reducible,
        witness="" if verdict.reducible else str(verdict.witnesses[0]),
    )
    # exact transition values on the ideal generators
    vals = []
    for (i, j) in ((0, 1), (1, 0), (0, 2), (1, 2)):
        for g in J.gens:
            vals.append(pro.trivialisation.transition_poly(i, j, g))
    ok = all(v.is_zero() for v in vals)
    yield _check(
        "reduction/transition-kills-ideal",
        "T_ij of every ideal generator is exactly zero",
        ok,
        witness="" if ok else repr(next(v for v in vals if not v.is_zero())),
    )
    yield _no_failures(
        "reduction/coinvariant-compatibility",
        "the trivialisations agree on the coinvariant subalgebra through the double quotients",
        coinvariant_compatibility_check(pro.trivialisation, J, 2),
    )
    # the second positive instance: the quantum-group prolongation of the
    # Peter-Weyl patch reduces along the gamma kernel
    ppro = builtin.patch_prolonged(cfg.q)
    JS = builtin.su_gamma_ideal(ppro.trivialisation.hopf)
    pverdict = reducibility_check(ppro.trivialisation, JS)
    yield _check(
        "reduction/patch-instance",
        "the quantum-group prolongation of the patch reduces along the gamma kernel",
        ppro.report == [] and pverdict.reducible,
        witness="" if pverdict.reducible else str(pverdict.witnesses[0]),
    )
    # the obstructed instance: the quantum-plane frame bundle at generic q
    # (the cube-root mode belongs to the frame-obstruction suite, which reduces
    # the obstruction modulo the minimal polynomial; the builders read cbrt1
    # as formal q, so here it runs the formal check)
    sm = builtin.plane_gl_smash(cfg.q)
    piece = CoveringPiece(sm, base_gens=("x", "y"))
    cov = Covering([piece], {}, name="frame-bundle-single-piece")
    triv = Trivialisation(cov, sm.hopf, [sm.cleaving()], name="frame")
    JG = builtin.gl_mod_det_ideal(sm.hopf)
    verdict = reducibility_check(triv, JG)
    expected_obstructed = cfg.q != 1
    yield _check(
        "reduction/frame-bundle-obstructed",
        "the determinant ideal acts nontrivially on the plane unless q^3 = 1",
        (not verdict.reducible) if expected_obstructed else verdict.reducible,
        witness=str(verdict.witnesses[0]) if verdict.witnesses else "",
    )
    # quotient identifications
    u1 = builtin.o_u1()
    z2 = builtin.c_z2()
    qh, _ = quotient_hopf(u1, builtin.u1_mod_z2_ideal(u1))
    fails = generator_map_isomorphism_problems(
        qh, z2, {"u": NCPoly.gen(z2.system.alphabet, "u"), "ui": NCPoly.gen(z2.system.alphabet, "u")}, 3
    )
    gl = builtin.gl_q2(cfg.q)
    sl = builtin.sl_q2(cfg.q)
    qg, _ = quotient_hopf(gl, builtin.gl_mod_det_ideal(gl))
    gm = {g: NCPoly.gen(sl.system.alphabet, g) for g in ("a", "b", "c", "d")}
    gm["Di"] = NCPoly.one(sl.system.alphabet)
    fails += generator_map_isomorphism_problems(qg, sl, gm, 3)
    yield _no_failures(
        "reduction/quotient-identifications",
        "circle mod parity is the order-two group algebra; GL mod determinant is SL",
        fails,
    )


def suite_prolong(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    pro = builtin.sphere_prolonged()
    yield _no_failures("prolong/sphere", "prolonged pieces certified", pro.report)
    triv = pro.trivialisation
    failures = triv.validate()
    yield _no_failures("prolong/covering-valid", "prolonged covering validates", failures)
    yield _no_failures("prolong/transitions", "prolonged transition laws", failures)
    # membership of the u^2-glued tuple (the coinvariant fiber square)
    H = builtin.o_u1()
    u2 = NCPoly.word(H.system.alphabet, ("u", "u"))
    one = NCPoly.one(triv.covering.pieces[0].comodule.system.alphabet)
    try:
        piece_glue(triv, [one] * 3, u2)
        ok, wit = True, ""
    except IncompatibleError as e:
        ok, wit = False, str(e)
    yield _check("prolong/glue-even-fiber", "the even fiber power glues across all faces", ok, wit)
    u1g = NCPoly.gen(H.system.alphabet, "u")
    try:
        piece_glue(triv, [one] * 3, u1g)
        ok, wit = False, "odd fiber glued but the bundle is nontrivial"
    except IncompatibleError as e:
        ok, wit = True, f"difference {e.difference!r}"
    yield _check("prolong/odd-fiber-rejected", "the odd fiber power does not glue (nontriviality)", ok, wit)


def symbol_relation_residual(system) -> float:
    """0.0 when the symbol s -> u, ss -> ui is an algebra map from the algebra
    ``system`` presents into O(U(1)), else the worst relation mismatch: the
    sum of |c| over the terms of lhs - rhs.

    On free words the generator table extends to an algebra map. It passes to
    the quotient exactly when it kills the ideal of the relations, that is
    when both sides of every defining relation w = p have the same image. So
    a relation-by-relation check proves symbol(pq) = symbol(p) symbol(q) for
    all p, q in every degree."""
    U = builtin.o_u1().system
    u, ui = NCPoly.gen(U.alphabet, "u"), NCPoly.gen(U.alphabet, "ui")
    S = gens_map("symbol", system, U, {"s": u, "ss": ui}, check=False)
    worst = 0.0
    for _, _, lhs, rhs in relation_mismatches(system, S.apply_word, S.apply):
        worst = max(worst, float(sum(abs(c.to_complex()) for c in (lhs - rhs).terms.values())))
    return worst


def suite_quantum_rp2(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    ts = builtin.toeplitz_system()
    al = ts.alphabet
    one, zero, s = NCPoly.one(al), NCPoly.zero(al), NCPoly.gen(al, "s")
    ok, r = rp2_membership([one, one, one], cfg.grid)
    yield _check("rp2/unit-member", "the unit tuple satisfies all identifications", ok, residual=r)
    ok, r = rp2_membership([s, zero, zero], cfg.grid)
    yield _check(
        "rp2/generator-not-member",
        "an unmatched isometry component is rejected with unit residual",
        not ok and abs(r - 1.0) < 1e-6,
        residual=r,
    )
    worst = symbol_relation_residual(ts)
    yield _check(
        "rp2/symbol-homomorphism",
        "the symbol map is exactly multiplicative on *-polynomials",
        worst == 0.0,
        residual=worst,
    )


def suite_sphere_gluing(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    worst = max(phi_identities_report(cfg.grid).values())
    yield _check("sphere/chart-identities", "quarter-chart compositions and oddness", worst < 1e-12, residual=worst)
    worst = max(splitting_identities_report(cfg.grid).values())
    yield _check(
        "sphere/splitting-identities", "the colinear splittings invert the charts", worst < cfg.grid.tol, residual=worst
    )
    worst = max(gauge_conjugation_report(cfg.grid).values())
    yield _check(
        "sphere/gauge-conjugation",
        "the gauge is involutive and conjugates the gluings to the swaps",
        worst < 1e-9,
        residual=worst,
    )
    ts = builtin.toeplitz_system()
    one, zero = NCPoly.one(ts.alphabet), NCPoly.zero(ts.alphabet)
    elt = SphereElement([(one, zero)] * 3)
    fa = face_atlas(elt, cfg.grid)
    yield _check(
        "sphere/membership-and-faces",
        "glued tuples satisfy the cube conditions and all twelve edges match",
        fa["pass"],
        residual=fa["max_residual"],
    )


def suite_mattprop(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    rep = mattprop_report(cfg.grid, n_random=min(1000, max(100, cfg.trials * 10)))
    for key in ("condition1_splitting", "condition1_kernel_image", "corner_identity", "condition2_residual"):
        yield _check(
            f"mattprop/{key}",
            "surjectivity-criterion condition holds on the sampled family",
            rep[key] < cfg.grid.tol,
            residual=rep[key],
        )


def suite_disc_decomposition(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    ts = builtin.toeplitz_system()
    one = NCPoly.one(ts.alphabet)
    ok, r = disc_membership([one, one, one], cfg.grid)
    yield _check("disc/unit-member", "the unit triple is a disc element", ok, residual=r)
    rep = decomposition_report()
    yield _check(
        "disc/z2-decomposition-roundtrips",
        "the disc-restriction isomorphisms invert each other on both eigenparts",
        rep["pass"],
        residual=max(rep["forward_roundtrip"], rep["backward_roundtrip"], rep["eigenspace"]),
    )


def suite_parity_probe(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    rep = equivariant_parity_probe(2, cfg.trials, cfg.grid)
    yield _check(
        "parity/equivariant-all-odd",
        "every equivariant determinant loop has odd winding",
        rep.all_odd,
        witness=f"{sum(1 for w in rep.windings if w % 2)} of {len(rep.windings)} odd; resamples {rep.resamples}",
    )
    yield _check(
        "parity/control-both-parities",
        "the unconstrained-control family shows both parities",
        rep.control_has_both,
        witness=f"parities {{{', '.join(str(w % 2) for w in rep.control_windings[:6])}...}}",
    )


def suite_peter_weyl(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    rep = peter_weyl_report(cfg.mc_samples, cfg.grid)
    for key in ("zero_identity", "cleaving_multiplicative", "line_bundle_equivariance"):
        yield _check(
            f"peter-weyl/{key}",
            "patch identity holds over the Monte-Carlo sample",
            rep[key] < cfg.grid.tol,
            residual=rep[key],
        )


def suite_frame_obstruction(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    v = builtin.frame_bundle_obstruction(cfg.q)
    if v.mode == "formal":
        yield _check(
            "frame/obstruction-polynomial",
            "the reduction constraint forces exactly the cubic-root condition",
            v.obstruction == Scalar.q_power(3) - S_ONE,
            witness=f"obstruction {v.obstruction!r}",
        )
    else:
        yield _check(f"frame/consistency@q={cfg.q}", "reduction data exists iff q^3 = 1", v.consistent, witness=v.witness)
    yield _check(
        "frame/theta-commutation-witness",
        "the generic unital-map candidate violates the commutation rule",
        v.failures if v.consistent in (None, False) else True,
        witness=str(v.failures[0]) if v.failures else "no violation at this q",
    )


def suite_negative_controls(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    from .mutants import MUTANTS

    for m in MUTANTS:
        witnesses = m.detect()
        yield _check(
            f"mutant/{m.suite}/{m.name}",
            "the corrupted table is rejected with a localized witness",
            witnesses,
            witness=witnesses[0] if witnesses else "NOT DETECTED",
        )


SUITES = {
    "hopf-axioms": (suite_hopf_axioms, "exact coalgebra/antipode laws for every builtin Hopf algebra"),
    "comodule-axioms": (suite_comodule_axioms, "coaction axioms for every builtin comodule algebra"),
    "strong-connection": (suite_strong_connection, "cleaving maps, strong connections, quotient-pair certificates"),
    "smash": (suite_smash, "module-algebra actions and smash-product structure"),
    "covering": (suite_covering, "covering data, multipullback membership, unit gluing"),
    "transition": (suite_transition, "transition-function laws and values"),
    "reduction-theorem": (suite_reduction_theorem, "reducibility criterion: positive sphere instance, obstructed frame bundle"),
    "prolong": (suite_prolong, "cotensor prolongation certificates and fiber gluing"),
    "quantum-rp2": (suite_quantum_rp2, "projective-plane membership and exact symbols"),
    "sphere-gluing": (suite_sphere_gluing, "chart/splitting/gauge identities and sphere membership"),
    "mattprop": (suite_mattprop, "surjectivity-criterion conditions on the sampled family"),
    "disc-decomposition": (suite_disc_decomposition, "disc membership and the parity decomposition isomorphisms"),
    "parity-probe": (suite_parity_probe, "odd winding of equivariant determinant loops"),
    "peter-weyl": (suite_peter_weyl, "Monte-Carlo patch identities on the 3-sphere"),
    "frame-obstruction": (suite_frame_obstruction, "the cubic-root obstruction of the plane frame bundle"),
    "negative-controls": (suite_negative_controls, "every shipped corrupted table is detected"),
}

# the builtins each axiom suite checks; SuiteConfig.algebra picks one of them
AXIOM_SUITES = {"hopf-axioms": builtin.HOPF_NAMES, "comodule-axioms": builtin.COMODULE_NAMES}


def _suite_names(cfg: SuiteConfig) -> list[str]:
    """The suites ``cfg`` selects, after rejecting settings no suite can run."""
    if cfg.suite == "all":
        names = list(SUITES)
    elif cfg.suite in SUITES:
        names = [cfg.suite]
    else:
        hint = builtin.nearest_match_hint(cfg.suite, list(SUITES) + ["all"])
        raise ConfigError(f"unknown suite {cfg.suite!r}{hint}")
    try:
        builtin.q_value(cfg.q)
    except builtin.QZeroError as e:
        raise ConfigError(str(e))
    for key, value in (("degree", cfg.degree), ("trials", cfg.trials), ("mc_samples", cfg.mc_samples)):
        if value < 1:
            raise ConfigError(f"{key} must be at least 1, got {value}")
    # 8 | n puts the charts' quarter breakpoints on circle grid points, and the
    # interval grid holds both endpoints
    circle, interval = cfg.grid.n_circle, cfg.grid.m_interval
    if circle < 8 or circle % 8:
        raise ConfigError(f"grid_circle must be a positive multiple of 8, got {circle}")
    if interval < 2:
        raise ConfigError(f"grid_interval must be at least 2, got {interval}")
    # a residual passes when it is below tol: at nan or tol <= 0 nothing
    # passes, and at inf everything does
    tol = cfg.grid.tol
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be finite and positive, got {tol}")
    if cfg.algebra is not None and not any(cfg.algebra in AXIOM_SUITES.get(n, ()) for n in names):
        takes = "; ".join(f"{n} takes {', '.join(b)}" for n, b in AXIOM_SUITES.items())
        raise ConfigError(f"suite {cfg.suite!r} checks no algebra {cfg.algebra!r} ({takes})")
    return names


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    t0 = time.monotonic()
    records: list[CheckRecord] = []
    for name in _suite_names(cfg):
        last = time.monotonic()
        for rec in SUITES[name][0](cfg):
            now = time.monotonic()
            rec.runtime_ms = (now - last) * 1000.0
            rec.seed = zlib.crc32(rec.id.encode()) & 0xFFFF
            records.append(rec)
            last = now
    records.sort(key=lambda r: r.id)
    params = {
        "suite": cfg.suite,
        "degree": cfg.degree,
        "q": str(cfg.q),
        "grid_circle": cfg.grid.n_circle,
        "grid_interval": cfg.grid.m_interval,
        "tol": cfg.grid.tol,
        # "trunc" and "jobs" are constants: no check truncates by a configured
        # size, and suites run one after another.  The keys stay because the
        # reports in benchmark/reference/ hold them and canonical_json() must
        # match them
        "trunc": 64,
        "seed": cfg.grid.seed,
        "trials": cfg.trials,
        "jobs": 1,
    }
    # what was checked, when it is not the default; left out otherwise, so
    # default reports keep the keys of the reports in benchmark/reference/
    params.update({k: v for k, v in (("algebra", cfg.algebra), ("covering", cfg.covering)) if v is not None})
    return SuiteReport(cfg.suite, params, records, runtime_ms=(time.monotonic() - t0) * 1000.0)


def list_suites(machine: bool = False) -> str:
    if machine:
        return json.dumps(
            [{"name": n, "covers": d} for n, (_, d) in SUITES.items()] + [{"name": "all", "covers": "every suite"}],
            indent=2,
        )
    lines = [f"  {n:20s} {d}" for n, (_, d) in SUITES.items()]
    lines.append(f"  {'all':20s} every suite above")
    return "\n".join(lines)
