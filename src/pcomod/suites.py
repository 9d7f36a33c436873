"""Named verification suites: declarative compositions of the module
operations, producing machine-readable reports with exit-code semantics.

A suite body is a generator that does its work and yields one
``CheckRecord`` per check; ``run_suite`` times and labels the records."""

from __future__ import annotations

import json
import os
import tempfile
import time
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field, fields

from . import builtin
from .comodule import CleavingMap, smash_product, verify_strong_connection
from .exprs import ParseError, parse_poly
from .hopf import CheckFailure, check_hopf_axioms, generator_map_isomorphism_problems
from .maps import NotWellDefinedError, gens_map
from .ncpoly import NCPoly, word_str
from .numgeom import (
    TOL,
    GridConfig,
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
    Trivialisation,
    pair_differences,
    piece_glue,
    reducibility_check,
)
from .rewrite import NonUnitLeadError, SizeLimitError, UnitIdealError, ledger
from .scalars import S_ONE, Scalar


class ConfigError(ValueError):
    pass


@dataclass
class CheckRecord:
    """One check's verdict.  ``run_suite`` sets ``runtime_ms`` (wall time
    since the suite's previous record, or since the suite started),
    ``seed`` (``crc32(id) & 0xFFFF``, a label no check draws from) and
    ``certificates`` (the ``rewrite.ledger`` of the stored certificates
    run or read since the suite's previous record)."""

    id: str
    claim: str
    status: str  # pass | fail | undecided
    witness: str = ""
    residual: float | None = None
    runtime_ms: float = 0.0
    seed: int | None = None
    certificates: list = field(default_factory=list)


# a report's record dicts are built field by field: dataclasses.asdict would
# deep-copy values that are already plain
_RECORD_FIELDS = tuple(f.name for f in fields(CheckRecord))
_CANONICAL_FIELDS = tuple(k for k in _RECORD_FIELDS if k not in ("runtime_ms", "certificates"))


@dataclass
class SuiteConfig:
    suite: str
    algebra: str | None = None
    covering: str | None = None
    q: str | int = "formal"
    grid: GridConfig = field(default_factory=GridConfig)


PARITY_TRIALS = 100  # the parity probe's loops of each family, params["trials"]
PETER_WEYL_SAMPLES = 10_000  # the peter-weyl suite's Monte-Carlo points


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
        # a ledger entry (certificate, object, "run" | "read") prints its object's name
        return json.dumps(doc, indent=2, default=lambda obj: obj.name)

    def canonical_json(self) -> str:
        """Reproducible form: identical configs + seed give identical bytes
        (runtimes and certificate ledgers excluded, everything else
        included)."""
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
            # a witness may hold "|" (the action symbol |>), which would split the cell
            witness = r.witness[:80].replace("|", "\\|")
            lines.append(f"| {r.id} | {r.status} | {res} | {witness} |")
        lines.append("")
        lines.append(f"result: {'pass' if self.passed else 'FAIL'} ({self.n_fail} fail, {self.n_undecided} undecided)")
        return "\n".join(lines)

    def write(self, path: str):
        write_atomic(path, self.to_json())


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
        # every builtin but gl_q2 is complete; the bound cuts only its gap family
        # b*c*x*b*c*Di, two determinant redexes competing for one central Di
        conf = H.system.check_local_confluence(6)
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
        P = builtin.build(name, cfg.q)
        yield _no_failures(
            f"comodule-axioms/{name}",
            "coaction well-defined, coassociative, counital on the basis",
            P.check_axioms(),
        )


def suite_strong_connection(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    # a certified cleaving proves its connection's axioms in every degree
    # (StrongConnection.from_cleaving), so both records read one certificate
    for name, sm in (
        ("toeplitz_z2_smash", builtin.toeplitz_z2_smash()),
        ("toeplitz_u1_smash", builtin.toeplitz_u1_smash()),
    ):
        fails = sm.cleaving().verify()
        yield _no_failures(f"cleaving/{name}", "unital colinear convolution-invertible cleaving", fails)
        yield _no_failures(
            f"strong-connection/{name}",
            "three lifting axioms plus h^[1] h^[2] = eps(h) on every basis word",
            fails,
        )
    _, cl = builtin.pw_patch()
    yield _no_failures("strong-connection/pw_patch", "patch cleaving and its connection at degree 2", cl.verify())
    # cleft implies principal: the cleaving certifies the determinant pair in
    # every degree; C[Z/2] has no irreducible word of degree 2, so bound 1
    # checks the one-step lift on all of its basis {1, u}
    ell = builtin.u1_mod_z2_connection()
    premise = [
        CheckFailure("quotient-basis", word_str(w), "irreducible word of degree 2")
        for w in ell.P.hopf.system.basis_words(2)
        if len(w) == 2
    ]
    claim = "explicit strong connection for the quotient coaction on the pair"
    yield _no_failures("quotient-pair-principal/o_u1-mod-z2", claim, premise + verify_strong_connection(ell, 1))
    cl = builtin.gl_mod_det_cleaving(cfg.q)
    yield _no_failures("quotient-pair-principal/gl-mod-det", claim, cl.P.check_axioms() + cl.verify())


def _tensor_check_commutator(action: dict[str, str]) -> NCPoly:
    """u*s - s*u in the smash product of the Toeplitz algebra with C(Z2) for
    the action u |> b, given as an expression for each Toeplitz letter b."""
    B = builtin.toeplitz_system()
    table = {("u", b): parse_poly(e, B.alphabet) for b, e in action.items()}
    sm = smash_product(B, builtin.c_z2(), table, name="tensor-check")
    al = sm.system.alphabet
    return sm.system.normal_form(NCPoly.word(al, ("u", "s")) - NCPoly.word(al, ("s", "u")))


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
    diff = _tensor_check_commutator({"s": "s", "ss": "ss"})
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
        failures = failures + triv.covering.kernel_intersection_certificate(2)
    yield _no_failures(
        "covering/validate",
        "pieces, base generators and double-quotient maps are colinear and well-defined",
        failures,
    )
    al = triv.covering.pieces[0].comodule.system.alphabet
    one = NCPoly.one(al)
    zero = NCPoly.zero(al)
    ok1 = next(pair_differences(triv.covering, [one] * triv.covering.size), None) is None
    bad_tuple = [one] + [zero] * (triv.covering.size - 1)
    ok2 = next(pair_differences(triv.covering, bad_tuple), None) is None
    good = ok1 and (not ok2 if triv.covering.size > 1 else True)
    yield _check(
        "covering/membership",
        "compatible tuples pass, mismatched tuples are rejected with the difference",
        good,
        witness="" if good else "membership oracle inconsistent",
    )
    first = _glue_difference(triv, [one] * triv.covering.size, NCPoly.one(triv.hopf.system.alphabet))
    yield _check("covering/glue-unit", "the unit tuple glues", first is None, _incompatible(first))


def _glue_difference(triv: Trivialisation, base_tuple, fiber):
    """The first (i, j, difference) at which (b_i gamma_i(fiber))_i fails to
    glue, or None when it glues."""
    return next(pair_differences(triv.covering, piece_glue(triv, base_tuple, fiber)), None)


def _incompatible(first) -> str:
    return "" if first is None else "INCOMPATIBLE({},{}): difference {!r}".format(*first)


def _load_trivialisation(cfg: SuiteConfig):
    if cfg.covering is not None:
        return load_covering_file(cfg.covering, cfg.q)
    return builtin.sphere_covering()


def load_covering_file(path: str, q="formal"):
    """Covering JSON: {"base": builtin-name, "pieces": [{"kernel": [...],
    "cleaving": {...}}, ...], "base_gens": [[...], ...]}; the base built at
    q, and kernels/cleavings parsed over it with ``Q`` read as q.  A file of
    any other shape is a ConfigError, and so is one whose kernels need a
    non-unit inverse at formal q."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read covering file {path}: {e}")
    _check_covering_shape(path, doc)
    try:
        base = builtin.build(doc["base"], q)
    except builtin.UnknownNameError as e:
        raise ConfigError(f"covering file {path}: {e}")
    qv = builtin.q_value(q)
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
    kernels = [[_parse_file_poly(path, e, base.system.alphabet, qv) for e in piece.get("kernel", ())]
               for piece in doc["pieces"]]
    try:
        cov = Covering.from_kernels(base, kernels, base_gens=[tuple(b) for b in bg] if bg else None,
                                    name=doc.get("name", os.path.basename(path)))
    except UnitIdealError as e:  # a zero piece or pair target; no rule presents it
        raise ConfigError(f"covering file {path}: {e}")
    except NonUnitLeadError as e:
        raise ConfigError(f"covering file {path}: {e}; no formal-q rule presents it, read it at a fixed --q")
    # in a system whose rules conflict a nonzero normal form proves nothing
    # (Bergman's diamond lemma), so a conflict refuses the file
    systems = [(f"piece {i}", p.comodule.system) for i, p in enumerate(cov.pieces)]
    systems += [(f"pair ({i},{j})", d.target.system) for (i, j), d in cov.pairs.items()]
    for where, system in systems:
        try:
            conflicts = system.check_local_confluence(6).conflicts
        except SizeLimitError as e:
            raise ConfigError(f"covering file {path}: the quotient rules of {where} are too large to check: {e}")
        if conflicts:
            raise ConfigError(f"covering file {path}: the quotient rules of {where} conflict: {conflicts[0]!r}")
    cleavings = []
    for idx, piece in enumerate(doc["pieces"]):
        psys = cov.pieces[idx].comodule.system
        images = {g: _parse_file_poly(path, e, psys.alphabet, qv) for g, e in piece["cleaving"].items()}
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


def _parse_file_poly(path: str, expr: str, alphabet, qv) -> NCPoly:
    try:
        return parse_poly(expr, alphabet, qv)
    except ParseError as e:
        raise ConfigError(f"covering file {path}: cannot parse {expr!r}: {e}")


def suite_transition(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    triv = _load_trivialisation(cfg)
    yield _no_failures(
        "transition/laws",
        "T_ii = eta eps, T_ij * T_ji = eta eps, images coaction-invariant",
        triv.validate(),
    )
    claim = "the Z2 transition function is the base parity class (identity twisting)"
    if triv.covering.size > 1 and "u" in triv.hopf.system.alphabet.rank:
        tv = triv.transition(0, 1, ("u",))
        yield _check("transition/values", claim, not tv.is_zero(), witness=f"T_01(u) = {tv!r}")
    else:
        reason = "the covering has one piece" if triv.covering.size == 1 else "H has no generator u"
        yield CheckRecord("transition/values", claim, "undecided", f"no T_01(u): {reason}")


def suite_reduction_theorem(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    # the positive instance: prolonged sphere reduced back along the parity kernel
    pro = builtin.sphere_prolonged()
    yield _no_failures("reduction/prolong-certificates", "cotensor membership and imported relations", pro.report)
    J = builtin.u1_mod_z2_ideal()
    yield _no_failures("reduction/ideal-axioms", "the reducing ideal is a Hopf ideal", J.validate())
    witnesses = reducibility_check(pro.trivialisation, J)
    yield _no_failures(
        "reduction/sphere-instance",
        "transition functions annihilate the ideal and its base action vanishes",
        witnesses,
    )
    # both follow from part (a) of reducibility_check
    transition = [w for w in witnesses if w.check != "action-annihilates-base"]
    yield _no_failures(
        "reduction/transition-kills-ideal",
        "T_ij of every ideal generator is exactly zero",
        transition,
    )
    yield _no_failures(
        "reduction/coinvariant-compatibility",
        "the trivialisations agree on the coinvariant subalgebra through the double quotients",
        transition,
    )
    # the second positive instance: the quantum-group prolongation of the
    # Peter-Weyl patch reduces along the gamma kernel; its premises first
    ppro = builtin.patch_prolonged(cfg.q)
    pwitnesses = ppro.report + builtin.su_q2_to_u1_checks(cfg.q)
    pwitnesses += reducibility_check(ppro.trivialisation, builtin.su_gamma_ideal(cfg.q))
    yield _no_failures(
        "reduction/patch-instance",
        "the quantum-group prolongation of the patch reduces along the gamma kernel",
        pwitnesses,
    )
    # the obstructed instance: the quantum-plane frame bundle at generic q
    sm = builtin.plane_gl_smash(cfg.q)
    piece = CoveringPiece(sm, base_gens=("x", "y"))
    cov = Covering([piece], {}, name="frame-bundle-single-piece")
    triv = Trivialisation(cov, sm.hopf, [sm.cleaving()], name="frame")
    JG = builtin.gl_mod_det_ideal(cfg.q)
    witnesses = reducibility_check(triv, JG)
    expected_obstructed = cfg.q != 1
    yield _check(
        "reduction/frame-bundle-obstructed",
        "the determinant ideal acts nontrivially on the plane unless q^3 = 1",
        bool(witnesses) == expected_obstructed,
        witness=f"{witnesses[0]}" if witnesses else "",
    )
    # quotient identifications
    z2 = builtin.c_z2()
    qh, _ = builtin.u1_mod_z2_ideal().quotient()
    fails = generator_map_isomorphism_problems(
        qh, z2, {"u": z2.system.gen("u"), "ui": z2.system.gen("u")}, {"u": qh.system.gen("u")}
    )
    sl = builtin.sl_q2(cfg.q)
    qg, _ = builtin.gl_mod_det_ideal(cfg.q).quotient()
    abcd = ("a", "b", "c", "d")
    gm = {g: sl.system.gen(g) for g in abcd}
    gm["Di"] = sl.system.one()
    fails += generator_map_isomorphism_problems(qg, sl, gm, {g: qg.system.gen(g) for g in abcd})
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
    first = _glue_difference(triv, [one] * 3, u2)
    yield _check(
        "prolong/glue-even-fiber", "the even fiber power glues across all faces", first is None, _incompatible(first)
    )
    first = _glue_difference(triv, [one] * 3, NCPoly.gen(H.system.alphabet, "u"))
    yield _check(
        "prolong/odd-fiber-rejected",
        "the odd fiber power does not glue (nontriviality)",
        first is not None,
        "odd fiber glued but the bundle is nontrivial" if first is None else f"difference {first[2]!r}",
    )


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
    for _, _, lhs, rhs in S.mismatches():
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
        "sphere/splitting-identities", "the colinear splittings invert the charts", worst < TOL, residual=worst
    )
    worst = max(gauge_conjugation_report(cfg.grid).values())
    yield _check(
        "sphere/gauge-conjugation",
        "the gauge is involutive and conjugates the gluings to the swaps",
        worst < TOL,
        residual=worst,
    )
    fa = face_atlas([builtin.toeplitz_z2_smash().system.one()] * 3, cfg.grid)
    yield _check(
        "sphere/membership-and-faces",
        "glued tuples satisfy the cube conditions and all twelve edges match",
        fa["pass"],
        residual=fa["max_residual"],
    )


def suite_mattprop(cfg: SuiteConfig) -> Iterator[CheckRecord]:
    rep = mattprop_report(cfg.grid)
    for key in ("condition1_splitting", "condition1_kernel_image", "corner_identity", "condition2_residual"):
        yield _check(
            f"mattprop/{key}",
            "surjectivity-criterion condition holds on the sampled family",
            rep[key] < TOL,
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
    rep = equivariant_parity_probe(2, PARITY_TRIALS, cfg.grid)
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
    rep = peter_weyl_report(PETER_WEYL_SAMPLES, cfg.grid)
    for key in ("zero_identity", "cleaving_multiplicative", "line_bundle_equivariance"):
        yield _check(
            f"peter-weyl/{key}",
            "patch identity holds over the Monte-Carlo sample",
            rep[key] < TOL,
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
# the suites that read SuiteConfig.covering
COVERING_SUITES = ("covering", "transition")


def _suite_names(cfg: SuiteConfig) -> list[str]:
    """The suites ``cfg`` selects, after rejecting settings no suite can run."""
    if cfg.suite == "all":
        names = list(SUITES)
    elif cfg.suite in SUITES:
        names = [cfg.suite]
    else:
        hint = builtin.nearest_match_hint(cfg.suite, list(SUITES) + ["all"])
        raise ConfigError(f"unknown suite {cfg.suite!r}{hint}")
    if cfg.q == "cbrt1":
        # the builders compute at formal q or at an exact value; only the
        # obstruction reduces its result modulo q^2 + q + 1
        if names != ["frame-obstruction"]:
            raise ConfigError(f"q 'cbrt1' is computed by frame-obstruction alone, not by suite {cfg.suite!r}")
    else:
        try:
            builtin.q_value(cfg.q)
        except builtin.QValueError as e:
            raise ConfigError(str(e))
    # 8 | n puts the charts' quarter breakpoints on circle grid points, and the
    # interval grid holds both endpoints
    circle, interval = cfg.grid.n_circle, cfg.grid.m_interval
    if circle < 8 or circle % 8:
        raise ConfigError(f"grid_circle must be a positive multiple of 8, got {circle}")
    if interval < 2:
        raise ConfigError(f"grid_interval must be at least 2, got {interval}")
    if cfg.algebra is not None and not any(cfg.algebra in AXIOM_SUITES.get(n, ()) for n in names):
        takes = "; ".join(f"{n} takes {', '.join(b)}" for n, b in AXIOM_SUITES.items())
        raise ConfigError(f"suite {cfg.suite!r} checks no algebra {cfg.algebra!r} ({takes})")
    if cfg.covering is not None and not set(names) & set(COVERING_SUITES):
        raise ConfigError(f"suite {cfg.suite!r} reads no covering file (only {' and '.join(COVERING_SUITES)} do)")
    return names


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    t0 = time.monotonic()
    records: list[CheckRecord] = []
    for name in _suite_names(cfg):
        last = time.monotonic()
        body = SUITES[name][0](cfg)
        while True:
            with ledger() as entries:
                rec = next(body, None)
            if rec is None:
                break
            now = time.monotonic()
            rec.runtime_ms = (now - last) * 1000.0
            rec.seed = zlib.crc32(rec.id.encode()) & 0xFFFF
            rec.certificates = entries
            records.append(rec)
            last = now
    records.sort(key=lambda r: r.id)
    params = {
        "suite": cfg.suite,
        # "degree", "tol", "trunc", "trials" and "jobs" are constants: fixed
        # degree bounds, one numeric tolerance, no truncation, one parity
        # budget, suites run in turn.  The keys stay because the reports in
        # benchmark/reference/ hold them and canonical_json() must match them
        "degree": 4,
        "q": str(cfg.q),
        "grid_circle": cfg.grid.n_circle,
        "grid_interval": cfg.grid.m_interval,
        "tol": TOL,
        "trunc": 64,
        "seed": cfg.grid.seed,
        "trials": PARITY_TRIALS,
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
