"""Independent oracles used to freeze expected values: small hand-rolled models
that do not share code with the engine under test, exhaustive searches that
use only the engine's single rewriting step and normal form, the sampling
loops that exact certificates and precomputed tables replaced, the
degree-bounded axiom loops that the relation-plus-generator certificates
replaced, and the build-at-formal-q-then-substitute path that parsing at a
fixed q replaced."""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import lcm

import numpy as np

from pcomod import builtin
from pcomod.builtin import toeplitz_system
from pcomod.comodule import ComoduleAlgebra
from pcomod.hopf import CheckFailure, HopfAlgebra
from pcomod.ncpoly import NCPoly, word_str
from pcomod.numgeom import membership, probes
from pcomod.numgeom.circle import delta_angle, omega_hat
from pcomod.numgeom.grids import Z2, circle_angles
from pcomod.numgeom.toeplitz import _toeplitz_basis, random_toeplitz_poly, symbol
from pcomod.rewrite import Conflict, ConfluenceReport, RewriteSystem, SizeLimitError
from pcomod.scalars import S_ONE, S_ZERO, GaussRat, Scalar
from pcomod.tensors import Tensor


# ---------------------------------------------------------------------------
# Gaussian rationals as two Fractions (reference for scalars.GaussRat)
# ---------------------------------------------------------------------------

class FracGauss:
    """Gaussian rational re + im*i with one exact Fraction per part."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return FracGauss(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FracGauss(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return FracGauss(-self.re, -self.im)

    def __mul__(self, other):
        return FracGauss(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inv(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return FracGauss(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * other.inv()

    def conj(self):
        return FracGauss(self.re, -self.im)

    def __eq__(self, other):
        return isinstance(other, FracGauss) and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_real(self):
        return self.im == 0

    def to_complex(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*I" if self.im != 1 else "I"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "I" if mag == 1 else f"{mag}*I"
        return f"({self.re}{sign}{istr})"


def gauss_triple(re, im) -> tuple[int, int, int]:
    """(a, b, d) with (a + b*i)/d = re + im*i over the least common
    denominator, computed through Fraction whatever the input type."""
    re, im = Fraction(re), Fraction(im)
    d = lcm(re.denominator, im.denominator)
    return int(re * d), int(im * d), d


def gauss_rat(re, im) -> GaussRat:
    """The GaussRat holding gauss_triple(re, im), set without its constructor."""
    g = object.__new__(GaussRat)
    g.a, g.b, g.d = gauss_triple(re, im)
    return g


def frac_gauss_eval(coeffs, x):
    """Horner evaluation of sum_k coeffs[k] x^k."""
    out = FracGauss()
    for c in reversed(coeffs):
        out = out * x + c
    return out


def frac_gauss_rem(a, b):
    """Remainder of the coefficient list a (lowest degree first) by b, whose
    leading coefficient is nonzero; trailing zeros are dropped."""
    r = list(a)
    while r and not r[-1]:
        r.pop()
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        shift = len(r) - len(b)
        for i, x in enumerate(b):
            r[i + shift] = r[i + shift] - c * x
        while r and not r[-1]:
            r.pop()
    return r


# ---------------------------------------------------------------------------
# the order-two group algebra as a 2x2 table model
# ---------------------------------------------------------------------------

class Z2Model:
    """Functions on {+1, -1}: basis (1, u) with u the parity character."""

    basis = ("1", "u")

    @staticmethod
    def mul(i: int, j: int) -> int:
        return i ^ j  # u^i u^j = u^(i+j mod 2)

    @staticmethod
    def delta(i: int) -> list[tuple[int, int]]:
        return [(i, i)]  # group-likes

    @staticmethod
    def counit(i: int) -> int:
        return 1

    @staticmethod
    def antipode(i: int) -> int:
        return i


# ---------------------------------------------------------------------------
# Laurent model of the circle algebra
# ---------------------------------------------------------------------------

class LaurentModel:
    """Elements are dicts exponent -> Fraction; u = z, ui = z^-1."""

    @staticmethod
    def mul(a: dict, b: dict) -> dict:
        out: dict[int, Fraction] = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + c1 * c2
        return {k: c for k, c in out.items() if c}

    @staticmethod
    def antipode(a: dict) -> dict:
        return {-k: c for k, c in a.items()}

    @staticmethod
    def convolution_id_S(k: int) -> dict:
        # (id * S)(z^k) = z^k z^-k = 1
        return {0: Fraction(1)}


# ---------------------------------------------------------------------------
# quantum-plane normal form by inversion counting
# ---------------------------------------------------------------------------

def plane_normal_form(word: str) -> tuple[int, int, int]:
    """Word over {x, y}; returns (#x, #y, k) with the word equal to q^-k x^a y^b
    (each yx swap costs one inverse power of q)."""
    inversions = 0
    seen_y = 0
    for ch in word:
        if ch == "y":
            seen_y += 1
        elif ch == "x":
            inversions += seen_y
        else:
            raise ValueError(ch)
    return word.count("x"), word.count("y"), inversions


# ---------------------------------------------------------------------------
# Toeplitz word model: s^a ss^b with ss*s = 1
# ---------------------------------------------------------------------------

def toeplitz_normal_word(word: tuple[str, ...]) -> tuple[int, int]:
    """Stack model of the isometry relation: returns (a, b) with NF s^a ss^b."""
    a = b = 0
    for g in word:
        if g == "s":
            if b:
                b -= 1  # ss then s cancels: ss*s = 1 acts on the rightmost ss
            else:
                a += 1
        else:
            b += 1
    return a, b


# ---------------------------------------------------------------------------
# rewriting: exhaustive confluence search, every reduction path, path-by-path
# normal form
# ---------------------------------------------------------------------------

def brute_force_confluence(system, degree_bound: int) -> ConfluenceReport:
    """Brute-force: every canonical word up to the bound, every one-step reduct,
    all reducts must share one full normal form. Never throws on conflicts."""
    report = ConfluenceReport(degree_bound=degree_bound, words_checked=0)
    for w in system.all_words(degree_bound):
        reducts = system.one_step_reducts(w)
        if not reducts:
            continue
        report.words_checked += 1
        nfs = [system.normal_form(r) for r in reducts]
        first = nfs[0]
        for other in nfs[1:]:
            if other != first:
                report.conflicts.append(Conflict(w, first, other))
                break
    return report


def normal_forms_all_paths(system, word, cap: int = 2000) -> set:
    """The set of fully reduced forms reachable by *any* reduction strategy
    (as hashable term-sets). Exponential; small inputs only."""
    word = system.alphabet.canon(word)
    start = frozenset({(word, S_ONE)})
    seen = {start}
    frontier = [start]
    finals = set()
    while frontier:
        if len(seen) > cap:
            raise SizeLimitError("all-paths search exceeded cap")
        poly = frontier.pop()
        branched = False
        for w, c in poly:
            for step in system.one_step_reducts(w):
                branched = True
                acc = {ww: cc for ww, cc in poly if ww != w}
                for ww, cc in step.terms.items():
                    v = acc.get(ww, S_ZERO) + c * cc
                    if v.is_zero():
                        acc.pop(ww, None)
                    else:
                        acc[ww] = v
                nxt = frozenset(acc.items())
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if not branched:
            # fully reduced except possibly zone canon
            if system.suffix_system is not None:
                acc = system._zone_canon(dict(poly))
                finals.add(frozenset(acc.items()))
            else:
                finals.add(poly)
    return finals


def worklist_normal_form(system, word):
    """Normal form of a canonical word by following every leftmost reduction
    path to its leaf, one path at a time: the former ``_nf_word``, without the
    persistent cache, so that it shares no stored result with the engine."""
    acc = {}
    work = [(word, S_ONE)]
    while work:
        if len(work) + len(acc) > system.term_cap:
            raise SizeLimitError(f"term count exceeded cap {system.term_cap}")
        w, coeff = work.pop()
        m = system._match(w)
        if m is None:
            v = acc.get(w, S_ZERO) + coeff
            if v.is_zero():
                acc.pop(w, None)
            else:
                acc[w] = v
        else:
            rule, pos, nc, c = m
            for ww, cc in system._apply(rule, pos, nc, c):
                work.append((ww, coeff * cc))
    if system.suffix_system is not None:
        zoned = {}
        for w, coeff in acc.items():
            pre, suf = system._split_zone(w)
            suf = system.suffix_system.alphabet.canon(suf)
            for sw, sc in worklist_normal_form(system.suffix_system, suf).terms.items():
                v = zoned.get(pre + sw, S_ZERO) + coeff * sc
                if v.is_zero():
                    zoned.pop(pre + sw, None)
                else:
                    zoned[pre + sw] = v
        acc = zoned
        # a rewritten zone can match a main rule again: reduce the whole
        # result once more until it is a fixed point
        if any(system._match(w) is not None for w in acc):
            out = NCPoly(system.alphabet, {})
            for w, coeff in acc.items():
                out = out + worklist_normal_form(system, w).scale(coeff)
            return out
    return NCPoly(system.alphabet, acc)


# ---------------------------------------------------------------------------
# numgeom: the sampling loops the fast paths replaced
# ---------------------------------------------------------------------------

def random_decomposition_roundtrips(cfg, n_random: int, max_deg: int = 3) -> dict:
    """The Z2-decomposition round trips on n_random random disc triples drawn
    from cfg.rng(3): the sampling check that membership.decomposition_report
    replaced by its per-word certificate.  It calls the maps through the module
    so that a test can swap one of them for a mutant."""
    rng = cfg.rng(3)
    worst_fwd = 0.0
    worst_bwd = 0.0
    worst_split = 0.0
    for trial in range(n_random):
        n = 1 if trial % 2 == 0 else 2
        sign = 1 if trial % 4 < 2 else -1
        triple = [random_toeplitz_poly(rng, max_deg) for _ in range(3)]
        elt = membership.pi_n_inverse(triple, n, sign)
        back = membership.pi_n(elt, n)
        for p, q in zip(back, triple):
            if not (p - q).is_zero():
                worst_fwd = max(worst_fwd, symbol(p - q).sup_norm_bound())
        # the inverse lands in the +- eigenspace
        plus, minus = membership.equivariant_parts(elt)
        want_zero = minus if sign > 0 else plus
        for p0, p1 in want_zero.components:
            if not p0.is_zero() or not p1.is_zero():
                worst_split = max(
                    worst_split, symbol(p0).sup_norm_bound() + symbol(p1).sup_norm_bound()
                )
        # backward: on the eigenpart of a sphere element the inverse did not
        # build, legs (t0, t1), (t1, t2), (t2, t0)
        mixed = membership.SphereElement(list(zip(triple, triple[1:] + triple[:1])))
        x = membership.equivariant_parts(mixed)[0 if sign > 0 else 1]
        diffelt = membership.pi_n_inverse(membership.pi_n(x, n), n, sign).sub(x)
        for p0, p1 in diffelt.components:
            if not p0.is_zero() or not p1.is_zero():
                worst_bwd = max(
                    worst_bwd, symbol(p0).sup_norm_bound() + symbol(p1).sup_norm_bound()
                )
    ok = max(worst_fwd, worst_bwd, worst_split) < cfg.tol
    return {
        "forward_roundtrip": worst_fwd,
        "backward_roundtrip": worst_bwd,
        "eigenspace": worst_split,
        "pass": ok,
        "trials": n_random,
    }


def condition2_closures(rng, n_random: int) -> float:
    """Condition (2) of probes.mattprop_report by composing the circle-map
    closures (omega_hat, the Phi swaps) for every trial: the loop that
    probes._condition2_residual replaced by grid-only tables.  It draws the
    same random numbers in the same order."""
    worst_c2 = 0.0
    for _ in range(n_random):
        b = random_toeplitz_poly(rng, 3)
        Fb = symbol(b)
        g0, g1 = rng.normal(size=2)
        g = lambda cc: g0 + g1 * np.asarray(cc)
        # path A: pi^{01}_2 (pi^{02}_1)^{-1} pi^{20}_1 of [b (x) g]
        X = lambda aa, xx, cc: Fb.eval(delta_angle(1, aa, xx)) * g(cc)
        PhiX = lambda tt, aa, cc: X(cc, tt, aa)  # Phi_02 swap
        YA = {}
        for cval in (1.0, -1.0):
            f = lambda tt, kk, cv=cval: PhiX(tt, kk, cv)
            YA[cval] = omega_hat(2, f)
        ZA = lambda aa, xx, cc: np.where(
            np.asarray(cc) > 0, YA[1.0](delta_angle(1, aa, xx)), YA[-1.0](delta_angle(1, aa, xx))
        )
        # path B: pi^{10}_2 (pi^{12}_0)^{-1} pi^{21}_0 of [b (x) g]
        W = lambda tt, aa, cc: Fb.eval(delta_angle(2, aa, tt)) * g(cc)
        PhiW = lambda tt, aa, cc: W(tt, cc, aa)  # Phi_12 swap
        YB = {}
        for cval in (1.0, -1.0):
            f = lambda tt, kk, cv=cval: PhiW(tt, kk, cv)
            YB[cval] = omega_hat(2, f)
        SB = lambda aa, xx, cc: np.where(
            np.asarray(cc) > 0, YB[1.0](delta_angle(1, aa, xx)), YB[-1.0](delta_angle(1, aa, xx))
        )
        ZB = lambda aa, xx, cc: SB(cc, xx, aa)  # Phi_01 swap
        # compare the classes modulo C(Z2) (x) ker iota^* (x) C(Z2): evaluate at x = +-1
        aas = Z2[:, None, None]
        xs = np.array([1.0, -1.0])[None, :, None]
        cs = Z2[None, None, :]
        worst_c2 = max(worst_c2, float(np.max(np.abs(ZA(aas, xs, cs) - ZB(aas, xs, cs)))))
    return worst_c2


def per_entry_parity_probe(n: int, trials: int, cfg) -> tuple:
    """probes.equivariant_parity_probe with exp(i k theta) rebuilt for every
    matrix entry of every sampled loop: the loop the per-probe table replaced.
    It draws the same random numbers in the same order and returns the report
    with the determinant samples of every loop it handed to winding_number."""
    rng = cfg.rng(4)
    theta = circle_angles(cfg.n_circle)
    report = probes.ParityReport(size=n, trials=trials)
    dets_seen = []

    def eval_fourier(c):
        max_deg = (c.size - 1) // 2
        ks = np.arange(-max_deg, max_deg + 1)
        return np.tensordot(c, np.exp(1j * np.outer(ks, theta)), axes=(0, 0))

    def loop(first_row):
        other = "even" if first_row == "odd" else "any"
        while True:
            mats = np.zeros((theta.size, n, n), dtype=complex)
            for i in range(n):
                for j in range(n):
                    mats[:, i, j] = eval_fourier(probes.random_fourier_entry(rng, first_row if i == 0 else other))
            dets = np.linalg.det(mats)
            if np.min(np.abs(dets)) > 1e-3:
                return dets

    def sample(first_row):
        while True:
            dets = loop(first_row)
            dets_seen.append(dets)
            try:
                return probes.winding_number(dets)
            except probes.WindingError:
                report.resamples += 1

    report.windings = [sample("odd") for _ in range(trials)]
    report.control_windings = [sample("even") for _ in range(trials)]
    return report, dets_seen


def scalar_draw_toeplitz_poly(rng, max_deg: int, coeff_range: int = 3) -> NCPoly:
    """toeplitz.random_toeplitz_poly with two scalar draws per basis word, the
    real part first: the loop the one batched draw replaced."""
    alphabet = toeplitz_system().alphabet
    terms = {}
    for w in _toeplitz_basis(max_deg):
        re = int(rng.integers(-coeff_range, coeff_range + 1))
        im = int(rng.integers(-coeff_range, coeff_range + 1))
        if re or im:
            terms[w] = Scalar.of(gauss_rat(re, im))
    p = NCPoly(alphabet, terms)
    return p if not p.is_zero() else NCPoly.one(alphabet)


def fraction_circle_angles(n: int) -> np.ndarray:
    """grids.circle_angles through exact rationals: the loop the integer
    quotient replaced."""
    return np.array([2.0 * np.pi * float(Fraction(j, n)) for j in range(n)])


def fraction_phi_hat_grid(i: int, n: int) -> np.ndarray:
    """circle.phi_hat_grid through exact rationals: the loop the integer
    quotient replaced."""
    vals = []
    for j in range(n):
        if i == 1:
            m = min(j % n, (n - j) % n)
        else:
            jj = (j - n // 4) % n
            m = min(jj, n - jj)
        r = 2 - Fraction(8 * m, n)
        r = max(Fraction(-1), min(Fraction(1), r))
        vals.append(float(r))
    return np.array(vals)


def symbol_coefficients(rng, max_deg: int = 3) -> list[tuple[int, complex]]:
    """The ordered (k, complex) coefficients of the symbol of one
    random_toeplitz_poly draw, through the exact NCPoly and FourierPoly: what
    probes._condition2_residual folds from the integers of the draw."""
    return [(k, c.to_complex()) for k, c in symbol(random_toeplitz_poly(rng, max_deg)).coeffs.items()]


# ---------------------------------------------------------------------------
# q substituted after a formal build (reference for parsing at a fixed q)
# ---------------------------------------------------------------------------

def substituted_poly(p: NCPoly, qv: GaussRat) -> NCPoly:
    return NCPoly(p.alphabet, {w: c.substitute_q(qv) for w, c in p.terms.items()})


def substituted_system(system: RewriteSystem, qv: GaussRat) -> RewriteSystem:
    """A rewrite system built over Q(i)(q), with q set to qv in every rule and
    star image afterwards."""
    rules = [(r.lhs_word, substituted_poly(r.rhs, qv)) for r in system.rules]
    star = (
        {g: substituted_poly(p, qv) for g, p in system.star_table.items()}
        if system.star_table
        else None
    )
    suffix = substituted_system(system.suffix_system, qv) if system.suffix_system else None
    return RewriteSystem(
        system.alphabet,
        rules,
        star=star,
        name=f"{system.name}@q",
        term_cap=system.term_cap,
        suffix_system=suffix,
        scalar_tower=system.scalar_tower,
    )


def substituted_hopf(H: HopfAlgebra, qv: GaussRat) -> HopfAlgebra:
    qs = substituted_system(H.system, qv)
    delta = {
        g: Tensor((qs, qs), {k: c.substitute_q(qv) for k, c in t.terms.items()})
        for g, t in H.delta_table.items()
    }
    counit = {g: c.substitute_q(qv) for g, c in H.counit_table.items()}
    antipode = {g: substituted_poly(p, qv) for g, p in H.antipode_table.items()}
    antipode_inv = {g: substituted_poly(p, qv) for g, p in H.antipode_inv_table.items()}
    return HopfAlgebra(qs, delta, counit, antipode, antipode_inv, name=f"{H.name}@q")


def substituted_build(name: str, qv: GaussRat):
    """builtin.build(name) at formal q, then q set to qv in every table."""
    obj = builtin.build(name)
    if isinstance(obj, HopfAlgebra):
        return substituted_hopf(obj, qv)
    return substituted_system(obj, qv)


def substituted_plane_action(qv: GaussRat) -> dict:
    return {key: substituted_poly(p, qv) for key, p in builtin.plane_action_table().items()}


# ---------------------------------------------------------------------------
# linear and multiplicative extension of word maps (reference for
# tensors.linear_image and the memoised LinearMap.apply_word)
# ---------------------------------------------------------------------------

def summed_image(p: NCPoly, f, zero):
    """Sum of c*f(w) over the terms c*w of p, one full `+` per term."""
    out = zero
    for w, c in p.terms.items():
        out = out + f(w).scale(c)
    return out


def multiplied_word_image(system: RewriteSystem, images: dict, w, anti: bool) -> NCPoly:
    """The product of the generator images along w (reversed when anti), left
    to right in ``system``, with nothing cached."""
    out = system.one()
    for g in (reversed(w) if anti else w):
        out = system.mul(out, images[g])
    return out


# ---------------------------------------------------------------------------
# the axioms on every basis word up to a degree bound (reference for the
# relation-plus-generator certificates of check_hopf_axioms and
# ComoduleAlgebra.check_axioms)
# ---------------------------------------------------------------------------

def bounded_hopf_axioms(H: HopfAlgebra, bound: int) -> list[CheckFailure]:
    """Coassociativity, counit law, antipode law, antipode invertibility and
    the anti-coalgebra property of S on every normal-form word up to the
    bound. Checks no relation, so a coproduct that is no algebra map on the
    quotient passes."""
    failures: list[CheckFailure] = []
    sysm = H.system
    one = sysm.one()
    word = partial(NCPoly.word, sysm.alphabet)
    for w in sysm.basis_words(bound):
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
    return failures


def bounded_coaction_axioms(P: ComoduleAlgebra, bound: int) -> list[CheckFailure]:
    """The coaction on both sides of every rewrite rule (not the centrality
    pairs), then coassociativity and the counit law on every normal-form word
    up to the bound."""
    failures = []
    H = P.hopf
    for rule in P.system.rules:
        lhs = P.coact_word(rule.lhs_word)
        rhs = P.coact(rule.rhs)
        if lhs != rhs:
            failures.append(
                CheckFailure("coaction-well-defined", word_str(rule.lhs_word), f"{lhs!r} != {rhs!r}")
            )
    for w in P.system.basis_words(bound):
        ws = word_str(w)
        d = P.coact_word(w)
        lhs = d.expand_leg(0, P.coact_word)
        rhs = d.expand_leg(1, H.delta_word)
        if lhs != rhs:
            failures.append(CheckFailure("coaction-coassociativity", ws, f"{lhs!r} != {rhs!r}"))
        ce = d.contract_leg(1, H.counit_word).leg_poly(0)
        wp = P.system.normal_form(NCPoly.word(P.system.alphabet, w))
        if ce != wp:
            failures.append(CheckFailure("coaction-counit", ws, f"{ce!r} != {wp!r}"))
    return failures
