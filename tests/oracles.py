"""Independent oracles used to freeze expected values: small hand-rolled models
that do not share code with the engine under test, exhaustive searches that
find redexes by their own scan of the rules, take each rewriting step
themselves and use only the engine's normal form, the sampling loops that
exact certificates and precomputed tables replaced, the trial-at-a-time
loops that one array pass per block of trials replaced, the per-check
copies of the three gluings that one table replaced, the product loops and
the composition that the memoised
algebra maps (Delta, the coactions, the prolongation dictionary, j o S)
replaced, the three-slot decomposition loop that the one-slot certificate
replaced, the degree-bounded axiom, cleaving and transition-law loops that
the relation-plus-generator certificates replaced, the rank loop that the
inverse on generators replaced in the quotient isomorphisms, the coinvariant
compatibility loop that part (a) of reducibility_check replaced, the
quantum plane's degree-6 units loop that its one-rule certificate replaced, the
generic reduction-data check of a map theta that the frame-bundle obstruction's
one commutation failure replaced, the strong-connection tables
that the memoised word maps replaced, the build-at-formal-q-then-substitute path that
parsing at a fixed q replaced, and a tree walk of the expression grammar by
NCPoly arithmetic that the parser is checked against, and the three
former builders of B (x) H presentations that ``smash_product`` replaced.  It also holds the
helpers only tests call: the presentation dumper, the expression-tree
renderer, eta o eps, the group-like basis words, the identity and
the convolution tabulated on basis words, q substituted into a scalar, a
symbol evaluated at points z, the exact Laurent symbol, random Toeplitz
*-polynomials, a T (x) C(Z2) slot built from its two u-parts by the smash
product and read back into them, the chart delta_i as a point of the
circle, and the truncated Toeplitz matrices."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import permutations
from math import lcm

import numpy as np

from pcomod import builtin, rewrite
from pcomod.builtin import toeplitz_system
from pcomod.comodule import ActionData, CleavingMap, ComoduleAlgebra
from pcomod.exprs import ParseError
from pcomod.hopf import CheckFailure, HopfAlgebra, HopfIdeal
from pcomod.linalg import RowSpace
from pcomod.maps import LinearMap, NotWellDefinedError, gens_map
from pcomod.ncpoly import Alphabet, NCPoly, Word, word_str
from pcomod.numgeom import membership, probes
from pcomod.numgeom.circle import (
    delta_angle,
    gauge_pullback,
    iota_z2_pushforward,
    phi_hat,
    phi_tilde_pullback,
)
from pcomod.numgeom.circle import phi_gauged_pullback as circle_phi_gauged_pullback
from pcomod.numgeom.grids import TOL, Z2, GridConfig, circle_angles, interval_nodes
from pcomod.numgeom.toeplitz import _basis_degrees, _toeplitz_basis, symbol
from pcomod.rewrite import Conflict, ConfluenceReport, RewriteSystem, SizeLimitError
from pcomod.scalars import GR_ZERO, P_ONE, S_ONE, S_ZERO, GaussRat, Scalar, ScalarError
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

def scanned_one_step_reducts(system, word) -> list[NCPoly]:
    """Every single rewriting step applicable to the word, found by scanning
    ``system.rules`` in index order rather than the engine's index of them:
    central-only rules first, then every start position of the noncentral
    part, rules in index order at each start.  Each step is written out
    here: the left side's letters give way to each right-side word in
    place, and the central letters it does not use stay."""
    a = system.alphabet
    word = a.canon(word)
    nc, c = a.split_central(word)
    cc = Counter(c)

    def holds_central(r) -> bool:
        return all(cc[g] >= k for g, k in Counter(r.lhs_central).items())

    def step(r, i: int) -> NCPoly:
        rest = tuple((cc - Counter(r.lhs_central)).elements())
        right = nc[i + len(r.lhs_nc):]
        return NCPoly(a, dict((a.canon(nc[:i] + w + right + rest), k) for w, k in r.rhs.terms.items()))

    outs = [step(r, 0) for r in system.rules if not r.lhs_nc and holds_central(r)]
    for i in range(len(nc)):
        outs += [
            step(r, i)
            for r in system.rules
            if r.lhs_nc and nc[i : i + len(r.lhs_nc)] == r.lhs_nc and holds_central(r)
        ]
    return outs


def brute_force_confluence(system, degree_bound: int) -> ConfluenceReport:
    """Brute-force: every canonical word up to the bound, every one-step reduct,
    all reducts must share one full normal form. Never throws on conflicts."""
    report = ConfluenceReport(degree_bound=degree_bound, words_checked=0)
    for w in system.all_words(degree_bound):
        reducts = scanned_one_step_reducts(system, w)
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


def oriented_extension(system, gens) -> RewriteSystem:
    """The quotient by the ideal of ``gens`` as ``extend_by_ideal`` built it
    before it interreduced: each normalised nonzero generator oriented by its
    leading word into one more rule after the system's own."""
    rules = [(r.lhs_word, r.rhs) for r in system.rules]
    for g in map(system.normal_form, gens):
        if not g.is_zero():
            lead = g.leading_word()
            rest = NCPoly(g.alphabet, {w: c for w, c in g.terms.items() if w != lead})
            rules.append((lead, rest.scale(-(g.terms[lead].inv()))))
    return RewriteSystem(system.alphabet, rules, star=system.star_table, suffix_system=system.suffix_system)


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
            for step in scanned_one_step_reducts(system, w):
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
        if len(work) + len(acc) > rewrite.TERM_CAP:
            raise SizeLimitError(f"term count exceeded cap {rewrite.TERM_CAP}")
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

def decomposition_three_slot_loop() -> dict:
    """membership.decomposition_report with each (word, n, sign) case run on
    three identical slots, [word] * 3, as it was before one slot stood for
    all three.  It calls the maps through the module so that a test can swap
    one of them for a mutant."""
    alphabet = toeplitz_system().alphabet
    zero = NCPoly.zero(alphabet)
    worst_fwd = worst_bwd = worst_split = 0.0
    exact = True
    cases = 0
    for w in _toeplitz_basis(3):
        word = NCPoly(alphabet, {w: S_ONE})
        triple = [word] * 3
        legs = [
            [membership.equivariant_parts(p) for p in [leg] * 3]
            for leg in (z2_smash_slot(word, zero), z2_smash_slot(zero, word))
        ]
        for n, sign in ((1, 1), (2, 1), (1, -1), (2, -1)):
            cases += 3
            elt = [membership.pi_n_inverse(p, n, sign) for p in triple]
            back = [membership.pi_n(x, n) for x in elt]
            split = [membership.equivariant_parts(x)[1 if sign > 0 else 0] for x in elt]
            eigen = [parts[0 if sign > 0 else 1] for leg in legs for parts in leg]
            misses = [membership.pi_n_inverse(membership.pi_n(x, n), n, sign) - x for x in eigen]
            if back == triple and all(x.is_zero() for x in split) and all(m.is_zero() for m in misses):
                continue
            exact = False
            worst_fwd = max([worst_fwd] + [symbol(p - q).sup_norm_bound() for p, q in zip(back, triple)])
            worst_split = max([worst_split] + [_legs_bound(x) for x in split])
            worst_bwd = max([worst_bwd] + [_legs_bound(m) for m in misses])
    return {
        "forward_roundtrip": worst_fwd,
        "backward_roundtrip": worst_bwd,
        "eigenspace": worst_split,
        "pass": exact,
        "cases": cases,
    }


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
        elt = [membership.pi_n_inverse(p, n, sign) for p in triple]
        back = [membership.pi_n(x, n) for x in elt]
        for p, q in zip(back, triple):
            if not (p - q).is_zero():
                worst_fwd = max(worst_fwd, symbol(p - q).sup_norm_bound())
        # the inverse lands in the +- eigenspace
        for x in elt:
            want_zero = membership.equivariant_parts(x)[1 if sign > 0 else 0]
            if not want_zero.is_zero():
                worst_split = max(worst_split, _legs_bound(want_zero))
        # backward: on the eigenpart of a sphere element the inverse did not
        # build, slots t0 + t1 u, t1 + t2 u, t2 + t0 u
        for p0, p1 in zip(triple, triple[1:] + triple[:1]):
            x = membership.equivariant_parts(z2_smash_slot(p0, p1))[0 if sign > 0 else 1]
            diff = membership.pi_n_inverse(membership.pi_n(x, n), n, sign) - x
            if not diff.is_zero():
                worst_bwd = max(worst_bwd, _legs_bound(diff))
    ok = max(worst_fwd, worst_bwd, worst_split) < TOL
    return {
        "forward_roundtrip": worst_fwd,
        "backward_roundtrip": worst_bwd,
        "eigenspace": worst_split,
        "pass": ok,
    }


def z2_parts(f, flip_first: bool):
    """Even/odd parts of f in its Z2 slot; f is a callable of (k, t) or (t, k)."""
    if flip_first:
        h0 = lambda t: 0.5 * (f(1.0, t) + f(-1.0, t))
        h1 = lambda t: 0.5 * (f(1.0, t) - f(-1.0, t))
    else:
        h0 = lambda t: 0.5 * (f(t, 1.0) + f(t, -1.0))
        h1 = lambda t: 0.5 * (f(t, 1.0) - f(t, -1.0))
    return h0, h1


def z2_parts_omega_hat(i: int, f):
    """circle.omega_hat through the closure pair z2_parts, which calls f twice
    at each point of Z2 per evaluation: the splitting that calls it once
    replaced."""
    if i == 1:
        h0, h1 = z2_parts(f, flip_first=True)
        return lambda th: h0(phi_hat(2, th)) + phi_hat(1, th) * h1(phi_hat(2, th))
    h0, h1 = z2_parts(f, flip_first=False)
    return lambda th: h0(phi_hat(1, th)) + phi_hat(2, th) * h1(phi_hat(1, th))


def condition2_closures(rng, n_random: int) -> float:
    """Condition (2) of probes.mattprop_report by composing the circle-map
    closures (z2_parts_omega_hat, the Phi swaps) for every trial: the loop that
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
            YA[cval] = z2_parts_omega_hat(2, f)
        ZA = lambda aa, xx, cc: np.where(
            np.asarray(cc) > 0, YA[1.0](delta_angle(1, aa, xx)), YA[-1.0](delta_angle(1, aa, xx))
        )
        # path B: pi^{10}_2 (pi^{12}_0)^{-1} pi^{21}_0 of [b (x) g]
        W = lambda tt, aa, cc: Fb.eval(delta_angle(2, aa, tt)) * g(cc)
        PhiW = lambda tt, aa, cc: W(tt, cc, aa)  # Phi_12 swap
        YB = {}
        for cval in (1.0, -1.0):
            f = lambda tt, kk, cv=cval: PhiW(tt, kk, cv)
            YB[cval] = z2_parts_omega_hat(2, f)
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


# The trial-at-a-time sampling loops that one array pass per block of trials
# replaced, with the per-trial np.interp closure they interpolated through.

def interp_fn(samples: np.ndarray, nodes: np.ndarray):
    """np.interp of one row of samples on the node grid, complex rows part by
    part: the closure circle.interval_fn replaced."""
    samples = np.asarray(samples)
    if np.iscomplexobj(samples):
        re = samples.real.copy()
        im = samples.imag.copy()
        return lambda t: np.interp(t, nodes, re) + 1j * np.interp(t, nodes, im)
    s = samples.copy()
    return lambda t: np.interp(t, nodes, s)


def splitting_identities_loop(cfg, n_random: int = 32) -> dict:
    """circle.splitting_identities_report one trial at a time."""
    rng = cfg.rng(1)
    nodes = interval_nodes(cfg.m_interval)
    t = nodes
    k = Z2[:, None]
    worst = {"split1": 0.0, "split2": 0.0, "mixed1": 0.0, "mixed2": 0.0, "unital": 0.0}
    one = z2_parts_omega_hat(1, lambda kk, tt: np.ones_like(np.asarray(kk) * np.asarray(tt)))
    worst["unital"] = float(np.max(np.abs(one(circle_angles(cfg.n_circle)) - 1.0)))
    for _ in range(n_random):
        h0 = interp_fn(rng.normal(size=cfg.m_interval) + 1j * rng.normal(size=cfg.m_interval), nodes)
        h1 = interp_fn(rng.normal(size=cfg.m_interval) + 1j * rng.normal(size=cfg.m_interval), nodes)
        f1 = lambda kk, tt: h0(tt) + np.asarray(kk) * h1(tt)
        F = z2_parts_omega_hat(1, f1)
        back = delta_pullback(1, F)
        worst["split1"] = max(worst["split1"], float(np.max(np.abs(back(k, t[None, :]) - f1(k, t[None, :])))))
        g = delta_pullback(2, F)
        want = lambda tt, kk: iota_z2_pushforward(lambda x: np.ones_like(np.asarray(x)))(tt) * h0(
            np.asarray(kk, dtype=float)
        ) + iota_z2_pushforward(lambda x: np.asarray(x, dtype=float))(tt) * h1(np.asarray(kk, dtype=float))
        worst["mixed1"] = max(
            worst["mixed1"],
            float(np.max(np.abs(g(t[:, None], Z2[None, :]) - want(t[:, None], Z2[None, :])))),
        )
        f2 = lambda tt, kk: h0(tt) + np.asarray(kk) * h1(tt)
        F2 = z2_parts_omega_hat(2, f2)
        back2 = delta_pullback(2, F2)
        worst["split2"] = max(
            worst["split2"], float(np.max(np.abs(back2(t[:, None], Z2[None, :]) - f2(t[:, None], Z2[None, :]))))
        )
        g2 = delta_pullback(1, F2)
        want2 = lambda kk, tt: h0(np.asarray(kk, dtype=float)) + h1(np.asarray(kk, dtype=float)) * np.asarray(tt)
        worst["mixed2"] = max(
            worst["mixed2"],
            float(np.max(np.abs(g2(k, t[None, :]) - want2(k, t[None, :])))),
        )
    return worst


def gauge_conjugation_loop(cfg, n_random: int = 200) -> dict:
    """circle.gauge_conjugation_report with the involution sampled one trial
    at a time, on n_random random functions F as F o g o g - F, where the
    report certifies it on the point map."""
    rng = cfg.rng(2)
    t = interval_nodes(cfg.m_interval)
    a = Z2[:, None, None]
    tt = t[None, :, None]
    c = Z2[None, None, :]
    out = {"involution": 0.0, "sigma_conj": 0.0, "phi_closed_form": 0.0}
    for _ in range(n_random):
        h0 = interp_fn(rng.normal(size=cfg.m_interval), t)
        h1 = interp_fn(rng.normal(size=cfg.m_interval), t)
        e0, e1, e2, e3 = rng.normal(size=4)
        F = lambda aa, xx, cc: (e0 + e1 * aa) * h0(xx) + (e2 + e3 * aa) * h1(xx) * cc
        g = lambda aa, xx, cc: F(aa * cc, cc * xx, cc)
        gg = lambda aa, xx, cc: g(aa * cc, cc * xx, cc)
        out["involution"] = max(out["involution"], float(np.max(np.abs(gg(a, tt, c) - F(a, tt, c)))))
    for _ in range(max(4, n_random // 40)):
        p = random_toeplitz_poly(rng, 3)
        Fp = symbol(p)
        ang = lambda kk, xx: delta_angle(1, kk, xx)
        for u_deg in (0, 1):
            X = lambda aa, xx, cc: Fp.eval(ang(aa, xx)) * (cc**u_deg)
            gX = gauge_pullback(X)
            src = lambda zz, cc: fourier_eval_at(Fp, zz) * (cc**u_deg)
            Y = lambda aa, xx, cc: src(cc * np.exp(1j * ang(aa, xx)), cc)
            out["sigma_conj"] = max(out["sigma_conj"], float(np.max(np.abs(gX(a, tt, c) - Y(a, tt, c)))))
            conj = gauge_pullback(phi_tilde_pullback(gauge_pullback(X)))
            closed = circle_phi_gauged_pullback(X)
            out["phi_closed_form"] = max(
                out["phi_closed_form"], float(np.max(np.abs(conj(a, tt, c) - closed(a, tt, c))))
            )
    return out


def condition1_loop(rng, nodes: np.ndarray) -> tuple[float, float]:
    """probes._condition1_residuals one trial at a time."""
    worst_split = 0.0
    worst_kernel = 0.0
    for _ in range(24):
        vals = rng.normal(size=nodes.size) + 1j * rng.normal(size=nodes.size)
        vals[0] = vals[-1] = 0.0
        h = interp_fn(vals, nodes)
        for e0, e1 in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.4)):
            f1 = lambda kk, tt: (e0 + e1 * np.asarray(kk)) * h(tt)
            F = z2_parts_omega_hat(1, f1)
            back = delta_pullback(1, F)
            k = Z2[:, None]
            t = nodes[None, :]
            worst_split = max(worst_split, float(np.max(np.abs(back(k, t) - f1(k, t)))))
            other = delta_pullback(2, F)
            worst_kernel = max(worst_kernel, float(np.max(np.abs(other(nodes[:, None], Z2[None, :])))))
            f2 = lambda tt, kk: (e0 + e1 * np.asarray(kk)) * h(tt)
            G = z2_parts_omega_hat(2, f2)
            back2 = delta_pullback(2, G)
            worst_split = max(
                worst_split,
                float(np.max(np.abs(back2(nodes[:, None], Z2[None, :]) - f2(nodes[:, None], Z2[None, :])))),
            )
            other2 = delta_pullback(1, G)
            worst_kernel = max(worst_kernel, float(np.max(np.abs(other2(k, t)))))
    return worst_split, worst_kernel


def corner_identity_loop(rng, trials: int = 16) -> float:
    """probes._corner_residual one random_toeplitz_poly at a time, its symbol
    evaluated by FourierPoly.eval at the corner angles of both sides."""
    k1 = Z2[:, None]
    k2 = Z2[None, :]
    worst = 0.0
    for _ in range(trials):
        F = symbol(random_toeplitz_poly(rng, 3))
        lhs = F.eval(delta_angle(1, k1, k2.astype(float)))  # (id x iota^*) delta_1^*
        rhs = F.eval(delta_angle(2, k2, k1.astype(float)))  # (iota^* x id) delta_2^*
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def exact_laurent_symbol(p: NCPoly) -> dict[int, Scalar]:
    """The symbol s -> z, ss -> 1/z of p as {k: Scalar}, summed degree by degree."""
    out: dict[int, Scalar] = {}
    for w, c in p.terms.items():
        k = w.count("s") - w.count("ss")
        out[k] = out.get(k, S_ZERO) + c
    return out


def symbol_products_residual(system: RewriteSystem, rng, n: int = 50) -> float:
    """The symbol map's multiplicativity on n random products of degree-<=3
    Toeplitz elements, multiplied in ``system`` and compared with the exact
    Laurent product of the factors' symbols: the loop the relation certificate
    of the quantum-rp2 suite replaced.  The worst sum of |c| over a difference."""
    worst = 0.0
    for _ in range(n):
        p = random_toeplitz_poly(rng, 3)
        q = random_toeplitz_poly(rng, 3)
        diff = exact_laurent_symbol(system.mul(p, q))
        sq = exact_laurent_symbol(q)
        for k1, c1 in exact_laurent_symbol(p).items():
            for k2, c2 in sq.items():
                diff[k1 + k2] = diff.get(k1 + k2, S_ZERO) - c1 * c2
        worst = max(worst, sum(abs(c.to_complex()) for c in diff.values()))
    return worst


# The three gluings written out once per membership check, with string-keyed
# point maps and the exact symbol rebuilt on every evaluation: the copies that
# membership.GLUINGS replaced.

def psi_point(ij: str, *args):
    """Point maps whose pullbacks are the base gluings Psi_ij."""
    if ij == "01":  # C(Z2)xC(I) -> C(Z2)xC(I), pullback of (k,t) -> (k, kt)
        k, t = args
        return (k, k * t)
    if ij == "02":  # pullback sends F in C(Z2)xC(I) to (t,k) -> F(k, kt)
        t, k = args
        return (k, k * t)
    if ij == "12":  # C(I)xC(Z2) -> C(I)xC(Z2): (t,k) -> (kt, k)
        t, k = args
        return (k * t, k)
    raise ValueError(ij)


def psi_pullback(ij: str, F):
    if ij == "01":
        return lambda k, t: F(*psi_point("01", k, t))
    if ij == "02":
        return lambda t, k: F(*psi_point("02", t, k))
    return lambda t, k: F(*psi_point("12", t, k))


def phi_gauged_pullback(ij: str, F):
    """The gauged gluings: Phi_01(h (x) p (x) k) = k (x) p (x) h etc."""
    if ij == "01":
        return lambda a, t, c: F(c, t, a)
    if ij == "02":
        return lambda t, a, c: F(c, t, a)
    if ij == "12":
        return lambda t, a, c: F(t, c, a)
    raise ValueError(ij)


def _sigma_eval(p: NCPoly, i: int, k, t) -> np.ndarray:
    """sigma_i(p) evaluated on the grids (exact symbol, exact chart angles)."""
    return symbol(p).eval(delta_angle(i, k, t))


def z2_smash_slot(p0: NCPoly, p1: NCPoly) -> NCPoly:
    """p0 (x) 1 + p1 (x) u in T (x) C(Z2) for Toeplitz polynomials p0 and p1,
    built by the product of ``builtin.toeplitz_z2_smash``."""
    S = builtin.toeplitz_z2_smash().system
    return NCPoly(S.alphabet, p0.terms) + S.mul(NCPoly(S.alphabet, p1.terms), NCPoly.gen(S.alphabet, "u"))


def u_legs(p: NCPoly) -> tuple[NCPoly, NCPoly]:
    """(p0, p1) with p = p0 (x) 1 + p1 (x) u, for p in T (x) C(Z2) normal form:
    the words without u, and the words ending in u without it."""
    al = toeplitz_system().alphabet
    return (
        NCPoly(al, {w: c for w, c in p.terms.items() if "u" not in w}),
        NCPoly(al, {w[:-1]: c for w, c in p.terms.items() if "u" in w}),
    )


def _legs_bound(p: NCPoly) -> float:
    p0, p1 = u_legs(p)
    return symbol(p0).sup_norm_bound() + symbol(p1).sup_norm_bound()


def _component_eval(pair, i: int, a, t, c) -> np.ndarray:
    """(sigma_i (x) id) of p0 (x) 1 + p1 (x) u, evaluated at (a, t, c) or (t, a, c)."""
    p0, p1 = pair
    return _sigma_eval(p0, i, a, t) + _sigma_eval(p1, i, a, t) * c


def rp2_membership(tup, cfg) -> tuple[bool, float]:
    """The three defining identifications of the quantum projective plane:
    sigma_1(t0) = Psi_01 sigma_1(t1), sigma_2(t0) = Psi_02 sigma_1(t2),
    sigma_2(t1) = Psi_12 sigma_2(t2)."""
    x = interval_nodes(cfg.m_interval)[None, :]
    k = Z2[:, None]
    F1 = {i: (lambda p: (lambda kk, tt: _sigma_eval(p, 1, kk, tt)))(p) for i, p in enumerate(tup)}
    F2 = {i: (lambda p: (lambda tt, kk: _sigma_eval(p, 2, kk, tt)))(p) for i, p in enumerate(tup)}
    r = 0.0
    r = max(r, float(np.max(np.abs(F1[0](k, x) - psi_pullback("01", F1[1])(k, x)))))
    xx = x.T
    kk = Z2[None, :]
    r = max(r, float(np.max(np.abs(F2[0](xx, kk) - psi_pullback("02", F1[2])(xx, kk)))))
    r = max(r, float(np.max(np.abs(F2[1](xx, kk) - psi_pullback("12", F2[2])(xx, kk)))))
    return r < TOL, r


def sphere_membership(slots, cfg) -> tuple[bool, float]:
    """The gauged gluing conditions of the quantum-sphere triple pullback."""
    x = interval_nodes(cfg.m_interval)
    a = Z2[:, None, None]
    t = x[None, :, None]
    c = Z2[None, None, :]
    c0, c1, c2 = map(u_legs, slots)
    r = 0.0
    # (sigma_1 x id)(c0)(a,t,c) = (sigma_1 x id)(c1) after Phi_01 swap (c,t,a)
    lhs = _component_eval(c0, 1, a, t, c)
    rhs = phi_gauged_pullback("01", lambda A, T, C: _component_eval(c1, 1, A, T, C))(a, t, c)
    r = max(r, float(np.max(np.abs(lhs - rhs))))
    # (sigma_2 x id)(c0)(t,a,c) = Phi_02 (sigma_1 x id)(c2)
    lhs2 = _sigma_eval(c0[0], 2, a, t) + _sigma_eval(c0[1], 2, a, t) * c
    rhs2 = phi_gauged_pullback("02", lambda A, T, C: _component_eval(c2, 1, A, T, C))(t, a, c)
    r = max(r, float(np.max(np.abs(lhs2 - rhs2))))
    # (sigma_2 x id)(c1)(t,a,c) = Phi_12 (sigma_2 x id)(c2)
    lhs3 = _sigma_eval(c1[0], 2, a, t) + _sigma_eval(c1[1], 2, a, t) * c
    rhs3 = phi_gauged_pullback(
        "12", lambda T, A, C: _sigma_eval(c2[0], 2, A, T) + _sigma_eval(c2[1], 2, A, T) * C
    )(t, a, c)
    r = max(r, float(np.max(np.abs(lhs3 - rhs3))))
    return r < TOL, r


def disc_membership(tup, cfg) -> tuple[bool, float]:
    """The quantum-disc triple: boundary edges glued along three interval maps."""
    p0, p1, p2 = tup
    x = interval_nodes(cfg.m_interval)
    r = 0.0
    r = max(r, float(np.max(np.abs(_sigma_eval(p0, 1, -1.0, x) - _sigma_eval(p1, 1, -1.0, x)))))
    r = max(r, float(np.max(np.abs(_sigma_eval(p0, 2, -1.0, x) - _sigma_eval(p2, 1, -1.0, x)))))
    r = max(r, float(np.max(np.abs(_sigma_eval(p1, 2, -1.0, x) - _sigma_eval(p2, 2, -1.0, x)))))
    return r < TOL, r


def face_atlas(slots, cfg) -> dict:
    """The twelve edge identifications (the three gluing conditions at the
    four Z2 x Z2 corners), each gluing written out by its own key."""
    x = interval_nodes(cfg.m_interval)
    edges = {}
    c0, c1, c2 = map(u_legs, slots)
    pair_of = {"01": (c0, c1), "02": (c0, c2), "12": (c1, c2)}
    sig_of = {"01": (1, 1), "02": (2, 1), "12": (2, 2)}
    for key in ("01", "02", "12"):
        left, right = pair_of[key]
        si, sj = sig_of[key]
        for a in (1.0, -1.0):
            for c in (1.0, -1.0):
                lhs = _sigma_eval(left[0], si, a, x) + _sigma_eval(left[1], si, a, x) * c
                rhs = _sigma_eval(right[0], sj, c, x) + _sigma_eval(right[1], sj, c, x) * a
                edges[(key, int(a), int(c))] = float(np.max(np.abs(lhs - rhs)))
    worst = max(edges.values())
    return {"edges": edges, "max_residual": worst, "pass": worst < TOL}


class WindingError(RuntimeError):
    pass


def winding_number(dets: np.ndarray) -> int:
    """Accumulated phase of one sampled loop of determinants divided by 2 pi,
    raising WindingError('SINGULAR...') if a sample is below
    probes.SINGULAR_TOL in modulus and WindingError('DENSITY...') if a phase
    jump reaches probes.MAX_PHASE_JUMP: the loop-at-a-time reading that
    probes.winding_numbers replaced."""
    dets = np.asarray(dets)
    small = np.abs(dets) < probes.SINGULAR_TOL
    if np.any(small):
        raise WindingError(f"SINGULAR at sample {int(np.argmax(small))}")
    closed = np.concatenate([dets, dets[:1]])
    jumps = np.angle(closed[1:] / closed[:-1])
    if np.max(np.abs(jumps)) >= probes.MAX_PHASE_JUMP:
        raise WindingError("DENSITY: phase jump exceeds the guard; resample more densely")
    total = float(np.sum(jumps))
    return int(round(total / (2 * np.pi)))


def fourier_table(theta: np.ndarray, max_deg: int = 3) -> np.ndarray:
    """exp(i k theta) for k = -max_deg..max_deg (rows) at every angle (columns)."""
    ks = np.arange(-max_deg, max_deg + 1)
    return np.exp(1j * np.outer(ks, theta))


def random_fourier_entry(rng, parity: str, max_deg: int = 3) -> np.ndarray:
    """Coefficients c_k, k = -max_deg..max_deg, with the off-parity ones zeroed.
    parity: 'odd' (f(-z) = -f(z)), 'even' (f(-z) = f(z)), or 'any'.  One
    matrix entry of a parity loop: the draw probes.LoopSampler makes a block
    of loops at a time."""
    ks = np.arange(-max_deg, max_deg + 1)
    c = rng.normal(size=ks.size) + 1j * rng.normal(size=ks.size)
    if parity == "odd":
        c[ks % 2 == 0] = 0.0
    elif parity == "even":
        c[ks % 2 == 1] = 0.0
    return c


def per_entry_parity_probe(n: int, trials: int, cfg) -> tuple:
    """probes.equivariant_parity_probe one loop and one matrix entry at a
    time, with exp(i k theta) rebuilt for every entry and the determinants
    taken by LAPACK at every sample: the loop that probes.LoopSampler's
    determinant coefficients replaced.  It draws the same random numbers in
    the same order and returns the report, the determinant samples of every
    loop it handed to winding_number, and the (n, n, 7) coefficients of
    every loop it drew, those the min |det| filter rejected included."""
    rng = cfg.rng(4)
    theta = circle_angles(cfg.n_circle)
    report = probes.ParityReport()
    dets_seen = []
    draws = []

    def eval_fourier(c):
        max_deg = (c.size - 1) // 2
        ks = np.arange(-max_deg, max_deg + 1)
        return np.tensordot(c, np.exp(1j * np.outer(ks, theta)), axes=(0, 0))

    def loop(first_row):
        other = "even" if first_row == "odd" else "any"
        while True:
            coeffs = np.array(
                [[random_fourier_entry(rng, first_row if i == 0 else other) for _ in range(n)] for i in range(n)]
            )
            draws.append(coeffs)
            mats = np.zeros((theta.size, n, n), dtype=complex)
            for i in range(n):
                for j in range(n):
                    mats[:, i, j] = eval_fourier(coeffs[i, j])
            dets = np.linalg.det(mats)
            if np.min(np.abs(dets)) > 1e-3:
                return dets

    def sample(first_row):
        while True:
            dets = loop(first_row)
            dets_seen.append(dets)
            try:
                return winding_number(dets)
            except WindingError:
                report.resamples += 1

    report.windings = [sample("odd") for _ in range(trials)]
    report.control_windings = [sample("even") for _ in range(trials)]
    return report, dets_seen, draws


def convolve_det_coeffs(c: np.ndarray) -> np.ndarray:
    """probes.det_coeffs of one loop, c of shape (n, n, 2*max_deg + 1): the
    Leibniz sum with each term a chain of np.convolve products, the per-loop
    sum that the block's shifted multiply-adds replaced."""
    n = c.shape[0]
    out = np.zeros(n * (c.shape[2] - 1) + 1, dtype=complex)
    for perm, sign in probes._leibniz_terms(n):
        term = c[0, perm[0]]
        for i in range(1, n):
            term = np.convolve(term, c[i, perm[i]])
        if sign > 0:
            out += term
        else:
            out -= term
    return out


def per_loop_parity_probe(n: int, trials: int, cfg, max_deg: int = 3) -> tuple:
    """probes.equivariant_parity_probe one loop at a time: one generator call
    per loop, its parities imposed by zeroing coefficients, its determinant
    coefficients by convolve_det_coeffs, its samples by one product against
    a fourier_table and its winding by winding_number, redrawn until
    min |det| > 1e-3 and resampled while a guard fails: the path the block
    pipeline replaced.  Returns the report and the determinant samples of
    every loop handed to winding_number."""
    rng = cfg.rng(4)
    table = fourier_table(circle_angles(cfg.n_circle), n * max_deg)
    report = probes.ParityReport()
    seen = []
    ks = np.arange(-max_deg, max_deg + 1)

    def next_dets(first_row):
        while True:
            raw = rng.normal(size=(n, n, 2, ks.size))
            c = raw[..., 0, :] + 1j * raw[..., 1, :]
            c[0, :, (ks % 2 == 0) if first_row == "odd" else (ks % 2 == 1)] = 0.0
            if first_row == "odd":
                c[1:, :, ks % 2 == 1] = 0.0
            dets = (convolve_det_coeffs(c)[:, None] * table).sum(axis=0)
            if np.min(np.abs(dets)) > 1e-3:
                return dets

    def sample(first_row):
        while True:
            dets = next_dets(first_row)
            seen.append(dets)
            try:
                return winding_number(dets)
            except WindingError:
                report.resamples += 1

    report.windings = [sample("odd") for _ in range(trials)]
    report.control_windings = [sample("even") for _ in range(trials)]
    return report, seen


def fraction_det_coeffs(c: np.ndarray) -> tuple[list, list]:
    """The exact Fourier coefficients of the determinant of a matrix loop
    whose entries have the float coefficients c, shape (n, n, 2*max_deg + 1),
    by Laplace expansion along the first row over FracGauss; and at each
    degree the majorant M = sum over the Leibniz terms of prod(|re| + |im|)
    of their factors.  The reference for probes.det_coeffs: every float is
    a dyadic rational, so both are exact.  Lists run over degrees
    -n*max_deg..n*max_deg."""
    n = c.shape[0]
    exact = [[[FracGauss(Fraction(z.real), Fraction(z.imag)) for z in c[i, j]] for j in range(n)] for i in range(n)]

    def mul(a, b, zero):
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return out

    def add(a, b):
        return [x + y for x, y in zip(a, b)] if a else b

    def expand(rows, cols):
        """(det, majorant) of the minor on these rows and columns."""
        if not rows:
            return [FracGauss(1)], [Fraction(1)]
        det, maj = [], []
        for pos, j in enumerate(cols):
            sub_det, sub_maj = expand(rows[1:], cols[:pos] + cols[pos + 1:])
            entry = exact[rows[0]][j]
            term = mul(entry, sub_det, FracGauss())
            det = add(det, term if pos % 2 == 0 else [-x for x in term])
            maj = add(maj, mul([abs(x.re) + abs(x.im) for x in entry], sub_maj, Fraction(0)))
        return det, maj

    return expand(tuple(range(n)), tuple(range(n)))


def random_loop(rng, n: int, table: np.ndarray, first_row: str):
    """One matrix loop an entry at a time, with the requested first-row
    parity, other rows even for the equivariant family and unconstrained for
    the control, sampled at the angles of ``table = fourier_table``;
    redrawn until min |det| > 1e-3: the loop probes.LoopSampler replaced."""
    max_deg = table.shape[0] // 2
    other = "even" if first_row == "odd" else "any"
    while True:
        mats = np.zeros((table.shape[1], n, n), dtype=complex)
        for i in range(n):
            parity = first_row if i == 0 else other
            for j in range(n):
                mats[:, i, j] = np.tensordot(random_fourier_entry(rng, parity, max_deg), table, axes=(0, 0))
        dets = np.linalg.det(mats)
        if np.min(np.abs(dets)) > 1e-3:
            return mats, dets


def parity_mislabeled_loop() -> list[str]:
    """The witness of the parity-family-mislabeled mutant (mutants.py), one
    random_loop at a time."""
    cfg = GridConfig()
    rng = cfg.rng(100)
    table = fourier_table(circle_angles(cfg.n_circle))
    evens = 0
    for _ in range(20):
        while True:
            _, dets = random_loop(rng, 2, table, "even")
            try:
                w = winding_number(dets)
                break
            except WindingError:
                continue
        if w % 2 == 0:
            evens += 1
    return [f"{evens}/20 even windings from the mislabeled family"] if evens else []


def peter_weyl_loop(samples: int, cfg, degrees=(-2, -1, 0, 1, 2)) -> dict:
    """probes.peter_weyl_report with the line-bundle residual taken degree by
    degree, omega * a recomputed at the rotated samples for every degree and
    angle: the loop that computes it once per angle replaced."""
    rng = cfg.rng(5)
    v = rng.normal(size=(samples, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    a = v[:, 0] + 1j * v[:, 1]
    c = v[:, 2] + 1j * v[:, 3]
    aa = np.abs(a) ** 2
    cc = np.abs(c) ** 2
    omega2 = 2.0 / (1.0 + np.abs(aa - cc))
    out = {}
    out["zero_identity"] = float(np.max(np.abs((1 - omega2 * aa) * (1 - omega2 * cc))))
    apatch = aa >= 0.5
    omega = np.sqrt(omega2)
    wa = omega[apatch] * a[apatch]

    def power(z, k):
        return z**k if k >= 0 else np.conj(z) ** (-k)

    worst = 0.0
    for nn in degrees:
        for mm in degrees:
            lhs = power(wa, nn + mm)
            rhs = power(wa, nn) * power(wa, mm)
            worst = max(worst, float(np.max(np.abs(lhs - rhs), initial=0.0)))
    out["cleaving_multiplicative"] = worst
    phis = rng.uniform(0, 2 * np.pi, size=8)
    worst = 0.0
    for nn in degrees:
        f = lambda av, cv: power(np.sqrt(2.0 / (1.0 + np.abs(np.abs(av) ** 2 - np.abs(cv) ** 2))) * av, nn)
        base = f(a, c)
        for phi in phis:
            g = np.exp(1j * phi)
            worst = max(worst, float(np.max(np.abs(f(a * g, c * g) - base * np.exp(1j * nn * phi)))))
    out["line_bundle_equivariance"] = worst
    return out


def draw_toeplitz_terms(rng, max_deg: int, coeff_range: int = 3):
    """(word, k, re, im) for every basis word of degree <= max_deg, in basis
    order: re + i*im is its coefficient, drawn uniformly from
    [-coeff_range, coeff_range], and z^k its symbol.

    One batched draw gives the (re, im) pairs of the basis words in order: the
    same integers, and the same generator state after, as two scalar draws
    per word (scalar_draw_toeplitz_poly)."""
    words = _toeplitz_basis(max_deg)
    parts = rng.integers(-coeff_range, coeff_range + 1, size=2 * len(words)).tolist()
    return zip(words, _basis_degrees(max_deg), parts[::2], parts[1::2])


def random_toeplitz_poly(rng, max_deg: int, coeff_range: int = 3) -> NCPoly:
    """Random *-polynomial in s, ss with small Gaussian-integer coefficients
    (draw_toeplitz_terms); the unit if every coefficient drawn is 0.  One
    trial of the per-trial loops that toeplitz.draw_symbols replaced."""
    alphabet = toeplitz_system().alphabet
    terms = {}
    for w, _, re, im in draw_toeplitz_terms(rng, max_deg, coeff_range):
        if re or im:
            terms[w] = Scalar.of(GaussRat(re, im))
    p = NCPoly(alphabet, terms)
    return p if not p.is_zero() else NCPoly.one(alphabet)


def scalar_draw_toeplitz_poly(rng, max_deg: int, coeff_range: int = 3) -> NCPoly:
    """random_toeplitz_poly with two scalar draws per basis word, the real
    part first: the loop the one batched draw replaced."""
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
    random_toeplitz_poly draw, through the exact NCPoly and its symbol: what
    toeplitz.fold_symbol_draws folds from the integers of a block of draws
    for probes._condition2_residual."""
    return list(symbol(random_toeplitz_poly(rng, max_deg)).coeffs.items())


def random_symbol_coeffs(rng, max_deg: int) -> dict[int, complex]:
    """symbol(random_toeplitz_poly(rng, max_deg)) as {k: complex}, with the
    same draw, the same keys in the same order and the same values, folded
    from the drawn integers one dict entry at a time: keys are inserted,
    summed and popped as symbol does, and the integer sums are exact in
    floats.  The per-draw fold that toeplitz.fold_symbol_draws replaced."""
    out: dict[int, complex] = {}
    drawn = False
    for _, k, re, im in draw_toeplitz_terms(rng, max_deg):
        if re or im:
            drawn = True
            v = out.get(k, 0) + complex(re, im)
            if v:
                out[k] = v
            else:
                out.pop(k)
    return out if drawn else {0: 1 + 0j}


def delta_pullback(i: int, F):
    """delta_i^*: C(S^1) -> C(Z2) (x) C(I) (i=1, arguments (k,t)) or
    C(I) (x) C(Z2) (i=2, arguments (t,k)): the closure the splitting
    identities and condition (1) composed before they read each interpolant
    once per point set (circle.chart_points)."""
    if i == 1:
        return lambda k, t: F(delta_angle(1, k, t))
    return lambda t, k: F(delta_angle(2, k, t))


# ---------------------------------------------------------------------------
# q substituted after a formal build (reference for parsing at a fixed q)
# ---------------------------------------------------------------------------

def substituted_poly(p: NCPoly, qv: GaussRat) -> NCPoly:
    return NCPoly(p.alphabet, {w: substitute_q(c, qv) for w, c in p.terms.items()})


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
        suffix_system=suffix,
    )


def substituted_hopf(H: HopfAlgebra, qv: GaussRat) -> HopfAlgebra:
    qs = substituted_system(H.system, qv)
    delta = {
        g: Tensor((qs, qs), {k: substitute_q(c, qv) for k, c in t.terms.items()})
        for g, t in H.delta_table.items()
    }
    counit = {g: substitute_q(c, qv) for g, c in H.counit_table.items()}
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
# tensors.linear_image and the memoised LinearMap.apply_word: S, Delta, every
# coaction, the prolongation dictionary and j o S)
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


def looped_delta_word(H: HopfAlgebra, w) -> Tensor:
    """Delta(w) as the former ``HopfAlgebra.delta_word`` built it: the
    generator coproducts multiplied into 1 (x) 1 left to right, uncached."""
    out = Tensor.of((H.system, H.system), H.system.one(), H.system.one())
    for g in w:
        out = out.mul(H.delta_table[g])
    return out


def looped_coact_word(P: ComoduleAlgebra, w) -> Tensor:
    """The coaction of w as the former ``ComoduleAlgebra.coact_word`` built
    it, uncached."""
    out = Tensor.of((P.system, P.hopf.system), P.system.one(), P.hopf.system.one())
    for g in w:
        out = out.mul(P.coaction_table[g])
    return out


def looped_dictionary_word(bsys: RewriteSystem, hsys: RewriteSystem, fiber: dict, w) -> Tensor:
    """The prolongation dictionary on w as the former ``prolong.dict_map``
    built it: a fiber letter goes to its cotensor in ``fiber``, any other
    letter b to b (x) 1, multiplied left to right, uncached."""
    out = Tensor.of((bsys, hsys), bsys.one(), hsys.one())
    for g in w:
        if g in fiber:
            out = out.mul(fiber[g])
        else:
            out = out.mul(Tensor.of((bsys, hsys), NCPoly.gen(bsys.alphabet, g), hsys.one()))
    return out


def composed_word_image(outer, inner, w) -> NCPoly:
    """outer(inner(w)) as the former ``LinearMap.compose`` closure gave it:
    inner applied to the word, then outer to the result, in normal form."""
    p = NCPoly.word(inner.domain.alphabet, w)
    return outer.codomain.normal_form(outer.apply(inner.apply(p)))


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


# ---------------------------------------------------------------------------
# cleavings and strong connections on every basis word up to a degree bound
# (reference for the relation-plus-generator certificate of
# CleavingMap.verify and the memoised StrongConnection word maps)
# ---------------------------------------------------------------------------

def bounded_cleaving_checks(cl: CleavingMap, bound: int) -> list[CheckFailure]:
    """j(1) = 1, then colinearity and both convolution-inverse laws of j and
    j o S on every normal-form word of H up to the bound. Checks no relation
    of H."""
    failures = []
    P, H = cl.P, cl.P.hopf
    one = P.system.one()
    if cl.j.apply(H.system.one()) != one:
        failures.append(CheckFailure("cleaving-unital", "1", f"j(1) = {cl.j.apply(H.system.one())!r}"))
    for w in H.system.basis_words(bound):
        ws = word_str(w)
        lhs = P.coact(cl.j.apply_word(w))
        rhs = H.delta_word(w).map_leg(0, cl.j.apply_word, codomain=P.system)
        if lhs != rhs:
            failures.append(CheckFailure("cleaving-colinear", ws, f"{lhs!r} != {rhs!r}"))
        conv = H.convolve(w, cl.j.apply_word, cl.j_inv.apply_word, P.system)
        vnoc = H.convolve(w, cl.j_inv.apply_word, cl.j.apply_word, P.system)
        target = one.scale(H.counit_word(w))
        if conv != target:
            failures.append(CheckFailure("cleaving-inverse-right", ws, f"{conv!r} != {target!r}"))
        if vnoc != target:
            failures.append(CheckFailure("cleaving-inverse-left", ws, f"{vnoc!r} != {target!r}"))
    return failures


def cleaving_connection_table(cl: CleavingMap, bound: int) -> dict:
    """ell = (j o S (x) j) o Delta filled in eagerly on the basis words up to
    the bound, with the uncached coproduct and j o S composed per word."""
    P, H = cl.P, cl.P.hopf
    return {
        w: looped_delta_word(H, w)
        .map_leg(0, lambda v: composed_word_image(cl.j, H.S, v), codomain=P.system)
        .map_leg(1, cl.j.apply_word, codomain=P.system)
        for w in H.system.basis_words(bound)
    }


def diagonal_transition(triv, i: int, w: Word) -> NCPoly:
    """T_ii(w) = gamma_i(w_(1)) gamma_i(S(w_(2))) in piece i."""
    cl = triv.cleavings[i]
    return triv.hopf.convolve(w, cl.j.apply_word, cl.j_inv.apply_word, triv.covering.pieces[i].comodule.system)


def bounded_transition_checks(triv, bound: int) -> list[CheckFailure]:
    """T_ii = eta o eps, T_ij * T_ji = eta o eps and T_ij coinvariant on
    every normal-form word of H up to the bound (``diagonal_transition`` for
    T_ii). Checks no premise of ``Trivialisation.validate``."""
    failures = []
    H = triv.hopf
    n = triv.covering.size
    words = H.system.basis_words(bound)
    for i in range(n):
        sys_i = triv.covering.pieces[i].comodule.system
        for w in words:
            got = diagonal_transition(triv, i, w)
            want = sys_i.one().scale(H.counit_word(w))
            if got != want:
                failures.append(CheckFailure("transition-diagonal", f"T_{i}{i}({word_str(w)})", f"{got!r}"))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            target, _, _ = triv.covering.pair_maps(i, j)
            for w in words:
                img = triv.transition(i, j, w)
                if not target.is_coinvariant(img):
                    failures.append(
                        CheckFailure("transition-coinvariant", f"T_{i}{j}({word_str(w)})", f"{img!r}")
                    )
                conv = H.convolve(
                    w,
                    lambda v: triv.transition(i, j, v),
                    lambda v: triv.transition(j, i, v),
                    target.system,
                )
                want = target.system.one().scale(H.counit_word(w))
                if conv != want:
                    failures.append(
                        CheckFailure("transition-convolution", f"(T_{i}{j}*T_{j}{i})({word_str(w)})", f"{conv!r}")
                    )
    return failures


# ---------------------------------------------------------------------------
# quotient isomorphisms and coinvariant compatibility on every basis word up
# to a degree bound (reference for hopf_map_problems, for the
# inverse-on-generators certificate of generator_map_isomorphism_problems and
# for the corollaries of part (a) of reducibility_check)
# ---------------------------------------------------------------------------

def bounded_hopf_map_checks(phi, H1: HopfAlgebra, H2: HopfAlgebra, bound: int) -> list[CheckFailure]:
    """(phi (x) phi) Delta = Delta phi, eps phi = eps and phi S = S phi on
    every basis word of H1 up to the bound, under the labels of
    ``hopf_map_problems``: the reference for that generator certificate."""
    failures: list[CheckFailure] = []
    for w in H1.system.basis_words(bound):
        ws = word_str(w)
        img = phi.apply_word(w)
        lhs = H1.delta_word(w).map_leg(0, phi.apply_word, codomain=H2.system).map_leg(
            1, phi.apply_word, codomain=H2.system
        )
        if lhs != H2.delta(img):
            failures.append(CheckFailure("hopf-map-coproduct", ws, f"{lhs!r} != {H2.delta(img)!r}"))
        if H1.counit_word(w) != H2.counit(img):
            failures.append(CheckFailure("hopf-map-counit", ws, ""))
        if phi.apply(H1.S.apply_word(w)) != H2.S.apply(img):
            failures.append(CheckFailure("hopf-map-antipode", ws, ""))
    return failures


def bounded_isomorphism_checks(
    H1: HopfAlgebra, H2: HopfAlgebra, gen_map: dict, bound: int
) -> list[CheckFailure]:
    """phi = ``gen_map`` well defined and a Hopf map on the basis words of H1
    up to the bound (``bounded_hopf_map_checks``), then injective on those
    words (by rank) and onto the basis words of H2 up to the bound (each in
    the image span). Needs no inverse."""
    try:
        phi = gens_map("phi", H1.system, H2.system, gen_map, check=True)
    except NotWellDefinedError as e:
        return [CheckFailure("iso-well-defined", "rules", str(e))]
    failures = bounded_hopf_map_checks(phi, H1, H2, bound)
    basis1 = H1.system.basis_words(bound)
    space = RowSpace()
    indep = sum(1 for w in basis1 if space.add(dict(phi.apply_word(w).terms)))
    if indep != len(basis1):
        failures.append(CheckFailure("iso-injective", f"degree<={bound}", f"rank {indep} < {len(basis1)}"))
    for w in H2.system.basis_words(bound):
        if not space.contains({w: S_ONE}):
            failures.append(CheckFailure("iso-surjective", word_str(w), "not in the image span"))
            break
    return failures


def left_coinvariant_test(H: HopfAlgebra, J: HopfIdeal, p: NCPoly) -> bool:
    """True iff (pi (x) id)(Delta p) = [1] (x) p in (H/J) (x) H."""
    qs = J.quotient_system
    p = H.system.normal_form(p)
    lhs = Tensor((qs, H.system), H.delta(p).terms)
    rhs = Tensor((qs, H.system), {((), w): c for w, c in p.terms.items()})
    return lhs == rhs


def coinvariant_basis_words(H: HopfAlgebra, J: HopfIdeal, bound: int) -> list[Word]:
    """The basis words of H up to the bound that are left coinvariant."""
    return [
        w
        for w in H.system.basis_words(bound)
        if left_coinvariant_test(H, J, NCPoly.word(H.system.alphabet, w))
    ]


def bounded_coinvariant_compatibility(triv, J: HopfIdeal, bound: int) -> list[CheckFailure]:
    """pi^i_j(gamma_i(h)) = pi^j_i(gamma_j(h)) and T_ij(h) = eps(h) for every
    left-coinvariant basis word h of H up to the bound, for every ordered
    pair i != j. Checks no premise of ``reducibility_check``."""
    H = triv.hopf
    failures: list[CheckFailure] = []
    dwords = coinvariant_basis_words(H, J, bound)
    for i, j in permutations(range(triv.covering.size), 2):
        target, mi, mj = triv.covering.pair_maps(i, j)
        for w in dwords:
            left = mi.apply(triv.cleavings[i].j.apply_word(w))
            right = mj.apply(triv.cleavings[j].j.apply_word(w))
            if target.system.normal_form(left - right) != target.system.zero():
                failures.append(
                    CheckFailure(
                        "coinvariant-compatibility",
                        f"pi^{i}_{j}(gamma_{i}({word_str(w)}))",
                        f"{left!r} != {right!r}",
                    )
                )
            tij = triv.transition(i, j, w)
            want = target.system.one().scale(H.counit_word(w))
            if tij != want:
                failures.append(
                    CheckFailure("transition-counit-on-D", f"T_{i}{j}({word_str(w)})", f"{tij!r} != {want!r}")
                )
    return failures


# ---------------------------------------------------------------------------
# the quantum plane's units on every product of basis monomials up to a degree
# bound (reference for the one-rule certificate of
# builtin.quantum_plane_units_certificate)
# ---------------------------------------------------------------------------

def bounded_units_check(B: RewriteSystem, max_degree: int = 6) -> tuple[int, str]:
    """(pairs checked, reason) for the products of any two basis monomials
    up to the bound: each must be a single nonzero monomial whose bidegree
    is the sum of the factors'.  The reason is "" when all pass."""
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
                return pairs, f"{word_str(w1)}*{word_str(w2)} not monomial"
            (w, c), = prod.terms.items()
            if c.is_zero():
                return pairs, f"{word_str(w1)}*{word_str(w2)} vanishes"
            bidg = lambda ww: (sum(1 for g in ww if g == "x"), sum(1 for g in ww if g == "y"))
            if bidg(w) != tuple(a + b for a, b in zip(bidg(w1), bidg(w2))):
                return pairs, f"bidegree drop at {word_str(w1)}*{word_str(w2)}"
    return pairs, ""


# ---------------------------------------------------------------------------
# reduction data on a smash product: the unital, anti-multiplicative and
# commutation properties of a map theta: D -> B (reference for the one
# commutation failure of builtin.frame_bundle_obstruction)
# ---------------------------------------------------------------------------

def verify_theta_properties(theta: LinearMap, smash, dpolys) -> list[CheckFailure]:
    """Check a map theta: D -> B as reduction data on the smash product.
    theta must send 1 to 1 and, on the given elements k, l of D, have the two
    properties: anti-multiplicativity, theta(kl) = theta(l) theta(k), and the
    commutation rule, b theta(k) = theta(k_(1)) (k_(2) |> b) for each
    generator b of B."""
    failures = []
    H = smash.hopf
    B = smash.b_system
    act = smash.action
    one = B.one()
    if theta.apply(H.system.one()) != one:
        failures.append(CheckFailure("theta-unital", "1", f"theta(1) = {theta.apply(H.system.one())!r}"))
    for k in dpolys:
        for l in dpolys:
            lhs = theta.apply(H.system.mul(k, l))
            rhs = B.mul(theta.apply(l), theta.apply(k))
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
            lhs = B.mul(NCPoly.gen(B.alphabet, b), theta.apply(k))
            rhs = summed_image(
                k,
                lambda w: H.convolve(w, theta.apply_word, lambda v: act.act(v, (b,)), B),
                B.zero(),
            )
            if lhs != rhs:
                failures.append(
                    CheckFailure(
                        "theta-commutation",
                        f"(k={k!r}, b={b})",
                        f"b theta(k) = {lhs!r} != theta(k1)(k2|>b) = {rhs!r}",
                    )
                )
    return failures


# ---------------------------------------------------------------------------
# helpers only tests call
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# rendering: the inverse of the exprs grammar, for dump_presentation and the
# parser round-trip tests
# ---------------------------------------------------------------------------

def scalar_to_expr(c: Scalar) -> str:
    if c.d is not P_ONE:
        raise ParseError(f"cannot render denominator of {c!r} in the expression grammar")

    def gauss(g: GaussRat) -> str:
        parts = []
        if g.re:
            parts.append(str(g.re))
        if g.im:
            istr = "I" if g.im == 1 else ("-I" if g.im == -1 else f"{g.im}*I")
            parts.append(istr if not parts else (f"+ {istr}" if g.im > 0 else f"- {abs(g.im)}*I".replace("1*I", "I") if g.im == -1 else f"+ {g.im}*I"))
        if not parts:
            return "0"
        s = " ".join(parts)
        return f"({s})" if (g.re and g.im) else s

    terms = []
    for k, g in enumerate(c.n):
        if not g:
            continue
        p = k + c.v
        qpart = "" if p == 0 else ("Q" if p == 1 else f"Q^{p}" if p > 0 else f"Q^-{-p}")
        gs = gauss(g)
        if qpart and gs == "1":
            terms.append(qpart)
        elif qpart and gs == "-1":
            terms.append(f"-{qpart}")
        elif qpart:
            terms.append(f"{gs}*{qpart}")
        else:
            terms.append(gs)
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def poly_to_expr(p: NCPoly) -> str:
    if not p.terms:
        return "0"
    parts = []
    for w in sorted(p.terms, key=p.alphabet.key):
        c = p.terms[w]
        cs = scalar_to_expr(c)
        body = "*".join(w) if w else ""
        if not body:
            parts.append(cs if ("+" not in cs or cs.startswith("(")) else f"({cs})")
        elif cs == "1":
            parts.append(body)
        elif cs == "-1":
            parts.append(f"-{body}")
        else:
            wrapped = cs if (" " not in cs) else f"({cs})"
            parts.append(f"{wrapped}*{body}")
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def tensor_to_expr(terms: dict) -> str:
    parts = []
    for key in sorted(terms, key=repr):
        c = terms[key]
        cs = scalar_to_expr(c)
        body = " # ".join("*".join(w) if w else "1" for w in key)
        if cs == "1":
            parts.append(body)
        elif cs == "-1":
            parts.append(f"-({body})")
        else:
            wrapped = cs if (" " not in cs) else f"({cs})"
            parts.append(f"{wrapped}*({body})")
    if not parts:
        return "0"
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def dump_presentation(
    name: str,
    system,
    hopf=None,
    relations_src: list[str] | None = None,
    extra: dict | None = None,
) -> dict:
    doc = {
        "name": name,
        "generators": list(system.alphabet.gens),
        "precedence": list(system.alphabet.gens),
        "relations": relations_src
        if relations_src is not None
        else [
            f"{poly_to_expr(NCPoly.word(system.alphabet, r.lhs_word))} = {poly_to_expr(r.rhs)}"
            for r in system.rules
        ],
    }
    if system.alphabet.central:
        doc["central"] = sorted(system.alphabet.central)
    if system.star_table:
        doc["star"] = {g: poly_to_expr(p) for g, p in system.star_table.items()}
    if hopf is not None:
        doc["hopf"] = {
            "delta": {g: tensor_to_expr(t.terms) for g, t in hopf.delta_table.items()},
            "counit": {g: scalar_to_expr(c) for g, c in hopf.counit_table.items()},
            "antipode": {g: poly_to_expr(p) for g, p in hopf.antipode_table.items()},
            "antipode_inv": {g: poly_to_expr(p) for g, p in hopf.antipode_inv_table.items()},
        }
    if extra:
        doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# expression trees: the grammar walked node by node (reference for exprs.Parser)
# ---------------------------------------------------------------------------

# A tree is a tuple: ("gen", name), ("int", n), ("frac", n, m), ("I",), ("Q",),
# ("neg", x), ("^", x, k), or (op, left, right) for op in + - * #.
_TREE_LEVEL = {"+": 1, "-": 1, "#": 2, "*": 3, "neg": 4, "^": 5}


class ExprTreeError(ValueError):
    """The tree has no value, so the parser must reject its text."""


def expr_tree_to_text(tree) -> str:
    """The tree in the expression grammar, with the parentheses its binding
    strengths need and no others."""
    op = tree[0]
    if op in ("gen", "int"):
        return str(tree[1])
    if op == "frac":
        return f"{tree[1]}/{tree[2]}"
    if op in ("I", "Q"):
        return op

    def wrap(t, level: int) -> str:
        s = expr_tree_to_text(t)
        return s if _TREE_LEVEL.get(t[0], 6) >= level else f"({s})"

    if op == "neg":
        return "-" + wrap(tree[1], 4)
    if op == "^":
        return f"{wrap(tree[1], 6)}^{tree[2]}"
    return f"{wrap(tree[1], _TREE_LEVEL[op])} {op} {wrap(tree[2], _TREE_LEVEL[op] + 1)}"


def _tree_terms(legs: int, v) -> dict:
    return {(w,): c for w, c in v.terms.items()} if legs == 1 else v


def _tree_constant(legs: int, v) -> Scalar | None:
    if legs == 1 and set(v.terms) <= {()}:
        return v.terms.get((), S_ZERO)
    return None


def _tree_scale(legs: int, v, c: Scalar):
    if legs == 1:
        return v.scale(c)
    return {} if c.is_zero() else {k: x * c for k, x in v.items()}


def eval_expr_tree(tree, alphabet) -> tuple:
    """The value of a tree: (1, NCPoly) for one leg, or (legs, {(word, ...):
    coeff}) for a tensor of two or more legs, by NCPoly arithmetic and
    products of tensor terms.  A constant acts as a scalar wherever it stands.
    Raises ExprTreeError where the grammar gives no value: legs that differ
    across + or -, a product of two non-constants that are not both
    polynomials, a power of a tensor, a negative power of a non-constant or
    of zero, and a zero denominator."""
    op = tree[0]
    if op == "gen":
        return 1, NCPoly.gen(alphabet, tree[1])
    if op == "I":
        return 1, NCPoly.const(alphabet, Scalar.i())
    if op == "Q":
        return 1, NCPoly.const(alphabet, Scalar.q_power(1))
    if op in ("int", "frac"):
        if op == "frac" and tree[2] == 0:
            raise ExprTreeError("zero denominator")
        return 1, NCPoly.const(alphabet, Scalar.of(Fraction(*tree[1:])))
    if op == "neg":
        legs, v = eval_expr_tree(tree[1], alphabet)
        return legs, _tree_scale(legs, v, -S_ONE)
    if op == "^":
        legs, v = eval_expr_tree(tree[1], alphabet)
        k = tree[2]
        if legs != 1:
            raise ExprTreeError("power of a tensor")
        c = _tree_constant(legs, v)
        if c is not None:
            if k < 0 and c.is_zero():
                raise ExprTreeError("negative power of zero")
            return 1, NCPoly.const(alphabet, c**k)
        if k < 0:
            raise ExprTreeError("negative power of a non-constant")
        out = NCPoly.one(alphabet)
        for _ in range(k):
            out = out.concat(v)
        return 1, out
    (la, a), (lb, b) = eval_expr_tree(tree[1], alphabet), eval_expr_tree(tree[2], alphabet)
    if op in ("+", "-"):
        if la != lb:
            raise ExprTreeError("legs differ")
        if la == 1:
            return 1, a + b if op == "+" else a - b
        out = dict(a)
        for k, c in b.items():
            out[k] = out.get(k, S_ZERO) + (c if op == "+" else -c)
        return la, {k: c for k, c in out.items() if not c.is_zero()}
    if op == "*":
        ca, cb = _tree_constant(la, a), _tree_constant(lb, b)
        if ca is not None:
            return lb, _tree_scale(lb, b, ca)
        if cb is not None:
            return la, _tree_scale(la, a, cb)
        if la == lb == 1:
            return 1, a.concat(b)
        raise ExprTreeError("product of tensors")
    # op == "#": every term of the left times every term of the right
    out = {}
    for k1, c1 in _tree_terms(la, a).items():
        for k2, c2 in _tree_terms(lb, b).items():
            out[k1 + k2] = out.get(k1 + k2, S_ZERO) + c1 * c2
    return la + lb, {k: c for k, c in out.items() if not c.is_zero()}


def unit_counit_map(H: HopfAlgebra, codomain: RewriteSystem | None = None) -> LinearMap:
    """eta o eps: the convolution unit, as an algebra map."""
    cod = codomain or H.system
    images = {g: NCPoly.const(cod.alphabet, H.counit_table[g]) for g in H.system.alphabet.gens}
    return gens_map(f"eta.eps_{H.name}", H.system, cod, images, check=False)


def group_like_words(H: HopfAlgebra, bound: int) -> list[Word]:
    """Basis words w up to the bound with Delta(w) = w (x) w and eps(w) = 1."""
    sys2 = (H.system, H.system)
    return [
        w
        for w in H.system.basis_words(bound)
        if H.delta_word(w) == Tensor(sys2, {(w, w): S_ONE}) and H.counit_word(w) == S_ONE
    ]


def identity_table(system: RewriteSystem, bound: int) -> dict:
    """The identity map on the basis words of degree <= bound, as a dict."""
    return {w: NCPoly.word(system.alphabet, w) for w in system.basis_words(bound)}


def convolution_table(H: HopfAlgebra, f, g, words, cod: RewriteSystem | None = None) -> dict:
    """f*g tabulated on ``words``: w -> H.convolve(w, f, g) in ``cod`` (H's
    own algebra by default), for word maps f and g such as ``dict.__getitem__``."""
    cod = cod or H.system
    return {w: H.convolve(w, f, g, cod) for w in words}


def _peval(a, x: GaussRat) -> GaussRat:
    out = GR_ZERO
    for c in reversed(a):
        out = out * x + c
    return out


def substitute_q(s: Scalar, value: GaussRat) -> Scalar:
    """s with q set to value; ScalarError when the denominator vanishes there."""
    den = _peval(s.den, value)
    if not den:
        raise ScalarError(f"denominator of {s} vanishes at q={value}")
    return Scalar.of(_peval(s.num, value) / den)


def fourier_eval_at(F, z) -> np.ndarray:
    """The FourierPoly F as the Laurent polynomial sum c_k z^k at the points z."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape, dtype=complex)
    for k, c in F.coeffs.items():
        out = out + c * z**k
    return out


def delta_map(i: int, k, t) -> np.ndarray:
    """The chart delta_i at (k, t), as a point of the unit circle."""
    return np.exp(1j * delta_angle(i, k, t))


def toeplitz_matrix(p: NCPoly, n: int) -> np.ndarray:
    """Truncated realization: s acts as the lower shift on C^n."""
    S = np.zeros((n, n))
    for k in range(n - 1):
        S[k + 1, k] = 1.0
    imgs = {"s": S, "ss": S.T}
    out = np.zeros((n, n), dtype=complex)
    for w, c in p.terms.items():
        m = np.eye(n)
        for g in w:
            m = m @ imgs[g]
        out = out + c.to_complex() * m
    return out


def masked_residual(a: np.ndarray, b: np.ndarray, margin: int) -> float:
    """Max |a-b| ignoring the truncation corner (last `margin` rows/columns)."""
    n = a.shape[0]
    m = n - margin
    return float(np.max(np.abs(a[:m, :m] - b[:m, :m]))) if m > 0 else 0.0


# ---------------------------------------------------------------------------
# the B (x) H presentations as the three former builders wrote them: the
# smash product with its caller-set centrality flag, the cotensor closure of
# prolong and the hand-written sphere edge (reference for
# comodule.smash_product); each returns (system, coaction table)
# ---------------------------------------------------------------------------

def _commutative(system: RewriteSystem) -> bool:
    a, gens = system.alphabet, system.alphabet.gens
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            if not system.normal_form(NCPoly.word(a, (g, h)) - NCPoly.word(a, (h, g))).is_zero():
                return False
    return True


def _renamed_system(system: RewriteSystem, names: dict, name: str) -> RewriteSystem:
    alpha = Alphabet(
        tuple(names[g] for g in system.alphabet.gens),
        central=tuple(names[g] for g in system.alphabet.central),
    )

    def rw(w):
        return tuple(names[g] for g in w)

    rules = [(rw(r.lhs_word), NCPoly(alpha, {rw(w): c for w, c in r.rhs.terms.items()})) for r in system.rules]
    return RewriteSystem(alpha, rules, name=name)


def reference_smash(b_system: RewriteSystem, H: HopfAlgebra, action_table: dict, name: str, h_central: bool):
    """B x| H as the former ``smash_product`` built it: with ``h_central``
    (which the caller kept to trivial actions) H's letters are central and
    H's rules are appended; else the cross rules z b -> (z_(1) |> b) z_(2)
    and H's system as the suffix system."""
    action = ActionData(H, b_system, action_table)
    b_gens, h_gens = b_system.alphabet.gens, H.system.alphabet.gens
    alpha = Alphabet(b_gens + h_gens, central=tuple(b_system.alphabet.central) + (h_gens if h_central else ()))
    rules = [(r.lhs_word, NCPoly(alpha, dict(r.rhs.terms))) for r in b_system.rules]
    if h_central:
        rules += [(r.lhs_word, NCPoly(alpha, dict(r.rhs.terms))) for r in H.system.rules]
    else:
        for z in h_gens:
            for b in b_gens:
                rhs = NCPoly.zero(alpha)
                for (w1, w2), c in H.delta_word((z,)).terms.items():
                    act = action.act(w1, (b,))
                    rhs = rhs + NCPoly(alpha, {bw + w2: cc for bw, cc in act.terms.items()}).scale(c)
                rules.append(((z, b), rhs))
    system = RewriteSystem(alpha, rules, name=name, suffix_system=None if h_central else H.system)
    coaction = {b: Tensor.of((system, H.system), NCPoly.gen(alpha, b), H.system.one()) for b in b_gens}
    for z in h_gens:
        coaction[z] = Tensor((system, H.system), dict(H.delta_word((z,)).terms))
    return system, coaction


def reference_cotensor(base_system: RewriteSystem, letters, rules, central, H: HopfAlgebra, fiber_names: dict):
    """``base`` (x) H as the former ``cotensor`` closure of ``prolong`` built
    it: on ``letters`` and the fiber letters, with the given base rules. A
    commutative H makes the fiber (and ``central``) central and appends the
    fiber rules that stay rules; otherwise no letter is central, fiber
    letters move right past base letters and the fiber system is the suffix
    system."""
    fiber_sys = _renamed_system(H.system, fiber_names, name=f"fiber({H.name})")
    fiber_gens = fiber_sys.alphabet.gens
    h_comm = _commutative(H.system)
    if h_comm:
        alpha = Alphabet(tuple(letters) + fiber_gens, central=tuple(central) + fiber_gens)
    else:
        alpha = Alphabet(tuple(letters) + fiber_gens)
    lifted = [(r.lhs_word, NCPoly(alpha, dict(r.rhs.terms))) for r in rules]
    if h_comm:
        for r in fiber_sys.rules:
            rhs = NCPoly(alpha, dict(r.rhs.terms))
            if rhs != NCPoly.word(alpha, alpha.canon(r.lhs_word)):
                lifted.append((r.lhs_word, rhs))
    else:
        lifted.extend(((z, b), NCPoly.word(alpha, (b, z))) for z in fiber_gens for b in letters)
    system = RewriteSystem(
        alpha, lifted, name=f"{base_system.name} box {H.name}", suffix_system=None if h_comm else fiber_sys
    )
    coaction = {b: Tensor.of((system, H.system), NCPoly.gen(alpha, b), H.system.one()) for b in letters}
    for z in H.system.alphabet.gens:
        coaction[fiber_names[z]] = Tensor(
            (system, H.system),
            {(tuple(fiber_names[g] for g in w1), w2): c for (w1, w2), c in H.delta_word((z,)).terms.items()},
        )
    return system, coaction


def reference_prolonged_presentations(base_triv, H: HopfAlgebra, fiber_names: dict):
    """The prolonged pieces, then the prolonged pair targets in the order of
    the base covering's pairs, as the former ``prolong`` presented them: a
    piece on its base generators and the rules among them with nothing
    central, a pair target on all its letters, rules and central set."""
    out = []
    for piece in base_triv.covering.pieces:
        bsys, bset = piece.comodule.system, set(piece.base_gens)
        rules = [
            r for r in bsys.rules
            if all(g in bset for g in r.lhs_word) and all(all(g in bset for g in w) for w in r.rhs.terms)
        ]
        out.append(reference_cotensor(bsys, piece.base_gens, rules, (), H, fiber_names))
    for pair in base_triv.covering.pairs.values():
        tsys = pair.target.system
        out.append(reference_cotensor(tsys, tsys.alphabet.gens, tsys.rules, tsys.alphabet.central, H, fiber_names))
    return out


def reference_sphere_edge():
    """The sphere's edge avatar as it was written by hand: six central
    letters, four rules, the fiber copy w group-like."""
    gens = ("z", "zi", "z2", "z2i", "v", "w")
    alpha = Alphabet(gens, central=gens)
    one = NCPoly.one(alpha)
    rules = [(("z", "zi"), one), (("z2", "z2i"), one), (("v", "v"), one), (("w", "w"), one)]
    system = RewriteSystem(alpha, rules, name="sphere_edge")
    H = builtin.c_z2()
    Ts = (system, H.system)
    coaction = {g: Tensor(Ts, {((g,), ()): S_ONE}) for g in ("z", "zi", "z2", "z2i", "v")}
    coaction["w"] = Tensor(Ts, {(("w",), ("u",)): S_ONE})
    return system, coaction
