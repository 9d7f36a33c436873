"""Membership in the quantum real projective plane, the quantum sphere and the
quantum disc; the six-face atlas; and the Z2-decomposition isomorphisms.

A sphere slot is an element of T (x) C(Z2), the ``builtin.toeplitz_z2_smash``
algebra: one polynomial p = p0 + p1 u in s, ss and the central u, whose
Toeplitz parts p0 and p1 ``_u_parts`` reads.  The diagonal Z2-action negates
s, ss and u, so it is ``toeplitz_flip``.  A disc slot is a Toeplitz
polynomial."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from ..ncpoly import NCPoly, add_terms
from ..scalars import S_ONE, Scalar
from .circle import delta_angle
from .grids import TOL, GridConfig, Z2, interval_nodes
from .toeplitz import _toeplitz_basis, symbol, toeplitz_flip

_HALF = Scalar.of(Fraction(1, 2))


def _u_parts(p: NCPoly) -> tuple[NCPoly, NCPoly]:
    """The Toeplitz polynomials p0, p1 with p = p0 + p1 u: u is central, so
    each word of p is a Toeplitz word times a power of u, and u^2 = 1 sends
    it to p0 or p1 by the parity of that power."""
    from ..builtin import toeplitz_system

    parts = ({}, {})
    for w, c in p.terms.items():
        nc, us = p.alphabet.split_central(w)
        add_terms(parts[len(us) % 2], ((nc, c),))
    alphabet = toeplitz_system().alphabet
    return NCPoly._of(alphabet, parts[0]), NCPoly._of(alphabet, parts[1])


def _with_u(p0: NCPoly, p1: NCPoly) -> NCPoly:
    """p0 + p1 u in T (x) C(Z2), for Toeplitz polynomials p0 and p1."""
    from ..builtin import toeplitz_z2_smash

    terms = dict(p0.terms)
    terms.update((w + ("u",), c) for w, c in p1.terms.items())
    return NCPoly._of(toeplitz_z2_smash().system.alphabet, terms)


GLUINGS = (("01", 0, 1, 1, 1), ("02", 0, 2, 2, 1), ("12", 1, 2, 2, 2))
"""The three edges of the triple pullbacks, as (edge, piece a, piece b, chart
of a, chart of b): piece a seen through sigma_(chart of a) is glued to piece b
seen through sigma_(chart of b).  Every membership check below reads this
table; each chart is evaluated at (k, t) as in delta_angle."""


def _sup(x: np.ndarray) -> float:
    return float(np.max(np.abs(x)))


def rp2_membership(tup: Sequence[NCPoly], cfg: GridConfig) -> tuple[bool, float]:
    """The quantum projective plane: sigma_i(t_a)(k, t) = sigma_j(t_b)(k, kt)
    along each gluing (a, b, i, j)."""
    k = Z2[:, None]
    t = interval_nodes(cfg.m_interval)[None, :]
    F = [symbol(p) for p in tup]
    r = 0.0
    for _, a, b, i, j in GLUINGS:
        r = max(r, _sup(F[a].eval(delta_angle(i, k, t)) - F[b].eval(delta_angle(j, k, k * t))))
    return r < TOL, r


def disc_membership(tup: Sequence[NCPoly], cfg: GridConfig) -> tuple[bool, float]:
    """The quantum-disc triple: sigma_i(p_a)(-1, t) = sigma_j(p_b)(-1, t)
    along each gluing (a, b, i, j)."""
    t = interval_nodes(cfg.m_interval)
    F = [symbol(p) for p in tup]
    r = 0.0
    for _, a, b, i, j in GLUINGS:
        r = max(r, _sup(F[a].eval(delta_angle(i, -1.0, t)) - F[b].eval(delta_angle(j, -1.0, t))))
    return r < TOL, r


def face_atlas(slots: Sequence[NCPoly], cfg: GridConfig) -> dict:
    """The twelve edge identifications of the six faces T_{i,+-1} for three
    slots of T (x) C(Z2): at each corner (a, c) of Z2 x Z2 and each gluing,
    (sigma_i (x) id)(piece a) at (a, t, c) equals (sigma_j (x) id)(piece b) at
    the swapped point (c, t, a), where (sigma (x) id)(p0 + p1 u) at (a, t, c)
    is sigma(p0)(a, t) + sigma(p1)(a, t) c."""
    t = interval_nodes(cfg.m_interval)
    F = [tuple(map(symbol, _u_parts(p))) for p in slots]

    def face(piece: int, i: int, a: float, c: float) -> np.ndarray:
        F0, F1 = F[piece]
        theta = delta_angle(i, a, t)
        return F0.eval(theta) + F1.eval(theta) * c

    edges = {}
    for key, pa, pb, i, j in GLUINGS:
        for a in (1.0, -1.0):
            for c in (1.0, -1.0):
                edges[(key, int(a), int(c))] = _sup(face(pa, i, a, c) - face(pb, j, c, a))
    worst = max(edges.values())
    return {"edges": edges, "max_residual": worst, "pass": worst < TOL}


# ---------------------------------------------------------------------------
# Z2 decomposition (the disc pieces of the sphere)
# ---------------------------------------------------------------------------

def equivariant_parts(p: NCPoly) -> tuple[NCPoly, NCPoly]:
    """Unique splitting of a slot of T (x) C(Z2) into the +1 and -1
    eigenparts of the diagonal action."""
    flipped = toeplitz_flip(p)
    return (p + flipped).scale(_HALF), (p - flipped).scale(_HALF)


def pi_n(p: NCPoly, n: int) -> NCPoly:
    """pi_n(p (x) t) = alpha_{(-1)^n}(p) t((-1)^{n+1}).  The diagonal action
    alpha negates u as well, so this is p0 - p1 for the u-parts of
    alpha^n(p)."""
    p0, p1 = _u_parts(toeplitz_flip(p) if n == 1 else p)
    return p0 - p1


def pi_n_inverse(p: NCPoly, n: int, sign: int) -> NCPoly:
    """n = 1: alpha_{-1}(p) (x) 1_{+1} +- p (x) 1_{-1};
    n = 2: p (x) 1_{-1} +- alpha_{-1}(p) (x) 1_{+1};
    with the indicators 1_{+-1} = (1 +- u)/2, for a Toeplitz slot p."""
    sgn = S_ONE if sign > 0 else -S_ONE
    ap = toeplitz_flip(p)
    if n == 1:
        p0 = (ap + p.scale(sgn)).scale(_HALF)
        p1 = (ap - p.scale(sgn)).scale(_HALF)
    else:
        p0 = (p + ap.scale(sgn)).scale(_HALF)
        p1 = (ap.scale(sgn) - p).scale(_HALF)
    return _with_u(p0, p1)


def decomposition_report() -> dict:
    """Exact certificate for the Z2 decomposition of the sphere into disc pieces:
    pi_n^{+-} o (pi_n^{+-})^{-1} = id on disc triples (forward),
    (pi_n^{+-})^{-1} o pi_n^{+-} = id on the +-1 eigenspace of the diagonal
    action (backward), and the inverse lands in that eigenspace.

    toeplitz_flip, pi_n, pi_n_inverse and equivariant_parts are Q(i)-linear,
    act on one slot, and send each word w to a multiple of w (or of w u)
    that depends only on len(w) % 2, n and the sign.  So each identity holds
    on every triple once it holds on every (word, slot, n, sign) case.  The
    maps act on every slot by the same function, so a case computed on one
    slot covers that word in each of the three slots: the 40 cases computed
    here, in exact NCPoly arithmetic, are the 10 basis words of degree <= 3
    (both parities) for the 4 (n, sign) pairs, and ``cases`` counts the 120
    (word, slot, n, sign) cases they cover.  By the parity argument they
    prove the identities for Toeplitz *-polynomial triples of every degree.
    The backward identity is checked on the eigenparts of w (x) 1 and
    w (x) u, which span the eigenspace, not on the image of the inverse,
    where it would follow from the forward one.  A residual is the symbol
    sup-norm bound of the worst nonzero difference, 0.0 on a pass.  The maps
    are read through this module, so a test can swap one of them for a
    mutant (tests/oracles.decomposition_three_slot_loop computes every case
    on three identical slots)."""
    from ..builtin import toeplitz_system

    alphabet = toeplitz_system().alphabet
    zero = NCPoly.zero(alphabet)
    worst_fwd = worst_bwd = worst_split = 0.0
    exact = True
    cases = 0
    for w in _toeplitz_basis(3):
        word = NCPoly(alphabet, {w: S_ONE})
        parts = [equivariant_parts(leg) for leg in (_with_u(word, zero), _with_u(zero, word))]
        for n, sign in ((1, 1), (2, 1), (1, -1), (2, -1)):
            cases += 3  # the one slot stands for each of the three
            elt = pi_n_inverse(word, n, sign)
            back = pi_n(elt, n)
            plus, minus = equivariant_parts(elt)
            split = minus if sign > 0 else plus
            eigen = [p[0] if sign > 0 else p[1] for p in parts]
            misses = [pi_n_inverse(pi_n(x, n), n, sign) - x for x in eigen]
            if back == word and split.is_zero() and all(m.is_zero() for m in misses):
                continue
            exact = False
            worst_fwd = max(worst_fwd, symbol(back - word).sup_norm_bound())
            worst_split = max(worst_split, _pair_bound(split))
            worst_bwd = max([worst_bwd] + [_pair_bound(m) for m in misses])
    return {
        "forward_roundtrip": worst_fwd,
        "backward_roundtrip": worst_bwd,
        "eigenspace": worst_split,
        "pass": exact,
        "cases": cases,
    }


def _pair_bound(p: NCPoly) -> float:
    p0, p1 = _u_parts(p)
    return symbol(p0).sup_norm_bound() + symbol(p1).sup_norm_bound()
