"""Membership in the quantum real projective plane, the quantum sphere and the
quantum disc; the six-face atlas; and the Z2-decomposition isomorphisms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..ncpoly import NCPoly
from ..scalars import S_ONE, Scalar
from .circle import delta_angle
from .grids import GridConfig, Z2, interval_nodes
from .toeplitz import _toeplitz_basis, symbol, toeplitz_flip

_HALF = Scalar.of(Fraction(1, 2))


@dataclass
class SphereElement:
    """Element of (T (x) C(Z2))^k, one pair (u-degree-0 part, u-degree-1 part)
    per slot: k = 3 for a sphere element, k = 1 for the one-slot elements
    of decomposition_report (every map here acts slot by slot)."""

    components: list  # one pair (p0: NCPoly, p1: NCPoly) per slot

    def flip(self) -> "SphereElement":
        """The diagonal Z2-action: alpha_T on the Toeplitz leg, u -> -u."""
        return SphereElement(
            [(toeplitz_flip(p0), toeplitz_flip(p1).scale(-S_ONE)) for p0, p1 in self.components]
        )

    def sub(self, other: "SphereElement") -> "SphereElement":
        return SphereElement(
            [
                (p0 - q0, p1 - q1)
                for (p0, p1), (q0, q1) in zip(self.components, other.components)
            ]
        )

    def scale(self, c) -> "SphereElement":
        return SphereElement([(p0.scale(c), p1.scale(c)) for p0, p1 in self.components])

    def add(self, other: "SphereElement") -> "SphereElement":
        return SphereElement(
            [
                (p0 + q0, p1 + q1)
                for (p0, p1), (q0, q1) in zip(self.components, other.components)
            ]
        )

    def is_zero(self) -> bool:
        return all(p0.is_zero() and p1.is_zero() for p0, p1 in self.components)


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
    return r < cfg.tol, r


def disc_membership(tup: Sequence[NCPoly], cfg: GridConfig) -> tuple[bool, float]:
    """The quantum-disc triple: sigma_i(p_a)(-1, t) = sigma_j(p_b)(-1, t)
    along each gluing (a, b, i, j)."""
    t = interval_nodes(cfg.m_interval)
    F = [symbol(p) for p in tup]
    r = 0.0
    for _, a, b, i, j in GLUINGS:
        r = max(r, _sup(F[a].eval(delta_angle(i, -1.0, t)) - F[b].eval(delta_angle(j, -1.0, t))))
    return r < cfg.tol, r


def face_atlas(elt: SphereElement, cfg: GridConfig) -> dict:
    """The twelve edge identifications of the six faces T_{i,+-1}: at each
    corner (a, c) of Z2 x Z2 and each gluing, (sigma_i (x) id)(piece a) at
    (a, t, c) equals (sigma_j (x) id)(piece b) at the swapped point (c, t, a),
    where (sigma (x) id)(p0 (x) 1 + p1 (x) u) at (a, t, c) is
    sigma(p0)(a, t) + sigma(p1)(a, t) c."""
    t = interval_nodes(cfg.m_interval)
    F = [(symbol(p0), symbol(p1)) for p0, p1 in elt.components]

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
    return {"edges": edges, "max_residual": worst, "pass": worst < cfg.tol}


# ---------------------------------------------------------------------------
# Z2 decomposition (the disc pieces of the sphere)
# ---------------------------------------------------------------------------

def equivariant_parts(elt: SphereElement) -> tuple[SphereElement, SphereElement]:
    """Unique splitting into the +1 and -1 eigenparts of the diagonal action."""
    flipped = elt.flip()
    plus = elt.add(flipped).scale(_HALF)
    minus = elt.sub(flipped).scale(_HALF)
    return plus, minus


def pi_n(elt: SphereElement, n: int) -> list[NCPoly]:
    """pi_n(p (x) t) = alpha_{(-1)^n}(p) t((-1)^{n+1}), componentwise."""
    out = []
    for p0, p1 in elt.components:
        if n == 1:
            q0, q1 = toeplitz_flip(p0), toeplitz_flip(p1)
            out.append(q0 + q1)  # t evaluated at +1
        else:
            out.append(p0 - p1)  # alpha_{+1} = id, t evaluated at -1
    return out


def pi_n_inverse(triple: Sequence[NCPoly], n: int, sign: int) -> SphereElement:
    """n = 1: alpha_{-1}(p) (x) 1_{+1} +- p (x) 1_{-1};
    n = 2: p (x) 1_{-1} +- alpha_{-1}(p) (x) 1_{+1};
    with the indicators 1_{+-1} = (1 +- u)/2."""
    sgn = S_ONE if sign > 0 else -S_ONE
    comps = []
    for p in triple:
        ap = toeplitz_flip(p)
        if n == 1:
            p0 = (ap + p.scale(sgn)).scale(_HALF)
            p1 = (ap - p.scale(sgn)).scale(_HALF)
        else:
            p0 = (p + ap.scale(sgn)).scale(_HALF)
            p1 = (ap.scale(sgn) - p).scale(_HALF)
        comps.append((p0, p1))
    return SphereElement(comps)


def decomposition_report() -> dict:
    """Exact certificate for the Z2 decomposition of the sphere into disc pieces:
    pi_n^{+-} o (pi_n^{+-})^{-1} = id on disc triples (forward),
    (pi_n^{+-})^{-1} o pi_n^{+-} = id on the +-1 eigenspace of the diagonal
    action (backward), and the inverse lands in that eigenspace.

    toeplitz_flip, pi_n, pi_n_inverse and equivariant_parts are Q(i)-linear,
    act slot by slot, and send each word w to a multiple of w that depends
    only on len(w) % 2, n and the sign.  So each identity holds on every
    triple once it holds on every (word, slot, n, sign) case.  The maps act
    on every slot by the same function, so a case computed on a one-slot
    element covers that word in each of the three slots: the 40 cases
    computed here, in exact NCPoly arithmetic, are the 10 basis words of
    degree <= 3 (both parities) for the 4 (n, sign) pairs, and ``cases``
    counts the 120 (word, slot, n, sign) cases they cover.  By the parity
    argument they prove the identities for Toeplitz *-polynomial triples of
    every degree.  The backward identity is checked on the eigenparts of
    w (x) 1 and w (x) u, which span the eigenspace, not on the image of the
    inverse, where it would follow from the forward one.  A residual is the
    symbol sup-norm bound of the worst nonzero difference, 0.0 on a pass.
    The maps are read through this module, so a test can swap one of them
    for a mutant (tests/oracles.decomposition_three_slot_loop computes every
    case on three identical slots)."""
    from ..builtin import toeplitz_system

    alphabet = toeplitz_system().alphabet
    zero = NCPoly.zero(alphabet)
    worst_fwd = worst_bwd = worst_split = 0.0
    exact = True
    cases = 0
    for w in _toeplitz_basis(3):
        word = NCPoly(alphabet, {w: S_ONE})
        slot = [word]
        parts = [equivariant_parts(SphereElement([leg])) for leg in ((word, zero), (zero, word))]
        for n, sign in ((1, 1), (2, 1), (1, -1), (2, -1)):
            cases += 3  # the one slot stands for each of the three
            elt = pi_n_inverse(slot, n, sign)
            back = pi_n(elt, n)
            plus, minus = equivariant_parts(elt)
            split = minus if sign > 0 else plus
            eigen = [p[0] if sign > 0 else p[1] for p in parts]
            misses = [pi_n_inverse(pi_n(x, n), n, sign).sub(x) for x in eigen]
            if back == slot and split.is_zero() and all(m.is_zero() for m in misses):
                continue
            exact = False
            worst_fwd = max([worst_fwd] + [symbol(p - q).sup_norm_bound() for p, q in zip(back, slot)])
            worst_split = max([worst_split] + [_pair_bound(pair) for pair in split.components])
            worst_bwd = max([worst_bwd] + [_pair_bound(pair) for m in misses for pair in m.components])
    return {
        "forward_roundtrip": worst_fwd,
        "backward_roundtrip": worst_bwd,
        "eigenspace": worst_split,
        "pass": exact,
        "cases": cases,
    }


def _pair_bound(pair) -> float:
    p0, p1 = pair
    return symbol(p0).sup_norm_bound() + symbol(p1).sup_norm_bound()
