"""Membership in the quantum real projective plane, the quantum sphere and the
quantum disc; the six-face atlas; and the Z2-decomposition isomorphisms."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..ncpoly import NCPoly
from ..scalars import S_ONE, Scalar
from .circle import delta_angle, phi_gauged_pullback, psi_pullback
from .grids import GridConfig, Z2, interval_nodes
from .toeplitz import _toeplitz_basis, symbol, toeplitz_flip

_HALF = Scalar.of(Fraction(1, 2))


@dataclass
class SphereElement:
    """Element of (T (x) C(Z2))^3: per component, the u-degree-0 and -1 parts."""

    components: list  # list of 3 pairs (p0: NCPoly, p1: NCPoly)

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


def _sigma_eval(p: NCPoly, i: int, k, t) -> np.ndarray:
    """sigma_i(p) evaluated on the grids (exact symbol, exact chart angles)."""
    return symbol(p).eval(delta_angle(i, k, t))


def rp2_membership(tup: Sequence[NCPoly], cfg: GridConfig) -> tuple[bool, float]:
    """The three defining identifications of the quantum projective plane:
    sigma_1(t0) = Psi_01 sigma_1(t1), sigma_2(t0) = Psi_02 sigma_1(t2),
    sigma_2(t1) = Psi_12 sigma_2(t2)."""
    t0, t1, t2 = tup
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
    return r < cfg.tol, r


def _component_eval(pair, i: int, a, t, c) -> np.ndarray:
    """(sigma_i (x) id) of p0 (x) 1 + p1 (x) u, evaluated at (a, t, c) or (t, a, c)."""
    p0, p1 = pair
    return _sigma_eval(p0, i, a, t) + _sigma_eval(p1, i, a, t) * c


def sphere_membership(elt: SphereElement, cfg: GridConfig) -> tuple[bool, float]:
    """The gauged gluing conditions of the quantum-sphere triple pullback."""
    x = interval_nodes(cfg.m_interval)
    a = Z2[:, None, None]
    t = x[None, :, None]
    c = Z2[None, None, :]
    c0, c1, c2 = elt.components
    r = 0.0
    # (sigma_1 x id)(c0)(a,t,c) = (sigma_1 x id)(c1) after Phi_01 swap (c,t,a)
    lhs = _component_eval(c0, 1, a, t, c)
    rhs = phi_gauged_pullback("01", lambda A, T, C: _component_eval(c1, 1, A, T, C))(a, t, c)
    r = max(r, float(np.max(np.abs(lhs - rhs))))
    # (sigma_2 x id)(c0)(t,a,c) = Phi_02 (sigma_1 x id)(c2)
    lhs2 = _sigma_eval(c0[0], 2, a, t) + _sigma_eval(c0[1], 2, a, t) * c
    rhs2 = phi_gauged_pullback("02", lambda A, T, C: _component_eval(c2, 1, A, T, C))(
        t, a, c
    )
    r = max(r, float(np.max(np.abs(lhs2 - rhs2))))
    # (sigma_2 x id)(c1)(t,a,c) = Phi_12 (sigma_2 x id)(c2)
    lhs3 = _sigma_eval(c1[0], 2, a, t) + _sigma_eval(c1[1], 2, a, t) * c
    rhs3 = phi_gauged_pullback("12", lambda T, A, C: _sigma_eval(c2[0], 2, A, T) + _sigma_eval(c2[1], 2, A, T) * C)(t, a, c)
    r = max(r, float(np.max(np.abs(lhs3 - rhs3))))
    return r < cfg.tol, r


def disc_membership(tup: Sequence[NCPoly], cfg: GridConfig) -> tuple[bool, float]:
    """The quantum-disc triple: boundary edges glued along three interval maps."""
    p0, p1, p2 = tup
    x = interval_nodes(cfg.m_interval)
    r = 0.0
    r = max(r, float(np.max(np.abs(_sigma_eval(p0, 1, -1.0, x) - _sigma_eval(p1, 1, -1.0, x)))))
    r = max(r, float(np.max(np.abs(_sigma_eval(p0, 2, -1.0, x) - _sigma_eval(p2, 1, -1.0, x)))))
    r = max(r, float(np.max(np.abs(_sigma_eval(p1, 2, -1.0, x) - _sigma_eval(p2, 2, -1.0, x)))))
    return r < cfg.tol, r


def face_atlas(elt: SphereElement, cfg: GridConfig) -> dict:
    """Evaluate the six faces T_{i,+-1} and certify the twelve edge
    identifications (the three gluing conditions at the four Z2 x Z2 corners)."""
    x = interval_nodes(cfg.m_interval)
    faces = {}
    for i, (p0, p1) in enumerate(elt.components):
        for j in (1.0, -1.0):
            faces[(i, int(j))] = p0 + p1.scale(S_ONE if j > 0 else -S_ONE)
    edges = {}
    c0, c1, c2 = elt.components
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
    return {"edges": edges, "max_residual": worst, "pass": worst < cfg.tol, "faces": list(faces)}


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
    triple once it holds on every (word, slot, n, sign) case.  The cases run
    here, in exact NCPoly arithmetic, are the 10 basis words of degree <= 3
    (both parities) in each of the 3 slots for the 4 (n, sign) pairs; by the
    parity argument they prove the identities for Toeplitz *-polynomial
    triples of every degree.  The backward identity is checked on the
    eigenparts of w (x) 1 and w (x) u, which span the eigenspace, not on the
    image of the inverse, where it would follow from the forward one.  A
    residual is the symbol sup-norm bound of the worst nonzero difference,
    0.0 on a pass."""
    from ..builtin import toeplitz_system

    alphabet = toeplitz_system().alphabet
    zero = NCPoly.zero(alphabet)
    worst_fwd = worst_bwd = worst_split = 0.0
    exact = True
    cases = 0
    for w in _toeplitz_basis(3):
        # the maps act slot by slot, so w in every slot is three cases at once
        word = NCPoly(alphabet, {w: S_ONE})
        triple = [word] * 3
        parts = [equivariant_parts(SphereElement([leg] * 3)) for leg in ((word, zero), (zero, word))]
        for n, sign in ((1, 1), (2, 1), (1, -1), (2, -1)):
            cases += 3
            elt = pi_n_inverse(triple, n, sign)
            back = pi_n(elt, n)
            plus, minus = equivariant_parts(elt)
            split = minus if sign > 0 else plus
            eigen = [p[0] if sign > 0 else p[1] for p in parts]
            misses = [pi_n_inverse(pi_n(x, n), n, sign).sub(x) for x in eigen]
            if back == triple and split.is_zero() and all(m.is_zero() for m in misses):
                continue
            exact = False
            worst_fwd = max([worst_fwd] + [symbol(p - q).sup_norm_bound() for p, q in zip(back, triple)])
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
