"""Winding-number probes, the equivariant parity experiment, the Monte-Carlo
Peter-Weyl identities, and the surjectivity-criterion conditions."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations

import numpy as np

from .circle import (
    delta_angle,
    delta_pullback,
    interval_fn,
    omega_hat,
    phi_hat,
)
from .grids import GridConfig, Z2, circle_angles, interval_nodes
from .toeplitz import random_symbol_coeffs, random_toeplitz_poly, symbol


class WindingError(RuntimeError):
    pass


def winding_number(dets: np.ndarray, tol_det: float = 1e-9, max_jump: float = np.pi / 2) -> int:
    """Accumulated phase of a sampled loop of determinants divided by 2 pi.

    dets: (N,) complex samples of the loop at N angles in order.
    Raises WindingError('SINGULAR...') if a sample is tiny and
    WindingError('DENSITY...') if a phase jump exceeds the guard (then the
    rounding of the total phase would not be provably correct)."""
    dets = np.asarray(dets)
    small = np.abs(dets) < tol_det
    if np.any(small):
        raise WindingError(f"SINGULAR at sample {int(np.argmax(small))}")
    closed = np.concatenate([dets, dets[:1]])
    jumps = np.angle(closed[1:] / closed[:-1])
    if np.max(np.abs(jumps)) >= max_jump:
        raise WindingError("DENSITY: phase jump exceeds the guard; resample more densely")
    total = float(np.sum(jumps))
    return int(round(total / (2 * np.pi)))


def fourier_table(theta: np.ndarray, max_deg: int = 3) -> np.ndarray:
    """exp(i k theta) for k = -max_deg..max_deg (rows) at every angle (columns);
    Fourier coefficients c_k, k = -max_deg..max_deg, contract against its first
    axis."""
    ks = np.arange(-max_deg, max_deg + 1)
    return np.exp(1j * np.outer(ks, theta))


@dataclass
class ParityReport:
    size: int
    trials: int
    windings: list = field(default_factory=list)
    control_windings: list = field(default_factory=list)
    resamples: int = 0

    @property
    def all_odd(self) -> bool:
        return all(w % 2 == 1 for w in self.windings)

    @property
    def control_has_both(self) -> bool:
        pars = {w % 2 for w in self.control_windings}
        return pars == {0, 1}


@cache
def _leibniz_terms(n: int) -> tuple:
    """(column of each row, sign) for the n! permutations of n columns."""
    return tuple(
        (perm, (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)))
        for perm in permutations(range(n))
    )


def det_coeffs(c: np.ndarray) -> np.ndarray:
    """Fourier coefficients of the determinant of a matrix loop.

    c: (n, n, 2*max_deg + 1) complex coefficients c_k, k = -max_deg..max_deg,
    of each entry.  Returns the 2*n*max_deg + 1 coefficients of det, degrees
    -n*max_deg..n*max_deg: the Leibniz sum over the permutations of the
    columns, each term a chain of np.convolve products (n! terms)."""
    n = c.shape[0]
    out = np.zeros(n * (c.shape[2] - 1) + 1, dtype=complex)
    for perm, sign in _leibniz_terms(n):
        term = c[0, perm[0]]
        for i in range(1, n):
            term = np.convolve(term, c[i, perm[i]])
        if sign > 0:
            out += term
        else:
            out -= term
    return out


class LoopSampler:
    """Random matrix loops theta -> M(theta) in dimension n, each entry a
    Fourier polynomial of degree <= max_deg, as their determinants at the
    angles theta; only loops with min |det| > 1e-3 are handed out.

    A loop is one generator call: entry by entry in row-major order, the real
    and then the imaginary parts of its 2*max_deg + 1 coefficients, the order
    an entry-at-a-time loop draws them (tests/oracles.per_entry_parity_probe).
    The parity of a loop is imposed after the draw by zeroing coefficients:
    with an odd first row the other rows are even, with an even first row
    they are unconstrained.

    The determinant of a loop is a Fourier polynomial of degree <= n*max_deg.
    det_coeffs forms its coefficients from the entry coefficients, and one
    product against an exp(ik theta) table built once per sampler gives its
    samples: no matrix is formed and no LAPACK call made per sample.  The
    samples agree with LAPACK's determinants of the sampled matrices to
    within rounding, not bit for bit (tests/test_numgeom.py bounds the gap).
    An odd loop's determinant is odd, and that is checked exactly: each of
    its even-degree coefficients is a sum of products with an exact-zero
    factor, so it is exactly 0.

    The product is elementwise and summed over k, not ``d @ table``: the
    matrix-vector product, 4x faster on its own, goes to OpenBLAS, whose
    threads then spin on a second core (on 2 vCPUs a numeric benchmark
    pass took 0.24 s CPU with it and 0.19 s without, at equal wall time),
    and it raised the peak RSS of an exact pass, which runs this sampler in
    a negative control, by about 0.2 MB."""

    def __init__(self, rng, n: int, theta: np.ndarray, max_deg: int = 3):
        self.rng = rng
        self.table = fourier_table(theta, n * max_deg)
        # det coefficient i has degree i - n*max_deg
        self.even_degree = slice((n * max_deg) % 2, None, 2)
        odd = np.arange(-max_deg, max_deg + 1) % 2 == 1
        first = np.arange(n)[:, None, None] == 0
        # coefficients zeroed, by (row, column, k), for each first-row parity
        self.drop = {
            "odd": np.broadcast_to(np.where(first, ~odd, odd), (n, n, odd.size)),
            "even": np.broadcast_to(first & odd, (n, n, odd.size)),
        }

    def next_dets(self, first_row: str) -> np.ndarray:
        """The (N,) determinant samples of the next loop whose first row has
        parity ``first_row`` ('odd' or 'even')."""
        n, _, nk = self.drop[first_row].shape
        while True:
            raw = self.rng.normal(size=(n, n, 2, nk))
            c = raw[..., 0, :] + 1j * raw[..., 1, :]
            c[self.drop[first_row]] = 0.0
            d = det_coeffs(c)
            if first_row == "odd":
                assert not d[self.even_degree].any(), "an odd loop's det has an even-degree term"
            dets = (d[:, None] * self.table).sum(axis=0)
            if np.min(np.abs(dets)) > 1e-3:
                return dets


def equivariant_parity_probe(n: int, trials: int, cfg: GridConfig) -> ParityReport:
    """det of a loop with odd first row and even other rows is odd, hence has
    odd winding; the control family (even first row, unconstrained others)
    shows both parities."""
    loops = LoopSampler(cfg.rng(4), n, circle_angles(cfg.n_circle))
    report = ParityReport(size=n, trials=trials)

    def sample(first_row: str) -> int:
        while True:
            dets = loops.next_dets(first_row)
            try:
                return winding_number(dets)
            except WindingError:
                report.resamples += 1

    for _ in range(trials):
        report.windings.append(sample("odd"))
    for _ in range(trials):
        report.control_windings.append(sample("even"))
    return report


# ---------------------------------------------------------------------------
# Peter-Weyl identities on Monte-Carlo points of the 3-sphere
# ---------------------------------------------------------------------------

def peter_weyl_report(samples: int, cfg: GridConfig, degrees=(-2, -1, 0, 1, 2)) -> dict:
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
    # the factor supported on each patch vanishes there
    apatch = aa >= 0.5
    out["a_patch_unitary"] = float(np.max(np.abs(omega2[apatch] * aa[apatch] - 1.0)))
    out["c_patch_unitary"] = float(np.max(np.abs(omega2[~apatch] * cc[~apatch] - 1.0)))
    # cleaving multiplicativity on the a-patch: (omega a)^(n+m) = (omega a)^n (omega a)^m
    # with negative powers via the conjugate (unitarity makes this the inverse)
    omega = np.sqrt(omega2)
    wa = omega[apatch] * a[apatch]

    def power(z, k):
        return z**k if k >= 0 else np.conj(z) ** (-k)

    worst = 0.0
    for nn in degrees:
        for mm in degrees:
            lhs = power(wa, nn + mm)
            rhs = power(wa, nn) * power(wa, mm)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    out["cleaving_multiplicative"] = worst
    # line-bundle equivariance: f = omega^n a^n satisfies f(e^{i phi} x) = f(x) e^{i n phi}
    # omega * a at the rotated samples is computed once per phi, for every
    # degree.  One rotated array is alive at a time, and the powers of the
    # unrotated one are recomputed rather than held: holding them raised the
    # peak RSS of a numeric benchmark pass by 0.6 MB.
    phis = rng.uniform(0, 2 * np.pi, size=8)
    wa_of = lambda av, cv: np.sqrt(2.0 / (1.0 + np.abs(np.abs(av) ** 2 - np.abs(cv) ** 2))) * av
    wa_all = wa_of(a, c)
    worst = 0.0
    for phi in phis:
        g = np.exp(1j * phi)
        wa_rot = wa_of(a * g, c * g)
        for nn in degrees:
            resid = power(wa_rot, nn) - power(wa_all, nn) * np.exp(1j * nn * phi)
            worst = max(worst, float(np.max(np.abs(resid))))
    out["line_bundle_equivariance"] = worst
    out["pass"] = max(out["zero_identity"], out["cleaving_multiplicative"], out["line_bundle_equivariance"]) < cfg.tol
    out["samples"] = samples
    return out


# ---------------------------------------------------------------------------
# surjectivity-criterion conditions
# ---------------------------------------------------------------------------

def mattprop_report(cfg: GridConfig, n_random: int = 1000) -> dict:
    """Condition (1): for h vanishing at the interval endpoints, F = omega_1(h)
    satisfies delta_1^* F = h and delta_2^* F = 0 (the kernel-image equality on
    a generating family); the mirrored statement for omega_2.  Condition (2):
    the two composite partial-inverse paths agree modulo functions vanishing
    at the endpoints, on random degree-<=3 Toeplitz elements; plus the corner
    identity (id (x) iota^*) delta_1^* = (iota^* (x) id) delta_2^*."""
    rng = cfg.rng(6)
    out = {}
    worst_split, worst_kernel = _condition1_residuals(rng, interval_nodes(cfg.m_interval))
    out["condition1_splitting"] = worst_split
    out["condition1_kernel_image"] = worst_kernel
    # corner identity
    k1 = Z2[:, None]
    k2 = Z2[None, :]
    worst_corner = 0.0
    for _ in range(16):
        p = random_toeplitz_poly(rng, 3)
        F = symbol(p)
        lhs = F.eval(delta_angle(1, k1, k2.astype(float)))  # (id x iota^*) delta_1^*
        rhs = F.eval(delta_angle(2, k2, k1.astype(float)))  # (iota^* x id) delta_2^*
        worst_corner = max(worst_corner, float(np.max(np.abs(lhs - rhs))))
    out["corner_identity"] = worst_corner
    worst_c2 = _condition2_residual(rng, n_random)
    out["condition2_residual"] = worst_c2
    out["pass"] = (
        max(worst_split, worst_kernel, worst_corner, worst_c2) < max(cfg.tol, 1e-9)
    )
    out["trials"] = n_random
    return out


def _condition1_residuals(rng, nodes: np.ndarray) -> tuple[float, float]:
    """Condition (1) on 24 random h vanishing at the interval endpoints, each
    paired with (e0, e1) in {(1, 0), (0, 1), (0.7, -0.4)}: the worst
    splitting and kernel-image residuals.  One generator call draws all
    trials, in the order a trial-at-a-time loop draws them
    (tests/oracles.condition1_loop), and each pair is one array pass over all
    trials, with the trial axis leading."""
    draws = rng.normal(size=(24, 2, nodes.size))
    vals = draws[:, 0] + 1j * draws[:, 1]
    vals[:, 0] = vals[:, -1] = 0.0  # vanishes at the endpoints
    h = interval_fn(vals, nodes)
    k = Z2[:, None]
    t = nodes[None, :]
    worst_split = 0.0
    worst_kernel = 0.0
    for e0, e1 in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.4)):
        f1 = lambda kk, tt: (e0 + e1 * np.asarray(kk)) * h(tt)
        F = omega_hat(1, f1)
        back = delta_pullback(1, F)
        worst_split = max(worst_split, float(np.max(np.abs(back(k, t) - f1(k, t)))))
        other = delta_pullback(2, F)
        worst_kernel = max(worst_kernel, float(np.max(np.abs(other(t, k)))))
        f2 = lambda tt, kk: (e0 + e1 * np.asarray(kk)) * h(tt)
        G = omega_hat(2, f2)
        back2 = delta_pullback(2, G)
        worst_split = max(worst_split, float(np.max(np.abs(back2(t, k) - f2(t, k)))))
        other2 = delta_pullback(1, G)
        worst_kernel = max(worst_kernel, float(np.max(np.abs(other2(k, t)))))
    return worst_split, worst_kernel


def _condition2_residual(rng, n_random: int) -> float:
    """Condition (2) on n_random random b (x) g, b a degree-<=3 Toeplitz
    element and g in C(Z2): the composite paths
    A = pi^{01}_2 (pi^{02}_1)^{-1} pi^{20}_1 and B = pi^{10}_2 (pi^{12}_0)^{-1} pi^{21}_0
    agree modulo C(Z2) (x) ker iota^* (x) C(Z2), i.e. at x = +-1.

    Both paths read the symbol of b only at angles fixed by the grid: the
    four angle sets (path A or B, c = +-1) and their exp(i k theta) tables are
    built once per call and stacked into one array.  Each trial draws b, then
    g, as the composed closures do (tests/oracles.condition2_closures);
    toeplitz.random_symbol_coeffs folds the drawn integers straight into
    the symbol of b, padded here with zero terms to 2*max_deg + 1.  One pass
    over all trials then sums every symbol over the four angle sets a term at
    a time and combines the Z2 parts as omega_2 does.  So every element gets
    the float operations the closures make; a zero term adds a signed zero,
    which the final abs erases."""
    max_deg = 3
    n_terms = 2 * max_deg + 1
    aas = Z2[:, None, None]
    xs = np.array([1.0, -1.0])[None, :, None]
    cs = Z2[None, None, :]
    # Path A evaluates omega_2 at delta_1(a, x); path B, behind the Phi_01
    # swap, at delta_1(c, x).  omega_2 reads the symbol at phi_1 of its angle.
    th = {"A": delta_angle(1, aas, xs), "B": delta_angle(1, cs, xs)}
    keys = (("A", 1.0), ("A", -1.0), ("B", 1.0), ("B", -1.0))
    angles, phi2 = np.empty((2, len(keys), 4))
    for i, (path, cv) in enumerate(keys):
        angles[i] = delta_angle(1 if path == "A" else 2, cv, phi_hat(1, th[path])).ravel()
        phi2[i] = phi_hat(2, th[path]).ravel()
    tables = np.stack([np.exp(1j * k * angles) for k in range(-max_deg, max_deg + 1)])
    ks = np.zeros((n_random, n_terms), dtype=np.intp)
    coeffs = np.zeros((n_random, n_terms, 1, 1), dtype=complex)
    g = np.empty((n_random, 2, 1, 1))
    for t in range(n_random):
        symb = random_symbol_coeffs(rng, max_deg)
        ks[t, : len(symb)] = list(symb)
        coeffs[t, : len(symb), 0, 0] = list(symb.values())
        g[t, :, 0, 0] = rng.normal(size=2)
    ks += max_deg
    gp = g[:, 0] + g[:, 1] * np.asarray(1.0)
    gm = g[:, 0] + g[:, 1] * np.asarray(-1.0)
    e = np.zeros((n_random,) + angles.shape, dtype=complex)
    for j in range(n_terms):
        e += coeffs[:, j] * tables[ks[:, j]]
    ep, em = e * gp, e * gm
    y = 0.5 * (ep + em) + phi2 * (0.5 * (ep - em))
    za = np.where(cs > 0, y[:, 0].reshape(-1, 2, 2, 1), y[:, 1].reshape(-1, 2, 2, 1))
    zb = np.where(aas > 0, y[:, 2].reshape(-1, 1, 2, 2), y[:, 3].reshape(-1, 1, 2, 2))
    return float(np.max(np.abs(za - zb), initial=0.0))
