"""Winding-number probes, the equivariant parity experiment, the Monte-Carlo
Peter-Weyl identities, and the surjectivity-criterion conditions."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cache
from itertools import permutations

import numpy as np

from .circle import (
    chart_points,
    delta_angle,
    interval_fn,
    phi_hat,
    read_once,
    z2_split,
)
from .grids import GridConfig, Z2, circle_angles, interval_nodes
from .toeplitz import draw_symbols, eval_symbols, fold_symbol_draws


# winding_numbers' guards: a sample below SINGULAR_TOL in modulus, or a phase
# step of MAX_PHASE_JUMP or more between neighbours, rejects the loop
SINGULAR_TOL = 1e-9
MAX_PHASE_JUMP = np.pi / 2

# Parity loops drawn and sampled together.  A block of 16 loops of 720
# samples allocates at most 0.5 MB (tracemalloc; peter_weyl_report 2.2 MB).
# A block of 32, no faster per probe, allocates 1.0 MB and raised the peak
# RSS of an exact-formal benchmark pass, whose negative controls run the
# sampler, from 38.2 to 38.4 MB (medians of 5, 2 vCPU, numpy 2.4).
LOOP_BLOCK = 16


def winding_numbers(dets: np.ndarray, min_abs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Accumulated phase of each sampled loop of determinants divided by 2 pi.

    dets: (..., N) complex samples of each loop at N angles in order;
    min_abs, when the caller has it, the least modulus of each loop.
    Returns the windings and whether each loop passes the guards: no sample
    below SINGULAR_TOL in modulus, and every phase step between neighbours
    below MAX_PHASE_JUMP (otherwise the rounding of the total phase would not
    be provably correct).  A loop that fails them has winding 0."""
    if min_abs is None:
        min_abs = np.abs(dets).min(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        jumps = np.roll(dets, -1, axis=-1)
        jumps /= dets
        jumps = np.angle(jumps)
        ok = (min_abs >= SINGULAR_TOL) & (np.abs(jumps).max(axis=-1) < MAX_PHASE_JUMP)
        total = np.where(ok, jumps.sum(axis=-1), 0.0)
    return np.rint(total / (2 * np.pi)).astype(int), ok


@dataclass
class ParityReport:
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
    """Fourier coefficients of the determinants of a block of matrix loops.

    c: (B, n, n, 2*max_deg + 1) complex coefficients c_k, k = -max_deg..max_deg,
    of each entry of each loop.  Returns the (B, 2*n*max_deg + 1)
    coefficients of their determinants, degrees -n*max_deg..n*max_deg: the
    Leibniz sum over the permutations of the columns (n! terms), each term
    a chain of polynomial products over the whole block, one shifted
    multiply-add per coefficient of the next factor."""
    b, n, _, nk = c.shape
    out = np.zeros((b, n * (nk - 1) + 1), dtype=complex)
    for perm, sign in _leibniz_terms(n):
        term = c[:, 0, perm[0]]
        for i in range(1, n):
            factor = c[:, i, perm[i]]
            width = term.shape[1]
            product = np.zeros((b, width + nk - 1), dtype=complex)
            for k in range(nk):
                product[:, k : k + width] += term * factor[:, k, None]
            term = product
        if sign > 0:
            out += term
        else:
            out -= term
    return out


def replay(kept: np.ndarray, windings: np.ndarray, ok: np.ndarray, need: int) -> tuple[int, list, int]:
    """Walk a block's loops in order until ``need`` windings are taken: a loop
    that fails the min |det| filter is skipped, one that fails a winding
    guard is a resample.  Returns the number of loops used, the windings
    taken and the resamples."""
    taken, resamples = [], 0
    for i in np.flatnonzero(kept):
        if not ok[i]:
            resamples += 1
            continue
        taken.append(int(windings[i]))
        if len(taken) == need:
            return int(i) + 1, taken, resamples
    return kept.size, taken, resamples


class LoopSampler:
    """Random matrix loops theta -> M(theta) in dimension n, each entry a
    Fourier polynomial of degree <= max_deg, read as the winding numbers of
    their determinants at the n_circle angles of circle_angles; only loops
    with min |det| > 1e-3 count.

    Loops are drawn LOOP_BLOCK at a time in one generator call, each entry by
    entry in row-major order, the real and then the imaginary parts of its
    2*max_deg + 1 coefficients: the values an entry-at-a-time loop draws
    (tests/oracles.per_entry_parity_probe), because Generator.normal fills
    its output in order.  Loops past the last one a call uses stay buffered
    for the next call, which may ask for the other family.  The parity of a
    loop is imposed after the draw by zeroing coefficients: with an odd
    first row the other rows are even, with an even first row they are
    unconstrained.

    A pass reads the pending loops the family still needs, at most the rest
    of the block (a loop that fails the filter or a guard costs another
    pass): det_coeffs forms the determinant coefficients of every loop (a
    Fourier polynomial of degree <= n*max_deg), the samples follow from
    them, one min |det| per loop serves the filter and winding_numbers'
    singular guard, and replay walks the loops in order.  The samples are
    the even- and odd-degree parts E and O of each determinant, each by
    Horner's rule in z**2 on the first half of the grid times its lowest
    power of z: the grid is symmetric (8 | n_circle), and at the antipode
    -z of a point z the determinant is E - O.  No matrix is formed and no
    BLAS or LAPACK call made.  The samples agree with LAPACK's determinants
    of the sampled matrices to within rounding, not bit for bit
    (tests/test_numgeom.py bounds the gap).  An odd loop's determinant is
    odd, and that is checked exactly: each of its even-degree coefficients
    is a sum of products with an exact-zero factor, so it is exactly 0, and
    its E is not evaluated.

    Every step is elementwise on the block, not an FFT: an inverse-FFT
    evaluation would load numpy.fft inside the exact workloads' negative
    control.  Nor is any step a matrix product, so the probe makes no BLAS
    call and runs on the one thread the numgeom import leaves OpenBLAS."""

    def __init__(self, rng, n: int, n_circle: int, max_deg: int = 3):
        self.rng = rng
        # the first half of the grid; the second half is its antipodes
        theta = circle_angles(n_circle)[: n_circle // 2]
        self.w = np.exp(2j * theta)
        # det coefficient i has degree i - n*max_deg; per degree parity, the
        # coefficients and the lowest power of z
        low = -n * max_deg
        self.parts = {
            parity: (slice(j, None, 2), np.exp(1j * (low + j) * theta))
            for parity, j in (("even", low % 2), ("odd", 1 - low % 2))
        }
        odd = np.arange(-max_deg, max_deg + 1) % 2 == 1
        first = np.arange(n)[:, None, None] == 0
        # coefficients zeroed, by (row, column, k), for each first-row parity
        self.drop = {
            "odd": np.broadcast_to(np.where(first, ~odd, odd), (n, n, odd.size)),
            "even": np.broadcast_to(first & odd, (n, n, odd.size)),
        }
        self.pending = np.empty((0, n, n, 2, odd.size))

    def _part(self, d: np.ndarray, parity: str) -> np.ndarray:
        """The even- or odd-degree part of each determinant at the first half
        of the grid: Horner's rule in w = z**2, times the part's lowest power
        of z."""
        index, lowest = self.parts[parity]
        coeffs = d[:, index]
        out = np.repeat(coeffs[:, -1:], self.w.size, axis=1)
        for i in range(coeffs.shape[1] - 2, -1, -1):
            out *= self.w
            out += coeffs[:, i, None]
        out *= lowest
        return out

    def _samples(self, d: np.ndarray, first_row: str) -> np.ndarray:
        """The determinants at every grid angle, from their coefficients d:
        E + O on the first half of the grid and E - O on its antipodes."""
        odd_part = self._part(d, "odd")
        even_part = self._part(d, "even") if first_row == "even" else 0.0
        half = self.w.size
        dets = np.empty((d.shape[0], 2 * half), dtype=complex)
        np.add(even_part, odd_part, out=dets[:, :half])
        np.subtract(even_part, odd_part, out=dets[:, half:])
        return dets

    def _block(self, first_row: str, need: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first ``need`` pending loops (all of them if fewer) as the
        family ``first_row``: whether each passes the min |det| filter, its
        winding and whether that passes the guards.  Loops past ``need`` stay
        unread: a family that ends partway through a block leaves them to the
        next call, which may read them as the other family."""
        raw = self.pending[:need]
        c = raw[..., 0, :] + 1j * raw[..., 1, :]
        c[:, self.drop[first_row]] = 0.0
        d = det_coeffs(c)
        if first_row == "odd":
            assert not d[:, self.parts["even"][0]].any(), "an odd loop's det has an even-degree term"
        dets = self._samples(d, first_row)
        min_abs = np.abs(dets).min(axis=1)
        return (min_abs > 1e-3, *winding_numbers(dets, min_abs))

    def windings(self, first_row: str, count: int) -> tuple[list, int]:
        """The winding numbers of the next ``count`` loops whose first row has
        parity ``first_row`` ('odd' or 'even') and that pass the filter and
        the guards, and the number of loops the guards rejected on the way
        (a loop the filter rejects is redrawn without a count)."""
        taken, resamples = [], 0
        while len(taken) < count:
            if not len(self.pending):
                self.pending = self.rng.normal(size=(LOOP_BLOCK,) + self.pending.shape[1:])
            need = count - len(taken)
            used, got, bad = replay(*self._block(first_row, need), need)
            self.pending = self.pending[used:]
            taken += got
            resamples += bad
        return taken, resamples


def equivariant_parity_probe(n: int, trials: int, cfg: GridConfig) -> ParityReport:
    """det of a loop with odd first row and even other rows is odd, hence has
    odd winding; the control family (even first row, unconstrained others)
    shows both parities.  One LoopSampler draws both families, the control
    from where the odd family stopped."""
    loops = LoopSampler(cfg.rng(4), n, cfg.n_circle)
    report = ParityReport()
    report.windings, odd_resamples = loops.windings("odd", trials)
    report.control_windings, even_resamples = loops.windings("even", trials)
    report.resamples = odd_resamples + even_resamples
    return report


# ---------------------------------------------------------------------------
# Peter-Weyl identities on Monte-Carlo points of the 3-sphere
# ---------------------------------------------------------------------------

def peter_weyl_report(samples: int, cfg: GridConfig, degrees=(-2, -1, 0, 1, 2)) -> dict:
    """The patch identities on Monte-Carlo points of the 3-sphere.  The
    cleaving check computes each power of omega * a once (9 where pairwise
    products make 75) and frees them before the line-bundle check."""
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
    # the a-patch, and so the cleaving set, may be empty at a few samples
    apatch = aa >= 0.5
    # cleaving multiplicativity on the a-patch: (omega a)^(n+m) = (omega a)^n (omega a)^m
    # with negative powers via the conjugate (unitarity makes this the inverse)
    omega = np.sqrt(omega2)
    wa = omega[apatch] * a[apatch]

    def power(z, k):
        """z**k, the conjugate's power for k < 0.  At k = 0 and +-1 numpy's
        general complex power (tests/oracles.peter_weyl_loop) returns
        exactly 1, z and conj(z) (a zero's sign aside, which the residuals'
        abs erases), at several times the cost of z**2."""
        if k == 0:
            return np.ones_like(z)
        if k == 1:
            return z
        if k == -1:
            return np.conj(z)
        return z**k if k >= 0 else np.conj(z) ** (-k)

    pw = {k: power(wa, k) for k in {*degrees, *(nn + mm for nn in degrees for mm in degrees)}}
    worst = 0.0
    for nn in degrees:
        for mm in degrees:
            worst = max(worst, float(np.max(np.abs(pw[nn + mm] - pw[nn] * pw[mm]), initial=0.0)))
    del pw
    out["cleaving_multiplicative"] = worst
    # line-bundle equivariance: f = omega^n a^n satisfies f(e^{i phi} x) = f(x) e^{i n phi}
    # omega * a at the rotated samples is computed once per phi, for every
    # degree.  The powers of the unrotated one are recomputed rather than
    # held: holding them raises the peak RSS of a numeric benchmark pass from
    # 39.6 to 40.3 MB (2 vCPU, numpy 2.4).
    phis = rng.uniform(0, 2 * np.pi, size=8)
    wa_of = lambda av, cv: np.sqrt(2.0 / (1.0 + np.abs(np.abs(av) ** 2 - np.abs(cv) ** 2))) * av
    wa_all = wa_of(a, c)
    worst = 0.0
    for phi in phis:
        g = np.exp(1j * phi)
        wa_rot = wa_of(a * g, c * g)
        # nn = 0 is skipped: its residual is 1 - 1 * exp(0j), exactly 0
        for nn in filter(None, degrees):
            resid = power(wa_rot, nn) - power(wa_all, nn) * np.exp(1j * nn * phi)
            worst = max(worst, float(np.max(np.abs(resid))))
    out["line_bundle_equivariance"] = worst
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
    out["condition1_splitting"], out["condition1_kernel_image"] = _condition1_residuals(
        rng, interval_nodes(cfg.m_interval)
    )
    out["corner_identity"] = _corner_residual(rng)
    out["condition2_residual"] = _condition2_residual(rng, n_random)
    return out


def _condition1_residuals(rng, nodes: np.ndarray) -> tuple[float, float]:
    """Condition (1) on 24 random h vanishing at the interval endpoints, each
    paired with (e0, e1) in {(1, 0), (0, 1), (0.7, -0.4)}: the worst
    splitting and kernel-image residuals.  One generator call draws the
    trials as a trial-at-a-time loop does (tests/oracles.condition1_loop).
    h is read once at each chart point set and at the nodes (5 evaluations
    where the closures make 30), and the three pairs share those values."""
    draws = rng.normal(size=(24, 2, nodes.size))
    vals = draws[:, 0] + 1j * draws[:, 1]
    vals[:, 0] = vals[:, -1] = 0.0  # vanishes at the endpoints
    h = interval_fn(vals, nodes)
    ht = read_once(h, nodes[None, :])
    # e0 + e1 u of each pair at the points 1 and -1 of Z2, and on Z2
    pairs = [[e0 + e1 * np.asarray(kk) for kk in (1.0, -1.0, Z2[:, None])]
             for e0, e1 in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.4))]
    worst_split = worst_kernel = 0.0
    phis = chart_points(nodes)
    for (j, i), phi in phis.items():
        x = read_once(h, phis[3 - j, i])
        for cp, cm, ck in pairs:
            split = z2_split(cp * x, cm * x, phi)  # delta_i^* omega_j of (e0 + e1 u) h
            if i == j:
                worst_split = max(worst_split, float(np.max(np.abs(split - ck * ht))))
            else:
                worst_kernel = max(worst_kernel, float(np.max(np.abs(split))))
    return worst_split, worst_kernel


def _corner_residual(rng, trials: int = 16) -> float:
    """The corner identity (id (x) iota^*) delta_1^* = (iota^* (x) id) delta_2^*
    on the symbols of ``trials`` random degree-<=3 Toeplitz elements: the
    worst residual at the four corners of Z2 x Z2.  toeplitz.draw_symbols
    draws and folds all trials at once, and one pass evaluates them at the
    corner angles of both sides, with symbol's float operations
    (tests/oracles.corner_identity_loop)."""
    k1 = Z2[:, None]
    k2 = Z2[None, :]
    angles = np.stack([delta_angle(1, k1, k2.astype(float)), delta_angle(2, k2, k1.astype(float))])
    table = np.stack([np.exp(1j * k * angles) for k in range(-3, 4)])
    sides = eval_symbols(*draw_symbols(rng, trials), table)
    return float(np.max(np.abs(sides[:, 0] - sides[:, 1])))


def integers_from_words(ints: np.ndarray, has_uint32: int, uinteger: int) -> int | None:
    """The integers that Generator.integers(-3, 4, size=20) draws trial by
    trial on a PCG64 generator, read from the raw words of the trials.

    ints: (T, 20) int64 whose columns 10..19 hold each trial's 10 raw words
    (bit_generator.random_raw(10), as little-endian uint64 bits); the 20
    integers of each trial overwrite its row.  has_uint32 and uinteger: the
    generator's buffered 32-bit half at entry.  numpy takes each integer
    from one 32-bit half u by Lemire's multiply-shift, m = 7 u, integer
    (m >> 32) - 3, and reads the halves as PCG64's next32 does: a word's low
    half, then its high half.  A half buffered at entry is a carry: each
    trial then takes the carry and 19 halves, and its last high half is the
    next trial's carry.  Either way each trial reads exactly 10 words.

    Returns the generator's 'uinteger' after the trials (the last high
    half); has_uint32 does not change.  Returns None when the low word of
    any m is below 7, where numpy may reject u and draw again (it rejects
    below (2**32 - 7) % 7 = 4), so that the words do not fix the integers.
    One column at a time keeps every temporary to one column."""
    if not len(ints):
        return uinteger
    halves = ints.view("<u4")  # the low and high halves of word i: 20 + 2i, 21 + 2i
    last = int(halves[-1, -1])
    if has_uint32:  # each trial's carry goes in the half before its first word
        halves[0, 19] = uinteger
        halves[1:, 19] = halves[:-1, -1]
    m = ints.view(np.uint64)
    # integer j reads half 20 - has_uint32 + j and overwrites halves 2j and
    # 2j + 1, which no later integer reads
    for j, u in enumerate(halves[:, 20 - has_uint32 : 40 - has_uint32].T):
        np.multiply(u, 7, out=m[:, j], dtype=np.uint64)
    low = int(sys.byteorder == "big")  # the low half of a native uint64
    if ints.view(np.uint32)[:, low::2].min() < 7:
        return None
    m >>= 32
    ints -= 3
    return last


def _condition2_draws(rng, n_random: int) -> tuple[np.ndarray, np.ndarray]:
    """The integers of b and the pair g of each of n_random trials, each
    trial drawing rng.integers(-3, 4, size=20) and then rng.normal(size=2).
    A trial draws its integers as the 10 raw words they come from, and
    integers_from_words reads them after the loop: the stream, every value
    and the final generator state are those of the integers calls, at a
    seventh of their cost.  Where a word may have been rejected, the trials
    are drawn again from the entry state with the integers calls."""
    ints = np.empty((n_random, 20), dtype=np.int64)  # (re, im) of the 10 basis words
    g = np.empty((n_random, 2, 1, 1))
    bitgen = rng.bit_generator
    assert isinstance(bitgen, np.random.PCG64), "GridConfig.rng hands out PCG64 generators"
    entry = bitgen.state
    words = ints.view("<u8")[:, 10:]
    for t in range(n_random):
        words[t] = bitgen.random_raw(10)
        g[t, :, 0, 0] = rng.normal(size=2)
    uinteger = integers_from_words(ints, entry["has_uint32"], entry["uinteger"])
    if uinteger is None:
        bitgen.state = entry
        for t in range(n_random):
            ints[t] = rng.integers(-3, 4, size=ints.shape[1])
            g[t, :, 0, 0] = rng.normal(size=2)
    else:
        bitgen.state = {**bitgen.state, "uinteger": uinteger}
    return ints, g


def _condition2_residual(rng, n_random: int) -> float:
    """Condition (2) on n_random random b (x) g, b a degree-<=3 Toeplitz
    element and g in C(Z2): the composite paths
    A = pi^{01}_2 (pi^{02}_1)^{-1} pi^{20}_1 and B = pi^{10}_2 (pi^{12}_0)^{-1} pi^{21}_0
    agree modulo C(Z2) (x) ker iota^* (x) C(Z2), i.e. at x = +-1.

    Both paths read the symbol of b only at angles fixed by the grid: the
    four angle sets (path A or B, c = +-1) and their exp(i k theta) tables are
    built once per call and stacked into one array.  _condition2_draws
    draws every trial's b and g as the composed closures do
    (tests/oracles.condition2_closures); toeplitz.fold_symbol_draws folds
    all the integers into symbols in one array pass, and
    toeplitz.eval_symbols sums every symbol over the four angle sets a term
    at a time, in symbol's order, in one pass over all trials; the Z2 parts
    combine as omega_2 does.  So every element gets the closures' float
    operations; a zero (padding) term adds a signed zero, which the final
    abs erases."""
    max_deg = 3
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
    ints, g = _condition2_draws(rng, n_random)
    e = eval_symbols(*fold_symbol_draws(ints, max_deg), tables)
    gp = g[:, 0] + g[:, 1] * np.asarray(1.0)
    gm = g[:, 0] + g[:, 1] * np.asarray(-1.0)
    ep, em = e * gp, e * gm
    y = z2_split(ep, em, phi2)
    za = np.where(cs > 0, y[:, 0].reshape(-1, 2, 2, 1), y[:, 1].reshape(-1, 2, 2, 1))
    zb = np.where(aas > 0, y[:, 2].reshape(-1, 1, 2, 2), y[:, 3].reshape(-1, 1, 2, 2))
    return float(np.max(np.abs(za - zb), initial=0.0))
