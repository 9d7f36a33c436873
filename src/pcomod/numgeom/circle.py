"""The explicit circle maps: piecewise-linear quarter parametrizations phi-hat,
the quarter charts delta_i, their pullbacks, the colinear splittings omega-hat,
the point maps of the 01 gluing and of the gauge, and the gauge conjugation
checks.  The three gluings themselves are membership.GLUINGS.

Everything is evaluated structurally (exact closed forms composed as closures),
so exact identities stay exact here up to machine precision.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .grids import GridConfig, Z2, circle_angles, interval_nodes

TWO_PI = 2.0 * np.pi

# Trials per array pass of the sampled splitting identities.  Larger blocks
# cost memory for no time: at the default grid, one pass over all 32
# splitting trials raises the peak RSS of a numeric benchmark pass from 39.6
# to 41.3 MB (2 vCPU, numpy 2.4).  A block of 8 trials allocates at most
# 1.1 MB, one of 16 2.1 MB.
SPLITTING_BLOCK = 8


def _angdist(theta, center):
    """Angular distance to `center`, in [0, pi]."""
    d = np.mod(np.asarray(theta) - center, TWO_PI)
    return np.minimum(d, TWO_PI - d)


def phi_hat(i: int, theta) -> np.ndarray:
    """phi_hat_1 is 1 near angle 0, -1 near pi, linear in between (slope 4/pi);
    phi_hat_2 is the same profile centered at pi/2.  Both odd under z -> -z."""
    if i not in (1, 2):
        raise ValueError("i must be 1 or 2")
    center = 0.0 if i == 1 else np.pi / 2.0
    return np.clip(2.0 - (4.0 / np.pi) * _angdist(theta, center), -1.0, 1.0)


def phi_hat_grid(i: int, n: int) -> np.ndarray:
    """phi_hat_i on the uniform grid, clip(2 - 8m/n, -1, 1) with m the grid
    distance to the centre of the profile.  (2n - 8m) / n is the correctly
    rounded quotient of exact integers and clipping at the floats +-1 commutes
    with rounding, so every value is the rounded exact rational
    (tests/oracles.fraction_phi_hat_grid); oddness is bit-exact."""
    if n % 8:
        raise ValueError("need 8 | n so quarter breakpoints land on grid points")
    j = np.arange(n)
    if i != 1:
        j = (j - n // 4) % n
    m = np.minimum(j, (n - j) % n)
    return np.clip((2 * n - 8 * m) / n, -1.0, 1.0)


def delta_angle(i: int, k, t) -> np.ndarray:
    """The quarter-chart angles: delta_1(k,t) = pi(kt/4 + k/2 + 3/2),
    delta_2(t,k) = pi(-kt/4 - k/2 + 1)."""
    k = np.asarray(k, dtype=float)
    t = np.asarray(t, dtype=float)
    if i == 1:
        return np.pi * (0.25 * k * t + 0.5 * k + 1.5)
    if i == 2:
        return np.pi * (-0.25 * k * t - 0.5 * k + 1.0)
    raise ValueError("i must be 1 or 2")


CircleFn = Callable[[np.ndarray], np.ndarray]  # functions of the angle


def interval_fn(samples: np.ndarray, nodes: np.ndarray) -> Callable:
    """Piecewise-linear interpolants of the rows of ``samples`` (shape (B, m))
    on the ascending node grid, as t -> array of shape (B,) + t.shape.

    Row by row this is np.interp's arithmetic (tests/oracles.interp_fn): t is
    held to [nodes[0], nodes[-1]], j is the last node <= t, and the value is
    slope * (t - nodes[j]) + v[j] with slope = (v[j+1] - v[j]) / (nodes[j+1]
    - nodes[j]), and slope 0 at the last node.  np.interp returns v[j] at a
    node; here t - nodes[j] = 0 adds a zero to v[j], which leaves every
    finite sample unchanged except that -0.0 may come back as +0.0.  Complex
    rows interpolate their real and imaginary parts separately, as
    re + 1j * im."""
    samples = np.asarray(samples)
    parts = (samples.real, samples.imag) if np.iscomplexobj(samples) else (samples,)
    rows = []
    for v in parts:
        slope = np.zeros(v.shape)
        slope[:, :-1] = (v[:, 1:] - v[:, :-1]) / (nodes[1:] - nodes[:-1])
        rows.append((v.copy(), slope))

    def fn(t):
        x = np.clip(t, nodes[0], nodes[-1])
        j = np.searchsorted(nodes, x, "right") - 1
        d = x - nodes[j]
        out = []
        for v, slope in rows:
            y = np.take(slope, j, axis=1)
            y *= d
            y += np.take(v, j, axis=1)
            out.append(y)
        return out[0] if len(out) == 1 else out[0] + 1j * out[1]

    return fn


def omega_hat(i: int, f) -> CircleFn:
    """The unital right-colinear splittings of delta_i^*:
    omega_1(1 (x) h) = h o phi_2,   omega_1(u (x) h) = phi_1 * (h o phi_2),
    omega_2(h (x) 1) = h o phi_1,   omega_2(h (x) u) = phi_2 * (h o phi_1).
    f is a callable of (k, t) for i = 1 and of (t, k) for i = 2; an
    evaluation calls it once at each point of Z2 and forms its even and odd
    parts 0.5 * (f(1) +- f(-1)) from those two values."""

    def F(th):
        x = phi_hat(3 - i, th)
        fp, fm = (f(1.0, x), f(-1.0, x)) if i == 1 else (f(x, 1.0), f(x, -1.0))
        return z2_split(fp, fm, phi_hat(i, th))

    return F


def z2_split(fp, fm, phi):
    """omega_hat from f at the points 1, -1 of Z2: even part + phi * odd part."""
    return 0.5 * (fp + fm) + phi * (0.5 * (fp - fm))


def chart_points(nodes: np.ndarray) -> dict:
    """phi_hat_j(delta_i(k, t)), k in Z2 (rows), t in nodes, keyed (j, i).
    On chart delta_i, omega_hat_j reads f at (3 - j, i) and multiplies the
    odd part by (j, i)."""
    return {(j, i): phi_hat(j, delta_angle(i, Z2[:, None], nodes[None, :])) for j in (1, 2) for i in (1, 2)}


def read_once(fn, points) -> np.ndarray:
    """fn at a point set, read-only: one value that several identities share."""
    v = fn(points)
    v.setflags(write=False)
    return v


def iota_z2_pushforward(g) -> Callable:
    """iota^Z2_*: C(Z2) -> C(I): 1 -> 1, u -> t (the colinear splitting)."""
    g1 = g(1.0)
    gm = g(-1.0)
    a = 0.5 * (g1 + gm)
    b = 0.5 * (g1 - gm)
    return lambda t: a + b * np.asarray(t, dtype=float)


# ---------------------------------------------------------------------------
# point maps of the 01 gluing and of the gauge
# ---------------------------------------------------------------------------

def phi_tilde_pullback(F):
    """The rightmost-coaction gluing Phi~_01, built from Psi_01 and the f = id
    transition: pullback along (a,t,c) -> (a, at, ac)."""
    return lambda a, t, c: F(a, a * t, a * c)


def phi_gauged_pullback(F):
    """The gauged gluing Phi_01(h (x) p (x) k) = k (x) p (x) h."""
    return lambda a, t, c: F(c, t, a)


def gauge_pullback(F):
    """g_B: b (x) h -> b_(0) (x) b_(1) h on C(Z2) (x) C(I) (x) C(Z2), as the
    point map (a,t,c) -> (ac, ct, c)."""
    return lambda a, t, c: F(a * c, c * t, c)


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

def phi_identities_report(cfg: GridConfig) -> dict:
    """Oddness of the phi-hats (bit-exact on the grid) plus the four chart
    compositions phi_a o delta_b in {u (x) 1, 1 (x) u, iota (x) 1, 1 (x) iota}."""
    n = cfg.n_circle
    out = {}
    for i in (1, 2):
        vals = phi_hat_grid(i, n)
        flipped = np.roll(vals, -(n // 2))
        out[f"phi{i}_odd"] = float(np.max(np.abs(vals + flipped)))
        theta = circle_angles(n)
        out[f"phi{i}_grid_vs_formula"] = float(np.max(np.abs(vals - phi_hat(i, theta))))
    t = interval_nodes(cfg.m_interval)
    k = Z2[:, None]
    out["phi1.delta1 = u(x)1"] = float(np.max(np.abs(phi_hat(1, delta_angle(1, k, t[None, :])) - k)))
    out["phi2.delta2 = 1(x)u"] = float(np.max(np.abs(phi_hat(2, delta_angle(2, k, t[None, :])) - k)))
    out["phi1.delta2 = iota(x)1"] = float(
        np.max(np.abs(phi_hat(1, delta_angle(2, k, t[None, :])) - t[None, :]))
    )
    out["phi2.delta1 = 1(x)iota"] = float(
        np.max(np.abs(phi_hat(2, delta_angle(1, k, t[None, :])) - t[None, :]))
    )
    return out


def splitting_identities_report(cfg: GridConfig, n_random: int = 32) -> dict:
    """delta_i^* o omega_i = id and the mixed identities
    delta_2^* o omega_1 = iota_* (x) iota^*, delta_1^* o omega_2 = iota^* (x) iota_*.
    A block reads h0 and h1 once at each chart point set, at t and at Z2:
    12 evaluations where the composed closures make 24."""
    rng = cfg.rng(1)
    nodes = interval_nodes(cfg.m_interval)
    t = nodes[None, :]
    k = Z2[:, None]
    worst = {"split1": 0.0, "split2": 0.0, "mixed1": 0.0, "mixed2": 0.0, "unital": 0.0}
    one = omega_hat(1, lambda kk, tt: np.ones_like(np.asarray(kk) * np.asarray(tt)))
    worst["unital"] = float(np.max(np.abs(one(circle_angles(cfg.n_circle)) - 1.0)))
    phis = chart_points(nodes)
    names = {(1, 1): "split1", (2, 2): "split2", (1, 2): "mixed1", (2, 1): "mixed2"}
    iota_one = iota_z2_pushforward(lambda x: np.ones_like(np.asarray(x)))(t)
    iota_u = iota_z2_pushforward(lambda x: np.asarray(x, dtype=float))(t)
    for start in range(0, n_random, SPLITTING_BLOCK):
        # one pass per block: the trial axis leads every array below; the
        # normals come in the order the trials drew them one at a time
        draws = rng.normal(size=(min(SPLITTING_BLOCK, n_random - start), 4, cfg.m_interval))
        h0 = interval_fn(draws[:, 0] + 1j * draws[:, 1], nodes)
        h1 = interval_fn(draws[:, 2] + 1j * draws[:, 3], nodes)
        h0t, h0k, h1t, h1k = (read_once(h, x) for h in (h0, h1) for x in (t, k))
        # delta_i^* o omega_i = id on f = h0 (x) 1 + h1 (x) u, and
        # delta_2^* o omega_1 = iota_* (x) iota^*, delta_1^* o omega_2 = iota^* (x) iota_*
        want = {(1, 2): iota_one * h0k + iota_u * h1k, (2, 1): h0k + h1k * np.asarray(t)}
        want[1, 1] = want[2, 2] = h0t + np.asarray(k) * h1t
        for (j, i), phi in phis.items():
            x0, x1 = read_once(h0, phis[3 - j, i]), read_once(h1, phis[3 - j, i])
            split = z2_split(x0 + np.asarray(1.0) * x1, x0 + np.asarray(-1.0) * x1, phi)
            worst[names[j, i]] = max(worst[names[j, i]], float(np.max(np.abs(split - want[j, i]))))
    return worst


def gauge_conjugation_report(cfg: GridConfig, n_random: int = 200) -> dict:
    """g = g^-1, g o (sigma_i (x) id) o g = sigma_i (x) id, and the gauged
    gluings obtained by conjugation agree with the closed-form swaps.

    g = g^-1 is certified on the point map of gauge_pullback: applied twice,
    it returns every grid point (a, t, c) coordinate by coordinate, so
    F o g o g = F for every function F on the grid.  "involution" is the
    largest coordinate difference, 0.0 exactly (c * c = 1 in floats)."""
    from .toeplitz import draw_symbols, eval_symbols

    rng = cfg.rng(2)
    t = interval_nodes(cfg.m_interval)
    a = Z2[:, None, None]
    tt = t[None, :, None]
    c = Z2[None, None, :]
    args = lambda *xs: xs
    points = (a, tt, c)
    twice = gauge_pullback(gauge_pullback(args))(*points)
    out = {
        "involution": max(float(np.max(np.abs(x - y))) for x, y in zip(twice, points)),
        "sigma_conj": 0.0,
        "phi_closed_form": 0.0,
    }
    # the involution once read n_random sampled functions, each from 2 m + 4
    # normals (tests/oracles.gauge_conjugation_loop); they are still drawn, in
    # one call, so that the symbol trials below read the same stream
    rng.normal(size=n_random * (2 * cfg.m_interval + 4))
    # X = (sigma_1 (x) id)(p (x) u^deg) is read at the points where the three
    # pullbacks below send (a, t, c), and the source gauge reads the symbol at
    # z = c exp(i delta_1(a, t)).  Those points are fixed by the grid, so their
    # exp(i k theta) and z**k tables are built once, and the symbols of all
    # trials, drawn in one block, are evaluated on them in one pass each.
    ks = range(-3, 4)
    ang = lambda kk, xx: delta_angle(1, kk, xx)
    X_points = {
        "gX": gauge_pullback(args)(a, tt, c),
        # gauged Phi_01 = g o Phi~_01 o g vs the closed-form swap
        "conj": gauge_pullback(phi_tilde_pullback(gauge_pullback(args)))(a, tt, c),
        "closed": phi_gauged_pullback(args)(a, tt, c),
    }
    z = c * np.exp(1j * ang(a, tt))
    symbols = draw_symbols(rng, max(4, n_random // 40))
    X = {
        key: (eval_symbols(*symbols, np.stack([np.exp(1j * k * ang(aa, xx)) for k in ks])), cc)
        for key, (aa, xx, cc) in X_points.items()
    }
    # conjugate on the source: on symbols, g acts as (z, c) -> (cz, c)
    Y = eval_symbols(*symbols, np.stack([z**k for k in ks]))
    for u_deg in (0, 1):
        Xu = {key: vals * (cc**u_deg) for key, (vals, cc) in X.items()}
        Yu = Y * (c**u_deg)
        out["sigma_conj"] = max(out["sigma_conj"], float(np.max(np.abs(Xu["gX"] - Yu))))
        out["phi_closed_form"] = max(out["phi_closed_form"], float(np.max(np.abs(Xu["conj"] - Xu["closed"]))))
    return out
