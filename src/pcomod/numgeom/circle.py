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


def delta_map(i: int, k, t) -> np.ndarray:
    return np.exp(1j * delta_angle(i, k, t))


CircleFn = Callable[[np.ndarray], np.ndarray]  # functions of the angle


def delta_pullback(i: int, F: CircleFn):
    """delta_i^*: C(S^1) -> C(Z2) (x) C(I) (i=1, arguments (k,t)) or
    C(I) (x) C(Z2) (i=2, arguments (t,k))."""
    if i == 1:
        return lambda k, t: F(delta_angle(1, k, t))
    return lambda t, k: F(delta_angle(2, k, t))


def interval_fn(samples: np.ndarray, nodes: np.ndarray) -> Callable:
    """Piecewise-linear interpolant of samples on the (ascending) node grid."""
    samples = np.asarray(samples)
    if np.iscomplexobj(samples):
        re = samples.real.copy()
        im = samples.imag.copy()
        return lambda t: np.interp(t, nodes, re) + 1j * np.interp(t, nodes, im)
    s = samples.copy()
    return lambda t: np.interp(t, nodes, s)


def z2_parts(f, flip_first: bool):
    """Even/odd parts of f in its Z2 slot; f is a callable of (k, t) or (t, k)."""
    if flip_first:
        h0 = lambda t: 0.5 * (f(1.0, t) + f(-1.0, t))
        h1 = lambda t: 0.5 * (f(1.0, t) - f(-1.0, t))
    else:
        h0 = lambda t: 0.5 * (f(t, 1.0) + f(t, -1.0))
        h1 = lambda t: 0.5 * (f(t, 1.0) - f(t, -1.0))
    return h0, h1


def omega_hat(i: int, f) -> CircleFn:
    """The unital right-colinear splittings of delta_i^*:
    omega_1(1 (x) h) = h o phi_2,   omega_1(u (x) h) = phi_1 * (h o phi_2),
    omega_2(h (x) 1) = h o phi_1,   omega_2(h (x) u) = phi_2 * (h o phi_1)."""
    if i == 1:
        h0, h1 = z2_parts(f, flip_first=True)
        return lambda th: h0(phi_hat(2, th)) + phi_hat(1, th) * h1(phi_hat(2, th))
    h0, h1 = z2_parts(f, flip_first=False)
    return lambda th: h0(phi_hat(1, th)) + phi_hat(2, th) * h1(phi_hat(1, th))


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
    delta_2^* o omega_1 = iota_* (x) iota^*, delta_1^* o omega_2 = iota^* (x) iota_*."""
    rng = cfg.rng(1)
    nodes = interval_nodes(cfg.m_interval)
    t = nodes
    k = Z2[:, None]
    worst = {"split1": 0.0, "split2": 0.0, "mixed1": 0.0, "mixed2": 0.0, "unital": 0.0}
    one = omega_hat(1, lambda kk, tt: np.ones_like(np.asarray(kk) * np.asarray(tt)))
    worst["unital"] = float(np.max(np.abs(one(circle_angles(cfg.n_circle)) - 1.0)))
    for _ in range(n_random):
        h0 = interval_fn(rng.normal(size=cfg.m_interval) + 1j * rng.normal(size=cfg.m_interval), nodes)
        h1 = interval_fn(rng.normal(size=cfg.m_interval) + 1j * rng.normal(size=cfg.m_interval), nodes)
        f1 = lambda kk, tt: h0(tt) + np.asarray(kk) * h1(tt)  # element of C(Z2) (x) C(I)
        F = omega_hat(1, f1)
        back = delta_pullback(1, F)
        worst["split1"] = max(worst["split1"], float(np.max(np.abs(back(k, t[None, :]) - f1(k, t[None, :])))))
        g = delta_pullback(2, F)  # in C(I) (x) C(Z2)
        want = lambda tt, kk: iota_z2_pushforward(lambda x: np.ones_like(np.asarray(x)))(tt) * h0(np.asarray(kk, dtype=float)) + iota_z2_pushforward(lambda x: np.asarray(x, dtype=float))(tt) * h1(np.asarray(kk, dtype=float))
        worst["mixed1"] = max(
            worst["mixed1"],
            float(np.max(np.abs(g(t[:, None], Z2[None, :]) - want(t[:, None], Z2[None, :])))),
        )
        f2 = lambda tt, kk: h0(tt) + np.asarray(kk) * h1(tt)  # element of C(I) (x) C(Z2)
        F2 = omega_hat(2, f2)
        back2 = delta_pullback(2, F2)
        worst["split2"] = max(
            worst["split2"], float(np.max(np.abs(back2(t[:, None], Z2[None, :]) - f2(t[:, None], Z2[None, :]))))
        )
        g2 = delta_pullback(1, F2)  # in C(Z2) (x) C(I)
        # delta_1^* o omega_2 = iota^*_Z2 (x) iota_*^Z2:
        # f2 = h0 (x) 1 + h1 (x) u maps to iota^*(h0) (x) 1 + iota^*(h1) (x) iota
        want2 = lambda kk, tt: h0(np.asarray(kk, dtype=float)) + h1(np.asarray(kk, dtype=float)) * np.asarray(tt)
        worst["mixed2"] = max(
            worst["mixed2"],
            float(np.max(np.abs(g2(k, t[None, :]) - want2(k, t[None, :])))),
        )
    return worst


def gauge_conjugation_report(cfg: GridConfig, n_random: int = 200) -> dict:
    """g = g^-1, g o (sigma_i (x) id) o g = sigma_i (x) id, and the gauged
    gluings obtained by conjugation agree with the closed-form swaps."""
    from .toeplitz import random_toeplitz_poly, symbol

    rng = cfg.rng(2)
    t = interval_nodes(cfg.m_interval)
    a = Z2[:, None, None]
    tt = t[None, :, None]
    c = Z2[None, None, :]
    out = {"involution": 0.0, "sigma_conj": 0.0, "phi_closed_form": 0.0}
    for _ in range(n_random):
        h0 = interval_fn(rng.normal(size=cfg.m_interval), t)
        h1 = interval_fn(rng.normal(size=cfg.m_interval), t)
        e0, e1, e2, e3 = rng.normal(size=4)
        F = lambda aa, xx, cc: (
            (e0 + e1 * aa) * h0(xx) + (e2 + e3 * aa) * h1(xx) * cc
        )  # element of C(Z2) (x) C(I) (x) C(Z2)
        g = lambda aa, xx, cc: F(aa * cc, cc * xx, cc)
        gg = lambda aa, xx, cc: g(aa * cc, cc * xx, cc)
        out["involution"] = max(out["involution"], float(np.max(np.abs(gg(a, tt, c) - F(a, tt, c)))))
    for _ in range(max(4, n_random // 40)):
        p = random_toeplitz_poly(rng, 3)
        Fp = symbol(p)
        ang = lambda kk, xx: delta_angle(1, kk, xx)
        for u_deg in (0, 1):
            # X = (sigma_1 (x) id)(p (x) u^deg)
            X = lambda aa, xx, cc: Fp.eval(ang(aa, xx)) * (cc**u_deg)
            gX = gauge_pullback(X)
            # conjugate on the source: p (x) u^deg is Z2-homogeneous of degree len-parity
            # g(p (x) t) needs the T-side action; on symbols: (z, c) -> (cz, c)
            src = lambda zz, cc: Fp.eval_at(zz) * (cc**u_deg)
            Y = lambda aa, xx, cc: src(cc * np.exp(1j * ang(aa, xx)), cc)
            lhs = gX(a, tt, c)
            # sigma_1 (x) id applied after the source gauge:
            rhs = Y(a, tt, c)
            out["sigma_conj"] = max(out["sigma_conj"], float(np.max(np.abs(lhs - rhs))))
            # gauged Phi_01 = g o Phi~_01 o g vs the closed-form swap
            conj = gauge_pullback(phi_tilde_pullback(gauge_pullback(X)))
            closed = phi_gauged_pullback(X)
            out["phi_closed_form"] = max(
                out["phi_closed_form"], float(np.max(np.abs(conj(a, tt, c) - closed(a, tt, c))))
            )
    return out
