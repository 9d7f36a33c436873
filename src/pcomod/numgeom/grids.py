"""Grid configuration and sampled domains for the numerical checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class GridConfig:
    n_circle: int = 720          # uniform angles, 8 | n so quarter breakpoints are grid points
    m_interval: int = 257        # Chebyshev nodes on [-1, 1], endpoints included
    tol: float = 1e-9
    trunc: int = 64              # Toeplitz truncation size for matrix spot checks
    seed: int = 20130915

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng((self.seed * 1_000_003 + salt) % (2**63))


def circle_angles(n: int) -> np.ndarray:
    """theta_j = 2 pi (j / n), with j / n the correctly rounded quotient of
    exact integers, as float(Fraction(j, n)) is (tests/oracles.fraction_circle_angles)."""
    return 2.0 * np.pi * (np.arange(n) / n)


def interval_nodes(m: int) -> np.ndarray:
    """Chebyshev extrema on [-1, 1], ascending, symmetric, endpoints included."""
    k = np.arange(m)
    t = -np.cos(np.pi * k / (m - 1))
    t[0], t[-1] = -1.0, 1.0
    mid = (m - 1) // 2
    if (m - 1) % 2 == 0:
        t[mid] = 0.0
    # enforce exact symmetry so Z2-point maps are grid-closed
    t[: mid + 1] = -t[::-1][: mid + 1]
    return t


Z2 = np.array([1.0, -1.0])
