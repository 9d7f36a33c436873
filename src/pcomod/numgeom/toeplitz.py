"""Float views of Toeplitz symbols, and seeded random symbols drawn and
evaluated a block of trials at a time.

The symbol map kills the compacts. Exactly, it is the algebra map s -> u,
ss -> ui into O(U(1)) (``suites.symbol_relation_residual`` certifies it on
the defining relations); ``FourierPoly`` is its float view on the circle."""

from __future__ import annotations

from functools import cache

import numpy as np

from ..ncpoly import NCPoly
from ..scalars import S_ZERO, Scalar


class FourierPoly:
    """sum c_k z^k on the circle as {k: complex}: the float view of a symbol,
    whose exact value is its image u^k (ui^-k for k < 0) in O(U(1))."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, complex]):
        self.coeffs = coeffs

    def sup_norm_bound(self) -> float:
        return float(sum(abs(c) for c in self.coeffs.values()))

    def eval(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(theta.shape, dtype=complex)
        for k, c in self.coeffs.items():
            out = out + c * np.exp(1j * k * theta)
        return out


def symbol_degree(w) -> int:
    """The k with symbol(w) = z^k: the number of s in w minus the number of ss."""
    return sum(1 if g == "s" else -1 for g in w)


def symbol(p: NCPoly) -> FourierPoly:
    """The symbol s -> z of a Toeplitz *-polynomial as floats: each degree is
    summed exactly, then read as a complex number once."""
    out: dict[int, Scalar] = {}
    for w, c in p.terms.items():
        k = symbol_degree(w)
        v = out.get(k, S_ZERO) + c
        if v.is_zero():
            out.pop(k, None)
        else:
            out[k] = v
    return FourierPoly({k: c.to_complex() for k, c in out.items()})


def toeplitz_flip(p: NCPoly) -> NCPoly:
    """alpha_{-1}: s -> -s, ss -> -ss (the Z2 action on the quantum square).
    The words of p are canonical and a sign keeps a coefficient nonzero, so
    the result is built as it stands."""
    out = NCPoly.__new__(NCPoly)
    out.alphabet = p.alphabet
    out.terms = {w: (c if len(w) % 2 == 0 else -c) for w, c in p.terms.items()}
    return out


@cache
def _toeplitz_basis(max_deg: int) -> tuple:
    from ..builtin import toeplitz_system

    return tuple(toeplitz_system().basis_words(max_deg))


@cache
def _basis_degrees(max_deg: int) -> tuple:
    return tuple(symbol_degree(w) for w in _toeplitz_basis(max_deg))


def fold_symbol_draws(ints: np.ndarray, max_deg: int) -> tuple[np.ndarray, np.ndarray]:
    """symbol(tests/oracles.random_toeplitz_poly(...)) of each row of ints,
    the (re, im) per basis word of one draw in basis order, as degrees and
    complex coefficients in symbol's order, each (n, 2*max_deg + 1) with
    (0, 0j) padding.  In one pass over the words a degree enters where its
    exact running sum turns nonzero and leaves where it returns to zero, as
    in tests/oracles.random_symbol_coeffs.  A draw of zeros is the unit."""
    c = np.ascontiguousarray(ints, dtype=float).view(complex)
    run = np.zeros((c.shape[0], 2 * max_deg + 1), dtype=complex)
    entered = np.zeros(run.shape, dtype=np.intp)
    for j, k in enumerate(_basis_degrees(max_deg)):
        entered[:, k + max_deg] = np.where((c[:, j] != 0) & (run[:, k + max_deg] == 0), j, entered[:, k + max_deg])
        run[:, k + max_deg] += c[:, j]
    order = np.argsort(np.where(run != 0, entered, c.shape[1]), axis=1, kind="stable")
    coeffs = np.take_along_axis(run, order, axis=1)  # a degree that is absent sums to +0
    ks = np.where(coeffs != 0, order - max_deg, 0)
    coeffs[~c.any(axis=1), 0] = 1.0
    return ks, coeffs


def draw_symbols(rng, trials: int, max_deg: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """The symbols of ``trials`` random *-polynomials in s, ss of degree
    <= max_deg with Gaussian-integer coefficients in [-3, 3], folded by
    fold_symbol_draws.  One generator call draws the (re, im) integers of
    every basis word of every trial: the integers, and the generator state
    after, of one rng.integers(-3, 4, size=...) call per trial, which is how
    tests/oracles.random_toeplitz_poly draws one polynomial."""
    ints = rng.integers(-3, 4, size=(trials, 2 * len(_toeplitz_basis(max_deg))))
    return fold_symbol_draws(ints, max_deg)


def eval_symbols(ks: np.ndarray, coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Each folded symbol (rows of fold_symbol_draws' ks and coeffs) at fixed
    points: table[k + max_deg] holds z**k at every point.  The terms are
    summed one at a time in symbol's order, as FourierPoly.eval sums them,
    so every value is FourierPoly.eval's but for the sign of a zero (a
    padding term adds 0j)."""
    max_deg = table.shape[0] // 2
    out = np.zeros(ks.shape[:1] + table.shape[1:], dtype=complex)
    lead = (slice(None),) + (None,) * (table.ndim - 1)
    for j in range(ks.shape[1]):
        out += coeffs[:, j][lead] * table[ks[:, j] + max_deg]
    return out
