"""Float views of Toeplitz symbols, and seeded random Toeplitz *-polynomials
and symbols.

The symbol map kills the compacts. Exactly, it is the algebra map s -> u,
ss -> ui into O(U(1)) (``suites.symbol_relation_residual`` certifies it on
the defining relations); ``FourierPoly`` is its float view on the circle."""

from __future__ import annotations

from functools import cache

import numpy as np

from ..ncpoly import NCPoly
from ..scalars import S_ZERO, GaussRat, Scalar


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

    def eval_powers(self, powers: dict) -> np.ndarray:
        """The sum eval forms, with exp(i k theta) (or z**k at points z of the
        circle) read from ``powers`` (k -> array, k = 0 included): a table built
        once for points that stay fixed while the polynomial changes."""
        out = np.zeros(powers[0].shape, dtype=complex)
        for k, c in self.coeffs.items():
            out = out + c * powers[k]
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


def draw_toeplitz_terms(rng, max_deg: int, coeff_range: int = 3):
    """(word, k, re, im) for every basis word of degree <= max_deg, in basis
    order: re + i*im is its coefficient, drawn uniformly from
    [-coeff_range, coeff_range], and z^k its symbol.

    One batched draw gives the (re, im) pairs of the basis words in order: the
    same integers, and the same generator state after, as two scalar draws
    per word (tests/oracles.scalar_draw_toeplitz_poly)."""
    words = _toeplitz_basis(max_deg)
    parts = rng.integers(-coeff_range, coeff_range + 1, size=2 * len(words)).tolist()
    return zip(words, _basis_degrees(max_deg), parts[::2], parts[1::2])


def random_toeplitz_poly(rng, max_deg: int, coeff_range: int = 3) -> NCPoly:
    """Random *-polynomial in s, ss with small Gaussian-integer coefficients
    (draw_toeplitz_terms); the unit if every coefficient drawn is 0."""
    from ..builtin import toeplitz_system

    alphabet = toeplitz_system().alphabet
    terms = {}
    for w, _, re, im in draw_toeplitz_terms(rng, max_deg, coeff_range):
        if re or im:
            terms[w] = Scalar.of(GaussRat(re, im))
    p = NCPoly(alphabet, terms)
    return p if not p.is_zero() else NCPoly.one(alphabet)


def fold_symbol_draws(ints: np.ndarray, max_deg: int) -> tuple[np.ndarray, np.ndarray]:
    """symbol(random_toeplitz_poly(...)) of each row of ints, the (re, im)
    per basis word of one draw in draw_toeplitz_terms' order, as degrees and
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
