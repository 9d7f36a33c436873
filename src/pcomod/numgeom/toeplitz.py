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
    """alpha_{-1}: s -> -s, ss -> -ss (the Z2 action on the quantum square)."""
    return NCPoly(
        p.alphabet, {w: (c if len(w) % 2 == 0 else -c) for w, c in p.terms.items()}
    )


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


def random_symbol_coeffs(rng, max_deg: int) -> dict[int, complex]:
    """symbol(random_toeplitz_poly(rng, max_deg)) as {k: complex},
    with the same draw, the same keys in the same order and the same values,
    folded straight from the drawn integers: keys are inserted, summed and
    popped as symbol does, and the integer sums are exact in floats."""
    out: dict[int, complex] = {}
    drawn = False
    for _, k, re, im in draw_toeplitz_terms(rng, max_deg):
        if re or im:
            drawn = True
            v = out.get(k, 0) + complex(re, im)
            if v:
                out[k] = v
            else:
                out.pop(k)
    return out if drawn else {0: 1 + 0j}
