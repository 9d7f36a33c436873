#!/usr/bin/env python3
"""Time the hot operations of the scalar, rewriting and numeric layers.

    PYTHONPATH=src python3 scripts/microbench.py [--number N] [--repeat R]

Scalar ``+``, ``*`` and unary ``-`` on four kinds of operand: constant (a
Gaussian rational), monomial (c * q^k), Laurent (a polynomial in q and 1/q)
and general (a denominator that is not a power of q).  ``GaussRat(int, int)``
construction and ``random_toeplitz_poly(rng, 3)``, which draws ten such
coefficients in one call.  ``RewriteSystem._nf_word``
of a degree-6 su_q2 word at q formal, with the normal-form cache cleared before
every call.  ``FourierPoly.eval`` of a degree-3 symbol at 4 angles and on
the 720-point circle grid, ``circle_angles(720)`` (the default circle grid),
and condition (2) of the surjectivity criterion,
``probes._condition2_residual``, over 100 random trials in one call.
Each line is the best of R repeats of N operations, in ns per operation.
Standard library only; it prints timings and asserts none.
"""

import argparse
import timeit
from fractions import Fraction

from pcomod.builtin import su_q2
from pcomod.numgeom import GridConfig, circle_angles, probes, random_toeplitz_poly, symbol
from pcomod.scalars import S_I, S_ONE, S_Q, GaussRat, Scalar


def operands() -> dict[str, tuple[Scalar, Scalar]]:
    c = Scalar.of(GaussRat(Fraction(2, 3), 1))
    e = Scalar.of(GaussRat(-5, Fraction(1, 7)))
    laurent = (Scalar.of(2) - S_Q + Scalar.of(Fraction(1, 3)) * S_Q**3) / S_Q
    return {
        "constant": (c, e),
        "monomial": (c * S_Q**2, e / S_Q),
        "laurent": (laurent, S_ONE + S_I * S_Q - S_Q**2),
        "general": ((S_ONE + S_Q) / (S_ONE - S_Q + S_Q**2), c / (S_Q**2 + Scalar.of(3))),
    }


def cases() -> list[tuple[str, str, str, dict]]:
    """(kind, operation, statement, globals) for every timed line."""
    out = []
    for kind, (a, b) in operands().items():
        for op, stmt in (("+", "a + b"), ("*", "a * b"), ("neg", "-a")):
            out.append((kind, op, stmt, {"a": a, "b": b}))
    out.append(("gaussrat", "int", "GaussRat(3, -2)", {"GaussRat": GaussRat}))
    out.append(
        ("toeplitz", "random 3", "f(rng, 3)", {"f": random_toeplitz_poly, "rng": GridConfig().rng(0)})
    )
    system = su_q2().system
    word = system.alphabet.canon(("as", "as", "as", "a", "a", "a"))
    out.append(("nf_word", "cold", "s._nf_cache.clear(); s._nf_word(w)", {"s": system, "w": word}))
    F = symbol(random_toeplitz_poly(GridConfig().rng(0), 3))
    for n, theta in ((4, circle_angles(8)[:4]), (720, circle_angles(720))):
        out.append(("fourier", f"eval {n}", "F.eval(t)", {"F": F, "t": theta}))
    out.append(("grid", "circle_angles 720", "f(720)", {"f": circle_angles}))
    out.append(
        (
            "mattprop",
            "condition2 100",
            "f(rng, 100)",
            {"f": probes._condition2_residual, "rng": GridConfig().rng(6)},
        )
    )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--number", type=int, default=20000, help="operations per repeat")
    ap.add_argument("--repeat", type=int, default=5, help="repeats; the best one is reported")
    args = ap.parse_args()
    if args.number < 1 or args.repeat < 1:
        ap.error("--number and --repeat must be at least 1")
    for kind, op, stmt, env in cases():
        t = timeit.Timer(stmt, globals=env)
        best = min(t.repeat(repeat=args.repeat, number=args.number))
        print(f"{kind:9s} {op:17s} {best / args.number * 1e9:12.1f} ns/op")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
