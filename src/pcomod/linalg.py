"""Exact linear algebra over the Scalar field (degree-bounded span computations)."""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .ncpoly import add_terms
from .scalars import S_ONE

Vec = dict  # dict[Hashable, Scalar], sparse


class RowSpace:
    """Incremental row space over the Scalar field with sparse vectors.

    Pivot-keyed reduced rows; supports membership tests and rank.
    """

    def __init__(self):
        self.rows: dict[Hashable, Vec] = {}

    def reduce(self, v: Vec) -> Vec:
        v = add_terms({}, v.items())
        changed = True
        while changed:
            changed = False
            for k in list(v):
                if k in self.rows:
                    add_terms(v, self.rows[k].items(), -v[k])
                    changed = True
                    break
        return v

    def add(self, v: Vec) -> bool:
        """Insert v; returns True if it enlarged the span."""
        v = self.reduce(v)
        if not v:
            return False
        # deterministic pivot choice: lexicographically smallest repr
        lead = min(v, key=repr)
        inv = v[lead].inv()
        v = {k: c * inv for k, c in v.items()}
        # re-reduce existing rows by the new one
        for piv, row in list(self.rows.items()):
            if lead in row:
                self.rows[piv] = add_terms(dict(row), v.items(), -row[lead])
        self.rows[lead] = v
        return True

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    @property
    def rank(self) -> int:
        return len(self.rows)


def span_of(vectors: Iterable[Vec]) -> RowSpace:
    sp = RowSpace()
    for v in vectors:
        sp.add(v)
    return sp


def intersect_spans(a: Sequence[Vec], b: Sequence[Vec]) -> list[Vec]:
    """Basis of span(a) /\\ span(b) via the standard stacked-kernel trick."""
    # vectors live in V; build W = rows of [a; b] with tags and solve
    # sum x_i a_i - sum y_j b_j = 0; intersection elements are sum x_i a_i.
    aug: list[Vec] = []
    for i, v in enumerate(a):
        w = dict(v)
        w[("aux", "a", i)] = S_ONE
        aug.append(w)
    for j, v in enumerate(b):
        w = dict(v)
        w[("aux", "b", j)] = S_ONE
        aug.append(w)
    sp = RowSpace()
    out: list[Vec] = []
    for w in aug:
        red = sp.reduce(w)
        main = {k: c for k, c in red.items() if not (isinstance(k, tuple) and len(k) == 3 and k[0] == "aux")}
        if not main and red:
            # relation found: the a-part of the combination is an intersection elt
            combo: Vec = {}
            for k, c in red.items():
                if isinstance(k, tuple) and len(k) == 3 and k[0] == "aux" and k[1] == "a":
                    add_terms(combo, a[k[2]].items(), c)
            if combo:
                out.append(combo)
        sp.add(w)
    return out


def same_span(a: Sequence[Vec], b: Sequence[Vec]) -> bool:
    sa = span_of(a)
    sb = span_of(b)
    return all(sa.contains(v) for v in b) and all(sb.contains(v) for v in a)
