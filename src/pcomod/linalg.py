"""Exact linear algebra over the Scalar field (degree-bounded span computations)."""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .scalars import S_ONE, S_ZERO, Scalar

Vec = dict  # dict[Hashable, Scalar], sparse


class RowSpace:
    """Incremental row space over the Scalar field with sparse vectors.

    Pivot-keyed reduced rows; supports membership tests and rank.
    """

    def __init__(self):
        self.rows: dict[Hashable, Vec] = {}

    @staticmethod
    def _leading(v: Vec) -> Hashable | None:
        # deterministic pivot choice: lexicographically smallest repr
        keys = [k for k, c in v.items() if not c.is_zero()]
        if not keys:
            return None
        return min(keys, key=repr)

    def reduce(self, v: Vec) -> Vec:
        v = {k: c for k, c in v.items() if not c.is_zero()}
        changed = True
        while changed:
            changed = False
            for k in list(v):
                if k in self.rows:
                    c = v[k]
                    row = self.rows[k]
                    for kk, cc in row.items():
                        v[kk] = v.get(kk, S_ZERO) - c * cc
                    v = {kk: cc for kk, cc in v.items() if not cc.is_zero()}
                    changed = True
                    break
        return v

    def add(self, v: Vec) -> bool:
        """Insert v; returns True if it enlarged the span."""
        v = self.reduce(v)
        lead = self._leading(v)
        if lead is None:
            return False
        inv = v[lead].inv()
        v = {k: c * inv for k, c in v.items()}
        # re-reduce existing rows by the new one
        for piv, row in list(self.rows.items()):
            if lead in row:
                c = row[lead]
                new = {k: cc - c * v.get(k, S_ZERO) for k, cc in row.items()}
                for k, cc in v.items():
                    if k not in row:
                        new[k] = -c * cc
                self.rows[piv] = {k: cc for k, cc in new.items() if not cc.is_zero()}
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
                    i = k[2]
                    for kk, cc in a[i].items():
                        combo[kk] = combo.get(kk, S_ZERO) + c * cc
            combo = {k: c for k, c in combo.items() if not c.is_zero()}
            if combo:
                out.append(combo)
        sp.add(w)
    return out


def same_span(a: Sequence[Vec], b: Sequence[Vec]) -> bool:
    sa = span_of(a)
    sb = span_of(b)
    return all(sa.contains(v) for v in b) and all(sb.contains(v) for v in a)
