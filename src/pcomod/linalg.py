"""Exact row reduction over the Scalar field, for the joint-rank check of
``Covering.kernel_intersection_certificate``."""

from __future__ import annotations

from typing import Hashable

from .ncpoly import add_terms

Vec = dict  # dict[Hashable, Scalar], sparse


class RowSpace:
    """Incremental row space over the Scalar field with sparse vectors.

    Pivot-keyed reduced rows: ``add`` inserts a vector and says whether it
    enlarged the span, and ``reduce`` leaves nothing of a vector in the span.
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
