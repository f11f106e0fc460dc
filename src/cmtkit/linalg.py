"""Exact rank computation kernels.

Ranks are computed by sparse low-pivot column reduction (Kaczynski, Mrozek
and Slusarek, "Homology computation by reduction of chain complexes",
Comput. Math. Appl. 1998).  A boundary matrix has only |face| nonzeros per
column, so it arrives as a `Sparse` value (row count, columns as dicts
row -> nonzero int) built straight from the face masks; dense matrices
(nested lists or arrays) are converted once, in pure Python, to the same
columns.  The kernels reduce a copy of each column: a Python-int bitset over
GF(2), a dict of residues over odd p, a dict of Python ints over Q.  The low
of a column is its largest nonzero row; a column is reduced against the
pivot owning its low until the low is unowned (the column becomes its pivot)
or it vanishes, and the rank is the number of pivots.  Over Q elimination is
fraction-free, so no floating point is involved anywhere.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .fields import FieldSpec


class Sparse(NamedTuple):
    """A matrix as its row count and its columns, each a dict row -> nonzero int."""

    n_rows: int
    columns: list[dict[int, int]]

    @property
    def size(self) -> int:
        return self.n_rows * len(self.columns)


def active_backend() -> str:
    """Name of the rank kernel family (there is only one)."""
    return "sparse"


def _columns(a) -> list[dict[int, int]]:
    """The columns of a Sparse value, or of a dense matrix (lists or array)."""
    if isinstance(a, Sparse):
        return a.columns
    rows = a.tolist() if hasattr(a, "tolist") else a
    columns: list[dict[int, int]] = [{} for _ in (rows[0] if rows else ())]
    for r, row in enumerate(rows):
        for col, v in zip(columns, row):
            if v:
                col[r] = int(v)
    return columns


def _rank_gf2(columns: list[dict[int, int]]) -> int:
    pivots: dict[int, int] = {}
    for c in columns:
        col = sum(1 << r for r, v in c.items() if v & 1)
        while col:
            low = col.bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            col ^= piv
    return len(pivots)


def rank_mod_p(a, p: int) -> int:
    """Exact rank of an integer matrix viewed over GF(p)."""
    if p == 2:
        return _rank_gf2(_columns(a))
    pivots: dict[int, dict[int, int]] = {}
    for c in _columns(a):
        col = {r: v % p for r, v in c.items() if v % p}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                inv = pow(col[low], -1, p)
                pivots[low] = {r: v * inv % p for r, v in col.items()}
                break
            f = col[low]
            for r, v in piv.items():
                x = (col.get(r, 0) - f * v) % p
                if x:
                    col[r] = x
                else:
                    del col[r]
    return len(pivots)


def rank_rational(a) -> int:
    """Exact rank over Q by fraction-free column reduction on Python ints.

    A column whose low is owned by a pivot with low entry pv is replaced by
    (pv/g)*col - (f/g)*pivot, where f is the column's low entry and
    g = gcd(pv, f); that clears the low and keeps the span over Q.  Stored
    pivots, and columns after a scaled step, are divided by the gcd of their
    entries so they stay small; pivots keep a positive low, so a pivot with
    low 1 eliminates without scaling.
    """
    pivots: dict[int, dict[int, int]] = {}
    for c in _columns(a):
        col = dict(c)
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                g = gcd(*col.values())
                if col[low] < 0:
                    g = -g
                pivots[low] = {r: v // g for r, v in col.items()}
                break
            pv, f = piv[low], col[low]
            g = gcd(pv, f)
            scaled = pv != g
            if scaled:
                s = pv // g
                col = {r: s * v for r, v in col.items()}
            f //= g
            for r, v in piv.items():
                x = col.get(r, 0) - f * v
                if x:
                    col[r] = x
                else:
                    del col[r]
            if scaled and col:
                h = gcd(*col.values())
                if h != 1:
                    col = {r: v // h for r, v in col.items()}
    return len(pivots)


def rank(a, field: FieldSpec) -> int:
    """Exact rank of an integer matrix (Sparse or dense) over the requested field."""
    if field.is_rationals:
        return rank_rational(a)
    return rank_mod_p(a, field.p)
