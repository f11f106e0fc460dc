"""Exact rank computation kernels.

Ranks are computed by sparse low-pivot column reduction (Kaczynski, Mrozek
and Slusarek, "Homology computation by reduction of chain complexes",
Comput. Math. Appl. 1998).  A boundary matrix has only |face| nonzeros per
column, so columns are kept sparse: a Python-int bitset over rows for GF(2),
a dict row -> value for odd p and for Q.  The low of a column is its largest
nonzero row.  Each column is reduced against the pivot that owns its low
until the low is unowned (the column becomes that row's pivot) or the column
vanishes; the rank is the number of pivots.

Over Q the columns hold Python ints and elimination is fraction-free, so no
floating point is involved anywhere.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .fields import FieldSpec


def active_backend() -> str:
    """Name of the rank kernel family (there is only one)."""
    return "sparse"


def _dict_columns(a: np.ndarray) -> list[dict[int, int]]:
    """The nonzero entries of each column, as row -> value."""
    t = a.T
    cols, rows = np.nonzero(t)
    columns: list[dict[int, int]] = [{} for _ in range(a.shape[1])]
    for c, r, v in zip(cols.tolist(), rows.tolist(), t[cols, rows].tolist()):
        columns[c][r] = v
    return columns


def _rank_gf2(a: np.ndarray) -> int:
    cols, rows = np.nonzero((a & 1).T)
    columns = [0] * a.shape[1]
    for c, r in zip(cols.tolist(), rows.tolist()):
        columns[c] |= 1 << r
    pivots: dict[int, int] = {}
    for col in columns:
        while col:
            low = col.bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            col ^= piv
    return len(pivots)


def rank_mod_p(a: np.ndarray, p: int) -> int:
    """Exact rank of an integer matrix viewed over GF(p)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0
    if p == 2:
        return _rank_gf2(a)
    pivots: dict[int, dict[int, int]] = {}
    for col in _dict_columns(np.mod(a, p)):
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
    a = np.asarray(a)
    if a.size == 0:
        return 0
    pivots: dict[int, dict[int, int]] = {}
    for col in _dict_columns(a):
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


def rank(a: np.ndarray, field: FieldSpec) -> int:
    """Exact rank of an integer matrix over the requested field."""
    if field.is_rationals:
        return rank_rational(a)
    return rank_mod_p(a, field.p)
