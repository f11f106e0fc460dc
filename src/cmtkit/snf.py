"""Integer Smith-style diagonalization, used as an independent homology oracle.

The main engine ranks boundary matrices directly over the coefficient
field; this module instead diagonalizes them over the integers with
unimodular row/column operations and reads field ranks off the diagonal
(nonzero entries for Q, entries not divisible by p for GF(p)).  The
boundary matrices are assembled here from scratch so the two homology
paths share nothing but the face enumeration.
"""

from __future__ import annotations

from .core import SimplicialComplex
from .fields import FieldSpec
from .homology import BettiVector


def smith_diagonal(matrix) -> list[int]:
    """Diagonal of an integer diagonalization of `matrix`.

    Row and column operations are unimodular, so the multiset of p-adic
    valuations (and the number of nonzero entries) matches the true Smith
    normal form even though divisibility is not normalized.
    """
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    t = 0
    while t < min(m, n):
        # Pick the smallest nonzero entry of the whole trailing block again
        # after every sweep (Havas-Majewski-Matthews): a sweep that leaves a
        # remainder makes a strictly smaller pivot, so step t ends.  Keeping
        # one pivot for the step let the other entries grow without bound.
        best = None
        for r in range(t, m):
            for c in range(t, n):
                if a[r][c] and (best is None or abs(a[r][c]) < abs(a[best[0]][best[1]])):
                    best = (r, c)
        if best is None:
            break
        r0, c0 = best
        a[t], a[r0] = a[r0], a[t]
        for row in a:
            row[t], row[c0] = row[c0], row[t]
        done = True
        for r in range(t + 1, m):
            if a[r][t]:
                q = a[r][t] // a[t][t]
                for c in range(t, n):
                    a[r][c] -= q * a[t][c]
                done = done and not a[r][t]
        for c in range(t + 1, n):
            if a[t][c]:
                q = a[t][c] // a[t][t]
                for r in range(t, m):
                    a[r][c] -= q * a[r][t]
                done = done and not a[t][c]
        if done:
            t += 1
    return [a[i][i] for i in range(t)]


def rank_from_diagonal(diagonal: list[int], field: FieldSpec) -> int:
    if field.is_rationals:
        return sum(1 for d in diagonal if d != 0)
    return sum(1 for d in diagonal if d % field.p != 0)


def _boundary_lists(cx: SimplicialComplex) -> list[list[list[int]]]:
    """Augmented boundary matrices as plain integer lists, built from scratch."""
    mats = []
    prev = [f.vertices for f in cx.faces(size=0)]
    for size in range(1, cx.dim + 2):
        cur = [f.vertices for f in cx.faces(size=size)]
        index = {verts: i for i, verts in enumerate(prev)}
        rows = [[0] * len(cur) for _ in prev]
        for c, verts in enumerate(cur):
            for j in range(size):
                sub = verts[:j] + verts[j + 1:]
                rows[index[sub]][c] = 1 if j % 2 == 0 else -1
        mats.append(rows)
        prev = cur
    return mats


def betti_via_snf(cx: SimplicialComplex, field: FieldSpec) -> BettiVector:
    """Reduced Betti numbers computed through integer diagonalization."""
    if cx.is_void:
        raise ValueError("the void complex has no homology")
    top = cx.dim
    ranks = [rank_from_diagonal(smith_diagonal(mat), field) for mat in _boundary_lists(cx)]
    ranks.append(0)
    counts = [cx.face_count(size=s) for s in range(0, top + 2)]
    betti = {-1: counts[0] - ranks[0]}
    for i in range(0, top + 1):
        betti[i] = counts[i + 1] - ranks[i] - ranks[i + 1]
    return BettiVector(betti)
