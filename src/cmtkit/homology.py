"""Reduced simplicial homology over GF(p) or Q, and local homology at a face.

The chain complex is augmented: the empty face contributes a generator in
degree -1, so the Betti vector of {<>} is beta[-1] = 1 and links of facets
report the acyclic case correctly.  Orientation follows the lexicographic
convention: dropping the j-th smallest vertex carries sign (-1)^j.

Boundary maps stay sparse from the face masks to the rank kernels: each
column is built as row index -> +-1 and ranked as a `linalg.Sparse` value.
A dense numpy view (`BoundaryMatrix.matrix`) is built only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import Face, SimplicialComplex, as_face
from .fields import FieldSpec
from .linalg import Sparse, rank


class BettiVector:
    """Reduced Betti numbers keyed by homological degree (zeros retained)."""

    __slots__ = ("_by_degree",)

    def __init__(self, by_degree: dict[int, int]):
        self._by_degree = {int(d): int(v) for d, v in by_degree.items()}
        if any(v < 0 for v in self._by_degree.values()):
            raise ValueError("Betti numbers are non-negative")

    def __getitem__(self, degree: int) -> int:
        return self._by_degree.get(degree, 0)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_degree))

    def items(self) -> tuple[tuple[int, int], ...]:
        return tuple((d, self._by_degree[d]) for d in self.degrees())

    def nonzero(self) -> dict[int, int]:
        return {d: v for d, v in self._by_degree.items() if v}

    def shifted(self, offset: int) -> "BettiVector":
        return BettiVector({d + offset: v for d, v in self._by_degree.items()})

    def reduced_euler(self) -> int:
        return sum(((-1) ** d) * v for d, v in self._by_degree.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BettiVector) and self.nonzero() == other.nonzero()

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.nonzero().items())))

    def __repr__(self) -> str:
        inside = ", ".join(f"{d}: {v}" for d, v in self.items())
        return f"BettiVector({{{inside}}})"


@dataclass(frozen=True)
class BoundaryMatrix:
    """Integer boundary matrix from degree-`degree` faces to one dimension down."""

    degree: int
    rows: tuple[Face, ...]
    cols: tuple[Face, ...]
    sparse: Sparse

    @cached_property
    def matrix(self):
        """Dense int64 numpy view, built on first access."""
        import numpy as np
        cols = self.sparse.columns
        a = np.zeros((len(self.rows), len(cols)), dtype=np.int64)
        a[[r for col in cols for r in col],
          [c for c, col in enumerate(cols) for _ in col]] = [v for col in cols for v in col.values()]
        return a

    def rank_over(self, field: FieldSpec) -> int:
        return rank(self.sparse, field)


def boundary_matrices(cx: SimplicialComplex) -> list[BoundaryMatrix]:
    """Boundary matrices of the augmented chain complex, degrees 0..dim."""
    if cx.is_void:
        raise ValueError("the void complex has no chain complex")
    mats: list[BoundaryMatrix] = []
    prev = cx.faces(size=0)
    for size in range(1, cx.dim + 2):
        cur = cx.faces(size=size)
        index = {f.mask: i for i, f in enumerate(prev)}
        columns = [{index[f.mask & ~(1 << v)]: -1 if j & 1 else 1
                    for j, v in enumerate(f.vertices)} for f in cur]
        mats.append(BoundaryMatrix(size - 1, prev, cur, Sparse(len(prev), columns)))
        prev = cur
    return mats


_BETTI_CACHE: dict[tuple[SimplicialComplex, FieldSpec], BettiVector] = {}


def reduced_betti(cx: SimplicialComplex, field: FieldSpec) -> BettiVector:
    """Reduced Betti numbers beta[-1..dim] over the given field."""
    if cx.is_void:
        raise ValueError("the void complex has no homology")
    key = (cx, field)
    cached = _BETTI_CACHE.get(key)
    if cached is not None:
        return cached
    top = cx.dim
    ranks = [bm.rank_over(field) for bm in boundary_matrices(cx)] + [0]
    counts = [cx.face_count(size=s) for s in range(0, top + 2)]
    betti = {-1: counts[0] - ranks[0]}
    for i in range(0, top + 1):
        betti[i] = counts[i + 1] - ranks[i] - ranks[i + 1]
    result = BettiVector(betti)
    _BETTI_CACHE[key] = result
    return result


def local_betti(cx: SimplicialComplex, face, field: FieldSpec) -> BettiVector:
    """Homology of the complex near an interior point of the given face.

    Computed combinatorially as the link's reduced homology shifted up by
    the face's cardinality, which matches the relative homology of the
    realization modulo the punctured realization.
    """
    sigma = as_face(face)
    if sigma.mask == 0:
        raise ValueError("local homology requires a nonempty face")
    if not cx.contains(sigma):
        raise ValueError(f"not a face of the complex: {sigma}")
    return reduced_betti(cx.link(sigma), field).shifted(len(sigma))


def reduced_euler_from_faces(cx: SimplicialComplex) -> int:
    """Alternating face-count sum, empty face included with sign -1."""
    if cx.is_void:
        raise ValueError("the void complex has no Euler characteristic")
    return sum(((-1) ** (size - 1)) * cx.face_count(size=size)
               for size in range(0, cx.dim + 2))
