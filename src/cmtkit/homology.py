"""Reduced simplicial homology over GF(p) or Q, and local homology at a face.

The chain complex is augmented: the empty face contributes a generator in
degree -1, so the Betti vector of {<>} is beta[-1] = 1 and links of facets
report the acyclic case correctly.  Orientation follows the lexicographic
convention: dropping the j-th smallest vertex carries sign (-1)^j.

`reduced_betti` ranks a relative chain complex instead of the full one.
For a vertex v of K, the star st v (the faces whose union with v is a face)
is a cone with apex v, hence contractible, and the long exact sequence of
the pair (K, st v) in reduced homology gives H~_i(K) = H_i(K, st v) in every
degree i >= -1.  The chain complex of the pair has one basis element per
face outside the star, and its boundary is the full boundary with the terms
in the star dropped.  Those faces are closed upward inside each facet, so
they are enumerated from the facets avoiding v downward, and nothing else
is.  The walk files each size's facets avoiding v in C-level passes.  A
ridge of a top-size cell lies in the star exactly when it is a facet through
v less v, since only a facet can hold a face of the top size, so one set
difference files the top level; the owner bitsets that test a face below it
are built only when a lower level has cells, which skeleta and spheres never
have.  The apex is the vertex lying in the most facets, lowest id on ties:
it puts the most faces into the star.  It is found in one pass over the
facet masks, which adds each into bit-sliced counts with a ripple carry.
The star excision answers cones: a cone's apex lies in every facet, so no
face is outside its star and every Betti number is 0, with no enumeration
and no rank.  The identity is exact over every field and the ranks come
from the same exact kernels, so the result equals the full complex's Betti
numbers, zero degrees included; `boundary_matrices` builds that full
complex for the API and as the tests' oracle.  A graph needs no chain
complex at all: its Betti numbers have a closed form in its vertices, edges
and components (`_betti`), and the components come from a union-find
(`core._components`).  Betti vectors are not memoized: the deciders rank
each distinct connected link of dimension at least 2 once, for its
obstructed face sizes, which `classify`'s memo holds.

Boundary maps stay sparse from the face masks to the rank kernels: each
column is built as row index -> +-1 and ranked as a `linalg.Sparse` value.
A dense numpy view (`BoundaryMatrix.matrix`) is built only when asked for.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import filterfalse, groupby
from operator import and_, or_
from typing import Iterable

from ._record import FrozenRecord
from .core import Face, SimplicialComplex, _bits, _components, _face_masks, as_face
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


class BoundaryMatrix(FrozenRecord):
    """Integer boundary matrix from degree-`degree` faces to one dimension down."""

    _fields = ("degree", "rows", "cols", "sparse")
    __slots__ = (*_fields, "__dict__")  # the dict holds the cached `matrix`
    __hash__ = None  # sparse.columns is a list

    def __init__(self, degree: int, rows: tuple[Face, ...], cols: tuple[Face, ...],
                 sparse: Sparse):
        self._assign(degree, rows, cols, sparse)

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


def _columns(cells: Iterable[int], index: dict[int, int]) -> list[dict[int, int]]:
    """Boundary columns of the face masks in `cells`, rows numbered by `index`.

    Dropping the j-th smallest vertex carries sign (-1)^j; a face missing from
    `index` gets no row (in a relative complex it is zero in the quotient).
    """
    columns = []
    for m in cells:
        col: dict[int, int] = {}
        for j, u in enumerate(_bits(m)):
            r = index.get(m ^ 1 << u)
            if r is not None:
                col[r] = -1 if j & 1 else 1
        columns.append(col)
    return columns


def boundary_matrices(cx: SimplicialComplex) -> list[BoundaryMatrix]:
    """Boundary matrices of the full augmented chain complex, degrees 0..dim."""
    if cx.is_void:
        raise ValueError("the void complex has no chain complex")
    # one enumeration, split by size: canonical order keeps each size in order
    masks: list[list[int]] = [[] for _ in range(cx.dim + 2)]
    for m in _face_masks(cx.masks):
        masks[m.bit_count()].append(m)
    faces = [tuple(map(Face.from_mask, level)) for level in masks]
    mats: list[BoundaryMatrix] = []
    for size in range(1, cx.dim + 2):
        index = {m: i for i, m in enumerate(masks[size - 1])}
        columns = _columns(masks[size], index)
        mats.append(BoundaryMatrix(size - 1, faces[size - 1], faces[size],
                                   Sparse(len(index), columns)))
    return mats


def _apex(masks: tuple[int, ...]) -> int | None:
    """The vertex lying in the most facets, lowest id on ties; None for {<>}.

    The counts are bit-sliced: planes[i] holds the vertices whose count has
    bit i set, and each facet mask is added into them with a ripple carry,
    a few int operations per facet however many vertices it has.  No count
    exceeds len(masks), so the planes are allotted up front.  The most
    frequent vertices are then read from the top plane down, keeping those
    with a plane's bit whenever any of them has it."""
    planes = [0] * len(masks).bit_length()
    for m in masks:
        i = 0
        while m:
            p = planes[i]
            planes[i] = p ^ m
            m &= p
            i += 1
    most = reduce(or_, planes, 0)
    for p in reversed(planes):
        if most & p:
            most &= p
    return (most & -most).bit_length() - 1 if most else None


def _relative_betti(masks: tuple[int, ...], field: FieldSpec, apex: int | None) -> BettiVector:
    """Betti numbers of the pair (K, st apex), degrees -1..dim, for the
    complex K with facet masks `masks`.

    They equal the reduced Betti numbers of K when apex is a vertex of K
    (excision onto a contractible star), and also when apex is None: the
    star is then empty and the pair's chain complex is the augmented one.
    """
    top = masks[-1].bit_count()
    vbit = 0 if apex is None else 1 << apex
    # cells[s]: the faces of size s outside st apex, seeded with the facets
    # avoiding the apex (masks are in canonical order: one run per size)
    cells: list[set[int]] = [set() for _ in range(top + 1)]
    for size, run in groupby(masks, int.bit_count):
        cells[size].update(filterfalse(vbit.__and__, run))
    # Faces outside the star are closed upward within a facet, so walk down
    # from the facets avoiding the apex and stop at faces in the star.  A
    # ridge t of a top-size cell lies in st apex exactly when t | apex is a
    # facet, as it has the top size: the ridges less the facets through the
    # apex, each less the apex, are the cells one size down.
    star = [f ^ vbit for f in masks if f & vbit]
    if top:
        ridges = {m ^ 1 << u for m in cells[top] for u in _bits(m)}
        ridges.difference_update(star)
        cells[top - 1] |= ridges
    # Below the top, a face lies in st apex when some facet through the apex,
    # less the apex, contains it: when the AND of its vertices' owner sets is
    # nonzero.  Skeleta and spheres have no cells there, so no owner sets.
    if any(cells[1:top]):
        owners = [0] * reduce(or_, masks).bit_length()
        for i, f in enumerate(star):
            for u in _bits(f):
                owners[u] |= 1 << i
        every = (1 << len(star)) - 1
        seen: set[int] = set()
        for size in range(top - 1, 0, -1):
            below = cells[size - 1]
            for m in cells[size]:
                for u in _bits(m):
                    t = m ^ 1 << u
                    if t in seen:
                        continue
                    seen.add(t)
                    if not reduce(and_, map(owners.__getitem__, _bits(t)), every):
                        below.add(t)
    # ranks[s]: rank of the boundary from size s to size s - 1, which is 0
    # when either side has no cells
    ranks = [0] * (top + 2)
    for size in range(1, top + 1):
        if cells[size - 1] and cells[size]:
            rows = sorted(cells[size - 1])
            columns = _columns(sorted(cells[size]), dict(zip(rows, range(len(rows)))))
            if any(columns):
                ranks[size] = rank(Sparse(len(rows), columns), field)
    return BettiVector({size - 1: len(cells[size]) - ranks[size] - ranks[size + 1]
                        for size in range(top + 1)})


def _betti(masks: tuple[int, ...], field: FieldSpec) -> BettiVector:
    """Reduced Betti numbers of the complex with facet masks `masks` (vertex
    ids need not be compact).  A graph (at most 2 vertices per facet) needs
    no rank: with V vertices, E edges and c components (none in {<>}), H~_0
    has dimension c - 1 over every field, and the Euler characteristic gives
    H~_1 = E - V + c.  Nor does a cone: the excision seeds no cell for it."""
    top = masks[-1].bit_count()
    if top <= 2:
        c = _components(masks)
        edges = sum(m.bit_count() == 2 for m in masks)
        betti = (int(not c), max(c - 1, 0), edges - reduce(or_, masks).bit_count() + c)
        return BettiVector(dict(zip(range(-1, top), betti)))
    return _relative_betti(masks, field, _apex(masks))


def reduced_betti(cx: SimplicialComplex, field: FieldSpec) -> BettiVector:
    """Reduced Betti numbers beta[-1..dim] over the given field."""
    if cx.is_void:
        raise ValueError("the void complex has no homology")
    return _betti(cx.masks, field)


def local_betti(cx: SimplicialComplex, face, field: FieldSpec) -> BettiVector:
    """Homology of the complex near an interior point of the given face.

    Computed combinatorially as the link's reduced homology shifted up by
    the face's cardinality, which matches the relative homology of the
    realization modulo the punctured realization.
    """
    sigma = as_face(face)
    if sigma.mask == 0:
        raise ValueError("local homology requires a nonempty face")
    return reduced_betti(cx.link(sigma), field).shifted(len(sigma))


def reduced_euler_from_faces(cx: SimplicialComplex) -> int:
    """Alternating face-count sum, empty face included with sign -1."""
    if cx.is_void:
        raise ValueError("the void complex has no Euler characteristic")
    return sum(1 if m.bit_count() & 1 else -1 for m in _face_masks(cx.masks))
