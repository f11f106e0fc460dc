"""Canonical and random complex families for fixtures and property suites."""

from __future__ import annotations

from itertools import combinations
from math import comb

from ._record import FrozenRecord
from .core import Face, SimplicialComplex, _bounded, from_facets

_MASK64 = (1 << 64) - 1

# random_pure draws once per d-subset on every attempt, so it refuses more
# subsets than this: C(18, 9) = 48,620 of them take a few seconds over all
# 64 attempts at a density that keeps none.
_MAX_SUBSETS = 1 << 16

class SplitMix64:
    """Deterministic 64-bit generator (splitmix64), identical on every platform."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def simplex(n: int) -> SimplicialComplex:
    """The full simplex on n vertices; n = 0 gives {<>}."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    _bounded(n)
    if n == 0:
        return from_facets([()])
    return from_facets([Face.from_mask((1 << n) - 1)])


def boundary_simplex(n: int) -> SimplicialComplex:
    """The boundary of the (n-1)-simplex: all (n-1)-subsets of n vertices."""
    if n < 2:
        raise ValueError("boundary_simplex needs at least 2 vertices")
    _bounded(n * (n - 1))
    return from_facets(combinations(range(n), n - 1))


class GluedRealizabilityError(ValueError):
    """An overlap table that no placement on shared vertex blocks satisfies."""

    def __init__(self, message: str, witness_pair: tuple[int, int]):
        super().__init__(message)
        self.witness_pair = witness_pair


class GluedFamilySpec(FrozenRecord):
    """m facets of size d whose pairwise intersections have prescribed dimensions.

    overlap_dims is a symmetric m x m table with entries in -1..d-2
    (the diagonal is ignored).  Simplices i and j share a dedicated block
    of overlap_dims[i][j] + 1 vertices, so triple intersections are empty
    by construction rather than prescribed.
    """

    __slots__ = _fields = ("d", "m", "overlap_dims")

    def __init__(self, d: int, m: int, overlap_dims: tuple[tuple[int, ...], ...]):
        if d < 1 or m < 1:
            raise ValueError("need d >= 1 and m >= 1")
        table = tuple(tuple(int(x) for x in row) for row in overlap_dims)
        if len(table) != m or any(len(row) != m for row in table):
            raise ValueError(f"overlap table must be {m}x{m}")
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                if table[i][j] != table[j][i]:
                    raise ValueError(f"overlap table must be symmetric at ({i},{j})")
                if not -1 <= table[i][j] <= d - 2:
                    raise ValueError(
                        f"overlap dimension {table[i][j]} at ({i},{j}) outside -1..{d - 2}")
        self._assign(d, m, table)

    @classmethod
    def uniform(cls, d: int, m: int, overlap: int) -> "GluedFamilySpec":
        _bounded(m * m, "overlap table entries")
        row = [[overlap] * m for _ in range(m)]
        for i in range(m):
            row[i][i] = -1
        return cls(d, m, tuple(tuple(r) for r in row))


def glued_simplices(spec: GluedFamilySpec) -> SimplicialComplex:
    """Union of simplices realizing the pairwise intersections of `spec`."""
    _bounded(spec.m * spec.d)
    next_id = 0
    blocks: dict[tuple[int, int], list[int]] = {}
    for i in range(spec.m):
        for j in range(i + 1, spec.m):
            o = spec.overlap_dims[i][j]
            if o >= 0:
                blocks[(i, j)] = list(range(next_id, next_id + o + 1))
                next_id += o + 1
    facets = []
    for i in range(spec.m):
        verts: list[int] = []
        for j in range(spec.m):
            if j == i:
                continue
            block = blocks.get((min(i, j), max(i, j)))
            if block:
                if len(verts) + len(block) > spec.d:
                    raise GluedRealizabilityError(
                        f"simplex {i} cannot hold its shared blocks: "
                        f"block with {j} pushes past facet size {spec.d}",
                        witness_pair=(i, j))
                verts.extend(block)
        while len(verts) < spec.d:
            verts.append(next_id)
            next_id += 1
        facets.append(verts)
    return from_facets(facets)


def miyazaki_example() -> tuple[SimplicialComplex, Face]:
    """Two triangle boundaries wedged at a vertex, joined with an edge.

    Returns the joined complex together with the edge face {x, y}; deleting
    the cofaces of that edge is the classic witness that the coface-removal
    theorem's link hypothesis cannot be weakened.
    """
    wedge = from_facets([(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])
    edge = from_facets([(0, 1)], labels=("x", "y"))
    joined = wedge.join(edge)
    return joined, Face((5, 6))


def projective_plane_6() -> SimplicialComplex:
    """The 6-vertex, 10-facet triangulation of the real projective plane."""
    return from_facets([
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ])


def random_pure(n: int, d: int, density: float, seed: int,
                max_attempts: int = 64) -> SimplicialComplex:
    """Random pure complex: each d-subset of n vertices kept with `density`.

    The splitmix64 stream makes the output a pure function of the seed.
    Unused vertices are compacted away, so the result may have fewer than
    n vertices but always has dimension d - 1.  Above _MAX_SUBSETS d-subsets,
    or core._MAX_INCIDENCES incidences among them, it raises ValueError.
    """
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    if comb(n, d) > _MAX_SUBSETS:
        raise ValueError(f"C({n}, {d}) = {comb(n, d)} candidate facets exceed "
                         f"the limit of {_MAX_SUBSETS}")
    _bounded(comb(n, d) * d, "candidate facet-vertex incidences")
    rng = SplitMix64(seed)
    threshold = int(density * 2 ** 64)
    for _ in range(max_attempts):
        chosen = [c for c in combinations(range(n), d) if rng.next_u64() < threshold]
        if chosen:
            return from_facets(chosen)
    raise ValueError(f"density {density} produced no facets after {max_attempts} attempts")
