"""The join law for min_t, an oracle independent of the link recursion.

Over a field, H~_{n+1}(A * B) is the sum over i + j = n of
H~_i(A) (x) H~_j(B) (Milnor 1956), and lk_{A*B}(sigma u tau) is
lk_A(sigma) * lk_B(tau).  So a face of the join is obstructed exactly when
one of its two links is obstructed and the other has some nonzero reduced
homology, which a facet's link {<>} always has.  For pure nonvoid A and B:

    min_t(A * B) = max(min_t(A) + dim B + 1 if min_t(A) > 0,
                       min_t(B) + dim A + 1 if min_t(B) > 0, 0).

A join with a simplex is a cone, so this checks the cone rule of the link
recursion against joins computed from scratch.
"""

from itertools import combinations_with_replacement

import pytest

from cmtkit.classify import clear_caches, min_t
from cmtkit.core import from_facets
from cmtkit.fields import GF2, GF3, RATIONALS
from cmtkit.generators import boundary_simplex, projective_plane_6, random_pure, simplex

FACTORS = {
    "{<>}": from_facets([()]),
    "point": simplex(1),
    "edge": simplex(2),
    "triangle": simplex(3),
    "two points": from_facets([(1,), (2,)]),
    "circle": boundary_simplex(3),
    "two disjoint edges": from_facets([(1, 2), (3, 4)]),
    "two disjoint triangles": from_facets([(1, 2, 3), (4, 5, 6)]),
    "rp2": projective_plane_6(),
    "two triangles at a vertex": from_facets([(1, 2, 3), (3, 4, 5)]),
    "two tetrahedra at a vertex": from_facets([(1, 2, 3, 4), (4, 5, 6, 7)]),
    "two tetrahedra at an edge": from_facets([(1, 2, 3, 4), (3, 4, 5, 6)]),
    "random_pure(6, 3, 0.5, 2)": random_pure(6, 3, 0.5, 2),
    "random_pure(6, 2, 0.3, 5)": random_pure(6, 2, 0.3, 5),
    "random_pure(7, 3, 0.3, 2)": random_pure(7, 3, 0.3, 2),
    "random_pure(7, 4, 0.3, 2)": random_pure(7, 4, 0.3, 2),
    "random_pure(7, 4, 0.5, 2)": random_pure(7, 4, 0.5, 2),
}


def join_law(a, b, field):
    ta, tb = min_t(a, field), min_t(b, field)
    return max(ta + b.dim + 1 if ta > 0 else 0, tb + a.dim + 1 if tb > 0 else 0)


@pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=lambda f: f.token)
def test_min_t_of_a_join_follows_the_join_law(field):
    clear_caches()
    seen = set()
    for x, y in combinations_with_replacement(sorted(FACTORS), 2):
        a, b = FACTORS[x], FACTORS[y]
        seen.update((min_t(a, field), min_t(b, field)))
        assert min_t(a.join(b), field) == join_law(a, b, field), (x, y)
    assert seen == {0, 1, 2, 3}

