"""The k-CM_t search against closed forms at t = dim and t = dim - 1.

The paper's link theorem (k-CM_t exactly when the link of every nonempty
face is k-CM_{t-1}), taken down to links of dimension 0 and 1, gives:

* max_k(cx, dim) is the least number of facets through a ridge: a ridge's
  link is the set of its facets' other vertices, and deleting them all
  leaves the ridge a facet of a lower dimension;
* for a graph, max_k(G, 0) is the vertex connectivity, since k-CM_0 is
  k-vertex-connectivity (Baclawski's CM connectivity), with
  kappa(K_n) = n - 1;
* for a pure complex, max_k(cx, dim - 1) is the least vertex connectivity
  of the link of a face of dim - 1 vertices: each such link is a graph, and
  max_k raises "not CM_t" exactly when one of them is disconnected.

None reads a Betti number, so all hold over every field.  The oracles
here count facets and search vertex cuts by brute force on the edge list.
"""

from collections import Counter, defaultdict
from itertools import chain, combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmtkit.classify import max_k
from cmtkit.core import from_facets
from cmtkit.fields import GF2, GF3
from cmtkit.generators import random_pure

FIELDS = pytest.mark.parametrize("field", (GF2, GF3), ids=("gf2", "gf3"))


def least_facets_through_a_ridge(cx):
    ridges = Counter(ridge for f in cx.facets
                     for ridge in combinations(f.vertices, len(f.vertices) - 1))
    return min(ridges.values())


def connected(vertices, edges):
    seen, todo = set(), [min(vertices)]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo += [b if a == v else a for a, b in edges if v in (a, b)]
    return seen == set(vertices)


def vertex_connectivity(edges):
    """The fewest vertices whose removal disconnects the graph or leaves one
    vertex, by trying every cut, smallest first."""
    vertices = set(chain.from_iterable(edges))
    for size in range(len(vertices) - 1):
        for cut in combinations(sorted(vertices), size):
            left = vertices.difference(cut)
            if not connected(left, [e for e in edges if left.issuperset(e)]):
                return size
    return len(vertices) - 1


def least_link_connectivity(cx):
    """The least vertex connectivity of the link of a face of dim - 1
    vertices in a pure complex: the link's facets are the edges f - sigma."""
    links = defaultdict(list)
    for f in cx.facets:
        for sigma in combinations(f.vertices, cx.dim - 1):
            links[sigma].append(tuple(v for v in f.vertices if v not in sigma))
    return min(vertex_connectivity(edges) for edges in links.values())


def pairs(n):
    return list(combinations(range(n), 2))


# edge sets covering 3 to 8 vertices; a graph has no isolated vertex
graphs = st.integers(3, 8).flatmap(
    lambda n: st.sets(st.sampled_from(pairs(n)), min_size=2)).filter(
    lambda edges: len(set(chain.from_iterable(edges))) >= 3)

# a spanning tree on 3 to 8 vertices (vertex i hangs from one below it),
# with any further edges
connected_graphs = st.integers(3, 8).flatmap(
    lambda n: st.tuples(st.tuples(*(st.integers(0, i - 1) for i in range(1, n))),
                        st.sets(st.sampled_from(pairs(n))))).map(
    lambda tree_extra: {(p, i + 1) for i, p in enumerate(tree_extra[0])} | tree_extra[1])


@FIELDS
@given(graphs)
def test_max_k_of_a_graph_at_t_1_is_its_minimum_degree(field, edges):
    g = from_facets(edges)
    degree = Counter(chain.from_iterable(edges))
    assert max_k(g, 1, field) == min(degree.values()) == least_facets_through_a_ridge(g)


@FIELDS
@given(connected_graphs)
def test_max_k_of_a_connected_graph_at_t_0_is_its_vertex_connectivity(field, edges):
    assert max_k(from_facets(edges), 0, field) == vertex_connectivity(edges)


@pytest.mark.parametrize("n", range(3, 9))
def test_vertex_connectivity_of_the_complete_graph(n):
    assert vertex_connectivity(pairs(n)) == n - 1
    assert max_k(from_facets(pairs(n)), 0) == n - 1


@FIELDS
@given(st.integers(5, 8), st.integers(3, 4),
       st.sampled_from((0.4, 0.5, 0.6, 0.7, 0.8, 1.0)), st.integers(0, 2 ** 32))
def test_max_k_at_t_dim_is_the_least_number_of_facets_through_a_ridge(field, n, d, density,
                                                                       seed):
    cx = random_pure(n, d, density, seed)
    assert max_k(cx, cx.dim, field) == least_facets_through_a_ridge(cx)


@FIELDS
@given(st.integers(5, 8), st.integers(3, 4),
       st.sampled_from((0.4, 0.5, 0.6, 0.7, 0.8, 1.0)), st.integers(0, 2 ** 32))
def test_max_k_at_t_dim_minus_1_is_the_least_connectivity_of_a_link(field, n, d, density,
                                                                    seed):
    cx = random_pure(n, d, density, seed)
    kappa = least_link_connectivity(cx)
    if kappa == 0:
        with pytest.raises(ValueError, match="not CM_t"):
            max_k(cx, cx.dim - 1, field)
    else:
        assert max_k(cx, cx.dim - 1, field) == kappa
