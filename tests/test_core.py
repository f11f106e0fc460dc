"""Faces, complexes, and the combinatorial operations on them."""

import copy
import os
import pickle
import subprocess
import sys
import time
import warnings
from itertools import combinations
from pathlib import Path

import pytest

import cmtkit
from cmtkit.core import EMPTY_FACE, Face, SimplicialComplex, from_facets


def masks(cx):
    return {f.mask for f in cx.facets}


def facet_sets(cx):
    return {frozenset(f.vertices) for f in cx.facets}


class TestFace:
    def test_basic(self):
        f = Face((3, 1, 2))
        assert f.vertices == (1, 2, 3)
        assert len(f) == 3
        assert f.dim == 2
        assert 2 in f and 0 not in f

    def test_empty(self):
        assert len(EMPTY_FACE) == 0
        assert EMPTY_FACE.dim == -1
        assert EMPTY_FACE.vertices == ()

    def test_set_operations(self):
        a, b = Face((1, 2)), Face((2, 3))
        assert (a | b).vertices == (1, 2, 3)
        assert (a & b).vertices == (2,)
        assert (a - b).vertices == (1,)
        assert Face((2,)) <= a
        assert not a <= b
        assert a.isdisjoint(Face((4,)))

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError):
            Face((-1,))

    def test_duplicates_collapse(self):
        assert Face((1, 1, 2)) == Face((1, 2))

    @pytest.mark.parametrize("n", [0, 1, 64, 65, 1000, 1 << 18])
    def test_wide_face_mask(self, n):
        assert Face(range(n)).mask == (1 << n) - 1
        assert Face(reversed(range(0, n, 3))).mask == sum(1 << v for v in range(0, n, 3))

    def test_wide_face_is_built_in_linear_time(self):
        # ORing one bit at a time into the mask took 0.6 s for 2**18 ids
        start = time.perf_counter()
        Face(range(1 << 20))
        assert time.perf_counter() - start < 1.0

    def test_negative_vertex_in_wide_face_rejected(self):
        with pytest.raises(ValueError, match="got -2"):
            Face([*range(100), -2, 5, -7])


class TestFromFacets:
    def test_maximality_forced(self):
        cx = from_facets([(1, 2), (2,), (1, 2)])
        assert facet_sets(cx) == {frozenset({0, 1})}
        assert cx.labels == ("1", "2")

    def test_empty_input_is_void(self):
        cx = from_facets([])
        assert cx.is_void
        with pytest.raises(ValueError):
            cx.dim

    def test_empty_face_only_is_irrelevant(self):
        cx = from_facets([()])
        assert not cx.is_void
        assert cx.dim == -1
        assert cx.faces() == (EMPTY_FACE,)

    def test_ids_compacted_with_labels(self):
        cx = from_facets([(10, 20), (30,)])
        assert cx.n_vertices == 3
        assert cx.labels == ("10", "20", "30")
        assert facet_sets(cx) == {frozenset({0, 1}), frozenset({2})}

    def test_huge_vertex_id_is_linear(self):
        start = time.perf_counter()
        cx = from_facets([(0, 10**6)])
        assert time.perf_counter() - start < 5.0
        assert cx.n_vertices == 2 and cx.labels == ("0", "1000000")

    def test_n_hint_validates(self):
        with pytest.raises(ValueError):
            from_facets([(0, 5)], n_hint=3)

    def test_ghost_labels_warn(self):
        with pytest.warns(UserWarning):
            from_facets([(0, 1)], labels={0: "a", 1: "b", 7: "ghost"})

    @pytest.mark.parametrize("labels", [("a", "b", "c"), {0: "a", 1: "b", 2: "c"}],
                             ids=["sequence", "mapping"])
    def test_ghost_warning_names_the_unused_ids(self, labels):
        with pytest.warns(UserWarning, match=r"not used by any face: \[2\]$"):
            cx = from_facets([(0, 1)], labels=labels)
        assert cx.labels == ("a", "b")

    def test_short_label_sequence_names_the_first_unlabelled_id(self):
        # id 1 is a ghost too, but the missing label is reported before any warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^vertex id 5 has no label: 2 label"):
                from_facets([(0, 5)], labels=("a", "b"))
            with pytest.raises(ValueError, match=r"^vertex id 0 has no label: 0 label"):
                from_facets([(0,)], labels=())

    def test_many_sparse_ids_relabel_in_one_pass(self):
        start = time.perf_counter()
        cx = from_facets([(4 * i, 4 * i + 2) for i in range(4000)])
        assert time.perf_counter() - start < 1.0
        assert cx.n_vertices == 8000
        assert cx.labels[:4] == ("0", "2", "4", "6")
        assert cx.masks[:2] == (0b11, 0b1100)

    def test_antichain_enforced_by_raw_constructor(self):
        with pytest.raises(ValueError):
            SimplicialComplex(3, [Face((0, 1)), Face((0,))])

    def test_antichain_error_names_the_first_pair_in_canonical_order(self):
        # four violations; (0, 5) is the first facet, in canonical order,
        # that lies in another, and (0, 4, 5) the first facet holding it
        facets = [(1, 2, 3), (4, 5), (2, 3), (0, 5), (0, 4, 5), (1, 2)]
        with pytest.raises(ValueError) as err:
            SimplicialComplex(6, [Face(f) for f in facets])
        assert str(err.value) == ("facets must form an antichain: "
                                  "Face(0, 5) is contained in Face(0, 4, 5)")

    def test_pure_construction_is_fast(self):
        # no facet of one size can lie in another of that size
        facets = [Face(c) for c in combinations(range(16), 6)]
        start = time.perf_counter()
        cx = SimplicialComplex(16, facets)
        assert time.perf_counter() - start < 1.0
        assert len(cx.masks) == 8008

    def test_range_and_labels_enforced_by_raw_constructor(self):
        with pytest.raises(ValueError, match="beyond ambient size"):
            SimplicialComplex(2, [Face((0, 2))])
        with pytest.raises(ValueError, match="one entry per ambient vertex"):
            SimplicialComplex(2, [Face((0, 1))], labels=("a",))


class TestQueries:
    def test_contains(self):
        cx = from_facets([(1, 2, 3)])
        assert cx.contains(Face((0, 2)))
        assert cx.contains(EMPTY_FACE)
        split = from_facets([(1, 2), (3,)])
        assert not split.contains(Face((0, 2)))

    def test_void_contains_nothing(self):
        assert not from_facets([]).contains(EMPTY_FACE)

    def test_all_faces_single_facet(self):
        cx = from_facets([(1, 2)])
        assert [f.vertices for f in cx.faces()] == [(), (0,), (1,), (0, 1)]

    def test_faces_by_size(self):
        cx = from_facets([(1, 2), (2, 3)])
        assert [f.vertices for f in cx.faces(size=1)] == [(0,), (1,), (2,)]

    def test_two_triangles_share_no_edges(self):
        # brute-force oracle: enumerate 2-subsets of each facet, deduplicate
        cx = from_facets([(1, 2, 3), (3, 4, 5)])
        assert len(cx.faces(size=2)) == 6

    def test_void_has_no_faces(self):
        with pytest.raises(ValueError):
            from_facets([]).faces()

    def test_dimension(self):
        assert from_facets([(1, 2, 3)]).dim == 2
        assert from_facets([()]).dim == -1


class TestLink:
    def test_shared_vertex(self):
        cx = from_facets([(1, 2, 3), (3, 4, 5)])
        lk = cx.link(Face((2,)))  # vertex labelled "3"
        assert facet_sets(lk) == {frozenset({0, 1}), frozenset({3, 4})}
        assert lk.n_vertices == cx.n_vertices  # same ambient space

    def test_link_of_empty_face(self):
        cx = from_facets([(1, 2, 3)])
        assert cx.link(EMPTY_FACE) == cx

    def test_link_of_facet_is_irrelevant(self):
        cx = from_facets([(1, 2, 3)])
        assert cx.link(Face((0, 1, 2))).dim == -1

    def test_not_a_face(self):
        cx = from_facets([(1, 2), (3,)])
        with pytest.raises(ValueError, match="not a face"):
            cx.link(Face((0, 2)))


class TestRestrict:
    def test_simple(self):
        cx = from_facets([(1, 2, 3)])
        assert facet_sets(cx.restrict((0, 1))) == {frozenset({0, 1})}

    def test_two_edges(self):
        cx = from_facets([(1, 2), (3, 4)])
        assert facet_sets(cx.restrict((0, 2))) == {frozenset({0}), frozenset({2})}

    def test_boundary_fills_in(self):
        # tetrahedron boundary loses vertex 3: the missing triangle appears whole
        from cmtkit.generators import boundary_simplex
        cx = boundary_simplex(4)
        assert facet_sets(cx.restrict((0, 1, 2))) == {frozenset({0, 1, 2})}

    def test_nothing_survives(self):
        cx = from_facets([(1, 2)])
        r = cx.restrict(())
        assert not r.is_void
        assert r.dim == -1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            from_facets([(0, 1)]).restrict((5,))

    def test_keeping_every_facet_returns_the_complex(self):
        cx = from_facets([(1, 2), (2, 3), (5,)])
        assert cx.restrict((0, 1, 2, 3)) is cx
        void = from_facets([])
        assert void.restrict(()) is void


class TestSkeleton:
    def test_triangle_boundary(self):
        cx = from_facets([(1, 2, 3)])
        sk = cx.skeleton(1)
        assert facet_sets(sk) == {frozenset(p) for p in ((0, 1), (0, 2), (1, 2))}

    def test_identity_at_dim(self):
        cx = from_facets([(1, 2, 3), (3, 4)])
        assert cx.skeleton(cx.dim) is cx

    def test_zero_skeleton(self):
        cx = from_facets([(1, 2, 3), (3, 4, 5)])
        assert len(cx.skeleton(0).facets) == 5

    def test_minus_one(self):
        assert from_facets([(1, 2)]).skeleton(-1).dim == -1

    def test_below_minus_one(self):
        with pytest.raises(ValueError):
            from_facets([(1, 2)]).skeleton(-2)

    def test_edges_of_a_64_simplex_skip_its_larger_faces(self):
        # the 2**64 faces of the simplex are never enumerated, only its 2,016 edges
        code = "from cmtkit.generators import simplex; print(len(simplex(64).skeleton(1).masks))"
        src = str(Path(cmtkit.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=10)
        assert done.stdout == "2016\n", done.stderr


class TestJoin:
    def test_two_points(self):
        edge = from_facets([(0,)]).join(from_facets([(0,)]))
        assert edge.dim == 1
        assert len(edge.facets) == 1

    def test_irrelevant_is_identity(self):
        cx = from_facets([(1, 2), (2, 3)])
        assert cx.join(from_facets([()])) == cx

    def test_dimension_formula(self):
        a = from_facets([(1, 2, 3)])
        b = from_facets([(1, 2)])
        assert a.join(b).dim == a.dim + b.dim + 1

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            from_facets([(1,)]).join(from_facets([]))

    def test_label_collisions_get_primes(self):
        j = from_facets([(0,)]).join(from_facets([(0,)]))
        assert j.labels == ("0", "0'")

    def test_refuses_a_product_over_the_incidence_limit(self):
        # 1,000 x 1,000 edges would be a million 4-vertex facets; the count,
        # len(B) inc(A) + len(A) inc(B), is checked before any is built
        edges = from_facets([(2 * i, 2 * i + 1) for i in range(1000)])
        with pytest.raises(ValueError, match="^4000000 facet-vertex incidences "
                                             "exceed the limit of 1048576$"):
            edges.join(edges)


class TestDeleteCofaces:
    def test_remove_top_face(self):
        cx = from_facets([(1, 2, 3)])
        result, report = cx.delete_cofaces([Face((0, 1, 2))])
        assert facet_sets(result) == {frozenset(p) for p in ((0, 1), (0, 2), (1, 2))}
        assert report.union_condition and report.dim_dropped

    def test_union_condition_violation(self):
        cx = from_facets([(1, 2)])
        result, report = cx.delete_cofaces([Face((0,)), Face((1,))])
        assert not report.union_condition
        assert report.violating_pair is not None
        assert result.dim == -1

    def test_not_a_face_rejected(self):
        cx = from_facets([(1, 2)])
        with pytest.raises(ValueError, match="not a face"):
            cx.delete_cofaces([Face((5,))])

    def test_deleting_empty_face_gives_void(self):
        cx = from_facets([(1, 2)])
        result, report = cx.delete_cofaces([EMPTY_FACE])
        assert result.is_void
        assert report.dim_dropped

    def test_miyazaki_shape(self):
        from cmtkit.generators import miyazaki_example
        cx, sigma = miyazaki_example()
        result, report = cx.delete_cofaces([sigma])
        # every surviving facet keeps exactly one of x, y
        assert all(len(f) == 3 for f in result.facets)
        assert len(result.facets) == 12
        assert report.union_condition and report.dim_dropped


class TestValueSemantics:
    def test_equality_and_hash(self):
        a = from_facets([(1, 2), (2, 3)])
        b = from_facets([(2, 3), (1, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_compact_drops_unused_ambient(self):
        cx = from_facets([(1, 2, 3), (3, 4, 5)])
        lk = cx.link(Face((2,)))
        c = lk.compact()
        assert c.n_vertices == 4
        assert c.labels == ("1", "2", "4", "5")

    def test_immutability(self):
        cx = from_facets([(1, 2)])
        with pytest.raises(AttributeError):
            cx.n_vertices = 5

    @pytest.mark.parametrize("cx", [
        from_facets([]),
        from_facets([()]),
        from_facets([(1, 2, 3), (3, 4)]),
        # a link keeps its parent's ids: id 1, the vertex it is taken at, is a gap
        from_facets([(1, 2, 3), (2, 3, 4), (2, 5)]).link(Face((1,))),
    ], ids=["void", "empty_face", "compact", "gapped"])
    def test_copy_and_pickle_round_trip(self, cx):
        # the default restore of slot state would go through __setattr__
        for twin in (copy.copy(cx), copy.deepcopy(cx), pickle.loads(pickle.dumps(cx))):
            assert type(twin) is SimplicialComplex
            assert (twin.masks, twin.labels) == (cx.masks, cx.labels)
            assert twin == cx and hash(twin) == hash(cx)
            with pytest.raises(AttributeError, match="immutable"):
                twin.masks = ()

    @pytest.mark.parametrize("name", ["n_vertices", "masks", "labels"])
    def test_derived_complexes_are_immutable(self, name):
        # links and restrictions skip the constructor and set their slots directly
        cx = from_facets([(1, 2, 3), (3, 4)])
        for derived in (cx.link(Face((3,))), cx.restrict(Face((0, 1, 2)))):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(derived, name, None)
