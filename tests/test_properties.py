"""Law-level properties over randomly generated complexes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmtkit.core import Face, SimplicialComplex, _canonical, _face_masks, _maximal_masks, from_facets
from cmtkit.fields import GF2, GF3, RATIONALS
from cmtkit.homology import (
    _relative_betti,
    boundary_matrices,
    reduced_betti,
    reduced_euler_from_faces,
)
from cmtkit.snf import betti_via_snf


@st.composite
def complexes(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    # drawn as masks: lists of small vertex sets mostly collapse to one facet
    raw = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=5))
    return from_facets(Face.from_mask(m) for m in raw)


@st.composite
def complex_and_face(draw):
    cx = draw(complexes())
    face = draw(st.sampled_from(cx.faces()))
    return cx, face


class TestLinkLaws:
    @given(complex_and_face(), st.data())
    def test_link_of_link(self, cx_face, data):
        cx, sigma = cx_face
        lk = cx.link(sigma)
        tau = data.draw(st.sampled_from(lk.faces()))
        assert lk.link(tau) == cx.link(sigma | tau)

    @given(complex_and_face(), st.data())
    def test_restriction_link_commutation(self, cx_face, data):
        cx, sigma = cx_face
        outside = [v for v in cx.vertex_ids() if v not in sigma]
        removed = data.draw(st.sets(st.sampled_from(outside), min_size=0)
                            if outside else st.just(set()))
        keep = Face.from_mask(cx.support_mask & ~Face(removed).mask)
        assert cx.restrict(keep).link(sigma) == cx.link(sigma).restrict(keep)

    @given(complex_and_face())
    def test_link_faces_match_definition(self, cx_face):
        cx, sigma = cx_face
        lk = cx.link(sigma)
        expected = {f.mask for f in cx.faces()
                    if f.mask & sigma.mask == 0 and cx.contains(f | sigma)}
        assert {f.mask for f in lk.faces()} == expected



@st.composite
def ambient_complexes(draw, max_n=7):
    """A complex on ambient ids 0..n-1, some possibly unused."""
    n = draw(st.integers(1, max_n))
    raw = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
    return SimplicialComplex(n, map(Face.from_mask, _maximal_masks(raw)))


class TestDerivedMasks:
    """link and restrict build their facet masks without the normalization
    step where they can; applied to the cut masks, it must give the same."""

    @given(ambient_complexes(), st.data())
    def test_link_is_the_normalized_cut(self, cx, data):
        s = data.draw(st.sampled_from(_face_masks(cx.masks))
                      | st.integers(0, (1 << cx.n_vertices) - 1))
        through = [f & ~s for f in cx.masks if f & s == s]
        if not through:
            with pytest.raises(ValueError, match="not a face"):
                cx.link(Face.from_mask(s))
            return
        lk = cx.link(Face.from_mask(s))
        assert lk.masks == _canonical(_maximal_masks(through))
        assert lk.labels == cx.labels

    @given(ambient_complexes(), st.data())
    def test_restrict_is_the_normalized_cut(self, cx, data):
        every = (1 << cx.n_vertices) - 1
        keep = data.draw(st.integers(0, every) | st.sampled_from([every, cx.support_mask])
                         | st.sampled_from(cx.masks))
        out = cx.restrict(Face.from_mask(keep))
        assert out.masks == _canonical(_maximal_masks(f & keep for f in cx.masks))
        assert out.labels == cx.labels
        if all(f & keep == f for f in cx.masks):  # no facet is cut
            assert out is cx


class TestSkeletonLaws:
    @given(complexes(), st.integers(-1, 6))
    def test_idempotent(self, cx, j):
        sk = cx.skeleton(j)
        assert sk.skeleton(j) == sk

    @given(complexes(), st.integers(-1, 5))
    def test_monotone_under_inclusion(self, cx, j):
        small = {f.mask for f in cx.skeleton(j).faces()}
        big = {f.mask for f in cx.skeleton(j + 1).faces()}
        assert small <= big

    @given(complexes())
    def test_skeleton_at_dim_is_identity(self, cx):
        assert cx.skeleton(cx.dim) == cx


class TestJoinLaws:
    @given(complexes(max_n=4), complexes(max_n=4))
    def test_dimension(self, a, b):
        assert a.join(b).dim == a.dim + b.dim + 1

    @given(complexes(max_n=4))
    def test_irrelevant_identity(self, a):
        assert a.join(from_facets([()])) == a

    @given(complexes(max_n=3), complexes(max_n=3), complexes(max_n=3))
    def test_associative_up_to_relabeling(self, a, b, c):
        left = a.join(b).join(c)
        right = a.join(b.join(c))
        assert {f.mask for f in left.facets} == {f.mask for f in right.facets}
        assert left.n_vertices == right.n_vertices


class TestConstructors:
    @given(complexes())
    def test_from_facets_idempotent_on_own_output(self, cx):
        rebuilt = from_facets([f.vertices for f in cx.facets], labels=cx.labels)
        assert rebuilt == cx.compact()

    @given(complexes())
    def test_faces_agree_with_contains_oracle(self, cx):
        # brute force: test every subset of the ambient space
        n = cx.n_vertices
        expected = {m for m in range(1 << n)
                    if cx.contains(Face.from_mask(m))}
        assert {f.mask for f in cx.faces()} == expected

    @given(complexes(), st.data())
    def test_delete_cofaces_is_a_face_filter(self, cx, data):
        sigmas = data.draw(st.lists(st.sampled_from(cx.faces()), min_size=1, max_size=3))
        result, _ = cx.delete_cofaces(sigmas)
        expected = {f.mask for f in cx.faces()
                    if not any(s.mask & f.mask == s.mask for s in sigmas)}
        got = set() if result.is_void else {f.mask for f in result.faces()}
        assert got == expected


def _canonical_order(faces):
    return sorted(faces, key=lambda f: (len(f), f.vertices))


class TestTrustedConstruction:
    """Derived complexes skip the validating constructor; rebuilding each
    one through it checks range, antichain, duplicates, labels and order."""

    @given(complexes(), complexes(max_n=3), st.data())
    def test_derived_complexes_pass_validation(self, cx, other, data):
        sigmas = data.draw(st.lists(st.sampled_from(cx.faces()), min_size=1, max_size=3))
        derived = [cx, cx.join(other), cx.delete_cofaces(sigmas)[0]]
        derived += [cx.skeleton(j) for j in range(-1, cx.dim + 2)]
        derived += [cx.link(sigma) for sigma in cx.faces()]
        derived += [cx.restrict(Face.from_mask(keep)) for keep in range(1 << cx.n_vertices)]
        derived += [out.compact() for out in derived]
        for out in derived:
            assert out.n_vertices == len(out.labels)
            assert SimplicialComplex(out.n_vertices, out.facets, out.labels) == out
            assert list(out.facets) == _canonical_order(out.facets)
            if not out.is_void:
                assert list(out.faces()) == _canonical_order(out.faces())


def _full_chain_betti(cx, field):
    """(degree, Betti number) pairs from the ranks of the full augmented
    chain complex; ranks[s] is the rank of the boundary out of size s."""
    mats = boundary_matrices(cx)
    counts = [len(m.rows) for m in mats] + [cx.face_count(size=cx.dim + 1)]
    ranks = [0] + [m.rank_over(field) for m in mats] + [0]
    return tuple((s - 1, counts[s] - ranks[s] - ranks[s + 1]) for s in range(len(counts)))


class TestHomologyLaws:
    @given(complexes(max_n=5))
    def test_boundary_squared_zero(self, cx):
        mats = boundary_matrices(cx)
        for a, b in zip(mats, mats[1:]):
            assert not (a.matrix @ b.matrix).any()

    @given(complexes(max_n=5))
    def test_betti_matches_snf_oracle(self, cx):
        # snf.py assembles its own dense boundary matrices from vertex tuples
        for field in (GF2, GF3, RATIONALS):
            assert reduced_betti(cx, field) == betti_via_snf(cx, field)

    @given(complexes(max_n=5))
    def test_excision_matches_full_chain_complex(self, cx):
        # H~(K) = H(K, st v) for every vertex v, not only the chosen apex,
        # on K and on every link; zero degrees included
        for lk in {cx.link(sigma) for sigma in cx.faces()}:
            for field in (GF2, GF3, RATIONALS):
                full = _full_chain_betti(lk, field)
                assert reduced_betti(lk, field).items() == full
                assert betti_via_snf(lk, field).items() == full
                for v in lk.vertex_ids():
                    assert _relative_betti(lk.masks, field, v).items() == full

    @given(complexes(max_n=5))
    def test_euler_consistency(self, cx):
        assert reduced_betti(cx, GF2).reduced_euler() == reduced_euler_from_faces(cx)

    @given(complexes(max_n=4))
    def test_cone_acyclic(self, cx):
        cone = cx.join(from_facets([(0,)]))
        assert not reduced_betti(cone, GF2).nonzero()
