"""Reduced and local homology, cross-checked against the integer oracle."""

import re
import time
from collections import Counter
from itertools import chain, combinations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cmtkit import homology
from cmtkit.classify import clear_caches, cm_witness, is_cm
from cmtkit.core import EMPTY_FACE, Face, SimplicialComplex, from_facets
from cmtkit.fields import GF2, GF3, RATIONALS, FieldSpec
from cmtkit.generators import boundary_simplex, projective_plane_6, simplex
from cmtkit.homology import (
    BettiVector,
    _apex,
    _relative_betti,
    boundary_matrices,
    local_betti,
    reduced_betti,
    reduced_euler_from_faces,
)
from cmtkit.snf import betti_via_snf
from test_mask_oracles import mixed_complexes
from test_properties import _full_chain_betti

TRIANGLE = from_facets([(1, 2), (1, 3), (2, 3)])


def _regex_parse(token):
    """FieldSpec.parse as it was with the pattern gf(\\d+)."""
    tok = token.strip().lower()
    if tok in ("q", "rationals", "rational", "qq"):
        return FieldSpec.rationals()
    m = re.fullmatch(r"gf(\d+)", tok)
    if not m:
        raise ValueError(f"unknown field spec: {token!r} (expected gf<p> or q)")
    return FieldSpec.gf(int(m.group(1)))


def _outcome(parse, token):
    try:
        return parse(token)
    except ValueError as e:
        return str(e)


class TestBettiVector:
    def test_lookup_defaults_to_zero(self):
        b = BettiVector({0: 2, 1: 0})
        assert b[0] == 2 and b[1] == 0 and b[7] == 0

    def test_equality_ignores_stored_zeros(self):
        assert BettiVector({0: 1, 1: 0}) == BettiVector({0: 1})

    def test_shift(self):
        assert BettiVector({-1: 1}).shifted(3)[2] == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BettiVector({0: -1})


class TestFieldSpec:
    def test_parse(self):
        assert FieldSpec.parse("gf7") == FieldSpec.gf(7)
        assert FieldSpec.parse("q").is_rationals
        assert FieldSpec.parse("GF2") == GF2

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            FieldSpec.gf(6)
        with pytest.raises(ValueError):
            FieldSpec.parse("gf9")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            FieldSpec.parse("florps")

    @pytest.mark.parametrize("token", [
        "gf2", " GF7 ", "gf\u0663", "gf\u00b2", "gf", "gf-3", "gf3x", "q", "gf 3", "gf+5",
        "gf03", "gf9", "gf\uff17"])
    def test_parse_matches_the_regex(self, token):
        # isdecimal is Unicode category Nd, which is what \d matches in a str
        # pattern: Arabic-Indic and fullwidth digits pass, a superscript does not
        assert _outcome(FieldSpec.parse, token) == _outcome(_regex_parse, token)

    # ASCII, Arabic-Indic, Devanagari, Thai and fullwidth digits (all Nd),
    # superscripts and subscripts (No), signs and letters
    @given(st.text("0123456789\u0663\u096d\u0e53\uff17\u00b2\u00b9\u2070\u2082 +-_.xgfq",
                   max_size=6))
    def test_parse_matches_the_regex_on_any_suffix(self, suffix):
        for token in (suffix, "gf" + suffix, "GF" + suffix):
            assert _outcome(FieldSpec.parse, token) == _outcome(_regex_parse, token)


class TestReducedBetti:
    def test_triangle_boundary_is_a_circle(self, all_fields):
        for f in all_fields:
            b = reduced_betti(TRIANGLE, f)
            assert b == BettiVector({1: 1})

    def test_full_simplex_is_acyclic(self, all_fields):
        cx = from_facets([(1, 2, 3, 4)])
        for f in all_fields:
            assert reduced_betti(cx, f) == BettiVector({})

    def test_irrelevant_complex(self):
        cx = from_facets([()])
        assert reduced_betti(cx, GF2) == BettiVector({-1: 1})

    def test_point(self):
        assert reduced_betti(simplex(1), GF2) == BettiVector({})

    def test_two_points(self):
        assert reduced_betti(from_facets([(1,), (2,)]), GF2) == BettiVector({0: 1})

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            reduced_betti(from_facets([]), GF2)

    def test_projective_plane_field_dependence(self):
        # expected values frozen from the integer diagonalization oracle
        rp2 = projective_plane_6()
        assert reduced_betti(rp2, GF2) == BettiVector({1: 1, 2: 1})
        assert reduced_betti(rp2, GF3) == BettiVector({})
        assert reduced_betti(rp2, RATIONALS) == BettiVector({})

    def test_engine_matches_snf_oracle_on_projective_plane(self, all_fields):
        rp2 = projective_plane_6()
        for f in all_fields:
            assert reduced_betti(rp2, f) == betti_via_snf(rp2, f)

    def test_sphere_recognition(self, all_fields):
        for n in range(2, 8):
            cx = boundary_simplex(n)
            expected = BettiVector({n - 2: 1})
            for f in all_fields:
                assert reduced_betti(cx, f) == expected


class TestExcision:
    """reduced_betti ranks the pair (K, st v); closed forms pin its output,
    zero degrees included, since the CLI prints every degree."""

    @pytest.mark.parametrize("n", range(3, 10))
    def test_sphere_skeleta(self, n, all_fields):
        # the j-skeleton of the boundary of the (n-1)-simplex has
        # C(n-1, j+1) in degree j and nothing else
        sphere = boundary_simplex(n)
        for j in range(0, n - 1):
            expected = tuple((d, comb(n - 1, j + 1) if d == j else 0)
                             for d in range(-1, j + 1))
            for f in all_fields:
                assert reduced_betti(sphere.skeleton(j), f).items() == expected

    def test_projective_plane_from_every_apex(self):
        rp2 = projective_plane_6()
        for v in rp2.vertex_ids():
            assert _relative_betti(rp2.masks, GF2, v).items() == ((-1, 0), (0, 0), (1, 1), (2, 1))
            assert _relative_betti(rp2.masks, RATIONALS, v).items() == (
                (-1, 0), (0, 0), (1, 0), (2, 0))

    @given(mixed_complexes())
    def test_every_apex_matches_the_snf_oracle(self, cx):
        # impure input puts cells below the top size, where the star test
        # reads the owner sets rather than the facet set
        for f in (GF2, GF3, RATIONALS):
            want = betti_via_snf(cx, f).items()
            for v in (None, *cx.vertex_ids()):
                assert _relative_betti(cx.masks, f, v).items() == want

    def test_irrelevant_complex_keeps_degree_minus_one(self, all_fields):
        for f in all_fields:
            assert reduced_betti(from_facets([()]), f).items() == ((-1, 1),)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_point_set(self, m, all_fields):
        points = from_facets([(v,) for v in range(m)])
        for f in all_fields:
            assert reduced_betti(points, f).items() == ((-1, 0), (0, m - 1))

    def test_apex_is_the_vertex_in_most_facets_lowest_id_first(self):
        assert _apex(from_facets([(0, 1), (1, 2), (2, 3)]).masks) == 1
        assert _apex(from_facets([(0, 1), (2, 3), (3, 4), (4, 0)]).masks) == 0
        assert _apex(from_facets([()]).masks) is None

    @given(st.lists(st.frozensets(st.integers(0, 15) | st.integers(0, 1 << 17), max_size=6),
                    max_size=12))
    @example([frozenset()])
    @example([])
    @example([frozenset({70000, 3}), frozenset({70000, 5}), frozenset({3, 5})])
    def test_apex_matches_the_counter_definition(self, facets):
        # masks wider than 2**16 bits included; ties go to the lowest id
        masks = tuple(sum(1 << v for v in f) for f in facets)
        counts = Counter(chain.from_iterable(facets))
        most = max(counts.values(), default=0)
        want = min(v for v, c in counts.items() if c == most) if most else None
        assert _apex(masks) == want

    def test_apex_counts_facets_in_one_pass(self):
        edges = from_facets([(2 * i, 2 * i + 1) for i in range(3000)])
        start = time.perf_counter()
        assert _apex(edges.masks) == 0
        assert time.perf_counter() - start < 0.5

    def test_cone_is_answered_without_rank_or_enumeration(self, monkeypatch, all_fields):
        def fail(*args):
            raise AssertionError("a cone needs no chain complex")

        monkeypatch.setattr(homology, "rank", fail)
        monkeypatch.setattr(homology, "_relative_betti", fail)
        cone = projective_plane_6().join(simplex(1))
        for f in all_fields:
            assert reduced_betti(cone, f).items() == tuple((d, 0) for d in range(-1, 4))

    @pytest.mark.parametrize("n, j", [(13, 4), (12, 3)])
    def test_skeleton_ranks_nothing(self, n, j, monkeypatch):
        # every face below the top level lies in the apex's star, so each
        # boundary has no rows: no column is built and nothing is ranked
        calls = {"rank": 0, "_columns": 0}
        for name in calls:
            def counted(*args, _name=name, _orig=getattr(homology, name)):
                calls[_name] += 1
                return _orig(*args)
            monkeypatch.setattr(homology, name, counted)
        skeleton = boundary_simplex(n).skeleton(j)
        for f in (GF2, GF3, RATIONALS):
            clear_caches()
            assert reduced_betti(skeleton, f).nonzero() == {j: comb(n - 1, j + 1)}
        assert calls == {"rank": 0, "_columns": 0}


@st.composite
def graphs(draw):
    """A graph with isolated vertices, gaps between its ids, and ids past 64,
    whose masks `_bits` reads bit by bit: any number of components and cycles."""
    ids = draw(st.lists(st.integers(0, 15) | st.integers(60, 200), min_size=1, max_size=12,
                        unique=True))
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                          .filter(lambda e: e[0] != e[1]).map(frozenset), max_size=16, unique=True))
    covered = set().union(*edges)
    return SimplicialComplex(max(ids) + 1, [*map(Face, edges),
                                            *(Face([v]) for v in ids if v not in covered)])


class TestGraphs:
    """A graph's Betti numbers come in closed form from its components."""

    @given(graphs())
    @example(from_facets([(1, 2), (2, 3), (3, 1), (4, 5), (6,)]))
    @example(SimplicialComplex(200, [Face([199])]))
    def test_closed_form_matches_the_chain_complex(self, cx):
        for f in (GF2, GF3, RATIONALS):
            want = _full_chain_betti(cx, f)
            assert reduced_betti(cx, f).items() == want == betti_via_snf(cx, f).items()

    def test_graphs_and_disconnected_cores_rank_nothing(self, monkeypatch, all_fields):
        # a graph's Betti vector, and the own degree of a disconnected core
        # of dimension 2 (two tetrahedron boundaries), read components only
        def fail(*args):
            raise AssertionError("a graph or a disconnected core needs no rank")

        monkeypatch.setattr(homology, "rank", fail)
        graph = SimplicialComplex(300, [Face(e) for e in ((1, 2), (2, 70), (1, 70), (100, 299))]
                                  + [Face([5])])
        spheres = from_facets([f for f in combinations(range(4), 3)]
                              + [f for f in combinations(range(4, 8), 3)])
        for f in all_fields:
            clear_caches()
            assert reduced_betti(graph, f).items() == ((-1, 0), (0, 2), (1, 1))
            assert not is_cm(spheres, f)
            assert cm_witness(spheres, f).to_json(spheres) == {
                "kind": "link_homology", "face": [], "degree": 0}


class TestBoundaryMatrices:
    def test_shapes_and_augmentation(self):
        mats = boundary_matrices(TRIANGLE)
        assert [m.matrix.shape for m in mats] == [(1, 3), (3, 3)]
        assert (mats[0].matrix == 1).all()  # augmentation row

    def test_boundary_squared_is_zero(self):
        for cx in (TRIANGLE, boundary_simplex(5), projective_plane_6()):
            mats = boundary_matrices(cx)
            for a, b in zip(mats, mats[1:]):
                assert not (a.matrix @ b.matrix).any()

    def test_dense_view(self):
        m = boundary_matrices(TRIANGLE)[1]
        assert isinstance(m.matrix, np.ndarray) and m.matrix.dtype == np.int64
        assert m.matrix is m.matrix  # built on first access, then cached
        assert m.matrix.tolist() == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
        assert m.sparse.size == m.matrix.size

    def test_rank_over(self):
        mats = boundary_matrices(TRIANGLE)
        assert mats[1].rank_over(GF2) == 2


class TestEulerConsistency:
    @pytest.mark.parametrize("facets", [
        [(1, 2), (1, 3), (2, 3)],
        [(1, 2, 3), (3, 4, 5)],
        [(1, 2, 3, 4)],
        [()],
    ])
    def test_betti_euler_equals_face_euler(self, facets, all_fields):
        cx = from_facets(facets)
        expected = reduced_euler_from_faces(cx)
        for f in all_fields:
            assert reduced_betti(cx, f).reduced_euler() == expected


class TestLocalBetti:
    def test_interior_of_top_simplex(self):
        cx = from_facets([(1, 2, 3)])
        b = local_betti(cx, Face((0, 1, 2)), GF2)
        assert b == BettiVector({2: 1})

    def test_interior_point_of_circle(self):
        b = local_betti(TRIANGLE, Face((0,)), GF2)
        assert b == BettiVector({1: 1})

    def test_wedge_point_of_two_triangles(self):
        cx = from_facets([(1, 2, 3), (3, 4, 5)])
        b = local_betti(cx, Face((2,)), GF2)
        assert b == BettiVector({1: 1})

    def test_empty_face_rejected(self):
        with pytest.raises(ValueError):
            local_betti(TRIANGLE, EMPTY_FACE, GF2)

    def test_non_face_rejected(self):
        with pytest.raises(ValueError):
            local_betti(TRIANGLE, Face((0, 1, 2)), GF2)


class TestConeAcyclicity:
    @pytest.mark.parametrize("facets", [
        [(1, 2), (1, 3), (2, 3)],
        [(1, 2, 3), (3, 4, 5)],
        [(1,), (2,)],
    ])
    def test_join_with_point_kills_homology(self, facets, all_fields):
        cone = from_facets(facets).join(simplex(1))
        for f in all_fields:
            assert reduced_betti(cone, f) == BettiVector({})
