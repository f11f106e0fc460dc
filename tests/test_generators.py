"""Complex families: shapes, realizability, determinism, golden fixture."""

from itertools import combinations
from pathlib import Path

import pytest

from cmtkit import generators
from cmtkit.classify import is_cm, is_cm_t, min_t
from cmtkit.core import Face
from cmtkit.fields import GF2, GF3, RATIONALS
from cmtkit.files import emit
from cmtkit.generators import (
    GluedFamilySpec,
    GluedRealizabilityError,
    SplitMix64,
    boundary_simplex,
    glued_simplices,
    miyazaki_example,
    projective_plane_6,
    random_pure,
    simplex,
)

GOLDEN = Path(__file__).parent / "data" / "random_n6_d3_p50_seed42.cplx"


class TestSimplex:
    def test_point(self):
        assert simplex(1).dim == 0

    def test_triangle(self):
        cx = simplex(3)
        assert cx.dim == 2 and len(cx.facets) == 1

    def test_zero_gives_irrelevant(self):
        assert simplex(0).dim == -1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            simplex(-1)


class TestBoundarySimplex:
    def test_triangle_boundary(self):
        cx = boundary_simplex(3)
        assert len(cx.facets) == 3 and cx.dim == 1

    def test_two_points(self):
        cx = boundary_simplex(2)
        assert cx.dim == 0 and len(cx.facets) == 2

    def test_too_small(self):
        with pytest.raises(ValueError):
            boundary_simplex(1)

    def test_incidence_limit(self):
        # n(n - 1) incidences: 1024 vertices fit under 2**20, 1025 do not
        with pytest.raises(ValueError, match="1049600 facet-vertex incidences exceed "
                                             "the limit of 1048576"):
            boundary_simplex(1025)

    def test_tetra_is_doubly_cm(self):
        from cmtkit.classify import max_k
        assert max_k(boundary_simplex(4), 0) == 2


class TestGluedFamilies:
    def test_disjoint_triangles(self):
        cx = glued_simplices(GluedFamilySpec.uniform(3, 2, -1))
        assert cx.n_vertices == 6
        assert min_t(cx) == 1

    def test_shared_vertex(self):
        cx = glued_simplices(GluedFamilySpec.uniform(3, 2, 0))
        assert cx.n_vertices == 5
        assert min_t(cx) == 2

    def test_three_tetrahedra_pairwise_vertices(self):
        cx = glued_simplices(GluedFamilySpec.uniform(4, 3, 0))
        assert min_t(cx) == 2 and is_cm_t(cx, 2)
        # pairwise intersections are exactly the designated single vertices
        fs = [set(f.vertices) for f in cx.facets]
        for a, b in combinations(fs, 2):
            assert len(a & b) == 1

    def test_prescribed_intersection_dimensions(self):
        # facets are stored in canonical order, so compare the multiset of
        # pairwise intersection sizes: one shared vertex, one shared edge,
        # one disjoint pair
        spec = GluedFamilySpec(3, 3, ((-1, 0, -1), (0, -1, 1), (-1, 1, -1)))
        cx = glued_simplices(spec)
        fs = [set(f.vertices) for f in cx.facets]
        sizes = sorted(len(a & b) for a, b in combinations(fs, 2))
        assert sizes == [0, 1, 2]

    def test_unrealizable_has_witness_pair(self):
        # simplex 1 would need 2 + 2 shared vertices in a facet of size 3
        spec = GluedFamilySpec(3, 3, ((-1, 1, -1), (1, -1, 1), (-1, 1, -1)))
        with pytest.raises(GluedRealizabilityError) as exc:
            glued_simplices(spec)
        assert exc.value.witness_pair == (1, 2)

    def test_asymmetric_table_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            GluedFamilySpec(3, 2, ((-1, 0), (1, -1)))

    def test_overlap_out_of_range(self):
        with pytest.raises(ValueError):
            GluedFamilySpec.uniform(3, 2, 2)


class TestMiyazaki:
    def test_shape(self):
        cx, sigma = miyazaki_example()
        assert cx.dim == 3
        assert len(cx.facets) == 6
        assert all(len(f) == 4 for f in cx.facets)
        assert sigma == Face((5, 6))
        assert [cx.labels[v] for v in sigma] == ["x", "y"]

    def test_join_is_cm(self):
        cx, _ = miyazaki_example()
        assert is_cm_t(cx, 0)


class TestProjectivePlane:
    def test_f_vector(self):
        rp2 = projective_plane_6()
        assert rp2.n_vertices == 6
        assert len(rp2.facets) == 10
        assert rp2.face_count(size=2) == 15  # complete 1-skeleton

    def test_cm_depends_on_field(self):
        rp2 = projective_plane_6()
        assert not is_cm(rp2, GF2)
        assert is_cm(rp2, GF3)
        assert is_cm(rp2, RATIONALS)


class TestSplitMix64:
    def test_reference_values(self):
        # first outputs of splitmix64 seeded with 0 and 42
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        rng = SplitMix64(42)
        first = rng.next_u64()
        assert first == SplitMix64(42).next_u64()
        assert first != SplitMix64(43).next_u64()


class TestRandomPure:
    def test_deterministic(self):
        a = random_pure(6, 3, 0.5, seed=7)
        b = random_pure(6, 3, 0.5, seed=7)
        assert a == b
        assert a != random_pure(6, 3, 0.5, seed=8)

    def test_pure_of_requested_dimension(self):
        for seed in range(12):
            cx = random_pure(7, 3, 0.4, seed=seed)
            assert cx.dim == 2
            assert all(len(f) == 3 for f in cx.facets)

    def test_full_density_gives_whole_skeleton(self):
        from math import comb
        cx = random_pure(5, 3, 1.0, seed=0)
        assert len(cx.facets) == comb(5, 3)

    def test_simplex_degenerate(self):
        assert random_pure(3, 3, 1.0, seed=0) == simplex(3)

    def test_golden_fixture_never_drifts(self):
        cx = random_pure(6, 3, 0.5, seed=42)
        assert emit(cx) == GOLDEN.read_text()

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            random_pure(3, 4, 0.5, seed=0)
        with pytest.raises(ValueError):
            random_pure(5, 2, 0.0, seed=0)

    def test_too_many_subsets_rejected_before_drawing(self, monkeypatch):
        assert len(random_pure(17, 8, 1e-3, seed=0).masks) > 0  # C(17, 8) = 24,310

        def fail(*args):
            raise AssertionError("C(40, 20) subsets cannot be drawn")

        monkeypatch.setattr(generators, "combinations", fail)
        with pytest.raises(ValueError, match="limit of 65536"):
            random_pure(40, 20, 1e-9, seed=0)

    def test_hopeless_density_errors(self):
        with pytest.raises(ValueError, match="no facets"):
            random_pure(6, 3, 1e-9, seed=0, max_attempts=3)
