"""The CM/CM_t/k-CM_t deciders on pinned fixtures."""

import os
import subprocess
import sys
from functools import reduce
from itertools import combinations
from operator import and_
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cmtkit
from cmtkit import classify as classify_module
from cmtkit import homology
from cmtkit.classify import (
    _link_recursion,
    _max_k_at,
    CRITERIA,
    classify,
    clear_caches,
    cm_t_witness,
    cm_witness,
    explore_join,
    is_buchsbaum,
    is_cm,
    is_cm_t,
    is_k_buchsbaum,
    is_k_cm_t,
    is_k_cm_t_unbounded,
    is_pure,
    k_cm_t_witness,
    max_k,
    min_t,
    normalize_criterion,
)
from cmtkit.core import Face, SimplicialComplex, from_facets
from cmtkit.fields import GF2, GF3, RATIONALS
from cmtkit.generators import (
    boundary_simplex,
    miyazaki_example,
    projective_plane_6,
    random_pure,
    simplex,
)
from cmtkit.suites import acceptance_corpus

TWO_TRI_VERTEX = from_facets([(1, 2, 3), (3, 4, 5)])
TWO_TRI_EDGE = from_facets([(1, 2, 3), (2, 3, 4)])
PENTAGON = from_facets([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


class TestPurity:
    def test_equal_cardinalities(self):
        assert is_pure(from_facets([(1, 2), (3, 4)]))

    def test_mixed(self):
        assert not is_pure(from_facets([(1, 2, 3), (4, 5)]))

    def test_irrelevant_is_pure(self):
        assert is_pure(from_facets([()]))

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            is_pure(from_facets([]))


class TestIsCm:
    def test_two_triangles_sharing_an_edge(self):
        assert is_cm(TWO_TRI_EDGE, GF2)

    def test_two_triangles_sharing_a_vertex(self):
        assert not is_cm(TWO_TRI_VERTEX, GF2)

    def test_full_simplex(self):
        assert is_cm(simplex(4), GF2)

    def test_irrelevant(self):
        assert is_cm(from_facets([()]), GF2)

    def test_connected_graphs_are_cm(self):
        assert is_cm(PENTAGON, GF2)

    def test_field_dependence_on_projective_plane(self):
        rp2 = projective_plane_6()
        assert not is_cm(rp2, GF2)
        assert is_cm(rp2, GF3)
        assert is_cm(rp2, RATIONALS)

    def test_clear_caches_drops_the_memo(self):
        clear_caches()
        is_cm(boundary_simplex(4), GF2)
        assert {key[0] for key in classify_module._MEMO} == {"obstructions"}
        clear_caches()
        assert not classify_module._MEMO

    def test_package_attribute_is_the_module(self):
        from cmtkit import classify as module
        assert module is sys.modules["cmtkit.classify"]
        assert module.clear_caches is cmtkit.clear_caches
        assert module.classify is classify
        assert "classify" in cmtkit.__all__

    def test_package_level_clear_caches(self):
        assert "clear_caches" in cmtkit.__all__
        cmtkit.clear_caches()
        assert is_k_cm_t(boundary_simplex(4), 1, 0, GF2)
        assert {key[0] for key in classify_module._MEMO} == {"obstructions", "max_k"}
        cmtkit.clear_caches()
        assert not classify_module._MEMO


class TestMemo:
    def test_relabelled_complexes_share_one_obstruction_entry(self):
        a = TWO_TRI_VERTEX
        b = SimplicialComplex(a.n_vertices, a.facets, ["p", "q", "r", "s", "u"])
        wider = SimplicialComplex(a.n_vertices + 1, a.facets, b.labels + ("z",))
        clear_caches()
        assert not is_cm(a, GF2)
        entries = [key for key in classify_module._MEMO if key[0] == "obstructions"]
        # a is the cone on the shared vertex over two disjoint edges: the one
        # entry is the edges', obstructed in their own degree 0, and only the
        # shared vertex of the cone is obstructed (bit 1 of its sizes)
        assert entries == [("obstructions", (0b0011, 0b1100), GF2)]
        assert classify_module._MEMO[entries[0]] == (1, 0)
        assert _link_recursion(a.masks, GF2) == (0b10, None)
        assert not is_cm(b, GF2) and not is_cm(wider, GF2)
        # the copies add no entry of their own
        assert [key for key in classify_module._MEMO if key[0] == "obstructions"] == entries
        # the shared entry holds masks; each witness names its own labels
        assert cm_witness(a, GF2).to_json(a) == {
            "kind": "link_homology", "face": ["3"], "degree": 0}
        assert cm_witness(b, GF2).to_json(b) == {
            "kind": "link_homology", "face": ["r"], "degree": 0}

    def test_gapped_copy_shares_the_obstruction_entry(self):
        a = TWO_TRI_VERTEX
        gapped = SimplicialComplex(2 * a.n_vertices, [Face(2 * v for v in f) for f in a.facets],
                                   [f"v{i}" for i in range(2 * a.n_vertices)])
        clear_caches()
        assert not is_cm(a, GF2)
        entries = [key for key in classify_module._MEMO if key[0] == "obstructions"]
        assert not is_cm(gapped, GF2)
        assert entries == [("obstructions", (0b0011, 0b1100), GF2)]
        assert classify_module._MEMO[entries[0]] == (1, 0)
        assert _link_recursion(gapped.masks, GF2) == (0b10, None)
        assert [key for key in classify_module._MEMO if key[0] == "obstructions"] == entries
        # the shared vertex 2 of `a` is vertex 4 of the gapped copy
        assert cm_witness(gapped, GF2).to_json(gapped) == {
            "kind": "link_homology", "face": ["v4"], "degree": 0}

    def test_cones_skip_the_betti_vector(self, monkeypatch):
        # a cone is acyclic, so the recursion reads no Betti vector of one;
        # reduced_betti still answers a cone with its zeros
        calls = []
        betti = homology._betti
        monkeypatch.setattr(homology, "_betti", lambda *a: calls.append(a[0]) or betti(*a))
        clear_caches()
        assert is_cm(simplex(1 << 18), GF2)
        assert not is_cm(TWO_TRI_VERTEX.join(boundary_simplex(3)), GF2)
        assert calls and all(not reduce(and_, masks) for masks in calls)
        assert homology.reduced_betti(simplex(4), GF2).items() == tuple(
            (d, 0) for d in range(-1, 4))

    def test_sphere_needs_one_obstruction_map_per_dimension(self):
        # every link of a sphere is a sphere on shifted ids: the recursion
        # computes one entry per dimension 1..dim, not one walk per face
        sphere = boundary_simplex(10)
        clear_caches()
        assert is_cm(sphere, GF2)
        entries = [key for key in classify_module._MEMO if key[0] == "obstructions"]
        assert sorted(len(key[1]) for key in entries) == list(range(3, 11))
        assert {classify_module._MEMO[key] for key in entries} == {(0, None)}

    def test_each_distinct_link_is_expanded_once(self, monkeypatch):
        # a cold recursion expands and ranks each core it stores once, on
        # the complex, a gapped copy and a cone over it alike
        expanded, ranked = [], []
        links_by_vertex = classify_module._links_by_vertex
        relative_betti = homology._relative_betti
        monkeypatch.setattr(classify_module, "_links_by_vertex",
                            lambda masks: expanded.append(masks) or links_by_vertex(masks))
        monkeypatch.setattr(homology, "_relative_betti",
                            lambda *args: ranked.append(args[0]) or relative_betti(*args))
        cx = random_pure(10, 5, 0.4, 3)
        gapped = SimplicialComplex(2 * cx.n_vertices, [Face(2 * v for v in f) for f in cx.facets])
        cone = cx.join(from_facets([(0,)]))
        for case, entry in ((cx, (0b1111, 3)), (gapped, (0b1111, 3)), (cone, (0b11110, None))):
            clear_caches()
            expanded.clear()
            ranked.clear()
            assert _link_recursion(case.masks, GF2) == entry
            stored = [key[1] for key in classify_module._MEMO if key[0] == "obstructions"]
            assert len(stored) > 10
            assert not any(reduce(and_, key) for key in stored)
            assert sorted(expanded) == sorted(ranked) == sorted(stored)
        for case, face in ((cx, []), (gapped, []), (cone, ["0'"])):
            assert cm_t_witness(case, 0).to_json(case) == {
                "kind": "link_not_cm", "face": [],
                "inner": {"kind": "link_homology", "face": face, "degree": 3}}

    def test_witnesses_on_a_warm_memo_rank_nothing(self, monkeypatch):
        # each descent reads the entries the recursion of the complex stored:
        # once min_t has filled the memo, no witness under any t or criterion
        # ranks a matrix or stores an entry, and a gapped copy and a cone
        # store the 176 entries of the complex itself
        ranked = []
        relative_betti = homology._relative_betti
        monkeypatch.setattr(homology, "_relative_betti",
                            lambda *args: ranked.append(args[0]) or relative_betti(*args))
        cx = random_pure(10, 5, 0.4, 3)
        gapped = SimplicialComplex(2 * cx.n_vertices, [Face(2 * v for v in f) for f in cx.facets])
        cone = cx.join(simplex(1))
        entries = []
        for case in (cx, gapped, cone):
            clear_caches()
            assert min_t(case) == (5 if case is cone else 4)
            entries.append(set(classify_module._MEMO))
            ranked.clear()
            faces = {len(cm_witness(case).face)}
            for t in range(case.dim + 2):
                for crit in CRITERIA:
                    w = cm_t_witness(case, t, GF2, crit)
                    faces.add(None if w is None else len(w.face))
            assert not ranked
            assert set(classify_module._MEMO) == entries[-1]
            assert faces == {0, 1, 2, 3, None} | ({4} if case is cone else set())
        assert entries[0] == entries[1] == entries[2] and len(entries[0]) == 176

    def test_link_recursion_takes_no_python_frame_per_level(self):
        # the links of the 90-vertex sphere go 88 levels deep: a recursive
        # walk overflows a limit of 60 frames, the explicit stack does not
        src = str(Path(cmtkit.__file__).resolve().parents[1])
        code = ("import sys\n"
                "from cmtkit.classify import cm_t_witness\n"
                "from cmtkit.generators import boundary_simplex\n"
                "sys.setrecursionlimit(60)\n"
                "sys.exit(cm_t_witness(boundary_simplex(90), 0) is not None)\n")
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_small_memo_limit_changes_no_result(self, monkeypatch):
        # the memo is emptied whenever a finished computation leaves more
        # than 3 entries, never while the link recursion runs: each link is
        # still computed once per request, and every answer stays the same
        cases = [boundary_simplex(10), TWO_TRI_VERTEX, PENTAGON, projective_plane_6(),
                 miyazaki_example()[0], from_facets([(1, 2, 3), (3, 4, 5), (5, 6, 1), (2, 4, 6)])]

        def answers(cx):
            out = [(_link_recursion(cx.compact().masks, field), cm_witness(cx, field))
                   for field in (GF2, GF3, RATIONALS)]
            for t in range(cx.dim + 2):
                for crit in CRITERIA:
                    w = cm_t_witness(cx, t, GF2, crit)
                    out.append(None if w is None else w.to_json(cx))
                w = k_cm_t_witness(cx, 3, t, GF2)
                out.append(None if w is None else w.to_json(cx))
            return out

        clear_caches()
        want = [answers(cx) for cx in cases]
        monkeypatch.setattr(classify_module, "_MEMO_LIMIT", 3)
        clear_caches()
        assert [answers(cx) for cx in cases] == want

        misses = []
        relative_betti = homology._relative_betti
        monkeypatch.setattr(homology, "_relative_betti",
                            lambda *args: misses.append(1) or relative_betti(*args))
        sphere = boundary_simplex(10)
        clear_caches()
        assert cm_t_witness(sphere, 0) is None
        assert len(misses) <= sphere.dim + 2

    def test_classify_runs_one_k_search_for_every_t(self):
        # the removal levels do not depend on t: one search, one entry
        clear_caches()
        rep = classify(boundary_simplex(8), GF2)
        assert rep.max_k_per_t == {t: 2 for t in range(7)}
        assert [key for key in classify_module._MEMO if key[0] == "max_k"] == [
            ("max_k", boundary_simplex(8).masks, GF2, 9)]
        assert {key[0] for key in classify_module._MEMO} == {"obstructions", "max_k"}

    def test_one_k_search_entry_per_limit_asked(self):
        # max_k per t is 1, 1, 2 on the Miyazaki deletion survivor
        cx, sigma = miyazaki_example()
        survivor = cx.delete_cofaces([sigma])[0].compact()
        clear_caches()
        assert [_max_k_at(survivor, t, GF2, 2) for t in range(3)] == [1, 1, 2]
        assert [_max_k_at(survivor, t, GF2, 9) for t in range(3)] == [1, 1, 2]
        assert _max_k_at(survivor, 2, GF2, 1) == 1
        assert classify_module._MEMO[("max_k", survivor.masks, GF2, 2)] == (1, 1, 2)
        assert classify_module._MEMO[("max_k", survivor.masks, GF2, 1)] == (1, 1, 1)
        assert [key[3] for key in classify_module._MEMO
                if key[:3] == ("max_k", survivor.masks, GF2)] == [2, 9, 1]
        # t below 0 reads as 0, and above dim as dim
        assert _max_k_at(survivor, -3, GF2, 9) == 1 and _max_k_at(survivor, 7, GF2, 9) == 2

    @given(st.data())
    def test_warm_memo_k_search_matches_a_cold_one(self, data):
        # every t and every limit, asked in shuffled order with the memo
        # warm, reads as the same value computed from an empty memo
        n = data.draw(st.integers(1, 6))
        d = data.draw(st.integers(1, n))
        facets = data.draw(st.lists(st.sampled_from(list(combinations(range(n), d))),
                                    min_size=1, unique=True))
        cx = from_facets(facets)
        asks = [(t, limit) for t in range(cx.dim + 1)
                for limit in range(1, len(cx.vertex_ids()) + 3)]
        asks = data.draw(st.permutations(asks))
        warm = [_max_k_at(cx, t, GF2, limit) for t, limit in asks]
        cold = []
        for t, limit in asks:
            clear_caches()
            cold.append(_max_k_at(cx, t, GF2, limit))
        assert warm == cold

    def test_sphere_needs_one_betti_computation_per_dimension(self, monkeypatch):
        # the links of a sphere's faces are spheres on shifted vertex ids:
        # one Betti computation per dimension, not one per face
        calls = []
        relative_betti = homology._relative_betti
        monkeypatch.setattr(homology, "_relative_betti",
                            lambda *args: calls.append(1) or relative_betti(*args))
        sphere = boundary_simplex(10)
        clear_caches()
        assert cm_t_witness(sphere, 0) is None
        assert len(calls) <= sphere.dim + 2


class TestIsCmT:
    def test_two_triangles_at_vertex(self):
        assert is_cm_t(TWO_TRI_VERTEX, 2)
        assert not is_cm_t(TWO_TRI_VERTEX, 1)

    def test_large_t_reduces_to_purity(self):
        assert is_cm_t(TWO_TRI_EDGE, 5)
        assert not is_cm_t(from_facets([(1, 2, 3), (4, 5)]), 5)

    def test_negative_t_clamps_to_zero(self):
        assert is_cm_t(TWO_TRI_EDGE, -3) == is_cm_t(TWO_TRI_EDGE, 0)

    def test_miyazaki_join_is_cm(self):
        cx, _ = miyazaki_example()
        assert is_cm_t(cx, 0)

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_criteria_on_fixture(self, criterion):
        assert is_cm_t(TWO_TRI_VERTEX, 2, GF2, criterion)
        assert not is_cm_t(TWO_TRI_VERTEX, 1, GF2, criterion)

    def test_criterion_aliases(self):
        assert normalize_criterion("def") == "definition_links"
        assert normalize_criterion("reisner") == "reisner_homology"
        assert normalize_criterion("local") == "local_homology"
        with pytest.raises(ValueError):
            normalize_criterion("nope")

    def test_buchsbaum_alias(self):
        assert is_buchsbaum(TWO_TRI_EDGE, GF2)
        wedge = from_facets([(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])
        assert is_buchsbaum(wedge, GF2)



# impure inputs, {<>} and the acceptance corpus (glued fixtures, 50 seeded
# random complexes, boundary spheres)
READER_INPUTS = [
    from_facets([(1, 2, 3), (4, 5)]),
    from_facets([(1, 2, 3), (3, 4), (4, 5)]),
    from_facets([(0,), (1, 2), (2, 3, 4, 5)]),
    from_facets([()]),
] + [cx for _, cx in acceptance_corpus()]


class TestVerdictReaders:
    """is_cm and is_cm_t read the obstruction int, is_k_cm_t the k-CM_t
    search; the witness functions descend.  Each reader must answer exactly
    when its witness is None."""

    @pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=["gf2", "gf3", "q"])
    def test_readers_agree_with_the_witnesses(self, field):
        clear_caches()
        for cx in READER_INPUTS:
            assert is_cm(cx, field) == (cm_witness(cx, field) is None), cx
            for criterion in CRITERIA:
                for t in range(-1, cx.dim + 2):
                    witness = cm_t_witness(cx, t, field, criterion)
                    assert is_cm_t(cx, t, field, criterion) == (witness is None), (cx, t)

    @pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=["gf2", "gf3", "q"])
    def test_k_readers_agree_with_the_witness(self, field):
        clear_caches()
        for cx in READER_INPUTS:
            budget = len(cx.vertex_ids()) + 1
            for k in range(1, budget + 1):
                for t in range(-1, cx.dim + 2):
                    witness = k_cm_t_witness(cx, k, t, field)
                    assert is_k_cm_t(cx, k, t, field) == (witness is None), (cx, k, t)
                witness = k_cm_t_witness(cx, k, 1, field)
                assert is_k_buchsbaum(cx, k, field) == (witness is None), (cx, k)
            for decide in (is_k_cm_t, k_cm_t_witness):
                with pytest.raises(ValueError, match="k exceeds vertex budget"):
                    decide(cx, budget + 1, 0, field)

    def test_readers_build_no_witness(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a boolean decider descended")

        for name in ("_descent", "_least_obstructed", "Witness", "cm_t_witness",
                     "k_cm_t_witness"):
            monkeypatch.setattr(classify_module, name, refuse)
        clear_caches()
        assert not is_cm(TWO_TRI_VERTEX, GF2)
        assert not is_cm_t(TWO_TRI_VERTEX, 1, GF2)
        assert not is_cm_t(from_facets([(1, 2, 3), (4, 5)]), 0, GF2)
        rp2 = projective_plane_6()  # manifold links: fails only at the empty face over GF(2)
        assert [is_cm_t(rp2, 0, GF2, c) for c in CRITERIA] == [False] * 3
        assert all(is_cm_t(rp2, 1, GF2, c) for c in CRITERIA)
        assert not is_k_cm_t(boundary_simplex(4), 3, 0, GF2)  # any 2 removed: an edge
        assert not is_k_cm_t(from_facets([(1, 2, 3), (4, 5)]), 1, 0, GF2)
        assert not is_k_buchsbaum(TWO_TRI_VERTEX, 1, GF2)
        assert is_k_buchsbaum(rp2, 2, GF2) and not is_k_buchsbaum(rp2, 3, GF2)

    def test_unknown_criterion_still_raises(self):
        for cx in (TWO_TRI_EDGE, TWO_TRI_VERTEX, from_facets([(1, 2, 3), (4, 5)])):
            with pytest.raises(ValueError, match="unknown criterion"):
                is_cm_t(cx, 0, GF2, "bogus")
            with pytest.raises(ValueError, match="unknown criterion"):
                cm_t_witness(cx, 0, GF2, "bogus")


class TestWitnesses:
    def test_impure_witness(self):
        w = cm_t_witness(from_facets([(1, 2, 3), (4, 5)]), 0)
        assert w is not None and w.kind == "impure"

    def test_shared_vertex_witness(self):
        w = cm_t_witness(TWO_TRI_VERTEX, 1)
        assert w is not None
        assert w.face == Face((2,))  # the shared vertex, labelled "3"
        assert w.to_json(TWO_TRI_VERTEX)["face"] == ["3"]

    def test_k_witness_names_removed_vertices(self):
        cx, sigma = miyazaki_example()
        deleted, _ = cx.delete_cofaces([sigma])
        w = k_cm_t_witness(deleted, 2, 1, GF2)
        assert w is not None
        assert w.kind in ("restriction", "restriction_dimension")
        assert w.removed is not None and len(w.removed) == 1


class TestIsKCmT:
    def test_tetra_boundary(self):
        b = boundary_simplex(4)
        assert is_k_cm_t(b, 2, 0)
        assert not is_k_cm_t(b, 3, 0)

    def test_full_simplex(self):
        fs = simplex(5)
        assert is_k_cm_t(fs, 1, 0)
        assert not is_k_cm_t(fs, 2, 0)

    def test_wedge_is_2_buchsbaum_not_2_cm(self):
        wedge = from_facets([(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])
        assert is_k_buchsbaum(wedge, 2)
        assert not is_k_cm_t(wedge, 2, 0)

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="vertex budget"):
            is_k_cm_t(simplex(2), 4, 0)

    def test_unbounded_form_is_total(self):
        assert is_k_cm_t_unbounded(from_facets([()]), 7, 0)
        assert not is_k_cm_t_unbounded(simplex(2), 7, 0)
        # {<>} has nothing to remove: the answer does not wait for k levels
        assert is_k_cm_t_unbounded(from_facets([()]), 10**12, 0)
        assert not is_k_cm_t_unbounded(simplex(2), 10**12, 0)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            is_k_cm_t(simplex(2), 0, 0)


class TestMinT:
    def test_two_triangles_at_vertex(self):
        assert min_t(TWO_TRI_VERTEX) == 2

    def test_tetra_boundary_is_cm(self):
        assert min_t(boundary_simplex(4)) == 0

    def test_two_tetrahedra_at_vertex(self):
        assert min_t(from_facets([(1, 2, 3, 4), (4, 5, 6, 7)])) == 2

    def test_impure_rejected(self):
        with pytest.raises(ValueError, match="impure"):
            min_t(from_facets([(1, 2, 3), (4, 5)]))

    def test_irrelevant(self):
        assert min_t(from_facets([()])) == 0


class TestMaxK:
    def test_pentagon(self):
        # remove any 1 vertex: a path (CM, dim 1); two non-adjacent
        # removals leave an isolated vertex next to an edge: impure
        assert max_k(PENTAGON, 0) == 2

    def test_tetra_boundary(self):
        assert max_k(boundary_simplex(4), 0) == 2

    def test_full_simplex(self):
        assert max_k(simplex(4), 0) == 1

    def test_not_cm_t_rejected(self):
        with pytest.raises(ValueError, match="not CM_t"):
            max_k(TWO_TRI_VERTEX, 0)

    def test_irrelevant_complex(self):
        # {<>} has no vertex to remove, so no removal set fails; max_k
        # reports the budget bound #V + 1
        assert max_k(from_facets([()]), 0) == 1

    def test_skeleton_of_the_14_vertex_sphere(self):
        # the skeleton theorem gives at least 2 + 3; removing 4 of the 14
        # vertices leaves a 9-simplex and removing 5 drops the dimension
        rep = classify(boundary_simplex(14).skeleton(9), GF2)
        assert rep.min_t == 0
        assert rep.max_k_per_t == {t: 5 for t in range(10)}

    @pytest.mark.parametrize("case", ("gapped", "vertex_link"))
    def test_search_takes_masks_on_any_ids(self, monkeypatch, case):
        # the k-CM_t search compacts its own input: on ids with gaps, every
        # k-CM_t decider answers as on the compact copy without building
        # one, and the search stores the compact copy's entries
        cx = random_pure(8, 4, 0.6, 3)
        if case == "gapped":
            wide = SimplicialComplex(2 * cx.n_vertices, [Face(2 * v for v in f) for f in cx.facets],
                                     [cx.labels[v // 2] if v % 2 == 0 else f"gap{v}"
                                      for v in range(2 * cx.n_vertices)])
        else:
            wide = cx.link(Face([3]))
        compact = wide.compact()
        assert compact.masks != wide.masks and is_pure(wide)

        def decisions(c):
            out = [classify(c, GF2).to_json()]
            for t in range(c.dim + 2):
                for k in (1, 2, 3):
                    w = k_cm_t_witness(c, k, t, GF2)
                    out += [is_k_cm_t_unbounded(c, k, t, GF2), w and w.to_json(c)]
                try:
                    out.append(max_k(c, t, GF2))
                except ValueError as e:
                    out.append(str(e))
            return out, {key for key in classify_module._MEMO if key[0] == "max_k"}

        clear_caches()
        want = decisions(compact)
        monkeypatch.setattr(SimplicialComplex, "compact",
                            lambda self: pytest.fail("a decider compacted its input"))
        clear_caches()
        assert decisions(wide) == want


class TestClassify:
    def test_two_triangles_at_vertex(self):
        rep = classify(TWO_TRI_VERTEX, GF2)
        assert rep.pure and rep.min_t == 2 and rep.criteria_agree
        assert rep.dimension == 2

    def test_impure(self):
        rep = classify(from_facets([(1, 2, 3), (4, 5)]), GF2)
        assert not rep.pure and rep.min_t is None and rep.max_k_per_t == {}
        assert rep.criteria_agree

    def test_miyazaki_deletion_report(self):
        cx, sigma = miyazaki_example()
        deleted, _ = cx.delete_cofaces([sigma])
        rep = classify(deleted.compact(), GF2)
        assert rep.min_t == 0
        assert rep.max_k_per_t[1] == 1  # not 2-CM_1
        ks = [rep.max_k_per_t[t] for t in sorted(rep.max_k_per_t)]
        assert ks == sorted(ks)  # non-decreasing in t

    def test_json_round_trippable(self):
        import json
        rep = classify(TWO_TRI_VERTEX, GF2)
        assert json.loads(json.dumps(rep.to_json()))["min_t"] == 2


class TestSpheresAreDoublyCm:
    def test_octahedron(self):
        # triple join of 0-spheres: an honest 2-sphere with 8 facets
        s0 = from_facets([(0,), (1,)])
        octa = s0.join(s0).join(s0).compact()
        assert len(octa.facets) == 8
        assert min_t(octa) == 0
        assert max_k(octa, 0) == 2

    def test_simplex_boundaries(self):
        for n in (3, 4, 5, 6):
            assert max_k(boundary_simplex(n), 0) == 2


class TestReportInvariants:
    @pytest.mark.parametrize("facets", [
        [(1, 2, 3), (3, 4, 5)],
        [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)],
        [(1, 2, 3), (2, 3, 4)],
        [(1, 2, 3, 4), (4, 5, 6, 7)],
    ])
    def test_max_k_per_t_well_formed(self, facets):
        rep = classify(from_facets(facets), GF2)
        assert rep.min_t is not None
        ts = sorted(rep.max_k_per_t)
        assert ts == list(range(rep.min_t, rep.dimension + 1))
        ks = [rep.max_k_per_t[t] for t in ts]
        assert all(k >= 1 for k in ks)
        assert ks == sorted(ks)  # non-decreasing in t


class TestExploreJoin:
    def test_two_points(self):
        point = simplex(1)
        obs = explore_join([point, point], GF2)
        assert len(obs) == 1
        assert (obs[0].left_min_t, obs[0].right_min_t, obs[0].join_min_t) == (0, 0, 0)

    def test_miyazaki_pool(self):
        # the wedge is a connected graph, hence CM: its min_t is 0
        wedge = from_facets([(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])
        edge = from_facets([(1, 2)])
        obs = explore_join([wedge, edge], GF2)[0]
        assert (obs.left_min_t, obs.right_min_t, obs.join_min_t) == (0, 0, 0)

    def test_suspension_of_square_recorded(self):
        # no expected value asserted: the observation only has to be present
        c4 = from_facets([(1, 2), (2, 3), (3, 4), (1, 4)])
        two_points = from_facets([(1,), (2,)])
        obs = explore_join([c4, two_points], GF2)
        assert len(obs) == 1 and obs[0].join_min_t in (0, 1)

    def test_impure_pool_rejected(self):
        with pytest.raises(ValueError):
            explore_join([from_facets([(1, 2, 3), (4, 5)])], GF2)
