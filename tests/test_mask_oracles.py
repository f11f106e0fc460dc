"""The mask-level fast paths of core and classify against plain oracles."""

import random
import time
from functools import reduce
from itertools import chain, combinations
from operator import or_

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference_deciders as ref
from cmtkit import classify
from cmtkit.classify import (
    CRITERIA,
    _link_recursion,
    _vertex_deletions,
    clear_caches,
    cm_t_witness,
    cm_witness,
    is_cm_t,
    k_cm_t_witness,
)
from cmtkit.core import (
    Face,
    SimplicialComplex,
    _bits,
    _canonical,
    _components,
    _face_masks,
    _link,
    _maximal_masks,
    _relabelled,
    _restrict,
    from_facets,
)
from cmtkit.fields import GF2, GF3, RATIONALS
from cmtkit.generators import (
    boundary_simplex,
    miyazaki_example,
    projective_plane_6,
    random_pure,
    simplex,
)
from cmtkit.snf import betti_via_snf
from cmtkit.suites import acceptance_corpus


def quadratic_maximal_masks(masks):
    """Each mask compared with every mask kept before it: the plain filter."""
    kept = []
    for m in sorted(set(masks), key=lambda m: -m.bit_count()):
        if not any(m & k == m for k in kept):
            kept.append(m)
    return kept


mask_lists = st.integers(0, 10).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), max_size=24))


def bit_scan(mask):
    """The set bit positions of mask, one position at a time."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


class TestBits:
    def test_every_mask_of_the_lookup_path(self):
        # masks below 2**16 take the byte tables; the rest the loop
        for mask in range(1 << 17):
            assert _bits(mask) == bit_scan(mask)

    @given(st.integers(0, (1 << 300) - 1))
    def test_wide_masks(self, mask):
        assert _bits(mask) == bit_scan(mask)

    def test_dense_and_sparse_masks_of_many_bytes(self):
        # from 2**16 up, the top 64 set bits are read one at a time and the rest,
        # if any, a byte at a time: exactly 64 and 65 set bits, packed and spread
        spread = [sum(1 << 300 * i for i in range(1, count + 1)) for count in (64, 65)]
        for mask in ((1 << 5000) - 1, (1 << 5000) - 1 ^ 1 << 4000, int("1" + "0" * 9 + "1" * 600, 2),
                     1 << 5000 | 1 << 17 | 1, int("10000000" * 700, 2), (1 << 65) - 1 << 16,
                     (1 << 64) - 1 << 16, *spread):
            assert _bits(mask) == bit_scan(mask)

    def test_sparse_wide_mask_is_linear(self):
        # every 9th of 2**20 bits (116,509 set): a loop copying the mask once
        # per set bit took seconds; bit_scan, the oracle, is itself quadratic
        # at this width, so the expected tuple is written out
        block = sum(1 << v for v in range(0, 72, 9)).to_bytes(9, "little")
        mask = int.from_bytes(block * ((1 << 20) // 72 + 1), "little") & (1 << (1 << 20)) - 1
        start = time.perf_counter()
        got = _bits(mask)
        assert time.perf_counter() - start < 1
        assert got == tuple(range(0, 1 << 20, 9))


def binary_digits(mask):
    """The set bit positions of mask, read off its binary string: linear in
    the width, where bit_scan is quadratic."""
    return tuple(i for i, digit in enumerate(reversed(bin(mask))) if digit == "1")


class TestCanonical:
    def test_matches_sorted_vertex_tuples(self):
        # the oracle does not call _bits; from 2**16 bits up _bits reads a mask bit
        # by bit and then byte by byte, so the wide masks are dense and sparse
        rng = random.Random(5)
        for n in [*range(25), 1 << 16, (1 << 16) + 7, 1 << 17]:
            for count in (0, 1, 3, 7, 30) if n < 25 else (1, 3, 7):
                masks = list({rng.getrandbits(n) for _ in range(count)})
                if n > 24:
                    masks += list({sum(1 << rng.randrange(n) for _ in range(rng.randrange(1, 80)))
                                   for _ in range(count)})
                assert _canonical(masks) == tuple(
                    sorted(masks, key=lambda m: (m.bit_count(), binary_digits(m))))


    @given(st.lists(st.integers(0, 0xFFFF) | st.integers(0xFFF0, 1 << 20), max_size=40))
    def test_reversed_key_matches_sorted_vertex_tuples(self, masks):
        # below 2**16 the masks sort on their reversed bits, from 2**16 up on
        # _bits: both sides of the boundary, alone and mixed
        for part in (masks, [m for m in masks if m < 0x10000]):
            assert _canonical(part) == tuple(
                sorted(part, key=lambda m: (m.bit_count(), binary_digits(m))))


class TestMaximalMasks:
    @given(mask_lists)
    def test_matches_quadratic_filter(self, masks):
        assert sorted(_maximal_masks(masks)) == sorted(quadratic_maximal_masks(masks))


# dense masks take one shift per run of missing ids, sparse ones the id map
_dense_or_sparse = st.one_of(
    st.integers(0, (1 << 30) - 1),
    st.sets(st.integers(0, 29), max_size=2).map(lambda ids: sum(1 << v for v in ids)))


class TestRelabelled:
    @given(st.lists(_dense_or_sparse, max_size=12), st.integers(0, (1 << 30) - 1))
    def test_matches_the_old_to_new_id_map(self, masks, extra):
        support = extra
        for m in masks:
            support |= m
        used = _bits(support)
        compact = _relabelled(masks, support)
        assert compact == [sum(1 << used.index(v) for v in _bits(m)) for m in masks]


@st.composite
def mixed_complexes(draw):
    """Up to 9 vertices and 12 facets of mixed sizes."""
    n = draw(st.integers(1, 9))
    raw = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    return from_facets(Face.from_mask(m) for m in raw)


def rebuilt(cx):
    return SimplicialComplex(cx.n_vertices, cx.facets, cx.labels)


class TestDerivedComplexes:
    @given(mixed_complexes())
    def test_links_equal_their_validated_rebuild(self, cx):
        for sigma in cx.faces():
            lk = cx.link(sigma)
            assert rebuilt(lk) == lk

    @given(mixed_complexes(), st.data())
    def test_restrictions_equal_their_validated_rebuild(self, cx, data):
        keeps = data.draw(st.lists(st.integers(0, (1 << cx.n_vertices) - 1), max_size=20))
        for keep in keeps:
            sub = cx.restrict(Face.from_mask(keep))
            assert rebuilt(sub) == sub
            assert {f.mask for f in sub.faces()} == {
                f.mask for f in cx.faces() if f.mask & keep == f.mask}


def normalized_cut(masks, keep):
    """The restriction as it was built before the kernel: every facet cut to
    keep, the maximal cuts kept, sorted by size and then by vertex tuple."""
    cut = quadratic_maximal_masks([f & keep for f in masks])
    return tuple(sorted(cut, key=lambda m: (m.bit_count(), binary_digits(m))))


@st.composite
def facet_masks(draw):
    """(n, the canonical facet masks of a complex on ids below n): one facet,
    facets of one size, or facets of mixed sizes."""
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(("single", "pure", "impure")))
    if kind == "impure":
        raw = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    else:
        size = draw(st.integers(0, n))
        subsets = st.sets(st.integers(0, n - 1), min_size=size, max_size=size)
        raw = [sum(1 << v for v in ids) for ids in
               draw(st.lists(subsets, min_size=1, max_size=1 if kind == "single" else 12))]
    return n, SimplicialComplex(n, map(Face.from_mask, quadratic_maximal_masks(raw))).masks


@st.composite
def pure_masks(draw):
    """The canonical facet masks of a pure complex of dimension 0 to 3 on ids
    below n, gaps allowed."""
    n = draw(st.integers(1, 9))
    size = draw(st.integers(1, min(n, 4)))
    subsets = st.sets(st.integers(0, n - 1), min_size=size, max_size=size)
    return SimplicialComplex(n, map(Face, draw(st.lists(subsets, min_size=1, max_size=12)))).masks


class TestMaskKernels:
    @given(pure_masks())
    def test_vertex_deletions_are_the_restrictions_to_the_other_vertices(self, masks):
        support = reduce(or_, masks)
        deletions = list(_vertex_deletions(masks))
        assert [v for v, _ in deletions] == list(_bits(support))  # every vertex, ascending
        for v, facets in deletions:
            assert _canonical(facets) == _restrict(masks, support & ~(1 << v))

    @given(facet_masks(), st.data())
    def test_restrict_is_the_normalized_cut(self, complex_, data):
        n, masks = complex_
        keeps = st.integers(0, (1 << n) - 1) | st.just(0) | st.sampled_from(masks)
        for keep in data.draw(st.lists(keeps, min_size=1, max_size=8)):
            got = _restrict(masks, keep)
            assert got == normalized_cut(masks, keep)
            if all(f & keep == f for f in masks):  # nothing is cut
                assert got is masks

    @pytest.mark.parametrize("facets, keep, want", [
        ([(0, 1, 2), (0, 1, 3)], (0, 1), [(0, 1)]),  # two cuts coincide
        ([(0, 1, 2, 5), (0, 1, 6)], (0, 1, 2), [(0, 1, 2)]),  # one cut holds another
        ([(0, 1, 2), (1, 2, 3)], (0, 1, 2), [(0, 1, 2)]),  # a cut lies in a kept facet
        ([(0, 1), (2, 3), (4,)], (), [()]),  # every facet emptied: {<>}
        ([(0, 3, 5)], (0, 5), [(0, 5)]),  # a single facet
    ])
    def test_restrict_cases(self, facets, keep, want):
        masks = SimplicialComplex(7, map(Face, facets)).masks
        assert _restrict(masks, Face(keep).mask) == tuple(Face(f).mask for f in want)

    @given(facet_masks(), st.data())
    def test_link_is_the_facets_through_the_face_less_it(self, complex_, data):
        n, masks = complex_
        s = data.draw(st.sampled_from(_face_masks(masks)) | st.integers(0, (1 << n) - 1))
        got = _link(masks, s)
        assert got == tuple([f ^ s for f in masks if f & s == s])
        if not s:
            assert got is masks

    @given(facet_masks())
    def test_components_match_a_flood_fill(self, complex_):
        _, masks = complex_
        unseen, count = list(masks), 0
        while unseen:  # one component: a facet, and every facet reached from it
            reach, count = unseen.pop(), count + 1
            while near := [f for f in unseen if f & reach]:
                for f in near:
                    reach |= f
                unseen = [f for f in unseen if f not in near]
        assert _components(masks) == (0 if masks == (0,) else count)


def link_entries(cx, field):
    """(face, entry) for every face of cx, in canonical order: the (sizes,
    low) the recursion gives the compact link of the face."""
    return [(sigma.vertices, _link_recursion(cx.link(sigma).compact().masks, field))
            for sigma in cx.faces()]


def scanned_entries(cx, field):
    """The same pairs read off the flat per-face scan: the sizes |r| - |sigma|
    of the obstructed faces r containing sigma, and the degree at sigma."""
    found = ref.obstructions(cx, field)
    out = []
    for sigma in cx.faces():
        s = sigma.mask
        sizes = sum({1 << (r.bit_count() - len(sigma)) for r in found if r & s == s})
        out.append((sigma.vertices, (sizes, found.get(s))))
    return out


def _obstruction_cases():
    mi, _ = miyazaki_example()
    return [cx for _, cx in acceptance_corpus()] + [
        projective_plane_6(), mi, from_facets([(1, 2, 3), (3, 4)]), from_facets([()])]


@pytest.mark.parametrize("field", (GF2, GF3, RATIONALS), ids=lambda f: f.token)
def test_obstructions_match_link_by_link_scan(field):
    for cx in _obstruction_cases():
        clear_caches()
        assert link_entries(cx, field) == scanned_entries(cx, field)


@given(mixed_complexes())
def test_obstructions_match_on_random_complexes(cx):
    # a join with a point or an edge is a cone: the recursion takes only the
    # link of the common face (apex below the other ids, then above them)
    for complex_ in (cx, from_facets([(0,)]).join(cx), cx.join(from_facets([(0, 1)]))):
        clear_caches()
        assert link_entries(complex_, GF2) == scanned_entries(complex_, GF2)
        assert cm_witness(complex_, GF2) == ref.cm_witness(complex_, GF2)


@st.composite
def gapped_embeddings(draw):
    """A mixed complex, and its copy on ids spread over 0..20 by a random
    increasing map, built through the validating constructor (which keeps
    the gaps, unlike `from_facets`)."""
    cx = draw(mixed_complexes())
    ids = sorted(draw(st.sets(st.integers(0, 20), min_size=cx.n_vertices,
                              max_size=cx.n_vertices)))
    labels = [f"x{i}" for i in range(21)]
    for v, i in enumerate(ids):
        labels[i] = cx.labels[v]
    wide = SimplicialComplex(21, [Face(ids[v] for v in f) for f in cx.facets], labels)
    return cx, wide, ids


@given(st.one_of(st.just(from_facets([()])), mixed_complexes(),
                gapped_embeddings().map(lambda embedding: embedding[1])))
def test_face_masks_per_size_are_the_facets_subsets(cx):
    # brute force: every size-s subset of every facet, sorted by vertex tuple
    per_size = []
    for s in range(cx.dim + 3):
        subsets = {sum(1 << v for v in c) for f in cx.masks for c in combinations(_bits(f), s)}
        per_size.append(tuple(sorted(subsets, key=_bits)))
        assert _face_masks(cx.masks, s) == per_size[-1]
    assert _face_masks(cx.masks) == tuple(chain.from_iterable(per_size))


@pytest.mark.parametrize("field", (GF2, GF3, RATIONALS), ids=lambda f: f.token)
@given(gapped_embeddings())
def test_obstructions_match_on_gapped_ids(field, embedding):
    cx, wide, _ = embedding
    for complex_ in (cx, wide):
        clear_caches()
        assert link_entries(complex_, field) == scanned_entries(complex_, field)
        assert cm_witness(complex_, field) == ref.cm_witness(complex_, field)


@st.composite
def unions_and_wedges(draw):
    """Two `random_pure` complexes of dimension 1 to 4, side by side (a
    disjoint union) or with the last vertex of the first as the first of
    the second (a one-vertex wedge, whose link there is their disjoint
    union): cores of dimension 2 to 4 that are disconnected, and graphs."""
    a, b = (random_pure(d + draw(st.integers(1, 2)), d, draw(st.sampled_from((0.5, 0.8))),
                        draw(st.integers(0, 999)))
            for d in (draw(st.integers(2, 5)), draw(st.integers(2, 5))))
    offset = a.n_vertices - draw(st.booleans())
    return SimplicialComplex(offset + b.n_vertices,
                             [*a.facets, *(Face(v + offset for v in f) for f in b.facets)])


@given(unions_and_wedges())
def test_obstructions_match_on_unions_and_wedges(cx):
    # the reference reads the Betti numbers of graph links from the SNF
    # oracle, so it shares neither the graph closed form nor the components
    # helper; the cone over a wedge of graphs is a cone over a disconnected graph
    reduced_betti = ref.reduced_betti
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ref, "reduced_betti", lambda lk, field: (
            betti_via_snf if lk.dim <= 1 else reduced_betti)(lk, field))
        for field in (GF2, GF3, RATIONALS):
            for complex_ in (cx, from_facets([(0,)]).join(cx)):
                clear_caches()
                assert link_entries(complex_, field) == scanned_entries(complex_, field)
                assert cm_witness(complex_, field) == ref.cm_witness(complex_, field)


def _decisions(cx):
    """The entry of every face's link (faces as vertex tuples), then the JSON
    of every CM_t and k-CM_t witness, or the name of the error raised."""
    out = [link_entries(cx, GF2)]
    for t in range(0, cx.dim + 2):
        out += [cm_t_witness(cx, t, GF2, crit) for crit in CRITERIA]
        for k in (1, 2, 3, 4):
            try:
                out.append(k_cm_t_witness(cx, k, t, GF2))
            except ValueError as e:
                out.append(str(e))
    return [w.to_json(cx) if hasattr(w, "to_json") else w for w in out]


@pytest.mark.parametrize("warm", (False, True), ids=("cold", "warm"))
@given(gapped_embeddings())
def test_gapped_ids_give_the_compact_results_lifted(warm, embedding):
    """Labels follow the increasing map, so the witness JSON of the copy
    equals the original's exactly when its faces and removal sets are the
    original's mapped through it."""
    cx, wide, ids = embedding
    clear_caches()
    want = _decisions(cx)
    if not warm:
        clear_caches()
    got = _decisions(wide)
    lift = dict(enumerate(ids))
    assert got[0] == [(tuple(lift[v] for v in face), entry) for face, entry in want[0]]
    assert got[1:] == want[1:]


@st.composite
def symmetric_complexes(draw):
    """Complexes whose vertex links repeat from one vertex to the next, with
    the two swapped: a complete skeleton of a simplex or the boundary of a
    simplex, as is, joined with itself, or as two or three disjoint copies
    (the vertices of each optionally shuffled) on consecutive, interleaved
    or gapped ids, the last copy optionally a random complex instead, whose
    links may match a neighbour's in length alone; each also with one facet
    removed.  Built through the validating constructor, which keeps the
    gaps."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        base = simplex(n).skeleton(draw(st.integers(0, n - 1)))
    else:
        base = boundary_simplex(n)
    shape = draw(st.sampled_from(("plain", "join", "union")))
    if shape == "join" and n <= 4:
        base = base.join(base)
    if shape != "union":
        facets, ambient = list(base.facets), base.n_vertices
    else:
        copies = draw(st.integers(2, 3 if n <= 3 else 2))
        spread = draw(st.sampled_from(("consecutive", "interleaved", "gapped")))
        m = base.n_vertices
        place = {"consecutive": lambda c, v: c * m + v,
                 "interleaved": lambda c, v: v * copies + c,
                 "gapped": lambda c, v: 3 * (c * m + v) + 1}[spread]
        pieces = [base] * copies
        if draw(st.booleans()):
            raw = draw(st.lists(st.integers(1, (1 << m) - 1), min_size=1, max_size=8))
            pieces[-1] = from_facets(Face.from_mask(x) for x in raw)
        facets = []
        for c, piece in enumerate(pieces):
            order = draw(st.permutations(range(m))) if draw(st.booleans()) else range(m)
            facets += [Face(place(c, order[v]) for v in f) for f in piece.facets]
        ambient = place(copies - 1, m - 1) + 1
    if len(facets) > 1 and draw(st.booleans()):
        del facets[draw(st.integers(0, len(facets) - 1))]
    return SimplicialComplex(ambient, facets)


# a strip of two triangles and a bowtie, interleaved: vertex 1 of the strip
# and the bowtie's shared vertex 2 both have links of two edges, a path and
# two disjoint edges
STRIP_AND_BOWTIE = SimplicialComplex(9, [Face(f) for f in ((0, 1, 3), (1, 3, 4),
                                                          (5, 6, 2), (2, 7, 8))])


@given(symmetric_complexes(), st.sampled_from((GF2, GF3, RATIONALS)))
@example(STRIP_AND_BOWTIE, GF2)
def test_symmetric_vertices_read_as_their_neighbours(cx, field):
    # a vertex whose link is the previous vertex's with the two swapped is
    # not read again, by the recursion or by a descent: every link entry and
    # every CM_t witness still matches the reference
    clear_caches()
    assert link_entries(cx, field) == scanned_entries(cx, field)
    for t in range(cx.dim + 2):
        for crit in CRITERIA:
            assert cm_t_witness(cx, t, field, crit) == ref.cm_t_witness(cx, t, field, crit)


def test_descents_skip_symmetric_vertices_on_gapped_ids(monkeypatch):
    # triangles, then a bowtie whose shared vertex is the one obstructed
    # face: the descent reads one link per triangle, not three, whether the
    # ids are consecutive or every other one (so the vertex before v is not
    # v - 1)
    calls = []
    recursion = classify._link_recursion
    monkeypatch.setattr(classify, "_link_recursion",
                        lambda masks, field: calls.append(masks) or recursion(masks, field))
    rows = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(5)] + [(15, 16, 17), (17, 18, 19)]
    counts = []
    for stride in (1, 2):
        cx = SimplicialComplex(20 * stride, [Face(stride * v for v in f) for f in rows])
        clear_caches()
        is_cm_t(cx, 1)
        calls.clear()
        witness = cm_t_witness(cx, 1)
        assert witness.face == Face((17 * stride,))
        counts.append(len(calls))
    # the decider's read of the complex, the descent's of vertices 0, 3, 6,
    # 9, 12, 15 and 17 (18 without the skips), and two of the link of 17
    # for the inner witness
    assert counts == [10, 10]
