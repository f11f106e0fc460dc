"""Deciders for Cohen-Macaulay, CM_t, Buchsbaum and k-CM_t complexes.

A face is obstructed when its link has nonzero reduced homology below the
link's dimension; its degree is the lowest such one.  One computation
serves every CM_t decider: per link, an int whose bit s is set when some
face of s vertices is obstructed.  CM_t is purity plus no obstructed face
with at least t vertices, and the three criteria are three readings of it
(so `classify` decides CM_t once, and its criteria_agree is true):

* ``definition_links`` - the link of every face with at least t vertices is
  CM; such a link fails exactly when an obstructed face contains the face;
* ``reisner_homology`` - no obstructed face with at least t vertices;
* ``local_homology`` - the same, read as local homology, which at a nonempty
  face is the link's homology shifted up by the face's size, and at the
  empty face is the global homology.

The boolean deciders (`is_cm`, `is_cm_t`, `is_buchsbaum`, `is_k_cm_t`,
`is_k_buchsbaum`) alone decide: they read that int or the k-CM_t search
and build no witness.  Each ``*_witness`` asks its decider first, returns
None if it holds, and else describes the failure by a descent
(`_descent`).  The int comes from the vertex links, not from a walk over
the faces (`_link_recursion`): the link of a face sigma is the link of
sigma - v in lk v for any vertex v of sigma.  A cone S * L is not
obstructed itself, and reads the sizes of L = lk S shifted up by |S|, so
only cone-free cores (`_core`) have entries.  Graphs end the recursion
with no entry: the vertex links of a complex of dimension at most 1 have
dimension at most 0, so only its own H~_0 can be obstructed, and over
every field that has dimension #components - 1.  Likewise a disconnected
core is obstructed in degree 0 with no Betti vector.  Vertices are read in
ascending order, and a vertex v whose link is the previous vertex u's with
bit v moved to bit u, mask for mask, is not read again (`_new_links`): no
vertex lies between them, so the swap is order-preserving on both links'
supports, and the two compact to one core with one |S|.  So the walk cores
one vertex link per level of a sphere, and a descent that passed u passes
v with no recursion.
``tests/reference_deciders.py`` checks all this independently.  One k-CM_t
search (`_max_k_up_to`) serves every t: its levels, the complexes left by
deleting vertices, do not depend on t, and each fails CM_t exactly below
its own min_t.

The recursion, a descent and the search take facet masks on any ids, not
a complex; a `Face` is built only for a witness returned.  Their values
((sizes, low) per core, and the search's least failing sizes) live in
``_MEMO``, the package's one cache, keyed on ``(kind, compact masks,
parameters...)``, ids renamed 0..m-1 in order, so complexes that differ by
an order-preserving relabelling share one entry (a sphere stores one core
per dimension from 2 up), and no key keeps a complex alive.  A hit returns
before any other work: `_memoized` calls `_walk` or `_search` only on a
miss.  The memo is emptied when a finished computation leaves more than
``_MEMO_LIMIT`` entries in it, never partway through one: the link
recursion keeps the entries it still needs there and nowhere else.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import chain
from operator import and_, or_, xor
from typing import Callable, Iterator, Sequence

from . import homology
from ._record import FrozenRecord
from .core import Face, SimplicialComplex, _bits, _components, _relabelled
from .fields import GF2, FieldSpec

DEFINITION_LINKS = "definition_links"
REISNER_HOMOLOGY = "reisner_homology"
LOCAL_HOMOLOGY = "local_homology"
CRITERIA = (DEFINITION_LINKS, REISNER_HOMOLOGY, LOCAL_HOMOLOGY)

_CRITERION_ALIASES = {
    "def": DEFINITION_LINKS,
    "definition": DEFINITION_LINKS,
    DEFINITION_LINKS: DEFINITION_LINKS,
    "reisner": REISNER_HOMOLOGY,
    REISNER_HOMOLOGY: REISNER_HOMOLOGY,
    "local": LOCAL_HOMOLOGY,
    LOCAL_HOMOLOGY: LOCAL_HOMOLOGY,
}


def normalize_criterion(name: str) -> str:
    try:
        return _CRITERION_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown criterion: {name!r} (expected def, reisner or local)") from None


class Witness(FrozenRecord):
    """Concrete evidence that a property fails.

    kind is one of: impure, link_not_cm, link_homology, local_homology,
    global_homology, restriction_dimension, restriction.
    """

    __slots__ = _fields = ("kind", "face", "degree", "removed", "inner")

    def __init__(self, kind: str, face: Face | None = None, degree: int | None = None,
                 removed: tuple[int, ...] | None = None, inner: Witness | None = None):
        self._assign(kind, face, degree, removed, inner)

    def to_json(self, cx: SimplicialComplex) -> dict:
        labels = cx.labels
        out: dict = {"kind": self.kind}
        if self.face is not None:
            out["face"] = [labels[v] for v in self.face]
        if self.degree is not None:
            out["degree"] = self.degree
        if self.removed is not None:
            out["removed"] = [labels[v] for v in self.removed]
        if self.inner is not None:
            out["inner"] = self.inner.to_json(cx)
        return out


def _nonvoid(cx: SimplicialComplex) -> tuple[int, ...]:
    """The facet masks of cx; the void complex is refused."""
    if not cx.masks:
        raise ValueError("the void complex cannot be classified")
    return cx.masks


def _pure(masks: Sequence[int]) -> bool:
    """Masks are sorted by size, so the first and the last decide purity."""
    return masks[0].bit_count() == masks[-1].bit_count()


def _t_index(masks: Sequence[int], t: int) -> int:
    """t read as 0..max(dim, 0): no face of dim or more vertices is obstructed."""
    return max(min(int(t), masks[-1].bit_count() - 1), 0)


def _budget(masks: Sequence[int]) -> int:
    """The vertex budget #V + 1: removing all of V drops the dimension."""
    return reduce(or_, masks).bit_count() + 1


def is_pure(cx: SimplicialComplex) -> bool:
    """True when all facets share one cardinality; {<>} is pure."""
    return _pure(_nonvoid(cx))


# Derived values (see the module docstring).  Emptied, not evicted, when
# full: a request that fills it again recomputes only what it revisits.
_MEMO: dict[tuple, object] = {}
_MEMO_LIMIT = 1 << 16


def _memoized(key: tuple, compute: Callable[..., object], *args):
    """The memoized value under key, or compute(*args), stored, on a miss.
    The memo is emptied only here, once a computation has finished, so one
    that stores entries of its own as it goes never sees them dropped."""
    try:
        return _MEMO[key]
    except KeyError:
        pass
    value = _MEMO[key] = compute(*args)
    if len(_MEMO) > _MEMO_LIMIT:
        _MEMO.clear()
    return value


def clear_caches() -> None:
    """Drop every memoized link entry and k-CM_t search result."""
    _MEMO.clear()


def _links_by_vertex(masks: tuple[int, ...]) -> dict[int, list[int]]:
    """lk v, on the complex's own ids, for each vertex v, ascending: the one
    filing of the facets by vertex.  One pass files each facet less v under
    every vertex v in it, keeping the facets' canonical order (see core.link)."""
    links: dict[int, list[int]] = {v: [] for v in _bits(reduce(or_, masks))}
    for f in masks:
        for v in _bits(f):
            links[v].append(f ^ 1 << v)
    return links


def _new_links(masks: Sequence[int]) -> Iterator[tuple[int, list[int]]]:
    """(v, lk v) from `_links_by_vertex`, less each v whose link is the
    previous vertex u's with bit v moved to bit u, element for element.
    No vertex lies between u and v, so swapping them is order-preserving on
    both links' supports: the two compact to one core with one |S|, and v
    reads as u.  No mask of lk u holds u and none of lk v holds v, so the
    move maps f to g exactly when f ^ g is 0 or bits u and v alone.  A link
    of another length is passed at once, and a comparison stops at the
    first mismatch.  It compares ints, which for masks as wide as the ids
    costs far less than hashing them."""
    u, prev = 0, ()
    for v, lk in _links_by_vertex(masks).items():
        if len(lk) != len(prev) or not all(map((1 << u | 1 << v, 0).__contains__,
                                                map(xor, prev, lk))):
            yield v, lk
        u, prev = v, lk


def _compacted(masks: Sequence[int]) -> tuple[int, ...]:
    """The masks, used ids renamed 0..m-1 in order (a compact tuple as is)."""
    support = reduce(or_, masks)
    return tuple(_relabelled(masks, support) if support & support + 1 else masks)


def _core(masks: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(|S|, L) for the complex S * L with facet masks `masks` on any ids: S
    the vertices in every facet, L the compact facet masks of lk S."""
    common = reduce(and_, masks)
    return common.bit_count(), _compacted([f ^ common for f in masks] if common else masks)


def _split(masks: Sequence[int]) -> tuple[int, Sequence[int]]:
    """`_core` of a complex of dimension at least 2; a graph (or less) is its
    own L with |S| = 0, as is, for it ends the recursion (`_graph_sizes`)."""
    return _core(masks) if masks[-1].bit_count() > 2 else (0, masks)


def _graph_sizes(masks: Sequence[int]) -> int:
    """The sizes of a complex of dimension at most 1 on any ids: its vertex
    links have dimension at most 0, so only its own H~_0, of dimension
    #components - 1 over every field, can be obstructed (bit 0, degree 0)."""
    return int(masks[-1].bit_count() == 2 and _components(masks) > 1)


def _link_recursion(masks: Sequence[int], field: FieldSpec) -> tuple[int, int | None]:
    """(sizes, low) of the complex with facet masks `masks` on any ids: bit s
    of sizes is set when some face of s vertices is obstructed, and low is
    the lowest obstructed degree of the complex's own homology, or None.
    A cone S * L reads L's sizes shifted up by |S|: the link of a face
    missing a vertex of S is a cone, hence acyclic, and lk(S | rho) =
    lk_L(rho).  So only cores (`_core`) of dimension at least 2 have entries."""
    shift, top = _split(masks)
    if top[-1].bit_count() > 2:
        sizes, low = _memoized(("obstructions", top, field), _walk, top, field)
    else:
        sizes = _graph_sizes(top)
        low = 0 if sizes else None
    return (sizes << shift, None) if shift else (sizes, low)


def _walk(top: tuple[int, ...], field: FieldSpec) -> tuple[int, int | None]:
    """The entry of the core `top`: its own bit ORed with its vertex links'
    sizes, each shifted up by one more than the link's |S|.  Each distinct
    core is computed once, depth first on one explicit stack (no Python frame
    per level): a core waits under its first child with no entry, and stores
    its own once every child has one.  `_memoized` stores the top's.  Graph
    links are read on the spot, and a disconnected core is obstructed in
    degree 0 with no Betti vector (`_components`).  A core is compact, so a
    vertex v whose link is lk(v - 1) with v - 1 and v swapped adds the same
    child or leaf bits again and is passed over with no `_split`, `_core`
    or `_graph_sizes` (`_new_links`)."""
    def expand(key):
        """The core, its graph links' sizes, whether it is connected, its
        (shift, child core) pairs, and the children with no entry yet."""
        leaves, kids = 0, {}
        for _, lk in _new_links(key):
            shift, lk = _split(lk)
            if lk[-1].bit_count() > 2:
                kids[shift, lk] = None
            else:
                leaves |= _graph_sizes(lk) << shift + 1
        return key, leaves, _components(key) == 1, kids, (
            lk for _, lk in kids if ("obstructions", lk, field) not in _MEMO)

    stack = [expand(top)]
    while stack:
        key, leaves, connected, kids, missing = stack[-1]
        lk = next(missing, None)
        if lk is not None:
            stack.append(expand(lk))
            continue
        stack.pop()
        low = 0  # H~_0 of a disconnected core
        if connected:
            betti = homology._betti(key, field)
            low = next((i for i in range(-1, key[-1].bit_count() - 1) if betti[i]), None)
        sizes = reduce(or_, (_MEMO[("obstructions", lk, field)][0] << s + 1
                             for s, lk in kids), leaves)
        entry = (sizes | (low is not None), low)
        if stack:  # top, popped last, is stored by _memoized
            _MEMO[("obstructions", key, field)] = entry
    return entry


def _descent(masks: tuple[int, ...], size: int, field: FieldSpec,
             exact: bool) -> tuple[int, tuple[int, ...]]:
    """The least face, in canonical order, of `size` vertices that is (exact)
    or lies in (not exact) an obstructed face of the complex with facet
    masks `masks` on any ids, with the facet masks of its link.

    Each step adds the least vertex v whose link has an obstructed face of
    the wanted size less one (or at least that size) and goes on in lk v:
    no vertex below v lies in such a face.  A vertex whose link is the
    previous vertex's with the two swapped has that vertex's sizes, which
    did not match, so it is passed over with no `_link_recursion`
    (`_new_links`).  The masks may have gaps, so that vertex is the previous
    one in the support, not v - 1.
    """
    face = 0
    for wanted in range(size - 1, -1, -1):
        for v, lk in _new_links(masks):
            sizes = _link_recursion(lk, field)[0] >> wanted
            if sizes & 1 if exact else sizes:
                break
        face |= 1 << v
        masks = lk
    return face, masks


def _least_obstructed(masks: tuple[int, ...], t: int, field: FieldSpec) -> tuple[Face, int]:
    """The first obstructed face with at least t vertices of the complex with
    facet masks `masks` on any ids (it has one), and its degree (its link's low)."""
    sizes = _link_recursion(masks, field)[0] >> t
    face, lk = _descent(masks, t + (sizes & -sizes).bit_length() - 1, field, True)
    return Face.from_mask(face), _link_recursion(lk, field)[1]


def is_cm(cx: SimplicialComplex, field: FieldSpec = GF2) -> bool:
    """Cohen-Macaulayness over the given field: no face is obstructed."""
    return not _link_recursion(_nonvoid(cx), field)[0]


def cm_witness(cx: SimplicialComplex, field: FieldSpec = GF2) -> Witness | None:
    """Reisner test: None if is_cm, else the first face whose link has
    homology below its dimension."""
    if is_cm(cx, field):
        return None
    return Witness("link_homology", *_least_obstructed(cx.masks, 0, field))


def is_cm_t(cx: SimplicialComplex, t: int, field: FieldSpec = GF2,
            criterion: str = DEFINITION_LINKS) -> bool:
    """CM_t, read off the obstruction int under every (validated) criterion,
    at t read by `_t_index`: above dim only purity is required."""
    masks = _nonvoid(cx)
    normalize_criterion(criterion)
    t = _t_index(masks, t)
    return _pure(masks) and not _link_recursion(masks, field)[0] >> t


def cm_t_witness(cx: SimplicialComplex, t: int, field: FieldSpec = GF2,
                 criterion: str = DEFINITION_LINKS) -> Witness | None:
    """None if is_cm_t, else the witness against CM_t under the chosen criterion."""
    if is_cm_t(cx, t, field, criterion):
        return None
    if not _pure(cx.masks):
        return Witness("impure")
    crit, t = normalize_criterion(criterion), _t_index(cx.masks, t)
    if crit == DEFINITION_LINKS:
        # lk(sigma) is CM unless an obstructed face contains sigma, and a face
        # with more than t vertices fails only if its t-subsets do
        sigma, lk = _descent(cx.masks, t, field, False)
        inner = Witness("link_homology", *_least_obstructed(lk, 0, field))  # cm_witness(lk sigma)
        return Witness("link_not_cm", face=Face.from_mask(sigma), inner=inner)
    face, degree = _least_obstructed(cx.masks, t, field)
    if crit == REISNER_HOMOLOGY:
        return Witness("link_homology", face, degree)
    if not face:
        # punctures never see the empty face: this is the global condition
        return Witness("global_homology", face, degree)
    return Witness("local_homology", face, degree + len(face))


def is_buchsbaum(cx: SimplicialComplex, field: FieldSpec = GF2) -> bool:
    """Buchsbaum = CM_1: purity plus Cohen-Macaulay links of nonempty faces."""
    return is_cm_t(cx, 1, field)


def _max_k_up_to(masks: Sequence[int], field: FieldSpec, limit: int) -> tuple[int, ...]:
    """min(max_k(K, t), limit) for t = 0..max(dim K, 0), 0 where K is not CM_t,
    for the complex K with facet masks `masks` on any ids, keyed on them
    compacted (`_search`)."""
    if limit < 1:
        raise ValueError("k must be at least 1")
    top = _compacted(masks)
    return _memoized(("max_k", top, field, limit), _search, top, field, limit)


def _search(top: tuple[int, ...], field: FieldSpec, limit: int) -> tuple[int, ...]:
    """_max_k_up_to of the compact masks `top`: level s holds the distinct
    compacted K - W with |W| = s, each scoring its min_t (every t if impure,
    or if a cone on the level before); t fails where the running max exceeds t."""
    every = max(top[-1].bit_count(), 1)  # max(dim, 0) + 1: the score that fails every t

    def score(masks: tuple[int, ...]) -> int:
        return _min_t(masks, field) if _pure(masks) else every

    failed = score(top)  # every t below it has failed
    values, level = [0] * failed + [limit] * (every - failed), [top]
    # every failing size is at most #V, and {<>} has no vertex to remove
    for size in range(1, min(limit, reduce(or_, top).bit_length() + 1)):
        # each level complex less each vertex v, ids above v moved one lower
        kids = (tuple(f & (1 << v) - 1 | f >> 1 & -(1 << v) for f in facets)
                for masks in level for v, facets in _vertex_deletions(masks))
        children = {}
        # deleting the apex of a cone drops the dimension: every t fails
        worst = every if any(reduce(and_, masks) for masks in level) else failed
        for child in () if worst == every else kids:
            if child not in children:
                children[child] = None
                worst = max(worst, score(child))
                if worst == every:
                    break
        values[failed:worst] = [size] * (worst - failed)
        failed, level = worst, children
        if failed == every:
            break
    return tuple(values)


def _max_k_at(cx: SimplicialComplex, t: int, field: FieldSpec, limit: int) -> int:
    """_max_k_up_to at t (`_t_index`): above dim CM_t is purity."""
    masks = _nonvoid(cx)
    return _max_k_up_to(masks, field, limit)[_t_index(masks, t)]


def _vertex_deletions(masks: tuple[int, ...]) -> Iterator[tuple[int, list[int]]]:
    """(v, the facet masks of K - v), v ascending, for a pure complex K: the
    ridges in lk v that no other facet holds, then the facets avoiding v."""
    links = _links_by_vertex(masks)
    ridges = Counter(chain.from_iterable(links.values()))
    for v, lk in links.items():
        bit = 1 << v
        yield v, [r for r in lk if ridges[r] == 1] + [f for f in masks if not f & bit]


def is_k_cm_t(cx: SimplicialComplex, k: int, t: int, field: FieldSpec = GF2) -> bool:
    """No W with fewer than k vertices for which cx - W drops the dimension
    or fails CM_t; k above #V + 1 is rejected."""
    if k > _budget(_nonvoid(cx)):
        raise ValueError("k exceeds vertex budget")
    return _max_k_at(cx, t, field, k) == k


def k_cm_t_witness(cx: SimplicialComplex, k: int, t: int,
                   field: FieldSpec = GF2) -> Witness | None:
    """None if is_k_cm_t, else the first failing W, smallest first.  The
    first failing W of s vertices starts at the least v for which cx - v
    drops the dimension (s = 1) or fails at s - 1 vertices (a set holding a
    smaller vertex would come first), and goes on in cx - v."""
    if is_k_cm_t(cx, k, t, field):
        return None
    at = _t_index(cx.masks, t)  # the t that _max_k_at read; every sub keeps cx.dim
    removed, sub = [], cx.masks
    for s in range(_max_k_at(cx, t, field, k), 0, -1):
        for v, facets in _vertex_deletions(sub):  # sub is CM_t, hence pure
            if facets[-1].bit_count() < sub[-1].bit_count():
                return Witness("restriction_dimension", removed=(*removed, v))
            if _max_k_up_to(facets, field, s)[at] < s:
                break
        removed.append(v)
        sub = tuple(facets)
    inner = cm_t_witness(SimplicialComplex._trusted(sub, cx.labels), t, field)
    return Witness("restriction", removed=tuple(removed), inner=inner)


def is_k_cm_t_unbounded(cx: SimplicialComplex, k: int, t: int,
                        field: FieldSpec = GF2) -> bool:
    """k-CM_t without the vertex-budget guard (the suites meet {<>}, a facet's
    link): for k > #V + 1 only {<>} passes, as removing all of V drops dim."""
    return _max_k_at(cx, t, field, k) == k


def is_k_buchsbaum(cx: SimplicialComplex, k: int, field: FieldSpec = GF2) -> bool:
    return is_k_cm_t(cx, k, 1, field)


def min_t(cx: SimplicialComplex, field: FieldSpec = GF2) -> int:
    """Least t with CM_t, for pure complexes: CM_t fails exactly when a face
    with at least t vertices is obstructed, so one more than the largest
    obstructed face, or 0 if there is none."""
    if not is_pure(cx):
        raise ValueError("min_t undefined for impure complexes")
    return _min_t(cx.masks, field)


def _min_t(masks: tuple[int, ...], field: FieldSpec) -> int:
    """min_t of the pure complex with facet masks `masks` on any ids."""
    return _link_recursion(masks, field)[0].bit_length()


def max_k(cx: SimplicialComplex, t: int, field: FieldSpec = GF2) -> int:
    """Largest k with k-CM_t: the least size of a failing removal set (1 on {<>})."""
    k = _max_k_at(cx, t, field, _budget(_nonvoid(cx)))
    if not k:
        raise ValueError("not CM_t")
    return k


class ClassificationReport(FrozenRecord):
    __slots__ = _fields = ("dimension", "pure", "field", "min_t", "max_k_per_t",
                           "criteria_agree")
    __hash__ = None  # max_k_per_t is a dict

    def __init__(self, dimension: int, pure: bool, field: FieldSpec, min_t: int | None,
                 max_k_per_t: dict[int, int] | None = None, criteria_agree: bool = True):
        self._assign(dimension, pure, field, min_t,
                     {} if max_k_per_t is None else max_k_per_t, criteria_agree)

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "pure": self.pure,
            "field": self.field.token,
            "min_t": self.min_t,
            "max_k_per_t": {str(t): k for t, k in sorted(self.max_k_per_t.items())},
            "criteria_agree": self.criteria_agree,
        }


def classify(cx: SimplicialComplex, field: FieldSpec = GF2) -> ClassificationReport:
    """Purity, dimension, min_t and max_k per t, from one obstruction int and
    one k-CM_t search.  criteria_agree is true by construction (`is_cm_t`);
    ``tests/reference_deciders.py`` checks the criteria independently."""
    masks = _nonvoid(cx)
    if not _pure(masks):
        return ClassificationReport(cx.dim, False, field, None)
    mt = _min_t(masks, field)
    per_t = {t: k for t, k in enumerate(_max_k_up_to(masks, field, _budget(masks))) if t >= mt}
    return ClassificationReport(cx.dim, True, field, mt, per_t)


class JoinObservation(FrozenRecord):
    __slots__ = _fields = ("left_index", "right_index", "left_min_t", "right_min_t",
                           "join_min_t")

    def __init__(self, left_index: int, right_index: int, left_min_t: int,
                 right_min_t: int, join_min_t: int):
        self._assign(left_index, right_index, left_min_t, right_min_t, join_min_t)

    def to_json(self) -> dict:
        return {
            "pair": [self.left_index, self.right_index],
            "factor_min_t": [self.left_min_t, self.right_min_t],
            "join_min_t": self.join_min_t,
        }


def explore_join(pool: list[SimplicialComplex],
                 field: FieldSpec = GF2) -> list[JoinObservation]:
    """Observed minimal t of factors versus their join, for every pool pair.

    Only observed values are reported.  Over a field, min_t of a join of pure
    nonvoid complexes follows the join law, max(min_t(A) + dim B + 1 if
    min_t(A) > 0, min_t(B) + dim A + 1 if min_t(B) > 0, 0) (from Milnor's
    join homology); ``tests/test_join_law.py`` checks it.
    """
    for cx in pool:
        if not is_pure(cx):
            raise ValueError("explore_join expects pure complexes")
    out = []
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            joined = pool[i].join(pool[j])
            out.append(JoinObservation(
                i, j,
                min_t(pool[i], field), min_t(pool[j], field),
                min_t(joined, field),
            ))
    return out
