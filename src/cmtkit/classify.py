"""Deciders for Cohen-Macaulay, CM_t, Buchsbaum and k-CM_t complexes.

One computation serves every CM_t decider: the obstruction map of a
complex, which sends each face whose link has nonzero reduced homology
below the link's dimension to the lowest such degree.  The three CM_t
criteria are three readings of that map:

* ``definition_links`` - purity plus Cohen-Macaulayness of the link of
  every face with at least t vertices; such a link fails exactly when an
  obstructed face contains the face;
* ``reisner_homology`` - purity plus no obstructed face with at least t
  vertices;
* ``local_homology`` - the same condition read as local homology, which at
  a nonempty face is the link's homology shifted up by the face's size, and
  at the empty face is the global homology.

Naive per-criterion deciders in ``tests/reference_deciders.py`` are the
independent check on these.  All deciders produce concrete witnesses on
failure so the CLI can report them.  The obstruction map and the k-CM_t
removal layers are memoized in `core`'s memo, keyed on the compacted facet
masks (the used vertex ids renamed 0..m-1 in order), since the deciders and
the theorem suites revisit the same links and restrictions many times, often
under other labels or on shifted vertex ids.  Both hold int masks, lifted
back to the complex's own ids on the way out; a `Face` is built only for a
witness that is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import reduce
from itertools import combinations
from operator import and_

from . import homology
from .core import EMPTY_FACE, Face, SimplicialComplex, _bits, _memoized_compact, _relabelled
from .core import clear_caches  # noqa: F401  (re-exported; the memo lives in core)
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


@dataclass(frozen=True)
class Witness:
    """Concrete evidence that a property fails.

    kind is one of: impure, link_not_cm, link_homology, local_homology,
    global_homology, restriction_dimension, restriction.
    """

    kind: str
    face: Face | None = None
    degree: int | None = None
    removed: tuple[int, ...] | None = None
    inner: "Witness | None" = None

    def to_json(self, cx: SimplicialComplex) -> dict:
        labels = cx.labels

        def face_labels(f: Face | None):
            return None if f is None else [labels[v] for v in f]

        out: dict = {"kind": self.kind}
        if self.face is not None:
            out["face"] = face_labels(self.face)
        if self.degree is not None:
            out["degree"] = self.degree
        if self.removed is not None:
            out["removed"] = [labels[v] for v in self.removed]
        if self.inner is not None:
            out["inner"] = self.inner.to_json(cx)
        return out

    def lifted(self, support: int) -> "Witness":
        """The witness with vertex i renamed the i-th lowest id of support
        (undoes a compaction)."""
        def up(mask: int) -> int:
            return _relabelled((mask,), support, inverse=True)[0]

        return Witness(
            self.kind,
            None if self.face is None else Face.from_mask(up(self.face.mask)),
            self.degree,
            None if self.removed is None else _bits(up(sum(1 << v for v in self.removed))),
            None if self.inner is None else self.inner.lifted(support))


def _require_nonvoid(cx: SimplicialComplex) -> None:
    if cx.is_void:
        raise ValueError("the void complex cannot be classified")


def is_pure(cx: SimplicialComplex) -> bool:
    """True when all facets share one cardinality; {<>} is pure.  Facet
    masks are sorted by size, so the first and the last decide."""
    _require_nonvoid(cx)
    return cx.masks[0].bit_count() == cx.masks[-1].bit_count()


def _obstructions(cx: SimplicialComplex, field: FieldSpec) -> dict[int, int]:
    """Each face mask whose link has reduced homology below the link's
    dimension, mapped to the lowest such degree, in canonical face order."""
    _require_nonvoid(cx)
    return _memoized_compact(
        "obstructions", cx, (field,), lambda small: _scan_links(small, field),
        lambda found, support: dict(zip(_relabelled(found, support, inverse=True), found.values())))


def _scan_links(cx: SimplicialComplex, field: FieldSpec) -> dict[int, int]:
    """The obstruction map, one face mask at a time.

    The scan derives each link's facet masks itself and skips links of
    dimension at most 0 and cones (acyclic) before building anything; only
    the other links become complexes and reach `reduced_betti`.  The facets
    through a face are the AND of its vertices' facet bitsets.
    """
    found = {}
    masks, n, labels = cx.masks, cx.n_vertices, cx.labels
    owners = [0] * n  # bit i of owners[v] set when facet i contains v
    for i, f in enumerate(masks):
        for v in _bits(f):
            owners[v] |= 1 << i
    every = (1 << len(masks)) - 1
    for s in cx._face_masks():
        through = every
        for v in _bits(s):
            through &= owners[v]
        # the link's facets in index order, hence canonical (see core.link)
        lk = tuple(masks[i] & ~s for i in _bits(through))
        top = lk[-1].bit_count() - 1
        if top <= 0 or reduce(and_, lk):
            continue  # links of dimension -1 or 0, and cones, never obstruct
        betti = homology.reduced_betti(SimplicialComplex._trusted(n, lk, labels), field)
        low = next((i for i in range(-1, top) if betti[i]), None)
        if low is not None:
            found[s] = low
    return found


def cm_witness(cx: SimplicialComplex, field: FieldSpec = GF2) -> Witness | None:
    """Reisner test: the first face whose link has homology below its dimension, or None."""
    for s, degree in _obstructions(cx, field).items():
        return Witness("link_homology", face=Face.from_mask(s), degree=degree)
    return None


def is_cm(cx: SimplicialComplex, field: FieldSpec = GF2) -> bool:
    """Cohen-Macaulayness over the given field."""
    return cm_witness(cx, field) is None


def cm_t_witness(cx: SimplicialComplex, t: int, field: FieldSpec = GF2,
                 criterion: str = DEFINITION_LINKS) -> Witness | None:
    """Witness against CM_t under the chosen criterion, or None if CM_t holds.

    t is clamped below at 0; values above dim leave only the purity
    requirement since no face is large enough to be quantified over.
    """
    _require_nonvoid(cx)
    crit = normalize_criterion(criterion)
    t = max(int(t), 0)
    if not is_pure(cx):
        return Witness("impure")
    obstructed = _obstructions(cx, field)
    if not obstructed:
        return None
    if crit == DEFINITION_LINKS:
        # lk(sigma) is CM unless an obstructed face contains sigma, and a face
        # with more than t vertices fails only if its t-subsets do.  The faces
        # rho - sigma of lk(sigma) come in the same order as the faces rho.
        for s in cx._face_masks(t):
            for r, degree in obstructed.items():
                if s & r == s:
                    inner = Witness("link_homology", face=Face.from_mask(r & ~s), degree=degree)
                    return Witness("link_not_cm", face=Face.from_mask(s), inner=inner)
        return None
    for s, degree in obstructed.items():
        size = s.bit_count()
        if size < t:
            continue
        if crit == REISNER_HOMOLOGY:
            return Witness("link_homology", face=Face.from_mask(s), degree=degree)
        if not s:
            # punctures never see the empty face: this is the global condition
            return Witness("global_homology", face=EMPTY_FACE, degree=degree)
        return Witness("local_homology", face=Face.from_mask(s), degree=degree + size)
    return None


def is_cm_t(cx: SimplicialComplex, t: int, field: FieldSpec = GF2,
            criterion: str = DEFINITION_LINKS) -> bool:
    return cm_t_witness(cx, t, field, criterion) is None


def is_buchsbaum(cx: SimplicialComplex, field: FieldSpec = GF2) -> bool:
    """Buchsbaum = CM_1: purity plus Cohen-Macaulay links of nonempty faces."""
    return is_cm_t(cx, 1, field)


def _k_layer_witness(cx: SimplicialComplex, size: int, t: int,
                     field: FieldSpec) -> Witness | None:
    """First failing removal set of exactly `size` vertices, or None."""
    return _memoized_compact("k_layer", cx, (size, t, field),
                             lambda small: _first_failing_removal(small, size, t, field),
                             lambda w, support: None if w is None else w.lifted(support))


def _first_failing_removal(cx: SimplicialComplex, size: int, t: int,
                           field: FieldSpec) -> Witness | None:
    support_mask = cx.support_mask
    d = cx.dim
    for removal in combinations(cx.vertex_ids(), size):
        keep_mask = support_mask
        for v in removal:
            keep_mask &= ~(1 << v)
        sub = cx.restrict(Face.from_mask(keep_mask))
        if sub.dim != d:
            return Witness("restriction_dimension", removed=removal)
        inner = cm_t_witness(sub, t, field, DEFINITION_LINKS)
        if inner is not None:
            return Witness("restriction", removed=removal, inner=inner)
    return None


def k_cm_t_witness(cx: SimplicialComplex, k: int, t: int, field: FieldSpec = GF2,
                   check_budget: bool = True) -> Witness | None:
    """Witness against k-CM_t (a removal set breaking CM_t or the dimension).

    Enumerates every removal set W with fewer than k vertices; with
    check_budget, k larger than #V + 1 is rejected since the incremental
    search could not terminate there.
    """
    _require_nonvoid(cx)
    if k < 1:
        raise ValueError("k must be at least 1")
    support = cx.vertex_ids()
    if check_budget and k > len(support) + 1:
        raise ValueError("k exceeds vertex budget")
    t = max(int(t), 0)
    for size in range(0, min(k - 1, len(support)) + 1):
        w = _k_layer_witness(cx, size, t, field)
        if w is not None:
            return w
    return None


def is_k_cm_t(cx: SimplicialComplex, k: int, t: int, field: FieldSpec = GF2) -> bool:
    return k_cm_t_witness(cx, k, t, field) is None


def is_k_cm_t_unbounded(cx: SimplicialComplex, k: int, t: int,
                        field: FieldSpec = GF2) -> bool:
    """k-CM_t by the raw definition, without the vertex-budget guard.

    For k > #V + 1 this is vacuously true only on {<>}; on anything else
    removing all vertices drops the dimension, so the verdict stays total.
    The theorem suites need this form because links of facets are {<>}.
    """
    return k_cm_t_witness(cx, k, t, field, check_budget=False) is None


def is_k_buchsbaum(cx: SimplicialComplex, k: int, field: FieldSpec = GF2) -> bool:
    return is_k_cm_t(cx, k, 1, field)


def min_t(cx: SimplicialComplex, field: FieldSpec = GF2) -> int:
    """Least t with CM_t, for pure complexes: CM_t fails exactly when a face
    with at least t vertices is obstructed, so one more than the largest
    obstructed face, or 0 if there is none."""
    _require_nonvoid(cx)
    if not is_pure(cx):
        raise ValueError("min_t undefined for impure complexes")
    return max((s.bit_count() + 1 for s in _obstructions(cx, field)), default=0)


def _max_k_capped(cx: SimplicialComplex, t: int, field: FieldSpec,
                  cap: int | None) -> int:
    if cm_t_witness(cx, t, field) is not None:
        raise ValueError("not CM_t")
    support = cx.vertex_ids()
    k = 1
    for size in range(1, len(support) + 1):
        if cap is not None and k >= cap:
            break
        if _k_layer_witness(cx, size, t, field) is not None:
            break
        k = size + 1
    return k


def max_k(cx: SimplicialComplex, t: int, field: FieldSpec = GF2) -> int:
    """Largest k with k-CM_t, by incremental enlargement of the removal sets."""
    _require_nonvoid(cx)
    return _max_k_capped(cx, max(int(t), 0), field, cap=None)


@dataclass(frozen=True)
class ClassificationReport:
    dimension: int
    pure: bool
    field: FieldSpec
    min_t: int | None
    max_k_per_t: dict[int, int] = dc_field(default_factory=dict)
    criteria_agree: bool = True

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
    """Full report: purity, dimension, minimal t, maximal k per t, agreement."""
    _require_nonvoid(cx)
    dim = cx.dim
    ts = list(range(0, dim + 1)) if dim >= 0 else [0]
    pure = is_pure(cx)
    agree = all(
        is_cm_t(cx, t, field, DEFINITION_LINKS)
        == is_cm_t(cx, t, field, REISNER_HOMOLOGY)
        == is_cm_t(cx, t, field, LOCAL_HOMOLOGY)
        for t in ts
    )
    if not pure:
        return ClassificationReport(dim, False, field, None, {}, agree)
    mt = min_t(cx, field)
    per_t = {t: max_k(cx, t, field) for t in ts if t >= mt}
    return ClassificationReport(dim, True, field, mt, per_t, agree)


@dataclass(frozen=True)
class JoinObservation:
    left_index: int
    right_index: int
    left_min_t: int
    right_min_t: int
    join_min_t: int

    def to_json(self) -> dict:
        return {
            "pair": [self.left_index, self.right_index],
            "factor_min_t": [self.left_min_t, self.right_min_t],
            "join_min_t": self.join_min_t,
        }


def explore_join(pool: list[SimplicialComplex],
                 field: FieldSpec = GF2) -> list[JoinObservation]:
    """Observed minimal t of factors versus their join, for every pool pair.

    Purely exploratory output: how min_t behaves under joins is an open
    question, so no expected relationship is asserted.
    """
    for cx in pool:
        _require_nonvoid(cx)
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
