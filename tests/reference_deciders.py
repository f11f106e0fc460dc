"""Naive reference deciders for CM, CM_t and k-CM_t, one loop per criterion.

Production code (`cmtkit.classify`) derives every CM_t criterion from one
obstruction map, and finds k-CM_t failures by single-vertex deletions.
These deciders compute each criterion on its own, straight from the
definitions: the link definition takes links of links, k-CM_t rebuilds every
restriction through the validating constructor, and nothing but the Betti
numbers is memoized.  Tests compare their witnesses and min_t with
production's.
"""

from __future__ import annotations

from itertools import combinations

from cmtkit.classify import (
    DEFINITION_LINKS,
    REISNER_HOMOLOGY,
    Witness,
    is_pure,
    normalize_criterion,
)
from cmtkit.core import EMPTY_FACE, Face, SimplicialComplex
from cmtkit.fields import GF2, FieldSpec
from cmtkit.homology import reduced_betti


def cm_witness(cx: SimplicialComplex, field: FieldSpec = GF2) -> Witness | None:
    """Reisner test: the first face whose link has homology below its dimension."""
    for sigma in cx.faces():
        lk = cx.link(sigma)
        top = lk.dim
        if top <= 0:
            continue  # links of dimension -1 or 0 never obstruct
        betti = reduced_betti(lk, field)
        for i in range(-1, top):
            if betti[i]:
                return Witness("link_homology", face=sigma, degree=i)
    return None


def cm_t_witness(cx: SimplicialComplex, t: int, field: FieldSpec = GF2,
                 criterion: str = DEFINITION_LINKS) -> Witness | None:
    crit = normalize_criterion(criterion)
    t = max(int(t), 0)
    if not is_pure(cx):
        return Witness("impure")
    d = cx.dim + 1
    if crit == DEFINITION_LINKS:
        for sigma in cx.faces():
            if len(sigma) < t:
                continue
            inner = cm_witness(cx.link(sigma), field)
            if inner is not None:
                return Witness("link_not_cm", face=sigma, inner=inner)
        return None
    if crit == REISNER_HOMOLOGY:
        for sigma in cx.faces():
            if len(sigma) < t:
                continue
            betti = reduced_betti(cx.link(sigma), field)
            for i in range(-1, d - len(sigma) - 1):
                if betti[i]:
                    return Witness("link_homology", face=sigma, degree=i)
        return None
    if t == 0:
        # punctures never see the empty face: add the global condition
        betti = reduced_betti(cx, field)
        for i in range(-1, d - 1):
            if betti[i]:
                return Witness("global_homology", face=EMPTY_FACE, degree=i)
    for sigma in cx.faces():
        s = len(sigma)
        if s < max(t, 1):
            continue
        betti = reduced_betti(cx.link(sigma), field)
        for j in range(-1, d - 1 - s):
            if betti[j]:
                return Witness("local_homology", face=sigma, degree=j + s)
    return None


def is_cm_t(cx: SimplicialComplex, t: int, field: FieldSpec = GF2,
            criterion: str = DEFINITION_LINKS) -> bool:
    return cm_t_witness(cx, t, field, criterion) is None


def k_cm_t_witness(cx: SimplicialComplex, k: int, t: int,
                   field: FieldSpec = GF2) -> Witness | None:
    """Witness against k-CM_t: the first removal set W with fewer than k
    vertices, smallest sets first, whose restriction to V - W drops the
    dimension or fails CM_t by the link definition."""
    if k < 1:
        raise ValueError("k must be at least 1")
    support = cx.vertex_ids()
    if k > len(support) + 1:
        raise ValueError("k exceeds vertex budget")
    for size in range(min(k - 1, len(support)) + 1):
        for removed in combinations(support, size):
            keep = set(support).difference(removed)
            parts = {frozenset(f).intersection(keep) for f in cx.facets}
            facets = [Face(p) for p in parts if not any(p < q for q in parts)]
            sub = SimplicialComplex(cx.n_vertices, facets, cx.labels)
            if sub.dim != cx.dim:
                return Witness("restriction_dimension", removed=removed)
            inner = cm_t_witness(sub, t, field, DEFINITION_LINKS)
            if inner is not None:
                return Witness("restriction", removed=removed, inner=inner)
    return None


def min_t(cx: SimplicialComplex, field: FieldSpec = GF2) -> int:
    """Least t with CM_t, by deciding CM_t for t = 0..dim in turn."""
    if not is_pure(cx):
        raise ValueError("min_t undefined for impure complexes")
    if cx.dim == -1:
        return 0
    verdicts = [is_cm_t(cx, t, field) for t in range(0, cx.dim + 1)]
    first = verdicts.index(True) if True in verdicts else None
    if first is None or not all(verdicts[first:]):
        raise AssertionError(f"CM_t monotonicity violated: {verdicts}")
    return first


def obstructions(cx: SimplicialComplex, field: FieldSpec = GF2) -> dict:
    """Each face mask whose link has reduced homology below the link's
    dimension, mapped to the lowest such degree: every link built with
    `cx.link`."""
    found = {}
    for sigma in cx.faces():
        lk = cx.link(sigma)
        if lk.dim <= 0:
            continue
        betti = reduced_betti(lk, field)
        low = next((i for i in range(-1, lk.dim) if betti[i]), None)
        if low is not None:
            found[sigma.mask] = low
    return found
