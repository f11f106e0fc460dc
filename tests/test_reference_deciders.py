"""Production CM_t deciders against the naive per-criterion reference."""

import pytest

import reference_deciders as ref
from cmtkit import classify as classify_module
from cmtkit.classify import (CRITERIA, classify, clear_caches, cm_t_witness, cm_witness,
                             k_cm_t_witness, min_t)
from cmtkit.core import from_facets
from cmtkit.fields import GF2, GF3, RATIONALS
from cmtkit.generators import miyazaki_example, projective_plane_6
from cmtkit.suites import acceptance_corpus


def _cases():
    mi, sigma = miyazaki_example()
    survivor, _ = mi.delete_cofaces([sigma])
    return acceptance_corpus() + [("rp2-6", projective_plane_6()),
                                  ("miyazaki-deletion-survivor", survivor),
                                  ("triangle-with-tail", from_facets([(1, 2, 3), (3, 4)]))]


CASES = _cases()


def _outcome(fn, cx, *args):
    """JSON of a witness, a plain value, or the name of the error raised."""
    try:
        result = fn(cx, *args)
    except (ValueError, AssertionError) as e:
        return type(e).__name__
    return result.to_json(cx) if hasattr(result, "to_json") else result


def _comparisons(field):
    """(case, decider, production outcome, reference outcome) for every
    decider, t and criterion on every case."""
    out = []
    for name, cx in CASES:
        pairs = [("cm", cm_witness, ref.cm_witness, (field,)),
                 ("min_t", min_t, ref.min_t, (field,))]
        pairs += [(f"t={t} {crit}", cm_t_witness, ref.cm_t_witness, (t, field, crit))
                  for t in range(0, cx.dim + 2) for crit in CRITERIA]
        for what, fn, ref_fn, args in pairs:
            out.append((name, what, _outcome(fn, cx, *args), _outcome(ref_fn, cx, *args)))
    return out


@pytest.mark.parametrize("field", (GF2, GF3, RATIONALS), ids=lambda f: f.token)
def test_witnesses_and_min_t_match_reference(field):
    comparisons = _comparisons(field)
    mismatches = [c for c in comparisons if c[2] != c[3]]
    kinds = {want["kind"] for *_, want in comparisons if isinstance(want, dict)}
    assert not mismatches, mismatches[:5]
    # every witness kind a CM_t decider can return was compared
    assert kinds == {"impure", "link_not_cm", "link_homology", "local_homology",
                     "global_homology"}


@pytest.mark.parametrize("field", (GF2, GF3, RATIONALS), ids=lambda f: f.token)
def test_k_cm_t_witnesses_match_reference(field):
    clear_caches()
    comparisons = [(name, k, t, _outcome(k_cm_t_witness, cx, k, t, field),
                    _outcome(ref.k_cm_t_witness, cx, k, t, field))
                   for name, cx in CASES for k in (1, 2, 3, 4) for t in range(0, cx.dim + 2)]
    mismatches = [c for c in comparisons if c[3] != c[4]]
    assert not mismatches, mismatches[:5]
    # both kinds of removal witness, and the inner CM_t witness, were compared
    kinds = {(want["kind"], want.get("inner", {}).get("kind"))
             for *_, want in comparisons if isinstance(want, dict)}
    assert {("restriction_dimension", None), ("restriction", "link_not_cm")} <= kinds
    # the only errors are the vertex budget, k > #V + 1 (boundary-2 at k = 4)
    errors = {(name, k) for name, k, _, _, want in comparisons if want == "ValueError"}
    assert errors == {(name, k) for name, cx in CASES for k in (1, 2, 3, 4)
                      if k > len(cx.vertex_ids()) + 1} == {("boundary-2", 4)}
    assert {want for *_, want in comparisons if not isinstance(want, dict)} == {None, "ValueError"}


@pytest.mark.parametrize("field", (GF2, GF3, RATIONALS), ids=lambda f: f.token)
def test_classify_max_k_per_t_matches_reference(field):
    # max_k(t) is one less than the least k at which the naive search finds
    # a failing W; with none up to k = #V + 1 (only on {<>}), it is #V + 1
    clear_caches()
    varied = False  # some case has a max_k that changes with t
    for name, cx in CASES:
        rep = classify(cx, field)
        budget = len(cx.vertex_ids()) + 1
        want = {}
        for t in range(max(cx.dim, 0) + 1):
            least = next((k for k in range(1, budget + 1)
                          if ref.k_cm_t_witness(cx, k, t, field) is not None), budget + 1)
            if least > 1:
                want[t] = least - 1
        assert rep.max_k_per_t == (want if rep.pure else {}), name
        varied |= len(set(want.values())) > 1
    assert varied


def test_small_memo_bound_changes_no_outcome(monkeypatch):
    clear_caches()
    at_default = _comparisons(GF2)
    monkeypatch.setattr(classify_module, "_MEMO_LIMIT", 8)
    clear_caches()
    assert _comparisons(GF2) == at_default
    assert len(classify_module._MEMO) <= 8
