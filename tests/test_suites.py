"""The named verification suites run clean on a small corpus."""

from functools import reduce
from operator import and_

import pytest

from cmtkit import classify, core, homology
from cmtkit.classify import clear_caches
from cmtkit.core import SimplicialComplex, _components
from cmtkit.fields import GF2
from cmtkit.suites import (
    SUITES,
    build_corpus,
    glued_fixture_grid,
    random_corpus,
    run_suites,
    suite_deletion_theorem,
    suite_k_link_recursion,
    suite_link_laws,
    suite_link_recursion,
)

CORPUS = build_corpus(max_n=5, seeds=4)
VERIFY_CORPUS = build_corpus(max_n=7, seeds=20, seed_base=101)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_runs_clean(name):
    report = SUITES[name](CORPUS, field=GF2)
    assert report.cases > 0
    assert report.ok, [f.case for f in report.failures]


def test_run_suites_all_expands():
    reports = run_suites(["all"], build_corpus(max_n=4, seeds=2), field=GF2)
    assert {r.suite for r in reports} == set(SUITES)


def test_small_memo_bound_changes_no_report(monkeypatch):
    clear_caches()
    at_default = [r.to_json() for r in run_suites(["all"], CORPUS, field=GF2)]
    monkeypatch.setattr(classify, "_MEMO_LIMIT", 8)
    clear_caches()
    assert [r.to_json() for r in run_suites(["all"], CORPUS, field=GF2)] == at_default
    assert len(classify._MEMO) <= 8


def test_verify_all_memo_shares_relabelled_entries():
    # `verify --suite all --max-n 7 --seeds 20` at seed 101: 296 entries
    # (129 link entries, 167 k-CM_t searches); with graph links stored it
    # was 540, and keyed on uncompacted masks, with Betti vectors memoized
    # too, it stored 3,134
    clear_caches()
    reports = run_suites(["all"], VERIFY_CORPUS, field=GF2)
    assert all(r.ok for r in reports)
    assert len(classify._MEMO) <= 296


def test_verify_all_stores_no_cone_and_ranks_each_entry_once(monkeypatch):
    # the link memo is keyed on cone-free cores of dimension at least 2: a
    # cold `verify --suite all --max-n 7 --seeds 20` at seed 101 stores 129
    # of them, none a cone or a graph, and ranks each of the 114 connected
    # ones once, in at most 75 rank calls; a disconnected core is obstructed
    # in degree 0 with no rank.  Storing and ranking graph links too, it
    # stored and ranked 373, in 248 rank calls.  The recursion and the
    # k-CM_t search (167 entries) compact their own input: only link_laws'
    # join associativity (16) and paper_fixtures (1) build compact
    # complexes, where handing the search compact masks built 3,514
    ranked, compacted, ranks = [], [], []
    relative_betti = homology._relative_betti
    rank = homology.rank
    compact = SimplicialComplex.compact
    monkeypatch.setattr(homology, "_relative_betti",
                        lambda *args: ranked.append(args[0]) or relative_betti(*args))
    monkeypatch.setattr(homology, "rank", lambda *args: ranks.append(1) or rank(*args))
    monkeypatch.setattr(SimplicialComplex, "compact",
                        lambda self: compacted.append(self) or compact(self))
    clear_caches()
    assert all(r.ok for r in run_suites(["all"], VERIFY_CORPUS, field=GF2))
    stored = [key[1] for key in classify._MEMO if key[0] == "obstructions"]
    assert len(stored) == 129
    assert not any(reduce(and_, masks) for masks in stored)
    assert all(masks[-1].bit_count() > 2 for masks in stored)
    assert len(ranked) == 114
    assert sorted(ranked) == sorted(masks for masks in stored if _components(masks) == 1)
    assert len(ranks) <= 75
    assert sum(key[0] == "max_k" for key in classify._MEMO) == 167
    assert len(compacted) <= 17



def test_verify_all_builds_every_law_it_checks(monkeypatch):
    # the work a cold `verify --suite all --max-n 7 --seeds 20` does at seed
    # 101 in layer 2, counted at the mask kernels that the methods and the
    # suites share, as traced before link_laws sampled face masks: a faster
    # verify must not come from dropped link or restriction checks
    calls = {"_link": 0, "_restrict": 0}
    for kernel in calls:
        def counted(masks, mask, _derive=getattr(core, kernel), _kernel=kernel):
            calls[_kernel] += 1
            return _derive(masks, mask)

        monkeypatch.setattr(core, kernel, counted)
    clear_caches()
    assert all(r.ok for r in run_suites(["all"], VERIFY_CORPUS, field=GF2))
    assert calls == {"_link": 7441, "_restrict": 3642}


def test_link_recursion_reads_each_vertex_link_once(monkeypatch):
    # a cold `verify --suite all --max-n 7 --seeds 20` at seed 101 sends 999
    # facet lists through `_core` and relabels 582 of them; compacting graph
    # links as well made it 2,235 and 1,186, and link_recursion asking
    # is_cm_t of each vertex link at every t before that 2,452 and 1,302
    calls = {"_core": 0, "_relabelled": 0}
    for name in calls:
        def counted(*args, _f=getattr(classify, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(classify, name, counted)
    clear_caches()
    assert all(r.ok for r in run_suites(["all"], VERIFY_CORPUS, field=GF2))
    assert calls == {"_core": 999, "_relabelled": 582}


def test_verify_all_case_counts():
    # the counts `verify --suite all --max-n 7 --seeds 20` reports: 36 corpus items,
    # link_laws one join case more for each of the first 8, paper_fixtures 38 checks
    reports = run_suites(["all"], VERIFY_CORPUS, field=GF2)
    cases = {r.suite: r.cases for r in reports}
    assert cases == {**dict.fromkeys(SUITES, 36), "link_laws": 44, "paper_fixtures": 38}


def _without_first_facet(masks):
    return masks[1:] if len(masks) > 1 else masks


def _dropping_first_facet(monkeypatch, kernel):
    """Make the mask kernel `kernel` of core drop the first facet of every
    result with two or more; the methods and the suites both go through it."""
    derive = getattr(core, kernel)
    monkeypatch.setattr(core, kernel, lambda masks, mask: _without_first_facet(derive(masks, mask)))


def test_link_laws_catch_a_restriction_that_drops_a_facet(monkeypatch):
    _dropping_first_facet(monkeypatch, "_restrict")
    report = suite_link_laws(CORPUS)
    assert report.failures
    assert all("restriction/link commutation fails" in f.case for f in report.failures)


def test_link_laws_catch_a_link_that_drops_a_facet(monkeypatch):
    _dropping_first_facet(monkeypatch, "_link")
    cases = [f.case for f in suite_link_laws(CORPUS).failures]
    assert any("link-of-link fails" in case for case in cases)
    assert any("restriction/link commutation fails" in case for case in cases)


@pytest.mark.parametrize("suite, failures", [(suite_link_recursion, 12),
                                              (suite_k_link_recursion, 47)])
def test_recursions_catch_a_link_that_drops_a_facet(monkeypatch, suite, failures):
    # the counts of the suites that built a link at every use: a link built
    # once per item is as broken at each of its uses
    _dropping_first_facet(monkeypatch, "_link")
    assert len(suite(CORPUS).failures) == failures


def test_deletion_theorem_catches_a_survivor_that_keeps_a_facet(monkeypatch):
    delete_cofaces = SimplicialComplex.delete_cofaces

    def keeping_first_facet(self, faces):
        survivor, report = delete_cofaces(self, faces)
        return SimplicialComplex._from_masks(survivor.masks + self.masks[:1], self.labels), report

    monkeypatch.setattr(SimplicialComplex, "delete_cofaces", keeping_first_facet)
    cases = [f.case for f in suite_deletion_theorem(VERIFY_CORPUS).failures]
    assert len(cases) == 21
    assert all(case.endswith("conclusion fails") for case in cases)


def test_deletion_theorem_deletes_once_per_item_that_can_be_admissible(monkeypatch):
    # a facet holds no other facet, so the dimension of a pure complex drops
    # only when every facet is removed: among 1- and 2-sets of facets, only
    # the facets of a pure complex with at most two can be admissible
    delete_cofaces = SimplicialComplex.delete_cofaces
    deleted = []

    def recording(self, faces):
        deleted.append(id(self))
        return delete_cofaces(self, faces)

    monkeypatch.setattr(SimplicialComplex, "delete_cofaces", recording)
    assert suite_deletion_theorem(VERIFY_CORPUS).ok
    few = [id(cx) for _, cx in VERIFY_CORPUS
           if len(cx.masks) <= 2 and cx.masks[0].bit_count() == cx.masks[-1].bit_count()]
    assert deleted == few
    assert len(few) == 11


@pytest.mark.parametrize("suite, derived", [(suite_link_laws, "restrict"),
                                            (suite_link_recursion, "link"),
                                            (suite_k_link_recursion, "link")])
def test_suites_build_each_derived_complex_of_an_item_once(monkeypatch, suite, derived):
    items = [cx.masks for _, cx in CORPUS]
    built = []
    kernel = f"_{derived}"
    derive = getattr(core, kernel)

    def recording(masks, mask):
        if any(masks is item for item in items):
            built.append((id(masks), mask))
        return derive(masks, mask)

    monkeypatch.setattr(core, kernel, recording)
    assert suite(CORPUS).ok
    assert built
    assert len(built) == len(set(built))


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["bogus"], CORPUS)


def test_glued_grid_is_the_ten_case_family():
    names = [name for name, _ in glued_fixture_grid()]
    assert len([n for n in names if n.startswith("glued-d")]) == 11  # 10 pairs + m=3
    assert "glued-d5-t4" in names


def test_random_corpus_is_deterministic():
    a = random_corpus(5, max_n=6, seed_base=3)
    b = random_corpus(5, max_n=6, seed_base=3)
    assert [cx for _, cx in a] == [cx for _, cx in b]
    assert a[0][1] != random_corpus(5, max_n=6, seed_base=4)[0][1]
