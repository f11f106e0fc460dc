"""The named verification suites run clean on a small corpus."""

import pytest

from cmtkit import core
from cmtkit.classify import clear_caches
from cmtkit.fields import GF2
from cmtkit.suites import (
    SUITES,
    build_corpus,
    glued_fixture_grid,
    random_corpus,
    run_suites,
)

CORPUS = build_corpus(max_n=5, seeds=4)


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
    monkeypatch.setattr(core, "_MEMO_LIMIT", 8)
    clear_caches()
    assert [r.to_json() for r in run_suites(["all"], CORPUS, field=GF2)] == at_default
    assert len(core._MEMO) <= 8


def test_verify_all_memo_shares_relabelled_entries():
    # `verify --suite all --max-n 7 --seeds 20` at seed 101: 1,206 entries;
    # keyed on uncompacted masks it stored 3,134
    clear_caches()
    reports = run_suites(["all"], build_corpus(max_n=7, seeds=20, seed_base=101), field=GF2)
    assert all(r.ok for r in reports)
    assert len(core._MEMO) <= 1300


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
