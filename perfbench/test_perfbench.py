"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import random
from dataclasses import replace

import pytest

import run
from workloads import Prepared, Request, prepare, write_sphere


@pytest.fixture()
def work_dir():
    run.WORK.mkdir(parents=True, exist_ok=True)
    return run.WORK


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def small_homology(work_dir, seed=0):
    """A correctly pinned homology request on the 2-skeleton of a 5-sphere."""
    req = Request("homology_gf2_s", ("homology", "{file}", "--field", "gf2"), (6, 2))
    path = work_dir / "small.cplx"
    labels = write_sphere(path, 6, 2, random.Random(seed))
    return Prepared(req.name, ["homology", str(path), "--field", "gf2"], {}, 0,
                    req.expected(labels, seed))


def test_wrong_pinned_verdict_is_a_failed_request(monkeypatch):
    def pinned(workload, seed, work_dir):
        right = small_homology(work_dir)
        assert right.expect["betti"] == {"-1": 0, "0": 0, "1": 0, "2": 10}
        wrong_betti = dict(right.expect, betti={**right.expect["betti"], "2": 11})
        return [right, replace(right, expect=wrong_betti), replace(right, exit_code=1)]

    monkeypatch.setattr(run, "prepare", pinned)
    result, env = run.measure("large_q", 0, 0, trace=False)
    assert result["attempted"] == 3 * run.MIN_PASSES
    assert result["failed"] == 2 * run.MIN_PASSES
    assert result["correct"] is False
    assert env["fail_ratio"] == pytest.approx(2 / 3)


def test_traced_verify_reproduces_roadmap_counts(work_dir):
    verify, = [r for r in prepare("many_small", 101, work_dir) if r.argv[0] == "verify"]
    doc = run.run_pass([verify], work_dir / "spans.tsv")
    assert run.count_failures([verify], doc) == 0
    layers = doc["layers"][0]
    assert layers["core.init"]["calls"] == 66_448
    assert layers["core.link"]["calls"] == 56_561
    assert layers["core.restrict"]["calls"] == 9_901
    assert layers["linalg.rank.gf2"]["calls"] == 2_511
    assert layers["linalg.rank.gf2"]["cells"] == 53_266


def test_refuses_outside_backend_or_seed(monkeypatch, capsys):
    for var in ("CMTKIT_BACKEND", "CMTKIT_SEED"):
        monkeypatch.setenv(var, "1")
        assert run.main(["--workload", "large_q", "--seconds", "0"]) == 2
        monkeypatch.delenv(var)
    assert capsys.readouterr().out == ""


def test_fails_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "large_q", "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""
