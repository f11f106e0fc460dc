#!/usr/bin/env python3
"""cmtkit benchmark: closed-loop CLI workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload many_small --seed 101 --seconds 36 --trace 0

One client issues a workload's requests one after another through
cmtkit.cli.main(argv), in a fresh interpreter per pass (so no memo cache
survives from one pass to the next), and repeats passes for --seconds.
Each verdict is checked against a closed-form expectation; a mismatch,
wrong exit code or exception is a failed request.  The last line of stdout
is {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics (medians over passes of load-calibrated times, see
REFERENCE_NOMINAL_S), with --trace 1 the per-layer
metrics of traced passes, which alternate with untraced ones so that the
tracing overhead is measured too.  --workload all runs every workload.

Every request uses the default backend and --jobs 1.  The benchmark refuses
to run when CMTKIT_BACKEND or CMTKIT_SEED is set in its environment: the
seed reaches the program only as CMTKIT_SEED on the verify request.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import ALL_REFERENCES, WORKLOADS, mismatches, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

DEFAULT_SEED = 101          # cmtkit.suites.DEFAULT_SEED_BASE: the ROADMAP baseline corpus
MIN_PASSES = 3              # untraced passes per run, also with --trace 1
MIN_TRACED = 2
SETUP_SAMPLES = 7           # extra import-only interpreters for setup_s
PASS_TIMEOUT_S = 170

# The machine is shared: co-tenant load slows a core by up to 2x for seconds
# at a time, which moved medians of raw times 20-50% between runs.  Each pass
# therefore times fixed reference work (an interpreter loop, a numpy
# elimination, object allocation and sorting: worker.reference) after the
# import and after every request, and reported times are raw times divided
# by the slowdown seen on either side of them, on the request's references
# (workloads.py).  The nominal reference times are the fastest seen on an
# idle core of the 2-vCPU Xeon this benchmark was defined on, so calibrated
# times read as seconds on that core when idle.  Raw medians are printed
# alongside.
REFERENCE_NOMINAL_S = (0.0045, 0.0062, 0.0060)

END_TO_END = {"setup_s": "s", "wall_s": "s", "req1_s": "s", "req2_s": "s",
              "req3_s": "s", "peak_rss_mb": "MB"}
LAYERS = ("core.faces", "core.init", "core.link", "core.restrict",
          "homology.boundary_matrices", "homology.reduced_betti",
          "linalg.rank.gf2", "linalg.rank.gfp", "linalg.rank.q",
          "classify.cm_witness", "classify.cm_t_witness", "classify.k_cm_t_witness",
          "files.load")
SUITES = ("link_laws", "criteria_equivalence", "link_recursion", "k_link_recursion",
          "deletion_theorem", "skeleton_theorem", "monotonicity", "paper_fixtures")
COUNTS = ("calls", "cells", "max_cells", "hits")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for layer in LAYERS:
        if layer == "files.load":
            units[f"{layer}.self_s"] = "s"
            continue
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer == "homology.boundary_matrices" or layer.startswith("linalg."):
            units[f"{layer}.cells"] = "count"
        if layer.startswith("linalg."):
            units[f"{layer}.max_cells"] = "count"
        if layer in ("homology.reduced_betti", "classify.cm_witness",
                     "classify.cm_t_witness"):
            units[f"{layer}.hit_ratio"] = "ratio"
    for suite in SUITES:
        units[f"suites.{suite}.wall_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def run_pass(requests, trace_path: Path | None) -> dict:
    """Run one pass in a fresh interpreter and return its JSON document."""
    spec = {"src": str(SRC), "trace": None if trace_path is None else str(trace_path),
            "requests": [{"argv": r.argv, "env": r.env} for r in requests]}
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(spec), stdout=subprocess.PIPE, text=True,
                          cwd=WORK, env=env, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def count_failures(requests, doc: dict) -> int:
    failed = 0
    for req, res in zip(requests, doc["requests"]):
        problems = ([res["error"]] if res["error"] else
                    mismatches(req, res["exit_code"], res["report"]))
        if problems:
            failed += 1
            print(f"perfbench: {req.name} failed: {'; '.join(problems)}", file=sys.stderr)
    return failed


def sum_layers(doc: dict) -> dict[str, dict]:
    """Layer aggregates of one traced pass, summed over its requests."""
    total: dict[str, dict] = {}
    for per_request in doc["layers"]:
        for name, agg in per_request.items():
            acc = total.setdefault(name, dict.fromkeys(agg, 0))
            for key, value in agg.items():
                acc[key] = max(acc[key], value) if key == "max_cells" else acc[key] + value
    return total


def slowdown(reference_s: list[float], components=ALL_REFERENCES) -> float:
    """Mean ratio of the chosen reference times to their nominal values."""
    return sum(reference_s[j] / REFERENCE_NOMINAL_S[j] for j in components) / len(components)


def calibrated(doc: dict, requests) -> tuple[float, list[float]]:
    """A pass's import and request times, each divided by the slowdown
    measured just before and after it."""
    refs = doc["reference_s"]
    times = [r["seconds"] * 2 / (slowdown(refs[i], req.reference)
                                 + slowdown(refs[i + 1], req.reference))
             for i, (req, r) in enumerate(zip(requests, doc["requests"]))]
    return doc["import_s"] / slowdown(refs[0]), times


def layer_metrics(requests, traced: list[dict], plain_walls: list[float]) -> tuple[dict, bool]:
    """Per-layer metrics from traced passes; False if their counts differ."""
    sums = [sum_layers(doc) for doc in traced]
    empty = {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "hits": 0, "cells": 0, "max_cells": 0}
    repeat = all({n: {k: a[k] for k in COUNTS} for n, a in s.items()}
                 == {n: {k: a[k] for k in COUNTS} for n, a in sums[0].items()}
                 for s in sums)
    first = sums[0]
    values = {}
    for name in per_layer_units():
        layer, _, stat = name.rpartition(".")
        if name == "trace.overhead_ratio":
            walls = [sum(calibrated(doc, requests)[1]) for doc in traced]
            values[name] = median(walls) / median(plain_walls)
        elif stat in ("self_s", "wall_s"):
            values[name] = median(s.get(layer, empty)[stat] for s in sums)
        elif stat == "hit_ratio":
            agg = first.get(layer, empty)
            values[name] = agg["hits"] / agg["calls"] if agg["calls"] else 0.0
        else:
            values[name] = first.get(layer, empty)[stat]
    return values, repeat


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (result line, environment record)."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    requests = prepare(workload, seed, WORK)
    warm = run_pass([], None)            # compiles bytecode; not timed
    setup = [run_pass([], None) for _ in range(SETUP_SAMPLES)]

    plain: list[dict] = []
    traced: list[dict] = []
    longest = {False: 0.0, True: 0.0}
    failed = 0
    deadline = time.monotonic() + seconds
    while True:
        want_traced = trace and len(traced) < len(plain)
        enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_TRACED)
        if enough and time.monotonic() + longest[want_traced] > deadline:
            break
        start = time.monotonic()
        doc = run_pass(requests, WORK / "spans.tsv" if want_traced else None)
        longest[want_traced] = max(longest[want_traced], time.monotonic() - start)
        failed += count_failures(requests, doc)
        (traced if want_traced else plain).append(doc)

    attempted = len(requests) * (len(plain) + len(traced))
    if trace:
        walls = [sum(calibrated(doc, requests)[1]) for doc in plain]
        values, correct = layer_metrics(requests, traced, walls)
        units = per_layer_units()
        if not correct:
            print("perfbench: layer counts differ between traced passes", file=sys.stderr)
    else:
        values = timing_metrics([calibrated(doc, requests) for doc in setup + plain])
        values["peak_rss_mb"] = median(doc["rss_mb"] for doc in plain)
        units = END_TO_END
        correct = True
    result = {"correct": failed == 0 and correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    env = dict(warm["env"], workload=workload, seed=seed, trace=trace, jobs=1,
               nproc=os.cpu_count(), loadavg=os.getloadavg(),
               passes=len(plain), traced_passes=len(traced),
               requests=[r.name for r in requests], fail_ratio=failed / attempted,
               raw=timing_metrics([(doc["import_s"], [r["seconds"] for r in doc["requests"]])
                                   for doc in setup + plain]),
               slowdown=median(slowdown(ref) for doc in setup + plain for ref in doc["reference_s"]))
    return result, env


def timing_metrics(times: list[tuple[float, list[float]]]) -> dict[str, float]:
    """setup_s over every pass, request metrics over the passes with requests."""
    passes = [t for _, t in times if t]
    out = {"setup_s": median(imp for imp, _ in times), "wall_s": median(sum(t) for t in passes)}
    for i in range(len(passes[0])):
        out[f"req{i + 1}_s"] = median(t[i] for t in passes)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("CMTKIT_BACKEND", "CMTKIT_SEED"):
        if var in os.environ:
            print(f"perfbench: refusing to run with {var} set", file=sys.stderr)
            return 2
    if not (SRC / "cmtkit" / "cli.py").is_file():
        print(f"perfbench: cmtkit sources not found under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        result, env = measure(name, args.seed, args.seconds, bool(args.trace))
        all_correct &= result["correct"]
        print(json.dumps({"env": env}))
        labels = dict(zip(("req1_s", "req2_s", "req3_s"), env["requests"]))
        for key, metric in result["metrics"].items():
            label = f" ({labels[key]})" if key in labels else ""
            raw = f" (raw {env['raw'][key]:.6g})" if key in env["raw"] else ""
            print(f"{name} {key}{label} {metric['value']:.6g} {metric['unit']}{raw}")
        print(f"{name} fail_ratio {env['fail_ratio']:.6g} "
              f"({result['failed']}/{result['attempted']})")
        print(json.dumps(result))
    return 0 if all_correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
