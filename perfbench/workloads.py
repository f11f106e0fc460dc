"""Workload definitions: CLI requests, their seeded inputs and pinned verdicts.

Every input is the j-skeleton of the boundary sphere of the (n-1)-simplex
(j = n - 2 is the sphere itself).  Its facets are all (j+1)-subsets of n
vertices, so the benchmark writes the facet files itself and derives each
expected verdict from a closed form, independently of the program:

* the boundary sphere is Cohen-Macaulay over every field;
* removing one vertex leaves a full simplex of the same dimension and
  removing two drops the dimension, so max_k = 2 for every t and the first
  failing 3-CM_0 removal set is the two smallest vertices;
* the j-skeleton has one nonzero reduced Betti number, C(n-1, j+1), in
  degree j;
* every theorem suite passes, for any corpus seed.

The seed only chooses vertex labels and facet order, which leaves every
verdict (up to the labels it names) and the amount of work unchanged, and
the corpus seed of the verify request.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path

# Corpus of `verify --max-n 7 --seeds 20`: 11 glued fixtures, boundary
# spheres on 2..6 vertices and 20 seeded random complexes.  link_laws adds
# one join case for each of the first 8 items; paper_fixtures has its own
# fixed list of 38 checks.
VERIFY_CORPUS = 11 + 5 + 20
VERIFY_CASES = {
    "link_laws": VERIFY_CORPUS + 8,
    "criteria_equivalence": VERIFY_CORPUS,
    "link_recursion": VERIFY_CORPUS,
    "k_link_recursion": VERIFY_CORPUS,
    "deletion_theorem": VERIFY_CORPUS,
    "skeleton_theorem": VERIFY_CORPUS,
    "monotonicity": VERIFY_CORPUS,
    "paper_fixtures": 38,
}


# Reference work a request's time is calibrated against, as indices into
# worker.reference (interpreter loop, numpy elimination, object allocation).
# Load slows the interpreter far more than numpy's inner loops, so homology
# over GF(p), which dense numpy elimination dominates, uses the numpy
# reference alone; everything else uses all three.
ALL_REFERENCES = (0, 1, 2)
NUMPY_REFERENCE = (1,)


@dataclass(frozen=True)
class Request:
    """One CLI call.  `{file}` in argv stands for the request's facet file."""

    name: str                   # metric name in the human-readable report
    argv: tuple[str, ...]
    sphere: tuple[int, int] | None = None   # (n, j) of the input, if any
    exit_code: int = 0
    reference: tuple[int, ...] = ALL_REFERENCES

    def expected(self, labels: list[str], seed: int) -> dict:
        """Report fields the CLI must return, derived from closed forms."""
        command = self.argv[0]
        fld = self.argv[self.argv.index("--field") + 1]
        out: dict = {"command": command, "field": fld}
        if command == "verify":
            out.update(ok=True, seed_base=seed, counterexample_files=[],
                       suites=[{"suite": s, "cases": c, "ok": True, "failures": []}
                               for s, c in VERIFY_CASES.items()])
            return out
        n, j = self.sphere
        if command == "homology":
            out.update(dim=j, betti={str(d): comb(n - 1, j + 1) if d == j else 0
                                     for d in range(-1, j + 1)})
        elif command == "classify":
            out.update(dimension=n - 2, pure=True, min_t=0, criteria_agree=True,
                       max_k_per_t={str(t): 2 for t in range(0, n - 1)})
        elif command == "check" and "--k" in self.argv:
            witness = {"kind": "restriction_dimension", "removed": sorted(labels, key=int)[:2]}
            out.update(ok=False, property="3-CM_0", witnesses=[witness])
        elif command == "check":
            out.update(ok=True, property="CM_0", witnesses=[])
        else:
            raise ValueError(f"no pinned verdict for {command!r}")
        return out


def _homology(n: int, j: int, fld: str) -> Request:
    return Request(f"homology_{fld}_s", ("homology", "{file}", "--field", fld), (n, j),
                   reference=ALL_REFERENCES if fld == "q" else NUMPY_REFERENCE)


def _check(n: int, fld: str) -> Request:
    return Request(f"check_{fld}_s", ("check", "{file}", "--t", "0", "--field", fld), (n, n - 2))


def _classify(n: int, fld: str) -> Request:
    return Request(f"classify_{fld}_s", ("classify", "{file}", "--field", fld), (n, n - 2))


# Per-request end-to-end metrics are reported by position (req1_s, req2_s,
# req3_s) so that every workload reports the same metric names.
WORKLOADS: dict[str, tuple[Request, ...]] = {
    # Object layer: complex construction, links, memo hits, many tiny ranks.
    # verify goes last: the memo caches it leaves behind are large, and how
    # many full garbage collections then fall into a short request after it
    # would depend on the verify corpus, that is on the seed.
    "many_small": (
        _classify(8, "gf2"),
        Request("check_k_gf2_s", ("check", "{file}", "--k", "3", "--t", "0",
                                  "--field", "gf2"), (9, 7), exit_code=1),
        Request("verify_gf2_s", ("verify", "--suite", "all", "--max-n", "7",
                                 "--seeds", "20", "--field", "gf2")),
    ),
    # Dense mod-p elimination on few large matrices; GF(2) and GF(3) apart.
    "large_gfp": (
        _homology(13, 4, "gf2"),
        _homology(12, 4, "gf3"),
        _check(10, "gf2"),
    ),
    # Fraction-free Bareiss over Q, from many small links and one large block.
    "large_q": (
        _check(9, "q"),
        _homology(12, 3, "q"),
        _classify(8, "q"),
    ),
}


@dataclass(frozen=True)
class Prepared:
    """A request bound to its generated input: argv, env and pinned fields."""

    name: str
    argv: list[str]
    env: dict[str, str]
    exit_code: int
    expect: dict
    reference: tuple[int, ...] = ALL_REFERENCES


def write_sphere(path: Path, n: int, j: int, rng: random.Random) -> list[str]:
    """Write the j-skeleton of the boundary of the (n-1)-simplex with seeded
    labels and facet order; return the vertex labels."""
    labels = [str(v) for v in rng.sample(range(1, 1_000_000), n)]
    facets = [list(f) for f in combinations(labels, j + 1)]
    rng.shuffle(facets)
    for f in facets:
        rng.shuffle(f)
    path.write_text("".join(" ".join(f) + "\n" for f in facets))
    return labels


def prepare(workload: str, seed: int, work_dir: Path) -> list[Prepared]:
    """Write the workload's facet files into work_dir and bind its requests."""
    rng = random.Random(seed)
    out = []
    for i, req in enumerate(WORKLOADS[workload]):
        labels: list[str] = []
        argv = list(req.argv)
        env = {}
        if req.sphere is not None:
            path = work_dir / f"req{i + 1}.cplx"
            labels = write_sphere(path, *req.sphere, rng)
            argv = [str(path) if a == "{file}" else a for a in argv]
        if argv[0] == "verify":
            env["CMTKIT_SEED"] = str(seed)
        out.append(Prepared(req.name, argv, env, req.exit_code, req.expected(labels, seed),
                            req.reference))
    return out


def mismatches(req: Prepared, exit_code: int | None, report: dict | None) -> list[str]:
    """Differences between a CLI result and the pinned verdict (empty if none)."""
    if exit_code != req.exit_code:
        return [f"exit code {exit_code}, expected {req.exit_code}"]
    if report is None:
        return ["no JSON report"]
    return [f"{key}: got {report.get(key)!r}, expected {want!r}"
            for key, want in req.expect.items() if report.get(key) != want]
