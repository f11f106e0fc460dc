"""Command-line surface.

Exit codes: 0 when the command succeeded (and, for deciders, the property
holds), 1 when a decided property fails, 2 on usage or parse errors, when
an output file cannot be written, and on an internal error (reported as
`cmtkit: internal error: <type>: <message>`, never as a traceback).
Reports are JSON with a stable schema (schema: 1); exit code 1 is always
accompanied by a concrete witness in the report.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .classify import (
    ClassificationReport,
    classify,
    cm_t_witness,
    explore_join,
    k_cm_t_witness,
    normalize_criterion,
)
from .core import Face, SimplicialComplex
from .fields import FieldSpec
from .files import ParseError, dump, emit, load
from .generators import (
    GluedFamilySpec,
    boundary_simplex,
    glued_simplices,
    miyazaki_example,
    projective_plane_6,
    random_pure,
    simplex,
)
from .homology import reduced_betti
from .suites import DEFAULT_SEED_BASE, SUITE_NAMES, build_corpus, run_suites

SCHEMA = 1


class UsageError(Exception):
    pass


def _face_from_labels(cx: SimplicialComplex, text: str) -> Face:
    tokens = text.split()  # whitespace only, as in facet files: a label may hold commas
    index = {lb: i for i, lb in enumerate(cx.labels)}
    missing = [t for t in tokens if t not in index]
    if missing:
        raise UsageError(f"unknown vertex label(s): {missing}")
    face = Face(index[t] for t in tokens)
    if not cx.contains(face):  # named by the labels given, not by internal ids
        raise UsageError(f"not a face of the complex: {tokens}")
    return face


def _write_report(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=False) + "\n"
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _write_complex(cx: SimplicialComplex, args) -> None:
    if getattr(args, "output", None):
        dump(cx, args.output)
    else:
        sys.stdout.write(emit(cx))


def cmd_homology(args) -> int:
    cx = load(args.file)
    field = FieldSpec.parse(args.field)
    betti = reduced_betti(cx, field)
    dim = cx.dim
    _write_report({
        "schema": SCHEMA,
        "command": "homology",
        "field": field.token,
        "dim": dim,
        "betti": {str(d): betti[d] for d in range(-1, dim + 1)},
    }, args)
    return 0


def cmd_check(args) -> int:
    cx = load(args.file)
    field = FieldSpec.parse(args.field)
    t = max(args.t, 0)  # CM_t for t <= 0 is CM_0
    report: dict = {"schema": SCHEMA, "command": "check", "field": field.token, "t": t}
    if args.k is not None:
        report["k"] = args.k
        report["property"] = f"{args.k}-CM_{t}"
        witness = k_cm_t_witness(cx, args.k, t, field)
    else:
        criterion = normalize_criterion(args.criterion)
        report["criterion"] = criterion
        report["property"] = f"CM_{t}"
        witness = cm_t_witness(cx, t, field, criterion)
    report["ok"] = witness is None
    report["witnesses"] = [] if witness is None else [witness.to_json(cx)]
    _write_report(report, args)
    return 0 if witness is None else 1


def cmd_classify(args) -> int:
    cx = load(args.file)
    report: ClassificationReport = classify(cx, FieldSpec.parse(args.field))
    _write_report({"schema": SCHEMA, "command": "classify", **report.to_json()}, args)
    return 0


def cmd_link(args) -> int:
    cx = load(args.file)
    face = _face_from_labels(cx, args.face)
    _write_complex(cx.link(face).compact(), args)
    return 0


def cmd_skeleton(args) -> int:
    cx = load(args.file)
    _write_complex(cx.skeleton(args.j).compact(), args)
    return 0


def cmd_join(args) -> int:
    a = load(args.file_a)
    b = load(args.file_b)
    _write_complex(a.join(b), args)
    return 0


_FAMILIES = {
    "simplex": lambda a: simplex(a.n),
    "boundary": lambda a: boundary_simplex(a.n),
    "glued": lambda a: glued_simplices(GluedFamilySpec.uniform(a.d, a.m, a.overlap)),
    "miyazaki": lambda a: miyazaki_example()[0],
    "rp2": lambda a: projective_plane_6(),
    "random": lambda a: random_pure(a.n, a.d, a.density, a.seed),
}


def cmd_gen(args) -> int:
    _write_complex(_FAMILIES[args.family](args), args)
    return 0


def cmd_explore_join(args) -> int:
    pool = [load(args.file_a), load(args.file_b)]
    field = FieldSpec.parse(args.field)
    observations = explore_join(pool, field)
    _write_report({
        "schema": SCHEMA,
        "command": "explore-join",
        "field": field.token,
        "exploratory": True,
        "note": "observed values only; no relationship is asserted",
        "observations": [o.to_json() for o in observations],
    }, args)
    return 0


def cmd_verify(args) -> int:
    field = FieldSpec.parse(args.field)
    if args.max_n < 1:
        raise UsageError(f"--max-n must be at least 1, got {args.max_n}")
    if args.seeds < 0:
        raise UsageError(f"--seeds must be non-negative, got {args.seeds}")
    seed_base = DEFAULT_SEED_BASE
    env_seed = os.environ.get("CMTKIT_SEED")
    if env_seed is not None:
        try:
            seed_base = int(env_seed)
        except ValueError:
            raise UsageError(f"CMTKIT_SEED must be an integer, got {env_seed!r}") from None
    corpus = build_corpus(max_n=args.max_n, seeds=args.seeds, seed_base=seed_base)
    reports = run_suites([args.suite], corpus, field=field)
    ce_paths = []
    ce_dir = Path(args.output).parent if args.output else Path.cwd()
    for rep in reports:
        for i, failure in enumerate(rep.failures):
            if failure.complex is not None:
                path = ce_dir / f"cmtkit-counterexample-{rep.suite}-{i}.cplx"
                dump(failure.complex.compact(), path)
                ce_paths.append(str(path))
    ok = all(rep.ok for rep in reports)
    _write_report({
        "schema": SCHEMA,
        "command": "verify",
        "field": field.token,
        "suite": args.suite,
        "max_n": args.max_n,
        "seeds": args.seeds,
        "seed_base": seed_base,
        "ok": ok,
        "suites": [rep.to_json() for rep in reports],
        "counterexample_files": ce_paths,
    }, args)
    return 0 if ok else 1


@functools.cache  # once per process: building all nine subparsers takes about 2 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmtkit",
        description="Decide Cohen-Macaulay, CM_t, Buchsbaum and k-CM_t properties "
                    "of simplicial complexes, exactly, over GF(p) or Q.")
    parser.add_argument("--version", action="version", version=f"cmtkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fn, output_is_complex=False):
        p.add_argument("--field", default="gf2", help="coefficient field: gf<p> or q")
        p.add_argument("-o", "--output",
                       help="write the %s here instead of stdout"
                            % ("facet file" if output_is_complex else "JSON report"))
        p.set_defaults(fn=fn)

    p = sub.add_parser("homology", help="reduced Betti numbers of a complex")
    p.add_argument("file")
    add_common(p, cmd_homology)

    p = sub.add_parser("check", help="decide CM_t (or k-CM_t with --k)")
    p.add_argument("file")
    p.add_argument("--t", type=int, default=0, help="CM_t index (default 0 = CM)")
    p.add_argument("--k", type=int, default=None, help="decide k-CM_t instead")
    p.add_argument("--criterion", default="def", choices=("def", "reisner", "local"),
                   help="CM_t criterion (ignored with --k)")
    add_common(p, cmd_check)

    p = sub.add_parser("classify", help="full classification report")
    p.add_argument("file")
    add_common(p, cmd_classify)

    p = sub.add_parser("link", help="link of a face, as a facet file")
    p.add_argument("file")
    p.add_argument("--face", required=True, help="vertex labels, e.g. --face '1 3'")
    add_common(p, cmd_link, output_is_complex=True)

    p = sub.add_parser("skeleton", help="j-skeleton, as a facet file")
    p.add_argument("file")
    p.add_argument("-j", type=int, required=True, help="skeleton dimension (>= -1)")
    add_common(p, cmd_skeleton, output_is_complex=True)

    p = sub.add_parser("join", help="simplicial join of two complexes")
    p.add_argument("file_a")
    p.add_argument("file_b")
    add_common(p, cmd_join, output_is_complex=True)

    p = sub.add_parser("gen", help="emit a generated complex as a facet file")
    p.add_argument("family", choices=tuple(_FAMILIES))
    p.add_argument("-n", type=int, default=3, help="vertex count (simplex/boundary/random)")
    p.add_argument("-d", type=int, default=3, help="facet size (glued/random)")
    p.add_argument("-m", type=int, default=2, help="number of glued simplices")
    p.add_argument("--overlap", type=int, default=0,
                   help="pairwise intersection dimension for glued families")
    p.add_argument("--density", type=float, default=0.5, help="facet density (random)")
    p.add_argument("--seed", type=int, default=42, help="random seed")
    add_common(p, cmd_gen, output_is_complex=True)

    p = sub.add_parser("explore-join", help="observed min_t of two factors and their join")
    p.add_argument("file_a")
    p.add_argument("file_b")
    add_common(p, cmd_explore_join)

    p = sub.add_parser("verify", help="run a named property suite over a generated corpus")
    p.add_argument("--suite", default="all", choices=SUITE_NAMES)
    p.add_argument("--max-n", dest="max_n", type=int, default=6,
                   help="vertex bound for the generated corpus")
    p.add_argument("--seeds", type=int, default=10, help="number of random corpus seeds")
    add_common(p, cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"cmtkit: parse error: {e}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as e:
        # domain errors (void complex, bad parameters) are input errors here
        print(f"cmtkit: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # load() turns read errors into ParseError: this is a write
        print(f"cmtkit: cannot write {e.filename}: {e.strerror or e}", file=sys.stderr)
        return 2
    except Exception as e:  # a defect: report it as one line, within the 0/1/2 contract
        print(f"cmtkit: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def run_main() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    run_main()
