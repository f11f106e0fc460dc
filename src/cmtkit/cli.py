"""Command-line surface.

Each command's handler returns its result and writes nothing: a report
command returns its JSON fields after "schema" and "command", a facet-file
command the complex to emit.  main alone writes the result, as JSON with
"schema": 1 or as a facet file, to stdout or to -o, and derives the exit
code from it: 1 exactly when the report says "ok": false (a check report
then carries its witness, a verify report its failing suite), else 0.
Exit code 2 is for usage or parse errors, an output file or stdout that
cannot be written, and an internal error (reported as `cmtkit: internal error:
<type>: <message>`, never as a traceback).

Each command is described once, in COMMANDS.  main reads a plain argv (a
command, exact option strings with their values, positionals) straight
from that table; anything else (help, --version, abbreviations, '=' forms,
a usage error) goes to the argparse parser that build_parser makes from the
same table, so help text, usage errors and exit codes are argparse's.  A
plain request builds no parser and never imports argparse.  Nor does it
import a module it does not run: cmd_verify imports the suites and cmd_gen
the generators, and no command imports the SNF oracle.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .classify import (
    classify,
    cm_t_witness,
    explore_join,
    k_cm_t_witness,
    normalize_criterion,
)
from .core import Face, SimplicialComplex
from .fields import FieldSpec
from .files import ParseError, dump, emit, load
from .homology import reduced_betti

SCHEMA = 1

# suites.SUITE_NAMES, written here too so that reading a verify argv (or
# building the parser) does not import the suites; a test keeps them equal
SUITE_NAMES = ("link_laws", "criteria_equivalence", "link_recursion", "k_link_recursion",
               "deletion_theorem", "skeleton_theorem", "monotonicity", "paper_fixtures",
               "all")

# verify holds its whole corpus in memory, about 0.8 KB a seed (29 MB at
# 20,000 seeds, 15 MB at none): 65,536 seeds take about 70 MB
_MAX_SEEDS = 1 << 16


def _face_from_labels(cx: SimplicialComplex, text: str) -> Face:
    tokens = text.split()  # whitespace only, as in facet files: a label may hold commas
    index = {lb: i for i, lb in enumerate(cx.labels)}
    missing = [t for t in tokens if t not in index]
    if missing:
        raise ValueError(f"unknown vertex label(s): {missing}")
    face = Face(index[t] for t in tokens)
    if not cx.contains(face):  # named by the labels given, not by internal ids
        raise ValueError(f"not a face of the complex: {tokens}")
    return face


def cmd_homology(args) -> dict:
    cx = load(args.file)
    field = FieldSpec.parse(args.field)
    betti = reduced_betti(cx, field)
    dim = cx.dim
    return {"field": field.token, "dim": dim,
            "betti": {str(d): betti[d] for d in range(-1, dim + 1)}}


def cmd_check(args) -> dict:
    cx = load(args.file)
    field = FieldSpec.parse(args.field)
    t = max(args.t, 0)  # CM_t for t <= 0 is CM_0
    report: dict = {"field": field.token, "t": t}
    if args.k is not None:
        report.update(k=args.k, property=f"{args.k}-CM_{t}")
        witness = k_cm_t_witness(cx, args.k, t, field)
    else:
        criterion = normalize_criterion(args.criterion)
        report.update(criterion=criterion, property=f"CM_{t}")
        witness = cm_t_witness(cx, t, field, criterion)
    report["ok"] = witness is None
    report["witnesses"] = [] if witness is None else [witness.to_json(cx)]
    return report


def cmd_classify(args) -> dict:
    cx = load(args.file)
    return classify(cx, FieldSpec.parse(args.field)).to_json()


def cmd_link(args) -> SimplicialComplex:
    cx = load(args.file)
    return cx.link(_face_from_labels(cx, args.face)).compact()


def cmd_skeleton(args) -> SimplicialComplex:
    return load(args.file).skeleton(args.j).compact()


def cmd_join(args) -> SimplicialComplex:
    return load(args.file_a).join(load(args.file_b))


_FAMILIES = {
    "simplex": lambda g, a: g.simplex(a.n),
    "boundary": lambda g, a: g.boundary_simplex(a.n),
    "glued": lambda g, a: g.glued_simplices(g.GluedFamilySpec.uniform(a.d, a.m, a.overlap)),
    "miyazaki": lambda g, a: g.miyazaki_example()[0],
    "rp2": lambda g, a: g.projective_plane_6(),
    "random": lambda g, a: g.random_pure(a.n, a.d, a.density, a.seed),
}


def cmd_gen(args) -> SimplicialComplex:
    from . import generators  # here, not at the top: only gen runs them

    return _FAMILIES[args.family](generators, args)


def cmd_explore_join(args) -> dict:
    pool = [load(args.file_a), load(args.file_b)]
    field = FieldSpec.parse(args.field)
    observations = explore_join(pool, field)
    return {
        "field": field.token,
        "exploratory": True,
        "note": "observed values only; no relationship is asserted",
        "observations": [o.to_json() for o in observations],
    }


def cmd_verify(args) -> dict:
    from . import suites  # here, not at the top: only verify runs them

    field = FieldSpec.parse(args.field)
    if args.max_n < 1:
        raise ValueError(f"--max-n must be at least 1, got {args.max_n}")
    if args.seeds < 0:
        raise ValueError(f"--seeds must be non-negative, got {args.seeds}")
    if args.seeds > _MAX_SEEDS:
        raise ValueError(f"--seeds must be at most {_MAX_SEEDS}, got {args.seeds}")
    seed_base = suites.DEFAULT_SEED_BASE
    env_seed = os.environ.get("CMTKIT_SEED")
    if env_seed is not None:
        try:
            seed_base = int(env_seed)
        except ValueError:
            raise ValueError(f"CMTKIT_SEED must be an integer, got {env_seed!r}") from None
    corpus = suites.build_corpus(max_n=args.max_n, seeds=args.seeds, seed_base=seed_base)
    reports = suites.run_suites([args.suite], corpus, field=field)
    ce_paths = []
    ce_dir = Path(args.output).parent if args.output else Path.cwd()
    for rep in reports:
        for i, failure in enumerate(rep.failures):
            if failure.complex is not None:
                path = ce_dir / f"cmtkit-counterexample-{rep.suite}-{i}.cplx"
                dump(failure.complex.compact(), path)
                ce_paths.append(str(path))
    return {
        "field": field.token,
        "suite": args.suite,
        "max_n": args.max_n,
        "seeds": args.seeds,
        "seed_base": seed_base,
        "ok": all(rep.ok for rep in reports),
        "suites": [rep.to_json() for rep in reports],
        "counterexample_files": ce_paths,
    }


class _Arg:
    """One argument of a command, as argparse's add_argument takes it: a
    positional when its one flag has no leading '-', else an option under
    each of its flags, stored under dest (argparse's own derivation)."""

    __slots__ = ("flags", "dest", "type", "default", "choices", "required", "help")

    def __init__(self, *flags, type=None, default=None, choices=None, required=False,
                 help=None):
        self.flags = flags
        name = next((f for f in flags if f.startswith("--")), flags[0])
        self.dest = name.lstrip("-").replace("-", "_")
        self.type, self.default, self.choices = type, default, choices
        self.required, self.help = required, help

    @property
    def positional(self) -> bool:
        return not self.flags[0].startswith("-")


def _common(output: str) -> tuple[_Arg, _Arg]:
    return (_Arg("--field", default="gf2", help="coefficient field: gf<p> or q"),
            _Arg("-o", "--output", help=f"write the {output} here instead of stdout"))


_REPORT = _common("JSON report")
_COMPLEX = _common("facet file")

# Every command once: its handler, its help line and its arguments in the
# order that help lists them.  main reads plain argv straight from this
# table; build_parser builds the argparse parser from it for everything else.
COMMANDS = {
    "homology": (cmd_homology, "reduced Betti numbers of a complex",
                 (_Arg("file"), *_REPORT)),
    "check": (cmd_check, "decide CM_t (or k-CM_t with --k)", (
        _Arg("file"),
        _Arg("--t", type=int, default=0, help="CM_t index (default 0 = CM)"),
        _Arg("--k", type=int, help="decide k-CM_t instead"),
        _Arg("--criterion", default="def", choices=("def", "reisner", "local"),
             help="CM_t criterion (ignored with --k)"),
        *_REPORT)),
    "classify": (cmd_classify, "full classification report", (_Arg("file"), *_REPORT)),
    "link": (cmd_link, "link of a face, as a facet file", (
        _Arg("file"),
        _Arg("--face", required=True, help="vertex labels, e.g. --face '1 3'"),
        *_COMPLEX)),
    "skeleton": (cmd_skeleton, "j-skeleton, as a facet file", (
        _Arg("file"),
        _Arg("-j", type=int, required=True, help="skeleton dimension (>= -1)"),
        *_COMPLEX)),
    "join": (cmd_join, "simplicial join of two complexes",
             (_Arg("file_a"), _Arg("file_b"), *_COMPLEX)),
    "gen": (cmd_gen, "emit a generated complex as a facet file", (
        _Arg("family", choices=tuple(_FAMILIES)),
        _Arg("-n", type=int, default=3, help="vertex count (simplex/boundary/random)"),
        _Arg("-d", type=int, default=3, help="facet size (glued/random)"),
        _Arg("-m", type=int, default=2, help="number of glued simplices"),
        _Arg("--overlap", type=int, default=0,
             help="pairwise intersection dimension for glued families"),
        _Arg("--density", type=float, default=0.5, help="facet density (random)"),
        _Arg("--seed", type=int, default=42, help="random seed"),
        *_COMPLEX)),
    "explore-join": (cmd_explore_join, "observed min_t of two factors and their join",
                     (_Arg("file_a"), _Arg("file_b"), *_REPORT)),
    "verify": (cmd_verify, "run a named property suite over a generated corpus", (
        _Arg("--suite", default="all", choices=SUITE_NAMES),
        _Arg("--max-n", type=int, default=6, help="vertex bound for the generated corpus"),
        _Arg("--seeds", type=int, default=10, help="number of random corpus seeds"),
        *_REPORT)),
}

# argparse reads a token of this form as a value, not an option, when no
# option string looks like a negative number (none here does)
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_plain(token: str) -> bool:
    return not token.startswith("-") or _NEGATIVE_NUMBER.match(token) is not None


def _value(arg: _Arg, text: str):
    """arg's value read from text, type first and then choices, as argparse
    does; ValueError when either refuses it."""
    value = text if arg.type is None else arg.type(text)
    if arg.choices is not None and value not in arg.choices:
        raise ValueError(f"{value!r} is not a choice")
    return value


def _read_plain(argv: list[str]):
    """The namespace argparse would return for argv, when every token is
    plain: a command, then exact option strings each followed by its value,
    and positionals; a value or positional starts with '-' only as a
    negative number.  None for anything else (help, --version, '--',
    abbreviations, '=' forms, unknown options, a type, choice or count
    error), which build_parser's parser then handles."""
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, _, arguments = COMMANDS[argv[0]]
    options = {flag: a for a in arguments if not a.positional for flag in a.flags}
    positionals = [a for a in arguments if a.positional]
    values = {a.dest: a.default for a in arguments}
    seen, plain = set(), []
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            arg = options.get(token)
            if arg is None:
                if not _is_plain(token):
                    return None
                plain.append(token)
                continue
            value = next(tokens, None)
            if value is None or not _is_plain(value):
                return None
            values[arg.dest] = _value(arg, value)
            seen.add(arg.dest)
        if len(plain) != len(positionals):
            return None
        for arg, token in zip(positionals, plain):
            values[arg.dest] = _value(arg, token)
    except ValueError:
        return None
    if any(a.required and a.dest not in seen for a in arguments):
        return None
    return SimpleNamespace(command=argv[0], fn=fn, **values)


@functools.cache  # once per process, and only when _read_plain declines: about 3-5 ms
def build_parser():
    """argparse's parser for every command in COMMANDS."""
    import argparse  # here, not at the top: a plain argv never loads it (or gettext)

    parser = argparse.ArgumentParser(
        prog="cmtkit",
        description="Decide Cohen-Macaulay, CM_t, Buchsbaum and k-CM_t properties "
                    "of simplicial complexes, exactly, over GF(p) or Q.")
    parser.add_argument("--version", action="version", version=f"cmtkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        for a in arguments:
            common = {"type": a.type, "choices": a.choices, "help": a.help}
            if a.positional:
                p.add_argument(a.flags[0], **common)
            else:
                p.add_argument(*a.flags, dest=a.dest, default=a.default,
                               required=a.required, **common)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return 2 if e.code not in (0, None) else 0
    try:
        result = args.fn(args)
        if isinstance(result, SimplicialComplex):
            text, code = emit(result), 0
        else:
            report = {"schema": SCHEMA, "command": args.command, **result}
            text, code = json.dumps(report, indent=2) + "\n", 1 if report.get("ok") is False else 0
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()  # a full stdout fails here, not after main returns
        return code
    except ParseError as e:
        print(f"cmtkit: parse error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        # domain errors (void complex, bad parameters) are input errors here
        print(f"cmtkit: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # load() turns read errors into ParseError: this is a write
        target = e.filename or args.output or "stdout"  # a failed write or close has no filename
        print(f"cmtkit: cannot write {target}: {e.strerror or e}", file=sys.stderr)
        return 2
    except Exception as e:  # a defect: report it as one line, within the 0/1/2 contract
        print(f"cmtkit: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def run_main() -> None:  # console-script entry point
    code = main()
    try:
        sys.stdout.flush()
    except OSError:  # main reported it; drop what stdout still holds so the exit code stands
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run_main()
