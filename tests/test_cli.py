"""CLI surface: exit codes, JSON reports, witnesses, facet-file pipelines."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmtkit
from cmtkit import cli, suites
from cmtkit.cli import main
from cmtkit.files import parse
from cmtkit.generators import boundary_simplex
from cmtkit.suites import CaseFailure, SuiteReport
from cmtkit.files import emit

TWO_TRI_VERTEX = "1 2 3\n3 4 5\n"


@pytest.fixture
def two_tri(tmp_path):
    path = tmp_path / "two_tri_vertex.cplx"
    path.write_text(TWO_TRI_VERTEX)
    return str(path)


@pytest.fixture
def edges_1000(tmp_path):
    path = tmp_path / "e1k.cplx"
    path.write_text("".join(f"{2 * i} {2 * i + 1}\n" for i in range(1000)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def one_failing_suite(names, corpus, field):
    """Stand-in for run_suites: one link_laws failure on the boundary of a triangle."""
    rep = SuiteReport(suite="link_laws", cases=1)
    rep.failures.append(CaseFailure("link_laws", "synthetic failure", boundary_simplex(3)))
    return [rep]


class TestCheck:
    def test_cm_2_holds(self, two_tri, capsys):
        code, out, _ = run(capsys, ["check", two_tri, "--t", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1 and doc["ok"] is True and doc["witnesses"] == []

    def test_cm_1_fails_with_shared_vertex_witness(self, two_tri, capsys):
        code, out, _ = run(capsys, ["check", two_tri, "--t", "1"])
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["witnesses"][0]["face"] == ["3"]

    def test_criterion_flag(self, two_tri, capsys):
        for crit in ("def", "reisner", "local"):
            code, out, _ = run(capsys, ["check", two_tri, "--t", "2", "--criterion", crit])
            assert code == 0

    def test_k_flag(self, tmp_path, capsys):
        path = tmp_path / "tetra.cplx"
        path.write_text(emit(boundary_simplex(4)))
        code, _, _ = run(capsys, ["check", str(path), "--t", "0", "--k", "2"])
        assert code == 0
        code, out, _ = run(capsys, ["check", str(path), "--t", "0", "--k", "3"])
        assert code == 1
        assert json.loads(out)["witnesses"]

    def test_negative_t_reports_cm_0(self, tmp_path, capsys):
        path = tmp_path / "tetra.cplx"
        path.write_text(emit(boundary_simplex(4)))
        code, out, _ = run(capsys, ["check", str(path), "--t", "-5"])
        doc = json.loads(out)
        assert code == 0 and doc["t"] == 0 and doc["property"] == "CM_0"
        code, out, _ = run(capsys, ["check", str(path), "--t", "-5", "--k", "2"])
        doc = json.loads(out)
        assert code == 0 and doc["t"] == 0 and doc["property"] == "2-CM_0"

    def test_k_budget_usage_error(self, tmp_path, capsys):
        path = tmp_path / "edge.cplx"
        path.write_text("1 2\n")
        code, _, err = run(capsys, ["check", str(path), "--k", "9"])
        assert code == 2
        assert "budget" in err

    def test_impure_witness_reason(self, tmp_path, capsys):
        path = tmp_path / "impure.cplx"
        path.write_text("1 2 3\n4 5\n")
        code, out, _ = run(capsys, ["check", str(path), "--t", "0"])
        assert code == 1
        assert json.loads(out)["witnesses"][0]["kind"] == "impure"


class TestHomology:
    def test_betti_row(self, two_tri, tmp_path, capsys):
        code, out, _ = run(capsys, ["homology", two_tri, "--field", "gf2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 2
        # two solid triangles wedged at a vertex are acyclic
        assert doc["betti"] == {"-1": 0, "0": 0, "1": 0, "2": 0}
        circle = tmp_path / "circle.cplx"
        circle.write_text("1 2\n1 3\n2 3\n")
        _, out, _ = run(capsys, ["homology", str(circle)])
        assert json.loads(out)["betti"] == {"-1": 0, "0": 0, "1": 1}

    def test_field_choice_matters(self, tmp_path, capsys):
        from cmtkit.generators import projective_plane_6
        path = tmp_path / "rp2.cplx"
        path.write_text(emit(projective_plane_6()))
        _, out_gf2, _ = run(capsys, ["homology", str(path), "--field", "gf2"])
        _, out_q, _ = run(capsys, ["homology", str(path), "--field", "q"])
        assert json.loads(out_gf2)["betti"]["1"] == 1
        assert json.loads(out_q)["betti"]["1"] == 0

    def test_unknown_field_is_usage_error(self, two_tri, capsys):
        code, _, err = run(capsys, ["homology", two_tri, "--field", "gf9"])
        assert code == 2
        assert "gf9" in err or "prime" in err

    def test_digit_labels_that_are_not_decimal(self, tmp_path, capsys):
        # "²".isdigit() holds but int("²") raises: such labels sort as text
        path = tmp_path / "superscript.cplx"
        path.write_text("1 \u00b2\n\u00b2 3\n", encoding="utf-8")
        code, out, err = run(capsys, ["homology", str(path)])
        assert code == 0, err
        assert json.loads(out)["betti"] == {"-1": 0, "0": 0, "1": 0}

    def test_label_longer_than_int_conversion_allows(self, tmp_path, capsys):
        path = tmp_path / "long.cplx"
        path.write_text("1" * 5000 + " 2\n")
        code, out, err = run(capsys, ["homology", str(path)])
        assert code == 0, err
        assert json.loads(out)["betti"] == {"-1": 0, "0": 0, "1": 0}


class TestClassifyCommand:
    def test_report(self, two_tri, capsys):
        code, out, _ = run(capsys, ["classify", two_tri])
        assert code == 0
        doc = json.loads(out)
        assert doc["pure"] is True and doc["min_t"] == 2 and doc["criteria_agree"] is True


class TestTransformers:
    def test_link(self, two_tri, capsys):
        code, out, _ = run(capsys, ["link", two_tri, "--face", "3"])
        assert code == 0
        assert parse(out) == parse("1 2\n4 5\n")

    def test_link_of_non_face_is_usage_error(self, two_tri, capsys):
        code, _, err = run(capsys, ["link", two_tri, "--face", "1 4"])
        assert code == 2 and "not a face" in err

    def test_link_of_non_face_names_the_labels_given(self, tmp_path, capsys):
        # labels 1 and 3 are internal ids 0 and 2
        path = tmp_path / "edge_and_point.cplx"
        path.write_text("1 2\n3\n")
        code, _, err = run(capsys, ["link", str(path), "--face", "1 3"])
        assert code == 2
        assert err == "cmtkit: not a face of the complex: ['1', '3']\n"

    def test_unknown_label_is_usage_error(self, two_tri, capsys):
        code, _, err = run(capsys, ["link", two_tri, "--face", "zzz"])
        assert code == 2 and "unknown vertex label" in err

    def test_face_label_with_a_comma(self, tmp_path, capsys):
        # --face splits on whitespace only, as facet files do
        path = tmp_path / "comma.cplx"
        path.write_text("a,b c\nc d\n")
        code, out, _ = run(capsys, ["link", str(path), "--face", "a,b"])
        assert code == 0 and out == "c\n"

    def test_skeleton(self, two_tri, capsys):
        code, out, _ = run(capsys, ["skeleton", two_tri, "-j", "0"])
        assert code == 0
        assert len(parse(out).facets) == 5

    def test_join(self, tmp_path, capsys):
        a = tmp_path / "a.cplx"
        b = tmp_path / "b.cplx"
        a.write_text("p\n")
        b.write_text("q\n")
        code, out, _ = run(capsys, ["join", str(a), str(b)])
        assert code == 0
        assert parse(out).dim == 1

    def test_join_over_the_incidence_limit_is_exit_2(self, edges_1000, capsys):
        code, out, err = run(capsys, ["join", edges_1000, edges_1000])
        assert code == 2 and out == ""
        assert err == "cmtkit: 4000000 facet-vertex incidences exceed the limit of 1048576\n"

    def test_output_file(self, two_tri, tmp_path, capsys):
        out_path = tmp_path / "link.cplx"
        code, out, _ = run(capsys, ["link", two_tri, "--face", "3", "-o", str(out_path)])
        assert code == 0 and out == ""
        assert parse(out_path.read_text()) == parse("1 2\n4 5\n")


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["homology", "{f}"], ["check", "{f}", "--t", "1"], ["classify", "{f}"],
        ["link", "{f}", "--face", "3"], ["skeleton", "{f}", "-j", "0"],
        ["join", "{f}", "{f}"], ["gen", "rp2"], ["explore-join", "{f}", "{f}"],
        ["verify", "--suite", "monotonicity", "--max-n", "3", "--seeds", "0"],
    ])
    def test_missing_directory_is_exit_2(self, argv, two_tri, tmp_path, capsys):
        target = tmp_path / "missing" / "out"
        argv = [a.format(f=two_tri) for a in argv] + ["-o", str(target)]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"cmtkit: cannot write {target}: No such file or directory\n"

    def test_counterexample_file_in_missing_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(suites, "run_suites", one_failing_suite)
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, ["verify", "--suite", "link_laws", "-o", str(target)])
        assert code == 2 and out == ""
        assert err.startswith("cmtkit: cannot write "
                              f"{target.parent / 'cmtkit-counterexample-link_laws-0.cplx'}: ")

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("argv", [["gen", "boundary", "-n", "5"], ["homology", "{f}"]])
    def test_full_stdout_is_exit_2_naming_stdout(self, argv, failing, two_tri, capsys,
                                                 monkeypatch):
        # an unbuffered stdout fails on the write, a block-buffered one on the
        # flush; either OSError has no filename: the message names stdout
        def full(*_):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", type("FullStdout", (io.StringIO,), {failing: full})())
        code = main([a.format(f=two_tri) for a in argv])
        assert code == 2
        assert capsys.readouterr().err == "cmtkit: cannot write stdout: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_output_file_is_exit_2_naming_the_file(self, capsys):
        # the write or close of -o fails with no filename on the OSError
        code, out, err = run(capsys, ["gen", "boundary", "-n", "5", "-o", "/dev/full"])
        assert code == 2 and out == ""
        assert err == "cmtkit: cannot write /dev/full: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_console_script_on_a_full_stdout_exits_2(self, unbuffered):
        # block-buffered (the default off a terminal) or not, the failed write
        # is reported once and leaves nothing for the interpreter's exit flush
        src = str(Path(cmtkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "cmtkit.cli", "gen", "boundary", "-n", "5"],
                                  env=env, stdout=full, stderr=subprocess.PIPE, text=True,
                                  timeout=60)
        assert (done.returncode, done.stderr) == (
            2, "cmtkit: cannot write stdout: No space left on device\n")


class TestImports:
    def test_cli_runs_without_numpy(self, two_tri, tmp_path):
        script = f"""
import sys
from cmtkit import cli
from cmtkit.cli import main
assert "numpy" not in sys.modules, "import"
f, out = {two_tri!r}, {str(tmp_path / "out.json")!r}
for argv in (["homology", f], ["check", f, "--t", "1"], ["check", f, "--k", "2"],
             ["classify", f, "--field", "q"],
             ["verify", "--max-n", "4", "--seeds", "1", "--field", "gf3"]):
    main(argv + ["-o", out])
    assert "numpy" not in sys.modules, argv
"""
        src = str(Path(cmtkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_a_plain_command_loads_neither_argparse_nor_gettext(self, two_tri, tmp_path):
        # compare the module set before and after, so that what site imports does not count;
        # the suites, generators and SNF oracle load only for verify and gen
        script = f"""
import sys
before = set(sys.modules)
from cmtkit.cli import main
f, out = {two_tri!r}, {str(tmp_path / "out")!r}
for argv in (["homology", f], ["check", f, "--t", "1"], ["check", f, "--k", "2"],
             ["classify", f], ["link", f, "--face", "3"], ["skeleton", f, "-j", "1"],
             ["join", f, f], ["explore-join", f, f]):
    assert main(argv + ["-o", out]) in (0, 1), argv
print(sorted({{"argparse", "gettext", "cmtkit.suites", "cmtkit.generators", "cmtkit.snf"}}
             & (set(sys.modules) - before)))
assert main(["verify", "--suite", "monotonicity", "--max-n", "3", "--seeds", "0",
             "-o", out]) == 0
assert main(["gen", "rp2", "-o", out]) == 0 and len(open(out).readlines()) == 10
"""
        src = str(Path(cmtkit.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_package_names_resolve_lazily_and_fully(self):
        script = """
import sys
import cmtkit
assert not {"cmtkit.generators", "cmtkit.snf"} & set(sys.modules)
assert {"generators", "snf", "random_pure", "smith_diagonal"} <= set(dir(cmtkit))
assert cmtkit.snf is sys.modules["cmtkit.snf"] and "cmtkit.generators" not in sys.modules
names = {}
exec("from cmtkit import *", names)
assert set(cmtkit.__all__) <= set(names), set(cmtkit.__all__) - set(names)
for name in cmtkit.__all__:
    assert names[name] is getattr(cmtkit, name), name
    assert name in dir(cmtkit), name
for name in ("GluedFamilySpec", "GluedRealizabilityError", "SplitMix64", "boundary_simplex",
             "glued_simplices", "miyazaki_example", "projective_plane_6", "random_pure",
             "simplex"):
    assert getattr(cmtkit, name) is getattr(cmtkit.generators, name), name
for name in ("betti_via_snf", "smith_diagonal"):
    assert getattr(cmtkit, name) is getattr(cmtkit.snf, name), name
assert not hasattr(cmtkit, "no_such_name")
try:
    cmtkit.no_such_name
except AttributeError as e:
    assert str(e) == "module 'cmtkit' has no attribute 'no_such_name'", e
else:
    raise AssertionError("no AttributeError")
"""
        src = str(Path(cmtkit.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_suite_choices_are_the_suites_own_names(self, capsys):
        # cli keeps its own copy, so that reading a verify argv imports no suite
        (suite,) = [a for a in cli.COMMANDS["verify"][2] if a.dest == "suite"]
        assert suite.choices == cli.SUITE_NAMES == suites.SUITE_NAMES
        code, out, err = run(capsys, ["verify", "--suite", "nope"])
        assert code == 2 and out == "" and "invalid choice: 'nope'" in err
        assert all(name in err for name in suites.SUITE_NAMES)


class TestGen:
    def test_gen_then_check_pipeline(self, tmp_path, capsys):
        path = tmp_path / "glued.cplx"
        code, _, _ = run(capsys, ["gen", "glued", "-d", "3", "-m", "2",
                                  "--overlap", "0", "-o", str(path)])
        assert code == 0
        code, _, _ = run(capsys, ["check", str(path), "--t", "2"])
        assert code == 0
        code, _, _ = run(capsys, ["check", str(path), "--t", "1"])
        assert code == 1

    def test_gen_families(self, tmp_path, capsys):
        for argv in (["gen", "simplex", "-n", "4"],
                     ["gen", "boundary", "-n", "4"],
                     ["gen", "miyazaki"],
                     ["gen", "rp2"],
                     ["gen", "random", "-n", "6", "-d", "3",
                      "--density", "0.5", "--seed", "42"]):
            code, out, _ = run(capsys, argv)
            assert code == 0 and not parse(out).is_void

    def test_gen_bad_params(self, capsys):
        code, _, err = run(capsys, ["gen", "boundary", "-n", "1"])
        assert code == 2

    def test_gen_refuses_a_family_over_the_incidence_limit(self, capsys):
        for argv in (["gen", "simplex", "-n", "2000000"],
                     ["gen", "glued", "-d", "2000000", "-m", "2"],
                     ["gen", "glued", "-d", "3", "-m", "5000"],
                     ["gen", "random", "-n", "362", "-d", "360"]):
            code, out, err = run(capsys, argv)
            assert code == 2 and not out
            assert err.startswith("cmtkit: ") and "exceed the limit of 1048576" in err

    def test_gen_boundary_of_100000_vertices_exits_2_at_once(self):
        # 100000 * 99999 incidences: refused before any facet is built
        src = str(Path(cmtkit.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "cmtkit.cli", "gen", "boundary", "-n", "100000"],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=10)
        assert done.returncode == 2 and not done.stdout
        assert done.stderr == ("cmtkit: 9999900000 facet-vertex incidences exceed "
                               "the limit of 1048576\n")

    def test_gen_simplex_of_262144_vertices_is_fast(self):
        # one facet mask of 262,144 bits: its vertex ids are read byte by byte
        src = str(Path(cmtkit.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "cmtkit.cli", "gen", "simplex", "-n", "262144"],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=10)
        assert done.returncode == 0 and not done.stderr
        assert done.stdout == " ".join(map(str, range(262144))) + "\n"


class TestParser:
    def test_built_once_across_calls(self, capsys, two_tri):
        cli.build_parser.cache_clear()
        codes = [run(capsys, ["check", two_tri, "--t", "2"])[0],
                 run(capsys, ["check", two_tri, "--t", "1"])[0],
                 run(capsys, ["check", two_tri, "--t", "not-a-number"])[0],
                 run(capsys, ["homology", two_tri])[0]]
        assert codes == [0, 1, 2, 0]
        # only "--t not-a-number" is left to argparse, so it alone builds the parser
        assert cli.build_parser.cache_info().misses == 1
        assert cli.build_parser.cache_info().hits == 0

    @pytest.mark.parametrize("argv", [
        ["check", "{f}", "--t", "-5", "--criterion", "local", "--field", "q"],
        ["check", "--k", "2", "{f}"], ["homology", "{f}", "--field", "gf3"],
        ["classify", "{f}"], ["link", "{f}", "--face", "3"], ["skeleton", "-j", "0", "{f}"],
        ["join", "{f}", "--field", "q", "{f}"],
        ["gen", "random", "-n", "6", "--density", ".5", "--seed", "-3"],
        ["explore-join", "{f}", "{f}"],
        ["verify", "--suite", "monotonicity", "--max-n", "3", "--seeds", "0"],
    ])
    def test_a_plain_argv_builds_no_parser(self, argv, capsys, two_tri):
        cli.build_parser.cache_clear()
        code, _, err = run(capsys, [a.format(f=two_tri) for a in argv])
        assert code in (0, 1) and err == ""
        assert cli.build_parser.cache_info().currsize == 0


# argv built from the command table, plain or not: exact, abbreviated, '='
# and joined option forms, repeated and missing options, too few or too many
# positionals, values of the wrong type or out of their choices, and help,
# --version and '--'.  "{d}" is the directory of the argv_files fixture.
_FILES = ["{d}/tv.cplx", "{d}/missing.cplx"]
_OUTPUTS = ["{d}/out", "{d}/missing/out"]
_STRINGS = ["gf2", "gf3", "q", "3", "1 3", "zzz", ""]
_ODD_VALUES = ["-x", "-5", "-1e5", "--", "bogus", "1.5", ".5", "-.5", "1e3", "-"]
_ODD_TOKENS = [["-h"], ["--help"], ["--version"], ["--"], ["--bogus", "1"], ["-"]]


def _values(arg):
    if arg.choices is not None:
        usual = list(arg.choices)
    elif arg.type is int:
        usual = [str(i) for i in range(-2, 5)]
    elif arg.type is float:
        usual = ["0.5", "1.0", ".5", "-0.5"]
    else:
        usual = _FILES if arg.positional else _OUTPUTS if "-o" in arg.flags else _STRINGS
    return st.one_of(st.sampled_from(usual), st.sampled_from(usual), st.sampled_from(_ODD_VALUES))


@st.composite
def _option(draw, arg):
    flag = draw(st.sampled_from(arg.flags))
    value = draw(_values(arg))
    forms = [[flag, value]] * 4 + [[flag], [f"{flag}={value}"]]
    if flag.startswith("--") and len(flag) > 3:
        forms.append([flag[:-1], value])
    if not flag.startswith("--"):
        forms.append([flag + value])
    return draw(st.sampled_from(forms))


@st.composite
def _argv(draw):
    name = draw(st.sampled_from(sorted(cli.COMMANDS) * 4 + ["frobnicate", "-h", "--version"]))
    arguments = cli.COMMANDS[name][2] if name in cli.COMMANDS else ()
    items = []
    for arg in arguments:
        if arg.positional:
            count = draw(st.sampled_from([1, 1, 1, 1, 0, 2]))
            items += [[draw(_values(arg))] for _ in range(count)]
        else:
            count = draw(st.sampled_from([1, 1, 1, 2, 0] if arg.required else [0, 0, 1, 1, 2]))
            items += [draw(_option(arg)) for _ in range(count)]
    items += draw(st.lists(st.sampled_from(_ODD_TOKENS), max_size=1))
    return [name] + [token for item in draw(st.permutations(items)) for token in item]


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    (d / "tv.cplx").write_text(TWO_TRI_VERTEX)
    return str(d)


def _captured_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestPlainReader:
    """The direct reader of plain argv against argparse as the oracle."""

    @settings(max_examples=400)
    @given(_argv())
    def test_accepted_argv_parses_as_argparse_parses_it(self, argv):
        args = cli._read_plain(argv)
        if args is not None:
            assert vars(args) == vars(cli.build_parser().parse_args(argv))

    @settings(max_examples=150)
    @given(_argv())
    def test_main_answers_as_with_argparse_alone(self, argv_files, argv):
        argv = [a.format(d=argv_files) for a in argv]
        cwd = os.getcwd()
        os.chdir(argv_files)  # "-obogus" and "--output=x" write where they run
        tv = Path(argv_files) / "tv.cplx"  # "-o {d}/tv.cplx" overwrites the input
        try:
            tv.write_text(TWO_TRI_VERTEX)
            direct = _captured_main(argv)
            tv.write_text(TWO_TRI_VERTEX)
            with mock.patch.object(cli, "_read_plain", lambda argv: None):
                assert _captured_main(argv) == direct
        finally:
            os.chdir(cwd)

    def test_negative_values_are_read_directly(self):
        args = cli._read_plain(["check", "f", "--t", "-5", "--k", "-1"])
        assert args is not None and (args.t, args.k) == (-5, -1)
        args = cli._read_plain(["gen", "random", "--density", "-.5"])
        assert args is not None and args.density == -0.5

    @pytest.mark.parametrize("argv", [
        ["check", "f", "-h"], ["check", "f", "--fie", "q"], ["check", "f", "--field=q"],
        ["skeleton", "f", "-j6"], ["check", "--", "f"], ["check", "f", "--jobs", "2"],
        ["check", "f", "--t", "x"], ["check", "f", "--criterion", "x"], ["check"],
        ["check", "f", "g"], ["link", "f"], ["check", "f", "--t", "-1e5"], ["check", "f", "--t"],
        ["--version"], [], ["frobnicate"],
    ])
    def test_anything_else_is_left_to_argparse(self, argv):
        assert cli._read_plain(argv) is None


class TestParseErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["homology", "/nonexistent/file.cplx"])
        assert code == 2 and "parse error" in err

    def test_malformed_marker_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cplx"
        path.write_text("@empty-face\n1 2\n")
        code, _, err = run(capsys, ["homology", str(path)])
        assert code == 2 and "line 1" in err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_void_input_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "void.cplx"
        path.write_text("")
        code, _, err = run(capsys, ["homology", str(path)])
        assert code == 2 and "void" in err
        code, _, err = run(capsys, ["check", str(path), "--t", "0"])
        assert code == 2 and "void" in err

    def test_unknown_suite_choice(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2

    def test_json_label_of_wrong_type(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"facets": [[true, 2.5]]}')
        code, out, err = run(capsys, ["homology", str(path)])
        assert code == 2 and out == "" and "strings or integers" in err

    def test_json_label_the_text_format_cannot_hold(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"facets": [["a b", "c"], ["", "d"]]}')
        for argv in (["homology", str(path)], ["link", str(path), "--face", "c"]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == "" and "parse error" in err

    def test_text_token_the_format_cannot_write_back(self, tmp_path, capsys):
        path = tmp_path / "bad.cplx"
        path.write_text("1 2 #x\n2 3\n")
        for argv in (["homology", str(path)], ["link", str(path), "--face", "2"]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == "" and "parse error: line 1" in err

    def test_jobs_flag_is_gone(self, tmp_path, capsys):
        path = tmp_path / "tetra.cplx"
        path.write_text(emit(boundary_simplex(4)))
        assert main(["check", str(path), "--t", "0", "--k", "2", "--jobs", "2"]) == 2


class TestInternalErrors:
    def test_unexpected_exception_is_one_line_and_exit_2(self, two_tri, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("lost")

        monkeypatch.setattr("cmtkit.cli.reduced_betti", broken)
        code, out, err = run(capsys, ["homology", two_tri])
        assert code == 2 and out == ""
        assert err == "cmtkit: internal error: KeyError: 'lost'\n"


# Facet files as the CLI may meet them: small label alphabets with the
# tokens the parser must reject, comments, markers, blank lines and JSON.
_TOKENS = st.sampled_from(["1", "2", "3", "4", "5", "6", "a", "b", "07", "-1",
                           "#x", "@empty-face", "{", "\"", "\u00e9", "1.5"])
_TEXT_FILES = st.lists(
    st.one_of(st.lists(_TOKENS, max_size=5).map(" ".join),
              st.sampled_from(["", "# comment", "@empty-face", "  \t "])),
    max_size=7).map("\n".join)
_JSON_FILES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 7), st.sampled_from(["1", "a", ""])),
    lambda inner: st.lists(inner, max_size=4), max_leaves=12,
).map(lambda facets: json.dumps({"facets": facets}))
_ARGV = st.one_of(
    st.tuples(st.just("homology")),
    st.tuples(st.just("classify")),
    st.tuples(st.just("check"), st.just("--t"), st.integers(-2, 6).map(str),
              st.sampled_from(["--criterion", "--field"]),
              st.sampled_from(["def", "reisner", "local", "gf3", "q"])),
    st.tuples(st.just("check"), st.just("--k"), st.integers(-1, 3).map(str),
              st.just("--t"), st.integers(-1, 3).map(str)),
)


class TestFuzzedFacetFiles:
    @given(st.one_of(_TEXT_FILES, _JSON_FILES, st.binary(max_size=40)), _ARGV,
           st.sampled_from(["gf2", "gf3", "q", "gf4"]))
    def test_exit_code_contract(self, content, argv, field):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.cplx"
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([argv[0], str(path), "--field", field, *argv[1:]])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().startswith(("cmtkit: ", "usage: "))
        else:
            doc = json.loads(out.getvalue())
            if code == 1:
                assert doc["ok"] is False and doc["witnesses"]


def _cli_in_child(args, timeout):
    """(exit code, JSON report, peak RSS in MB) of `cmtkit args` run in a
    fresh interpreter.  The peak is the child's ru_maxrss, read by a small
    launcher: on Linux a child's ru_maxrss starts at the high-water mark of
    the process that spawned it, which would be this test runner's."""
    src = str(Path(cmtkit.__file__).resolve().parents[1])
    launcher = ("import resource, subprocess, sys\n"
                "done = subprocess.run([sys.executable, '-m', 'cmtkit.cli', *sys.argv[1:]],\n"
                "                      stdout=subprocess.PIPE, text=True)\n"
                "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
                "print(done.returncode, peak, done.stdout)\n")
    done = subprocess.run([sys.executable, "-c", launcher, *args],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          timeout=timeout)
    exit_code, kilobytes, report = done.stdout.split(" ", 2)
    return int(exit_code), json.loads(report), int(kilobytes) / 1024


class TestLargeInputs:
    def test_check_of_a_14_vertex_simplex_is_fast(self, tmp_path):
        # every link of a simplex is a cone; each used to be ranked in full
        path = tmp_path / "s14.cplx"
        path.write_text(" ".join(map(str, range(14))) + "\n")
        src = str(Path(cmtkit.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "cmtkit.cli", "check", str(path), "--t", "0"],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=20)
        assert done.returncode == 0 and json.loads(done.stdout)["ok"] is True

    def test_check_of_a_2048_vertex_simplex_takes_no_vertex_links(self, tmp_path):
        # a cone recurses into the link of its common face alone, and a
        # simplex has none; a link per vertex per level took cubic memory
        path = tmp_path / "s2048.cplx"
        src = str(Path(cmtkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-m", "cmtkit.cli", "gen", "simplex", "-n", "2048",
                        "-o", str(path)], env=env, check=True, timeout=10)
        done = subprocess.run([sys.executable, "-m", "cmtkit.cli", "check", str(path), "--t", "0"],
                              env=env, capture_output=True, text=True, timeout=10)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["ok"] is True

    def test_check_of_a_220_vertex_sphere_needs_no_deep_recursion(self, tmp_path):
        # the vertex-link recursion is as deep as the dimension (218 here); it
        # runs on an explicit stack, so no RecursionError reaches the CLI
        path = tmp_path / "s220.cplx"
        src = str(Path(cmtkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-m", "cmtkit.cli", "gen", "boundary", "-n", "220",
                        "-o", str(path)], env=env, check=True, timeout=20)
        done = subprocess.run([sys.executable, "-m", "cmtkit.cli", "check", str(path), "--t", "0"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert "internal error" not in done.stderr and "Traceback" not in done.stderr
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["ok"] is True

    def test_check_of_3000_disjoint_edges_is_fast(self, tmp_path):
        # a graph has no vertex link of dimension 1 or more: only its own
        # components are counted, with no walk over its faces and no rank
        path = tmp_path / "edges.cplx"
        path.write_text("".join(f"{2 * i} {2 * i + 1}\n" for i in range(3000)))
        src = str(Path(cmtkit.__file__).resolve().parents[1])
        code = ("import contextlib, io, sys, time\n"
                "from cmtkit.cli import main\n"
                "out = io.StringIO()\n"
                "start = time.perf_counter()\n"
                "with contextlib.redirect_stdout(out):\n"
                f"    code = main(['check', {str(path)!r}, '--t', '1'])\n"
                "print(code, time.perf_counter() - start, out.getvalue())\n")
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        exit_code, seconds, report = done.stdout.split(" ", 2)
        assert exit_code == "0" and json.loads(report)["ok"] is True, done.stderr
        assert float(seconds) < 1.5

    def test_an_ordered_10000_vertex_path_takes_linear_time(self, tmp_path):
        # each edge joins the next vertex to one component: a union-find stays
        # linear here, where merging component masks pass by pass is quadratic
        path = tmp_path / "path.cplx"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(9999)))
        code, report, _ = _cli_in_child(["check", str(path), "--t", "0"], timeout=5)
        assert code == 0 and report["ok"] is True
        code, report, _ = _cli_in_child(["homology", str(path)], timeout=5)
        assert code == 0 and report["betti"] == {"-1": 0, "0": 0, "1": 0}

    def test_10000_disjoint_edges_take_linear_memory(self, tmp_path):
        # 20,000 vertices: the graph's Betti numbers and its obstruction come
        # from a union-find keyed by vertex id, with no boundary matrix (76 MB
        # when it was ranked)
        path = tmp_path / "edges.cplx"
        path.write_text("".join(f"{2 * i} {2 * i + 1}\n" for i in range(10000)))
        code, report, _ = _cli_in_child(["check", str(path), "--t", "0"], timeout=5)
        assert code == 1 and report["witnesses"] == [{
            "kind": "link_not_cm", "face": [],
            "inner": {"kind": "link_homology", "face": [], "degree": 0}}]
        code, report, peak = _cli_in_child(["homology", str(path)], timeout=5)
        assert code == 0 and report["betti"] == {"-1": 0, "0": 9999, "1": 0}
        assert peak < 60
        code, report, peak = _cli_in_child(["check", str(path), "--t", "1"], timeout=5)
        assert code == 0 and report["ok"] is True
        assert peak < 60

    def test_check_of_10000_triangles_and_a_bowtie_is_fast(self, tmp_path):
        # the witness is the bowtie's shared vertex, above 30,000 others: each
        # descent step groups every vertex link in one pass over the facets,
        # where a pass per vertex link took quadratic time
        path = tmp_path / "triangles.cplx"
        path.write_text("".join(f"{3 * i} {3 * i + 1} {3 * i + 2}\n" for i in range(10000))
                        + "30000 30001 30002\n30002 30003 30004\n")
        src = str(Path(cmtkit.__file__).resolve().parents[1])
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "cmtkit.cli", "check", str(path), "--t", "1"],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=60)
        seconds = time.perf_counter() - start
        assert done.returncode == 1, done.stderr
        assert json.loads(done.stdout)["witnesses"] == [{
            "kind": "link_not_cm", "face": ["30002"],
            "inner": {"kind": "link_homology", "face": [], "degree": 0}}]
        assert seconds < 15

    def test_homology_of_19448_facets_is_fast(self, tmp_path):
        # the 6-skeleton of the 16-sphere: pure, so maximality compares nothing
        path = tmp_path / "sk6.cplx"
        path.write_text("".join(" ".join(map(str, c)) + "\n"
                                for c in combinations(range(17), 7)))
        src = str(Path(cmtkit.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "cmtkit.cli", "homology", str(path)],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=5)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["betti"]["6"] == 11440


class TestExploreJoin:
    def test_table(self, tmp_path, capsys):
        a = tmp_path / "a.cplx"
        b = tmp_path / "b.cplx"
        a.write_text("1 2\n2 3\n3 4\n1 4\n")  # square
        b.write_text("x\ny\n")  # two points
        code, out, _ = run(capsys, ["explore-join", str(a), str(b)])
        assert code == 0
        doc = json.loads(out)
        assert doc["exploratory"] is True
        assert len(doc["observations"]) == 1
        # both factors are CM: a connected graph and a 0-dimensional complex
        assert doc["observations"][0]["factor_min_t"] == [0, 0]


    def test_join_over_the_incidence_limit_is_exit_2(self, edges_1000, capsys):
        code, out, err = run(capsys, ["explore-join", edges_1000, edges_1000])
        assert code == 2 and out == ""
        assert err == "cmtkit: 4000000 facet-vertex incidences exceed the limit of 1048576\n"


class TestVerify:
    def test_small_clean_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, ["verify", "--suite", "link_laws",
                                    "--max-n", "5", "--seeds", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True and doc["counterexample_files"] == []

    def test_seed_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("CMTKIT_SEED", "777")
        code, out, _ = run(capsys, ["verify", "--suite", "monotonicity",
                                    "--max-n", "5", "--seeds", "2"])
        assert code == 0
        assert json.loads(out)["seed_base"] == 777

    def test_bad_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CMTKIT_SEED", "xyz")
        code, _, err = run(capsys, ["verify", "--suite", "monotonicity"])
        assert code == 2 and "CMTKIT_SEED" in err

    def test_failure_serializes_counterexample(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(suites, "run_suites", one_failing_suite)
        code, out, _ = run(capsys, ["verify", "--suite", "link_laws"])
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False and [suite["ok"] for suite in doc["suites"]] == [False]
        (ce_path,) = doc["counterexample_files"]
        assert parse(open(ce_path).read()) == boundary_simplex(3)

    @pytest.mark.parametrize("flag, value", [("--seeds", "-3"), ("--max-n", "0"),
                                             ("--max-n", "-1")])
    def test_out_of_range_corpus_size(self, capsys, flag, value):
        code, out, err = run(capsys, ["verify", "--suite", "monotonicity", flag, value])
        assert code == 2 and out == "" and flag in err

    def test_zero_seeds_is_allowed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, ["verify", "--suite", "monotonicity",
                                    "--max-n", "4", "--seeds", "0"])
        assert code == 0 and json.loads(out)["seeds"] == 0

    def test_seeds_over_the_limit_are_refused_before_the_corpus(self, capsys, monkeypatch):
        def unbounded(*args, **kwargs):
            raise AssertionError("build_corpus called")

        monkeypatch.setattr(suites, "build_corpus", unbounded)
        code, out, err = run(capsys, ["verify", "--suite", "paper_fixtures", "--seeds", "65537"])
        assert code == 2 and out == ""
        assert err == "cmtkit: --seeds must be at most 65536, got 65537\n"


# One small valid argv per command; "{f}" is the two-triangle file.
_VALID_ARGV = {
    "homology": ["{f}"], "check": ["{f}", "--t", "1"], "classify": ["{f}"],
    "link": ["{f}", "--face", "3"], "skeleton": ["{f}", "-j", "0"], "join": ["{f}", "{f}"],
    "gen": ["rp2"], "explore-join": ["{f}", "{f}"],
    "verify": ["--suite", "monotonicity", "--max-n", "3", "--seeds", "0"],
}
_FACET_FILE_COMMANDS = {"link", "skeleton", "join", "gen"}


class TestOneWriter:
    """Handlers return their result; main alone writes it and sets the exit code."""

    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_handler_returns_its_result_and_writes_nothing(self, name, two_tri, tmp_path,
                                                           capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = cli._read_plain([name] + [a.format(f=two_tri) for a in _VALID_ARGV[name]])
        result = args.fn(args)
        assert capsys.readouterr() == ("", "")
        if name in _FACET_FILE_COMMANDS:
            assert isinstance(result, cmtkit.SimplicialComplex)
        else:
            assert isinstance(result, dict) and not {"schema", "command"} & set(result)

    @pytest.mark.parametrize("argv", [
        *([name, *argv] for name, argv in _VALID_ARGV.items()),
        ["check", "{f}", "--t", "2"], ["check", "{f}", "--t", "1", "--criterion", "local"],
        ["check", "{f}", "--k", "2", "--t", "0"], ["check", "{f}", "--k", "1", "--t", "2"],
        ["check", "{d}/s10.cplx", "--t", "0", "--field", "q"],
        ["check", "{d}/s10.cplx", "--k", "3", "--t", "0"],
        ["check", "{d}/s10.cplx", "--k", "2", "--t", "0"],
        ["check", "{d}/rp2.cplx", "--t", "0"],
        ["check", "{d}/rp2.cplx", "--t", "0", "--field", "gf3"],
        ["check", "{d}/pt.cplx", "--t", "0"], ["check", "{d}/ef.cplx", "--t", "3"],
        ["homology", "{d}/rp2.cplx", "--field", "gf3"], ["classify", "{d}/rp2.cplx"],
        ["explore-join", "{f}", "{d}/pt.cplx"], ["explore-join", "{f}", "{d}/ef.cplx"],
        ["gen", "boundary", "-n", "10"], ["skeleton", "{d}/s10.cplx", "-j", "2"],
        ["verify", "--suite", "link_laws", "--max-n", "4", "--seeds", "1", "--field", "gf3"],
    ])
    def test_exit_1_exactly_when_the_report_fails(self, argv, two_tri, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s10.cplx").write_text(emit(boundary_simplex(10)))
        (tmp_path / "rp2.cplx").write_text(emit(cmtkit.projective_plane_6()))
        (tmp_path / "pt.cplx").write_text("1\n")
        (tmp_path / "ef.cplx").write_text("@empty-face\n")
        code, out, err = run(capsys, [a.format(f=two_tri, d=tmp_path) for a in argv])
        assert err == "" and code in (0, 1)
        if argv[0] in _FACET_FILE_COMMANDS:
            assert code == 0 and not parse(out).is_void
            return
        doc = json.loads(out)
        assert (doc["schema"], doc["command"]) == (1, argv[0])
        assert code == (1 if doc.get("ok") is False else 0)
        if code == 1 and argv[0] == "check":
            assert doc["witnesses"]
        if code == 1 and argv[0] == "verify":
            assert any(not suite["ok"] for suite in doc["suites"])
