"""The small value classes: dataclass-style equality, hash, repr and
immutability without importing dataclasses."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import cmtkit
from cmtkit import (
    GF2,
    GF3,
    RATIONALS,
    ClassificationReport,
    DeletionReport,
    Face,
    FieldSpec,
    GluedFamilySpec,
    JoinObservation,
    Witness,
    boundary_matrices,
    boundary_simplex,
)
from cmtkit.suites import CaseFailure, SuiteReport


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # compare the module set before and after, so that what site imports does not count
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import cmtkit.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n")
    src = str(Path(cmtkit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


class TestFieldSpec:
    def test_value_semantics(self):
        assert FieldSpec(3) == FieldSpec(p=3) == GF3
        assert FieldSpec() == GF2 and FieldSpec(None) == RATIONALS
        assert GF2 != GF3 and GF2 != RATIONALS and GF2 != 2
        assert hash(FieldSpec(3)) == hash(GF3) == hash((3,))
        assert {GF2: 1}[FieldSpec.parse("gf2")] == 1

    def test_repr(self):
        assert repr(GF2) == "FieldSpec(p=2)"
        assert repr(RATIONALS) == "FieldSpec(p=None)"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            GF2.p = 3
        with pytest.raises(AttributeError):
            del GF2.p
        assert GF2.p == 2

    @pytest.mark.parametrize("p, message", [
        (4, "4 is not prime"),
        (1, "field characteristic out of range: 1"),
        ("x", "field characteristic out of range: 'x'"),
        (2 ** 31, "field characteristic out of range: 2147483648"),
    ])
    def test_validation(self, p, message):
        with pytest.raises(ValueError) as exc:
            FieldSpec(p)
        assert str(exc.value) == message


class TestWitness:
    def test_nested_equality_and_hash(self):
        def make(degree):
            inner = Witness("link_homology", face=Face((3,)), degree=degree)
            return Witness("link_not_cm", Face((1, 2)), inner=inner)
        assert make(0) == make(0) and hash(make(0)) == hash(make(0))
        assert make(0) != make(1)
        assert Witness(kind="impure") == Witness("impure", None, None, None, None)

    def test_repr_and_frozen(self):
        w = Witness("restriction", removed=(1, 2))
        assert repr(w) == ("Witness(kind='restriction', face=None, degree=None, "
                           "removed=(1, 2), inner=None)")
        with pytest.raises(AttributeError):
            w.kind = "impure"


class TestReports:
    def test_classification_report(self):
        a = ClassificationReport(2, True, GF2, 1, {1: 2})
        assert a == ClassificationReport(dimension=2, pure=True, field=GF2, min_t=1,
                                         max_k_per_t={1: 2}, criteria_agree=True)
        assert a != ClassificationReport(2, True, GF3, 1, {1: 2})
        assert repr(a) == ("ClassificationReport(dimension=2, pure=True, field=FieldSpec(p=2), "
                           "min_t=1, max_k_per_t={1: 2}, criteria_agree=True)")
        with pytest.raises(AttributeError):
            a.min_t = 0
        b, c = ClassificationReport(1, False, GF2, None), ClassificationReport(1, False, GF2, None)
        assert b.max_k_per_t == {} and b.max_k_per_t is not c.max_k_per_t

    def test_classification_report_is_unhashable(self):
        # it holds a dict, so it declares no hash rather than failing inside one
        a = ClassificationReport(2, True, GF2, 1, {1: 2})
        with pytest.raises(TypeError, match="unhashable type: 'ClassificationReport'"):
            hash(a)
        assert ClassificationReport.__hash__ is None

    def test_join_observation(self):
        j = JoinObservation(0, 1, 2, 3, 4)
        assert j == JoinObservation(left_index=0, right_index=1, left_min_t=2, right_min_t=3,
                                    join_min_t=4)
        assert hash(j) == hash(JoinObservation(0, 1, 2, 3, 4))
        assert repr(j) == ("JoinObservation(left_index=0, right_index=1, left_min_t=2, "
                           "right_min_t=3, join_min_t=4)")
        with pytest.raises(AttributeError):
            j.join_min_t = 0

    def test_deletion_report(self):
        _, rep = boundary_simplex(3).delete_cofaces([(0,)])
        assert rep == DeletionReport(True, None, False)
        assert hash(rep) == hash(DeletionReport(True, None, False))
        assert repr(rep) == ("DeletionReport(union_condition=True, violating_pair=None, "
                             "dim_dropped=False)")
        with pytest.raises(AttributeError):
            rep.dim_dropped = True

    def test_case_failure(self):
        cx = boundary_simplex(3)
        f = CaseFailure("link_laws", "case", cx)
        assert f == CaseFailure(suite="link_laws", case="case", complex=cx)
        assert hash(f) == hash(CaseFailure("link_laws", "case", cx))
        assert f != CaseFailure("link_laws", "case")
        assert repr(CaseFailure("a", "b")) == "CaseFailure(suite='a', case='b', complex=None)"
        with pytest.raises(AttributeError):
            f.case = "other"

    def test_reports_holding_a_complex_copy_and_pickle(self):
        failure = CaseFailure("link_laws", "case", boundary_simplex(3))
        report = SuiteReport("link_laws", 1, [failure])
        for twin in (copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
            assert twin == report and twin.failures[0] is not failure
            assert twin.failures[0].complex.masks == failure.complex.masks

    def test_suite_report_is_mutable(self):
        a, b = SuiteReport("link_laws"), SuiteReport("link_laws")
        assert a == b and a.failures == [] and a.failures is not b.failures
        a.cases = 2
        a.failures.append(CaseFailure("link_laws", "x"))
        assert a != b and not a.ok
        assert repr(a) == ("SuiteReport(suite='link_laws', cases=2, "
                           "failures=[CaseFailure(suite='link_laws', case='x', complex=None)])")
        with pytest.raises(TypeError):
            hash(a)


class TestGluedFamilySpec:
    def test_value_semantics(self):
        spec = GluedFamilySpec(3, 2, [[-1, 0], [0, -1]])
        assert spec.overlap_dims == ((-1, 0), (0, -1))
        assert spec == GluedFamilySpec(d=3, m=2, overlap_dims=((-1, 0), (0, -1)))
        assert spec == GluedFamilySpec.uniform(3, 2, 0)
        assert hash(spec) == hash(GluedFamilySpec.uniform(3, 2, 0))
        assert repr(spec) == "GluedFamilySpec(d=3, m=2, overlap_dims=((-1, 0), (0, -1)))"
        with pytest.raises(AttributeError):
            spec.d = 4

    @pytest.mark.parametrize("args, message", [
        ((0, 1, ()), "need d >= 1 and m >= 1"),
        ((2, 2, ((-1,),)), "overlap table must be 2x2"),
        ((3, 2, ((-1, 0), (1, -1))), "overlap table must be symmetric at (0,1)"),
        ((3, 2, ((-1, 2), (2, -1))), "overlap dimension 2 at (0,1) outside -1..1"),
    ])
    def test_validation(self, args, message):
        with pytest.raises(ValueError) as exc:
            GluedFamilySpec(*args)
        assert str(exc.value) == message


def test_boundary_matrix():
    a, b = boundary_matrices(boundary_simplex(3))[1], boundary_matrices(boundary_simplex(3))[1]
    assert a == b
    assert a.matrix is a.matrix
    assert a.matrix.tolist() == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    assert repr(a).startswith("BoundaryMatrix(degree=1, rows=(Face(0), Face(1), Face(2)), ")
    with pytest.raises(AttributeError):
        a.degree = 0


def test_boundary_matrix_is_unhashable():
    # it holds a list of columns, so it declares no hash rather than failing inside one
    a = boundary_matrices(boundary_simplex(3))[1]
    with pytest.raises(TypeError, match="unhashable type: 'BoundaryMatrix'"):
        hash(a)
    assert a == boundary_matrices(boundary_simplex(3))[1]
    assert a != boundary_matrices(boundary_simplex(3))[0]
