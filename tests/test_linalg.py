"""Rank kernels: sparse column reduction over GF(2), odd p and Q,
cross-checked against the integer diagonalization oracle."""

import ast
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cmtkit
from cmtkit.fields import GF2, GF3, GF5, RATIONALS, FieldSpec
from cmtkit.generators import boundary_simplex
from cmtkit.homology import boundary_matrices
from cmtkit.linalg import Sparse, active_backend, rank, rank_mod_p, rank_rational
from cmtkit.snf import rank_from_diagonal, smith_diagonal

TRIANGLE_D1 = np.array([
    # columns: edges 12, 13, 23 of the triangle boundary, rows: vertices
    [-1, -1, 0],
    [1, 0, -1],
    [0, 1, 1],
], dtype=np.int64)


def test_zero_matrix():
    z = np.zeros((3, 4), dtype=np.int64)
    assert rank_mod_p(z, 2) == 0
    assert rank_rational(z) == 0


def test_identity():
    e = np.eye(3, dtype=np.int64)
    assert rank_mod_p(e, 2) == 3
    assert rank_rational(e) == 3


def test_triangle_boundary_rank_gf2():
    # hand elimination: the three edge columns sum to zero mod 2
    assert rank_mod_p(TRIANGLE_D1, 2) == 2
    assert rank_rational(TRIANGLE_D1) == 2


def test_sparse_lists_and_arrays_agree():
    sparse = Sparse(3, [{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}])
    before = [dict(col) for col in sparse.columns]
    for field in (GF2, GF3, RATIONALS):
        assert rank(sparse, field) == rank(TRIANGLE_D1.tolist(), field) == 2
        assert rank(TRIANGLE_D1, field) == 2
    assert sparse.columns == before  # the kernels reduce copies
    assert sparse.size == TRIANGLE_D1.size


def test_empty_shapes():
    assert rank(np.zeros((0, 5), dtype=np.int64), GF2) == 0
    assert rank(np.zeros((5, 0), dtype=np.int64), RATIONALS) == 0


def test_characteristic_sensitivity():
    a = np.array([[2, 0], [0, 3]], dtype=np.int64)
    assert rank(a, GF2) == 1
    assert rank(a, FieldSpec.gf(3)) == 1
    assert rank(a, GF5) == 2
    assert rank(a, RATIONALS) == 2


def test_negative_entries():
    a = np.array([[-1, 1], [1, -1]], dtype=np.int64)
    assert rank_mod_p(a, 3) == 1
    assert rank_rational(a) == 1


matrices = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m)))


# Boundary-shaped inputs: up to 30x30, each column a few +-1 entries in
# distinct rows.
sparse_sign_matrices = st.integers(1, 30).flatmap(
    lambda m: st.lists(
        st.lists(st.tuples(st.integers(0, m - 1), st.sampled_from([-1, 1])),
                 max_size=4, unique_by=lambda e: e[0]),
        min_size=1, max_size=30).map(lambda cols: _from_columns(m, cols)))


def _from_columns(m, cols):
    rows = [[0] * len(cols) for _ in range(m)]
    for c, col in enumerate(cols):
        for r, v in col:
            rows[r][c] = v
    return rows


PRIMES = [2, 3, 5, 7, 2147483647]


@given(st.one_of(matrices, sparse_sign_matrices), st.sampled_from(PRIMES))
def test_rank_mod_p_matches_snf_oracle(rows, p):
    a = np.array(rows, dtype=np.int64)
    expected = rank_from_diagonal(smith_diagonal(rows), FieldSpec.gf(p))
    assert rank_mod_p(a, p) == expected


@given(st.one_of(matrices, sparse_sign_matrices))
def test_rational_rank_matches_snf_oracle(rows):
    a = np.array(rows, dtype=np.int64)
    expected = rank_from_diagonal(smith_diagonal(rows), RATIONALS)
    assert rank_rational(a) == expected


def test_snf_oracle_returns_on_a_matrix_that_blew_up():
    # With one pivot per step, this matrix (drawn by `matrices`) grew
    # entries of hundreds of bits and did not return; run it in a child
    # process so a regression fails on the bound instead of hanging.
    rows = [[-5, -9, 5, 3, 1], [-8, -2, -2, 5, 5], [-9, -9, 5, -8, 7],
            [6, 3, -5, 0, -7], [-7, -1, 9, 0, 9], [-3, -2, 0, 1, 9]]
    script = f"from cmtkit.snf import smith_diagonal; print(smith_diagonal({rows!r}))"
    src = str(Path(cmtkit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=30)
    assert done.returncode == 0, done.stderr
    diagonal = ast.literal_eval(done.stdout)
    for field in (GF2, GF3, GF5, FieldSpec.gf(7), RATIONALS):
        assert rank_from_diagonal(diagonal, field) == rank(rows, field)


def test_rational_rank_beyond_int64():
    assert rank_rational([[2 ** 70, 1], [1, 0]]) == 2
    assert rank_rational([[2 ** 70, 2 ** 69], [2, 1]]) == 1
    assert rank_rational([[3 ** 50, 5 ** 30], [7 ** 40, 1]]) == 2


@pytest.mark.parametrize("field", [GF2, GF3, RATIONALS], ids=str)
def test_simplex_skeleton_boundary_ranks_closed_form(field):
    # The full simplex on n vertices is acyclic, so its degree-d boundary
    # has rank C(n-1, d); a skeleton keeps every block up to its dimension.
    n = 13
    mats = boundary_matrices(boundary_simplex(n).skeleton(4))
    assert mats[-1].matrix.shape == (715, 1287)
    assert [bm.rank_over(field) for bm in mats] == [comb(n - 1, bm.degree) for bm in mats]


def test_active_backend_value():
    assert active_backend() == "sparse"
