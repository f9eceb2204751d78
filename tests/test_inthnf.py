"""Tests for the sparse column-style Hermite normal form."""

from __future__ import annotations

import random
from fractions import Fraction

from pcsp.inthnf import hnf_sparse, solve_hnf


def columns_from_rows(rows, n_cols):
    cols = [dict() for _ in range(n_cols)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                cols[j][i] = v
    return cols


def rows_from_columns(cols, n_rows):
    rows = [[0] * len(cols) for _ in range(n_rows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def hnf_from_rows(rows):
    n_cols = len(rows[0]) if rows else 0
    return hnf_sparse(columns_from_rows(rows, n_cols), len(rows), n_cols)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def det_fraction(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for j in range(c, n):
                a[r][j] -= f * a[c][j]
    return det


def random_matrix(rng, n, m, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def test_hnf_reproduces_matrix_via_u():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        mat = random_matrix(rng, n, m)
        res = hnf_from_rows(mat)
        h = rows_from_columns(res.h_cols, res.n_rows)
        u = rows_from_columns(res.u_cols, res.n_cols)
        assert mat_mul(mat, u) == h
        assert abs(det_fraction(u)) == 1


def test_hnf_shape_invariants():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        mat = random_matrix(rng, n, m)
        res = hnf_from_rows(mat)
        h = rows_from_columns(res.h_cols, res.n_rows)
        # pivots strictly descend the rows as columns advance
        prev_row = -1
        for (r, c), idx in zip(res.pivots, range(len(res.pivots))):
            assert c == idx
            assert r > prev_row
            prev_row = r
            assert h[r][c] > 0
            # entries left of the pivot are reduced into [0, pivot)
            for j in range(c):
                assert 0 <= h[r][j] < h[r][c]
            # entries right of the pivot in its row are zero
            for j in range(c + 1, m):
                assert h[r][j] == 0
        # columns beyond the rank are zero
        for j in range(res.rank, m):
            for i in range(n):
                assert h[i][j] == 0


def test_kernel_columns_annihilate():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        mat = random_matrix(rng, n, m)
        res = hnf_from_rows(mat)
        kernel = res.kernel_columns()
        assert len(kernel) == m - res.rank
        for col in kernel:
            vec = [col.get(j, 0) for j in range(m)]
            assert any(vec)
            for i in range(n):
                assert sum(mat[i][j] * vec[j] for j in range(m)) == 0


def test_solve_recovers_planted_solutions():
    rng = random.Random(17)
    solved = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        mat = random_matrix(rng, n, m)
        x = [rng.randint(-6, 6) for _ in range(m)]
        b = [sum(mat[i][j] * x[j] for j in range(m)) for i in range(n)]
        res = hnf_from_rows(mat)
        y = solve_hnf(res, b)
        assert y is not None
        for i in range(n):
            assert sum(mat[i][j] * y[j] for j in range(m)) == b[i]
        solved += 1
    assert solved == 300


def test_solve_detects_unsolvable():
    res = hnf_from_rows([[2]])
    assert solve_hnf(res, [1]) is None
    res = hnf_from_rows([[2, 4], [0, 0]])
    assert solve_hnf(res, [3, 0]) is None
    assert solve_hnf(res, [2, 1]) is None
    # inconsistent over Q as well
    res = hnf_from_rows([[1, 1], [2, 2]])
    assert solve_hnf(res, [1, 3]) is None


def test_columns_round_trip():
    rows = [[1, 0, -2], [0, 3, 0]]
    cols = columns_from_rows(rows, 3)
    assert cols == [{0: 1}, {1: 3}, {0: -2}]
