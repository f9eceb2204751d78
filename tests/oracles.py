"""Brute-force and textbook oracles that the tests cross-check the library
against.  None of these is on a solve path, so they live with the tests."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from pcsp.linalg import InequalitySystem
from pcsp.model import (BlockSymmetricFunction, PolymorphismReport,
                        PromiseTemplate, ResourceGuardError)
from pcsp.simplex import OPTIMAL, solve_inequality_lp


def check_polymorphism_naive(f: BlockSymmetricFunction,
                             template: PromiseTemplate,
                             max_products: int = 200_000) -> PolymorphismReport:
    """Brute force over all row choices; cross-check for the DP version."""
    L = f.arity
    for rel in template.relations:
        tuples = sorted(rel.strong)
        if len(tuples) ** L > max_products:
            raise ResourceGuardError(f"{rel.name}: naive enumeration too large")
        for rows in product(tuples, repeat=L):
            out = f.apply_rows(list(rows))
            if out not in rel.weak:
                return PolymorphismReport(False, rel.name, list(rows), out)
    return PolymorphismReport(True)


def quotient_combination(diag: Sequence[int], terms) -> tuple[int, ...]:
    """sum c * x over Z/d_1 x ... x Z/d_b, reduced mod each d_k.

    `terms` holds (c, x) pairs: c is an int or a per-coordinate tuple, x any
    integer representative vector."""
    terms = list(terms)
    return tuple(sum((c[k] if isinstance(c, tuple) else c) * x[k]
                     for c, x in terms) % d
                 for k, d in enumerate(diag))


def solve_field_system(rows: Sequence[Mapping[int, int | Fraction]],
                       rhs: Sequence[int | Fraction],
                       n_vars: int) -> list[Fraction] | None:
    """One rational solution of row_i . x = rhs_i (free vars at 0), or None."""
    echelon: list[tuple[int, dict[int, Fraction], Fraction]] = []
    for row, b in zip(rows, rhs):
        work = {j: Fraction(c) for j, c in row.items() if c}
        val = Fraction(b)
        for piv_col, piv_row, piv_val in echelon:
            f = work.get(piv_col)
            if f:
                for j, c in piv_row.items():
                    w = work.get(j, Fraction(0)) - f * c
                    if w:
                        work[j] = w
                    else:
                        work.pop(j, None)
                val -= f * piv_val
        if not work:
            if val:
                return None
            continue
        piv_col = min(work)
        inv = 1 / work[piv_col]
        work = {j: c * inv for j, c in work.items()}
        val *= inv
        echelon.append((piv_col, work, val))
    x = [Fraction(0)] * n_vars
    for piv_col, row, val in reversed(echelon):
        acc = val
        for j, c in row.items():
            if j != piv_col and x[j]:
                acc -= c * x[j]
        x[piv_col] = acc
    return x


def solve_mod_p_dense(srows: Sequence[Mapping[int, int]], rhs: Sequence[int],
                      n_cols: int, p: int) -> list[int] | None:
    """Reference for `linalg._solve_mod_p`: dense Gauss-Jordan over GF(p),
    pivots in ascending column order, free variables zero.

    Runs in int64, so products of two residues must fit: p < 2^31.
    """
    if p >= 2 ** 31:
        raise ValueError("the int64 reference needs p < 2^31")
    m = len(srows)
    a = np.zeros((m, n_cols + 1), dtype=np.int64)
    for i, row in enumerate(srows):
        for j, c in row.items():
            a[i, j] = c % p
        a[i, n_cols] = rhs[i] % p
    rank = 0
    pivots = []
    for c in range(n_cols):
        nz = np.nonzero(a[rank:, c])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, p) % p
        col = a[:, c].copy()
        col[rank] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            a[hit] = (a[hit] - np.outer(col[hit], a[rank])) % p
        pivots.append(c)
        rank += 1
        if rank == m:
            break
    if np.any(a[rank:, n_cols]):
        return None
    x = [0] * n_cols
    for i, c in enumerate(pivots):
        x[c] = int(a[i, n_cols])
    return x


def lp_feasible_rational(system: InequalitySystem) -> list[Fraction] | None:
    """Any rational feasible point of the system, or None."""
    res = solve_inequality_lp(system.rows, system.rhs, system.n_vars)
    return res.x if res.status == OPTIMAL else None
