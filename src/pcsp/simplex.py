"""Exact rational linear programming via the two-phase simplex method.

Dense tableau over Fractions with Bland's anti-cycling rule.  Intended for
the small systems that survive the structural fast paths elsewhere; nothing
here is floating point, so results are exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class LpResult:
    status: str
    x: list[Fraction] | None = None
    objective: Fraction | None = None


def _pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    """Pivot on (row, col); other rows change only at the pivot row's
    nonzero columns, since a zero there subtracts nothing."""
    prow = tab[row]
    inv = ONE / prow[col]
    nz = [j for j, v in enumerate(prow) if v]
    for j in nz:
        prow[j] *= inv
    for i, r in enumerate(tab):
        if i == row:
            continue
        f = r[col]
        if f:
            for j in nz:
                r[j] -= f * prow[j]
    basis[row] = col


def _reduced_costs(tab: list[list[Fraction]], basis: list[int],
                   cost: list[Fraction]) -> list[Fraction]:
    """The objective row of `cost` over the basis: cost minus c_B times each
    basic row, with minus the basic cost value in the rhs column."""
    objrow = list(cost) + [ZERO]
    for i, j in enumerate(basis):
        cb = cost[j]
        if cb:
            for k, v in enumerate(tab[i]):
                if v:
                    objrow[k] -= cb * v
    return objrow


def _bland_min(tab: list[list[Fraction]], basis: list[int], scan_cols: int,
               rhs_col: int) -> str:
    """Minimise cost over the tableau in place; returns OPTIMAL or UNBOUNDED.

    The last tableau row holds reduced costs; `rhs_col` indexes the rhs.
    Entering columns are drawn from [0, scan_cols) by Bland's rule.
    """
    m = len(basis)
    while True:
        obj = tab[m]
        col = next((j for j in range(scan_cols) if obj[j] < 0), None)
        if col is None:
            return OPTIMAL
        best_row = None
        best_ratio = None
        for i in range(m):
            a = tab[i][col]
            if a > 0:
                ratio = tab[i][rhs_col] / a
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[best_row])):
                    best_row, best_ratio = i, ratio
        if best_row is None:
            return UNBOUNDED
        _pivot(tab, basis, best_row, col)


def solve_inequality_lp(rows: Sequence[Mapping[int, int | Fraction]],
                        rhs: Sequence[int | Fraction],
                        n_vars: int,
                        objective: Mapping[int, int | Fraction] | None = None,
                        maximize: bool = False) -> LpResult:
    """Solve {x free : row_i . x <= rhs_i} with optional linear objective.

    Rows are sparse {column: coefficient} maps.  Without an objective the
    result is any feasible point (phase I only).  With one, the optimum of
    c.x (maximised when `maximize`, minimised otherwise) is returned; status
    UNBOUNDED means a feasible ray improves the objective forever.
    """
    m = len(rows)
    # Columns: x+ (n), x- (n), slack (m), artificial (appended as needed).
    base_cols = 2 * n_vars + m
    art_rows = []
    tab: list[list[Fraction]] = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        b = Fraction(b)
        sign = 1
        if b < 0:
            sign = -1
            b = -b
        line = [ZERO] * base_cols
        for j, c in row.items():
            c = Fraction(sign * c)
            if c:
                line[j] = c
                line[n_vars + j] = -c
        line[2 * n_vars + i] = Fraction(sign)
        line.append(b)
        tab.append(line)
        if sign < 0:
            art_rows.append(i)

    n_art = len(art_rows)
    n_cols = base_cols + n_art
    basis = [0] * m
    for k, i in enumerate(art_rows):
        col = base_cols + k
        for r in range(m):
            tab[r].insert(base_cols + k, ONE if r == i else ZERO)
        basis[i] = col
    for i in range(m):
        if i not in art_rows:
            basis[i] = 2 * n_vars + i

    # Phase I: minimise the sum of artificials.
    cost1 = [ZERO] * n_cols
    for k in range(n_art):
        cost1[base_cols + k] = ONE
    tab.append(_reduced_costs(tab, basis, cost1))
    status = _bland_min(tab, basis, n_cols, n_cols)
    if status != OPTIMAL:
        raise AssertionError("phase-I objective is bounded below by 0")
    if -tab[m][n_cols] > 0:
        return LpResult(INFEASIBLE)

    # Drive remaining artificials out of the basis (degenerate rows).
    for i in range(m):
        if basis[i] >= base_cols:
            col = next((j for j in range(base_cols) if tab[i][j]), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    # Rows still basic in an artificial are redundant zero rows; they stay.

    def extract() -> list[Fraction]:
        x = [ZERO] * n_vars
        for i in range(m):
            j = basis[i]
            if j < n_vars:
                x[j] += tab[i][n_cols]
            elif j < 2 * n_vars:
                x[j - n_vars] -= tab[i][n_cols]
        return x

    if objective is None:
        return LpResult(OPTIMAL, extract())

    # Phase II restricted to the real columns, so artificials stay at zero.
    sense = -1 if maximize else 1
    cost2 = [ZERO] * n_cols
    for j, c in objective.items():
        c = Fraction(sense * c)
        cost2[j] = c
        cost2[n_vars + j] = -c
    tab[m] = _reduced_costs(tab, basis, cost2)

    status = _bland_min(tab, basis, base_cols, n_cols)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)
    x = extract()
    val = -tab[m][n_cols]
    if maximize:
        val = -val
    return LpResult(OPTIMAL, x, val)
