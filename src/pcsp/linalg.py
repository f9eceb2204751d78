"""Exact linear algebra over Q, Z, Z[sqrt(q)], and lattice quotients.

Systems are sparse (rows are {column: coefficient} dicts).  A point is
substituted in one pass, `InequalitySystem.slacks`: a rational point once
scaled to integers D x, a ring point split as x = a + b sqrt(q); a row's
slack times D is then A + B sqrt(q), A = D rhs - row . a and B = -row . b,
signed by `rings.quad_sign`.  The affine-hull computation classifies the
implicit equalities of an inequality system and hands back a rational
relative-interior point with at most two LPs: phase I unless the warm point
is feasible, then one LP for every unpaired row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .inthnf import HnfResult, hnf_sparse, solve_hnf
from .rings import (
    LatticeIdeal,
    LatticeQuotientElem,
    QuadElem,
    RingMismatchError,
    quad_sign,
)
from .simplex import OPTIMAL, solve_inequality_lp

Coef = int | Fraction


def _split_point(point: Sequence) -> tuple[int, int | None, list, list | None]:
    """(D, q, a, b) with point = (a + b sqrt(q)) / D coordinate-wise.  A
    rational point is scaled to integers by its common denominator D, and b
    is None; a ring point has D = 1.  Two radicands raise."""
    radicands = {v.q for v in point if isinstance(v, QuadElem)}
    if not radicands:
        scale = lcm(*(v.denominator for v in point))
        return scale, None, [v.numerator * (scale // v.denominator)
                             for v in point], None
    if len(radicands) > 1:
        raise RingMismatchError(f"mixed radicands {sorted(radicands)}")
    a = [v.a if isinstance(v, QuadElem) else v for v in point]
    b = [v.b if isinstance(v, QuadElem) else 0 for v in point]
    return 1, radicands.pop(), a, b


def _row_slack(row: Mapping[int, Coef], rhs: Coef, a: Sequence,
               b: Sequence | None) -> tuple[Coef, Coef]:
    """(A, B) with rhs - row . (a + b sqrt(q)) = A + B sqrt(q); b None is 0."""
    big_a = rhs
    for j, c in row.items():
        big_a -= c * a[j]
    if b is None:
        return big_a, 0
    big_b = 0
    for j, c in row.items():
        big_b -= c * b[j]
    return big_a, big_b


def _cleared_row(row: Mapping[int, Coef], b: Coef) -> tuple[dict[int, int], int]:
    """(row, b) times the lcm of their denominators: integer data, and the
    positive scale keeps every slack's sign.  Integer data is copied as is."""
    if isinstance(b, int) and all(isinstance(c, int) for c in row.values()):
        return dict(row), b
    scale = lcm(Fraction(b).denominator,
                *(Fraction(c).denominator for c in row.values()))
    return ({j: int(Fraction(c) * scale) for j, c in row.items()},
            int(Fraction(b) * scale))


def _integral(v: Coef) -> int:
    """v as an int; a non-integral value raises rather than truncates."""
    if v.denominator != 1:
        raise ValueError(f"non-integral value {v} in an integer system")
    return int(v)


# ---------------------------------------------------------------------------
# Inequality systems
# ---------------------------------------------------------------------------


@dataclass
class InequalitySystem:
    """Sparse system {x : row_i . x <= rhs_i} with tracked equality pairs.

    An equality row . x == b is stored as the pair (row <= b, -row <= -b);
    the pair structure is remembered so hull computations can mark both
    halves implicit without solving anything.  Every pair (i, j) has
    row_j = -row_i and rhs_j = -rhs_i exactly: `add_eq` is the only producer
    of pairs, and `integerized` scales both halves by the same factor.  So
    `slacks` substitutes row i alone and negates its slack for row j.
    """

    n_vars: int
    rows: list[dict[int, Coef]] = field(default_factory=list)
    rhs: list[Coef] = field(default_factory=list)
    eq_pairs: list[tuple[int, int]] = field(default_factory=list)

    def add_le(self, row: Mapping[int, Coef], b: Coef) -> int:
        self.rows.append({j: c for j, c in row.items() if c})
        self.rhs.append(b)
        return len(self.rows) - 1

    def add_eq(self, row: Mapping[int, Coef], b: Coef) -> tuple[int, int]:
        i = self.add_le(row, b)
        j = self.add_le({k: -c for k, c in row.items()}, -b)
        self.eq_pairs.append((i, j))
        return i, j

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def paired_indices(self) -> set[int]:
        return {i for pair in self.eq_pairs for i in pair}

    def slacks(self, point: Sequence
               ) -> tuple[int, int | None, list[tuple[Coef, Coef]]]:
        """Every row's exact slack in one pass: (D, q, pairs), where
        rhs_i - row_i . point = (A + B sqrt(q)) / D for (A, B) = pairs[i].

        A rational point is scaled once to integers, D its common
        denominator, q None and every B 0; a ring point has D = 1.  Each
        equality pair is substituted once.
        """
        scale, q, a, b = _split_point(point)
        rows, rhs = self.rows, self.rhs
        pairs = [None] * len(rows)
        for i, j in self.eq_pairs:
            big_a, big_b = pairs[i] = _row_slack(rows[i], scale * rhs[i], a, b)
            pairs[j] = (-big_a, -big_b)
        for i, pair in enumerate(pairs):
            if pair is None:
                pairs[i] = _row_slack(rows[i], scale * rhs[i], a, b)
        return scale, q, pairs

    def check_point(self, point: Sequence, strict: Sequence[int] = ()) -> bool:
        """Exact feasibility of a (possibly ring-valued) point: every slack
        of one `slacks` pass is >= 0, and > 0 on the rows in `strict`; a
        rational point is checked as D x against D rhs and each equality
        pair substituted once."""
        _, q, pairs = self.slacks(point)
        return (all(quad_sign(a, b, q) >= 0 for a, b in pairs)
                and all(quad_sign(*pairs[i], q) > 0 for i in strict))

    def integerized(self) -> "InequalitySystem":
        """Row-scaled copy with integer data; same feasible set and row order."""
        out = InequalitySystem(self.n_vars, eq_pairs=list(self.eq_pairs))
        for row, b in zip(self.rows, self.rhs):
            row, b = _cleared_row(row, b)
            out.rows.append(row)
            out.rhs.append(b)
        return out


# ---------------------------------------------------------------------------
# Integer solving with a fill-reducing permutation
# ---------------------------------------------------------------------------


class IntegerSolver:
    """HNF-backed solver for sparse integer systems, reusable across rhs.

    Rows and columns are permuted to ascending nonzero count before
    reduction, which keeps fill-in local for block-structured systems
    (relaxation matrices especially); solutions are returned in original
    coordinates.
    """

    def __init__(self, srows: Sequence[Mapping[int, int]], n_vars: int):
        self.n_vars = n_vars
        srows = [{j: _integral(c) for j, c in r.items() if c} for r in srows]
        col_nnz = [0] * n_vars
        for r in srows:
            for j in r:
                col_nnz[j] += 1
        self.col_order = sorted(range(n_vars), key=lambda j: (col_nnz[j], j))
        self.row_order = sorted(range(len(srows)),
                                key=lambda i: (len(srows[i]), i))
        col_pos = [0] * n_vars
        for pos, j in enumerate(self.col_order):
            col_pos[j] = pos
        cols: list[dict[int, int]] = [dict() for _ in range(n_vars)]
        for pos, i in enumerate(self.row_order):
            for j, c in srows[i].items():
                cols[col_pos[j]][pos] = c
        self.result: HnfResult = hnf_sparse(cols, len(srows), n_vars)

    def solve(self, rhs: Sequence[int]) -> list[int] | None:
        pr = [_integral(rhs[i]) for i in self.row_order]
        y = solve_hnf(self.result, pr)
        if y is None:
            return None
        x = [0] * self.n_vars
        for pos, j in enumerate(self.col_order):
            x[j] = y[pos]
        return x

    def kernel_basis(self) -> list[dict[int, int]]:
        """Sparse basis of {x : M x = 0} in original coordinates."""
        out = []
        for col in self.result.kernel_columns():
            out.append({self.col_order[p]: v for p, v in col.items()})
        return out


# ---------------------------------------------------------------------------
# Systems over lattice quotients Z^b / J
# ---------------------------------------------------------------------------


def _is_small_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _solve_mod_p(srows: Sequence[Mapping[int, int]], rhs: Sequence[int],
                 n_cols: int, p: int) -> list[int] | None:
    """The solution of A x = b over GF(p) with every free variable zero, or
    None when the system is inconsistent.

    Each row is reduced against the pivot rows until its leading column is
    new, so the pivot columns are the leftmost independent ones; back
    substitution with the free variables at zero then fixes the solution.
    """
    pivots: dict[int, tuple[dict[int, int], int]] = {}
    for row, b in zip(srows, rhs):
        r = {j: c % p for j, c in row.items() if c % p}
        b %= p
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                break
            prow, pb = piv
            f = r[lead]
            for j, c in prow.items():
                v = (r.get(j, 0) - f * c) % p
                if v:
                    r[j] = v
                else:
                    del r[j]
            b = (b - f * pb) % p
        if not r:
            if b:
                return None
            continue
        inv = pow(r[lead], -1, p)
        pivots[lead] = ({j: c * inv % p for j, c in r.items()}, b * inv % p)
    x = [0] * n_cols
    for lead in sorted(pivots, reverse=True):
        prow, pb = pivots[lead]
        x[lead] = (pb - sum(c * x[j] for j, c in prow.items())) % p
    return x


def solve_lattice_quotient_system(srows: Sequence[Mapping[int, int]],
                                  rhs: Sequence[LatticeQuotientElem],
                                  n_vars: int,
                                  lattice: LatticeIdeal
                                  ) -> list[LatticeQuotientElem] | None:
    """Solve sum_j c_ij x_j = rhs_i over the product ring
    Z^b / J = Z/d_1 x ... x Z/d_b (Z/M when b = 1).

    A coefficient is either an int (acting on every coordinate) or a
    length-b integer tuple, which multiplies componentwise the way a ring
    constant does.  Variable x_j takes the integer columns j*b .. j*b+b-1,
    and equation i, coordinate k becomes integer row i*b + k; the rows are
    built once.  Over a prime Z/p they go to GF(p) elimination as they are.
    Otherwise row r gains one slack column, with coefficient d_(r mod b),
    which handles the congruence exactly, and the HNF solves over Z.
    """
    b = lattice.dim
    n_cols = n_vars * b
    rows: list[dict[int, int]] = []
    values: list[int] = []
    for i, srow in enumerate(srows):
        if rhs[i].lattice != lattice:
            raise ValueError("rhs lattice mismatch")
        for coord in range(b):
            row: dict[int, int] = {}
            for j, c in srow.items():
                cc = c[coord] if isinstance(c, tuple) else c
                if cc:
                    row[j * b + coord] = cc
            rows.append(row)
            values.append(rhs[i].vector[coord])

    if b == 1 and _is_small_prime(lattice.diag[0]):
        # rank-1 prime quotient: plain elimination over GF(p) replaces the
        # integer normal-form machinery (same verdicts, much cheaper)
        sol = _solve_mod_p(rows, values, n_cols, lattice.diag[0])
    else:
        for k, row in enumerate(rows):
            row[n_cols + k] = lattice.diag[k % b]
        sol = IntegerSolver(rows, n_cols + len(rows)).solve(values)
    if sol is None:
        return None
    return [lattice.element(tuple(sol[j * b:j * b + b])) for j in range(n_vars)]


# ---------------------------------------------------------------------------
# Affine hull and interior point
# ---------------------------------------------------------------------------


@dataclass
class HullResult:
    status: str                       # 'ok' or 'empty'
    implicit: list[bool] | None = None
    y0: list[Fraction] | None = None
    eq_rows: list[dict[int, Coef]] | None = None
    eq_rhs: list[Coef] | None = None
    lp_calls: int = 0


def affine_hull_and_interior(system: InequalitySystem,
                             warm_point: Sequence[Fraction] | None = None) -> HullResult:
    """Implicit-equality classification plus a relative-interior point.

    Tracked equality pairs are implicit by construction.  The base point is
    the warm point if feasible, else phase I's.  If some other row is tight
    there, one LP (Freund, Roundy and Todd 1985) classifies them all: over
    y, t and a z_i per unpaired row, maximise sum z_i subject to
    row_i . y - rhs_i t + z_i <= 0 (no z on a paired row), 0 <= z_i <= 1
    and t >= 1.  At an optimum z_i is 0 on an implicit row, else 1, and
    y0 = y / t has slack >= 1/t on every non-implicit row.
    """
    m, n = system.n_rows, system.n_vars
    paired = system.paired_indices()
    lp_calls = 0

    # one slacks pass at the base point decides feasibility and the tight
    # rows; the slacks are scaled by the point's positive common denominator
    base: list[Fraction] | None = None
    if warm_point is not None:
        base = [Fraction(v) for v in warm_point]
        scaled = [a for a, _ in system.slacks(base)[2]]
        if min(scaled, default=0) < 0:
            base = None
    if base is None:
        res = solve_inequality_lp(system.rows, system.rhs, n)
        lp_calls += 1
        if res.status != OPTIMAL:
            return HullResult("empty", lp_calls=lp_calls)
        base = res.x
        scaled = [a for a, _ in system.slacks(base)[2]]

    implicit = [i in paired for i in range(m)]
    y0 = base
    unpaired = [i for i in range(m) if i not in paired]
    if any(scaled[i] == 0 for i in unpaired):
        t = n
        z = {i: n + 1 + k for k, i in enumerate(unpaired)}
        rows = [{**row, t: -b} for row, b in zip(system.rows, system.rhs)]
        for i, col in z.items():
            rows[i][col] = 1
        rows.append({t: -1})
        for col in z.values():
            rows += [{col: 1}, {col: -1}]
        rhs = [0] * m + [-1] + [1, 0] * len(z)
        res = solve_inequality_lp(rows, rhs, n + 1 + len(z),
                                  objective={col: 1 for col in z.values()},
                                  maximize=True)
        lp_calls += 1
        if res.status != OPTIMAL:
            raise AssertionError("the hull LP is feasible and bounded")
        for i, col in z.items():
            if res.x[col] == 0:
                implicit[i] = True
            elif res.x[col] != 1:
                raise AssertionError("the hull LP left a z strictly between 0 and 1")
        y0 = [v / res.x[t] for v in res.x[:n]]

    # one equality per tracked pair, then the implicit unpaired rows
    eqs = [i for i, _ in system.eq_pairs] + [i for i in unpaired if implicit[i]]
    return HullResult("ok", implicit, y0, [system.rows[i] for i in eqs],
                      [system.rhs[i] for i in eqs], lp_calls)
