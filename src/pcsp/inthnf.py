"""Column-style Hermite normal form over the integers.

Kept dependency-free so both the ring layer (lattice canonicalisation) and
the linear-algebra layer can use it.  Matrices are stored sparsely as lists
of column dicts {row_index: nonzero int}.  `hnf_sparse` is the one entry
point: callers hand it their columns, and it always tracks the unimodular
U, whose trailing columns span the integer kernel.
"""

from __future__ import annotations

from typing import Sequence


def _col_addmul(dst: dict[int, int], src: dict[int, int], factor: int) -> None:
    """dst += factor * src, dropping zeros."""
    if factor == 0:
        return
    for i, v in src.items():
        w = dst.get(i, 0) + factor * v
        if w:
            dst[i] = w
        else:
            dst.pop(i, None)


def _col_negate(col: dict[int, int]) -> None:
    for i in list(col):
        col[i] = -col[i]


class HnfResult:
    """H = M @ U with U unimodular; H in column-style Hermite normal form.

    Pivots (one per staircase row) are positive, entries to the right of a
    pivot in its row are zero, entries to the left are reduced into
    [0, pivot).  `pivots` lists (row, col) pairs in staircase order; columns
    at index >= rank of H are identically zero, so the corresponding columns
    of U form a basis of the integer kernel of M.
    """

    def __init__(self, n_rows: int, n_cols: int,
                 h_cols: list[dict[int, int]], u_cols: list[dict[int, int]],
                 pivots: list[tuple[int, int]]):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.h_cols = h_cols
        self.u_cols = u_cols
        self.pivots = pivots

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel_columns(self) -> list[dict[int, int]]:
        return [self.u_cols[j] for j in range(self.rank, self.n_cols)]


def hnf_sparse(cols: list[dict[int, int]], n_rows: int, n_cols: int) -> HnfResult:
    """Classical column reduction with explicit unimodular tracking.

    A row -> column-position index keeps each step proportional to the
    nonzeros actually touched instead of the full matrix width.
    """
    h = [dict(c) for c in cols]
    u: list[dict[int, int]] = [{j: 1} for j in range(n_cols)]
    support: list[set[int]] = [set() for _ in range(n_rows)]
    for j, col in enumerate(h):
        for i in col:
            support[i].add(j)

    def addmul(j: int, jp: int, factor: int) -> None:
        dst, src = h[j], h[jp]
        for i, v in src.items():
            w = dst.get(i, 0) + factor * v
            if w:
                if i not in dst:
                    support[i].add(j)
                dst[i] = w
            elif i in dst:
                del dst[i]
                support[i].discard(j)
        _col_addmul(u[j], u[jp], factor)

    def swap(a: int, b: int) -> None:
        for i in h[a]:
            support[i].discard(a)
            support[i].add(b)
        for i in h[b]:
            support[i].discard(b)
            support[i].add(a)
        # rows present in both columns were toggled twice; fix them up
        common = h[a].keys() & h[b].keys()
        for i in common:
            support[i].add(a)
            support[i].add(b)
        h[a], h[b] = h[b], h[a]
        u[a], u[b] = u[b], u[a]

    pivots: list[tuple[int, int]] = []
    r = 0
    for i in range(n_rows):
        if r >= n_cols:
            break
        active = [j for j in support[i] if j >= r]
        if not active:
            continue
        # Euclidean column reduction until one nonzero remains in row i.
        while len(active) > 1:
            active.sort(key=lambda j: (abs(h[j][i]), j))
            jp = active[0]
            piv = h[jp][i]
            nxt = [jp]
            for j in active[1:]:
                q = h[j][i] // piv
                addmul(j, jp, -q)
                if h[j].get(i):
                    nxt.append(j)
            active = nxt
        jp = active[0]
        if jp != r:
            swap(r, jp)
        if h[r][i] < 0:
            _col_negate(h[r])
            _col_negate(u[r])
        piv = h[r][i]
        for j in [j for j in support[i] if j < r]:
            q = h[j][i] // piv
            if q:
                addmul(j, r, -q)
        pivots.append((i, r))
        r += 1
    return HnfResult(n_rows, n_cols, h, u, pivots)


def solve_hnf(res: HnfResult, rhs: Sequence[int]) -> list[int] | None:
    """Solve M x = rhs given an HnfResult for M; None when no integer solution.

    Forward substitution by columns on H y = rhs, then x = U y.  Pivot
    column c is zero above its pivot row (the staircase), so once the rows
    above are done, the residual at c's pivot row fixes y_c, and y_c H[:, c]
    is subtracted from the one residual vector.  A row without a pivot must
    be left with a zero residual.
    """
    residual = list(rhs)
    piv_at_row = dict(res.pivots)
    y: dict[int, int] = {}
    for i in range(res.n_rows):
        s = residual[i]
        c = piv_at_row.get(i)
        if c is None:
            if s:
                return None
            continue
        col = res.h_cols[c]
        yc, rem = divmod(s, col[i])
        if rem:
            return None
        if yc:
            y[c] = yc
            for k, v in col.items():
                residual[k] -= v * yc
    x = [0] * res.n_cols
    for c, yv in y.items():
        for k, uv in res.u_cols[c].items():
            x[k] += uv * yv
    return x
