"""Promise CSP templates, instances, polymorphisms, and relaxation builders.

A promise template pairs each constraint relation P over the strong domain D
with a relaxed relation Q over the weak domain E such that phi(P) is
contained in Q.  Solvers work on instances (clause lists), produce weak-side
assignments, and justify them through block-symmetric polymorphisms applied
to relaxation output.

A clause constrains its variables only through its relation's lattice
L(R, S), the integer combinations of the profiles of the tuples S that
sum to one (Barto, Bulín, Krokhin and Opršal 2021).  The template keeps
each lattice it is asked for, so both relaxations are solved in the
variables alone: `hull_integer_point` finds the basic LP hull's integer
point in the v and mu columns, and `build_affine_lattice_system` the affine
relaxation in the n variable columns; each reads the clause multipliers
back afterwards.  `build_basic_lp` and `build_affine_relaxation` still
build the full systems, which certify and dump the results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from operator import add, sub
from typing import Mapping, Sequence

from .linalg import InequalitySystem, IntegerSolver
from .rings import LatticeIdeal, LatticeQuotientElem


class ResourceGuardError(RuntimeError):
    """Raised when an exact enumeration would exceed its configured budget."""


# ---------------------------------------------------------------------------
# Templates and instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Relation:
    name: str
    arity: int
    strong: frozenset[tuple]
    weak: frozenset[tuple]

    def __post_init__(self):
        for t in self.strong:
            if len(t) != self.arity:
                raise ValueError(f"{self.name}: strong tuple arity mismatch")
        for t in self.weak:
            if len(t) != self.arity:
                raise ValueError(f"{self.name}: weak tuple arity mismatch")
        if not self.strong:
            raise ValueError(f"{self.name}: empty strong relation")


@dataclass(frozen=True)
class PromiseTemplate:
    domain: tuple            # strong values D
    codomain: tuple          # weak values E
    phi: Mapping             # D -> E
    relations: tuple[Relation, ...]

    def __post_init__(self):
        for what, values in (("strong value", self.domain),
                             ("weak value", self.codomain),
                             ("relation name", [r.name for r in self.relations])):
            if len(set(values)) != len(values):
                raise ValueError(f"repeated {what}")
        for d in self.domain:
            if d not in self.phi:
                raise ValueError(f"phi undefined on {d!r}")
            if self.phi[d] not in self.codomain:
                raise ValueError(f"phi({d!r}) outside the weak domain")
        for rel in self.relations:
            for t in rel.strong:
                if any(v not in self.domain for v in t):
                    raise ValueError(f"{rel.name}: strong tuple off-domain")
                mapped = tuple(self.phi[v] for v in t)
                if mapped not in rel.weak:
                    raise ValueError(
                        f"{rel.name}: phi image {mapped} of {t} not in weak relation")
            for t in rel.weak:
                if any(v not in self.codomain for v in t):
                    raise ValueError(f"{rel.name}: weak tuple off-domain")

    def relation_index(self, name: str) -> int:
        for i, rel in enumerate(self.relations):
            if rel.name == name:
                return i
        raise KeyError(name)

    @cached_property
    def _lattices(self) -> dict:
        return {}

    def relation_lattice(self, index: int, support: tuple[tuple, ...],
                         values: bool = False) -> "RelationLattice":
        """L(R, S) for relation `index` and its strong tuples `support`,
        built on first use and kept on the template.

        A profile is (1, one 0/1 entry per position and value) for the basic
        LP, whose marginals are the mu of each position; with `values` it is
        (1, each position's value), for the affine relaxation.
        """
        key = (index, support, values)
        lat = self._lattices.get(key)
        if lat is None:
            per_position = 1 if values else len(self.domain)
            lat = self._lattices[key] = _relation_lattice(
                [_profile(t, self.domain, values) for t in support],
                1 + self.relations[index].arity * per_position)
        return lat


@dataclass(frozen=True)
class Clause:
    relation: int            # index into template.relations
    variables: tuple[int, ...]


@dataclass(frozen=True)
class Instance:
    n_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        for cl in self.clauses:
            for v in cl.variables:
                if not 0 <= v < self.n_vars:
                    raise ValueError(f"variable {v} out of range")


def verify_assignment(template: PromiseTemplate, instance: Instance,
                      values: Sequence, side: str = "weak") -> int | None:
    """Index of the first violated clause, or None when all clauses hold."""
    if side not in ("weak", "strong"):
        raise ValueError("side must be 'weak' or 'strong'")
    for i, cl in enumerate(instance.clauses):
        rel = template.relations[cl.relation]
        tup = tuple(values[v] for v in cl.variables)
        ok = tup in (rel.weak if side == "weak" else rel.strong)
        if not ok:
            return i
    return None


def plant_satisfiable_instance(template: PromiseTemplate, n_vars: int,
                               n_clauses: int, rng: random.Random
                               ) -> tuple[Instance, list]:
    """Random instance plus a strong-side assignment that satisfies it.

    A hidden assignment is drawn first; every clause picks a strong tuple and
    variables whose hidden values spell exactly that tuple, so the instance
    is satisfiable by construction.
    """
    if n_clauses and not template.relations:
        raise ValueError("the template has no constraints to plant from")
    max_arity = max((rel.arity for rel in template.relations), default=0)
    if n_vars < max_arity:
        raise ValueError("not enough variables for distinct-variable clauses")
    for _ in range(200):
        hidden = [rng.choice(template.domain) for _ in range(n_vars)]
        by_value: dict = {d: [] for d in template.domain}
        for v, d in enumerate(hidden):
            by_value[d].append(v)
        clauses = []
        ok = True
        for _ in range(n_clauses):
            placed = None
            for _ in range(200):
                rel_idx = rng.randrange(len(template.relations))
                rel = template.relations[rel_idx]
                tup = rng.choice(sorted(rel.strong))
                need: dict = {}
                for d in tup:
                    need[d] = need.get(d, 0) + 1
                if any(len(by_value[d]) < c for d, c in need.items()):
                    continue
                chosen = {d: rng.sample(by_value[d], c) for d, c in need.items()}
                counters = {d: 0 for d in need}
                vs = []
                for d in tup:
                    vs.append(chosen[d][counters[d]])
                    counters[d] += 1
                placed = Clause(rel_idx, tuple(vs))
                break
            if placed is None:
                ok = False
                break
            clauses.append(placed)
        if ok:
            inst = Instance(n_vars, tuple(clauses))
            if verify_assignment(template, inst, hidden, side="strong") is not None:
                raise AssertionError("hidden assignment violates a planted clause")
            return inst, hidden
    raise RuntimeError("could not plant an instance; domain values too scarce")


# ---------------------------------------------------------------------------
# Block-symmetric functions and polymorphism checking
# ---------------------------------------------------------------------------


def _histogram(values: Sequence, domain: tuple) -> tuple[int, ...]:
    idx = {d: i for i, d in enumerate(domain)}
    h = [0] * len(domain)
    for v in values:
        h[idx[v]] += 1
    return tuple(h)


@dataclass(frozen=True)
class BlockSymmetricFunction:
    """Function D^L -> E invariant under permutations within each block.

    `table` maps a tuple of per-block histograms (each a |D|-tuple summing to
    the block size) to a weak-domain value.  Blocks partition the L argument
    positions in order: the first block_sizes[0] positions, then the next,
    and so on.
    """

    domain: tuple
    codomain: tuple
    block_sizes: tuple[int, ...]
    table: Mapping[tuple, object]
    name: str = "f"

    @property
    def arity(self) -> int:
        return sum(self.block_sizes)

    def apply_column(self, column: Sequence) -> object:
        if len(column) != self.arity:
            raise ValueError("column length differs from arity")
        key = []
        pos = 0
        for size in self.block_sizes:
            key.append(_histogram(column[pos:pos + size], self.domain))
            pos += size
        return self.table[tuple(key)]

    def apply_rows(self, rows: Sequence[Sequence]) -> tuple:
        """Apply column-wise to an (arity x k) matrix of domain tuples."""
        k = len(rows[0])
        return tuple(self.apply_column([r[t] for r in rows]) for t in range(k))


@dataclass
class PolymorphismReport:
    ok: bool
    relation: str | None = None
    witness_rows: list | None = None
    bad_output: tuple | None = None


def _profiles(tuples: list[tuple], domain: tuple) -> list[tuple[int, ...]]:
    """The k x |D| one-hot histogram of each k-tuple, flattened."""
    dsz = len(domain)
    idx = {d: i for i, d in enumerate(domain)}
    out = []
    for t in tuples:
        p = [0] * (len(t) * dsz)
        for c, v in enumerate(t):
            p[c * dsz + idx[v]] = 1
        out.append(tuple(p))
    return out


def _reachable_profiles(profs: list[tuple], levels: int,
                        max_products: int = 10 ** 7) -> list[list[tuple]]:
    """Sumsets of tuple profiles: R_0 = {0}, R_l = R_{l-1} + profiles.

    Returns [R_0, ..., R_levels], each a sorted list of distinct profile
    sums.  Growth beyond `max_products` intermediate sums per level raises
    ResourceGuardError.
    """
    levels_out = [[(0,) * len(profs[0])]]
    for _ in range(levels):
        prev = levels_out[-1]
        if len(prev) * len(profs) > max_products:
            raise ResourceGuardError(
                f"sumset level of {len(prev)} x {len(profs)} rows "
                f"exceeds the budget")
        levels_out.append(sorted({tuple(map(add, a, b))
                                  for a in prev for b in profs}))
    return levels_out


def _witness_rows(target: tuple, levels: list[list[tuple]],
                  tuples: list[tuple], profs: list[tuple]) -> list[tuple]:
    """Reconstruct rows from P whose profile sum equals `target`."""
    rows: list[tuple] = []
    cur = target
    for lev in range(len(levels) - 1, 0, -1):
        prev_set = set(levels[lev - 1])
        for t, prof in zip(tuples, profs):
            cand = tuple(map(sub, cur, prof))
            if cand in prev_set:
                rows.append(t)
                cur = cand
                break
        else:
            raise AssertionError("sumset reconstruction failed")
    if any(cur):
        raise AssertionError("sumset reconstruction left a remainder")
    rows.reverse()
    return rows


def check_polymorphism(f: BlockSymmetricFunction, template: PromiseTemplate,
                       max_products: int = 10 ** 7) -> PolymorphismReport:
    """Exact test that f maps strong tuples into the weak relation.

    For each relation, the reachable per-block column histograms are computed
    by a sumset DP over tuple profiles; every cross-block combination is then
    evaluated through the function table.  The first violation is returned
    with an explicit witness matrix of strong tuples.
    """
    if tuple(f.domain) != tuple(template.domain):
        raise ValueError("function domain differs from template domain")
    dsz = len(template.domain)
    for rel in template.relations:
        k = rel.arity
        tuples = sorted(rel.strong)
        max_size = max(f.block_sizes)
        profs = _profiles(tuples, template.domain)
        all_levels = _reachable_profiles(profs, max_size, max_products)
        reach = [all_levels[size] for size in f.block_sizes]
        total = 1
        for r in reach:
            total *= len(r)
            if total > max_products:
                raise ResourceGuardError(
                    f"{rel.name}: {total} block combinations exceed the budget")

        for combo in product(*reach):
            out = []
            for t in range(k):
                key = tuple(h[t * dsz:(t + 1) * dsz] for h in combo)
                out.append(f.table[key])
            out_t = tuple(out)
            if out_t not in rel.weak:
                rows: list[tuple] = []
                for h, size in zip(combo, f.block_sizes):
                    rows.extend(_witness_rows(h, all_levels[:size + 1],
                                              tuples, profs))
                # sanity: the reconstructed rows really produce the failure
                if f.apply_rows(rows) != out_t:
                    raise AssertionError("witness rows do not reproduce the violation")
                return PolymorphismReport(False, rel.name, rows, out_t)
    return PolymorphismReport(True)


# ---------------------------------------------------------------------------
# Basic LP relaxation
# ---------------------------------------------------------------------------


@dataclass
class BasicLpLayout:
    """Index map for the relaxation variables: v block, mu block, lambda block."""

    n_vars: int
    coords: int
    domain: tuple
    v_base: int = 0
    mu_base: int = 0
    lam_base: dict = field(default_factory=dict)   # clause index -> base col
    lam_tuples: dict = field(default_factory=dict)  # clause index -> sorted tuples
    width: int = 0

    def v_index(self, var: int, coord: int) -> int:
        return self.v_base + var * self.coords + coord

    def mu_index(self, var: int, value) -> int:
        return self.mu_base + var * len(self.domain) + self.domain.index(value)

    def lam_index(self, clause: int, tup: tuple) -> int:
        return self.lam_base[clause] + self.lam_tuples[clause].index(tup)


def build_basic_lp(template: PromiseTemplate, instance: Instance,
                   embedding: Mapping) -> tuple[InequalitySystem, BasicLpLayout]:
    """Extended-form LP: distributions over strong tuples per clause, value
    distributions per variable, and embedded coordinates per variable.

    `embedding` maps each strong value to a tuple of rationals; the v block
    carries sum_d mu_x(d) * embedding(d) for rounding.  All constraint
    coefficients are integers (denominators are cleared row by row).
    """
    emb = {d: tuple(Fraction(c) for c in embedding[d]) for d in template.domain}
    coords = len(next(iter(emb.values())))
    if any(len(t) != coords for t in emb.values()):
        raise ValueError("embedding coordinate counts differ")
    n = instance.n_vars
    dsz = len(template.domain)
    layout = BasicLpLayout(n, coords, tuple(template.domain))
    layout.v_base = 0
    layout.mu_base = n * coords
    col = layout.mu_base + n * dsz
    for j, cl in enumerate(instance.clauses):
        tuples = sorted(template.relations[cl.relation].strong)
        layout.lam_base[j] = col
        layout.lam_tuples[j] = tuples
        col += len(tuples)
    layout.width = col

    sys = InequalitySystem(col)
    # per-variable normalisation: sum_d mu = 1
    for x in range(n):
        sys.add_eq({layout.mu_index(x, d): 1 for d in template.domain}, 1)
    # v link: v_{x,c} - sum_d emb(d)[c] mu_{x,d} = 0, denominators cleared
    for x in range(n):
        for c in range(coords):
            den = lcm(*(emb[d][c].denominator for d in template.domain))
            row = {layout.v_index(x, c): den}
            for d in template.domain:
                coef = -emb[d][c] * den
                if coef:
                    row[layout.mu_index(x, d)] = int(coef)
            sys.add_eq(row, 0)
    # clause rows
    for j, cl in enumerate(instance.clauses):
        tuples = layout.lam_tuples[j]
        sys.add_eq({layout.lam_index(j, t): 1 for t in tuples}, 1)
        for pos, x in enumerate(cl.variables):
            for d in template.domain:
                row = {layout.lam_index(j, t): 1 for t in tuples if t[pos] == d}
                mu = layout.mu_index(x, d)
                row[mu] = row.get(mu, 0) - 1
                sys.add_eq(row, 0)
    # nonnegativity
    for x in range(n):
        for d in template.domain:
            sys.add_le({layout.mu_index(x, d): -1}, 0)
    for j, cl in enumerate(instance.clauses):
        for t in layout.lam_tuples[j]:
            sys.add_le({layout.lam_index(j, t): -1}, 0)
    return sys, layout


def barycentric_warm_point(template: PromiseTemplate, instance: Instance,
                           layout: BasicLpLayout,
                           embedding: Mapping) -> list[Fraction]:
    """Uniform lambda per clause with the mu/v values they force.

    For templates whose relations have symmetric value counts across
    positions this is feasible.  Otherwise the hull's one slack pass finds
    a negative slack there, and phase I gives its base point instead.
    """
    emb = {d: tuple(Fraction(c) for c in embedding[d]) for d in template.domain}
    pt = [Fraction(0)] * layout.width
    n = layout.n_vars
    mu_acc: dict[tuple[int, object], Fraction] = {}
    seen: set[int] = set()
    for j, cl in enumerate(instance.clauses):
        tuples = layout.lam_tuples[j]
        u = Fraction(1, len(tuples))
        for t in tuples:
            pt[layout.lam_index(j, t)] = u
        for pos, x in enumerate(cl.variables):
            if x in seen:
                continue
            for d in template.domain:
                cnt = sum(1 for t in tuples if t[pos] == d)
                mu_acc[(x, d)] = u * cnt
        seen.update(cl.variables)
    for x in range(n):
        for d in template.domain:
            pt[layout.mu_index(x, d)] = mu_acc.get((x, d), Fraction(1, len(template.domain)))
    for x in range(n):
        for c in range(layout.coords):
            pt[layout.v_index(x, c)] = sum(
                pt[layout.mu_index(x, d)] * emb[d][c] for d in template.domain)
    return pt


# ---------------------------------------------------------------------------
# Per-relation lattices
# ---------------------------------------------------------------------------


def _profile(t: tuple, domain: tuple, values: bool) -> dict[int, int]:
    if values:
        return {0: 1, **{1 + pos: int(d) for pos, d in enumerate(t) if d}}
    return {0: 1, **{1 + pos * len(domain) + domain.index(d): 1
                     for pos, d in enumerate(t)}}


@dataclass(frozen=True)
class RelationLattice:
    """L(R, S): the integer span of the profiles P of the tuples S.

    A clause's marginal vector m (the constant 1, then its variables'
    marginals) comes from integer multipliers, P lam = m, exactly when m
    lies in L.  So a clause restricts its variables only through L, which
    depends on the relation and S alone.

    `equations` are rows over the `width` profile coordinates and then
    `extra` congruence columns: m lies in L exactly when integer values of
    those columns make every row vanish.  The same rows hold over Z/M and
    over any product ring, since they describe L + M Z^width there too.
    `multipliers` reads lam back from m and the congruence columns.
    """

    width: int
    size: int                 # |S|
    equations: tuple[dict[int, int], ...]
    extra: int
    # back substitution: (tuple position, form in m, earlier multipliers)
    steps: tuple[tuple[int, dict[int, int], dict[int, int]], ...]

    def multipliers(self, point: Sequence[int]) -> list[int]:
        """lam with P lam = m, from `point` = m followed by the congruence
        columns; over Z/M, P lam = m (mod M) whenever the rows hold mod M."""
        if self.extra:
            return list(point[self.width:self.width + self.extra])
        lam = [0] * self.size
        for t, form, deps in self.steps:
            lam[t] = (sum(v * point[c] for c, v in form.items())
                      - sum(v * lam[u] for u, v in deps.items()))
        return lam


def _relation_lattice(profiles: list[dict[int, int]], width: int
                      ) -> RelationLattice:
    """L(R, S) from the Hermite form of P's transpose, H = P^T U.

    With w = U^T m, P lam = m becomes H^T lam = w.  Coordinates of w past
    H's rank must vanish: those rows of U^T are the left kernel of P, the
    equations.  When every pivot of H is 1, L is saturated, so those
    equations are all of it, and back substitution along H's staircase
    solves the other coordinates with lam zero off the pivot tuples.  A
    pivot > 1 makes the clause keep one congruence column per tuple, its
    multipliers, with the rows P lam = m.
    """
    solver = IntegerSolver(profiles, width)
    res = solver.result
    if all(res.h_cols[c][i] == 1 for i, c in res.pivots):
        steps = tuple(
            (solver.row_order[i],
             {solver.col_order[q]: v for q, v in res.u_cols[c].items()},
             {solver.row_order[k]: v for k, v in res.h_cols[c].items() if k != i})
            for i, c in reversed(res.pivots))
        return RelationLattice(width, len(profiles),
                               tuple(solver.kernel_basis()), 0, steps)
    rows = [{c: 1} for c in range(width)]
    for t, prof in enumerate(profiles):
        for c, v in prof.items():
            rows[c][width + t] = -v
    return RelationLattice(width, len(profiles), tuple(rows),
                           len(profiles), ())


def _lattice_rows(lat: RelationLattice, columns: Sequence[int],
                  extra_base: int) -> list[tuple[dict[int, int], int]]:
    """`lat`'s equations over a system's columns: profile coordinate c > 0
    sits in column columns[c - 1], congruence column k in extra_base + k,
    and coordinate 0, the constant one, moves to the right-hand side."""
    out = []
    for eq in lat.equations:
        row: dict[int, int] = {}
        const = 0
        for c, v in eq.items():
            if c == 0:
                const -= v
                continue
            k = columns[c - 1] if c < lat.width else extra_base + c - lat.width
            row[k] = row.get(k, 0) + v
        out.append((row, const))
    return out


def hull_integer_point(template: PromiseTemplate, instance: Instance,
                       layout: BasicLpLayout, eq_rows: Sequence[Mapping[int, int]],
                       eq_rhs: Sequence[int]) -> list[int] | None:
    """An integer point of the basic LP's hull {eq_rows . x = eq_rhs}, or
    None when it has none, solved in the v and mu columns alone.

    The hull's rows without lambda stay: the per-variable and v-link rows
    and the fixed-zero mu.  A lambda fixed at zero leaves its tuple out of
    the clause's support S_j, and each clause's own rows give way to the
    equations of L(R, S_j) on its mu.  Each lambda_j is then read back from
    its clause's marginals.
    """
    dsz = len(layout.domain)
    lam0 = n_cols = layout.mu_base + layout.n_vars * dsz  # the first lambda
    rows: list[Mapping[int, int]] = []
    rhs: list[int] = []
    fixed: set[int] = set()
    for row, b in zip(eq_rows, eq_rhs):
        if all(j < lam0 for j in row):
            rows.append(row)
            rhs.append(b)
        elif len(row) == 1 and b == 0:
            fixed.update(row)
    clauses = []
    for j, cl in enumerate(instance.clauses):
        base, tuples = layout.lam_base[j], layout.lam_tuples[j]
        free = [i for i in range(len(tuples)) if base + i not in fixed]
        lat = template.relation_lattice(cl.relation,
                                        tuple(tuples[i] for i in free))
        columns = [layout.mu_base + x * dsz + k
                   for x in cl.variables for k in range(dsz)]
        for row, const in _lattice_rows(lat, columns, n_cols):
            rows.append(row)
            rhs.append(const)
        clauses.append((lat, [base + i for i in free], columns, n_cols))
        n_cols += lat.extra
    solver = IntegerSolver(rows, n_cols)
    y = solver.solve(rhs)
    if y is None:
        return None
    # the Hermite form's solution can lie far out along the kernel; one pass
    # of size reduction (Babai 1986) brings it back near the origin
    for k in solver.kernel_basis():
        t = round(Fraction(-sum(y[j] * v for j, v in k.items()),
                           sum(v * v for v in k.values())))
        for j, v in k.items():
            y[j] += t * v
    x = y[:lam0] + [0] * (layout.width - lam0)
    for lat, lam_cols, columns, extra in clauses:
        point = [1] + [y[k] for k in columns] + y[extra:extra + lat.extra]
        for k, v in zip(lam_cols, lat.multipliers(point)):
            x[k] = v
    return x


# ---------------------------------------------------------------------------
# Affine relaxation over a lattice quotient
# ---------------------------------------------------------------------------


@dataclass
class AffineLayout:
    n_vars: int
    lattice: LatticeIdeal
    width: int


@dataclass
class AffineSystem:
    rows: list[dict[int, object]]      # coefficient: int or per-coord tuple
    rhs: list[LatticeQuotientElem]
    layout: AffineLayout


@dataclass
class AffineLatticeSystem:
    """The affine relaxation in the variables alone: each clause's relation
    lattice equations over the values of its variables, in columns
    0..n-1, plus the lattices' congruence columns.  Its rows and rhs are
    what `linalg.solve_lattice_quotient_system` takes."""

    lattice: LatticeIdeal
    rows: list[dict[int, int]]
    rhs: list[LatticeQuotientElem]
    width: int
    # per clause: its tuples, their lattice, its variables, first extra column
    clauses: list[tuple[tuple, RelationLattice, tuple[int, ...], int]]

    def multipliers(self, solution: Sequence[LatticeQuotientElem]
                    ) -> list[dict[tuple, LatticeQuotientElem]]:
        """Each clause's multipliers, read back coordinate by coordinate of
        the product ring from its variables' values in `solution`."""
        out = []
        for tuples, lat, variables, extra in self.clauses:
            cols = list(variables) + list(range(extra, extra + lat.extra))
            per_coord = [lat.multipliers([1] + [solution[k].vector[i] for k in cols])
                         for i in range(self.lattice.dim)]
            out.append({t: self.lattice.element(tuple(lam[s] for lam in per_coord))
                        for s, t in enumerate(tuples)})
        return out


def build_affine_lattice_system(template: PromiseTemplate, instance: Instance,
                                lattice: LatticeIdeal) -> AffineLatticeSystem:
    """The relaxation of `build_affine_relaxation` with its multiplier
    columns eliminated through each relation's lattice of value profiles.
    The lattice rows hold over Z^b / J coordinate by coordinate, and every
    coordinate embeds a value as itself, so each row is one ring equation
    with integer coefficients."""
    b = lattice.dim
    rows: list[dict[int, int]] = []
    rhs: list[LatticeQuotientElem] = []
    clauses = []
    width = instance.n_vars
    for cl in instance.clauses:
        tuples = tuple(sorted(template.relations[cl.relation].strong))
        lat = template.relation_lattice(cl.relation, tuples, values=True)
        for row, const in _lattice_rows(lat, cl.variables, width):
            rows.append(row)
            rhs.append(lattice.element((const,) * b))
        clauses.append((tuples, lat, cl.variables, width))
        width += lat.extra
    return AffineLatticeSystem(lattice, rows, rhs, width, clauses)


def build_affine_relaxation(template: PromiseTemplate, instance: Instance,
                            lattice: LatticeIdeal) -> AffineSystem:
    """Affine relaxation over Z^b / J: per clause, ring multipliers over the
    strong tuples that sum to one and reproduce each position's embedded
    variable value.

    Each strong value d, an integer, is embedded as the vector (d, ..., d)
    of length b; coefficients on multiplier variables are per-coordinate
    (ring multiplication by a constant is componentwise).
    """
    b = lattice.dim
    emb = {d: (int(d),) * b for d in template.domain}
    rows: list[dict[int, object]] = []
    rhs: list[LatticeQuotientElem] = []
    one = lattice.element((1,) * b)
    zero = lattice.element((0,) * b)
    base = instance.n_vars            # each clause's first multiplier column
    for cl in instance.clauses:
        tuples = sorted(template.relations[cl.relation].strong)
        rows.append({base + i: 1 for i in range(len(tuples))})
        rhs.append(one)
        for pos, x in enumerate(cl.variables):
            row: dict[int, object] = {}
            for i, t in enumerate(tuples):
                g = emb[t[pos]]
                if any(g):
                    row[base + i] = g
            row[x] = -1
            rows.append(row)
            rhs.append(zero)
        base += len(tuples)
    return AffineSystem(rows, rhs, AffineLayout(instance.n_vars, lattice, base))
