"""Rounding families: threshold, periodic, region-partition, simplex rules.

A family packages an infinite sequence of block-symmetric functions (one per
valid arity) together with the matching rounding rule for exact relaxation
output.  The member at arity L and the rounding rule make the same decision,
the member from integer block weights, the rounder from ring values, so
outputs justified through the member transfer to rounded solver output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm, prod
from typing import Mapping, Sequence

from .model import BlockSymmetricFunction
from .rings import (
    LatticeIdeal,
    LatticeQuotientElem,
    SqrtExpr,
    intersect_ideals,
    quad_compare,
    validate_radicand,
)


class InvalidArityError(ValueError):
    """The family has no member at the requested arity."""


class PartitionError(ValueError):
    """A point fell on a cell boundary or outside every cell."""


# ---------------------------------------------------------------------------
# Region partitions of the unit box
# ---------------------------------------------------------------------------

# a polynomial is a tuple of (coefficient, exponent-vector) monomials
Poly = tuple[tuple[Fraction, tuple[int, ...]], ...]


def _normalize_poly(poly, dim: int) -> Poly:
    out = []
    for coef, exps in poly:
        exps = tuple(int(e) for e in exps)
        if len(exps) != dim or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps}")
        c = Fraction(coef)
        if c:
            out.append((c, exps))
    return tuple(out)


def eval_poly(poly: Poly, point: Sequence) -> SqrtExpr:
    total = SqrtExpr.from_rational(0)
    for coef, exps in poly:
        term = SqrtExpr.from_rational(coef)
        for x, e in zip(point, exps):
            if not e:
                continue
            xe = SqrtExpr.promote(x)
            for _ in range(e):
                term = term * xe
        total = total + term
    return total


@dataclass(frozen=True)
class Cell:
    label: object
    polys: tuple            # every polynomial must be strictly positive

    def matches(self, point: Sequence) -> bool | None:
        """True/False for strict membership, None when a boundary is hit."""
        boundary = False
        for p in self.polys:
            s = eval_poly(p, point).sign()
            if s < 0:
                return False
            if s == 0:
                boundary = True
        return None if boundary else True


@dataclass(frozen=True)
class PartitionSpec:
    """Open cells plus a corner table covering the 0/1 points of [0,1]^dim.

    Cells are open sets cut out by strict polynomial inequalities; together
    with the corner table they must classify every point the family ever
    evaluates.  Construction samples random interior points and rejects
    overlapping or non-covering cell systems.
    """

    dim: int
    cells: tuple[Cell, ...]
    corners: Mapping[tuple[int, ...], object] = field(default_factory=dict)
    sample_checks: int = 10_000

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("partition dimension must be positive")
        if not self.cells:
            raise ValueError("partition needs at least one cell")
        object.__setattr__(self, "cells", tuple(
            Cell(c.label, tuple(_normalize_poly(p, self.dim) for p in c.polys))
            for c in self.cells))
        for key in self.corners:
            if len(key) != self.dim or any(v not in (0, 1) for v in key):
                raise ValueError(f"corner key {key} is not a 0/1 vector")
        self._validate_samples()
        self._validate_corners()

    def _validate_samples(self):
        rng = random.Random(987_654_321)
        den = 97
        for _ in range(self.sample_checks):
            pt = tuple(Fraction(rng.randrange(1, den), den)
                       for _ in range(self.dim))
            hits = []
            boundary = False
            for cell in self.cells:
                m = cell.matches(pt)
                if m is None:
                    boundary = True
                elif m:
                    hits.append(cell.label)
            if boundary:
                continue
            if len(hits) > 1:
                raise ValueError(f"cells {hits} overlap at {pt}")
            if not hits:
                raise ValueError(f"no cell covers interior point {pt}")

    def _validate_corners(self):
        for key, label in self.corners.items():
            pt = tuple(Fraction(v) for v in key)
            hits = [c.label for c in self.cells if c.matches(pt)]
            if len(hits) > 1:
                raise ValueError(f"cells {hits} overlap at corner {key}")
            if hits and hits[0] != label:
                raise ValueError(
                    f"corner {key} labelled {label} but lies in cell {hits[0]}")


def _clamp01(x):
    if quad_compare(x, 0) < 0:
        return Fraction(0)
    if quad_compare(x, 1) > 0:
        return Fraction(1)
    return x


def evaluate_partition(spec: PartitionSpec, point: Sequence):
    """Classify a point of [0,1]^dim: corner table first, then the unique
    strictly-matching cell.  Raises PartitionError on boundaries and holes."""
    if len(point) != spec.dim:
        raise ValueError("point dimension mismatch")
    pt = tuple(_clamp01(x) for x in point)
    ints = []
    for x in pt:
        if quad_compare(x, 0) == 0:
            ints.append(0)
        elif quad_compare(x, 1) == 0:
            ints.append(1)
        else:
            ints.append(None)
    if all(v is not None for v in ints):
        key = tuple(ints)
        if key in spec.corners:
            return spec.corners[key]
    hits = [c.label for c in spec.cells if c.matches(pt)]
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise PartitionError(f"no cell strictly contains {pt}")
    raise PartitionError(f"cells {hits} overlap at {pt}")


# ---------------------------------------------------------------------------
# Family definitions
# ---------------------------------------------------------------------------


class _LazyTable:
    """Mapping view that computes entries on first access."""

    def __init__(self, fn):
        self._fn = fn
        self._cache: dict = {}

    def __getitem__(self, key):
        if key not in self._cache:
            self._cache[key] = self._fn(key)
        return self._cache[key]


# members whose full table would exceed this many entries are built lazily
_EAGER_TABLE_LIMIT = 5000


def _check_thresholds(thresholds):
    ts = tuple(Fraction(t) for t in thresholds)
    if any(t < 0 or t > 1 for t in ts):
        raise ValueError("thresholds must lie in [0, 1]")
    if any(a >= b for a, b in zip(ts, ts[1:])):
        raise ValueError("thresholds must be strictly increasing")
    return ts


def interval_index(thresholds: Sequence[Fraction], v) -> int:
    """Number of thresholds strictly below v; ties fall to the lower side."""
    return sum(1 for t in thresholds if quad_compare(t, v) < 0)


def _no_interior_tie(thresholds, L: int) -> bool:
    return all(L % t.denominator != 0
               for t in thresholds if 0 < t < 1)


@dataclass(frozen=True)
class ThresholdFamily:
    """Fully symmetric member: the fraction of ones picks an interval."""

    thresholds: tuple
    eta: tuple               # one output per interval, len(thresholds)+1
    radicand: int = 2
    name: str = "thr"

    kind = "thr"
    domain = (0, 1)

    def __post_init__(self):
        object.__setattr__(self, "thresholds", _check_thresholds(self.thresholds))
        object.__setattr__(self, "eta", tuple(self.eta))
        if len(self.eta) != len(self.thresholds) + 1:
            raise ValueError("need one output per threshold interval")
        validate_radicand(self.radicand)

    def outputs(self) -> tuple:
        return tuple(sorted(set(self.eta)))

    def is_valid_arity(self, L: int) -> bool:
        return L >= 1 and _no_interior_tie(self.thresholds, L)

    def member(self, L: int) -> BlockSymmetricFunction:
        if L < 1:
            raise InvalidArityError("arity must be positive")

        def fn(key):
            return self.eta[interval_index(self.thresholds, Fraction(key[0][1], L))]

        if L + 1 <= _EAGER_TABLE_LIMIT:
            table: Mapping = {((L - w, w),): fn(((L - w, w),)) for w in range(L + 1)}
        else:
            table = _LazyTable(fn)
        return BlockSymmetricFunction(self.domain, self.outputs(), (L,),
                                      table, f"{self.name}[{L}]")

    def round(self, v):
        return self.eta[interval_index(self.thresholds, v)]


@dataclass(frozen=True)
class PeriodicFamily:
    """Fully symmetric member: the weighted sum mod M picks the output."""

    modulus: int
    residue: int
    eta: tuple               # indexed by residues 0..M-1
    domain: tuple = (0, 1)
    name: str = "per"

    kind = "per"

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("residue out of range")
        object.__setattr__(self, "eta", tuple(self.eta))
        object.__setattr__(self, "domain", tuple(self.domain))
        if len(self.eta) != self.modulus:
            raise ValueError("eta must cover every residue")
        if any(not isinstance(d, int) for d in self.domain):
            raise ValueError("periodic domains must be integer-valued")

    def outputs(self) -> tuple:
        return tuple(sorted(set(self.eta)))

    def is_valid_arity(self, L: int) -> bool:
        return L >= 1 and L % self.modulus == self.residue % self.modulus

    def member(self, L: int) -> BlockSymmetricFunction:
        if L < 1:
            raise InvalidArityError("arity must be positive")
        dom = self.domain

        def fn(key):
            hist = key[0]
            w = sum(d * h for d, h in zip(dom, hist)) % self.modulus
            return self.eta[w]

        if len(dom) == 2 and L + 1 <= _EAGER_TABLE_LIMIT:
            table: Mapping = {((L - w, w),): fn(((L - w, w),)) for w in range(L + 1)}
        else:
            table = _LazyTable(fn)
        return BlockSymmetricFunction(dom, self.outputs(), (L,),
                                      table, f"{self.name}[{L}]")

    def round(self, w):
        if isinstance(w, LatticeQuotientElem):
            if w.lattice.dim != 1:
                raise ValueError("expected a rank-1 quotient")
            w = w.vector[0]
        return self.eta[int(w) % self.modulus]


@dataclass(frozen=True)
class ThresholdPeriodicFamily:
    """Interval choice from the ones fraction, then a periodic map mod M_i."""

    thresholds: tuple
    moduli: tuple            # one modulus per interval
    etas: tuple              # etas[i] indexed by residues mod moduli[i]
    residue: int = 1
    radicand: int = 2
    name: str = "thr-per"

    kind = "thr-per"
    domain = (0, 1)

    def __post_init__(self):
        object.__setattr__(self, "thresholds", _check_thresholds(self.thresholds))
        object.__setattr__(self, "moduli", tuple(int(m) for m in self.moduli))
        object.__setattr__(self, "etas", tuple(tuple(e) for e in self.etas))
        if len(self.moduli) != len(self.thresholds) + 1:
            raise ValueError("need one modulus per threshold interval")
        if len(self.etas) != len(self.moduli):
            raise ValueError("need one eta per interval")
        if any(m < 1 for m in self.moduli):
            raise ValueError("moduli must be positive")
        for m, e in zip(self.moduli, self.etas):
            if len(e) != m:
                raise ValueError("eta must cover every residue of its modulus")
        if not 0 <= self.residue < self.period:
            raise ValueError("residue out of range")
        validate_radicand(self.radicand)

    @property
    def period(self) -> int:
        return lcm(*self.moduli)

    def outputs(self) -> tuple:
        return tuple(sorted({v for e in self.etas for v in e}))

    def is_valid_arity(self, L: int) -> bool:
        return (L >= 1 and L % self.period == self.residue % self.period
                and _no_interior_tie(self.thresholds, L))

    def member(self, L: int) -> BlockSymmetricFunction:
        if L < 1:
            raise InvalidArityError("arity must be positive")

        def fn(key):
            w = key[0][1]
            i = interval_index(self.thresholds, Fraction(w, L))
            return self.etas[i][w % self.moduli[i]]

        if L + 1 <= _EAGER_TABLE_LIMIT:
            table: Mapping = {((L - w, w),): fn(((L - w, w),)) for w in range(L + 1)}
        else:
            table = _LazyTable(fn)
        return BlockSymmetricFunction(self.domain, self.outputs(), (L,),
                                      table, f"{self.name}[{L}]")

    def round(self, v, w):
        i = interval_index(self.thresholds, v)
        if isinstance(w, LatticeQuotientElem):
            if w.lattice.dim != 1:
                raise ValueError("expected a rank-1 quotient")
            w = w.vector[0]
        return self.etas[i][int(w) % self.moduli[i]]


def _split_sizes(L: int, blocks: int) -> tuple[int, ...]:
    base = L // blocks
    extra = L % blocks
    return tuple(base + (1 if i < extra else 0) for i in range(blocks))


def _trivial_lattice(dim: int) -> LatticeIdeal:
    gens = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    return LatticeIdeal(gens)


class _BlockRegionFamily:
    """Block-partition code shared by the two region families.

    A member at arity L splits its inputs into `blocks` near-equal blocks;
    the vector of per-block ones fractions, together with the raw block
    weights, goes to the subclass's `_finish(point, ws)` for the output.
    """

    def _check_radicands(self) -> None:
        rads = tuple(int(q) for q in self.radicands)
        object.__setattr__(self, "radicands", rads)
        if len(rads) != self.partition.dim:
            raise ValueError("one radicand per partition coordinate")
        for q in rads:
            validate_radicand(q)
        if len(set(rads)) != len(rads):
            raise ValueError("radicands must be pairwise distinct")

    @property
    def blocks(self) -> int:
        return self.partition.dim

    def _block_sizes(self, L: int) -> tuple[int, ...]:
        sizes = _split_sizes(L, self.blocks)
        if any(s == 0 for s in sizes):
            raise InvalidArityError(f"arity {L} leaves a block empty")
        return sizes

    def _entry(self, sizes: tuple[int, ...], key: tuple):
        ws = tuple(k[1] for k in key)
        point = tuple(Fraction(w, s) for w, s in zip(ws, sizes))
        return self._finish(point, ws)

    def _table(self, L: int) -> dict:
        sizes = self._block_sizes(L)
        table: dict = {}

        def rec(i: int, key: tuple):
            if i == self.blocks:
                table[key] = self._entry(sizes, key)
                return
            for w in range(sizes[i] + 1):
                rec(i + 1, key + ((sizes[i] - w, w),))

        rec(0, ())
        return table

    def is_valid_arity(self, L: int) -> bool:
        if L < self.blocks:
            return False
        if self.arity_hint is not None:
            return bool(self.arity_hint(L))
        try:
            self._table(L)
        except (PartitionError, InvalidArityError):
            return False
        return True

    def _member(self, L: int) -> BlockSymmetricFunction:
        sizes = self._block_sizes(L)
        if self.arity_hint is not None:
            if not self.arity_hint(L):
                raise InvalidArityError(f"arity {L} rejected by the arity hint")
            if prod(s + 1 for s in sizes) > _EAGER_TABLE_LIMIT:
                return BlockSymmetricFunction(
                    self.domain, self.outputs(), sizes,
                    _LazyTable(lambda key: self._entry(sizes, key)),
                    f"{self.name}[{L}]")
        try:
            table = self._table(L)
        except PartitionError as e:
            raise InvalidArityError(f"arity {L}: {e}") from e
        return BlockSymmetricFunction(self.domain, self.outputs(), sizes,
                                      table, f"{self.name}[{L}]")


@dataclass(frozen=True)
class RegionFamily(_BlockRegionFamily):
    """Near-equal blocks; the vector of per-block ones fractions is
    classified by a region partition whose label is the output."""

    partition: PartitionSpec
    radicands: tuple
    lattice: LatticeIdeal | None = None
    name: str = "reg"
    arity_hint: object = None      # optional predicate certifying valid arities

    kind = "reg"
    domain = (0, 1)

    def __post_init__(self):
        self._check_radicands()
        if self.lattice is None:
            object.__setattr__(self, "lattice", _trivial_lattice(self.partition.dim))
        if self.lattice.dim != self.partition.dim:
            raise ValueError("lattice dimension mismatch")

    def outputs(self) -> tuple:
        labels = {c.label for c in self.partition.cells}
        labels.update(self.partition.corners.values())
        return tuple(sorted(labels))

    def _finish(self, point, ws):
        return evaluate_partition(self.partition, point)

    def member(self, L: int) -> BlockSymmetricFunction:
        return self._member(L)

    def round(self, point: Sequence):
        return evaluate_partition(self.partition, point)


@dataclass(frozen=True)
class RegionPeriodicFamily(_BlockRegionFamily):
    """Region label picks a target quotient and residue map for the raw
    block-weight vector."""

    partition: PartitionSpec
    radicands: tuple
    cell_data: Mapping        # label -> (LatticeIdeal, {coset tuple: output})
    name: str = "reg-per"
    arity_hint: object = None      # optional predicate certifying valid arities

    kind = "reg-per"
    domain = (0, 1)

    def __post_init__(self):
        self._check_radicands()
        labels = {c.label for c in self.partition.cells}
        labels.update(self.partition.corners.values())
        if set(self.cell_data) != labels:
            raise ValueError("cell_data labels differ from partition labels")
        for label, (lat, eta) in self.cell_data.items():
            if lat.dim != self.partition.dim:
                raise ValueError(f"label {label}: lattice dimension mismatch")
            if set(eta) != set(lat.cosets()):
                raise ValueError(f"label {label}: eta must cover every coset")

    @property
    def affine_lattice(self) -> LatticeIdeal:
        return intersect_ideals([lat for lat, _ in self.cell_data.values()])

    def outputs(self) -> tuple:
        return tuple(sorted({v for _, eta in self.cell_data.values()
                             for v in eta.values()}))

    def _finish(self, point, ws):
        label = evaluate_partition(self.partition, point)
        lat, eta = self.cell_data[label]
        return eta[lat.canonicalize(ws)]

    def member(self, L: int) -> BlockSymmetricFunction:
        return self._member(L)

    def round(self, point: Sequence, w: LatticeQuotientElem):
        label = evaluate_partition(self.partition, point)
        lat, eta = self.cell_data[label]
        return eta[w.reduce_to(lat).vector]


@dataclass(frozen=True)
class SimplexFamily:
    """Fully symmetric member over an arbitrary finite domain; the vector of
    value fractions (a point of the probability simplex) is classified by a
    partition over |D| coordinates."""

    domain: tuple
    partition: PartitionSpec
    radicand: int = 2
    lattice: LatticeIdeal | None = None
    name: str = "simplex"
    arity_hint: object = None      # optional predicate certifying valid arities

    kind = "simplex"

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        if self.partition.dim != len(self.domain):
            raise ValueError("partition dimension must equal the domain size")
        validate_radicand(self.radicand)
        if self.lattice is None:
            object.__setattr__(self, "lattice", _trivial_lattice(len(self.domain)))
        if self.lattice.dim != len(self.domain):
            raise ValueError("lattice dimension mismatch")

    def outputs(self) -> tuple:
        labels = {c.label for c in self.partition.cells}
        labels.update(self.partition.corners.values())
        return tuple(sorted(labels))

    def _table(self, L: int) -> dict:
        table: dict = {}
        dsz = len(self.domain)

        def rec(i: int, rest: int, hist: tuple):
            if i == dsz - 1:
                full = hist + (rest,)
                point = tuple(Fraction(h, L) for h in full)
                table[(full,)] = evaluate_partition(self.partition, point)
                return
            for h in range(rest + 1):
                rec(i + 1, rest - h, hist + (h,))

        rec(0, L, ())
        return table

    def is_valid_arity(self, L: int) -> bool:
        if L < 1:
            return False
        if self.arity_hint is not None:
            return bool(self.arity_hint(L))
        try:
            self._table(L)
        except PartitionError:
            return False
        return True

    def member(self, L: int) -> BlockSymmetricFunction:
        if L < 1:
            raise InvalidArityError("arity must be positive")
        if self.arity_hint is not None:
            if not self.arity_hint(L):
                raise InvalidArityError(f"arity {L} rejected by the arity hint")
            dsz = len(self.domain)
            if comb(L + dsz - 1, dsz - 1) > _EAGER_TABLE_LIMIT:
                def fn(key):
                    point = tuple(Fraction(h, L) for h in key[0])
                    return evaluate_partition(self.partition, point)
                return BlockSymmetricFunction(self.domain, self.outputs(), (L,),
                                              _LazyTable(fn), f"{self.name}[{L}]")
        try:
            table = self._table(L)
        except PartitionError as e:
            raise InvalidArityError(f"arity {L}: {e}") from e
        return BlockSymmetricFunction(self.domain, self.outputs(), (L,),
                                      table, f"{self.name}[{L}]")

    def round(self, point: Sequence):
        return evaluate_partition(self.partition, point)


Family = (ThresholdFamily | PeriodicFamily | ThresholdPeriodicFamily |
          RegionFamily | RegionPeriodicFamily | SimplexFamily)


def smallest_valid_arity(family, minimum: int = 1, limit: int = 1_000_000) -> int:
    L = max(1, minimum)
    while L <= limit:
        if family.is_valid_arity(L):
            return L
        L += 1
    raise InvalidArityError(f"no valid arity of {family.name} up to {limit}")
