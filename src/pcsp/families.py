"""Rounding families: threshold, periodic, region-partition, simplex rules.

A family packages an infinite sequence of block-symmetric functions (one per
valid arity) together with the matching rounding rule for exact relaxation
output.  The member at arity L and the rounding rule make the same decision,
the member from integer block weights, the rounder from ring values, so
outputs justified through the member transfer to rounded solver output.

Every kind is a special case of the region-periodic rule: a region read from
the LP point, a residue from the affine point.  So each family names the
relaxations it reads in `plan`, and `round(point, w)` takes a variable's LP
coordinates over all radicands (empty without an LP) and its affine value
(None without a lattice); the solver never asks which kind it holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import comb, lcm, prod
from typing import Mapping, Sequence

from .model import BlockSymmetricFunction
from .rings import (
    LatticeIdeal,
    LatticeQuotientElem,
    SqrtExpr,
    intersect_ideals,
    validate_radicand,
)


class InvalidArityError(ValueError):
    """The family has no member at the requested arity."""


class PartitionError(ValueError):
    """A point fell on a cell boundary or outside every cell."""


@dataclass(frozen=True)
class RelaxationPlan:
    """One basic LP over `lp_embedding`, lifted into the ring of each
    radicand (none when `radicands` is empty), then at most one affine
    relaxation over `lattice` (none when it is None).  A family builds its
    plan on first use, so the lattice's HNF runs once per family.
    """

    radicands: tuple[int, ...]
    lp_embedding: Mapping | None
    lattice: LatticeIdeal | None


# the 0/1 domain of threshold and region families, embedded as itself
_SCALAR = {0: (Fraction(0),), 1: (Fraction(1),)}


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


def _integer_form(poly: Poly) -> tuple:
    """(c*S, exps, D - |exps|) per monomial: S the lcm of the coefficient
    denominators, D the total degree.  At x = k/d this sums to
    p(x) * S * d^D, a positive multiple of p(x)."""
    scale = lcm(*(c.denominator for c, _ in poly))
    degree = max((sum(e) for _, e in poly), default=0)
    return tuple((c.numerator * (scale // c.denominator), e, degree - sum(e))
                 for c, e in poly)


def _grid_sign(form: tuple, nums: Sequence[int], d: int) -> int:
    """Sign of the polynomial at the rational point nums / d."""
    v = sum(c * d ** r * prod(map(pow, nums, e)) for c, e, r in form)
    return (v > 0) - (v < 0)


def _cell_decision(signs) -> bool | None:
    boundary = False
    for s in signs:
        if s < 0:
            return False
        if s == 0:
            boundary = True
    return None if boundary else True


@dataclass(frozen=True)
class Cell:
    label: object
    polys: tuple            # every polynomial must be strictly positive

    @cached_property
    def _forms(self) -> tuple:
        return tuple(_integer_form(p) for p in self.polys)

    def matches(self, point: Sequence) -> bool | None:
        """True/False for strict membership, None when a boundary is hit.

        A rational point is decided with integers; a point with a ring
        coordinate through `eval_poly`."""
        if all(isinstance(x, (int, Fraction)) for x in point):
            d = lcm(*(x.denominator for x in point))
            return self._matches_grid(
                [x.numerator * (d // x.denominator) for x in point], d)
        return _cell_decision(eval_poly(p, point).sign() for p in self.polys)

    def _matches_grid(self, nums: Sequence[int], d: int) -> bool | None:
        """`matches` at the point nums / d, for d > 0."""
        return _cell_decision(_grid_sign(f, nums, d) for f in self._forms)


# random interior points each partition is checked on at construction
_SAMPLE_CHECKS = 10_000


@dataclass(frozen=True)
class PartitionSpec:
    """Open cells plus a corner table covering the 0/1 points of [0,1]^dim.

    Cells are open sets cut out by strict polynomial inequalities; together
    with the corner table they must classify every point the family ever
    evaluates.  Construction samples 10,000 random interior points of the
    1/97 grid, deciding each polynomial's sign exactly in integers, and
    rejects overlapping or non-covering cell systems.
    """

    dim: int
    cells: tuple[Cell, ...]
    corners: Mapping[tuple[int, ...], object] = field(default_factory=dict)

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
        for _ in range(_SAMPLE_CHECKS):
            nums = [rng.randrange(1, den) for _ in range(self.dim)]
            hits = []
            boundary = False
            for cell in self.cells:
                m = cell._matches_grid(nums, den)
                if m is None:
                    boundary = True
                elif m:
                    hits.append(cell.label)
            if boundary or len(hits) == 1:
                continue
            pt = tuple(Fraction(k, den) for k in nums)
            if hits:
                raise ValueError(f"cells {hits} overlap at {pt}")
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
    if x < 0:
        return Fraction(0)
    if x > 1:
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
        if x == 0:
            ints.append(0)
        elif x == 1:
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


def _histograms(total: int, size: int):
    """Every `size`-tuple of nonnegative counts summing to `total`."""
    if size == 1:
        yield (total,)
        return
    for h in range(total + 1):
        for rest in _histograms(total - h, size - 1):
            yield (h,) + rest


def _build_member(family, sizes: tuple[int, ...],
                  build_all: bool = False) -> BlockSymmetricFunction:
    """The member with blocks `sizes`, valued by `family._entry(sizes, key)`.

    Keys are per-block histograms over `family.domain`.  The table is built
    up front when it is small or `build_all` is set (the build is then the
    arity check), otherwise entry by entry on first access.  An up-front
    build that hits a point the partition cannot classify makes the arity
    invalid.
    """
    L = sum(sizes)
    d = len(family.domain)
    if build_all or prod(comb(s + d - 1, d - 1) for s in sizes) <= _EAGER_TABLE_LIMIT:
        keys = product(*(_histograms(s, d) for s in sizes))
        try:
            table: Mapping = {key: family._entry(sizes, key) for key in keys}
        except PartitionError as e:
            raise InvalidArityError(f"arity {L}: {e}") from e
    else:
        table = _LazyTable(lambda key: family._entry(sizes, key))
    return BlockSymmetricFunction(family.domain, family.outputs(), sizes,
                                  table, f"{family.name}[{L}]")


def _one_block(L: int) -> tuple[int, ...]:
    if L < 1:
        raise InvalidArityError("arity must be positive")
    return (L,)


def _residue(w, modulus: int) -> int:
    """w mod `modulus`, for an int or an element of exactly Z/modulus."""
    if isinstance(w, LatticeQuotientElem):
        if w.lattice.diag != (modulus,):
            raise ValueError(f"expected an element of Z/{modulus}, "
                             f"got one of {w.lattice}")
        return w.vector[0]
    if not isinstance(w, int):
        raise ValueError(f"expected an int or an element of Z/{modulus}")
    return w % modulus


def _check_thresholds(thresholds):
    ts = tuple(Fraction(t) for t in thresholds)
    if any(t < 0 or t > 1 for t in ts):
        raise ValueError("thresholds must lie in [0, 1]")
    if any(a >= b for a, b in zip(ts, ts[1:])):
        raise ValueError("thresholds must be strictly increasing")
    return ts


def interval_index(thresholds: Sequence[Fraction], v) -> int:
    """Number of thresholds strictly below v; ties fall to the lower side."""
    return sum(1 for t in thresholds if t < v)


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

    def _entry(self, sizes, key):
        return self.eta[interval_index(self.thresholds, Fraction(key[0][1], sizes[0]))]

    def member(self, L: int) -> BlockSymmetricFunction:
        return _build_member(self, _one_block(L))

    @cached_property
    def plan(self) -> RelaxationPlan:
        return RelaxationPlan((self.radicand,), _SCALAR, None)

    def round(self, point: Sequence, w):
        return self.eta[interval_index(self.thresholds, point[0])]


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

    def _entry(self, sizes, key):
        return self.eta[sum(d * h for d, h in zip(self.domain, key[0])) % self.modulus]

    def member(self, L: int) -> BlockSymmetricFunction:
        return _build_member(self, _one_block(L))

    @cached_property
    def plan(self) -> RelaxationPlan:
        return RelaxationPlan((), None, LatticeIdeal([(self.modulus,)]))

    def round(self, point: Sequence, w):
        """A member at L = residue (mod M) sees column sums residue * w."""
        return self.eta[self.residue * _residue(w, self.modulus) % self.modulus]


@dataclass(frozen=True)
class ThresholdPeriodicFamily:
    """Interval choice from the ones fraction, then a periodic map mod M_i."""

    thresholds: tuple
    moduli: tuple            # one modulus per interval
    etas: tuple              # etas[i] indexed by residues mod moduli[i]
    residue: int = 1
    radicand: int = 2
    name: str = "thr-per"

    kind = "thrper"
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

    def _entry(self, sizes, key):
        w = key[0][1]
        i = interval_index(self.thresholds, Fraction(w, sizes[0]))
        return self.etas[i][w % self.moduli[i]]

    def member(self, L: int) -> BlockSymmetricFunction:
        return _build_member(self, _one_block(L))

    @cached_property
    def plan(self) -> RelaxationPlan:
        return RelaxationPlan((self.radicand,), _SCALAR,
                              LatticeIdeal([(self.period,)]))

    def round(self, point: Sequence, w):
        """A member at L = residue (mod period) sees ones counts residue * w."""
        i = interval_index(self.thresholds, point[0])
        ones = self.residue * _residue(w, self.period) % self.period
        return self.etas[i][ones % self.moduli[i]]


def _ones_fractions(sizes: tuple[int, ...], key: tuple) -> tuple:
    """Per-block fraction of ones of a 0/1 histogram key."""
    return tuple(Fraction(hist[1], s) for hist, s in zip(key, sizes))


class _PartitionFamily:
    """Code shared by the families whose members classify points with a
    region partition.

    By default a member at arity L splits its inputs into one near-equal
    block per partition coordinate (the region families); the simplex family
    overrides `_sizes` with a single block.  Without an `arity_hint`, an
    arity is valid exactly when every point of its member table is
    classified, so the whole table is built to find out.
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

    def _labels(self) -> set:
        labels = {c.label for c in self.partition.cells}
        labels.update(self.partition.corners.values())
        return labels

    def outputs(self) -> tuple:
        return tuple(sorted(self._labels()))

    def _sizes(self, L: int) -> tuple[int, ...]:
        blocks = self.partition.dim
        sizes = tuple(L // blocks + (1 if i < L % blocks else 0)
                      for i in range(blocks))
        if any(s == 0 for s in sizes):
            raise InvalidArityError(f"arity {L} leaves a block empty")
        return sizes

    def _hinted_sizes(self, L: int) -> tuple[int, ...]:
        sizes = self._sizes(L)
        if self.arity_hint is not None and not self.arity_hint(L):
            raise InvalidArityError(f"arity {L} rejected by the arity hint")
        return sizes

    def is_valid_arity(self, L: int) -> bool:
        try:
            sizes = self._hinted_sizes(L)
            if self.arity_hint is None:
                _build_member(self, sizes, build_all=True)
        except InvalidArityError:
            return False
        return True

    def _member(self, L: int) -> BlockSymmetricFunction:
        return _build_member(self, self._hinted_sizes(L),
                             build_all=self.arity_hint is None)


@dataclass(frozen=True)
class RegionFamily(_PartitionFamily):
    """Near-equal blocks; the vector of per-block ones fractions is
    classified by a region partition whose label is the output."""

    partition: PartitionSpec
    radicands: tuple
    name: str = "reg"
    arity_hint: object = None      # optional predicate certifying valid arities

    kind = "reg"
    domain = (0, 1)

    def __post_init__(self):
        self._check_radicands()

    def _entry(self, sizes, key):
        return evaluate_partition(self.partition, _ones_fractions(sizes, key))

    def member(self, L: int) -> BlockSymmetricFunction:
        return self._member(L)

    @cached_property
    def plan(self) -> RelaxationPlan:
        return RelaxationPlan(self.radicands, _SCALAR, None)

    def round(self, point: Sequence, w):
        return evaluate_partition(self.partition, point)


@dataclass(frozen=True)
class RegionPeriodicFamily(_PartitionFamily):
    """Region label picks a target quotient and residue map for the raw
    block-weight vector.

    Each cell lattice is an ideal of Z^b, so each cell quotient is a product
    ring Z/d_1 x ... x Z/d_b.  The plan's lattice, the intersection of the
    cell lattices, is the quotient the affine relaxation is solved over.
    """

    partition: PartitionSpec
    radicands: tuple
    cell_data: Mapping        # label -> (LatticeIdeal, {coset tuple: output})
    name: str = "reg-per"
    arity_hint: object = None      # optional predicate certifying valid arities

    kind = "regper"
    domain = (0, 1)

    def __post_init__(self):
        self._check_radicands()
        if set(self.cell_data) != self._labels():
            raise ValueError("cell_data labels differ from partition labels")
        for label, (lat, eta) in self.cell_data.items():
            if lat.dim != self.partition.dim:
                raise ValueError(f"label {label}: lattice dimension mismatch")
            if set(eta) != set(lat.cosets()):
                raise ValueError(f"label {label}: eta must cover every coset")

    def outputs(self) -> tuple:
        return tuple(sorted({v for _, eta in self.cell_data.values()
                             for v in eta.values()}))

    def _entry(self, sizes, key):
        label = evaluate_partition(self.partition, _ones_fractions(sizes, key))
        lat, eta = self.cell_data[label]
        return eta[lat.canonicalize(tuple(hist[1] for hist in key))]

    def member(self, L: int) -> BlockSymmetricFunction:
        return self._member(L)

    @cached_property
    def plan(self) -> RelaxationPlan:
        return RelaxationPlan(self.radicands, _SCALAR, intersect_ideals(
            [lat for lat, _ in self.cell_data.values()]))

    def round(self, point: Sequence, w: LatticeQuotientElem):
        label = evaluate_partition(self.partition, point)
        lat, eta = self.cell_data[label]
        return eta[w.reduce_to(lat).vector]


@dataclass(frozen=True)
class SimplexFamily(_PartitionFamily):
    """Fully symmetric member over an arbitrary finite domain; the vector of
    value fractions (a point of the probability simplex) is classified by a
    partition over |D| coordinates."""

    domain: tuple
    partition: PartitionSpec
    radicand: int = 2
    name: str = "simplex"
    arity_hint: object = None      # optional predicate certifying valid arities

    kind = "simplex"

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        if self.partition.dim != len(self.domain):
            raise ValueError("partition dimension must equal the domain size")
        validate_radicand(self.radicand)

    def _sizes(self, L: int) -> tuple[int, ...]:
        return _one_block(L)

    def _entry(self, sizes, key):
        return evaluate_partition(self.partition,
                                  tuple(Fraction(h, sizes[0]) for h in key[0]))

    def member(self, L: int) -> BlockSymmetricFunction:
        return self._member(L)

    @cached_property
    def plan(self) -> RelaxationPlan:
        one_hot = {d: tuple(Fraction(1 if e == d else 0) for e in self.domain)
                   for d in self.domain}
        return RelaxationPlan((self.radicand,), one_hot, None)

    def round(self, point: Sequence, w):
        return evaluate_partition(self.partition, point)


# the arity scan gives up after this many candidates
_ARITY_SCAN_WINDOW = 1_000_000


def scan_valid_arity(family, minimum: int = 1):
    """Smallest valid arity L >= minimum, with the member at L or None.

    Partition families without an arity hint can only tell an invalid arity
    by building its member table, so for them the scan builds each member
    once and returns the valid one; other families are scanned with
    `is_valid_arity` and build nothing.
    """
    start = max(1, minimum)
    builds = isinstance(family, _PartitionFamily) and family.arity_hint is None
    for L in range(start, start + _ARITY_SCAN_WINDOW):
        if builds:
            try:
                return L, family.member(L)
            except InvalidArityError:
                continue
        elif family.is_valid_arity(L):
            return L, None
    raise InvalidArityError(f"no valid arity of {family.name} in "
                            f"[{start}, {start + _ARITY_SCAN_WINDOW})")


def smallest_valid_arity(family, minimum: int = 1) -> int:
    return scan_valid_arity(family, minimum)[0]
