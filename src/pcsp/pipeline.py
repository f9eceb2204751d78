"""Relax-and-round solving: exact relaxations, rounding, and weight oracles.

`solve` dispatches on the family kind: threshold-style families read embedded
variable values from a ring point of the extended LP, periodic-style families
read residues from an affine relaxation over a finite quotient, and the
region/simplex families combine several of each.  An instance is rejected
exactly when one of its relaxations is infeasible over its ring.

`construct_weights` and `weighted_apply_oracle` replay a rounded clause
through an actual family member at a large valid arity, certifying that the
rounding rule and the member function agree on solver output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .families import scan_valid_arity
from .linalg import solve_lattice_quotient_system, value_sign
from .lp import STATUS_EMPTY, STATUS_OK, ring_feasible_point
from .model import (
    AffineSystem,
    BasicLpLayout,
    Instance,
    PromiseTemplate,
    barycentric_warm_point,
    build_affine_relaxation,
    build_basic_lp,
)
from .rings import LatticeIdeal, LatticeQuotientElem, QuadRing, quad_compare, quad_floor

REJECT_EMPTY_LP = "empty relaxation polytope"
REJECT_NO_RING_POINT = "no ring point on affine hull"
REJECT_AFFINE = "affine relaxation infeasible"


@dataclass
class LpTranscript:
    layout: BasicLpLayout
    point: list

    def clause_multipliers(self, j: int) -> dict:
        base = {t: self.point[self.layout.lam_index(j, t)]
                for t in self.layout.lam_tuples[j]}
        return base

    def variable_value(self, x: int, coord: int = 0):
        return self.point[self.layout.v_index(x, coord)]


@dataclass
class AffineTranscript:
    system: AffineSystem
    solution: list[LatticeQuotientElem]

    def clause_multipliers(self, j: int) -> dict:
        layout = self.system.layout
        return {t: self.solution[layout.r_base[j] + i]
                for i, t in enumerate(layout.r_tuples[j])}

    def variable_value(self, x: int) -> LatticeQuotientElem:
        return self.solution[x]


@dataclass
class SolveResult:
    accepted: bool
    assignment: list | None = None
    reason: str | None = None
    lp: list[LpTranscript] = field(default_factory=list)
    affine: AffineTranscript | None = None


def _check_domain(template: PromiseTemplate, family) -> None:
    if tuple(family.domain) != tuple(template.domain):
        raise ValueError(
            f"family domain {family.domain} differs from template domain "
            f"{template.domain}")


def _solve_basic_lp(template: PromiseTemplate, instance: Instance,
                    embedding: Mapping, radicand: int
                    ) -> tuple[str, LpTranscript | None]:
    system, layout = build_basic_lp(template, instance, embedding)
    warm = barycentric_warm_point(template, instance, layout, embedding)
    res = ring_feasible_point(system, QuadRing(radicand), warm_point=warm)
    if res.status != STATUS_OK:
        return res.status, None
    return STATUS_OK, LpTranscript(layout, res.point)


def _solve_affine(template: PromiseTemplate, instance: Instance,
                  lattice: LatticeIdeal, embedding: Mapping,
                  r_tag: str = "full") -> AffineTranscript | None:
    aff = build_affine_relaxation(template, instance, lattice, embedding,
                                  r_tag=r_tag)
    sol = solve_lattice_quotient_system(aff.rows, aff.rhs, aff.layout.width,
                                        lattice, aff.tags)
    if sol is None:
        return None
    return AffineTranscript(aff, sol)


def _lp_reject(status: str) -> SolveResult:
    reason = REJECT_EMPTY_LP if status == STATUS_EMPTY else REJECT_NO_RING_POINT
    return SolveResult(False, reason=reason)


# the 0/1 domain of threshold and region families, embedded as itself
_SCALAR = {0: (Fraction(0),), 1: (Fraction(1),)}


@dataclass(frozen=True)
class RelaxationPlan:
    """The relaxations a family kind is rounded from.

    One ring LP per radicand, all over `lp_embedding` (none when
    `radicands` is empty), then at most one affine relaxation over
    `lattice` (none when it is None).
    """

    radicands: tuple[int, ...]
    lp_embedding: Mapping | None
    lattice: LatticeIdeal | None
    affine_embedding: Mapping | None
    r_tag: str = "full"


def relaxation_plan(family) -> RelaxationPlan:
    """Per-kind choice of embeddings, lattice and multiplier tag."""
    kind = family.kind
    dom = family.domain
    if kind == "thr":
        return RelaxationPlan((family.radicand,), _SCALAR, None, None)
    if kind == "per":
        return RelaxationPlan((), None, LatticeIdeal([(family.modulus,)]),
                              {d: (d,) for d in dom})
    if kind == "thr-per":
        return RelaxationPlan((family.radicand,), _SCALAR,
                              LatticeIdeal([(family.period,)]),
                              {d: (d,) for d in dom})
    if kind in ("reg", "reg-per"):
        lattice = family.lattice if kind == "reg" else family.affine_lattice
        return RelaxationPlan(family.radicands, _SCALAR, lattice,
                              {d: (d,) * lattice.dim for d in dom})
    if kind == "simplex":
        one_hot = {d: tuple(Fraction(1 if e == d else 0) for e in dom)
                   for d in dom}
        int_hot = {d: tuple(1 if e == d else 0 for e in dom) for d in dom}
        return RelaxationPlan((family.radicand,), one_hot, family.lattice,
                              int_hot, r_tag="ones")
    raise ValueError(f"unknown family kind {kind!r}")


def _round_variable(family, x: int, lps: list[LpTranscript],
                    aff: AffineTranscript | None):
    kind = family.kind
    if kind == "thr":
        return family.round(lps[0].variable_value(x))
    if kind == "per":
        return family.round(aff.variable_value(x))
    if kind == "thr-per":
        return family.round(lps[0].variable_value(x), aff.variable_value(x))
    if kind == "simplex":
        return family.round(tuple(lps[0].variable_value(x, c)
                                  for c in range(len(family.domain))))
    point = tuple(lp.variable_value(x) for lp in lps)
    if kind == "reg":
        return family.round(point)
    return family.round(point, aff.variable_value(x))


def solve(template: PromiseTemplate, instance: Instance, family) -> SolveResult:
    """Run the relaxations the family needs and round their exact output.

    Deterministic: identical input produces identical output.  The result
    carries full transcripts (clause multipliers and variable values) for
    weight-oracle replay.
    """
    _check_domain(template, family)
    plan = relaxation_plan(family)
    lps: list[LpTranscript] = []
    for q in plan.radicands:
        status, lp = _solve_basic_lp(template, instance, plan.lp_embedding, q)
        if lp is None:
            return _lp_reject(status)
        lps.append(lp)
    aff = None
    if plan.lattice is not None:
        aff = _solve_affine(template, instance, plan.lattice,
                            plan.affine_embedding, plan.r_tag)
        if aff is None:
            return SolveResult(False, reason=REJECT_AFFINE)
    values = [_round_variable(family, x, lps, aff)
              for x in range(instance.n_vars)]
    return SolveResult(True, values, lp=lps, affine=aff)


# ---------------------------------------------------------------------------
# Integer weight construction
# ---------------------------------------------------------------------------


def _apportion(bases: list[int], L: int, step: int) -> list[int]:
    """Adjust bases by multiples of `step` to reach sum L, nonnegatively."""
    ws = list(bases)
    deficit = L - sum(ws)
    if deficit % step:
        raise AssertionError("deficit is not a step multiple")
    quanta = deficit // step
    if quanta >= 0:
        if quanta > len(ws):
            raise AssertionError("more quanta than entries")
        for i in range(quanta):
            ws[i] += step
    else:
        for _ in range(-quanta):
            i = max(range(len(ws)), key=lambda j: ws[j])
            if ws[i] < step:
                raise AssertionError("cannot rebalance without going negative")
            ws[i] -= step
    return ws


def _assert_weight_conditions(ws: list[int], alphas: Sequence, L: int,
                              step: int) -> None:
    if any(w < 0 for w in ws):
        raise AssertionError("negative weight")
    if sum(ws) != L:
        raise AssertionError("weights do not sum to the arity")
    for w, a in zip(ws, alphas):
        scaled = a * L
        if (quad_compare(scaled, w - 2 * step) < 0
                or quad_compare(scaled, w + 2 * step) > 0):
            raise AssertionError("weight drifts more than two steps")


def _weights(alphas: Sequence, residues: Sequence, L: int, step: int,
             anchor) -> list[int]:
    """Integer weights w_p >= 0 with sum L, w_p = anchor(residues[p])
    (mod step), and |w_p - alphas[p] * L| <= 2 * step."""
    m = len(alphas)
    if len(residues) != m:
        raise ValueError("multiplier count mismatch")
    if L < step * m:
        raise ValueError(f"arity {L} below the weight guard {step * m}")
    if value_sign(sum(alphas[1:], alphas[0]) - 1) != 0:
        raise ValueError("clause multipliers do not sum to one")
    anchors = [anchor(r) for r in residues]
    if (L - sum(anchors)) % step:
        raise ValueError("residues do not sum to one mod the quotient")
    bases = []
    for a, c in zip(alphas, anchors):
        if value_sign(a) < 0:
            raise ValueError("negative clause multiplier")
        base = quad_floor(a * L)
        w = base - ((base - c) % step)
        if w < 0:
            w = c
        bases.append(w)
    ws = _apportion(bases, L, step)
    if any(w % step != c for w, c in zip(ws, anchors)):
        raise AssertionError("weight left its residue class")
    _assert_weight_conditions(ws, alphas, L, step)
    return ws


def construct_weights(alphas: Sequence, residues: Sequence[int], L: int,
                      modulus: int) -> list[int]:
    """Integer weights w_p >= 0 with sum L, w_p = residues[p] * L (mod M),
    and |w_p - alphas[p] * L| <= 2M.

    alphas are exact nonnegative ring values summing to one (LP clause
    multipliers); residues are affine clause multipliers mod M.
    """
    return _weights(alphas, residues, L, modulus, lambda r: r * L % modulus)


def construct_weights_lattice(alphas: Sequence,
                              residues: Sequence[LatticeQuotientElem],
                              L: int, lattice: LatticeIdeal) -> list[int]:
    """Lattice-quotient analogue: w_p * (1, ..., 1) = L * residues[p] (mod J).

    Requires every L * residues[p] to be reachable from the diagonal subring;
    'ones'-restricted affine multipliers always are.  The diagonal t * (1,
    ..., 1) repeats with the diagonal period P, so w_p is fixed mod P.
    """
    # the coset of t * (1, ..., 1) for each t below the diagonal period
    diagonal: dict[tuple[int, ...], int] = {}
    for t in range(lattice.index + 1):
        coset = lattice.canonicalize((t,) * lattice.dim)
        if coset in diagonal:
            break
        diagonal[coset] = t

    def anchor(r: LatticeQuotientElem) -> int:
        if r.lattice != lattice:
            raise ValueError("residue lattice mismatch")
        t = diagonal.get((r * L).vector)
        if t is None:
            raise ValueError("affine multiplier unreachable from the diagonal")
        return t

    ws = _weights(alphas, residues, L, len(diagonal), anchor)
    for w, r in zip(ws, residues):
        if not lattice.contains(tuple(w - t for t in (r * L).vector)):
            raise AssertionError("weight left its coset")
    return ws


# ---------------------------------------------------------------------------
# Weighted-apply oracle
# ---------------------------------------------------------------------------


class OracleMismatchError(AssertionError):
    """Member replay disagrees with rounded output even after escalation."""


def _cached_valid_member(family, minimum: int):
    """First member at a valid arity >= minimum, memoized on the family.

    The memo lives in the family's own attribute dict, so it dies with the
    family (region families are unhashable, so no weak-keyed map can hold
    it).
    """
    memo = vars(family).setdefault("_valid_members", {})
    got = memo.get(minimum)
    if got is None:
        L, member = scan_valid_arity(family, minimum)
        if member is None:
            member = family.member(L)
        got = memo[minimum] = (L, member)
    return got


def _weight_guard(family, m: int) -> int:
    """Arity unit of an m-tuple clause's weights: the index times the rank
    of the affine lattice, per tuple; the oracle scans from a multiple."""
    lattice = relaxation_plan(family).lattice
    return m if lattice is None else lattice.index * lattice.dim * m


def _column_histogram(tuples, weights, position, domain) -> tuple[int, ...]:
    hist = [0] * len(domain)
    idx = {d: i for i, d in enumerate(domain)}
    for p, w in zip(tuples, weights):
        hist[idx[p[position]]] += w
    return tuple(hist)


def _clause_block_weights(family, tuples, result: SolveResult, j: int,
                          sizes: tuple[int, ...]) -> list[list[int]]:
    """Per-block integer weights for clause j at the member block sizes."""
    m = len(tuples)
    kind = family.kind
    if kind in ("thr", "thr-per"):
        lam = result.lp[0].clause_multipliers(j)
        alphas = [lam[t] for t in tuples]
        if kind == "thr":
            return [construct_weights(alphas, [0] * m, sizes[0], 1)]
        aff = result.affine.clause_multipliers(j)
        residues = [aff[t].vector[0] for t in tuples]
        return [construct_weights(alphas, residues, sizes[0], family.period)]
    if kind == "per":
        alphas = [Fraction(1, m)] * m
        aff = result.affine.clause_multipliers(j)
        residues = [aff[t].vector[0] for t in tuples]
        return [construct_weights(alphas, residues, sizes[0], family.modulus)]
    if kind == "reg":
        out = []
        for i, Lb in enumerate(sizes):
            lam = result.lp[i].clause_multipliers(j)
            alphas = [lam[t] for t in tuples]
            out.append(construct_weights(alphas, [0] * m, Lb, 1))
        return out
    if kind == "reg-per":
        lat = family.affine_lattice
        if not lat.is_ideal:
            raise ValueError("weight replay needs a diagonal affine lattice")
        aff = result.affine.clause_multipliers(j)
        out = []
        for i, Lb in enumerate(sizes):
            lam = result.lp[i].clause_multipliers(j)
            alphas = [lam[t] for t in tuples]
            residues = [aff[t].vector[i] for t in tuples]
            out.append(construct_weights(alphas, residues, Lb, lat.diag[i]))
        return out
    if kind == "simplex":
        lam = result.lp[0].clause_multipliers(j)
        alphas = [lam[t] for t in tuples]
        aff = result.affine.clause_multipliers(j)
        residues = [aff[t] for t in tuples]
        return [construct_weights_lattice(alphas, residues, sizes[0],
                                          family.lattice)]
    raise ValueError(f"unknown family kind {kind!r}")


def weighted_apply_oracle(template: PromiseTemplate, instance: Instance,
                          family, result: SolveResult, clause_index: int,
                          arity_factor: int = 10, max_escalations: int = 14
                          ) -> tuple[tuple, int]:
    """Replay one rounded clause through a family member at a large arity.

    Clause multipliers are converted to integer weights, the member is
    applied to the weighted tuple multiset column by column, and the output
    must match the rounded assignment on the clause variables.  The weight
    drift is a fixed count, so its fraction of the arity shrinks like 1/L;
    mismatches escalate the arity tenfold until it drops below the distance
    from the relaxation point to the nearest rounding boundary.  Ring points
    approximate rationals outside the ring through large balanced terms, so
    that distance can be small and escalation deep; member tables at such
    arities are lazy and weight construction stays exact.  Returns the
    member output tuple and the arity used.
    """
    if not result.accepted:
        raise ValueError("cannot replay a rejected instance")
    cl = instance.clauses[clause_index]
    rel = template.relations[cl.relation]
    tuples = sorted(rel.strong)
    expected = tuple(result.assignment[v] for v in cl.variables)
    guard = _weight_guard(family, len(tuples))
    minimum = arity_factor * guard
    last = None
    for _ in range(max_escalations):
        L, f = _cached_valid_member(family, minimum)
        weights = _clause_block_weights(family, tuples, result, clause_index,
                                        f.block_sizes)
        out = []
        for pos in range(rel.arity):
            key = tuple(_column_histogram(tuples, w, pos, family.domain)
                        for w in weights)
            out.append(f.table[key])
        out_t = tuple(out)
        if out_t == expected:
            return out_t, L
        last = (out_t, L)
        minimum = L * arity_factor
    raise OracleMismatchError(
        f"clause {clause_index}: member output {last[0]} at arity {last[1]} "
        f"differs from rounded values {expected}")
