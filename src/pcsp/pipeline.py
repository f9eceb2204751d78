"""Relax-and-round solving: exact relaxations, rounding, and weight oracles.

`solve` runs the relaxations the family's `plan` names and never asks which
kind of family it holds.  With radicands, it reads embedded variable values
from ring points of the basic LP: one rational core per instance, lifted
once per radicand.  With a lattice, it solves an affine relaxation over that
finite quotient and reads residues from it.  Each variable is then rounded
by one `family.round(point, w)` call.  An instance is rejected exactly when
one of its relaxations is infeasible over its ring.

`construct_weights` and `weighted_apply_oracle` replay a rounded clause
through an actual family member at a large valid arity, certifying that the
rounding rule and the member function agree on solver output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor
from typing import Sequence

from .families import RelaxationPlan, scan_valid_arity
from .linalg import solve_lattice_quotient_system
from .lp import (STATUS_EMPTY, STATUS_NO_RING_POINT, STATUS_OK, rational_core,
                 ring_feasible_point)
from .model import (
    AffineSystem,
    BasicLpLayout,
    Instance,
    PromiseTemplate,
    barycentric_warm_point,
    build_affine_relaxation,
    build_basic_lp,
    verify_assignment,
)
from .rings import LatticeQuotientElem, QuadRing

REJECT_EMPTY_LP = "empty relaxation polytope"
REJECT_NO_RING_POINT = "no ring point on affine hull"
LP_REJECTS = {STATUS_EMPTY: REJECT_EMPTY_LP,
              STATUS_NO_RING_POINT: REJECT_NO_RING_POINT}
REJECT_AFFINE = "affine relaxation infeasible"


@dataclass
class LpTranscript:
    layout: BasicLpLayout
    point: list

    def clause_multipliers(self, j: int) -> dict:
        return {t: self.point[self.layout.lam_index(j, t)]
                for t in self.layout.lam_tuples[j]}

    def values(self, x: int) -> tuple:
        """Variable x's embedded coordinates."""
        i = self.layout.v_index(x, 0)
        return tuple(self.point[i:i + self.layout.coords])


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


class RoundingCheckError(AssertionError):
    """Rounded values violate the weak side of the instance."""


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
    if not set(family.outputs()) <= set(template.codomain):
        raise ValueError(
            f"family outputs {family.outputs()} are not all in the template's "
            f"weak domain {template.codomain}")


def solve(template: PromiseTemplate, instance: Instance, family) -> SolveResult:
    """Run the relaxations the family needs and round their exact output.

    Deterministic: identical input produces identical output.  The result
    carries full transcripts (clause multipliers and variable values) for
    weight-oracle replay.  An assignment that fails the weak side raises
    RoundingCheckError; no unverified assignment is accepted.
    """
    _check_domain(template, family)
    plan = family.plan
    lps: list[LpTranscript] = []
    if plan.radicands:
        # the verdict, hull and integer point do not depend on the ring
        system, layout = build_basic_lp(template, instance, plan.lp_embedding)
        warm = barycentric_warm_point(template, instance, layout,
                                      plan.lp_embedding)
        core = rational_core(system, warm)
        for q in plan.radicands:
            res = ring_feasible_point(system, QuadRing(q), core=core)
            if res.status != STATUS_OK:
                return SolveResult(False, reason=LP_REJECTS[res.status])
            lps.append(LpTranscript(layout, res.point))
    aff = None
    if plan.lattice is not None:
        eqs = build_affine_relaxation(template, instance, plan.lattice)
        sol = solve_lattice_quotient_system(eqs.rows, eqs.rhs, eqs.layout.width,
                                            plan.lattice)
        if sol is None:
            return SolveResult(False, reason=REJECT_AFFINE)
        aff = AffineTranscript(eqs, sol)
    values = [family.round(tuple(c for lp in lps for c in lp.values(x)),
                           None if aff is None else aff.variable_value(x))
              for x in range(instance.n_vars)]
    bad = verify_assignment(template, instance, values, side="weak")
    if bad is not None:
        raise RoundingCheckError(
            f"{family.name}: rounded clause {bad} is outside the weak relation")
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
        if scaled < w - 2 * step or scaled > w + 2 * step:
            raise AssertionError("weight drifts more than two steps")


def construct_weights(alphas: Sequence, residues: Sequence[int], L: int,
                      modulus: int) -> list[int]:
    """Integer weights w_p >= 0 with sum L, w_p = residues[p] * L (mod M),
    and |w_p - alphas[p] * L| <= 2M.

    alphas are exact nonnegative ring values summing to one (LP clause
    multipliers); residues are affine clause multipliers mod M.
    """
    m = len(alphas)
    if len(residues) != m:
        raise ValueError("multiplier count mismatch")
    if L < modulus * m:
        raise ValueError(f"arity {L} below the weight guard {modulus * m}")
    if sum(alphas[1:], alphas[0]) != 1:
        raise ValueError("clause multipliers do not sum to one")
    anchors = [r * L % modulus for r in residues]
    if (L - sum(anchors)) % modulus:
        raise ValueError("residues do not sum to one mod the quotient")
    bases = []
    for a, c in zip(alphas, anchors):
        if a < 0:
            raise ValueError("negative clause multiplier")
        base = floor(a * L)
        w = base - ((base - c) % modulus)
        if w < 0:
            w = c
        bases.append(w)
    ws = _apportion(bases, L, modulus)
    if any(w % modulus != c for w, c in zip(ws, anchors)):
        raise AssertionError("weight left its residue class")
    _assert_weight_conditions(ws, alphas, L, modulus)
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


def _weight_guard(plan: RelaxationPlan, m: int) -> int:
    """Arity unit of an m-tuple clause's weights: the index of the affine
    lattice times the ring coordinates per variable, per tuple; the oracle
    scans from a multiple."""
    index = 1 if plan.lattice is None else plan.lattice.index
    coords = 1
    if plan.radicands:
        width = len(next(iter(plan.lp_embedding.values())))
        coords = len(plan.radicands) * width
    return index * coords * m


def _column_histogram(tuples, weights, position, domain) -> tuple[int, ...]:
    hist = [0] * len(domain)
    idx = {d: i for i, d in enumerate(domain)}
    for p, w in zip(tuples, weights):
        hist[idx[p[position]]] += w
    return tuple(hist)


def _clause_block_weights(plan: RelaxationPlan, tuples, result: SolveResult,
                          j: int, sizes: tuple[int, ...]) -> list[list[int]]:
    """Per-block integer weights for clause j at the member block sizes.

    Block i takes its alphas from the i-th LP (uniform without an LP) and
    its residues from coordinate i of the affine multipliers, stepped by
    the i-th diagonal entry of the lattice (0 and 1 without a lattice).
    """
    m = len(tuples)
    lattice = plan.lattice
    aff = None if lattice is None else result.affine.clause_multipliers(j)
    out = []
    for i, Lb in enumerate(sizes):
        if plan.radicands:
            lam = result.lp[i].clause_multipliers(j)
            alphas = [lam[t] for t in tuples]
        else:
            alphas = [Fraction(1, m)] * m
        if aff is None:
            residues, step = [0] * m, 1
        else:
            residues = [aff[t].vector[i] for t in tuples]
            step = lattice.diag[i]
        out.append(construct_weights(alphas, residues, Lb, step))
    return out


# the oracle starts at this multiple of the weight guard and escalates the
# arity by this factor after each mismatch, at most _MAX_ESCALATIONS times
_ARITY_FACTOR = 10
_MAX_ESCALATIONS = 14


def weighted_apply_oracle(template: PromiseTemplate, instance: Instance,
                          family, result: SolveResult, clause_index: int
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
    plan = family.plan
    minimum = _ARITY_FACTOR * _weight_guard(plan, len(tuples))
    last = None
    for _ in range(_MAX_ESCALATIONS):
        L, f = _cached_valid_member(family, minimum)
        weights = _clause_block_weights(plan, tuples, result, clause_index,
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
        minimum = L * _ARITY_FACTOR
    raise OracleMismatchError(
        f"clause {clause_index}: member output {last[0]} at arity {last[1]} "
        f"differs from rounded values {expected}")
