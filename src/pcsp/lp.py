"""Feasible points of rational inequality systems over quadratic rings.

A system M x <= b with rational data either has empty affine hull, has a
hull with no ring point, or admits a feasible point all of whose coordinates
lie in Z[sqrt(q)].  The construction: take a rational relative-interior
point y0, a ring point x0 on the hull, and move from x0 toward y0 along the
hull direction with ring-valued steps small enough to keep every
non-implicit inequality strictly slack.  Everything is verified by exact
substitution before returning.

For rational systems a ring point exists on the hull iff an integer point
does: writing x = y + z sqrt(q) with integer vectors y, z, the system
M x = b splits into M y = b and M z = 0, so the rational and irrational
parts decouple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from .linalg import (
    InequalitySystem,
    IntegerSolver,
    affine_hull_and_interior,
    integer_orthogonal_basis,
    row_l1,
    value_sign,
)
from .rings import QuadElem, QuadRing, dense_element

STATUS_OK = "ok"
STATUS_EMPTY = "empty"
STATUS_NO_RING_POINT = "no-ring-point-on-hull"

# hulls with at most this many kernel directions and variables take the
# orthogonal-basis lift; larger ones take the scaled-delta lift
SMALL_KERNEL_LIMIT = 24
SMALL_VARS_LIMIT = 96


@dataclass
class RingPointResult:
    status: str
    point: list[QuadElem] | None = None
    transcript: dict = field(default_factory=dict)


def ring_feasible_point(system: InequalitySystem, ring: QuadRing,
                        warm_point: Sequence[Fraction] | None = None
                        ) -> RingPointResult:
    """Feasible point with every coordinate in Z[sqrt(q)], or a typed reject.

    Statuses: 'ok' (point returned), 'empty' (no rational point), and
    'no-ring-point-on-hull' (feasible rationally, but the affine hull misses
    the ring).  Small systems use the orthogonal-basis construction with one
    ring coefficient per basis vector, which keeps point coefficients short;
    larger ones scale the single integer direction T (y0 - x0) by one ring
    element near 1/T, which gives the same strict-slack guarantee with none
    of the orthogonalisation cost.
    """
    # ring elements mix with integer scalars only, so the hull, its integer
    # equations and the final substitution all work on integer rows
    system = system.integerized()
    n = system.n_vars
    hull = affine_hull_and_interior(system, warm_point)
    transcript: dict = {"lp_calls": hull.lp_calls}
    if hull.status == "empty":
        return RingPointResult(STATUS_EMPTY, None, transcript)
    y0 = hull.y0
    transcript["y0"] = y0
    transcript["implicit"] = hull.implicit

    # the hull's equalities are rows of the integerized system
    solver = IntegerSolver(hull.eq_rows, n) if hull.eq_rows else None
    if solver is not None:
        x0 = solver.solve(hull.eq_rhs)
        if x0 is None:
            return RingPointResult(STATUS_NO_RING_POINT, None, transcript)
    else:
        x0 = [v.__floor__() for v in y0]
    transcript["x0"] = x0

    delta_vec = [a - Fraction(b) for a, b in zip(y0, x0)]

    def lift(v) -> QuadElem:
        return ring.elem(int(v))

    if not any(delta_vec):
        z0 = [lift(v) for v in x0]
        transcript["path"] = "trivial"
        if not system.check_point(z0):
            raise AssertionError("ring point failed exact substitution")
        return RingPointResult(STATUS_OK, z0, transcript)

    nonimp = [i for i in range(system.n_rows) if not hull.implicit[i]]
    if nonimp:
        delta = min(system.slack(y0, i) / (1 + row_l1(system.rows[i]))
                    for i in nonimp)
        if delta <= 0:
            raise AssertionError("interior point is not strictly slack")
    else:
        delta = Fraction(1)
    transcript["delta"] = delta

    kernel = solver.kernel_basis() if solver is not None else \
        [{j: 1} for j in range(n)]
    small = len(kernel) <= SMALL_KERNEL_LIMIT and n <= SMALL_VARS_LIMIT

    if small:
        basis = integer_orthogonal_basis(kernel)
        alphas = []
        residual = list(delta_vec)
        for q in basis:
            nq = sum(v * v for v in q.values())
            a = sum(residual[j] * v for j, v in q.items()) / nq
            alphas.append(a)
            if a:
                for j, v in q.items():
                    residual[j] -= a * v
        if any(residual):
            # y0 - x0 must lie in the hull direction space
            raise AssertionError("interior point drifted off the hull")
        max_norm = max(sum(v * v for v in q.values()) for q in basis)
        eps = delta / (n * max_norm)
        betas = [dense_element(a - eps, a + eps, ring) for a in alphas]
        z0 = [lift(v) for v in x0]
        for b, q in zip(betas, basis):
            for j, v in q.items():
                z0[j] = z0[j] + b * v
        transcript.update(path="orthogonal", basis=basis, alpha=alphas,
                          beta=betas, epsilon=eps)
    else:
        t = lcm(*(v.denominator for v in delta_vec))
        dprime = [int(v * t) for v in delta_vec]
        width = max(abs(v) for v in dprime)
        eps = delta / (1 + width)
        sigma = dense_element(Fraction(1, t) - eps, Fraction(1, t) + eps, ring)
        z0 = [lift(v) for v in x0]
        for j, v in enumerate(dprime):
            if v:
                z0[j] = z0[j] + sigma * v
        transcript.update(path="scaled-delta", sigma=sigma, epsilon=eps,
                          scale=t)

    if not system.check_point(z0):
        raise AssertionError("ring point failed exact substitution")
    for i in nonimp:
        if value_sign(system.slack(z0, i)) <= 0:
            raise AssertionError("non-implicit row not strictly slack")
    return RingPointResult(STATUS_OK, z0, transcript)
