"""Feasible points of rational inequality systems over quadratic rings.

A system M x <= b with rational data either has empty affine hull, has a
hull with no ring point, or admits a feasible point all of whose coordinates
lie in Z[sqrt(q)].  The construction: take a rational relative-interior
point y0, a ring point x0 on the hull, and move from x0 toward y0 along the
hull direction with ring-valued steps small enough to keep every
non-implicit inequality strictly slack.  The hull's dimension picks the
steps: a full-dimensional hull steps along each coordinate, any other along
the single direction y0 - x0.  Everything is verified by exact substitution
before returning.

For rational systems a ring point exists on the hull iff an integer point
does: writing x = y + z sqrt(q) with integer vectors y, z, the system
M x = b splits into M y = b and M z = 0, so the rational and irrational
parts decouple.  So `rational_core` does all of this but the ring steps,
once per system, and `ring_feasible_point` lifts it into one ring.

The hull's integer point comes from the Hermite form of all its equalities,
unless the caller knows more: `pipeline.solve` passes the basic LP's
per-relation lattice solve (`model.hull_integer_point`), which needs only
the v and mu columns.  Generic systems, such as `pcsp lp` and criterion 2,
take the full Hermite form.  Either way the lifted point is certified by
exact substitution into the whole system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .linalg import (
    InequalitySystem,
    IntegerSolver,
    affine_hull_and_interior,
)
from .rings import QuadElem, QuadRing, dense_element

STATUS_OK = "ok"
STATUS_EMPTY = "empty"
STATUS_NO_RING_POINT = "no-ring-point-on-hull"


@dataclass
class RingPointResult:
    status: str
    point: list[QuadElem] | None = None
    transcript: dict = field(default_factory=dict)


@dataclass
class RationalCore:
    """The ring-free part of a ring point.  On status 'ok' the point is
    x0 + sum_k beta_k basis[k], each beta_k a ring element within `epsilon`
    of `alpha[k]`, strictly slack on `strict_rows`."""

    status: str
    system: InequalitySystem          # the input system with integer rows
    lp_calls: int
    implicit: list[bool] | None = None
    y0: list[Fraction] | None = None
    x0: list[int] | None = None
    path: str | None = None           # 'trivial' when y0 = x0: no step
    delta: Fraction | None = None
    strict_rows: list[int] = field(default_factory=list)
    basis: list[dict[int, int]] = field(default_factory=list)
    alpha: list[Fraction] = field(default_factory=list)
    epsilon: Fraction | None = None


def rational_core(system: InequalitySystem,
                  warm_point: Sequence[Fraction] | None = None,
                  integer_point: Callable[[list, list], list[int] | None]
                  | None = None) -> RationalCore:
    """Status, hull, integer point and lift steps of `system`, for any ring.

    Statuses: 'ok', 'empty' (no rational point), and 'no-ring-point-on-hull'
    (feasible rationally, but the affine hull misses the ring).

    A full-dimensional hull, one with no nonzero equality row, takes
    x0 = floor(y0) and steps along each unit vector where y0 and x0 differ,
    by a ring element near y0_j - x0_j (path 'orthogonal').  Any other hull
    takes x0 from its integer equations; a unit vector would leave the hull,
    so it scales the single integer direction T (y0 - x0) by one ring element
    near 1/T (path 'scaled-delta').  A caller that knows the system's
    structure passes `integer_point(eq_rows, eq_rhs)`, which returns an
    integer solution of the hull's equalities or None; without one, x0
    comes from the Hermite form of all of them.
    """
    # the hull's integer point needs integer rows for its HNF, and delta
    # below is defined on those rows, so everything after works on them
    ints = system.integerized()
    n = ints.n_vars
    hull = affine_hull_and_interior(ints, warm_point)
    if hull.status == "empty":
        return RationalCore(STATUS_EMPTY, ints, hull.lp_calls)
    y0 = hull.y0

    # the hull's equalities are rows of the integerized system; with no
    # nonzero one the hull is full-dimensional and every integer point is on it
    full_dim = not any(c for row in hull.eq_rows for c in row.values())
    if full_dim:
        x0 = [v.__floor__() for v in y0]
    elif integer_point is None:
        x0 = IntegerSolver(hull.eq_rows, n).solve(hull.eq_rhs)
    else:
        x0 = integer_point(hull.eq_rows, hull.eq_rhs)
    if x0 is None:
        return RationalCore(STATUS_NO_RING_POINT, ints, hull.lp_calls,
                            hull.implicit, y0)
    core = RationalCore(STATUS_OK, ints, hull.lp_calls, hull.implicit, y0, x0,
                        "trivial")

    delta_vec = [a - Fraction(b) for a, b in zip(y0, x0)]
    if not any(delta_vec):
        return core

    nonimp = [i for i in range(ints.n_rows) if not hull.implicit[i]]
    delta = Fraction(1)
    if nonimp:
        # delta = min slack_i / (1 + |row_i|_1), with slack_i = A_i / scale
        # from one pass at y0; integer ratios compared by cross-multiplying
        scale, _, pairs = ints.slacks(y0)
        num, den = 0, 0
        for i in nonimp:
            a, width = pairs[i][0], 1 + sum(map(abs, ints.rows[i].values()))
            if not den or a * den < num * width:
                num, den = a, width
        if num <= 0:
            raise AssertionError("interior point is not strictly slack")
        delta = Fraction(num, scale * den)
    core.delta, core.strict_rows = delta, nonimp

    if full_dim:
        core.path, core.epsilon = "orthogonal", delta / n
        core.basis = [{j: 1} for j, v in enumerate(delta_vec) if v]
        core.alpha = [v for v in delta_vec if v]
    else:
        t = lcm(*(v.denominator for v in delta_vec))
        dprime = {j: int(v * t) for j, v in enumerate(delta_vec) if v}
        width = max(abs(v) for v in dprime.values())
        core.path, core.basis, core.alpha = "scaled-delta", [dprime], [Fraction(1, t)]
        core.epsilon = delta / (1 + width)
    return core


def ring_feasible_point(system: InequalitySystem, ring: QuadRing,
                        warm_point: Sequence[Fraction] | None = None, *,
                        core: RationalCore | None = None) -> RingPointResult:
    """Feasible point with every coordinate in Z[sqrt(q)], or the reject of
    `rational_core(system, warm_point)`; a caller lifting one system into
    several rings computes that `core` once and passes it to each call."""
    if core is None:
        core = rational_core(system, warm_point)
    # the transcript is the core's fields plus the ring's step coefficients
    transcript = dict(vars(core))
    if core.status != STATUS_OK:
        return RingPointResult(core.status, None, transcript)
    eps = core.epsilon
    betas = transcript["beta"] = [dense_element(a - eps, a + eps, ring)
                                  for a in core.alpha]
    z0 = [ring.elem(v) for v in core.x0]
    for b, d in zip(betas, core.basis):
        for j, v in d.items():
            z0[j] = z0[j] + b * v
    if not core.system.check_point(z0, strict=core.strict_rows):
        raise AssertionError("ring point failed exact substitution, or left "
                             "a non-implicit row tight")
    return RingPointResult(STATUS_OK, z0, transcript)
