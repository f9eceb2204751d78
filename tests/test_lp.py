"""Tests for ring-valued feasible points of rational inequality systems."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pcsp.linalg import InequalitySystem
from pcsp.lp import (
    STATUS_EMPTY,
    STATUS_NO_RING_POINT,
    STATUS_OK,
    rational_core,
    ring_feasible_point,
)
from pcsp.rings import QuadElem, QuadRing, quad_sign

from oracles import lp_feasible_rational


def assert_valid_ring_point(system, res, ring):
    assert res.status == STATUS_OK
    assert all(isinstance(v, QuadElem) and v.q == ring.q for v in res.point)
    assert system.check_point(res.point)
    implicit = res.transcript["implicit"]
    _, q, pairs = system.slacks(res.point)
    for i, (a, b) in enumerate(pairs):
        if implicit[i]:
            assert quad_sign(a, b, q) == 0
        else:
            assert quad_sign(a, b, q) > 0


def test_box_around_integer_point():
    ring = QuadRing(2)
    sys = InequalitySystem(2)
    sys.add_le({0: 1}, 3)
    sys.add_le({0: -1}, -1)
    sys.add_le({1: 1}, 5)
    sys.add_le({1: -1}, 0)
    res = ring_feasible_point(sys, ring)
    assert_valid_ring_point(sys, res, ring)


def test_half_point_hull_rejects():
    # the only feasible point is x = 1/2, which no Z[sqrt q] element equals
    for q in (2, 3):
        sys = InequalitySystem(1)
        sys.add_eq({0: 2}, 1)
        res = ring_feasible_point(sys, QuadRing(q))
        assert res.status == STATUS_NO_RING_POINT


def test_empty_system_rejects():
    sys = InequalitySystem(1)
    sys.add_le({0: 1}, 0)
    sys.add_le({0: -1}, -1)
    res = ring_feasible_point(sys, QuadRing(2))
    assert res.status == STATUS_EMPTY


def test_equality_with_interior():
    # x + y = 1 with 0 <= x, y: hull is a segment with integer points
    # outside it; the ring point must sit strictly inside the box rows.
    ring = QuadRing(2)
    sys = InequalitySystem(2)
    sys.add_eq({0: 1, 1: 1}, 1)
    sys.add_le({0: -1}, 0)
    sys.add_le({1: -1}, 0)
    res = ring_feasible_point(sys, ring)
    assert_valid_ring_point(sys, res, ring)
    x, y = res.point
    assert x + y == QuadElem(1, 0, 2)
    assert x.sign() > 0 and y.sign() > 0
    # an interval this narrow has no integers, so irrational parts are forced
    assert x.b != 0 or y.b != 0


def test_simplex_interior_various_rings():
    for q in (2, 3, 5):
        ring = QuadRing(q)
        sys = InequalitySystem(3)
        sys.add_eq({0: 1, 1: 1, 2: 1}, 1)
        for j in range(3):
            sys.add_le({j: -1}, 0)
        res = ring_feasible_point(sys, ring)
        assert_valid_ring_point(sys, res, ring)


def test_warm_point_short_circuit():
    ring = QuadRing(2)
    sys = InequalitySystem(2)
    sys.add_eq({0: 1, 1: 1}, 1)
    sys.add_le({0: -1}, 0)
    sys.add_le({1: -1}, 0)
    warm = [Fraction(1, 2), Fraction(1, 2)]
    res = ring_feasible_point(sys, ring, warm_point=warm)
    assert_valid_ring_point(sys, res, ring)
    assert res.transcript["lp_calls"] == 0


def test_large_path_matches_guarantees():
    ring = QuadRing(2)
    n = 40
    sys = InequalitySystem(n)
    for j in range(n - 1):
        sys.add_eq({j: 1, j + 1: -1}, 0)   # all coordinates equal
    sys.add_le({0: 2}, 1)                  # x <= 1/2
    sys.add_le({0: -2}, 0)                 # x >= 0
    res = ring_feasible_point(sys, ring)
    assert_valid_ring_point(sys, res, ring)
    assert res.transcript["path"] == "scaled-delta"
    v = res.point[0]
    assert all(w == v for w in res.point)
    assert QuadElem(0, 0, 2) < v < Fraction(1, 2)


def _assert_steps_within_epsilon(tr):
    assert len(tr["alpha"]) == len(tr["beta"]) == len(tr["basis"])
    assert tr["epsilon"] > 0
    for a, b in zip(tr["alpha"], tr["beta"]):
        # each beta is a ring element within epsilon of its alpha
        lo, hi = a - tr["epsilon"], a + tr["epsilon"]
        assert lo < b and b < hi


def test_full_dimensional_hull_steps_per_coordinate():
    # 0 <= x <= 1/2 and 1 <= y <= 5/2: no equality, so one unit step for
    # each coordinate where y0 is not an integer
    ring = QuadRing(2)
    sys = InequalitySystem(2)
    sys.add_le({0: 2}, 1)
    sys.add_le({0: -1}, 0)
    sys.add_le({1: 2}, 5)
    sys.add_le({1: -1}, -1)
    res = ring_feasible_point(sys, ring)
    assert_valid_ring_point(sys, res, ring)
    tr = res.transcript
    assert tr["path"] == "orthogonal"
    assert tr["x0"] == [y.__floor__() for y in tr["y0"]]
    moved = [j for j in range(2) if tr["y0"][j] != tr["x0"][j]]
    assert tr["basis"] == [{j: 1} for j in moved]
    assert tr["alpha"] == [tr["y0"][j] - tr["x0"][j] for j in moved]
    assert tr["epsilon"] == tr["delta"] / 2
    _assert_steps_within_epsilon(tr)


def test_equality_hull_steps_along_one_direction():
    ring = QuadRing(2)
    sys = InequalitySystem(2)
    sys.add_eq({0: 1, 1: 1}, 1)
    sys.add_le({0: -1}, 0)
    sys.add_le({1: -1}, 0)
    res = ring_feasible_point(sys, ring)
    assert_valid_ring_point(sys, res, ring)
    tr = res.transcript
    assert tr["path"] == "scaled-delta"
    assert len(tr["basis"]) == 1
    _assert_steps_within_epsilon(tr)


def test_zero_row_leaves_the_hull_full_dimensional():
    # 0 <= 0 is tight everywhere, so the hull marks it implicit; it is no
    # equation, so x0 is still floor(y0) and the steps stay per coordinate
    sys = InequalitySystem(2)
    sys.add_le({0: 2}, 3)
    sys.add_le({0: -1}, -1)
    sys.add_le({1: 2}, 7)
    sys.add_le({1: -1}, -2)
    zero = sys.add_le({}, 0)
    core = rational_core(sys)
    assert core.status == STATUS_OK
    assert core.implicit[zero]
    assert core.x0 == [y.__floor__() for y in core.y0]
    assert core.path == "orthogonal"
    assert_valid_ring_point(sys, ring_feasible_point(sys, QuadRing(2),
                                                     core=core), QuadRing(2))


def test_random_planted_polytopes():
    rng = random.Random(41)
    ring = QuadRing(2)
    oks = 0
    for _ in range(120):
        n = rng.randint(1, 6)
        m = rng.randint(1, 12)
        center = [rng.randint(-5, 5) for _ in range(n)]
        sys = InequalitySystem(n)
        for _ in range(m):
            row = {j: rng.randint(-4, 4) for j in rng.sample(range(n), rng.randint(1, n))}
            row = {j: c for j, c in row.items() if c}
            if not row:
                continue
            lhs = sum(c * center[j] for j, c in row.items())
            sys.add_le(row, lhs + rng.randint(0, 6))
        res = ring_feasible_point(sys, ring)
        assert_valid_ring_point(sys, res, ring)
        oks += 1
    assert oks == 120


def test_random_mixed_systems_never_lie():
    # arbitrary systems: whatever the status, it must be consistent with the
    # rational LP and any returned point must pass exact substitution
    rng = random.Random(42)
    statuses = {STATUS_OK: 0, STATUS_EMPTY: 0, STATUS_NO_RING_POINT: 0}
    for _ in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(1, 8)
        sys = InequalitySystem(n)
        for _ in range(m):
            row = {j: rng.randint(-3, 3) for j in range(n)}
            row = {j: c for j, c in row.items() if c}
            if not row:
                continue
            if rng.random() < 0.3:
                sys.add_eq(row, rng.randint(-4, 4))
            else:
                sys.add_le(row, rng.randint(-4, 4))
        rational = lp_feasible_rational(sys)
        res = ring_feasible_point(sys, QuadRing(2))
        statuses[res.status] += 1
        if rational is None:
            assert res.status == STATUS_EMPTY
        else:
            assert res.status in (STATUS_OK, STATUS_NO_RING_POINT)
        if res.status == STATUS_OK:
            assert sys.check_point(res.point)
    assert statuses[STATUS_OK] > 30
    assert statuses[STATUS_EMPTY] > 20


def test_lp_feasible_rational():
    sys = InequalitySystem(2)
    sys.add_le({0: 1, 1: 1}, 1)
    sys.add_le({0: -1}, 0)
    pt = lp_feasible_rational(sys)
    assert pt is not None and sys.check_point(pt)
    sys2 = InequalitySystem(1)
    sys2.add_le({0: 1}, -1)
    sys2.add_le({0: -1}, 0)
    assert lp_feasible_rational(sys2) is None
