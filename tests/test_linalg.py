"""Tests for exact linear algebra: solvers, kernels, hulls."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pcsp import corpus, linalg
from pcsp.inthnf import hnf_sparse, solve_hnf
from pcsp.linalg import (
    InequalitySystem,
    IntegerSolver,
    _solve_mod_p,
    affine_hull_and_interior,
    solve_lattice_quotient_system,
)
from pcsp.model import build_basic_lp, plant_satisfiable_instance
from pcsp.rings import (LatticeIdeal, QuadElem, QuadRing, RingMismatchError,
                        SqrtExpr, dense_element, quad_sign)
from pcsp.simplex import OPTIMAL, solve_inequality_lp

from oracles import quotient_combination, solve_field_system, solve_mod_p_dense


def dot(row, x):
    """row . x, exactly."""
    return sum(c * x[j] for j, c in row.items())


def slack_signs(system, point):
    """The sign of every row's slack, read from the one pass."""
    _, q, pairs = system.slacks(point)
    return [quad_sign(a, b, q) for a, b in pairs]


def rational_slacks(system, point):
    """Every row's exact slack at a rational point, read from the one pass."""
    scale, _, pairs = system.slacks(point)
    return [Fraction(a, scale) for a, _ in pairs]


def sparse(row):
    return {j: c for j, c in enumerate(row) if c}


def rand_sparse_rows(rng, m, n, lo=-5, hi=5, density=0.7):
    rows = []
    for _ in range(m):
        row = {}
        for j in range(n):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    row[j] = v
        rows.append(row)
    return rows


# -- rational solving ----------------------------------------------------------


def test_field_solve_planted():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        rows = rand_sparse_rows(rng, m, n)
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        rhs = [dot(r, x) for r in rows]
        got = solve_field_system(rows, rhs, n)
        assert got is not None
        for r, b in zip(rows, rhs):
            assert dot(r, got) == b


def test_field_solve_infeasible_matches_simplex():
    # simplex (itself validated against Fourier-Motzkin) as the oracle
    rng = random.Random(32)
    disagreements = 0
    nones = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        rows = rand_sparse_rows(rng, m, n, density=0.8)
        rhs = [rng.randint(-3, 3) for _ in range(m)]
        got = solve_field_system(rows, rhs, n)
        sys = InequalitySystem(n)
        for r, b in zip(rows, rhs):
            sys.add_eq(r, b)
        lp = solve_inequality_lp(sys.rows, sys.rhs, n)
        if got is None:
            nones += 1
            if lp.status == OPTIMAL:
                disagreements += 1
        else:
            for r, b in zip(rows, rhs):
                assert dot(r, got) == b
    assert disagreements == 0
    assert nones > 20


# -- integer solving -------------------------------------------------------------


def test_integer_solve_planted():
    rng = random.Random(33)
    for _ in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        rows = rand_sparse_rows(rng, m, n)
        x = [rng.randint(-9, 9) for _ in range(n)]
        rhs = [dot(r, x) for r in rows]
        got = IntegerSolver(rows, n).solve(rhs)
        assert got is not None
        assert all(isinstance(v, int) for v in got)
        for r, b in zip(rows, rhs):
            assert dot(r, got) == b


def test_integer_solve_gaps():
    # rationally solvable, integrally not
    assert IntegerSolver([{0: 2}], 1).solve([1]) is None
    assert solve_field_system([{0: 2}], [1], 1) == [Fraction(1, 2)]
    # 2x + 4y = 6 has integer solutions, = 7 does not, = 5 neither
    assert IntegerSolver([{0: 2, 1: 4}], 2).solve([6]) is not None
    assert IntegerSolver([{0: 2, 1: 4}], 2).solve([7]) is None


def test_integer_solver_refuses_fractions():
    # (3/2) x = 3 has x = 2; truncating the coefficient to 1 answered x = 3
    with pytest.raises(ValueError):
        IntegerSolver([{0: Fraction(3, 2)}], 1).solve([3])
    with pytest.raises(ValueError):
        IntegerSolver([{0: 2}], 1).solve([Fraction(1, 2)])
    assert IntegerSolver([{0: Fraction(4, 2)}], 1).solve([Fraction(6, 1)]) == [3]


def test_integer_solve_permutation_invariance():
    rng = random.Random(34)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        rows = rand_sparse_rows(rng, m, n)
        rhs = [rng.randint(-8, 8) for _ in range(m)]
        a = IntegerSolver(rows, n).solve(rhs)
        # reference: the HNF of the rows in their given order
        cols = [{i: r[j] for i, r in enumerate(rows) if r.get(j)}
                for j in range(n)]
        b = solve_hnf(hnf_sparse(cols, m, n), rhs)
        assert (a is None) == (b is None)
        for got in (a, b):
            if got is not None:
                for r, v in zip(rows, rhs):
                    assert dot(r, got) == v


def test_kernel_basis():
    rng = random.Random(35)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        rows = rand_sparse_rows(rng, m, n, density=0.6)
        solver = IntegerSolver(rows, n)
        kernel = solver.kernel_basis()
        assert len(kernel) == n - solver.result.rank
        for vec in kernel:
            assert vec
            for r in rows:
                assert dot(r, [vec.get(j, 0) for j in range(n)]) == 0
        if kernel:
            # independence: stacking them loses no rank
            krows = [{i: v for i, v in enumerate([vec.get(j, 0) for j in range(n)]) if v}
                     for vec in kernel]
            ks = IntegerSolver(krows, n)
            assert ks.result.rank == len(kernel)


# -- lattice quotient systems ------------------------------------------------------


def test_lattice_solve_planted():
    rng = random.Random(37)
    lat = LatticeIdeal([[2, 0], [0, 4]])
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = rand_sparse_rows(rng, m, n, lo=-4, hi=4, density=0.8)
        x = [(rng.randint(0, 1), rng.randint(0, 3)) for _ in range(n)]
        rhs = [lat.element(quotient_combination(
            lat.diag, ((c, x[j]) for j, c in r.items()))) for r in rows]
        got = solve_lattice_quotient_system(rows, rhs, n, lat)
        assert got is not None
        for r, b in zip(rows, rhs):
            assert quotient_combination(
                lat.diag, ((c, got[j].vector) for j, c in r.items())) == b.vector


def test_lattice_solve_modint_case_brute_force():
    rng = random.Random(38)
    lat = LatticeIdeal([[6]])
    for _ in range(150):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        rows = rand_sparse_rows(rng, m, n, lo=-5, hi=5, density=0.9)
        rhs = [lat.element((rng.randint(0, 5),)) for _ in range(m)]
        got = solve_lattice_quotient_system(rows, rhs, n, lat)
        # brute force over (Z/6)^n
        def ok(assign):
            for r, b in zip(rows, rhs):
                s = sum(c * assign[j] for j, c in r.items())
                if (s - b.vector[0]) % 6:
                    return False
            return True
        found = None
        for mask in range(6 ** n):
            assign = [(mask // 6 ** j) % 6 for j in range(n)]
            if ok(assign):
                found = assign
                break
        assert (got is not None) == (found is not None)
        if got is not None:
            assert ok([e.vector[0] for e in got])


@pytest.mark.parametrize("p", [2, 3, 7, 2 ** 31 - 1])
def test_solve_mod_p_matches_dense_reference(p):
    # the pivots are the leftmost independent columns and the free variables
    # are zero, so the solution is unique and must equal the reference's
    rng = random.Random(p)
    outcomes = set()
    for trial in range(300):
        kind = trial % 3
        n, m = rng.randint(1, 9), rng.randint(1, 9)
        rows = rand_sparse_rows(rng, m, n, lo=-3 * p, hi=3 * p, density=0.4)
        if kind == 2:       # random right-hand side, often inconsistent
            rhs = [rng.randrange(-p, 2 * p) for _ in range(m)]
        else:               # planted solution, shifted by multiples of p
            x = [rng.randrange(p) for _ in range(n)]
            rhs = [sum(c * x[j] for j, c in r.items()) + p * rng.randint(-2, 2)
                   for r in rows]
        if kind == 1 and m >= 3:    # rank-deficient: a dependent last row
            a, b = rng.randrange(1, p), rng.randrange(p)
            rows[-1] = {j: a * rows[0].get(j, 0) + b * rows[1].get(j, 0)
                        for j in set(rows[0]) | set(rows[1])}
            rhs[-1] = a * rhs[0] + b * rhs[1]
        got = _solve_mod_p(rows, rhs, n, p)
        assert got == solve_mod_p_dense(rows, rhs, n, p)
        outcomes.add(got is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("p", [2 ** 31 - 1, 4294967311])
def test_lattice_solve_large_prime_has_zero_residual(p):
    # 2^31 - 1 is the largest prime an int64 elimination can take; the
    # GF(p) route works in Python ints, so 4294967311 > 2^32 takes it too
    lat = LatticeIdeal([(p,)])
    rng = random.Random(39)
    for _ in range(20):
        rows = [{j: rng.randrange(1, p) for j in range(3)} for _ in range(2)]
        x = [rng.randrange(p) for _ in range(3)]
        rhs = [lat.element((sum(c * x[j] for j, c in r.items()),)) for r in rows]
        got = solve_lattice_quotient_system(rows, rhs, 3, lat)
        assert got is not None
        residual = [(sum(c * got[j].vector[0] for j, c in r.items())
                     - b.vector[0]) % p for r, b in zip(rows, rhs)]
        assert residual == [0, 0]


def test_integerized_copies_integer_rows():
    e = corpus.entry("didactic")
    inst, _ = plant_satisfiable_instance(e.template, 12, 10, random.Random(1))
    system, _ = build_basic_lp(e.template, inst, e.family.plan.lp_embedding)
    assert all(isinstance(c, int) for row in system.rows for c in row.values())
    ints = system.integerized()
    assert ints.rows == system.rows and ints.rhs == system.rhs
    assert ints.eq_pairs == system.eq_pairs
    before = [dict(row) for row in system.rows]
    for row in ints.rows:
        row[0] = row.get(0, 0) + 1
    assert system.rows == before


# -- affine hull -----------------------------------------------------------------------


@pytest.mark.parametrize("row, b", [
    ({0: 1}, Fraction(7, 5)),                      # non-integer right-hand side
    ({0: Fraction(5, 7)}, 1),                      # non-integer coefficient
    ({0: Fraction(1, 3), 1: 2}, Fraction(7, 15)),  # both, next to an integer one
], ids=["rhs", "coef", "mixed"])
def test_ring_point_against_fractional_row(row, b):
    # x <= 7/5 in every form; y = 0 contributes nothing
    sys = InequalitySystem(2)
    sys.add_le(row, b)
    ring = QuadRing(2)
    zero = ring.zero
    bound, eps = Fraction(7, 5), Fraction(1, 2 ** 80)
    above = dense_element(bound, bound + eps, ring)
    below = dense_element(bound - eps, bound, ring)
    assert not sys.check_point([above, zero])
    assert sys.check_point([below, zero])
    assert slack_signs(sys, [above, zero]) == [-1]
    assert slack_signs(sys, [below, zero]) == [1]


def _oracle_dot(row, point) -> SqrtExpr:
    """row . point in Q(sqrt 2, sqrt 3), by the sign oracle's arithmetic."""
    out = SqrtExpr()
    for j, c in row.items():
        out = out + SqrtExpr.promote(c) * SqrtExpr.promote(point[j])
    return out


def _near(value: SqrtExpr, rng) -> Fraction:
    """A rational a few units of 1/den from value: its float estimate rounded
    to a random denominator, then offset by -1 to 2 units."""
    est = sum(float(c) * d ** 0.5 for d, c in value.terms.items())
    den = rng.randint(1, 5)
    return Fraction(round(est * den) + rng.choice((-1, 0, 1, 2)), den)


def _random_point(kind, rng, n):
    if kind == "int":
        return [rng.randint(-9, 9) for _ in range(n)]
    if kind == "fraction":
        primes = [1_000_000_007, 998_244_353, 1_000_000_009, 999_999_937]
        return [Fraction(rng.randint(-10 ** 10, 10 ** 10), primes[j])
                for j in range(n)]
    q = 2 if kind == "sqrt2" else 3
    return [QuadElem(rng.randint(-9, 9), rng.randint(-9, 9), q) for _ in range(n)]


@pytest.mark.parametrize("kind, seed", [("int", 1), ("fraction", 2),
                                        ("sqrt2", 3), ("sqrt3", 4)])
def test_slack_signs_match_sqrt_oracle(kind, seed):
    # int and Fraction rows, some as add_eq pairs, with right-hand sides near
    # the point's row values; an equality a few units off its row value has
    # halves of opposite signs.  A Z[sqrt 3] point then moves one coordinate
    # to just either side of its first row's boundary
    rng = random.Random(seed)
    feasible = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        point = _random_point(kind, rng, n)
        rows = []
        for _ in range(rng.randint(1, 5)):
            row = {j: rng.choice((rng.randint(1, 4), Fraction(rng.randint(1, 9), 7)))
                   * rng.choice((1, -1)) for j in range(n) if rng.random() < 0.8}
            rows.append(row or {0: 1})
        edge, k = rows[0], next(iter(rows[0]))
        if kind == "sqrt3":
            # the other coordinates of the edge row are integers, so its
            # boundary value of x_k is rational
            for j in edge:
                if j != k:
                    point[j] = QuadElem(rng.randint(-9, 9), 0, 3)
        sys = InequalitySystem(n)
        for row in rows:
            value = _oracle_dot(row, point)
            pick = rng.random()
            if set(value.terms) <= {1} and pick < 0.3:
                sys.add_eq(row, value.terms.get(1, Fraction(0)))
            elif pick < 0.5:
                sys.add_eq(row, _near(value, rng))
            else:
                sys.add_le(row, _near(value, rng))
        if kind == "sqrt3":
            bound = (sys.rhs[0] - sum(c * point[j].a for j, c in edge.items()
                                      if j != k)) / edge[k]
            eps = Fraction(1, 2 ** 70)
            side = rng.choice((-1, 1))
            point[k] = dense_element(min(bound, bound + side * eps),
                                     max(bound, bound + side * eps), QuadRing(3))
        exact = [SqrtExpr.promote(b) - _oracle_dot(row, point)
                 for row, b in zip(sys.rows, sys.rhs)]
        signs = slack_signs(sys, point)
        for i, want in enumerate(exact):
            assert signs[i] == want.sign(), (sys, point, i)
        if kind in ("int", "fraction"):
            assert rational_slacks(sys, point) == [want.terms.get(1, 0)
                                                   for want in exact]
        verdict = all(want.sign() >= 0 for want in exact)
        assert sys.check_point(point) == verdict, (sys, point)
        feasible += verdict
    assert 0 < feasible < 150


def test_mixed_radicands_raise():
    sys = InequalitySystem(2)
    sys.add_le({0: 1, 1: 1}, 5)
    point = [QuadElem(1, 1, 2), QuadElem(1, 1, 3)]
    with pytest.raises(RingMismatchError):
        sys.slacks(point)
    with pytest.raises(RingMismatchError):
        sys.check_point(point)


def test_one_substitution_per_row_or_equality_pair(monkeypatch):
    # k add_eq pairs and r unpaired rows, at a feasible warm point where no
    # unpaired row is tight: check_point and the hull each substitute k + r
    # rows, one per equality pair and one per unpaired row
    calls = []
    row_slack = linalg._row_slack

    def counting(*args):
        calls.append(args)
        return row_slack(*args)

    monkeypatch.setattr(linalg, "_row_slack", counting)
    sys = InequalitySystem(3)
    sys.add_eq({0: 1, 1: 1}, 2)
    sys.add_eq({1: 1, 2: -1}, 0)
    for j in range(3):
        sys.add_le({j: 1}, 3)
        sys.add_le({j: -1}, 0)
    k, r = 2, 6
    point = [1, 1, 1]
    assert sys.check_point(point)
    assert len(calls) == k + r
    calls.clear()
    res = affine_hull_and_interior(sys, warm_point=point)
    assert res.lp_calls == 0 and res.y0 == point
    assert len(calls) == k + r


def test_check_point_strict_rows_need_positive_slack(monkeypatch):
    # 0 <= x <= 1 at x = 1 and at x = 1 - (sqrt2 - 1): row 0 is tight at the
    # first, slack at the second; one substitution pass serves both checks
    calls = []
    row_slack = linalg._row_slack

    def counting(*args):
        calls.append(args)
        return row_slack(*args)

    monkeypatch.setattr(linalg, "_row_slack", counting)
    sys = InequalitySystem(1)
    sys.add_le({0: 1}, 1)
    sys.add_le({0: -1}, 0)
    tight, inside = [1], [QuadElem(2, -1, 2)]
    assert sys.check_point(tight) and sys.check_point(tight, strict=[1])
    assert not sys.check_point(tight, strict=[0])
    assert sys.check_point(inside, strict=[0, 1])
    assert not sys.check_point([2], strict=[1])
    assert len(calls) == 2 * 5


def test_hull_point_at_half_is_all_implicit():
    sys = InequalitySystem(1)
    sys.add_eq({0: 2}, 1)
    res = affine_hull_and_interior(sys)
    assert res.status == "ok"
    assert res.implicit == [True, True]
    assert res.y0 == [Fraction(1, 2)]
    assert res.eq_rows == [{0: 2}] and res.eq_rhs == [1]


def test_hull_hidden_equality_detected():
    # x + y <= 1 and -x - y <= -1 given as unrelated rows, plus a box
    sys = InequalitySystem(2)
    sys.add_le({0: 1, 1: 1}, 1)
    sys.add_le({0: -1, 1: -1}, -1)
    sys.add_le({0: 1}, 5)
    sys.add_le({0: -1}, 5)
    res = affine_hull_and_interior(sys)
    assert res.status == "ok"
    assert res.implicit == [True, True, False, False]
    assert ({0: 1, 1: 1}, 1) in list(zip(res.eq_rows, res.eq_rhs)) or \
           ({0: -1, 1: -1}, -1) in list(zip(res.eq_rows, res.eq_rhs))
    # interior point sits on the hull and strictly inside the box
    assert res.y0[0] + res.y0[1] == 1
    assert -5 < res.y0[0] < 5


def test_hull_full_dimensional_box():
    sys = InequalitySystem(2)
    for j in range(2):
        sys.add_le({j: 1}, 1)
        sys.add_le({j: -1}, 0)
    res = affine_hull_and_interior(sys)
    assert res.status == "ok"
    assert res.implicit == [False] * 4
    assert res.eq_rows == []
    assert all(s > 0 for s in rational_slacks(sys, res.y0))


def test_hull_empty():
    sys = InequalitySystem(1)
    sys.add_le({0: 1}, 0)
    sys.add_le({0: -1}, -1)
    res = affine_hull_and_interior(sys)
    assert res.status == "empty"


def test_hull_warm_point_skips_lps():
    sys = InequalitySystem(2)
    sys.add_eq({0: 1, 1: 1}, 1)
    sys.add_le({0: -1}, 0)
    sys.add_le({1: -1}, 0)
    res = affine_hull_and_interior(sys, warm_point=[Fraction(1, 2), Fraction(1, 2)])
    assert res.status == "ok"
    assert res.lp_calls == 0
    assert res.implicit == [True, True, False, False]
    assert res.y0 == [Fraction(1, 2), Fraction(1, 2)]


def test_hull_box_tight_at_warm_point_takes_one_lp():
    # 0 <= x_j <= 1: the warm point 0 is feasible and tight on four rows,
    # and one LP shows that none of them is implicit
    sys = InequalitySystem(4)
    for j in range(4):
        sys.add_le({j: 1}, 1)
        sys.add_le({j: -1}, 0)
    res = affine_hull_and_interior(sys, warm_point=[0] * 4)
    assert res.status == "ok"
    assert res.lp_calls == 1
    assert res.implicit == [False] * 8
    assert all(s > 0 for s in rational_slacks(sys, res.y0))


def test_hull_random_cross_check():
    # classification must agree with per-row exact slack maximisation: on
    # random systems, cold; and on systems around a planted point z, with
    # tracked equality pairs through z, cold or warm at z, where z is tight
    # on some rows
    rng = random.Random(40)
    warm_tight = 0
    for trial in range(150):
        n = rng.randint(1, 3)
        m = rng.randint(2, 6)
        rows = rand_sparse_rows(rng, m, n, lo=-3, hi=3, density=0.8)
        sys = InequalitySystem(n)
        warm = None
        if trial < 60:
            for r in rows:
                sys.add_le(r, rng.randint(-2, 4))
        else:
            z = [rng.randint(-2, 2) for _ in range(n)]
            for r in rows:
                if rng.random() < 0.3:
                    sys.add_eq(r, dot(r, z))
                else:
                    sys.add_le(r, dot(r, z) + rng.choice((0, 0, 1, 2)))
            if trial % 2:
                warm = z
                paired = sys.paired_indices()
                warm_tight += any(s == 0 for i, s in enumerate(rational_slacks(sys, z))
                                  if i not in paired)
        res = affine_hull_and_interior(sys, warm)
        feas = solve_inequality_lp(sys.rows, sys.rhs, n)
        if feas.status != OPTIMAL:
            assert res.status == "empty"
            continue
        assert res.status == "ok"
        assert res.lp_calls <= (1 if warm is not None else 2)
        slack = rational_slacks(sys, res.y0)
        for i in range(sys.n_rows):
            opt = solve_inequality_lp(sys.rows, sys.rhs, n,
                                      objective=sys.rows[i], maximize=False)
            truly_implicit = opt.status == OPTIMAL and opt.objective == sys.rhs[i]
            assert res.implicit[i] == truly_implicit, (sys, i)
            if not truly_implicit:
                assert slack[i] > 0
            else:
                assert slack[i] == 0
    assert warm_tight > 20


def test_unbounded_slack_row_gets_witness():
    # -x <= 0 with no upper bound: slack of that row is unbounded
    sys = InequalitySystem(1)
    sys.add_le({0: -1}, 0)
    res = affine_hull_and_interior(sys, warm_point=[Fraction(0)])
    # warm point is tight, so the LP path must still certify non-implicitness
    assert res.status == "ok"
    assert res.implicit == [False]
    assert rational_slacks(sys, res.y0)[0] > 0
