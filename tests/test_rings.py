"""Tests for exact ring arithmetic.

Sign, ordering, and floor results are cross-checked against mpmath at 80
significant digits, which is an independent numeric oracle for the ranges
exercised here.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import pytest

from pcsp.rings import (
    LatticeIdeal,
    QuadElem,
    QuadRing,
    RingMismatchError,
    SqrtExpr,
    _dense_search,
    dense_element,
    intersect_ideals,
    sqrt_bounds,
    squarefree_split,
)

mpmath.mp.dps = 80


def approx(x) -> mpmath.mpf:
    if isinstance(x, QuadElem):
        return mpmath.mpf(x.a) + mpmath.mpf(x.b) * mpmath.sqrt(x.q)
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    return mpmath.mpf(x)


def rand_elem(rng, q, bound=50):
    return QuadElem(rng.randint(-bound, bound), rng.randint(-bound, bound), q)


# -- QuadElem -----------------------------------------------------------------


def test_sign_matches_numeric_oracle():
    rng = random.Random(101)
    for _ in range(10_000):
        q = rng.choice([2, 3, 5, 7, 10])
        x = rand_elem(rng, q)
        got = x.sign()
        val = approx(x)
        if x.a == 0 and x.b == 0:
            assert got == 0
        else:
            assert got == (1 if val > 0 else -1), (x, val)


def test_compare_matches_numeric_oracle():
    rng = random.Random(102)
    for _ in range(5_000):
        q = rng.choice([2, 3, 5])
        x, y = rand_elem(rng, q), rand_elem(rng, q)
        assert (x < y) == (approx(x) < approx(y))
        assert (x == y) == ((x.a, x.b) == (y.a, y.b))


def test_floor_matches_numeric_oracle():
    rng = random.Random(103)
    for _ in range(5_000):
        q = rng.choice([2, 3, 5, 11])
        x = rand_elem(rng, q, bound=10 ** 6)
        f = math.floor(x)
        val = approx(x)
        assert f <= val < f + 1


def test_quadelem_ring_axioms():
    rng = random.Random(104)
    for _ in range(2_000):
        q = rng.choice([2, 3, 5])
        x, y, z = (rand_elem(rng, q) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x + (-x) == QuadElem(0, 0, q)
        assert x * QuadElem(1, 0, q) == x


def test_quadelem_int_interop_and_pow():
    x = QuadElem(1, 1, 2)
    assert x + 1 == QuadElem(2, 1, 2)
    assert 3 * x == QuadElem(3, 3, 2)
    assert 2 - x == QuadElem(1, -1, 2)
    assert x * x == QuadElem(3, 2, 2)
    assert QuadElem(5, 0, 2) == 5
    assert hash(QuadElem(5, 0, 2)) == hash(5)


def test_quadelem_compares_with_rationals():
    # near-ties: the rational is within 1/den of the element, on either side
    rng = random.Random(105)
    for _ in range(3_000):
        q = rng.choice([2, 3, 5, 7])
        x = QuadElem(rng.randint(-10 ** 4, 10 ** 4),
                     rng.choice([0, rng.randint(-99, 99)]), q)
        vx = approx(x)
        den = rng.choice([1, rng.randint(2, 10 ** 6)])
        r = Fraction(int(mpmath.floor(vx * den)) + rng.randint(-1, 1), den)
        for y in ((r, int(r)) if r.denominator == 1 else (r,)):
            vy = approx(y)
            assert (x < y) == (y > x) == (vx < vy), (x, y)
            assert (x > y) == (y < x) == (vx > vy), (x, y)
            assert (x <= y) == (y >= x) == (vx <= vy), (x, y)
            assert (x == y) == (y == x) == (vx == vy), (x, y)
            if x == y:
                assert hash(x) == hash(y)
        assert math.floor(x) == int(mpmath.floor(vx))


def test_mixed_radicand_rejected():
    with pytest.raises(RingMismatchError):
        QuadElem(1, 1, 2) + QuadElem(1, 1, 3)
    with pytest.raises(ValueError):
        QuadElem(1, 1, 4)
    with pytest.raises(ValueError):
        QuadElem(1, 1, 1)


def test_radicand_type_checked_after_an_equal_int():
    # the radicand check is memoized; an int radicand already validated
    # must not admit an equal value of another type
    QuadElem(1, 1, 2)
    for bad in (2.0, Fraction(2)):
        with pytest.raises(TypeError):
            QuadElem(1, 1, bad)


# -- QuadRing and the dense-element search ------------------------------------


def test_alpha0_reference_values():
    assert QuadRing(2).alpha0 == QuadElem(2, -1, 2)
    assert QuadRing(3).alpha0 == QuadElem(4, -2, 3)
    assert QuadRing(5).alpha0 == QuadElem(5, -2, 5)


def test_alpha0_lands_in_window():
    for q in [2, 3, 5, 6, 7, 10, 11, 13]:
        a = QuadRing(q).alpha0
        assert Fraction(1, 2) < a
        assert a < Fraction(2, 3)


def test_dense_element_random_rational_intervals():
    rng = random.Random(108)
    ring = QuadRing(2)
    for _ in range(500):
        p = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
        w = Fraction(rng.randint(1, 10 ** 6), 10 ** 9)
        r = p + w
        x = dense_element(p, r, ring)
        assert p < x < r


def test_dense_element_iteration_bound():
    ring = QuadRing(2)
    alpha = approx(ring.alpha0)
    rng = random.Random(109)
    for _ in range(500):
        scale = rng.randint(1, 60)
        p = Fraction(rng.randint(-2 ** 30, 2 ** 30), 2 ** 20)
        w = Fraction(rng.randint(1, 2 ** 10), 2 ** scale)
        x, iters = _dense_search(p, p + w, ring)
        assert p < x < p + w
        bound = int(mpmath.ceil(mpmath.log(approx(w)) / mpmath.log(alpha))) + 2
        assert iters <= max(bound, 2), (p, w, iters, bound)


def test_dense_element_quadratic_endpoints():
    ring = QuadRing(3)
    root = QuadElem(0, 1, 3)
    lo, hi = sqrt_bounds(3, 27)
    cases = [
        (QuadElem(1, 1, 3), QuadElem(3, 1, 3)),
        (root, hi),             # 2^-27 wide, irrational left endpoint
        (lo, root),             # and irrational right endpoint
        (-hi, -root),           # mirrored through zero
    ]
    for p, r in cases:
        x = dense_element(p, r, ring)
        assert p < x < r
        assert approx(p) < approx(x) < approx(r)


def test_dense_element_rejects_empty_interval():
    with pytest.raises(ValueError):
        dense_element(Fraction(1), Fraction(1), QuadRing(2))


# -- Lattice quotients -----------------------------------------------------------


def in_lattice(lattice, vector) -> bool:
    """Membership in the lattice: the canonical representative is zero."""
    return not any(lattice.canonicalize(vector))


def test_lattice_basics_diagonal():
    j = LatticeIdeal([[2, 0], [0, 4]])
    assert j.diag == (2, 4)
    assert j.index == 8
    assert in_lattice(j, (2, -4))
    assert not in_lattice(j, (1, 0))
    assert len(list(j.cosets())) == 8
    assert j.canonicalize((5, 9)) == (1, 1)


def test_lattice_canonicalize_is_congruence():
    rng = random.Random(111)
    gens_pool = [
        [[2, 0], [0, 4]],
        [[7]],
        [[2, 0, 0], [0, 3, 0], [0, 0, 5]],
    ]
    for gens in gens_pool:
        j = LatticeIdeal(gens)
        b = j.dim
        for _ in range(300):
            x = tuple(rng.randint(-50, 50) for _ in range(b))
            y = tuple(rng.randint(-50, 50) for _ in range(b))
            # canonical rep differs from the vector by a lattice element
            assert in_lattice(j, tuple(a - c for a, c in zip(x, j.canonicalize(x))))
            # compatibility with addition
            lhs = j.canonicalize(tuple(a + c for a, c in zip(x, y)))
            rhs = j.canonicalize(tuple(a + c for a, c in zip(j.canonicalize(x),
                                                             j.canonicalize(y))))
            assert lhs == rhs
            assert j.canonicalize(j.canonicalize(x)) == j.canonicalize(x)


def test_lattice_multiplication_well_defined_iff_ideal():
    # diagonal: products of cosets do not depend on representatives
    j = LatticeIdeal([[2, 0], [0, 4]])
    rng = random.Random(112)
    for _ in range(200):
        x = tuple(rng.randint(-9, 9) for _ in range(2))
        y = tuple(rng.randint(-9, 9) for _ in range(2))
        sx = tuple(a + 2 * b for a, b in zip(x, (rng.randint(-3, 3), 0)))
        prod1 = j.canonicalize(tuple(a * b for a, b in zip(x, y)))
        prod2 = j.canonicalize(tuple(a * b for a, b in zip(sx, y)))
        # shifted x by (2k, 0) which lies in the lattice
        assert prod1 == prod2


def test_non_ideal_lattice_rejected():
    # Hermite form [[2, 0], [1, 3]]: (1, 0) * (2, 1) = (2, 0) leaves the
    # lattice, so the quotient is no ring
    with pytest.raises(ValueError, match="not an ideal"):
        LatticeIdeal([[2, 1], [0, 3]])
    with pytest.raises(ValueError, match="not an ideal"):
        LatticeIdeal([[4, 2], [2, 4]])


def test_ideal_from_non_diagonal_generators():
    j = LatticeIdeal([[2, 2], [0, 2]])
    assert j.diag == (2, 2)
    assert j == LatticeIdeal([[2, 0], [0, 2]])
    assert j.canonicalize((3, -1)) == (1, 1)


def test_ideal_from_more_generators_than_coordinates():
    # oracle without a Hermite form: the generators span a sublattice of
    # d_1 Z x d_2 Z, d_i the gcd of coordinate i, and equal it iff both
    # have the same index, the gcd of the 2 x 2 minors against d_1 d_2
    rng = random.Random(127)
    accepted = refused = 0
    while accepted + refused < 200:
        gens = [(rng.randint(-6, 6), rng.randint(-6, 6))
                for _ in range(rng.randint(3, 4))]
        index = math.gcd(*(u[0] * v[1] - u[1] * v[0]
                           for k, u in enumerate(gens) for v in gens[k + 1:]))
        if index == 0:
            continue
        diag = tuple(math.gcd(*(g[i] for g in gens)) for i in range(2))
        if index == diag[0] * diag[1]:
            assert LatticeIdeal(gens).diag == diag
            accepted += 1
        else:
            with pytest.raises(ValueError, match="not an ideal"):
                LatticeIdeal(gens)
            refused += 1
    assert accepted > 20 and refused > 20


def test_intersect_ideals():
    a = LatticeIdeal([[2, 0], [0, 4]])
    b = LatticeIdeal([[4, 0], [0, 2]])
    c = intersect_ideals([a, b])
    assert c.diag == (4, 4)


def test_intersect_ideals_matches_membership_grid():
    rng = random.Random(113)
    for _ in range(20):
        a, b = (LatticeIdeal([[rng.randint(1, 6), 0], [0, rng.randint(1, 6)]])
                for _ in range(2))
        c = intersect_ideals([a, b])
        for x in range(-12, 13):
            for y in range(-12, 13):
                want = in_lattice(a, (x, y)) and in_lattice(b, (x, y))
                assert in_lattice(c, (x, y)) == want


def test_lattice_not_full_rank_rejected():
    with pytest.raises(ValueError):
        LatticeIdeal([[1, 2], [2, 4]])


def test_reduce_to_coarser_lattice():
    fine = LatticeIdeal([[4, 0], [0, 4]])
    coarse = LatticeIdeal([[2, 0], [0, 2]])
    x = fine.element((3, 2))
    y = x.reduce_to(coarse)
    assert y.vector == (1, 0)
    assert y.lattice == coarse


def test_reduce_to_refuses_a_finer_lattice():
    with pytest.raises(ValueError, match="does not contain"):
        LatticeIdeal([(2,)]).element((1,)).reduce_to(LatticeIdeal([(4,)]))
    with pytest.raises(ValueError, match="does not contain"):
        LatticeIdeal([(2, 0), (0, 6)]).element((1, 5)).reduce_to(
            LatticeIdeal([(2, 0), (0, 4)]))


# -- SqrtExpr -------------------------------------------------------------------


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(12) == (3, 2)
    assert squarefree_split(49) == (1, 7)
    assert squarefree_split(60) == (15, 2)


def test_sqrtexpr_sign_matches_numeric_oracle():
    rng = random.Random(113)
    for _ in range(2_000):
        terms = {}
        val = mpmath.mpf(0)
        for d in rng.sample([1, 2, 3, 5, 6, 7, 10], rng.randint(1, 4)):
            c = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            terms[d] = c
            val += approx(c) * mpmath.sqrt(d)
        e = SqrtExpr(terms)
        if abs(val) > mpmath.mpf("1e-60"):
            assert e.sign() == (1 if val > 0 else -1)


def test_sqrtexpr_zero_detection_and_folding():
    # sqrt(8) = 2 sqrt(2): built from non-squarefree input they must cancel
    a = SqrtExpr({2: Fraction(2)})
    b = SqrtExpr.from_quad(QuadElem(0, 1, 8))
    assert not (a - b).terms
    assert (a - b).sign() == 0
    # (sqrt2 + sqrt3)^2 == 5 + 2 sqrt6
    s = SqrtExpr({2: Fraction(1), 3: Fraction(1)})
    sq = s * s
    assert not (sq - SqrtExpr({1: Fraction(5), 6: Fraction(2)})).terms
    # cross-ring comparison: sqrt2 * sqrt3 < 5/2  (sqrt6 ~ 2.449)
    prod = SqrtExpr({2: Fraction(1)}) * SqrtExpr({3: Fraction(1)})
    assert (prod - Fraction(5, 2)).sign() == -1
    assert (prod - Fraction(12, 5)).sign() == 1


# -- helpers ---------------------------------------------------------------------


def test_sqrt_bounds_bracket():
    for d in [2, 3, 5, 7, 1234567]:
        lo, hi = sqrt_bounds(d, 40)
        assert lo * lo <= d <= hi * hi
        assert hi - lo == Fraction(1, 2 ** 40)
