"""Tests for rounding families, region partitions, and member functions."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

import pcsp.families as families
from pcsp.families import (
    Cell,
    InvalidArityError,
    PartitionError,
    PartitionSpec,
    PeriodicFamily,
    RegionFamily,
    RegionPeriodicFamily,
    SimplexFamily,
    ThresholdFamily,
    ThresholdPeriodicFamily,
    eval_poly,
    evaluate_partition,
    interval_index,
    smallest_valid_arity,
)
from pcsp.model import PromiseTemplate, Relation, check_polymorphism
from pcsp.pipeline import _weight_guard
from pcsp.rings import LatticeIdeal, QuadElem, SqrtExpr


MAJ = ThresholdFamily((Fraction(0), Fraction(1, 2), Fraction(1)), (0, 0, 1, 1),
                      name="maj")

FAM_GL = ThresholdPeriodicFamily(
    (Fraction(1, 2),), (2, 2), ((0, 3), (2, 1)), residue=1, name="fam-gL")


def malt_partition():
    x_lt_y = ((Fraction(1), (0, 1)), (Fraction(-1), (1, 0)))   # y - x > 0
    x_gt_y = ((Fraction(1), (1, 0)), (Fraction(-1), (0, 1)))   # x - y > 0
    return PartitionSpec(
        2,
        (Cell(0, (x_lt_y,)), Cell(1, (x_gt_y,))),
        {(0, 0): 0, (1, 1): 1, (0, 1): 0, (1, 0): 1},
    )


MALT = RegionFamily(malt_partition(), (2, 3), name="malt")


def rainbow_partition():
    hi = ((Fraction(1), (1, 0, 0)), (Fraction(-1, 3), (0, 0, 0)))  # x1 - 1/3 > 0
    lo = ((Fraction(1, 3), (0, 0, 0)), (Fraction(-1), (1, 0, 0)))  # 1/3 - x1 > 0
    return PartitionSpec(3, (Cell(1, (hi,)), Cell(2, (lo,))))


RAINBOW = SimplexFamily((1, 2, 3), rainbow_partition(), radicand=2,
                        name="rainbow")


# ---------------------------------------------------------------------------
# threshold families
# ---------------------------------------------------------------------------


def test_majority_member_values():
    f = MAJ.member(5)
    for w in range(6):
        assert f.table[((5 - w, w),)] == (1 if w >= 3 else 0)
    assert MAJ.member(3).apply_column([0, 1, 1]) == 1


def test_threshold_tie_goes_to_lower_interval():
    fam = ThresholdFamily((Fraction(1, 2),), ("lo", "hi"))
    assert fam.round((Fraction(1, 2),), None) == "lo"
    assert fam.round((Fraction(1, 2) + Fraction(1, 1000),), None) == "hi"
    f = fam.member(4)      # invalid arity, but the member is still defined
    assert f.table[((2, 2),)] == "lo"


def test_threshold_round_exact_on_ring_values():
    fam = ThresholdFamily((Fraction(1, 2),), (0, 1))
    just_below = QuadElem(-1, 1, 2)          # sqrt(2) - 1 = 0.414...
    just_above = QuadElem(2, -1, 2)          # 2 - sqrt(2) = 0.585...
    assert fam.round((just_below,), None) == 0
    assert fam.round((just_above,), None) == 1
    assert interval_index(fam.thresholds, just_below) == 0
    assert interval_index(fam.thresholds, just_above) == 1


def test_threshold_validity_skips_interior_tie_arities():
    fam = ThresholdFamily((Fraction(1, 3),), (0, 1))
    assert [L for L in range(1, 10) if fam.is_valid_arity(L)] == [1, 2, 4, 5, 7, 8]
    assert [L for L in range(1, 8) if MAJ.is_valid_arity(L)] == [1, 3, 5, 7]
    assert smallest_valid_arity(MAJ, 2) == 3


def test_threshold_member_round_agreement():
    for L in (1, 3, 5, 9):
        f = MAJ.member(L)
        for w in range(L + 1):
            assert MAJ.round((Fraction(w, L),), None) == f.table[((L - w, w),)]


def test_threshold_constructor_validation():
    with pytest.raises(ValueError):
        ThresholdFamily((Fraction(2, 3), Fraction(1, 3)), (0, 1, 2))
    with pytest.raises(ValueError):
        ThresholdFamily((Fraction(3, 2),), (0, 1))
    with pytest.raises(ValueError):
        ThresholdFamily((Fraction(1, 2),), (0, 1, 2))


# ---------------------------------------------------------------------------
# periodic families
# ---------------------------------------------------------------------------


MOD7 = PeriodicFamily(7, 1, tuple(1 if w == 1 else 0 for w in range(7)),
                      domain=tuple(range(7)), name="mod7")


def test_periodic_member_weighted_sums():
    f = MOD7.member(8)
    col = [1, 2, 3, 0, 6, 5, 4, 1]
    assert f.apply_column(col) == (1 if sum(col) % 7 == 1 else 0)
    rng = random.Random(2)
    for _ in range(100):
        col = [rng.randrange(7) for _ in range(8)]
        assert f.apply_column(col) == MOD7.eta[sum(col) % 7]


def test_periodic_binary_domain_eager_table():
    fam = PeriodicFamily(2, 1, (0, 1))
    f = fam.member(5)
    assert f.table[((2, 3),)] == 1
    assert f.table[((4, 1),)] == 1
    assert f.table[((3, 2),)] == 0


def test_periodic_round_accepts_ints_and_quotients():
    assert MOD7.round((), 8) == 1
    lat = LatticeIdeal([(7,)])
    assert MOD7.round((), lat.element((15,))) == 1
    assert MOD7.round((), lat.element((3,))) == 0
    with pytest.raises(ValueError):
        MOD7.round((), LatticeIdeal([(7, 0), (0, 7)]).element((1, 1)))
    with pytest.raises(ValueError):
        MOD7.round((), LatticeIdeal([(5,)]).element((6,)))


def test_periodic_validity():
    assert [L for L in range(1, 17) if MOD7.is_valid_arity(L)] == [1, 8, 15]
    assert smallest_valid_arity(MOD7, 2) == 8


# ---------------------------------------------------------------------------
# threshold-periodic families
# ---------------------------------------------------------------------------


def test_fam_gl_member_values():
    f = FAM_GL.member(3)
    # below the threshold eta0 = (0, 3), above it eta1 = (2, 1)
    assert f.table[((3, 0),)] == 0      # w=0, v=0
    assert f.table[((2, 1),)] == 3      # w=1, v=1/3
    assert f.table[((1, 2),)] == 2      # w=2, v=2/3
    assert f.table[((0, 3),)] == 1      # w=3, v=1
    assert FAM_GL.period == 2
    assert [L for L in range(1, 10) if FAM_GL.is_valid_arity(L)] == [1, 3, 5, 7, 9]


def test_fam_gl_round_agreement():
    for L in (1, 3, 5, 7, 9):
        f = FAM_GL.member(L)
        for w in range(L + 1):
            got = FAM_GL.round((Fraction(w, L),), w % FAM_GL.period)
            assert got == f.table[((L - w, w),)]


def test_thrper_round_applies_the_residue():
    # valid arities are L = 2 (mod 3), so a member seeing w ones stands for
    # the affine value x with 2x = w (mod 3), that is x = 2w (mod 3)
    fam = ThresholdPeriodicFamily((Fraction(1, 2),), (3, 3),
                                  ((0, 1, 2), (3, 4, 5)), residue=2)
    for L in (5, 11, 17):
        f = fam.member(L)
        for w in range(L + 1):
            assert fam.round((Fraction(w, L),), 2 * w % 3) == f.table[((L - w, w),)]


def test_thrper_round_on_ring_values():
    v = QuadElem(-1, 1, 2)               # below 1/2
    assert FAM_GL.round((v,), 0) == 0
    assert FAM_GL.round((v,), 1) == 3
    v = QuadElem(2, -1, 2)               # above 1/2
    lat = LatticeIdeal([(2,)])
    assert FAM_GL.round((v,), lat.element((0,))) == 2
    assert FAM_GL.round((v,), lat.element((1,))) == 1
    with pytest.raises(ValueError):
        FAM_GL.round((v,), LatticeIdeal([(3,)]).element((1,)))


def test_thrper_constructor_validation():
    with pytest.raises(ValueError):
        ThresholdPeriodicFamily((Fraction(1, 2),), (2,), ((0, 1),))
    with pytest.raises(ValueError):
        ThresholdPeriodicFamily((Fraction(1, 2),), (2, 3), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        ThresholdPeriodicFamily((Fraction(1, 2),), (2, 2), ((0, 1), (0, 1)),
                                residue=2)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def test_partition_rejects_overlap():
    a = ((Fraction(1), (0, 1)), (Fraction(-1), (1, 0)))        # y > x
    b = ((Fraction(2), (0, 1)), (Fraction(-1), (1, 0)))        # 2y > x
    with pytest.raises(ValueError, match="overlap"):
        PartitionSpec(2, (Cell(0, (a,)), Cell(1, (b,))))


def test_partition_rejects_holes():
    a = ((Fraction(1), (0, 1)), (Fraction(-1), (1, 0)))        # y > x only
    with pytest.raises(ValueError, match="no cell"):
        PartitionSpec(2, (Cell(0, (a,)),))


def test_partition_rejects_corner_mismatch():
    x_lt_y = ((Fraction(1), (0, 1)), (Fraction(-1), (1, 0)))
    x_gt_y = ((Fraction(1), (1, 0)), (Fraction(-1), (0, 1)))
    with pytest.raises(ValueError, match="corner"):
        PartitionSpec(2, (Cell(0, (x_lt_y,)), Cell(1, (x_gt_y,))),
                      {(1, 0): 0})


def test_evaluate_partition_mixed_radicands():
    spec = malt_partition()
    x = QuadElem(-1, 1, 2)     # sqrt(2) - 1 = 0.414...
    y = QuadElem(2, -1, 3)     # 2 - sqrt(3)  = 0.267...
    assert evaluate_partition(spec, (x, y)) == 1
    assert evaluate_partition(spec, (y, x)) == 0


def test_evaluate_partition_corners_and_boundaries():
    spec = malt_partition()
    assert evaluate_partition(spec, (Fraction(0), Fraction(0))) == 0
    assert evaluate_partition(spec, (Fraction(1), Fraction(0))) == 1
    with pytest.raises(PartitionError):
        evaluate_partition(spec, (Fraction(1, 3), Fraction(1, 3)))


def test_evaluate_partition_clamps_out_of_range():
    spec = malt_partition()
    assert evaluate_partition(spec, (Fraction(3, 2), Fraction(1, 2))) == 1
    assert evaluate_partition(spec, (Fraction(-1), Fraction(0))) == 0


def test_circle_cell_exact_quadratic_sign():
    r2 = Fraction(1, 13)
    # (x-1/2)^2 + (y-1/2)^2 compared against 1/13
    dist = ((Fraction(1), (2, 0)), (Fraction(-1), (1, 0)),
            (Fraction(1), (0, 2)), (Fraction(-1), (0, 1)),
            (Fraction(1, 2), (0, 0)))
    inside = ((Fraction(r2), (0, 0)),) + tuple((-c, e) for c, e in dist)
    outside = tuple(dist) + ((Fraction(-r2), (0, 0)),)
    spec = PartitionSpec(2, (Cell("in", (inside,)), Cell("out", (outside,))),
                         {k: "out" for k in
                          ((0, 0), (0, 1), (1, 0), (1, 1))})
    p = QuadElem(-1, 1, 2)
    # squared distance is 17/2 - 6 sqrt(2) = 0.0147... < 1/13
    assert evaluate_partition(spec, (p, p)) == "in"
    q = QuadElem(2, -1, 3)
    assert evaluate_partition(spec, (q, q)) == "out"


def test_eval_poly_mixed_product():
    poly = ((Fraction(1), (1, 1)),)
    got = eval_poly(poly, (QuadElem(0, 1, 2), QuadElem(0, 1, 3)))
    assert not (got - SqrtExpr({6: Fraction(1)})).terms


def _eval_decision(polys, point):
    """Cell membership decided through `eval_poly`, the ring-point path."""
    signs = [eval_poly(p, point).sign() for p in polys]
    if any(s < 0 for s in signs):
        return False
    return None if 0 in signs else True


def _random_poly(rng, dim):
    terms = []
    for _ in range(rng.randint(0, 4)):
        exps = [0] * dim
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(dim)] += 1
        terms.append((Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                      tuple(exps)))
    return tuple(terms)


def _random_point(rng, dim):
    kind = rng.randrange(3)
    if kind == 0:      # mixed denominators, ints among them
        return tuple(rng.choice((rng.randint(-3, 3),
                                 Fraction(rng.randint(-30, 30), rng.randint(1, 15))))
                     for _ in range(dim))
    if kind == 1:      # the sampler's grid
        return tuple(Fraction(rng.randrange(1, 97), 97) for _ in range(dim))
    return tuple(Fraction(rng.randint(0, 40), rng.randint(1, 40))
                 for _ in range(dim))


def _through(poly, point):
    """`poly` shifted by a constant so that it vanishes at `point`."""
    value = eval_poly(poly, point).terms.get(1, Fraction(0))
    return poly + ((-value, (0,) * len(point)),)


def test_rational_sign_matches_eval_poly():
    rng = random.Random(20_240_517)
    seen = {True: 0, False: 0, None: 0}
    for _ in range(1500):
        dim = rng.randint(1, 3)
        polys = [_random_poly(rng, dim) for _ in range(rng.randint(1, 3))]
        pt = _random_point(rng, dim)
        if rng.random() < 0.3:
            polys[0] = _through(polys[0], pt)
        for p in polys:
            got = Cell(0, (p,)).matches(pt)
            assert got == _eval_decision((p,), pt), (p, pt)
            seen[got] += 1
        assert Cell(0, tuple(polys)).matches(pt) == _eval_decision(polys, pt)
    assert min(seen.values()) > 100


@pytest.mark.parametrize("poly, value", [
    ((), None),                                          # empty: p = 0
    (((Fraction(2, 3), (0, 0)),), True),
    (((Fraction(-1, 7), (0, 0)),), False),
    (((Fraction(0), (1, 1)),), None),
])
def test_rational_sign_of_empty_and_constant_polys(poly, value):
    for pt in ((Fraction(1, 3), Fraction(5, 7)), (0, 1), (Fraction(3, 2), 2)):
        assert Cell(0, (poly,)).matches(pt) == value == _eval_decision((poly,), pt)


def test_rational_sign_on_zero_sets():
    x_minus_y = ((Fraction(1), (1, 0)), (Fraction(-1), (0, 1)))
    for pt in ((Fraction(1, 3), Fraction(2, 6)), (Fraction(5, 97), Fraction(5, 97)),
               (2, Fraction(4, 2))):
        assert Cell(0, (x_minus_y,)).matches(pt) is None
    # (x-1/2)^2 + (y-1/2)^2 - 1/13, vanishing at 1/2 + (a, b)/13, a^2 + b^2 = 13
    circle = ((Fraction(1), (2, 0)), (Fraction(-1), (1, 0)),
              (Fraction(1), (0, 2)), (Fraction(-1), (0, 1)),
              (Fraction(1, 2) - Fraction(1, 13), (0, 0)))
    half = Fraction(1, 2)
    for a, b in ((2, 3), (3, 2), (-2, 3), (3, -2), (-3, -2)):
        pt = (half + Fraction(a, 13), half + Fraction(b, 13))
        assert not eval_poly(circle, pt).terms
        assert Cell(0, (circle,)).matches(pt) is None
        nudged = (pt[0] + Fraction(1, 10 ** 9), pt[1])
        assert Cell(0, (circle,)).matches(nudged) == _eval_decision((circle,), nudged)


def test_sampler_grid_decisions_match_eval_poly():
    """The first samples of the construction check, decided both ways."""
    x_lt_y = ((Fraction(1), (0, 1)), (Fraction(-1), (1, 0)))
    circle = ((Fraction(1, 13), (0, 0)), (Fraction(-1), (2, 0)), (Fraction(1), (1, 0)),
              (Fraction(-1), (0, 2)), (Fraction(1), (0, 1)), (Fraction(-1, 2), (0, 0)))
    for spec in (malt_partition(), rainbow_partition(),
                 PartitionSpec(2, (Cell(0, (x_lt_y, circle)),
                                   Cell(1, (tuple((-c, e) for c, e in x_lt_y),)),
                                   Cell(2, (x_lt_y, tuple((-c, e) for c, e in circle)))))):
        rng = random.Random(987_654_321)
        for _ in range(300):
            nums = [rng.randrange(1, 97) for _ in range(spec.dim)]
            pt = tuple(Fraction(k, 97) for k in nums)
            for cell in spec.cells:
                want = _eval_decision(cell.polys, pt)
                assert cell._matches_grid(nums, 97) == want == cell.matches(pt)


# ---------------------------------------------------------------------------
# region families
# ---------------------------------------------------------------------------


ONE_IN_THREE_NAE = PromiseTemplate(
    (0, 1), (0, 1), {0: 0, 1: 1},
    (Relation("1in3", 3,
              frozenset({(1, 0, 0), (0, 1, 0), (0, 0, 1)}),
              frozenset(t for t in
                        [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
                        if len(set(t)) > 1)),))


def test_malt_validity_pattern():
    assert [L for L in range(1, 10) if MALT.is_valid_arity(L)] == [2, 3, 5, 7, 9]


def test_malt_members_preserve_one_in_three_nae():
    for L in (3, 5, 7):
        rep = check_polymorphism(MALT.member(L), ONE_IN_THREE_NAE)
        assert rep.ok, f"L={L}: {rep.witness_rows} -> {rep.bad_output}"


def test_malt_member_blocks_and_table():
    f = MALT.member(5)
    assert f.block_sizes == (3, 2)
    # fractional first block, zero second block: x > y, label 1
    assert f.table[((2, 1), (2, 0))] == 1
    # zero first block, fractional second: x < y, label 0
    assert f.table[((3, 0), (1, 1))] == 0
    assert f.table[((0, 3), (0, 2))] == 1      # corner (1, 1)


def test_malt_invalid_arity_raises():
    with pytest.raises(InvalidArityError):
        MALT.member(4)
    with pytest.raises(InvalidArityError):
        MALT.member(1)


def test_region_family_rejects_duplicate_radicands():
    with pytest.raises(ValueError):
        RegionFamily(malt_partition(), (2, 2))


def test_region_round_matches_partition():
    x = QuadElem(-1, 1, 2)
    y = QuadElem(2, -1, 3)
    assert MALT.round((x, y), None) == 1
    assert MALT.round((y, x), None) == 0


# ---------------------------------------------------------------------------
# region-periodic families
# ---------------------------------------------------------------------------


def regper_family():
    lat0 = LatticeIdeal([(2, 0), (0, 2)])
    lat1 = LatticeIdeal([(1, 0), (0, 1)])
    eta0 = {(0, 0): "a", (0, 1): "b", (1, 0): "c", (1, 1): "d"}
    eta1 = {(0, 0): "e"}
    return RegionPeriodicFamily(malt_partition(), (2, 3),
                                {0: (lat0, eta0), 1: (lat1, eta1)})


def test_regper_member_uses_cell_quotients():
    fam = regper_family()
    f = fam.member(3)                     # blocks (2, 1)
    # w = (1, 1): point (1/2, 1) in cell 0, coset (1, 1) -> "d"
    assert f.table[((1, 1), (0, 1))] == "d"
    # w = (2, 0): point (1, 0) corner -> cell 1 -> constant "e"
    assert f.table[((0, 2), (1, 0))] == "e"
    # w = (0, 0): corner (0,0) -> label 0, coset (0, 0) -> "a"
    assert f.table[((2, 0), (1, 0))] == "a"


def test_regper_round_reduces_quotients():
    fam = regper_family()
    joint = fam.plan.lattice
    assert joint.diag == (2, 2)
    w = joint.element((1, 0))
    x = QuadElem(-1, 1, 2)
    y = QuadElem(2, -1, 3)
    assert fam.round((y, x), w) == "c"     # label 0 keeps the mod-2 data
    assert fam.round((x, y), w) == "e"     # label 1 collapses everything


def test_regper_affine_lattice_is_computed_once():
    fam = regper_family()
    assert fam.plan.lattice is fam.plan.lattice


def test_regper_validation():
    lat0 = LatticeIdeal([(2, 0), (0, 2)])
    eta0 = {(0, 0): "a", (0, 1): "b", (1, 0): "c", (1, 1): "d"}
    with pytest.raises(ValueError, match="labels"):
        RegionPeriodicFamily(malt_partition(), (2, 3), {0: (lat0, eta0)})
    bad_eta = {(0, 0): "a"}
    lat1 = LatticeIdeal([(1, 0), (0, 1)])
    with pytest.raises(ValueError, match="coset"):
        RegionPeriodicFamily(malt_partition(), (2, 3),
                             {0: (lat0, bad_eta), 1: (lat1, {(0, 0): "e"})})


# ---------------------------------------------------------------------------
# simplex families
# ---------------------------------------------------------------------------


RAINBOW_TEMPLATE = PromiseTemplate(
    (1, 2, 3), (1, 2, 3), {d: d for d in (1, 2, 3)},
    (Relation("perm", 3,
              frozenset({(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1),
                         (3, 1, 2), (3, 2, 1)}),
              frozenset(t for t in
                        [(a, b, c) for a in (1, 2, 3) for b in (1, 2, 3)
                         for c in (1, 2, 3)]
                        if len(set(t)) > 1)),))


def test_rainbow_validity_pattern():
    assert [L for L in range(1, 10) if RAINBOW.is_valid_arity(L)] == [1, 2, 4, 5, 7, 8]


def test_rainbow_members_are_polymorphisms():
    for L in (1, 2, 4, 5):
        rep = check_polymorphism(RAINBOW.member(L), RAINBOW_TEMPLATE)
        assert rep.ok, f"L={L}"


def test_rainbow_member_values():
    f = RAINBOW.member(4)
    assert f.table[((2, 1, 1),)] == 1      # half the inputs are 1
    assert f.table[((1, 2, 1),)] == 2      # a third crosses below
    assert f.table[((0, 0, 4),)] == 2
    assert f.apply_column([1, 1, 2, 3]) == 1


def test_rainbow_round():
    above = QuadElem(-1, 1, 2)      # sqrt(2) - 1 = 0.414... > 1/3
    below = QuadElem(-4, 3, 2)      # 3 sqrt(2) - 4 = 0.242... < 1/3
    rest = Fraction(1, 3)
    assert RAINBOW.round((above, rest, rest), None) == 1
    assert RAINBOW.round((below, rest, rest), None) == 2


def test_simplex_dimension_validation():
    with pytest.raises(ValueError):
        SimplexFamily((1, 2), rainbow_partition())


def test_smallest_valid_arity_scans():
    assert smallest_valid_arity(MALT, 1) == 2
    assert smallest_valid_arity(MALT, 4) == 5
    assert smallest_valid_arity(RAINBOW, 3) == 4
    assert smallest_valid_arity(FAM_GL, 2) == 3


def test_thrper_equals_one_block_regper():
    # the two parameterizations describe the same family when the region
    # partition is the interval split at the threshold
    lo = ((Fraction(1, 2), (0,)), (Fraction(-1), (1,)))   # 1/2 - x > 0
    hi = ((Fraction(-1, 2), (0,)), (Fraction(1), (1,)))   # x - 1/2 > 0
    spec = PartitionSpec(1, (Cell("lo", (lo,)), Cell("hi", (hi,))),
                         {(0,): "lo", (1,): "hi"})
    j2 = LatticeIdeal([(2,)])
    regper = RegionPeriodicFamily(
        spec, (2,),
        {"lo": (j2, {(0,): 0, (1,): 3}), "hi": (j2, {(0,): 2, (1,): 1})},
        name="fam-gL-1d")

    rng = random.Random(20240811)
    den = 101                               # odd, so v never hits 1/2
    for _ in range(1000):
        v = Fraction(rng.randrange(0, den + 1), den)
        w = rng.randrange(0, 2)
        expect = FAM_GL.round((v,), w)
        got = regper.round((v,), j2.element((w,)))
        assert got == expect, (v, w)

    for L in (1, 3, 5):
        a = FAM_GL.member(L)
        b = regper.member(L)
        for w in range(L + 1):
            key = ((L - w, w),)
            assert a.table[key] == b.table[key]


# ---------------------------------------------------------------------------
# eager and lazy member tables
# ---------------------------------------------------------------------------


def _odd(L):
    return L % 2 == 1


@pytest.mark.parametrize("family, L", [
    (MAJ, 5),
    (MOD7, 8),
    (FAM_GL, 5),
    # an arity hint lets a partition family skip building the whole table
    (dataclasses.replace(MALT, arity_hint=_odd), 5),
    (dataclasses.replace(regper_family(), arity_hint=_odd), 5),
    (dataclasses.replace(RAINBOW, arity_hint=lambda L: L % 3 != 0), 4),
], ids=["thr", "per", "thr-per", "reg", "reg-per", "simplex"])
def test_lazy_member_matches_eager(family, L, monkeypatch):
    eager = family.member(L)
    assert isinstance(eager.table, dict)
    monkeypatch.setattr(families, "_EAGER_TABLE_LIMIT", 0)
    lazy = family.member(L)
    assert not isinstance(lazy.table, dict)
    assert lazy.block_sizes == eager.block_sizes
    for key, value in eager.table.items():
        assert lazy.table[key] == value


# ---------------------------------------------------------------------------
# weight guards
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family, guard", [
    (MAJ, 4),
    (MOD7, 28),
    (FAM_GL, 8),
    (MALT, 8),
    (regper_family(), 32),
    (RAINBOW, 12),
], ids=["thr", "per", "thr-per", "reg", "reg-per", "simplex"])
def test_weight_guard_per_kind(family, guard):
    # lattice index times ring coordinates per variable, per tuple (m = 4)
    assert _weight_guard(family.plan, 4) == guard
