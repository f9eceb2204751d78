"""Acceptance suite: eight end-to-end criteria with pinned tolerances.

Each criterion is one test; the test verdict is the pass/fail signal, and a
`CRITERION n: PASS` summary line is printed for log scraping (visible under
pytest -s).  Tolerances are pinned in the assertions: the only inexact one
is the 120 s wall-clock budget of criterion 1; everything else is exact
arithmetic.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from pcsp import corpus
from pcsp.families import PeriodicFamily
from pcsp.linalg import (InequalitySystem, IntegerSolver,
                         solve_lattice_quotient_system)
from pcsp.lp import STATUS_NO_RING_POINT, STATUS_OK, ring_feasible_point
from pcsp.model import (Instance, PromiseTemplate, Relation,
                        check_polymorphism, plant_satisfiable_instance,
                        verify_assignment)
from pcsp.pipeline import construct_weights, solve, weighted_apply_oracle
from pcsp.rings import LatticeIdeal, QuadRing, _dense_search

from oracles import quotient_combination


def _report(n: int, detail: str):
    print(f"CRITERION {n}: PASS - {detail}")


# ---------------------------------------------------------------------------
# 1. didactic end-to-end
# ---------------------------------------------------------------------------


def test_criterion_1_didactic_end_to_end():
    e = corpus.entry("didactic")
    solved = 0
    t0 = time.time()
    for seed in range(1, 101):
        t = Fraction(seed - 1, 99)
        n = 6 + round(44 * t * t)          # 6 .. 50
        m = 4 + round(96 * t * t)          # 4 .. 100
        inst, _ = plant_satisfiable_instance(e.template, n, m,
                                             random.Random(seed))
        res = solve(e.template, inst, e.family)
        assert res.accepted, f"seed {seed} rejected: {res.reason}"
        assert verify_assignment(e.template, inst, res.assignment) is None, \
            f"seed {seed} produced an invalid assignment"
        solved += 1
    elapsed = time.time() - t0
    assert solved == 100
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds the 120s budget"
    _report(1, f"100/100 planted instances solved and verified in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. ring LP on random planted systems
# ---------------------------------------------------------------------------


def _planted_rational_system(rng: random.Random) -> tuple[InequalitySystem, list[int]]:
    n = rng.randrange(2, 7)
    m = rng.randrange(1, 13)
    z = [rng.randrange(-5, 6) for _ in range(n)]
    sys = InequalitySystem(n)
    for _ in range(m):
        row = {j: rng.randrange(-6, 7) for j in range(n) if rng.random() < 0.8}
        lhs = sum(c * z[j] for j, c in row.items())
        den = rng.randrange(1, 7)
        sys.add_le({j: Fraction(c, den) for j, c in row.items()},
                   Fraction(lhs + rng.randrange(0, 9), den))
    return sys, z


def test_criterion_2_ring_lp_planted():
    ring = QuadRing(2)
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    for seed in range(1, 201):
        sys, _ = _planted_rational_system(random.Random(1000 + seed))
        res = ring_feasible_point(sys, ring)
        assert res.status == STATUS_OK, f"seed {seed}: {res.status}"
        assert sys.check_point(res.point), f"seed {seed}: inexact point"
        for c in res.point:
            assert c != half
            assert c != third
            assert max(abs(c.a).bit_length(), abs(c.b).bit_length()) <= 32, \
                f"seed {seed}: {c} is longer than 32 bits"
    forced = InequalitySystem(1)
    forced.add_eq({0: 2}, 1)               # x = 1/2 on the whole hull
    res = ring_feasible_point(forced, ring)
    assert res.status == STATUS_NO_RING_POINT
    _report(2, "200/200 planted systems accepted exactly; {x=1/2} hull rejected")


def test_criterion_2_lower_dimensional_hull_gets_a_short_point():
    # the 192nd system of one Random(4242) stream, drawn as
    # perfbench.workloads.planted_ring_system draws it; its hull is
    # lower-dimensional, so the point takes the scaled-delta step, whose
    # length grows with the denominators of y0
    rng = random.Random(4242)
    for _ in range(192):
        sys, _ = _planted_rational_system(rng)
    res = ring_feasible_point(sys, QuadRing(2))
    assert res.status == STATUS_OK
    assert res.transcript["path"] == "scaled-delta"
    assert sys.check_point(res.point)
    assert max(max(abs(c.a).bit_length(), abs(c.b).bit_length())
               for c in res.point) <= 8


# ---------------------------------------------------------------------------
# 3. polymorphism verification
# ---------------------------------------------------------------------------


def _f2_affine_template() -> PromiseTemplate:
    triples = list(itertools.product((0, 1), repeat=3))
    even = frozenset(t for t in triples if sum(t) % 2 == 0)
    odd = frozenset(t for t in triples if sum(t) % 2 == 1)
    return PromiseTemplate(
        (0, 1), (0, 1), {0: 0, 1: 1},
        (Relation("even3", 3, even, even), Relation("odd3", 3, odd, odd)))


def test_criterion_3_polymorphism_checks():
    e = corpus.entry("didactic")
    for L in (1, 3, 5, 7, 9):
        rep = check_polymorphism(e.family.member(L), e.template)
        assert rep.ok, f"g_{L} failed: {rep.relation}"
    for L in (2, 4):
        rep = check_polymorphism(e.family.member(L), e.template)
        assert not rep.ok, f"g_{L} unexpectedly passed"
        # the returned witness really is a violation
        member = e.family.member(L)
        rel = e.template.relations[e.template.relation_index(rep.relation)]
        assert all(t in rel.strong for t in rep.witness_rows)
        assert member.apply_rows(rep.witness_rows) == rep.bad_output
        assert rep.bad_output not in rel.weak

    maj = corpus.entry("twosat")
    assert check_polymorphism(maj.family.member(3), maj.template).ok

    par3 = PeriodicFamily(2, 1, (0, 1), name="par").member(3)
    assert check_polymorphism(par3, _f2_affine_template()).ok
    _report(3, "fam-gL in Pol at L=1,3,5,7,9 with witnesses at L=2,4; "
               "MAJ3 and PAR3 confirmed")


# ---------------------------------------------------------------------------
# 4. periodic pipeline lands in h(A)
# ---------------------------------------------------------------------------


def test_criterion_4_mod7_outputs_in_hA():
    e = corpus.entry("mod7-sandwich")
    eta = e.family.eta
    rel = e.template.relations[0]
    h_of_A = {tuple(eta[v] for v in t) for t in rel.strong}
    for seed in range(1, 101):
        rng = random.Random(seed)
        n = 4 + seed % 12
        m = 3 + seed % 18
        inst, _ = plant_satisfiable_instance(e.template, n, m, rng)
        res = solve(e.template, inst, e.family)
        assert res.accepted, f"seed {seed} rejected: {res.reason}"
        for cl in inst.clauses:
            out = tuple(res.assignment[v] for v in cl.variables)
            assert out in h_of_A, f"seed {seed}: {out} outside h(A)"
    _report(4, "100/100 mod-7 instances solved; every clause output in h(A) "
               f"(|h(A)| = {len(h_of_A)})")


# ---------------------------------------------------------------------------
# 5. regional pipeline produces NAE colourings
# ---------------------------------------------------------------------------


def test_criterion_5_malt_regional_pipeline():
    e = corpus.entry("one-in-three-malt")
    for seed in range(1, 101):
        rng = random.Random(seed)
        n = 4 + seed % 10
        m = 3 + seed % 10
        inst, _ = plant_satisfiable_instance(e.template, n, m, rng)
        res = solve(e.template, inst, e.family)
        assert res.accepted, f"seed {seed} rejected: {res.reason}"
        for cl in inst.clauses:
            out = tuple(res.assignment[v] for v in cl.variables)
            assert len(set(out)) > 1, f"seed {seed}: {out} is constant"
        assert verify_assignment(e.template, inst, res.assignment) is None
    _report(5, "100/100 planted 1-in-3 instances solved to valid NAE colourings")


# ---------------------------------------------------------------------------
# 6. sandwich property: weights and the weighted-apply oracle
# ---------------------------------------------------------------------------


def test_criterion_6_sandwich_property():
    checked = 0
    for round_ in (0, 1):
        for name in corpus.names():
            e = corpus.entry(name)
            rng = random.Random(7 + round_)
            inst, _ = plant_satisfiable_instance(e.template, 6, 4, rng)
            res = solve(e.template, inst, e.family)
            assert res.accepted, f"{name} rejected: {res.reason}"
            for j, cl in enumerate(inst.clauses):
                out, arity = weighted_apply_oracle(e.template, inst, e.family,
                                                   res, j)
                expected = tuple(res.assignment[v] for v in cl.variables)
                assert out == expected
                assert out in e.template.relations[cl.relation].weak
                assert arity >= 1
                checked += 1
            if checked >= 50:
                break
        if checked >= 50:
            break
    assert checked >= 50

    # the three weight conditions, exercised directly
    rng = random.Random(99)
    for _ in range(50):
        modulus = rng.randrange(2, 9)
        m = rng.randrange(2, 7)
        cuts = sorted(rng.randrange(0, 1000) for _ in range(m - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [1000])]
        alphas = [Fraction(p, 1000) for p in parts]
        residues = [rng.randrange(0, modulus) for _ in range(m - 1)]
        residues.append((1 - sum(residues)) % modulus)
        L = modulus * m * rng.randrange(10, 40) + 1
        scale = L % modulus
        ws = construct_weights(alphas, residues, L, modulus)
        assert sum(ws) == L
        assert all(w >= 0 for w in ws)
        for w, r, a in zip(ws, residues, alphas):
            assert w % modulus == (r * scale) % modulus
            assert abs(w - a * L) <= 2 * modulus
    _report(6, f"{checked} solved clauses replayed through weighted members; "
               "50 weight constructions satisfy all three conditions exactly")


# ---------------------------------------------------------------------------
# 7. dense-search iteration bound
# ---------------------------------------------------------------------------


def _log_alpha_ceiling(width: Fraction, ring: QuadRing) -> int:
    """Smallest k >= 0 with alpha0^k <= width (alpha0 < 1), exactly."""
    power = ring.one
    k = 0
    while power > width:
        power = power * ring.alpha0
        k += 1
        assert k < 500
    return k


def test_criterion_7_dense_search_bound():
    rng = random.Random(424242)
    worst = 0
    for i in range(1000):
        ring = QuadRing((2, 3, 7)[i % 3])
        den = 2 ** 20
        num = rng.randrange(1, den + 1)
        width = Fraction(num, den)       # width >= 2^-20
        p = Fraction(rng.randrange(-5 * den, 5 * den), den)
        r = p + width
        elem, iters = _dense_search(p, r, ring)
        assert elem > p and elem < r, \
            "output not strictly inside the interval"
        bound = _log_alpha_ceiling(width, ring) + 2
        assert iters <= bound, f"{iters} iterations > bound {bound}"
        worst = max(worst, iters)
    _report(7, f"1000 intervals: outputs strictly inside, max iterations {worst} "
               "within ceil(log_alpha0(width)) + 2")


# ---------------------------------------------------------------------------
# 8. solver agreement with brute-force enumeration
# ---------------------------------------------------------------------------


def _box_grid(n: int, radius: int) -> np.ndarray:
    axes = [np.arange(-radius, radius + 1)] * n
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)


def test_criterion_8_solver_oracle_agreement():
    grids = {n: _box_grid(n, 20) for n in (1, 2, 3)}
    int_checked = 0
    for seed in range(500):
        rng = random.Random(3000 + seed)
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 4)
        rows = [{j: rng.randrange(-4, 5) for j in range(n)} for _ in range(m)]
        if seed % 2 == 0:
            z = [rng.randrange(-3, 4) for _ in range(n)]
            rhs = [sum(c * z[j] for j, c in r.items()) for r in rows]
        else:
            rhs = [rng.randrange(-4, 5) for _ in range(m)]
        sol = IntegerSolver(rows, n).solve(rhs)
        a = np.array([[r.get(j, 0) for j in range(n)] for r in rows])
        feasible_in_box = bool(
            np.all(grids[n] @ a.T == np.array(rhs), axis=1).any())
        if sol is None:
            assert not feasible_in_box, f"seed {seed}: solver missed a solution"
        else:
            for r, b in zip(rows, rhs):
                assert sum(c * sol[j] for j, c in r.items()) == b
            if seed % 2 == 0:
                assert feasible_in_box   # the planted witness is in the box
        int_checked += 1

    lat_checked = 0
    for seed in range(500):
        rng = random.Random(4000 + seed)
        dim = rng.randrange(1, 3)
        diag = [rng.randrange(2, 5) for _ in range(dim)]
        lattice = LatticeIdeal([[diag[i] if i == j else 0 for j in range(dim)]
                                for i in range(dim)])
        n = rng.randrange(1, 3 if dim == 2 else 4)
        m = rng.randrange(1, 4)
        rows = [{j: rng.randrange(-4, 5) for j in range(n)} for _ in range(m)]
        if seed % 2 == 0:
            xs = [tuple(rng.randrange(0, d) for d in diag) for _ in range(n)]
            rhs = [lattice.element(tuple(
                sum(c * xs[j][k] for j, c in r.items()) for k in range(dim)))
                for r in rows]
        else:
            rhs = [lattice.element(tuple(rng.randrange(0, d) for d in diag))
                   for r in rows]
        sol = solve_lattice_quotient_system(rows, rhs, n, lattice)
        found = False
        for combo in itertools.product(list(lattice.cosets()), repeat=n):
            if all(all((sum(c * combo[j][k] for j, c in r.items())
                        - rhs[i].vector[k]) % diag[k] == 0
                       for k in range(dim))
                   for i, r in enumerate(rows)):
                found = True
                break
        assert (sol is not None) == found, f"seed {seed}: verdict mismatch"
        if sol is not None:
            for i, r in enumerate(rows):
                assert quotient_combination(
                    diag, ((c, sol[j].vector) for j, c in r.items())) == rhs[i].vector
        lat_checked += 1
    assert int_checked == lat_checked == 500
    _report(8, "500 integer and 500 lattice-quotient systems: verdicts agree "
               "with enumeration, all returned points substitute exactly")
