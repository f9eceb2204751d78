"""Tests for templates, instances, polymorphism checks, and relaxations."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from pcsp.linalg import affine_hull_and_interior, solve_lattice_quotient_system
from pcsp.model import (
    AffineSystem,
    BlockSymmetricFunction,
    Clause,
    Instance,
    PromiseTemplate,
    Relation,
    ResourceGuardError,
    barycentric_warm_point,
    build_affine_relaxation,
    build_basic_lp,
    check_polymorphism,
    plant_satisfiable_instance,
    verify_assignment,
)
from pcsp.rings import LatticeIdeal

from oracles import (check_polymorphism_naive, lp_feasible_rational,
                     quotient_combination)


def bool_rel(name, strong, weak=None):
    strong = frozenset(strong)
    weak = frozenset(weak) if weak is not None else strong
    return Relation(name, len(next(iter(strong))), strong, weak)


def ident_template(relations):
    dom = (0, 1)
    return PromiseTemplate(dom, dom, {0: 0, 1: 1}, tuple(relations))


TWO_SAT = ident_template([
    bool_rel("or2", [(0, 1), (1, 0), (1, 1)]),
    bool_rel("neq", [(0, 1), (1, 0)]),
])

ONE_IN_THREE = ident_template([
    bool_rel("1in3", [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
])

AFFINE_F2 = ident_template([
    bool_rel("xor0", [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]),
])


def majority3():
    table = {((3, 0),): 0, ((2, 1),): 0, ((1, 2),): 1, ((0, 3),): 1}
    return BlockSymmetricFunction((0, 1), (0, 1), (3,), table, "maj3")


def parity3():
    table = {((3 - w, w),): w % 2 for w in range(4)}
    return BlockSymmetricFunction((0, 1), (0, 1), (3,), table, "par3")


# ---------------------------------------------------------------------------
# templates and instances
# ---------------------------------------------------------------------------


def test_template_rejects_phi_violation():
    with pytest.raises(ValueError):
        PromiseTemplate((0, 1), (0, 1), {0: 0, 1: 1}, (
            Relation("bad", 2, frozenset({(0, 0), (1, 1)}), frozenset({(0, 0)})),
        ))


def test_template_rejects_off_domain_tuples():
    with pytest.raises(ValueError):
        ident_template([bool_rel("bad", [(0, 2)])])


@pytest.mark.parametrize("domain, codomain, names", [
    ((0, 0, 1), (0, 1), ("r", "s")),
    ((0, 1), (0, 1, 1), ("r", "s")),
    ((0, 1), (0, 1), ("r", "r")),
], ids=["strong-value", "weak-value", "relation-name"])
def test_template_rejects_repeats(domain, codomain, names):
    # a repeated value is counted twice by the LP layout's slots, and
    # clauses naming a repeated relation all bind to its first copy
    rels = tuple(bool_rel(n, [(0, 1), (1, 0)]) for n in names)
    with pytest.raises(ValueError, match="repeated"):
        PromiseTemplate(domain, codomain, {0: 0, 1: 1}, rels)


def test_relation_rejects_arity_mismatch():
    with pytest.raises(ValueError):
        Relation("bad", 2, frozenset({(0, 1, 0)}), frozenset({(0, 1, 0)}))


def test_verify_assignment_reports_first_violation():
    inst = Instance(3, (
        Clause(1, (0, 1)),       # neq
        Clause(1, (1, 2)),
        Clause(0, (0, 2)),       # or2
    ))
    assert verify_assignment(TWO_SAT, inst, [0, 1, 0]) == 2
    assert verify_assignment(TWO_SAT, inst, [1, 0, 1], side="weak") is None
    assert verify_assignment(TWO_SAT, inst, [1, 1, 0]) == 0


def test_instance_range_check():
    with pytest.raises(ValueError):
        Instance(2, (Clause(0, (0, 2)),))


def test_planting_produces_satisfiable_instances():
    rng = random.Random(7)
    for _ in range(25):
        inst, hidden = plant_satisfiable_instance(TWO_SAT, 8, 12, rng)
        assert inst.n_vars == 8 and len(inst.clauses) == 12
        assert verify_assignment(TWO_SAT, inst, hidden, side="strong") is None
        for cl in inst.clauses:
            assert len(set(cl.variables)) == len(cl.variables)


def test_planting_three_valued_domain():
    dom = (1, 2, 3)
    perms = frozenset({(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1),
                       (3, 1, 2), (3, 2, 1)})
    tpl = PromiseTemplate(dom, dom, {d: d for d in dom},
                          (Relation("perm", 3, perms, perms),))
    rng = random.Random(11)
    inst, hidden = plant_satisfiable_instance(tpl, 9, 10, rng)
    assert verify_assignment(tpl, inst, hidden, side="strong") is None


# ---------------------------------------------------------------------------
# block-symmetric functions
# ---------------------------------------------------------------------------


def test_apply_column_is_block_invariant():
    rng = random.Random(3)
    # two blocks of sizes 2 and 3 over a three-value domain
    dom = (0, 1, 2)
    keys = []
    for h1 in _hists(2, 3):
        for h2 in _hists(3, 3):
            keys.append((h1, h2))
    table = {k: rng.choice((0, 1)) for k in keys}
    f = BlockSymmetricFunction(dom, (0, 1), (2, 3), table)
    for _ in range(200):
        col = [rng.choice(dom) for _ in range(5)]
        base = f.apply_column(col)
        a = col[:2]
        b = col[2:]
        rng.shuffle(a)
        rng.shuffle(b)
        assert f.apply_column(a + b) == base


def _hists(size, dsz):
    if dsz == 1:
        return [(size,)]
    out = []
    for first in range(size + 1):
        for rest in _hists(size - first, dsz - 1):
            out.append((first,) + rest)
    return out


def test_majority_is_a_two_sat_polymorphism():
    rep = check_polymorphism(majority3(), TWO_SAT)
    assert rep.ok
    rep_naive = check_polymorphism_naive(majority3(), TWO_SAT)
    assert rep_naive.ok


def test_majority_fails_one_in_three():
    rep = check_polymorphism(majority3(), ONE_IN_THREE)
    assert not rep.ok
    rel = ONE_IN_THREE.relations[0]
    for row in rep.witness_rows:
        assert row in rel.strong
    assert majority3().apply_rows(rep.witness_rows) == rep.bad_output
    assert rep.bad_output not in rel.weak


def test_parity_preserves_affine_relations():
    assert check_polymorphism(parity3(), AFFINE_F2).ok
    assert not check_polymorphism(majority3(), AFFINE_F2).ok


def test_dp_matches_naive_on_random_functions():
    rng = random.Random(41)
    dom = (0, 1)
    for trial in range(60):
        arity = rng.choice((2, 3))
        tuples = set()
        while len(tuples) < rng.randint(2, 5):
            tuples.add(tuple(rng.choice(dom) for _ in range(arity)))
        weak = set(tuples)
        # randomly grow or shrink the weak side while keeping phi images
        for t in list(product(dom, repeat=arity)):
            if rng.random() < 0.3:
                weak.add(t)
        tpl = ident_template([bool_rel("r", tuples, weak)])
        sizes = rng.choice(((3,), (2, 1), (2, 2), (1, 1, 1)))
        keys = [()]
        for s in sizes:
            keys = [k + (h,) for k in keys for h in _hists(s, 2)]
        table = {k: rng.choice(dom) for k in keys}
        f = BlockSymmetricFunction(dom, dom, sizes, table)
        got = check_polymorphism(f, tpl)
        want = check_polymorphism_naive(f, tpl)
        assert got.ok == want.ok, f"trial {trial}"
        if not got.ok:
            assert got.bad_output not in tpl.relations[0].weak
            assert f.apply_rows(got.witness_rows) == got.bad_output


def test_three_valued_dp_matches_naive():
    rng = random.Random(5)
    dom = (0, 1, 2)
    for _ in range(25):
        tuples = set()
        while len(tuples) < 4:
            tuples.add(tuple(rng.choice(dom) for _ in range(2)))
        weak = set(tuples)
        for t in product(dom, repeat=2):
            if rng.random() < 0.4:
                weak.add(t)
        tpl = PromiseTemplate(dom, dom, {d: d for d in dom},
                              (Relation("r", 2, frozenset(tuples), frozenset(weak)),))
        table = {(h,): rng.choice(dom) for h in _hists(3, 3)}
        f = BlockSymmetricFunction(dom, dom, (3,), table)
        got = check_polymorphism(f, tpl)
        want = check_polymorphism_naive(f, tpl)
        assert got.ok == want.ok


def test_resource_guard_trips():
    f = majority3()
    big = BlockSymmetricFunction((0, 1), (0, 1), (3, 3, 3),
                                 {k: 0 for k in
                                  [(a, b, c) for a in _hists(3, 2)
                                   for b in _hists(3, 2) for c in _hists(3, 2)]})
    with pytest.raises(ResourceGuardError):
        check_polymorphism(big, TWO_SAT, max_products=4)
    with pytest.raises(ResourceGuardError):
        check_polymorphism_naive(f, TWO_SAT, max_products=2)


# ---------------------------------------------------------------------------
# basic LP relaxation
# ---------------------------------------------------------------------------


EMB01 = {0: (Fraction(0),), 1: (Fraction(1),)}


def test_basic_lp_accepts_planted_indicator_point():
    rng = random.Random(13)
    inst, hidden = plant_satisfiable_instance(TWO_SAT, 6, 9, rng)
    sys, layout = build_basic_lp(TWO_SAT, inst, EMB01)
    pt = [Fraction(0)] * layout.width
    for x in range(inst.n_vars):
        pt[layout.mu_index(x, hidden[x])] = Fraction(1)
        pt[layout.v_index(x, 0)] = Fraction(hidden[x])
    for j, cl in enumerate(inst.clauses):
        t = tuple(hidden[v] for v in cl.variables)
        pt[layout.lam_index(j, t)] = Fraction(1)
    assert sys.check_point(pt)


def test_basic_lp_rejects_unary_contradiction():
    tpl = ident_template([
        bool_rel("is0", [(0,)]),
        bool_rel("is1", [(1,)]),
    ])
    inst = Instance(1, (Clause(0, (0,)), Clause(1, (0,))))
    sys, _ = build_basic_lp(tpl, inst, EMB01)
    assert not lp_feasible_rational(sys)


def test_basic_lp_odd_neq_cycle_is_lp_feasible():
    # the relaxation does not refute odd inequality cycles
    inst = Instance(3, (Clause(1, (0, 1)), Clause(1, (1, 2)), Clause(1, (2, 0))))
    sys, _ = build_basic_lp(TWO_SAT, inst, EMB01)
    assert lp_feasible_rational(sys)


def test_barycentric_point_is_feasible_for_symmetric_templates():
    rng = random.Random(29)
    inst, _ = plant_satisfiable_instance(ONE_IN_THREE, 7, 8, rng)
    sys, layout = build_basic_lp(ONE_IN_THREE, inst, EMB01)
    pt = barycentric_warm_point(ONE_IN_THREE, inst, layout, EMB01)
    assert sys.check_point(pt)
    hull = affine_hull_and_interior(sys, warm_point=pt)
    assert hull.status == "ok"
    assert hull.lp_calls == 0


def test_barycentric_point_values():
    inst = Instance(3, (Clause(0, (0, 1, 2)),))
    sys, layout = build_basic_lp(ONE_IN_THREE, inst, EMB01)
    pt = barycentric_warm_point(ONE_IN_THREE, inst, layout, EMB01)
    for x in range(3):
        assert pt[layout.mu_index(x, 1)] == Fraction(1, 3)
        assert pt[layout.v_index(x, 0)] == Fraction(1, 3)
    assert sys.check_point(pt)


def test_basic_lp_isolated_variable_gets_normalised():
    inst = Instance(4, (Clause(0, (0, 1, 2)),))  # variable 3 appears nowhere
    sys, layout = build_basic_lp(ONE_IN_THREE, inst, EMB01)
    pt = barycentric_warm_point(ONE_IN_THREE, inst, layout, EMB01)
    assert pt[layout.mu_index(3, 0)] == Fraction(1, 2)
    assert sys.check_point(pt)


def test_basic_lp_multi_coordinate_embedding():
    emb = {0: (Fraction(0), Fraction(1)), 1: (Fraction(1), Fraction(1, 3))}
    rng = random.Random(17)
    inst, hidden = plant_satisfiable_instance(ONE_IN_THREE, 6, 5, rng)
    sys, layout = build_basic_lp(ONE_IN_THREE, inst, emb)
    pt = barycentric_warm_point(ONE_IN_THREE, inst, layout, emb)
    assert sys.check_point(pt)
    # planted indicator point also lands on the polytope
    ind = [Fraction(0)] * layout.width
    for x in range(inst.n_vars):
        ind[layout.mu_index(x, hidden[x])] = Fraction(1)
        for c in range(2):
            ind[layout.v_index(x, c)] = emb[hidden[x]][c]
    for j, cl in enumerate(inst.clauses):
        t = tuple(hidden[v] for v in cl.variables)
        ind[layout.lam_index(j, t)] = Fraction(1)
    assert sys.check_point(ind)


# ---------------------------------------------------------------------------
# affine relaxation
# ---------------------------------------------------------------------------


def solve_affine(aff: AffineSystem):
    return solve_lattice_quotient_system(
        aff.rows, aff.rhs, aff.layout.width, aff.layout.lattice)


def test_affine_relaxation_of_planted_mod_m():
    # sum of three values equal to 1 mod 7
    mod7 = LatticeIdeal([(7,)])
    dom = tuple(range(7))
    rel = frozenset(t for t in product(dom, repeat=3) if sum(t) % 7 == 1)
    tpl = PromiseTemplate(dom, dom, {d: d for d in dom},
                          (Relation("sum1", 3, rel, rel),))
    rng = random.Random(23)
    inst, hidden = plant_satisfiable_instance(tpl, 6, 4, rng)
    aff = build_affine_relaxation(tpl, inst, mod7)
    sol = solve_affine(aff)
    assert sol is not None
    # solution w-values satisfy every clause equation mod 7
    for cl in inst.clauses:
        total = sum(sol[v].vector[0] for v in cl.variables) % 7
        assert total == 1


def test_affine_relaxation_detects_contradiction():
    mod2 = LatticeIdeal([(2,)])
    tpl = ident_template([
        bool_rel("eq", [(0, 0), (1, 1)]),
        bool_rel("neq", [(0, 1), (1, 0)]),
    ])
    inst = Instance(2, (Clause(0, (0, 1)), Clause(1, (0, 1))))
    aff = build_affine_relaxation(tpl, inst, mod2)
    assert solve_affine(aff) is None


def test_lattice_solver_tuple_coefficients():
    lat = LatticeIdeal([(4, 0), (0, 6)])
    rng = random.Random(31)
    for _ in range(50):
        n = 3
        xs = [lat.element((rng.randrange(8), rng.randrange(9))) for _ in range(n)]
        rows = []
        rhs = []
        for _ in range(4):
            row = {}
            for j in range(n):
                if rng.random() < 0.7:
                    row[j] = (rng.randrange(-2, 3), rng.randrange(-2, 3))
            rows.append(row)
            rhs.append(lat.element(quotient_combination(
                lat.diag, ((c, xs[j].vector) for j, c in row.items()))))
        sol = solve_lattice_quotient_system(rows, rhs, n, lat)
        assert sol is not None
        for row, want in zip(rows, rhs):
            assert quotient_combination(
                lat.diag, ((c, sol[j].vector) for j, c in row.items())) == want.vector
