"""Per-relation lattices L(R, S): the hull's integer point and the affine
solve in the variables alone, checked against the full systems."""

from __future__ import annotations

import random
from itertools import product

import pytest

from pcsp import corpus
from pcsp.linalg import (IntegerSolver, affine_hull_and_interior,
                         solve_lattice_quotient_system)
from pcsp.model import (Clause, Instance, PromiseTemplate, Relation,
                        _relation_lattice, barycentric_warm_point,
                        build_affine_lattice_system, build_affine_relaxation,
                        build_basic_lp, hull_integer_point,
                        plant_satisfiable_instance)
from pcsp.rings import LatticeIdeal

from oracles import quotient_combination
from test_jsonio import two_block_regper
from test_pipeline import parity_family, parity_template
from test_random_templates import random_instance
from update_golden import CASES


def _in_lattice(lat, m: list[int]) -> list[int] | None:
    """Values of the congruence columns that make every row vanish at m."""
    rows = [{k - lat.width: v for k, v in eq.items() if k >= lat.width}
            for eq in lat.equations]
    rhs = [-sum(v * m[k] for k, v in eq.items() if k < lat.width)
           for eq in lat.equations]
    return IntegerSolver(rows, lat.extra).solve(rhs)


def _combination(profiles, lam, width):
    return [sum(c * p.get(k, 0) for c, p in zip(lam, profiles))
            for k in range(width)]


@pytest.mark.parametrize("profiles,index", [
    # L = {(a, b) : b even}: the pivot 2 is a real congruence
    ([{0: 1, 1: 2}, {0: 1}], 2),
    # (2, 1), (3, 1) and (0, 1) span Z^2, though the Hermite form of their
    # transpose has the pivots 1 and 2
    ([{0: 2, 1: 1}, {0: 3, 1: 1}, {1: 1}], 1),
])
def test_pivot_above_one_keeps_membership_and_read_back_exact(profiles, index):
    width = 2
    lat = _relation_lattice(profiles, width)
    assert lat.extra > 0
    box = range(-4, 5)
    span = {tuple(_combination(profiles, lam, width))
            for lam in product(box, repeat=len(profiles))}
    for m in product(range(-3, 4), repeat=width):
        z = _in_lattice(lat, list(m))
        # L has index `index` in Z^2; small multipliers reach every small m
        assert (z is not None) == (m[1] % index == 0) == (m in span)
        if z is not None:
            lam = lat.multipliers(list(m) + z)
            assert _combination(profiles, lam, width) == list(m)


def test_unit_pivots_need_no_congruence_columns():
    # every corpus relation's lattice has unit pivots, except the mod-7 sums
    for name in corpus.names():
        tpl = corpus.entry(name).template
        for i, rel in enumerate(tpl.relations):
            lat = tpl.relation_lattice(i, tuple(sorted(rel.strong)))
            assert (lat.extra > 0) == (name == "mod7-sandwich")


def test_relation_lattice_is_kept_on_the_template():
    tpl = corpus.entry("twosat").template
    support = tuple(sorted(tpl.relations[0].strong))
    assert tpl.relation_lattice(0, support) is tpl.relation_lattice(0, support)
    assert (tpl.relation_lattice(0, support, values=True)
            is not tpl.relation_lattice(0, support))


# -- the hull's integer point: the lattice path against the full Hermite form --


def _hull_instances():
    """Every tier-1 corpus instance that reaches the hull, as
    (template, instance, family): the golden cases, and the solve tests'
    planted and rejected instances, the unary and parity clashes included."""
    out = []
    for name, n, m, seed in CASES.values():
        e = corpus.entry(name)
        inst, _ = plant_satisfiable_instance(e.template, n, m, random.Random(seed))
        out.append((e.template, inst, e.family))
    for name in corpus.names():
        e = corpus.entry(name)
        inst, _ = plant_satisfiable_instance(e.template, 6, 4, random.Random(3))
        out.append((e.template, inst, e.family))
    twosat = corpus.entry("twosat")
    neq = twosat.template.relation_index("neq")
    for n in (3, 4, 5):
        cyc = Instance(n, tuple(Clause(neq, (i, (i + 1) % n)) for i in range(n)))
        out.append((twosat.template, cyc, twosat.family))
    rels = (Relation("one", 1, frozenset({(1,)}), frozenset({(1,)})),
            Relation("zero", 1, frozenset({(0,)}), frozenset({(0,)})))
    out.append((PromiseTemplate((0, 1), (0, 1), {0: 0, 1: 1}, rels),
                Instance(1, (Clause(0, (0,)), Clause(1, (0,)))), twosat.family))
    tpl = parity_template()
    odd, even = tpl.relation_index("odd"), tpl.relation_index("even")
    for clauses in (((odd, (0, 1, 2)), (even, (0, 1, 2))),
                    ((odd, (4, 0, 1)), (odd, (3, 4, 1)), (even, (1, 0, 4)),
                     (odd, (3, 4, 2)))):
        n = 1 + max(v for _, vs in clauses for v in vs)
        out.append((tpl, Instance(n, tuple(Clause(r, vs) for r, vs in clauses)),
                    parity_family()))
    return [case for case in out if case[2].plan.radicands]


def test_hull_integer_point_agrees_with_the_full_hermite_form():
    statuses = set()
    for tpl, inst, family in _hull_instances():
        embedding = family.plan.lp_embedding
        system, layout = build_basic_lp(tpl, inst, embedding)
        warm = barycentric_warm_point(tpl, inst, layout, embedding)
        ints = system.integerized()
        hull = affine_hull_and_interior(ints, warm)
        if hull.status == "empty":
            statuses.add("empty")
            continue
        full = IntegerSolver(hull.eq_rows, ints.n_vars).solve(hull.eq_rhs)
        x0 = hull_integer_point(tpl, inst, layout, hull.eq_rows, hull.eq_rhs)
        assert (x0 is None) == (full is None)
        statuses.add("no integer point" if x0 is None else "ok")
        if x0 is not None:
            # the point solves every equality of the hull exactly
            for i, implicit in enumerate(hull.implicit):
                if implicit:
                    assert sum(c * x0[j] for j, c in ints.rows[i].items()) \
                        == ints.rhs[i]
    assert statuses == {"ok", "empty", "no integer point"}


# -- the affine solve in the variables alone against the full system ----------


QUOTIENTS = [LatticeIdeal([(2,)]), LatticeIdeal([(7,)]), LatticeIdeal([(4,)]),
             LatticeIdeal([(6,)]), two_block_regper().plan.lattice]


def _integer_template(rng: random.Random) -> PromiseTemplate:
    dom = tuple(range(rng.randint(2, 4)))
    rels = []
    for i in range(rng.randint(1, 2)):
        arity = rng.randint(2, 3)
        every = list(product(dom, repeat=arity))
        strong = frozenset(rng.sample(every, rng.randint(1, min(len(every), 5))))
        rels.append(Relation(f"r{i}", arity, strong, frozenset(every)))
    return PromiseTemplate(dom, dom, {d: d for d in dom}, tuple(rels))


@pytest.mark.parametrize("lattice", QUOTIENTS, ids=lambda lat: str(lat.diag))
def test_affine_lattice_solve_agrees_with_the_full_system(lattice):
    rng = random.Random(f"affine/{lattice.diag}")
    verdicts = []
    for _ in range(30):
        tpl = _integer_template(rng)
        inst = random_instance(rng, tpl, rng.randint(3, 6))
        full = build_affine_relaxation(tpl, inst, lattice)
        expected = solve_lattice_quotient_system(full.rows, full.rhs,
                                                 full.layout.width, lattice)
        eqs = build_affine_lattice_system(tpl, inst, lattice)
        sol = solve_lattice_quotient_system(eqs.rows, eqs.rhs, eqs.width, lattice)
        assert (sol is None) == (expected is None)
        verdicts.append(sol is not None)
        if sol is None:
            continue
        # the values and the read-back multipliers solve the full system
        point = sol[:inst.n_vars] + [mult[t] for mult in eqs.multipliers(sol)
                                     for t in sorted(mult)]
        for row, b in zip(full.rows, full.rhs):
            got = quotient_combination(lattice.diag,
                                       ((c, point[j].vector) for j, c in row.items()))
            assert got == b.vector
    assert True in verdicts and False in verdicts
