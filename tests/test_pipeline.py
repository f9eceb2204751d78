"""Relax-and-round pipeline tests: solving, rejection, and weight replay."""

from __future__ import annotations

import copy
import gc
import hashlib
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

import pcsp.pipeline as pipeline
from pcsp.corpus import entry
from pcsp.families import (
    Cell,
    PartitionSpec,
    PeriodicFamily,
    RegionFamily,
    RegionPeriodicFamily,
    ThresholdFamily,
)
from pcsp.lp import rational_core, ring_feasible_point
from pcsp.model import (
    Clause,
    Instance,
    PromiseTemplate,
    Relation,
    barycentric_warm_point,
    build_basic_lp,
    check_polymorphism,
    plant_satisfiable_instance,
    verify_assignment,
)
from pcsp.pipeline import (
    REJECT_AFFINE,
    REJECT_EMPTY_LP,
    REJECT_NO_RING_POINT,
    OracleMismatchError,
    _cached_valid_member,
    construct_weights,
    solve,
    weighted_apply_oracle,
)
from pcsp.rings import LatticeIdeal, QuadElem, QuadRing

from oracles import quotient_combination
from test_jsonio import two_block_regper


@lru_cache(maxsize=None)
def solved(name: str, seed: int = 3, n_vars: int = 6, n_clauses: int = 4):
    e = entry(name)
    rng = random.Random(seed)
    inst, _ = plant_satisfiable_instance(e.template, n_vars, n_clauses, rng)
    res = solve(e.template, inst, e.family)
    return e, inst, res


CORPUS_NAMES = ("twosat", "two-plus-eps-sat", "threshold-conds", "didactic",
                "mod7-sandwich", "one-in-three-malt", "rainbow")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_solve_accepts_planted_instances(name):
    e, inst, res = solved(name)
    assert res.accepted, res.reason
    assert verify_assignment(e.template, inst, res.assignment, side="weak") is None
    assert all(v in e.template.codomain for v in res.assignment)


def test_solve_is_deterministic():
    e, inst, first = solved("didactic")
    again = solve(e.template, inst, e.family)
    assert again.accepted
    assert again.assignment == first.assignment


def test_odd_disequality_cycle_rejected():
    e = entry("twosat")
    neq = e.template.relation_index("neq")
    for n in (3, 5):
        cyc = Instance(n, tuple(Clause(neq, (i, (i + 1) % n))
                                for i in range(n)))
        res = solve(e.template, cyc, e.family)
        assert not res.accepted
        assert res.reason == REJECT_NO_RING_POINT


def test_even_disequality_cycle_accepted():
    e = entry("twosat")
    neq = e.template.relation_index("neq")
    cyc = Instance(4, tuple(Clause(neq, (i, (i + 1) % 4)) for i in range(4)))
    res = solve(e.template, cyc, e.family)
    assert res.accepted
    assert verify_assignment(e.template, cyc, res.assignment) is None


def test_unary_clash_rejected():
    dom = (0, 1)
    rels = (Relation("one", 1, frozenset({(1,)}), frozenset({(1,)})),
            Relation("zero", 1, frozenset({(0,)}), frozenset({(0,)})))
    tpl = PromiseTemplate(dom, dom, {0: 0, 1: 1}, rels)
    bad = Instance(1, (Clause(0, (0,)), Clause(1, (0,))))
    res = solve(tpl, bad, entry("twosat").family)
    assert not res.accepted
    assert res.reason == REJECT_EMPTY_LP


def _sum_mod7_relation(name, target):
    dom = tuple(range(7))
    strong = frozenset(t for t in product(dom, repeat=3)
                       if sum(t) % 7 == target)
    phi = {d: 1 if d == 1 else 0 for d in dom}
    weak = frozenset(tuple(phi[v] for v in t) for t in strong)
    return Relation(name, 3, strong, weak)


def test_affine_clash_rejected():
    m = entry("mod7-sandwich")
    rels = (_sum_mod7_relation("sum1", 1), _sum_mod7_relation("sum2", 2))
    tpl = PromiseTemplate(m.template.domain, (0, 1), m.template.phi, rels)
    both = Instance(3, (Clause(0, (0, 1, 2)), Clause(1, (0, 1, 2))))
    res = solve(tpl, both, m.family)
    assert not res.accepted
    assert res.reason == REJECT_AFFINE


def test_family_domain_mismatch_raises():
    e = entry("twosat")
    with pytest.raises(ValueError, match="domain"):
        solve(e.template, Instance(2, ()), entry("rainbow").family)


def test_family_outputs_off_the_weak_domain_raise(monkeypatch):
    # fam-gL outputs 0..3 on a template whose weak domain is {0, 1}: refused
    # before any relaxation is built
    def refuse(*args):
        raise AssertionError("relaxation built")

    monkeypatch.setattr(pipeline, "build_basic_lp", refuse)
    monkeypatch.setattr(pipeline, "build_affine_relaxation", refuse)
    e = entry("twosat")
    with pytest.raises(ValueError, match="weak domain"):
        solve(e.template, Instance(2, ()), entry("didactic").family)


def test_lp_transcript_ties_multipliers_to_values():
    e, inst, res = solved("twosat")
    lp = res.lp[0]
    for j, cl in enumerate(inst.clauses):
        lam = lp.clause_multipliers(j)
        total = sum(lam.values())
        assert total == 1
        for t, v in lam.items():
            assert v >= 0
        # the marginal rows tie weighted tuple columns to variable values
        for pos, x in enumerate(cl.variables):
            col = sum(v * t[pos] for t, v in lam.items())
            assert col == lp.values(x)[0]


def test_affine_transcript_multipliers_sum_to_one():
    e, inst, res = solved("mod7-sandwich")
    diag = res.affine.solution[0].lattice.diag
    for j, cl in enumerate(inst.clauses):
        r = res.affine.clause_multipliers(j)
        assert quotient_combination(diag, ((1, v.vector) for v in r.values())) == (1,)
        # position sums reproduce the variable residues
        for pos, x in enumerate(cl.variables):
            col = quotient_combination(diag, ((t[pos], v.vector) for t, v in r.items()))
            assert col == res.affine.variable_value(x).vector


def test_construct_weights_small_case_frozen():
    alphas = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    ws = construct_weights(alphas, (1, 0, 0), 31, 3)
    assert ws == [16, 9, 6]


def test_construct_weights_conditions_random():
    rng = random.Random(20240817)
    for _ in range(60):
        m = rng.randint(2, 5)
        modulus = rng.randint(1, 4)
        raw = [rng.randint(1, 9) for _ in range(m)]
        alphas = [Fraction(r, sum(raw)) for r in raw]
        # affine multipliers always sum to one in the quotient
        residues = [rng.randrange(modulus) for _ in range(m - 1)]
        residues.append((1 - sum(residues)) % modulus)
        L = modulus * m * rng.randint(10, 14) + rng.randrange(3)
        ws = construct_weights(alphas, residues, L, modulus)
        assert sum(ws) == L
        assert all(w >= 0 for w in ws)
        for w, r, a in zip(ws, residues, alphas):
            assert (w - r * L) % modulus == 0
            assert abs(w - a * L) <= 2 * modulus


def test_construct_weights_quadratic_alphas():
    alphas = (QuadElem(-1, 1, 2), QuadElem(2, -1, 2))    # sqrt2-1, 2-sqrt2
    ws = construct_weights(alphas, (1, 0), 41, 2)
    assert sum(ws) == 41
    assert ws[0] % 2 == (1 * 41) % 2
    assert ws[1] % 2 == 0
    for w, a in zip(ws, alphas):
        assert a * 41 >= w - 4
        assert a * 41 <= w + 4


def test_construct_weights_input_errors():
    alphas = (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError, match="guard"):
        construct_weights(alphas, (0, 0), 3, 2)
    with pytest.raises(ValueError, match="mismatch"):
        construct_weights(alphas, (0,), 40, 2)
    with pytest.raises(ValueError, match="negative"):
        construct_weights((Fraction(3, 2), Fraction(-1, 2)), (0, 0), 40, 2)
    with pytest.raises(ValueError, match="sum to one"):
        construct_weights(alphas, (0, 0), 41, 2)


@pytest.mark.parametrize("name", ["one-in-three-malt", "rainbow"])
def test_region_and_simplex_solve_no_affine_relaxation(name, monkeypatch):
    # purely regional rules are rounded from the LP alone
    def refuse(*args):
        raise AssertionError("affine relaxation solved")

    monkeypatch.setattr(pipeline, "solve_lattice_quotient_system", refuse)
    e = entry(name)
    inst, _ = plant_satisfiable_instance(e.template, 6, 4, random.Random(3))
    res = solve(e.template, inst, e.family)
    assert res.accepted, res.reason
    assert res.affine is None


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_weighted_oracle_agrees_with_rounding(name):
    e, inst, res = solved(name)
    for j, cl in enumerate(inst.clauses):
        out, L = weighted_apply_oracle(e.template, inst, e.family, res, j)
        assert out == tuple(res.assignment[x] for x in cl.variables)
        assert e.family.is_valid_arity(L)


def test_member_memo_dies_with_its_family():
    # each family is dropped before the next is made, so new families often
    # reuse a dead one's address; a memo keyed by id() then hands back the
    # dead family's member
    for i in range(200):
        fam = ThresholdFamily((Fraction(1, 2),), (i % 2, 1 - i % 2), name=f"t{i}")
        L, member = _cached_valid_member(fam, 3)
        assert member.name == f"t{i}[{L}]"
        assert member.table[((0, L),)] == 1 - i % 2
        del fam, member
        gc.collect()


def test_plan_is_built_once_per_family():
    # solve and every oracle replay ask for the plan; a periodic plan holds
    # an HNF-built lattice
    fam = PeriodicFamily(7, 1, tuple(1 if w == 1 else 0 for w in range(7)))
    plan = fam.plan
    assert plan is fam.plan
    assert plan.lattice == LatticeIdeal([(7,)])


def test_unhinted_member_scan_builds_each_table_once(monkeypatch):
    # without an arity hint the scan learns validity by building the table,
    # and must hand that build on instead of building it again
    built = Counter()
    entry = RegionFamily._entry

    def counted(self, sizes, key):
        built[sizes, key] += 1
        return entry(self, sizes, key)

    monkeypatch.setattr(RegionFamily, "_entry", counted)
    x_lt_y = ((Fraction(1), (0, 1)), (Fraction(-1), (1, 0)))
    x_gt_y = ((Fraction(1), (1, 0)), (Fraction(-1), (0, 1)))
    spec = PartitionSpec(2, (Cell(0, (x_lt_y,)), Cell(1, (x_gt_y,))),
                         {(0, 0): 0, (1, 1): 1, (0, 1): 0, (1, 0): 1})
    fam = RegionFamily(spec, (2, 3), name="malt")
    L, member = _cached_valid_member(fam, 4)     # 4 = (2, 2) hits x = y
    assert L == 5
    assert len(member.table) == 4 * 3
    assert max(built.values()) == 1


def test_weighted_oracle_needs_accepted_result():
    e = entry("twosat")
    neq = e.template.relation_index("neq")
    cyc = Instance(3, tuple(Clause(neq, (i, (i + 1) % 3)) for i in range(3)))
    res = solve(e.template, cyc, e.family)
    with pytest.raises(ValueError, match="rejected"):
        weighted_apply_oracle(e.template, cyc, e.family, res, 0)


def test_weighted_oracle_flags_corrupted_assignment(monkeypatch):
    e, inst, res = solved("mod7-sandwich")
    broken = solve(e.template, inst, e.family)
    x = inst.clauses[0].variables[0]
    broken.assignment[x] = 1 - broken.assignment[x]
    monkeypatch.setattr(pipeline, "_MAX_ESCALATIONS", 1)
    with pytest.raises(OracleMismatchError):
        weighted_apply_oracle(e.template, inst, e.family, broken, 0)


# a mod-3 family valid at L = 2 (mod 3): a member sees column sums 2x for an
# affine value x, so clauses whose strong values sum to 1 round to weak
# values summing to 2

def mod3_template() -> PromiseTemplate:
    dom = (0, 1, 2)
    strong = frozenset(t for t in product(dom, repeat=3) if sum(t) % 3 == 1)
    weak = frozenset(t for t in product(dom, repeat=3) if sum(t) % 3 == 2)
    return PromiseTemplate(dom, dom, {0: 0, 1: 2, 2: 1},
                           (Relation("sum1", 3, strong, weak),))


def test_periodic_rounding_applies_the_residue():
    tpl = mod3_template()
    fam = PeriodicFamily(3, 2, (0, 1, 2), domain=(0, 1, 2))
    assert all(check_polymorphism(fam.member(L), tpl).ok for L in (2, 5, 8))
    inst, _ = plant_satisfiable_instance(tpl, 8, 6, random.Random(1))
    res = solve(tpl, inst, fam)
    assert res.accepted
    assert verify_assignment(tpl, inst, res.assignment) is None
    for j, cl in enumerate(inst.clauses):
        out, _ = weighted_apply_oracle(tpl, inst, fam, res, j)
        assert out == tuple(res.assignment[x] for x in cl.variables)


def joint_residue_case(weak_filter):
    """A region-periodic family on the malt partition, planted 1-in-3 (8,6)
    with seed 2, and Q the tuples over the outputs that pass weak_filter."""
    malt = entry("one-in-three-malt").family
    lat0 = LatticeIdeal([(2, 0), (0, 2)])
    eta0 = {(0, 0): "a", (0, 1): "b", (1, 0): "c", (1, 1): "d"}
    lat1 = LatticeIdeal([(1, 0), (0, 1)])
    fam = RegionPeriodicFamily(malt.partition, malt.radicands,
                               {0: (lat0, eta0), 1: (lat1, {(0, 0): "e"})},
                               arity_hint=malt.arity_hint)
    outs = fam.outputs()
    strong = frozenset({(1, 0, 0), (0, 1, 0), (0, 0, 1)})
    weak = frozenset(filter(weak_filter, product(outs, repeat=3)))
    tpl = PromiseTemplate((0, 1), outs, {0: "a", 1: "e"},
                          (Relation("1in3", 3, strong, weak),))
    inst, _ = plant_satisfiable_instance(tpl, 8, 6, random.Random(2))
    return tpl, inst, fam


def test_solve_refuses_an_assignment_off_the_weak_side():
    # region-periodic rounding reduces one joint residue vector, while a
    # member sees each block's own weighted sum: here clause 0 rounds to
    # ("d", "e", "e") where the member outputs ("b", "e", "e").  The weak
    # side has no "d", so solve must raise rather than accept.
    tpl, inst, fam = joint_residue_case(lambda t: "d" not in t)
    with pytest.raises(pipeline.RoundingCheckError, match="clause 0"):
        solve(tpl, inst, fam)


@pytest.mark.xfail(strict=True, raises=OracleMismatchError,
                   reason="region-periodic rounding reduces one joint residue "
                          "vector; a member sees each block's own sum")
def test_joint_residue_accept_replays_through_its_members():
    # the same family with Q every tuple: the weak-side check cannot catch
    # the joint residue, so solve accepts, and the replay of every clause
    # differs from the rounded values
    tpl, inst, fam = joint_residue_case(lambda t: True)
    res = solve(tpl, inst, fam)
    assert res.accepted
    for j, cl in enumerate(inst.clauses):
        out, _ = weighted_apply_oracle(tpl, inst, fam, res, j)
        assert out == tuple(res.assignment[v] for v in cl.variables)


REGPER_DIGEST = ("65c31981ae5e0d1b21de999cc13453894690343b"
                 "815ad1643b3cbe0a32d07c22")


def test_two_block_regper_outputs_are_pinned():
    # no golden case solves a region-periodic family: one digest over the
    # verdicts, assignments, ring points and affine solutions of the
    # two-block family on planted 1-in-3 (8,6), with Q every tuple
    fam = two_block_regper()
    outs = fam.outputs()
    strong = frozenset({(1, 0, 0), (0, 1, 0), (0, 0, 1)})
    tpl = PromiseTemplate((0, 1), outs, {0: "a", 1: "e"},
                          (Relation("1in3", 3, strong,
                                    frozenset(product(outs, repeat=3))),))
    h = hashlib.sha256()
    for seed in range(1, 6):
        inst, _ = plant_satisfiable_instance(tpl, 8, 6, random.Random(seed))
        res = solve(tpl, inst, fam)
        h.update(repr((res.accepted, res.reason, res.assignment)).encode())
        for lp in res.lp:
            h.update(repr([(c.a, c.b, c.q) for c in lp.point]).encode())
        if res.affine is not None:
            h.update(repr([v.vector for v in res.affine.solution]).encode())
    assert h.hexdigest() == REGPER_DIGEST


# a one-dimensional region-periodic family: single open cell, parity output

def parity_family() -> RegionPeriodicFamily:
    above = ((Fraction(1), (1,)),)
    below = ((Fraction(1), (0,)), (Fraction(-1), (1,)))
    spec = PartitionSpec(1, (Cell("all", (above, below)),),
                         {(0,): "all", (1,): "all"})
    cell_data = {"all": (LatticeIdeal([(2,)]), {(0,): 0, (1,): 1})}
    return RegionPeriodicFamily(spec, (2,), cell_data, name="parity",
                                arity_hint=lambda L: L % 2 == 1)


def parity_template() -> PromiseTemplate:
    dom = (0, 1)
    odd = frozenset(t for t in product(dom, repeat=3) if sum(t) % 2 == 1)
    even = frozenset(t for t in product(dom, repeat=3) if sum(t) % 2 == 0)
    rels = (Relation("odd", 3, odd, odd), Relation("even", 3, even, even))
    return PromiseTemplate(dom, dom, {0: 0, 1: 1}, rels)


def test_region_periodic_members_are_parity_polymorphisms():
    fam = parity_family()
    tpl = parity_template()
    for L in (1, 3, 5):
        assert check_polymorphism(fam.member(L), tpl).ok
    assert not fam.is_valid_arity(4)


def test_region_periodic_solve_and_oracle():
    fam = parity_family()
    tpl = parity_template()
    rng = random.Random(9)
    inst, _ = plant_satisfiable_instance(tpl, 6, 5, rng)
    res = solve(tpl, inst, fam)
    assert res.accepted, res.reason
    assert verify_assignment(tpl, inst, res.assignment) is None
    for j, cl in enumerate(inst.clauses):
        out, L = weighted_apply_oracle(tpl, inst, fam, res, j)
        assert out == tuple(res.assignment[x] for x in cl.variables)
        assert L % 2 == 1


def test_region_periodic_direct_clash_refuted_on_hull():
    # opposite parities on one triple pin the relaxation to values with no
    # ring representative, so the linear phase already refutes
    fam = parity_family()
    tpl = parity_template()
    odd = tpl.relation_index("odd")
    even = tpl.relation_index("even")
    both = Instance(3, (Clause(odd, (0, 1, 2)), Clause(even, (0, 1, 2))))
    res = solve(tpl, both, fam)
    assert not res.accepted
    assert res.reason == REJECT_NO_RING_POINT


def test_region_periodic_spread_clash_rejected():
    # a contradiction spread over five variables still pins hull values to
    # half-integers, so mod-2 clashes never survive to the residue phase
    fam = parity_family()
    tpl = parity_template()
    odd = tpl.relation_index("odd")
    even = tpl.relation_index("even")
    inst = Instance(5, (Clause(odd, (4, 0, 1)), Clause(odd, (3, 4, 1)),
                        Clause(even, (1, 0, 4)), Clause(odd, (3, 4, 2))))
    res = solve(tpl, inst, fam)
    assert not res.accepted
    assert res.reason == REJECT_NO_RING_POINT


# -- one rational core per instance, one lift per radicand ---------------------


def _fresh_basic_lp(tpl, inst, fam):
    embedding = fam.plan.lp_embedding
    system, layout = build_basic_lp(tpl, inst, embedding)
    return system, barycentric_warm_point(tpl, inst, layout, embedding)


@pytest.mark.parametrize("n_vars,n_clauses,seed",
                         [(12, 10, 1), (12, 10, 2), (25, 30, 1), (25, 30, 2)])
def test_shared_core_points_match_one_shot_lifts(n_vars, n_clauses, seed):
    e = entry("one-in-three-malt")
    inst, _ = plant_satisfiable_instance(e.template, n_vars, n_clauses,
                                         random.Random(seed))
    res = solve(e.template, inst, e.family)
    assert res.accepted
    assert len(res.lp) == len(e.family.radicands) == 2
    for lp, q in zip(res.lp, e.family.radicands):
        system, warm = _fresh_basic_lp(e.template, inst, e.family)
        one_shot = ring_feasible_point(system, QuadRing(q), warm_point=warm)
        assert [(c.a, c.b, c.q) for c in lp.point] == \
            [(c.a, c.b, c.q) for c in one_shot.point]


def test_two_radicand_reject_is_decided_once(monkeypatch):
    # an odd disequality cycle pins every hull point to 1/2, so no radicand
    # has a ring point; the one core says so and the first lift reports it
    malt = entry("one-in-three-malt").family
    tpl = entry("twosat").template
    neq = tpl.relation_index("neq")
    cyc = Instance(3, tuple(Clause(neq, (i, (i + 1) % 3)) for i in range(3)))
    calls = Counter()

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("rational_core", "ring_feasible_point", "build_basic_lp"):
        monkeypatch.setattr(pipeline, name, counting(getattr(pipeline, name)))
    res = solve(tpl, cyc, malt)
    assert not res.accepted
    assert res.reason == REJECT_NO_RING_POINT
    assert calls == {"rational_core": 1, "ring_feasible_point": 1,
                     "build_basic_lp": 1}


def test_lifting_a_core_into_two_rings_leaves_it_unchanged():
    e = entry("one-in-three-malt")
    inst, _ = plant_satisfiable_instance(e.template, 12, 10, random.Random(1))
    system, warm = _fresh_basic_lp(e.template, inst, e.family)
    core = rational_core(system, warm)
    before = copy.deepcopy(core)
    points = [ring_feasible_point(system, QuadRing(q), core=core).point
              for q in e.family.radicands]
    assert core == before
    assert [c.q for c in points[0]] != [c.q for c in points[1]]
    for point in points:
        assert system.check_point(point)


def test_cold_relaxation_hull_takes_at_most_two_lps():
    # the barycentric warm point of twosat (6,4), seed 1, is infeasible:
    # phase I, then one LP classifies every unpaired row
    e = entry("twosat")
    inst, _ = plant_satisfiable_instance(e.template, 6, 4, random.Random(1))
    system, warm = _fresh_basic_lp(e.template, inst, e.family)
    core = rational_core(system, warm)
    assert core.status == "ok"
    assert core.lp_calls <= 2


@pytest.mark.parametrize("name,n_vars,n_clauses,seed,bits",
                         [("one-in-three-malt", 12, 10, 1, 11),
                          ("one-in-three-malt", 12, 10, 2, 13),
                          ("twosat", 6, 4, 1, 7),
                          ("twosat", 6, 4, 2, 2)])
def test_small_relaxations_get_short_ring_points(name, n_vars, n_clauses,
                                                 seed, bits):
    # every relaxation has equalities, so its hull takes the scaled-delta
    # lift at any size
    _, _, res = solved(name, seed, n_vars, n_clauses)
    assert res.accepted
    got = max(max(abs(c.a).bit_length(), abs(c.b).bit_length())
              for lp in res.lp for c in lp.point)
    assert got <= bits


@pytest.mark.parametrize("name,n_vars,n_clauses,seed",
                         [("twosat", 6, 4, 2), ("one-in-three-malt", 12, 10, 1)])
def test_replay_takes_one_member_lookup_per_clause(name, n_vars, n_clauses,
                                                   seed, monkeypatch):
    e, inst, res = solved(name, seed, n_vars, n_clauses)
    lookups = []

    def counting(family, minimum):
        lookups.append(minimum)
        return _cached_valid_member(family, minimum)

    monkeypatch.setattr(pipeline, "_cached_valid_member", counting)
    for j in range(len(inst.clauses)):
        weighted_apply_oracle(e.template, inst, e.family, res, j)
    assert len(lookups) == len(inst.clauses)
