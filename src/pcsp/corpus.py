"""Built-in promise templates paired with verified rounding families.

Every entry is self-verified at import: the family member at its smallest
valid arity must map the strong relations into the weak ones.  Tests push
the same check to larger arities.  Building the region partitions of the
malt and rainbow entries also samples each at 10,000 points of the 1/97
grid, with exact integer signs (`PartitionSpec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .families import (
    Cell,
    PartitionSpec,
    PeriodicFamily,
    RegionFamily,
    SimplexFamily,
    ThresholdFamily,
    ThresholdPeriodicFamily,
    smallest_valid_arity,
)
from .model import PromiseTemplate, Relation, check_polymorphism


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    template: PromiseTemplate
    family: object
    summary: str


def _tuples(domain, arity, pred):
    return frozenset(t for t in product(domain, repeat=arity) if pred(t))


def _didactic() -> CorpusEntry:
    """Weight-3 six-bit tuples relaxed to a four-letter alphabet.

    The weak relation is exactly the set of tuples the threshold-periodic
    members can emit: between one and five coordinates land above the
    threshold, and the total residue parity stays odd (row sums are 3, so
    column sums add to an odd multiple of L).
    """
    strong = _tuples((0, 1), 6, lambda t: sum(t) == 3)

    def weak_pred(t):
        above = sum(1 for v in t if v in (1, 2))
        odd_parity = sum(1 for v in t if v in (1, 3)) % 2
        return 1 <= above <= 5 and odd_parity == 1

    weak = _tuples((0, 1, 2, 3), 6, weak_pred)
    tpl = PromiseTemplate((0, 1), (0, 1, 2, 3), {0: 0, 1: 1},
                          (Relation("ham3of6", 6, strong, weak),))
    fam = ThresholdPeriodicFamily((Fraction(1, 2),), (2, 2),
                                  ((0, 3), (2, 1)), residue=1, radicand=2,
                                  name="fam-gL")
    return CorpusEntry("didactic", tpl, fam,
                       "weight-3 tuples into a parity-marked relaxation")


def _twosat() -> CorpusEntry:
    dom = (0, 1)
    rels = (
        Relation("or2", 2, _tuples(dom, 2, lambda t: sum(t) >= 1),
                 _tuples(dom, 2, lambda t: sum(t) >= 1)),
        Relation("neq", 2, _tuples(dom, 2, lambda t: t[0] != t[1]),
                 _tuples(dom, 2, lambda t: t[0] != t[1])),
    )
    tpl = PromiseTemplate(dom, dom, {0: 0, 1: 1}, rels)
    fam = ThresholdFamily((Fraction(0), Fraction(1, 2), Fraction(1)),
                          (0, 0, 1, 1), radicand=2, name="maj")
    return CorpusEntry("twosat", tpl, fam,
                       "two-literal clauses with disequalities, majority rounding")


def _two_plus_eps() -> CorpusEntry:
    dom = (0, 1)
    rel = Relation("ham2of5", 5, _tuples(dom, 5, lambda t: sum(t) >= 2),
                   _tuples(dom, 5, lambda t: sum(t) >= 1))
    tpl = PromiseTemplate(dom, dom, {0: 0, 1: 1}, (rel,))
    fam = ThresholdFamily((Fraction(1, 3),), (0, 1), radicand=2,
                          name="third")
    return CorpusEntry("two-plus-eps-sat", tpl, fam,
                       "doubly satisfied five-clauses relaxed to plain clauses")


def _threshold_conds() -> CorpusEntry:
    dom = (0, 1)
    rels = (
        Relation("low", 5, _tuples(dom, 5, lambda t: sum(t) <= 2),
                 _tuples(dom, 5, lambda t: sum(t) <= 4)),
        Relation("high", 5, _tuples(dom, 5, lambda t: sum(t) >= 3),
                 _tuples(dom, 5, lambda t: sum(t) >= 1)),
    )
    tpl = PromiseTemplate(dom, dom, {0: 0, 1: 1}, rels)
    fam = ThresholdFamily((Fraction(0), Fraction(1, 2), Fraction(1)),
                          (0, 0, 1, 1), radicand=2, name="maj")
    return CorpusEntry("threshold-conds", tpl, fam,
                       "opposing weight conditions, majority rounding")


def _mod7() -> CorpusEntry:
    dom = tuple(range(7))
    strong = _tuples(dom, 3, lambda t: sum(t) % 7 == 1)
    phi = {d: 1 if d == 1 else 0 for d in dom}
    weak = frozenset(tuple(phi[v] for v in t) for t in strong)
    tpl = PromiseTemplate(dom, (0, 1), phi,
                          (Relation("sum1mod7", 3, strong, weak),))
    fam = PeriodicFamily(7, 1, tuple(1 if w == 1 else 0 for w in range(7)),
                         domain=dom, name="mod7")
    return CorpusEntry("mod7-sandwich", tpl, fam,
                       "mod-7 sum constraints observed through an indicator")


def _one_in_three_malt() -> CorpusEntry:
    dom = (0, 1)
    rel = Relation("1in3", 3, _tuples(dom, 3, lambda t: sum(t) == 1),
                   _tuples(dom, 3, lambda t: len(set(t)) > 1))
    tpl = PromiseTemplate(dom, dom, {0: 0, 1: 1}, (rel,))
    x_lt_y = ((Fraction(1), (0, 1)), (Fraction(-1), (1, 0)))
    x_gt_y = ((Fraction(1), (1, 0)), (Fraction(-1), (0, 1)))
    spec = PartitionSpec(
        2,
        (Cell(0, (x_lt_y,)), Cell(1, (x_gt_y,))),
        {(0, 0): 0, (1, 1): 1, (0, 1): 0, (1, 0): 1},
    )
    # odd L gives coprime near-equal blocks, so only corners hit boundaries;
    # L = 2 lands on corners outright
    fam = RegionFamily(spec, (2, 3), name="malt",
                       arity_hint=lambda L: L == 2 or L % 2 == 1)
    return CorpusEntry("one-in-three-malt", tpl, fam,
                       "exactly-one clauses relaxed to not-all-equal")


def _rainbow() -> CorpusEntry:
    dom = (1, 2, 3)
    strong = _tuples(dom, 3, lambda t: len(set(t)) == 3)
    weak = _tuples(dom, 3, lambda t: len(set(t)) > 1)
    tpl = PromiseTemplate(dom, dom, {d: d for d in dom},
                          (Relation("perm", 3, strong, weak),))
    hi = ((Fraction(1), (1, 0, 0)), (Fraction(-1, 3), (0, 0, 0)))
    lo = ((Fraction(1, 3), (0, 0, 0)), (Fraction(-1), (1, 0, 0)))
    spec = PartitionSpec(3, (Cell(1, (hi,)), Cell(2, (lo,))))
    # histogram fractions hit the 1/3 boundary exactly when 3 divides L
    fam = SimplexFamily(dom, spec, radicand=2, name="rainbow",
                        arity_hint=lambda L: L % 3 != 0)
    return CorpusEntry("rainbow", tpl, fam,
                       "permutation triples relaxed to non-constant triples")


def _verified(entry: CorpusEntry) -> CorpusEntry:
    L = smallest_valid_arity(entry.family)
    rep = check_polymorphism(entry.family.member(L), entry.template)
    if not rep.ok:
        raise RuntimeError(
            f"corpus entry {entry.name}: member at arity {L} violates "
            f"{rep.relation} on {rep.witness_rows} -> {rep.bad_output}")
    return entry


ENTRIES: dict[str, CorpusEntry] = {e.name: e for e in (
    _verified(_didactic()),
    _verified(_twosat()),
    _verified(_two_plus_eps()),
    _verified(_threshold_conds()),
    _verified(_mod7()),
    _verified(_one_in_three_malt()),
    _verified(_rainbow()),
)}


def names() -> list[str]:
    return sorted(ENTRIES)


def entry(name: str) -> CorpusEntry:
    try:
        return ENTRIES[name]
    except KeyError:
        raise KeyError(f"unknown corpus entry {name!r}; "
                       f"available: {', '.join(names())}") from None
