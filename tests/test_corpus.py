"""Frozen facts about the built-in template/family pairings."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pcsp.corpus import ENTRIES, entry, names
from pcsp.families import InvalidArityError, RegionFamily, smallest_valid_arity
from pcsp.model import ResourceGuardError, check_polymorphism


def test_names_are_frozen():
    assert names() == ["didactic", "mod7-sandwich", "one-in-three-malt",
                       "rainbow", "threshold-conds", "two-plus-eps-sat",
                       "twosat"]


def test_unknown_entry_raises():
    with pytest.raises(KeyError, match="available"):
        entry("nope")


RELATION_SIZES = {
    "didactic": {"ham3of6": (20, 1984)},
    "twosat": {"or2": (3, 3), "neq": (2, 2)},
    "two-plus-eps-sat": {"ham2of5": (26, 31)},
    "threshold-conds": {"low": (16, 31), "high": (16, 31)},
    "mod7-sandwich": {"sum1mod7": (49, 7)},
    "one-in-three-malt": {"1in3": (3, 6)},
    "rainbow": {"perm": (6, 24)},
}


@pytest.mark.parametrize("name", sorted(RELATION_SIZES))
def test_relation_sizes_frozen(name):
    e = entry(name)
    got = {rel.name: (len(rel.strong), len(rel.weak))
           for rel in e.template.relations}
    assert got == RELATION_SIZES[name]


def test_didactic_weak_relation_structure():
    e = entry("didactic")
    weak = e.template.relations[0].weak
    for t in weak:
        above = sum(1 for v in t if v in (1, 2))
        assert 1 <= above <= 5
        assert sum(1 for v in t if v in (1, 3)) % 2 == 1


def test_didactic_members_at_odd_arities():
    e = entry("didactic")
    for L in (1, 3, 5):
        assert e.family.is_valid_arity(L)
        assert check_polymorphism(e.family.member(L), e.template).ok


def test_didactic_even_arities_fail_with_witness():
    e = entry("didactic")
    rel = e.template.relations[0]
    for L in (2, 4):
        assert not e.family.is_valid_arity(L)
        f = e.family.member(L)      # buildable, but not a polymorphism
        rep = check_polymorphism(f, e.template)
        assert not rep.ok
        assert all(row in rel.strong for row in rep.witness_rows)
        assert rep.bad_output not in rel.weak


def test_twosat_majority_members():
    e = entry("twosat")
    for L in (1, 3, 5):
        assert check_polymorphism(e.family.member(L), e.template).ok
    assert not e.family.is_valid_arity(2)


def test_threshold_conds_majority_members():
    e = entry("threshold-conds")
    for L in (1, 3, 5):
        assert check_polymorphism(e.family.member(L), e.template).ok


def test_two_plus_eps_members_off_multiples_of_three():
    e = entry("two-plus-eps-sat")
    for L in (1, 2, 4):
        assert e.family.is_valid_arity(L)
        assert check_polymorphism(e.family.member(L), e.template).ok
    assert not e.family.is_valid_arity(3)


def test_mod7_members_at_one_mod_seven():
    e = entry("mod7-sandwich")
    assert e.family.is_valid_arity(1)
    assert check_polymorphism(e.family.member(1), e.template).ok
    assert e.family.is_valid_arity(8)
    rep = check_polymorphism(e.family.member(3), e.template)
    assert not rep.ok
    assert rep.bad_output == (1, 1, 1)


def test_mod7_exhaustive_check_trips_resource_guard():
    # 49 strong tuples over seven values: the reachable-histogram state
    # space at arity 8 is too large to sweep, and the guard must say so
    # instead of running out of memory
    e = entry("mod7-sandwich")
    with pytest.raises(ResourceGuardError):
        check_polymorphism(e.family.member(8), e.template)


def test_malt_members_and_hint():
    e = entry("one-in-three-malt")
    for L in (2, 3, 5, 7):
        assert check_polymorphism(e.family.member(L), e.template).ok
    sweep = RegionFamily(e.family.partition, e.family.radicands)
    for L in range(2, 13):
        assert e.family.is_valid_arity(L) == sweep.is_valid_arity(L)


def test_rainbow_members_and_hint():
    e = entry("rainbow")
    for L in (1, 2, 4, 5):
        assert check_polymorphism(e.family.member(L), e.template).ok
    for L in (3, 6):
        assert not e.family.is_valid_arity(L)
        with pytest.raises(InvalidArityError):
            e.family.member(L)


def test_smallest_valid_arities():
    got = {name: smallest_valid_arity(e.family)
           for name, e in ENTRIES.items()}
    assert got == {"didactic": 1, "twosat": 1, "two-plus-eps-sat": 1,
                   "threshold-conds": 1, "mod7-sandwich": 1,
                   "one-in-three-malt": 2, "rainbow": 1}


SRC = Path(__file__).resolve().parent.parent / "src"

# a child interpreter that counts SqrtExpr constructions during the import
_COUNT_SQRT_EXPRS = """
from pcsp.rings import SqrtExpr
calls = 0
init = SqrtExpr.__init__
def counted(self, *args, **kwargs):
    global calls
    calls += 1
    init(self, *args, **kwargs)
SqrtExpr.__init__ = counted
import pcsp.corpus
print(calls)
"""


def test_import_checks_partitions_without_the_ring_type():
    # the partition self-check samples rational points only, so it needs
    # no element of Q(sqrt(d1), sqrt(d2), ...)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.run([sys.executable, "-c", _COUNT_SQRT_EXPRS], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.stderr == ""
    assert child.stdout == "0\n"
