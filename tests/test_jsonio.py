"""Round-trip and validation tests for the JSON encodings."""

from __future__ import annotations

from fractions import Fraction

import pytest

from pcsp import corpus, jsonio
from pcsp.families import Cell, PartitionSpec, RegionPeriodicFamily
from pcsp.jsonio import (SchemaError, assignment_from_json, assignment_to_json,
                         dumps, family_from_json, family_to_json,
                         instance_from_json, instance_to_json, rat_from_json,
                         rat_to_json, system_from_json, system_to_json,
                         template_from_json, template_to_json)
from pcsp.linalg import InequalitySystem
from pcsp.model import (Clause, Instance, build_affine_relaxation,
                        build_basic_lp)
from pcsp.rings import LatticeIdeal


def test_rational_scalars():
    assert rat_to_json(Fraction(3)) == 3
    assert rat_to_json(Fraction(-1, 2)) == "-1/2"
    assert rat_from_json(5, "$") == Fraction(5)
    assert rat_from_json("7/3", "$") == Fraction(7, 3)
    with pytest.raises(SchemaError, match=r"\$\.x"):
        rat_from_json("seven", "$.x")
    with pytest.raises(SchemaError):
        rat_from_json("1/0", "$")
    with pytest.raises(SchemaError):
        rat_from_json(True, "$")
    with pytest.raises(SchemaError):
        rat_from_json(0.5, "$")


@pytest.mark.parametrize("name", corpus.names())
def test_template_roundtrip(name):
    t = corpus.entry(name).template
    doc = template_to_json(t)
    again = template_to_json(template_from_json(doc))
    assert again == doc
    assert dumps(again) == dumps(doc)


@pytest.mark.parametrize("name", corpus.names())
def test_family_roundtrip(name):
    f = corpus.entry(name).family
    doc = family_to_json(f)
    parsed = family_from_json(doc)
    assert family_to_json(parsed) == doc
    assert parsed.kind == f.kind
    assert parsed.name == f.name


def test_region_periodic_family_roundtrip():
    above = ((Fraction(1), (1,)),)
    below = ((Fraction(1), (0,)), (Fraction(-1), (1,)))
    spec = PartitionSpec(1, (Cell("all", (above, below)),),
                         {(0,): "all", (1,): "all"})
    cell_data = {"all": (LatticeIdeal([(2,)]), {(0,): 0, (1,): 1})}
    fam = RegionPeriodicFamily(spec, (2,), cell_data, name="parity")
    doc = family_to_json(fam)
    parsed = family_from_json(doc)
    assert family_to_json(parsed) == doc
    # the parsed family computes the same members
    m = parsed.member(3)
    assert m.apply_column((1, 1, 0)) == fam.member(3).apply_column((1, 1, 0)) == 0
    assert m.apply_column((1, 1, 1)) == 1
    # two blocks: each quotient and the affine quotient are written as the
    # ideal's diagonal Hermite form, and the bytes survive a round trip
    two = two_block_regper()
    doc = family_to_json(two)
    assert [q["lattice"] for q in doc["quotients"]] == [[[2, 0], [0, 2]],
                                                        [[1, 0], [0, 1]]]
    assert dumps(family_to_json(family_from_json(doc))) == dumps(doc)
    tpl = corpus.entry("one-in-three-malt").template
    aff = build_affine_relaxation(tpl, Instance(3, (Clause(0, (0, 1, 2)),)),
                                  two.plan.lattice)
    assert jsonio.affine_to_json(aff)["quotient"] == [[2, 0], [0, 2]]


def two_block_regper() -> RegionPeriodicFamily:
    """Region-periodic family on the malt partition: Z/2 x Z/2 on label 0,
    the zero ring on label 1."""
    malt = corpus.entry("one-in-three-malt").family
    eta0 = {(0, 0): "a", (0, 1): "b", (1, 0): "c", (1, 1): "d"}
    return RegionPeriodicFamily(
        malt.partition, malt.radicands,
        {0: (LatticeIdeal([(2, 0), (0, 2)]), eta0),
         1: (LatticeIdeal([(1, 0), (0, 1)]), {(0, 0): "e"})})


def test_regper_non_ideal_lattice_rejected():
    # generators (2, 1), (0, 3) span a lattice that is no ideal of Z^2, so
    # Z^2 modulo it is no ring; every coset of its Hermite box has an output
    doc = family_to_json(two_block_regper())
    doc["quotients"][1]["lattice"] = [[2, 1], [0, 3]]
    doc["quotients"][1]["eta"] = [{"coset": [a, b], "out": "e"}
                                  for a in range(2) for b in range(3)]
    with pytest.raises(SchemaError, match=r"^\$\.quotients\[1\]\.lattice: "):
        family_from_json(doc)


def test_repeated_phi_value_rejected():
    # every pair over E is weak, so the later image of 0 would stand
    doc = {
        "domains": {"D": [0, 1], "E": ["a", "b"]},
        "phi": [[0, "a"], [1, "b"], [0, "b"]],
        "constraints": [{"name": "r", "arity": 2, "P": [[0, 1]],
                         "Q": [[x, y] for x in "ab" for y in "ab"]}],
    }
    with pytest.raises(SchemaError, match=r"^\$\.phi\[2\]: repeated"):
        template_from_json(doc)


@pytest.mark.parametrize("where, path", [
    ("D", r"\$\.domains\.D\[2\]"),
    ("E", r"\$\.domains\.E\[2\]"),
    ("name", r"\$\.constraints\[1\]\.name"),
], ids=["D", "E", "name"])
def test_repeated_template_entry_rejected(where, path):
    doc = {
        "domains": {"D": [0, 1], "E": [0, 1]},
        "phi": [[0, 0], [1, 1]],
        "constraints": [{"name": n, "arity": 2, "P": [[0, 1], [1, 0]],
                         "Q": [[0, 1], [1, 0]]} for n in ("r", "s")],
    }
    if where == "name":
        doc["constraints"][1]["name"] = "r"
    else:
        doc["domains"][where].append(0)
    with pytest.raises(SchemaError, match=f"^{path}: repeated"):
        template_from_json(doc)


def test_repeated_quotient_label_rejected():
    doc = family_to_json(two_block_regper())
    doc["quotients"].append({**doc["quotients"][1],
                             "eta": [{"coset": [0, 0], "out": "zz"}]})
    with pytest.raises(SchemaError, match=r"^\$\.quotients\[2\]: repeated"):
        family_from_json(doc)


def test_repeated_eta_coset_rejected():
    doc = family_to_json(two_block_regper())
    doc["quotients"][0]["eta"].append({"coset": [0, 0], "out": "zz"})
    with pytest.raises(SchemaError,
                       match=r"^\$\.quotients\[0\]\.eta\[4\]: repeated"):
        family_from_json(doc)


def test_family_less_than_relation_negates():
    base = family_to_json(corpus.entry("one-in-three-malt").family)
    flipped = {**base, "cells": [
        {**c, "ineqs": [{"poly": [[-cf, e] if isinstance(cf, int)
                                  else [str(Fraction(cf) * -1), e]
                                  for cf, e in iq["poly"]], "rel": "<"}
                        for iq in c["ineqs"]]}
        for c in base["cells"]]}
    # negated coefficients with "<" describe the same open cells
    assert family_to_json(family_from_json(flipped)) == base


def test_family_unknown_kind_and_keys():
    for kind in ("mystery", "thr-per", ["thr"], {}):
        with pytest.raises(SchemaError, match=r"\$\.kind"):
            family_from_json({"kind": kind})
    doc = family_to_json(corpus.entry("twosat").family)
    doc["extra"] = 1
    with pytest.raises(SchemaError, match=r"\$\.extra"):
        family_from_json(doc)


def test_family_bad_corner_key():
    doc = family_to_json(corpus.entry("one-in-three-malt").family)
    doc["corners"] = {"0,2": 0}
    with pytest.raises(SchemaError, match="comma-joined bits"):
        family_from_json(doc)


def test_instance_roundtrip_and_one_based_vars():
    t = corpus.entry("twosat").template
    inst = Instance(4, (Clause(0, (0, 1)), Clause(1, (2, 3))))
    doc = instance_to_json(inst, t)
    assert doc["clauses"][0]["vars"] == [1, 2]
    assert instance_from_json(doc, t) == inst
    assert instance_to_json(instance_from_json(doc, t), t) == doc


def test_instance_empty_clause_list_valid():
    t = corpus.entry("twosat").template
    inst = instance_from_json({"n": 3, "clauses": []}, t)
    assert inst.n_vars == 3 and inst.clauses == ()


def test_instance_errors_carry_paths():
    t = corpus.entry("twosat").template
    with pytest.raises(SchemaError, match=r"\$\.clauses\[0\]\.c"):
        instance_from_json({"n": 2, "clauses": [{"c": "nope", "vars": [1, 2]}]}, t)
    with pytest.raises(SchemaError, match=r"\$\.clauses\[0\]\.vars\[1\]"):
        instance_from_json({"n": 2, "clauses": [{"c": "or2", "vars": [1, 3]}]}, t)
    with pytest.raises(SchemaError, match="expected 2 variables"):
        instance_from_json({"n": 2, "clauses": [{"c": "or2", "vars": [1]}]}, t)


def test_template_parse_rejects_broken_promise():
    # phi image of (1, 1) escapes the weak relation
    doc = {
        "domains": {"D": [0, 1], "E": [0, 1]},
        "phi": [[0, 0], [1, 1]],
        "constraints": [{"name": "bad", "arity": 2,
                         "P": [[1, 1]], "Q": [[0, 0]]}],
    }
    with pytest.raises(SchemaError, match="not in weak relation"):
        template_from_json(doc)


def test_template_tuple_arity_mismatch_path():
    doc = {
        "domains": {"D": [0, 1], "E": [0, 1]},
        "phi": [[0, 0], [1, 1]],
        "constraints": [{"name": "r", "arity": 2,
                         "P": [[1, 1, 0]], "Q": [[1, 1]]}],
    }
    with pytest.raises(SchemaError, match=r"\$\.constraints\[0\]\.P\[0\]"):
        template_from_json(doc)


def test_assignment_roundtrip_and_side_check():
    doc = assignment_to_json("Q", [0, 1, 2])
    assert assignment_from_json(doc) == ("Q", [0, 1, 2])
    with pytest.raises(SchemaError, match=r"\$\.side"):
        assignment_from_json({"side": "weak", "values": []})
    with pytest.raises(ValueError):
        assignment_to_json("weak", [])


def test_system_roundtrip():
    s = InequalitySystem(3)
    s.add_le({0: Fraction(1, 2), 2: -1}, Fraction(1, 3))
    s.add_eq({1: 2}, 4)
    s.add_le({}, 0)
    doc = system_to_json(s)
    s2 = system_from_json(doc)
    assert system_to_json(s2) == doc
    assert s2.n_vars == 3 and len(s2.eq_pairs) == 1
    assert doc["le"][0]["a"] == [[0, "1/2"], [2, -1]]


def test_system_errors():
    with pytest.raises(SchemaError, match=r"\$\.le\[0\]\.a\[0\]\[0\]"):
        system_from_json({"vars": 2, "le": [{"a": [[5, 1]], "b": 0}]})
    with pytest.raises(SchemaError, match=r"\$\.vars"):
        system_from_json({"vars": 0, "le": []})


def test_affine_dump_shape():
    t = corpus.entry("mod7-sandwich").template
    inst = Instance(3, (Clause(0, (0, 1, 2)),))
    aff = build_affine_relaxation(t, inst, LatticeIdeal([(7,)]))
    doc = jsonio.affine_to_json(aff)
    assert doc["quotient"] == [[7]]
    # one normalisation row plus one row per clause position
    assert len(doc["rows"]) == len(doc["rhs"]) == 4
    assert doc["width"] == 3 + len(t.relations[0].strong)


def test_dumps_is_key_order_insensitive():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert dumps(a) == dumps(b)
    assert dumps(a).endswith("\n")


def test_basic_lp_dump_feeds_back():
    t = corpus.entry("twosat").template
    inst = Instance(3, (Clause(0, (0, 1)), Clause(1, (1, 2))))
    emb = {0: (Fraction(0),), 1: (Fraction(1),)}
    system, _ = build_basic_lp(t, inst, emb)
    doc = system_to_json(system)
    s2 = system_from_json(doc)
    assert s2.n_rows == system.n_rows
    assert system_to_json(s2) == doc
