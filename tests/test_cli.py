"""End-to-end tests of the command-line interface (in-process)."""

from __future__ import annotations

import json
import random
from itertools import product

import pytest

from pcsp import corpus, jsonio
from pcsp.cli import main
from pcsp.families import RegionPeriodicFamily
from pcsp.model import PromiseTemplate, Relation, plant_satisfiable_instance
from pcsp.pipeline import solve
from pcsp.rings import LatticeIdeal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_solve_verify_chain(tmp_path, capsys):
    inst = tmp_path / "i.json"
    asg = tmp_path / "a.json"
    code, out, _ = run(capsys, "gen", "didactic", "--n", "6", "--m", "4",
                       "--seed", "3")
    assert code == 0
    inst.write_text(out)
    code, out2, _ = run(capsys, "gen", "didactic", "--n", "6", "--m", "4",
                        "--seed", "3")
    assert out2 == out          # byte-identical on identical input

    code, out, _ = run(capsys, "solve", "didactic", "fam-gL", str(inst))
    assert code == 0
    doc = json.loads(out)
    assert doc["side"] == "Q" and len(doc["values"]) == 6
    asg.write_text(out)

    code, out, _ = run(capsys, "verify", "didactic", str(inst), str(asg))
    assert code == 0 and out == "OK\n"


def test_solve_reject_exit_code(tmp_path, capsys):
    inst = tmp_path / "i.json"
    # x != x is rationally feasible only at the half-integer point
    inst.write_text(json.dumps(
        {"n": 2, "clauses": [{"c": "neq", "vars": [1, 1]}]}))
    code, out, _ = run(capsys, "solve", "twosat", "maj", str(inst))
    assert code == 1
    assert out == "REJECT: no ring point on affine hull\n"


def test_check_pol_ok_and_counterexample(capsys):
    code, out, _ = run(capsys, "check-pol", "didactic", "fam-gL",
                       "--arity", "3")
    assert code == 0 and out.startswith("OK: fam-gL[3]")
    code, out, _ = run(capsys, "check-pol", "didactic", "fam-gL",
                       "--arity", "4")
    assert code == 1
    assert out.startswith("COUNTEREXAMPLE")
    assert "outside the weak relation" in out


def test_check_pol_invalid_arity(capsys):
    code, out, _ = run(capsys, "check-pol", "rainbow", "rainbow",
                       "--arity", "3")
    assert code == 1 and out.startswith("INVALID ARITY")


def test_verify_detects_violation(tmp_path, capsys):
    inst = tmp_path / "i.json"
    asg = tmp_path / "a.json"
    inst.write_text(json.dumps(
        {"n": 2, "clauses": [{"c": "or2", "vars": [1, 2]}]}))
    asg.write_text(json.dumps({"side": "Q", "values": [0, 0]}))
    code, out, _ = run(capsys, "verify", "twosat", str(inst), str(asg))
    assert code == 1 and out == "FAIL: clause 0 violated\n"


def test_verify_value_count_mismatch(tmp_path, capsys):
    inst = tmp_path / "i.json"
    asg = tmp_path / "a.json"
    inst.write_text(json.dumps(
        {"n": 2, "clauses": [{"c": "or2", "vars": [1, 2]}]}))
    asg.write_text(json.dumps({"side": "Q", "values": [0]}))
    code, _, err = run(capsys, "verify", "twosat", str(inst), str(asg))
    assert code == 2 and "values for 2 variables" in err


def test_unknown_names_exit_two(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "who", "--n", "3", "--m", "1")
    assert code == 2 and "unknown template" in err
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps({"n": 2, "clauses": []}))
    code, _, err = run(capsys, "solve", "twosat", "who", str(inst))
    assert code == 2 and "unknown family" in err


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "solve", "twosat", "maj", str(bad))
    assert code == 2 and "invalid JSON" in err
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"n": 2}))
    code, _, err = run(capsys, "solve", "twosat", "maj", str(schema))
    assert code == 2 and "missing key" in err


def test_template_and_family_from_files(tmp_path, capsys):
    e = corpus.entry("twosat")
    tpl = tmp_path / "t.json"
    fam = tmp_path / "f.json"
    inst = tmp_path / "i.json"
    tpl.write_text(jsonio.dumps(jsonio.template_to_json(e.template)))
    fam.write_text(jsonio.dumps(jsonio.family_to_json(e.family)))
    inst.write_text(json.dumps(
        {"n": 3, "clauses": [{"c": "or2", "vars": [1, 2]},
                             {"c": "neq", "vars": [2, 3]}]}))
    code, out, _ = run(capsys, "solve", str(tpl), str(fam), str(inst))
    assert code == 0
    values = json.loads(out)["values"]
    assert values[1] != values[2] and (values[0], values[1]) != (0, 0)


def test_relax_lp_feeds_lp_subcommand(tmp_path, capsys):
    inst = tmp_path / "i.json"
    sys_file = tmp_path / "s.json"
    inst.write_text(json.dumps(
        {"n": 3, "clauses": [{"c": "or2", "vars": [1, 2]},
                             {"c": "neq", "vars": [2, 3]}]}))
    code, out, _ = run(capsys, "relax", "twosat", "maj", str(inst),
                       "--dump", "lp")
    assert code == 0
    sys_file.write_text(out)
    code, out, _ = run(capsys, "lp", str(sys_file), "--ring", "zsqrt:2")
    assert code == 0
    point = json.loads(out)
    assert all(set(c) == {"a", "b", "q"} for c in point)


def test_relax_le_dump(tmp_path, capsys):
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps(
        {"n": 3, "clauses": [{"c": "sum1mod7", "vars": [1, 2, 3]}]}))
    code, out, _ = run(capsys, "relax", "mod7-sandwich", "mod7", str(inst),
                       "--dump", "le")
    assert code == 0
    doc = json.loads(out)
    assert doc["quotient"] == [[7]]
    assert len(doc["rows"]) == 4


def test_relax_le_dump_uses_the_solve_relaxation(tmp_path, capsys):
    # simplex families are rounded from the LP alone, so there is no affine
    # system to dump, and the solve builds none either
    inst = tmp_path / "i.json"
    doc = {"n": 4, "clauses": [{"c": "perm", "vars": [1, 2, 3]},
                               {"c": "perm", "vars": [2, 3, 4]}]}
    inst.write_text(json.dumps(doc))
    code, out, err = run(capsys, "relax", "rainbow", "rainbow", str(inst),
                         "--dump", "le")
    assert code == 2 and out == ""
    assert "simplex families have no affine relaxation" in err
    e = corpus.entry("rainbow")
    res = solve(e.template, jsonio.instance_from_json(doc, e.template), e.family)
    assert res.accepted and res.affine is None


def test_relax_dump_mismatches_exit_two(tmp_path, capsys):
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps(
        {"n": 3, "clauses": [{"c": "sum1mod7", "vars": [1, 2, 3]}]}))
    code, _, err = run(capsys, "relax", "mod7-sandwich", "mod7", str(inst),
                       "--dump", "lp")
    assert code == 2 and "no LP relaxation" in err


def test_lp_pinned_reject_line(tmp_path, capsys):
    half = tmp_path / "h.json"
    half.write_text(json.dumps(
        {"vars": 1, "le": [{"a": [[0, 1]], "b": "1/2"},
                           {"a": [[0, -1]], "b": "-1/2"}]}))
    code, out, _ = run(capsys, "lp", str(half))
    assert code == 1
    assert out == "REJECT: no ring point on affine hull\n"


def test_lp_empty_polytope(tmp_path, capsys):
    empty = tmp_path / "e.json"
    empty.write_text(json.dumps(
        {"vars": 1, "le": [{"a": [[0, 1]], "b": 0},
                           {"a": [[0, -1]], "b": -1}]}))
    code, out, _ = run(capsys, "lp", str(empty))
    assert code == 1
    assert out == "REJECT: empty relaxation polytope\n"


def test_lp_bad_ring_spec(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"vars": 1, "le": [{"a": [[0, 1]], "b": 1}]}))
    code, _, err = run(capsys, "lp", str(f), "--ring", "gauss")
    assert code == 2 and "unknown ring" in err
    code, _, err = run(capsys, "lp", str(f), "--ring", "zsqrt:4")
    assert code == 2


def test_solve_periodic_and_simplex_paths(tmp_path, capsys):
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps(
        {"n": 4, "clauses": [{"c": "sum1mod7", "vars": [1, 2, 3]},
                             {"c": "sum1mod7", "vars": [2, 3, 4]}]}))
    code, out, _ = run(capsys, "solve", "mod7-sandwich", "mod7", str(inst))
    assert code == 0
    asg = tmp_path / "a.json"
    asg.write_text(out)
    code, out, _ = run(capsys, "verify", "mod7-sandwich", str(inst), str(asg))
    assert code == 0

    inst.write_text(json.dumps(
        {"n": 4, "clauses": [{"c": "perm", "vars": [1, 2, 3]},
                             {"c": "perm", "vars": [2, 3, 4]}]}))
    code, out, _ = run(capsys, "solve", "rainbow", "rainbow", str(inst))
    assert code == 0
    asg.write_text(out)
    code, out, _ = run(capsys, "verify", "rainbow", str(inst), str(asg))
    assert code == 0


def test_gen_rejects_bad_sizes(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "twosat", "--n", "0", "--m", "2")
    assert code == 2 and "n >= 1" in err
    # the planter's refusals: fewer variables than a clause's arity, and
    # values too scarce to spell a strong tuple (one in 64^2 draws does)
    code, out, err = run(capsys, "gen", "didactic", "--n", "3", "--m", "2")
    assert code == 2 and out == "" and "not enough variables" in err
    dom = tuple(range(64))
    scarce = PromiseTemplate(dom, dom, {d: d for d in dom}, (
        Relation("zeros", 2, frozenset({(0, 0)}), frozenset({(0, 0)})),))
    tpl = tmp_path / "t.json"
    tpl.write_text(jsonio.dumps(jsonio.template_to_json(scarce)))
    code, out, err = run(capsys, "gen", str(tpl), "--n", "2", "--m", "1")
    assert code == 2 and out == "" and "too scarce" in err


@pytest.mark.parametrize("argv", [
    ("solve", "mod7-sandwich", "maj", "INST"),
    ("relax", "mod7-sandwich", "maj", "INST", "--dump", "lp"),
    ("check-pol", "mod7-sandwich", "maj", "--arity", "3"),
], ids=["solve", "relax", "check-pol"])
def test_family_off_the_template_domain_exits_two(tmp_path, capsys, argv):
    inst = tmp_path / "i.json"
    code, out, _ = run(capsys, "gen", "mod7-sandwich", "--n", "6", "--m", "3")
    assert code == 0
    inst.write_text(out)
    code, out, err = run(capsys, *(str(inst) if a == "INST" else a
                                   for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "domain" in err


@pytest.mark.parametrize("argv", [
    ("solve", "twosat", "fam-gL", "INST"),
    ("relax", "twosat", "fam-gL", "INST", "--dump", "le"),
    ("check-pol", "twosat", "fam-gL", "--arity", "3"),
], ids=["solve", "relax", "check-pol"])
def test_family_outputs_off_the_weak_domain_exit_two(tmp_path, capsys, argv):
    # fam-gL reads the Boolean domain but outputs 0..3, and twosat's weak
    # domain is {0, 1}: an input error, not a rounding failure
    inst = tmp_path / "i.json"
    code, out, _ = run(capsys, "gen", "twosat", "--n", "6", "--m", "3")
    assert code == 0
    inst.write_text(out)
    code, out, err = run(capsys, *(str(inst) if a == "INST" else a
                                   for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "outside the weak domain" in err


def test_gen_on_a_template_without_constraints(tmp_path, capsys):
    # no relation to plant from: no clauses is an empty instance, and any
    # clause is an input error
    empty = PromiseTemplate((0, 1), (0, 1), {0: 0, 1: 1}, ())
    tpl = tmp_path / "t.json"
    tpl.write_text(jsonio.dumps(jsonio.template_to_json(empty)))
    code, out, err = run(capsys, "gen", str(tpl), "--n", "2", "--m", "0")
    assert code == 0 and err == ""
    assert json.loads(out) == {"n": 2, "clauses": []}
    code, out, err = run(capsys, "gen", str(tpl), "--n", "2", "--m", "1")
    assert code == 2 and out == ""
    assert err == "error: the template has no constraints to plant from\n"


def test_internal_error_exits_three(tmp_path, capsys):
    # the region-periodic reproduction of
    # test_pipeline::test_solve_refuses_an_assignment_off_the_weak_side:
    # solve raises RoundingCheckError, which is neither a reject (exit 1)
    # nor malformed input (exit 2)
    malt = corpus.entry("one-in-three-malt").family
    eta0 = {(0, 0): "a", (0, 1): "b", (1, 0): "c", (1, 1): "d"}
    fam = RegionPeriodicFamily(
        malt.partition, malt.radicands,
        {0: (LatticeIdeal([(2, 0), (0, 2)]), eta0),
         1: (LatticeIdeal([(1, 0), (0, 1)]), {(0, 0): "e"})})
    outs = fam.outputs()
    strong = frozenset({(1, 0, 0), (0, 1, 0), (0, 0, 1)})
    weak = frozenset(t for t in product(outs, repeat=3) if "d" not in t)
    tpl = PromiseTemplate((0, 1), outs, {0: "a", 1: "e"},
                          (Relation("1in3", 3, strong, weak),))
    inst, _ = plant_satisfiable_instance(tpl, 8, 6, random.Random(2))
    paths = []
    for name, doc in (("t", jsonio.template_to_json(tpl)),
                      ("f", jsonio.family_to_json(fam)),
                      ("i", jsonio.instance_to_json(inst, tpl))):
        path = tmp_path / f"{name}.json"
        path.write_text(jsonio.dumps(doc))
        paths.append(str(path))
    code, out, err = run(capsys, "solve", *paths)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and "clause 0" in err
    assert len(err.splitlines()) == 1
