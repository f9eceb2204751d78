"""Golden outputs of the solver on fixed planted corpus instances, and of
the polymorphism check on the corpus families.

Each solve case plants one instance of a corpus entry, solves it, and
replays every clause through the weighted-member oracle.  `record(key)`
returns what the golden file pins for that case: the verdict and reason, the
sha256 of the `pcsp solve` stdout, of each ring point and of the affine
solution, and the arity of each clause's replay.  Each polymorphism case
pins `check_polymorphism`'s report for a corpus family's member at its
first or second smallest valid arity, against the entry's template.
`test_golden.py` compares these records with `golden.json`.

Run from the repository root to rewrite the file:

    PYTHONPATH=src python tests/update_golden.py              # every case
    PYTHONPATH=src python tests/update_golden.py KEY [KEY...]   # these cases

It prints the fields that changed for each key it rewrites.  A change to a
verdict or a reason prints `VERDICT CHANGED <key>`, and then the script
writes nothing and exits 1.  A change regenerates only the cases whose
outputs it is meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from pcsp import cli, corpus, jsonio
from pcsp.families import scan_valid_arity
from pcsp.model import (ResourceGuardError, check_polymorphism,
                        plant_satisfiable_instance)
from pcsp.pipeline import solve, weighted_apply_oracle

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# (entry, n_vars, n_clauses, seed); the LP-bound entries take the sizes that
# solve in a few seconds, and their slow sizes stay in the benchmark
_SPECS = [(name, n, m, seed)
          for name in ("didactic", "two-plus-eps-sat", "mod7-sandwich",
                       "one-in-three-malt", "rainbow")
          for n, m in ((12, 10), (25, 30))
          for seed in (1, 2)]
_SPECS += [("threshold-conds", 6, 2, 1), ("threshold-conds", 6, 2, 2),
           ("threshold-conds", 6, 4, 2),
           ("twosat", 6, 4, 1), ("twosat", 6, 4, 2), ("twosat", 12, 10, 1)]
CASES = {f"{name}/{n}x{m}/seed{seed}": (name, n, m, seed)
         for name, n, m, seed in _SPECS}
# (entry, rank): the member at the rank-th smallest valid arity
POLYMORPHISM_CASES = {f"check-pol/{name}/{word}": (name, rank)
                      for name in corpus.names()
                      for rank, word in ((1, "first"), (2, "second"))}


def _sha256(obj) -> str:
    return hashlib.sha256(jsonio.dumps(obj).encode()).hexdigest()


def _cli_stdout(entry, instance) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(jsonio.dumps(jsonio.instance_to_json(instance,
                                                             entry.template)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["solve", entry.name, entry.family.name, str(path)])
    return out.getvalue()


def _valid_member(family, rank: int):
    L = 0
    for _ in range(rank):
        L, member = scan_valid_arity(family, L + 1)
    return L, member if member is not None else family.member(L)


def polymorphism_record(key: str) -> dict:
    name, rank = POLYMORPHISM_CASES[key]
    e = corpus.entry(name)
    L, member = _valid_member(e.family, rank)
    try:
        rep = check_polymorphism(member, e.template)
    except ResourceGuardError as err:
        return {"arity": L, "verdict": "resource-guard", "reason": str(err),
                "witness_rows": None, "bad_output": None}
    return {"arity": L, "verdict": "ok" if rep.ok else "violated",
            "reason": rep.relation,
            "witness_rows": None if rep.witness_rows is None
            else [list(r) for r in rep.witness_rows],
            "bad_output": None if rep.bad_output is None
            else list(rep.bad_output)}


def record(key: str) -> dict:
    if key in POLYMORPHISM_CASES:
        return polymorphism_record(key)
    name, n, m, seed = CASES[key]
    e = corpus.entry(name)
    inst, _ = plant_satisfiable_instance(e.template, n, m, random.Random(seed))
    res = solve(e.template, inst, e.family)
    arities = []
    if res.accepted:
        arities = [weighted_apply_oracle(e.template, inst, e.family, res, j)[1]
                   for j in range(len(inst.clauses))]
    return {
        "verdict": "accept" if res.accepted else "reject",
        "reason": res.reason,
        "stdout_sha256": hashlib.sha256(
            _cli_stdout(e, inst).encode()).hexdigest(),
        "ring_points_sha256": [
            _sha256([jsonio.quad_to_json(c) for c in lp.point])
            for lp in res.lp],
        # the variables' values, then each clause's multipliers
        "affine_sha256": None if res.affine is None else _sha256(
            [list(v.vector) for v in res.affine.values]
            + [list(mult[t].vector) for mult in res.affine.multipliers
               for t in sorted(mult)]),
        "replay_arities": arities,
    }


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def main(keys: list[str]) -> int:
    every = {**CASES, **POLYMORPHISM_CASES}
    unknown = [k for k in keys if k not in every]
    if unknown:
        print(f"unknown cases {unknown}; known: {sorted(every)}",
              file=sys.stderr)
        return 2
    golden = load() if GOLDEN.exists() else {}
    verdict_changed = False
    for key in keys or every:
        new = record(key)
        old = golden.get(key)
        if old is None:
            print(f"new {key}")
        else:
            moved = [f for f in new if new[f] != old.get(f)]
            if {"verdict", "reason"} & set(moved):
                print(f"VERDICT CHANGED {key}")
                verdict_changed = True
            print(f"{key}: {', '.join(moved) or 'unchanged'}")
        golden[key] = new
    if verdict_changed:
        return 1
    golden = {k: golden[k] for k in every if k in golden}
    GOLDEN.write_text(jsonio.dumps(golden))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
