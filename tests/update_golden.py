"""Golden outputs of the solver on fixed planted corpus instances.

Each case plants one instance of a corpus entry, solves it, and replays every
clause through the weighted-member oracle.  `record(key)` returns what the
golden file pins for that case: the verdict and reason, the sha256 of the
`pcsp solve` stdout, of each ring point and of the affine solution, and the
arity of each clause's replay.  `test_golden.py` compares these records with
`golden.json`.

Run from the repository root to rewrite the file:

    PYTHONPATH=src python tests/update_golden.py              # every case
    PYTHONPATH=src python tests/update_golden.py KEY [KEY...]   # these cases

A change regenerates only the cases whose outputs it is meant to change.
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
from pcsp.model import plant_satisfiable_instance
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


def record(key: str) -> dict:
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
        "affine_sha256": None if res.affine is None else _sha256(
            [list(v.vector) for v in res.affine.solution]),
        "replay_arities": arities,
    }


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def main(keys: list[str]) -> int:
    unknown = [k for k in keys if k not in CASES]
    if unknown:
        print(f"unknown cases {unknown}; known: {sorted(CASES)}",
              file=sys.stderr)
        return 2
    golden = load() if GOLDEN.exists() else {}
    for key in keys or CASES:
        golden[key] = record(key)
        print(f"updated {key}")
    golden = {k: golden[k] for k in CASES if k in golden}
    GOLDEN.write_text(jsonio.dumps(golden))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
