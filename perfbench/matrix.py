"""Slow-case matrix report: every corpus entry at fixed sizes, under a deadline.

    python3 perfbench/matrix.py [--label NAME]

Cases: all 7 corpus entries at (6, 4), (12, 10) and (25, 30), didactic at
(50, 100), and CLI start-up (a fresh-interpreter `import pcsp.corpus` and a
`pcsp solve` of didactic 12x10), all planted with seed 1.  Each solve runs
traced in this process under a 60 s SIGALRM deadline; a case that misses it
is recorded with status "timeout" and its time so far, and still counts.
Writes perfbench/reports/BENCH_<label>.json and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from common import ROOT, run_child

HERE = Path(__file__).resolve().parent
SIZES = ((6, 4), (12, 10), (25, 30))
SEED = 1            # the ROADMAP baseline's instances
DEADLINE_S = 60.0   # per case; reports are comparable only at one deadline
IMPORT_PROBE = ("from time import perf_counter as c; t = c(); "
                "import pcsp.corpus; print(c() - t)")


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout()


def solve_case(t, entry, n: int, m: int) -> dict:
    """One traced solve; `t` is the installed tracer."""
    import random

    import pcsp.model as model
    import pcsp.pipeline as pipeline
    import workloads

    inst, _ = model.plant_satisfiable_instance(entry.template, n, m,
                                               random.Random(SEED))
    case = {"entry": entry.name, "n": n, "m": m, "seed": SEED}
    if entry.family.kind == "thr":
        case["warm_infeasible"] = workloads.warm_point_infeasible(entry, inst)
    t.reset()
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        try:
            res = pipeline.solve(entry.template, inst, entry.family)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not res.accepted:
            case["status"] = "reject"
        elif model.verify_assignment(entry.template, inst, res.assignment) is None:
            case["status"] = "ok"
        else:
            case["status"] = "wrong"
    except Timeout:
        case["status"] = "timeout"
    case["wall_s"] = perf_counter() - t0
    layers = t.metrics()
    case["layers"] = {k: v for k, v in layers.items() if v}
    return case


def cli_cases() -> list[dict]:
    import random

    import pcsp.corpus as corpus
    import pcsp.jsonio as jsonio
    import pcsp.model as model

    e = corpus.entry("didactic")
    inst, _ = model.plant_satisfiable_instance(e.template, 12, 10, random.Random(SEED))
    out = []
    t0 = perf_counter()
    stdout, rc = run_child([sys.executable, "-c", IMPORT_PROBE], DEADLINE_S)
    out.append({"entry": "import pcsp.corpus", "status": "ok" if rc == 0 else "error",
                "wall_s": perf_counter() - t0, "import_s": float(stdout)})
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        path = Path(tmp) / "didactic-12x10.json"
        path.write_text(json.dumps(jsonio.instance_to_json(inst, e.template)))
        t0 = perf_counter()
        try:
            stdout, rc = run_child([sys.executable, "-m", "pcsp.cli", "solve",
                                    "didactic", "fam-gL", str(path)], DEADLINE_S)
            status = "ok" if rc == 0 else "reject"
        except TimeoutError:
            status = "timeout"
        out.append({"entry": "pcsp solve didactic", "n": 12, "m": 10,
                    "status": status, "wall_s": perf_counter() - t0})
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="matrix")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import pcsp.corpus as corpus
    import tracer
    from run import calibrate

    t = tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    cases = []
    plan = [(name, n, m) for name in corpus.names() for n, m in SIZES]
    plan.append(("didactic", 50, 100))
    for name, n, m in plan:
        case = solve_case(t, corpus.entry(name), n, m)
        cases.append(case)
        print(f"{name:<18} {n:>3}x{m:<4} {case['status']:<8} "
              f"{case['wall_s']:8.2f} s", flush=True)
    for case in cli_cases():
        cases.append(case)
        print(f"{case['entry']:<27} {case['status']:<8} {case['wall_s']:8.2f} s",
              flush=True)

    report = {
        "label": args.label,
        "machine": {"python": platform.python_version(), "numpy": numpy.__version__,
                    "nproc": os.cpu_count(), "calibration_s": calibrate()},
        "deadline_s": DEADLINE_S,
        "cases": cases,
    }
    (HERE / "reports").mkdir(exist_ok=True)
    path = HERE / "reports" / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0 if all(c["status"] in ("ok", "timeout") for c in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
