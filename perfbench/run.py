"""Exact-solve benchmark: one command per workload, every result checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: didactic-sweep, lp-cold, corpus-mix (see README.md).
Each workload runs in a fresh single-threaded interpreter (worker.py) on
inputs made from the seed.  `--trace 0` prints the end-to-end metrics.
`--trace 1` runs the first pass three times in fresh interpreters (traced,
untraced, traced), checks that the traced runs repeat their counters and
that all three repeat their output hashes, and prints the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The workloads are chosen so that no operation fails:
a failed operation (a reject, an error or a missed deadline), a wrong answer
or a nondeterministic trace prints correct: false and exits 1; a missing
program or a crashed worker exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from statistics import median
from time import perf_counter

import tracer
from common import ROOT, run_child

WORKLOADS = ("didactic-sweep", "lp-cold", "corpus-mix")
END_TO_END = (("op_s.p50", "s"), ("ops_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 3       # fresh-interpreter set-ups per run; the median is reported
RUN_DEADLINE_S = 170    # the whole run, all children included


class BenchError(Exception):
    pass


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop, to see machine drift across runs.

    Reported next to the metrics, never used to scale them.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - t0


def worker(args, mode: str, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), args.workload,
           str(args.seed), str(args.seconds), "--mode", mode]
    if trace:
        cmd.append("--trace")
    try:
        stdout, rc = run_child(cmd, deadline - perf_counter())
    except TimeoutError as e:
        raise BenchError(str(e)) from None
    lines = stdout.strip().splitlines()
    if rc != 0 or not lines:
        raise BenchError(f"worker ({mode}) exited {rc}")
    return json.loads(lines[-1])


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = [worker(args, "setup", False, deadline)
              for _ in range(SETUP_SAMPLES - 1)]
    w = worker(args, "timed", False, deadline)
    setups.append(w)
    completed = w["attempted"] - w["failed"]
    metrics = {
        "op_s.p50": median(w["times"]),
        "ops_per_s": completed / w["wall_s"],
        "setup_s": median(s["import_s"] + s["gen_s"] for s in setups),
        "peak_rss_mb": w["peak_rss_mb"],
    }
    info = {"passes": w["passes"], "timed_wall_s": w["wall_s"],
            "import_s": [s["import_s"] for s in setups],
            "gen_s": [s["gen_s"] for s in setups]}
    return metrics, {"workers": [w], "info": info, "numpy": w["numpy"]}


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    # untraced between the traced runs, so a slow drift of the machine
    # biases the overhead estimate less
    a = worker(args, "pass", True, deadline)
    plain = worker(args, "pass", False, deadline)
    b = worker(args, "pass", True, deadline)
    problems = []
    if a["counters"] != b["counters"]:
        keys = sorted(k for k in set(a["counters"]) | set(b["counters"])
                      if a["counters"].get(k) != b["counters"].get(k))
        problems.append(f"counters differ between traced runs: {keys}")
    if not a["digest"] == b["digest"] == plain["digest"]:
        problems.append("output hashes differ between runs of one seed")
    metrics = {}
    for name, _, _ in tracer.METRICS:
        if name == "trace.overhead_s":
            metrics[name] = (a["wall_s"] + b["wall_s"]) / 2 - plain["wall_s"]
        else:
            metrics[name] = (a["layers"][name] + b["layers"][name]) / 2
    info = {"untraced_wall_s": plain["wall_s"],
            "traced_wall_s": [a["wall_s"], b["wall_s"]],
            "ops_per_pass": plain["attempted"], "deterministic": not problems}
    return metrics, {"workers": [plain, a, b], "info": info,
                     "numpy": plain["numpy"], "problems": problems}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = perf_counter() + RUN_DEADLINE_S

    if not (ROOT / "src" / "pcsp" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'pcsp'}", file=sys.stderr)
        return 2
    machine = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "affinity": len(os.sched_getaffinity(0)),
               "calibration_s": calibrate()}
    try:
        if args.trace:
            metrics, detail = per_layer(args, deadline)
        else:
            metrics, detail = end_to_end(args, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    machine["numpy"] = detail["numpy"]

    workers = detail["workers"]
    problems = detail.get("problems", [])
    wrong = sum(w["wrong"] for w in workers)
    if wrong:
        problems.append(f"{wrong} wrong answers")
    failed = sum(w["failed"] for w in workers)
    if failed:
        problems.append(f"{failed} failed operations (see stderr)")
    if args.trace:
        units = {name: unit for name, unit, _ in tracer.METRICS}
    else:
        units = dict(END_TO_END)

    print("machine: " + json.dumps(machine))
    print(f"workload {args.workload} seed {args.seed}: " + json.dumps(detail["info"]))
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
