"""One workload in a fresh, single-threaded interpreter.

Run by `run.py`, never by hand:

    python3 perfbench/worker.py WORKLOAD SEED SECONDS --mode setup|timed|pass [--trace]

`setup` only imports the program and builds the inputs; `timed` then repeats
whole passes until SECONDS have elapsed; `pass` runs the first pass once,
which is the fixed operation set of a traced run.  With
`--trace` the layers are wrapped (see tracer.py) after the inputs are built.
The last stdout line is a JSON object for the launcher.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


class DeadlineMissed(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineMissed("operation missed its deadline")


def run_ops(ops, stats: dict, digest) -> None:
    """Run operations in order, timing each and checking its result."""
    from workloads import WrongAnswer

    for op in ops:
        t0 = perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
                out = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except WrongAnswer as e:
            stats["failed"] += 1
            stats["wrong"] += 1
            out = "WRONG"
            print(f"WRONG ANSWER in {op.label}: {e}", file=sys.stderr)
        except Exception as e:  # a reject, an error or a missed deadline
            stats["failed"] += 1
            out = "FAILED"
            print(f"failed {op.label}: {type(e).__name__}: {e}", file=sys.stderr)
        stats["times"].append(perf_counter() - t0)
        digest.update(f"{op.label}\0{out}\0".encode())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("seconds", type=float)
    ap.add_argument("--mode", choices=("setup", "timed", "pass"), required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    t0 = perf_counter()
    import pcsp.corpus  # noqa: F401  (builds and self-verifies every entry)
    import_s = perf_counter() - t0
    import numpy
    import workloads

    (HERE / "out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "out"))
    try:
        t0 = perf_counter()
        wl = workloads.build(args.workload, args.seed, scratch)
        gen_s = perf_counter() - t0
        if args.mode == "setup":
            print(json.dumps({"import_s": import_s, "gen_s": gen_s}))
            return 0

        tracer = None
        if args.trace:
            import tracer as tracer_mod
            tracer = tracer_mod.install()

        signal.signal(signal.SIGALRM, _on_alarm)
        stats = {"failed": 0, "wrong": 0, "times": []}
        digest = hashlib.sha256()
        passes = 0
        start = perf_counter()
        while True:
            run_ops(wl.passes[passes % len(wl.passes)], stats, digest)
            passes += 1
            if args.mode == "pass" or perf_counter() - start >= args.seconds:
                break
        wall_s = perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        layers = counters = None
        if tracer is not None:
            layers = tracer.metrics()
            layers["corpus.import_s"] = import_s
            counters = tracer.counters()

        # CLI stdout must equal a direct solve's output byte for byte
        for path, stdout in wl.cli_outputs.items():
            entry, instance = wl.cli_instances[path]
            if stdout != workloads.expected_cli_stdout(entry, instance):
                stats["wrong"] += 1
                print(f"WRONG ANSWER: pcsp solve stdout for {path} differs "
                      "from the in-process solve", file=sys.stderr)

        result = {
            "import_s": import_s,
            "gen_s": gen_s,
            "numpy": numpy.__version__,
            "attempted": len(stats["times"]),
            "failed": stats["failed"],
            "wrong": stats["wrong"],
            "times": stats["times"],
            "passes": passes,
            "wall_s": wall_s,
            "digest": digest.hexdigest(),
            "peak_rss_mb": peak_rss_mb,
            "layers": layers,
            "counters": counters,
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
