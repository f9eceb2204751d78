"""The benchmark's tracer wraps layers of `pcsp` by name; a renamed or
moved layer must fail here rather than only when the benchmark runs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_finds_every_layer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", "import tracer; tracer.install()"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_solve_reaches_every_wrapped_layer_once_per_instance():
    # a two-radicand solve builds one basic LP, runs one hull and one hull
    # HNF, and still passes each radicand's lift through the traced
    # ring_feasible_point.  The template's first solve also builds the one
    # relation lattice it uses, one more HNF, and keeps it for the next.
    script = """
import random
import tracer
from pcsp import corpus, pipeline
from pcsp.model import plant_satisfiable_instance
e = corpus.entry("one-in-three-malt")
t = tracer.install()
for seed in (2, 1):
    inst, _ = plant_satisfiable_instance(e.template, 12, 10, random.Random(seed))
    t.reset()
    assert pipeline.solve(e.template, inst, e.family).accepted
    c = t.counters()
    print(c["lp.calls"], c["linalg.hull.calls"], c["model.build_lp.calls"],
          c["inthnf.calls"])
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["2 1 1 2", "2 1 1 1"]
