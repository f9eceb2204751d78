"""Workload inputs and operations.

Every workload is a list of passes; a pass is a list of operations.  Inputs
come only from the seed, through `random.Random`, and the program sees only
the generated instances and systems.  A run repeats whole passes, so every
run measures the same mix of operations whatever its length.

An operation is one unit of user-visible work together with the check of its
result.  It returns a canonical text of its output (hashed by the worker) or
raises: `WrongAnswer` for an output that fails its check, anything else for a
reject, an error or a missed deadline.

Program functions are looked up through their modules at call time, so a
traced run goes through the wrappers that `tracer.install` put in place.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import pcsp.cli as cli
import pcsp.corpus as corpus
import pcsp.jsonio as jsonio
import pcsp.linalg as linalg
import pcsp.lp as lp
import pcsp.model as model
import pcsp.pipeline as pipeline
import pcsp.rings as rings

# distinct passes generated per run, enough for a fast machine to measure 20 s
# without repeating one; a longer run starts over
PASSES = {"didactic-sweep": 6, "lp-cold": 12, "corpus-mix": 24}


class WrongAnswer(Exception):
    """The program returned an output that fails the benchmark's check."""


class Rejected(Exception):
    """The program rejected an instance that is satisfiable by construction."""


@dataclass
class Op:
    label: str
    run: Callable[[], str]
    deadline_s: float


# ---------------------------------------------------------------------------
# Checks and single operations
# ---------------------------------------------------------------------------


def _check_weak(template, instance, values) -> None:
    """The benchmark's own check that an assignment satisfies the weak side."""
    if len(values) != instance.n_vars:
        raise WrongAnswer(f"assignment has {len(values)} values for "
                          f"{instance.n_vars} variables")
    for i, cl in enumerate(instance.clauses):
        rel = template.relations[cl.relation]
        if tuple(values[v] for v in cl.variables) not in rel.weak:
            raise WrongAnswer(f"clause {i} violated on the weak side")


def _solve_op(label: str, entry, instance, deadline_s: float,
              results: dict | None = None, key=None) -> Op:
    """Solve and verify; the result is kept in `results` for later replays.

    The previous result under `key` is dropped first, so a replay after a
    failed solve fails too instead of replaying another pass's instance.
    """
    def run() -> str:
        if results is not None:
            results.pop(key, None)
        res = pipeline.solve(entry.template, instance, entry.family)
        if not res.accepted:
            raise Rejected(res.reason)
        if model.verify_assignment(entry.template, instance, res.assignment) is not None:
            raise WrongAnswer("verify_assignment found a violated clause")
        _check_weak(entry.template, instance, res.assignment)
        if results is not None:
            results[key] = res
        return repr(res.assignment)
    return Op(label, run, deadline_s)


def _oracle_op(label: str, entry, instance, results: dict, key, j: int,
               deadline_s: float) -> Op:
    def run() -> str:
        res = results.get(key)
        if res is None:
            raise RuntimeError("the solve this replay depends on failed")
        out, arity = pipeline.weighted_apply_oracle(entry.template, instance,
                                                    entry.family, res, j)
        expected = tuple(res.assignment[v] for v in instance.clauses[j].variables)
        if tuple(out) != expected:
            raise WrongAnswer(f"replay of clause {j} gave {out}, rounded {expected}")
        return repr((tuple(out), arity))
    return Op(label, run, deadline_s)


def _ring_lp_op(label: str, system, deadline_s: float) -> Op:
    def run() -> str:
        res = lp.ring_feasible_point(system, rings.QuadRing(2))
        if res.status != lp.STATUS_OK:
            raise Rejected(res.status)
        if not system.check_point(res.point):
            raise WrongAnswer("ring point fails exact substitution")
        return repr([(c.a, c.b) for c in res.point])
    return Op(label, run, deadline_s)


def _cli_op(label: str, entry, instance, path: Path, outputs: dict,
            deadline_s: float) -> Op:
    """`pcsp solve` through `cli.main`, in process; its stdout must verify.

    `outputs` keeps the stdout per instance file, so the worker can compare
    it byte for byte with a direct `pipeline.solve` after the timed loop.
    """
    argv = ["solve", entry.name, entry.family.name, str(path)]

    def run() -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        stdout = buf.getvalue()
        if rc != 0:
            raise Rejected(f"pcsp solve exited {rc}: {stdout[:200]!r}")
        try:
            side, values = jsonio.assignment_from_json(json.loads(stdout))
        except (ValueError, jsonio.SchemaError) as e:
            raise WrongAnswer(f"unparsable solve output: {e}") from None
        if side != "Q":
            raise WrongAnswer(f"assignment for side {side}, expected Q")
        _check_weak(entry.template, instance, values)
        previous = outputs.setdefault(str(path), stdout)
        if previous != stdout:
            raise WrongAnswer("stdout differs between repeats of one instance")
        return stdout
    return Op(label, run, deadline_s)


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def schedule_size(i: int) -> tuple[int, int]:
    """Criterion 1's i-th size, i = 1..100: n = 6..50, m = 4..100."""
    t = Fraction(i - 1, 99)
    return 6 + round(44 * t * t), 4 + round(96 * t * t)


def _plant(entry, n: int, m: int, rng: random.Random):
    inst, _ = model.plant_satisfiable_instance(entry.template, n, m,
                                               random.Random(rng.getrandbits(64)))
    return inst


SCALAR = {0: (Fraction(0),), 1: (Fraction(1),)}


def warm_point_infeasible(entry, instance) -> bool:
    """Exact test: does the barycentric warm point violate the basic LP?"""
    system, layout = model.build_basic_lp(entry.template, instance, SCALAR)
    warm = model.barycentric_warm_point(entry.template, instance, layout, SCALAR)
    return not system.check_point(warm)


def planted_ring_system(rng: random.Random):
    """Criterion 2's planted rational system: an integer point satisfies it."""
    n = rng.randrange(2, 7)
    m = rng.randrange(1, 13)
    z = [rng.randrange(-5, 6) for _ in range(n)]
    system = linalg.InequalitySystem(n)
    for _ in range(m):
        row = {j: rng.randrange(-6, 7) for j in range(n) if rng.random() < 0.8}
        lhs = sum(c * z[j] for j, c in row.items())
        den = rng.randrange(1, 7)
        system.add_le({j: Fraction(c, den) for j, c in row.items()},
                      Fraction(lhs + rng.randrange(0, 9), den))
    return system


# didactic-sweep: criterion 1's largest size, then twelve instances of one
# smaller size; with one size the median cannot land on a boundary between
# size classes, where it would jump from run to run
DIDACTIC_LARGE = 100
DIDACTIC_SMALL = 37
DIDACTIC_SMALL_COUNT = 12
# lp-cold: twosat instances whose warm point is infeasible, so the hull LPs run
LP_COLD_SIZE = (4, 2)
LP_COLD_PER_PASS = 4
# corpus-mix: the entries the other workloads skip, each solve followed by an
# oracle replay of every clause; cold criterion-2 ring LPs; and one
# `pcsp solve` through the CLI entry point, rotating over the same entries
MIX_SOLVES = (("didactic", 12, 10), ("two-plus-eps-sat", 25, 30),
              ("mod7-sandwich", 25, 30), ("one-in-three-malt", 25, 30),
              ("rainbow", 25, 30))
MIX_RING_LPS = 20
MIX_CLI_SIZE = (12, 10)


@dataclass
class Workload:
    passes: list[list[Op]]
    cli_outputs: dict       # instance file -> stdout of the CLI solves
    cli_instances: dict     # instance file -> (entry, instance)


def build(name: str, seed: int, scratch: Path) -> Workload:
    """All passes of one workload for one seed; instance files go to scratch."""
    rng = random.Random(f"{name}/{seed}")
    results: dict = {}      # solve results of the current pass, for replays
    wl = Workload([], {}, {})
    if name not in PASSES:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(PASSES)}")
    for p in range(PASSES[name]):
        ops: list[Op] = []
        if name == "didactic-sweep":
            e = corpus.entry("didactic")
            for i in (DIDACTIC_LARGE,) + (DIDACTIC_SMALL,) * DIDACTIC_SMALL_COUNT:
                n, m = schedule_size(i)
                inst = _plant(e, n, m, rng)
                ops.append(_solve_op(f"didactic {n}x{m}", e, inst, 60.0))
        elif name == "lp-cold":
            e = corpus.entry("twosat")
            while len(ops) < LP_COLD_PER_PASS:
                inst = _plant(e, *LP_COLD_SIZE, rng)
                if warm_point_infeasible(e, inst):
                    ops.append(_solve_op("twosat %dx%d" % LP_COLD_SIZE, e, inst,
                                         60.0))
        elif name == "corpus-mix":
            for k, (entry_name, n, m) in enumerate(MIX_SOLVES):
                e = corpus.entry(entry_name)
                inst = _plant(e, n, m, rng)
                ops.append(_solve_op(f"{entry_name} {n}x{m}", e, inst, 30.0,
                                     results, k))
                for j in range(m):
                    ops.append(_oracle_op(f"{entry_name} replay", e, inst,
                                          results, k, j, 30.0))
            for _ in range(MIX_RING_LPS):
                system = planted_ring_system(random.Random(rng.getrandbits(64)))
                ops.append(_ring_lp_op("ring lp", system, 30.0))
            e = corpus.entry(MIX_SOLVES[p % len(MIX_SOLVES)][0])
            inst = _plant(e, *MIX_CLI_SIZE, rng)
            path = scratch / f"instance-{p}.json"
            path.write_text(json.dumps(jsonio.instance_to_json(inst, e.template)))
            wl.cli_instances[str(path)] = (e, inst)
            ops.append(_cli_op(f"cli {e.name}", e, inst, path, wl.cli_outputs, 30.0))
        wl.passes.append(ops)
    return wl


def expected_cli_stdout(entry, instance) -> str:
    """What `pcsp solve` must print, computed in process."""
    res = pipeline.solve(entry.template, instance, entry.family)
    return jsonio.dumps(jsonio.assignment_to_json("Q", res.assignment))
