"""Per-layer timing and counters, measured from outside the program.

`install()` replaces public functions and methods of the `pcsp` modules with
wrappers that time each call and record counters, then return the result
untouched.  A function imported by name into another module is replaced in
that module too, so every caller goes through the wrapper.  Nothing under
`src/` is changed.  `install()` raises when a function it wraps no longer
exists, so a renamed layer fails the run instead of reading 0.

Span rules:
- a call into a layer that is already active (recursion, or a method calling
  another method of the same layer) belongs to the outer span;
- a layer's self time is its span time minus the time of spans it caused;
- counter hooks run outside the clock, so they do not inflate busy times.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# name, unit, better -- the metrics a traced run reports, in output order
METRICS = [
    ("simplex.calls", "count", "lower"),
    ("simplex.busy_s", "s", "lower"),
    ("simplex.rows_max", "count", "lower"),
    ("simplex.cols_max", "count", "lower"),
    ("linalg.hull.busy_s", "s", "lower"),
    ("linalg.hull.lp_calls", "count", "lower"),
    ("linalg.hull.implicit_rows", "count", "lower"),
    ("linalg.int_solver.busy_s", "s", "lower"),
    ("linalg.int_solver.rows_max", "count", "lower"),
    ("linalg.int_solver.cols_max", "count", "lower"),
    ("linalg.int_solver.kernel_dim_max", "count", "lower"),
    ("inthnf.calls", "count", "lower"),
    ("inthnf.busy_s", "s", "lower"),
    ("inthnf.cols_max", "count", "lower"),
    ("inthnf.h_bits_max", "bits", "lower"),
    ("linalg.affine.busy_s", "s", "lower"),
    ("linalg.affine.gfp_frac", "ratio", "higher"),
    ("linalg.check_point.calls", "count", "lower"),
    ("linalg.check_point.busy_s", "s", "lower"),
    ("lp.self_s", "s", "lower"),
    ("lp.point_bits_max", "bits", "lower"),
    ("lp.path.scaled_delta", "count", "higher"),
    ("lp.path.orthogonal", "count", "lower"),
    ("lp.no_ring_point", "count", "lower"),
    ("rings.dense.calls", "count", "lower"),
    ("rings.dense.busy_s", "s", "lower"),
    ("rings.dense.iters_max", "count", "lower"),
    ("model.build_lp.busy_s", "s", "lower"),
    ("model.build_affine.busy_s", "s", "lower"),
    ("model.warm_hit_frac", "ratio", "higher"),
    ("families.round.busy_s", "s", "lower"),
    ("families.member.calls", "count", "lower"),
    ("families.member.busy_s", "s", "lower"),
    ("pipeline.solve.self_s", "s", "lower"),
    ("pipeline.oracle.busy_s", "s", "lower"),
    ("pipeline.oracle.arity_max", "count", "lower"),
    ("corpus.import_s", "s", "lower"),
    ("jsonio.parse_s", "s", "lower"),
    ("jsonio.dump_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

FAMILY_CLASSES = ("ThresholdFamily", "PeriodicFamily", "ThresholdPeriodicFamily",
                  "RegionFamily", "RegionPeriodicFamily", "SimplexFamily")


class Tracer:
    """Open spans, busy and self times, and deterministic counters."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded; the installed wrappers stay."""
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxes = defaultdict(int)
        self.stack: list[list] = []       # [layer, start, child time]
        self.active: dict[str, int] = defaultdict(int)
        self.hook_s = 0.0                 # time spent in counter hooks
        self.hull_rows: list = []         # system.rows of each open hull call
        self.phase1_seen = False

    def now(self) -> float:
        return perf_counter() - self.hook_s

    def enter(self, layer: str) -> bool:
        if self.active[layer]:
            return False
        self.active[layer] += 1
        self.stack.append([layer, self.now(), 0.0])
        return True

    def leave(self) -> None:
        layer, start, child = self.stack.pop()
        self.active[layer] -= 1
        dur = self.now() - start
        self.busy[layer] += dur
        self.self_s[layer] += dur - child
        if self.stack:
            self.stack[-1][2] += dur

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def high(self, key: str, value: int) -> None:
        if value > self.maxes[key]:
            self.maxes[key] = value

    def wrap(self, fn, layer: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enter(layer):
                return fn(*args, **kwargs)
            tracer.count(layer + ".calls")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if hook is not None:
                t = perf_counter()
                hook(tracer, result, args, kwargs)
                tracer.hook_s += perf_counter() - t
            return result

        return wrapper

    def counters(self) -> dict:
        """Deterministic counters: everything that is not a time."""
        out = dict(self.counts)
        out.update(self.maxes)
        return dict(sorted(out.items()))

    def metrics(self) -> dict:
        """Per-layer metric values (times and counters), by metric name."""
        c, m, b, s = self.counts, self.maxes, self.busy, self.self_s

        def frac(num: str, den: str) -> float:
            return c[num] / c[den] if c[den] else 0.0

        return {
            "simplex.calls": c["simplex.calls"],
            "simplex.busy_s": b["simplex"],
            "simplex.rows_max": m["simplex.rows_max"],
            "simplex.cols_max": m["simplex.cols_max"],
            "linalg.hull.busy_s": b["linalg.hull"],
            "linalg.hull.lp_calls": c["linalg.hull.lp_calls"],
            "linalg.hull.implicit_rows": c["linalg.hull.implicit_rows"],
            "linalg.int_solver.busy_s": b["linalg.int_solver"],
            "linalg.int_solver.rows_max": m["linalg.int_solver.rows_max"],
            "linalg.int_solver.cols_max": m["linalg.int_solver.cols_max"],
            "linalg.int_solver.kernel_dim_max": m["linalg.int_solver.kernel_dim_max"],
            "inthnf.calls": c["inthnf.calls"],
            "inthnf.busy_s": b["inthnf"],
            "inthnf.cols_max": m["inthnf.cols_max"],
            "inthnf.h_bits_max": m["inthnf.h_bits_max"],
            "linalg.affine.busy_s": b["linalg.affine"],
            "linalg.affine.gfp_frac": frac("linalg.gfp.calls", "linalg.affine.calls"),
            "linalg.check_point.calls": c["linalg.check_point.calls"],
            "linalg.check_point.busy_s": b["linalg.check_point"],
            "lp.self_s": s["lp"],
            "lp.point_bits_max": m["lp.point_bits_max"],
            "lp.path.scaled_delta": c["lp.path.scaled-delta"],
            "lp.path.orthogonal": c["lp.path.orthogonal"],
            "lp.no_ring_point": c["lp.no_ring_point"],
            "rings.dense.calls": c["rings.dense.calls"],
            "rings.dense.busy_s": b["rings.dense"],
            "rings.dense.iters_max": m["rings.dense.iters_max"],
            "model.build_lp.busy_s": b["model.build_lp"],
            "model.build_affine.busy_s": b["model.build_affine"],
            "model.warm_hit_frac": frac("model.warm_hit", "model.warm_given"),
            "families.round.busy_s": b["families.round"],
            "families.member.calls": c["families.member.calls"],
            "families.member.busy_s": b["families.member"],
            "pipeline.solve.self_s": s["pipeline.solve"],
            "pipeline.oracle.busy_s": b["pipeline.oracle"],
            "pipeline.oracle.arity_max": m["pipeline.oracle.arity_max"],
            "jsonio.parse_s": b["jsonio.parse"],
            "jsonio.dump_s": b["jsonio.dump"],
            "cli.main_s": b["cli.main"],
        }


# ---------------------------------------------------------------------------
# Counter hooks: (tracer, result, args, kwargs) -> None
# ---------------------------------------------------------------------------


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs.get(name)


def _simplex_hook(t: Tracer, res, args, kwargs) -> None:
    rows, n_vars = args[0], args[2]
    t.high("simplex.rows_max", len(rows))
    t.high("simplex.cols_max", n_vars)
    # the hull's phase-I LP is the one on the system's own rows without an
    # objective; its other LPs have an objective or pass a longer copy
    objective = _arg(args, kwargs, 3, "objective")
    if objective is None and t.hull_rows and rows is t.hull_rows[-1]:
        t.phase1_seen = True


def _hull_hook(t: Tracer, res, args, kwargs) -> None:
    system = args[0]
    t.count("linalg.hull.lp_calls", res.lp_calls)
    if res.implicit is not None:
        t.count("linalg.hull.implicit_rows",
                sum(res.implicit) - 2 * len(system.eq_pairs))
    if _arg(args, kwargs, 1, "warm_point") is not None:
        t.count("model.warm_given")
        if not t.phase1_seen:
            t.count("model.warm_hit")


def _int_solver_init_hook(t: Tracer, res, args, kwargs) -> None:
    solver, srows, n_vars = args[0], args[1], args[2]
    t.high("linalg.int_solver.rows_max", len(srows))
    t.high("linalg.int_solver.cols_max", n_vars)
    t.high("linalg.int_solver.kernel_dim_max", n_vars - solver.result.rank)


def _hnf_hook(t: Tracer, res, args, kwargs) -> None:
    t.high("inthnf.cols_max", args[2])
    bits = 0
    for col in res.h_cols:
        for v in col.values():
            b = abs(v).bit_length()
            if b > bits:
                bits = b
    t.high("inthnf.h_bits_max", bits)


def _ring_point_hook(t: Tracer, res, args, kwargs) -> None:
    if res.point is not None:
        bits = max((max(abs(c.a).bit_length(), abs(c.b).bit_length())
                    for c in res.point), default=0)
        t.high("lp.point_bits_max", bits)
    path = res.transcript.get("path")
    if path is not None:
        t.count("lp.path." + path)
    if res.status == "no-ring-point-on-hull":
        t.count("lp.no_ring_point")


def _dense_hook(t: Tracer, res, args, kwargs) -> None:
    t.high("rings.dense.iters_max", res[1])


def _oracle_hook(t: Tracer, res, args, kwargs) -> None:
    t.high("pipeline.oracle.arity_max", res[1])


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _replace_everywhere(original, wrapper) -> None:
    """Bind `wrapper` wherever a pcsp module holds `original` by name."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "pcsp" or name.startswith("pcsp.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _wrap_function(tracer: Tracer, mod, attr: str, layer: str, hook=None) -> None:
    original = getattr(mod, attr, None)
    if original is None:
        raise AttributeError(f"cannot trace {mod.__name__}.{attr}: it does not exist")
    _replace_everywhere(original, tracer.wrap(original, layer, hook))


def _wrap_method(tracer: Tracer, cls, attr: str, layer: str, hook=None) -> None:
    original = cls.__dict__.get(attr)
    if original is None:
        raise AttributeError(f"cannot trace {cls.__qualname__}.{attr}: "
                             "it is not defined there")
    setattr(cls, attr, tracer.wrap(original, layer, hook))


def _wrap_hull(tracer: Tracer, linalg) -> None:
    """The hull span also remembers the system's rows, to tell a phase-I LP
    (the warm point was rejected) from the per-row slack LPs."""
    original = linalg.affine_hull_and_interior
    inner = tracer.wrap(original, "linalg.hull", _hull_hook)

    @functools.wraps(original)
    def hull(system, *args, **kwargs):
        tracer.hull_rows.append(system.rows)
        tracer.phase1_seen = False
        try:
            return inner(system, *args, **kwargs)
        finally:
            tracer.hull_rows.pop()

    _replace_everywhere(original, hull)


def install() -> Tracer:
    """Wrap every measured layer of the already importable `pcsp` package."""
    import pcsp.cli as cli
    import pcsp.families as families
    import pcsp.inthnf as inthnf
    import pcsp.jsonio as jsonio
    import pcsp.linalg as linalg
    import pcsp.lp as lp
    import pcsp.model as model
    import pcsp.pipeline as pipeline
    import pcsp.rings as rings
    import pcsp.simplex as simplex

    t = Tracer()
    _wrap_function(t, simplex, "solve_inequality_lp", "simplex", _simplex_hook)
    _wrap_hull(t, linalg)
    solver = linalg.IntegerSolver
    _wrap_method(t, solver, "__init__", "linalg.int_solver",
                 _int_solver_init_hook)
    _wrap_method(t, solver, "solve", "linalg.int_solver")
    _wrap_method(t, solver, "kernel_basis", "linalg.int_solver")
    _wrap_function(t, inthnf, "hnf_sparse", "inthnf", _hnf_hook)
    _wrap_function(t, linalg, "solve_lattice_quotient_system", "linalg.affine")
    # the rank-1 prime-modulus branch of the affine solve
    _wrap_function(t, linalg, "_solve_mod_p", "linalg.gfp")
    _wrap_method(t, linalg.InequalitySystem, "check_point",
                 "linalg.check_point")
    _wrap_function(t, lp, "ring_feasible_point", "lp", _ring_point_hook)
    # the dense search is the only place its iteration count is returned
    _wrap_function(t, rings, "_dense_search", "rings.dense", _dense_hook)
    _wrap_function(t, model, "build_basic_lp", "model.build_lp")
    _wrap_function(t, model, "build_affine_relaxation", "model.build_affine")
    for name in FAMILY_CLASSES:
        cls = getattr(families, name)
        _wrap_method(t, cls, "round", "families.round")
        _wrap_method(t, cls, "member", "families.member")
    _wrap_function(t, pipeline, "solve", "pipeline.solve")
    _wrap_function(t, pipeline, "weighted_apply_oracle", "pipeline.oracle",
                   _oracle_hook)
    for attr in ("template_from_json", "instance_from_json", "family_from_json",
                 "assignment_from_json"):
        _wrap_function(t, jsonio, attr, "jsonio.parse")
    for attr in ("dumps", "assignment_to_json"):
        _wrap_function(t, jsonio, attr, "jsonio.dump")
    _wrap_function(t, cli, "main", "cli.main")
    return t
