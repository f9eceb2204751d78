"""Command-line front end.

Template and family arguments accept either a bundled corpus name (for
families, the family's own name such as "fam-gL" or "maj") or a path to a
JSON file.  All output is deterministic: JSON is emitted with sorted keys,
and the solver itself never samples.

Exit codes: 0 success, 1 REJECT / false / counterexample, 2 malformed input,
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import corpus, jsonio
from .families import InvalidArityError
from .lp import STATUS_OK, ring_feasible_point
from .model import (build_affine_relaxation, build_basic_lp,
                    check_polymorphism, plant_satisfiable_instance,
                    verify_assignment)
from .pipeline import LP_REJECTS, solve
from .rings import QuadRing, validate_radicand


class CliError(Exception):
    """Bad input: unknown name, unreadable file, schema violation."""


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"{path}: invalid JSON ({e})") from None


def load_template(arg: str):
    if arg in corpus.names():
        return corpus.entry(arg).template
    if Path(arg).exists():
        try:
            return jsonio.template_from_json(_load_json(arg))
        except jsonio.SchemaError as e:
            raise CliError(f"{arg}: {e}") from None
    raise CliError(f"unknown template {arg!r}: not a corpus entry or a file")


def load_family(arg: str):
    for name in corpus.names():
        fam = corpus.entry(name).family
        if fam.name == arg:
            return fam
    if Path(arg).exists():
        try:
            return jsonio.family_from_json(_load_json(arg))
        except jsonio.SchemaError as e:
            raise CliError(f"{arg}: {e}") from None
    known = sorted({corpus.entry(n).family.name for n in corpus.names()})
    raise CliError(f"unknown family {arg!r}: not one of {known} or a file")


def _load_pair(template_arg: str, family_arg: str):
    """The template and the family, which must share the strong domain; the
    family's outputs must lie in the template's weak domain."""
    template = load_template(template_arg)
    family = load_family(family_arg)
    if tuple(family.domain) != tuple(template.domain):
        raise CliError(f"family {family_arg!r} has domain {list(family.domain)}, "
                       f"template {template_arg!r} has {list(template.domain)}")
    if not set(family.outputs()) <= set(template.codomain):
        raise CliError(f"family {family_arg!r} has outputs "
                       f"{list(family.outputs())}, outside the weak domain "
                       f"{list(template.codomain)} of template {template_arg!r}")
    return template, family


def load_instance(arg: str, template):
    try:
        return jsonio.instance_from_json(_load_json(arg), template)
    except jsonio.SchemaError as e:
        raise CliError(f"{arg}: {e}") from None


def _parse_ring(spec: str) -> QuadRing:
    if not spec.startswith("zsqrt:"):
        raise CliError(f"unknown ring {spec!r}: expected zsqrt:<q>")
    try:
        q = int(spec.split(":", 1)[1])
    except ValueError:
        raise CliError(f"unknown ring {spec!r}: expected zsqrt:<q>") from None
    try:
        validate_radicand(q)
    except ValueError as e:
        raise CliError(str(e)) from None
    return QuadRing(q)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    template, family = _load_pair(args.template, args.family)
    instance = load_instance(args.instance, template)
    result = solve(template, instance, family)
    if not result.accepted:
        print(f"REJECT: {result.reason}")
        return 1
    print(jsonio.dumps(jsonio.assignment_to_json("Q", result.assignment)), end="")
    return 0


def _cmd_check_pol(args) -> int:
    template, family = _load_pair(args.template, args.family)
    try:
        member = family.member(args.arity)
    except InvalidArityError as e:
        print(f"INVALID ARITY: {e}")
        return 1
    report = check_polymorphism(member, template)
    if report.ok:
        print(f"OK: {member.name} is a polymorphism at arity {args.arity}")
        return 0
    print(f"COUNTEREXAMPLE: relation {report.relation}")
    for row in report.witness_rows:
        print(f"  row {list(row)}")
    print(f"  output {list(report.bad_output)} is outside the weak relation")
    return 1


def _cmd_verify(args) -> int:
    template = load_template(args.template)
    instance = load_instance(args.instance, template)
    try:
        side, values = jsonio.assignment_from_json(_load_json(args.assignment))
    except jsonio.SchemaError as e:
        raise CliError(f"{args.assignment}: {e}") from None
    if len(values) != instance.n_vars:
        raise CliError(
            f"{args.assignment}: {len(values)} values for {instance.n_vars} variables")
    bad = verify_assignment(template, instance, values,
                            side="strong" if side == "P" else "weak")
    if bad is None:
        print("OK")
        return 0
    print(f"FAIL: clause {bad} violated")
    return 1


def _cmd_gen(args) -> int:
    template = load_template(args.template)
    if args.n < 1 or args.m < 0:
        raise CliError("need n >= 1 and m >= 0")
    try:
        instance, _ = plant_satisfiable_instance(template, args.n, args.m,
                                                 random.Random(args.seed))
    except (ValueError, RuntimeError) as e:
        raise CliError(str(e)) from None
    print(jsonio.dumps(jsonio.instance_to_json(instance, template)), end="")
    return 0


def _cmd_relax(args) -> int:
    template, family = _load_pair(args.template, args.family)
    instance = load_instance(args.instance, template)
    plan = family.plan
    if args.dump == "lp":
        if not plan.radicands:
            raise CliError("purely periodic families have no LP relaxation")
        system, _ = build_basic_lp(template, instance, plan.lp_embedding)
        print(jsonio.dumps(jsonio.system_to_json(system)), end="")
        return 0
    # affine equation dump
    if plan.lattice is None:
        raise CliError(f"{family.kind} families have no affine relaxation")
    aff = build_affine_relaxation(template, instance, plan.lattice)
    print(jsonio.dumps(jsonio.affine_to_json(aff)), end="")
    return 0


def _cmd_lp(args) -> int:
    try:
        system = jsonio.system_from_json(_load_json(args.system))
    except jsonio.SchemaError as e:
        raise CliError(f"{args.system}: {e}") from None
    ring = _parse_ring(args.ring)
    res = ring_feasible_point(system, ring)
    if res.status == STATUS_OK:
        print(jsonio.dumps([jsonio.quad_to_json(v) for v in res.point]), end="")
        return 0
    print(f"REJECT: {LP_REJECTS[res.status]}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcsp",
        description="Exact promise-CSP solving: ring LPs, affine relaxations, "
                    "and block-symmetric rounding.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance and print an assignment")
    p.add_argument("template"), p.add_argument("family"), p.add_argument("instance")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("check-pol", help="test a family member against a template")
    p.add_argument("template"), p.add_argument("family")
    p.add_argument("--arity", type=int, required=True)
    p.set_defaults(fn=_cmd_check_pol)

    p = sub.add_parser("verify", help="check an assignment against an instance")
    p.add_argument("template"), p.add_argument("instance"), p.add_argument("assignment")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gen", help="generate a planted satisfiable instance")
    p.add_argument("template")
    p.add_argument("--n", type=int, required=True, help="variable count")
    p.add_argument("--m", type=int, required=True, help="clause count")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("relax", help="dump a relaxation as JSON")
    p.add_argument("template"), p.add_argument("family"), p.add_argument("instance")
    p.add_argument("--dump", choices=("lp", "le"), required=True)
    p.set_defaults(fn=_cmd_relax)

    p = sub.add_parser("lp", help="find a ring point of an inequality system")
    p.add_argument("system")
    p.add_argument("--ring", default="zsqrt:2", help="ring spec, e.g. zsqrt:2")
    p.set_defaults(fn=_cmd_lp)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:     # a broken invariant is not a verdict
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
