"""Every public top-level name of the library has a caller in the library,
so a deletion leaves no orphaned helper behind."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pcsp"

# public names kept without a caller in the library, each with its reason
ALLOWED = {
    # the JSON emitters, round-trip partners of the parsers
    "jsonio.template_to_json",
    "jsonio.family_to_json",
    # the weighted-oracle replay of one rounded clause, the paper's check
    # that a member outputs the rounded values; callers use it on a result
    "pipeline.weighted_apply_oracle",
}


def _defined(tree: ast.Module):
    """(name, node) for every public name bound at the module's top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _annotation_strings(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        else:
            continue
        if ann is not None:
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub


def _references(tree: ast.Module, skip: ast.AST | None = None):
    """Names a module reads, outside the subtree `skip`."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
    # a quoted annotation names its types inside a string
    for node in _annotation_strings(tree):
        if id(node) not in inside:
            expr = ast.parse(node.value, mode="eval")
            yield from (n.id for n in ast.walk(expr) if isinstance(n, ast.Name))


def test_every_public_name_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert trees
    elsewhere = {stem: {name for other, tree in trees.items() if other != stem
                        for name in _references(tree)}
                 for stem in trees}
    orphans = []
    for stem, tree in trees.items():
        for name, node in _defined(tree):
            if name.startswith("_") or f"{stem}.{name}" in ALLOWED:
                continue
            if name not in elsewhere[stem] and name not in _references(tree, node):
                orphans.append(f"{stem}.{name}")
    assert orphans == []


def test_allowed_names_exist_and_have_no_caller():
    # an allow-list entry whose name gained a caller or went away is stale
    for entry in ALLOWED:
        stem, name = entry.split(".")
        tree = ast.parse((SRC / f"{stem}.py").read_text())
        defined = dict(_defined(tree))
        assert name in defined, entry
        assert name not in set(_references(tree, defined[name])), entry
