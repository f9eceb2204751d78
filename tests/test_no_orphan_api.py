"""Every public top-level name and every public method of the library has a
caller in the library, so a deletion leaves no orphaned helper behind.  A
method counts as called when its name is read as an attribute anywhere in
the library outside its own definition."""

from __future__ import annotations

import ast
from functools import lru_cache
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
    # the benchmark's tracer wraps it as part of the integer-solver layer;
    # the per-relation lattices or the next benchmark change decide its fate
    "linalg.IntegerSolver.kernel_basis",
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


def _methods(tree: ast.Module):
    """("Class.method", node) for every public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


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


def _attributes(tree: ast.Module, skip: ast.AST | None = None):
    """Attribute names a module reads, outside the subtree `skip`: the only
    way a method is called."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and id(node) not in inside}


@lru_cache(maxsize=None)
def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


@lru_cache(maxsize=None)
def _reads(reader, stem: str) -> frozenset[str]:
    return frozenset(reader(_trees()[stem]))


def _public(tree: ast.Module):
    """(qualified name, node, reader) for every public top-level name and
    method; `reader` gives the names through which it can be called."""
    for name, node in _defined(tree):
        if not name.startswith("_"):
            yield name, node, _references
    for qualname, node in _methods(tree):
        yield qualname, node, _attributes


def _has_caller(stem: str, qualname: str, node: ast.AST, reader) -> bool:
    """Whether some module reads the name outside its definition `node`."""
    name = qualname.split(".")[-1]
    return (name in set(reader(_trees()[stem], node))
            or any(name in _reads(reader, other)
                   for other in _trees() if other != stem))


def test_every_public_name_has_a_caller():
    assert _trees()
    orphans = [f"{stem}.{qualname}"
               for stem, tree in _trees().items()
               for qualname, node, reader in _public(tree)
               if f"{stem}.{qualname}" not in ALLOWED
               and not _has_caller(stem, qualname, node, reader)]
    assert orphans == []


def test_allowed_names_exist_and_have_no_caller():
    # an allow-list entry whose name gained a caller or went away is stale
    for entry in ALLOWED:
        stem, qualname = entry.split(".", 1)
        public = {q: (node, reader) for q, node, reader in _public(_trees()[stem])}
        assert qualname in public, entry
        assert not _has_caller(stem, qualname, *public[qualname]), entry
