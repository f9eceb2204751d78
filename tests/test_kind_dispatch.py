"""The pipeline branches on `family.kind` in two places only: choosing the
relaxations (`relaxation_plan`) and reading a variable's values
(`_round_variable`).  Everything else works from the plan."""

from __future__ import annotations

import ast
from pathlib import Path

PIPELINE = Path(__file__).resolve().parent.parent / "src" / "pcsp" / "pipeline.py"
ALLOWED = {"relaxation_plan", "_round_variable"}


def test_pipeline_reads_kind_only_in_the_dispatchers():
    tree = ast.parse(PIPELINE.read_text(), filename=str(PIPELINE))
    names = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    assert ALLOWED <= names
    found = []
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in ALLOWED:
            continue
        found += [f"pipeline.py:{node.lineno}" for node in ast.walk(fn)
                  if isinstance(node, ast.Attribute) and node.attr == "kind"]
    assert found == []
