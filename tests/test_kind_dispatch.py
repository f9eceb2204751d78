"""The pipeline never asks which kind of family it holds: each family
carries its relaxation `plan` and one `round(point, w)`, so `pipeline.py`
reads neither `.kind` nor any field that only some kinds have."""

from __future__ import annotations

import ast
from pathlib import Path

PIPELINE = Path(__file__).resolve().parent.parent / "src" / "pcsp" / "pipeline.py"
KIND_FIELDS = {"kind", "radicand", "modulus", "period", "affine_lattice",
               "thresholds", "partition", "cell_data"}


def test_pipeline_reads_no_kind_field():
    tree = ast.parse(PIPELINE.read_text(), filename=str(PIPELINE))
    found = [f"pipeline.py:{node.lineno}: .{node.attr}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in KIND_FIELDS]
    assert found == []
