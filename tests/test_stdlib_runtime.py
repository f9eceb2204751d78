"""The library runs on the standard library alone: no third-party import."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

from pcsp.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# a child interpreter in which `import numpy` raises ImportError
_NO_NUMPY = ("import sys; sys.modules['numpy'] = None; "
             "from pcsp.cli import main; sys.exit(main(sys.argv[1:]))")


def _imported_roots(tree: ast.AST) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_library_imports_only_stdlib_and_itself():
    sources = sorted((SRC / "pcsp").glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}: {root}" for root in sorted(_imported_roots(tree))
                  if root != "pcsp" and root not in sys.stdlib_module_names]
    assert found == []


def _run_without_numpy(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", _NO_NUMPY, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_solve_without_numpy_matches_in_process(tmp_path, capsys):
    inst = tmp_path / "i.json"
    assert main(["gen", "didactic", "--n", "12", "--m", "10", "--seed", "1"]) == 0
    inst.write_text(capsys.readouterr().out)
    argv = ["solve", "didactic", "fam-gL", str(inst)]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    child = _run_without_numpy(*argv)
    assert child.stderr == ""
    assert (child.returncode, child.stdout) == (0, expected)
