"""Child processes of the benchmark (no pcsp imports here)."""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_child(cmd: list, deadline_s: float) -> tuple[str, int]:
    """Run a child in the checkout to completion; (stdout, exit code).

    The child sees the checkout's sources and uses one numeric thread.  A
    child that misses its deadline is killed and reaped, then `TimeoutError`
    is raised.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise TimeoutError(f"{cmd[1]} missed its {deadline_s}s deadline") from None
    return stdout, proc.returncode
