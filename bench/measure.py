"""Running CLI commands as child processes, and the run's environment record.

Every command is started in its own session and reaped with ``os.wait4``, so
its rusage covers the command and every pool worker it reaped: ``ru_maxrss``
is the largest single process among them (not a sum), and user+sys is the
CPU of all of them.
"""

from __future__ import annotations

import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Proc:
    """Outcome of one child command."""

    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    timed_out: bool = False


def child_env(root: Path) -> dict:
    """The environment for ``python -m mtindex.cli``: the checkout's ``src/`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(argv: list[str], env: dict, timeout_s: float) -> Proc:
    """Run ``mtindex <argv>`` to completion (or kill it after ``timeout_s``)."""
    cmd = [sys.executable, "-m", "mtindex.cli", *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    timed_out = False
    deadline = start + max(timeout_s, 0.0)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() >= deadline:
            timed_out = True
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, timed_out)


def mem_available_bytes() -> int | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root: Path) -> dict:
    """Versions, backend, CPUs, free memory and where ``mtindex`` was imported from.

    Puts the checkout's ``src/`` first on ``sys.path`` and imports ``mtindex``
    from it; raises ``RuntimeError`` when it is missing or another copy would
    be used instead.
    """
    src = root / "src"
    if not (src / "mtindex" / "__init__.py").is_file():
        raise RuntimeError(f"no mtindex sources under {src}")
    sys.path.insert(0, str(src))
    import mpmath
    import numpy
    import mtindex

    where = Path(mtindex.__file__).resolve()
    if src.resolve() not in where.parents:
        raise RuntimeError(f"mtindex imported from {where}, not from {src}")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "mtindex": mtindex.__version__,
        "mtindex_from": str(where.relative_to(root.resolve())),
        "pythonpath": "src",
        "nproc": len(os.sched_getaffinity(0)),
        "mem_available_bytes": mem_available_bytes(),
        "git_commit": _git_commit(root),
    }


def median(xs: list[float]) -> float:
    return statistics.median(xs)


def tail(xs: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it, or None if N < 11."""
    if len(xs) < 11:
        return None
    ordered = sorted(xs)
    i = len(ordered) - 11
    return {"percentile": 100.0 * (i + 1) / len(ordered), "value": ordered[i]}


def timing(xs: list[float]) -> dict:
    return {"median": median(xs), "tail": tail(xs), "samples": len(xs)}
