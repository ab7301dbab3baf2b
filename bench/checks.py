"""Output checks: an operation counts as failed unless its command's output passes.

Each checker returns ``(error, info)``: ``error`` is None on success or a
one-line reason, ``info`` holds what the result should record (digests,
exit codes, counts).
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

from workloads import MULTIPLICATIVE, Op

REL_TOL = 1e-9


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(op: Op, rc: int) -> tuple[str | None, dict]:
    if rc != 0:
        return f"exit code {rc}", {}
    if not op.out.is_file():
        return "no results CSV", {}
    info = {"sha256": _sha256(op.out)}
    rows = _rows(op.out)
    if len(rows) != op.expect["rows"]:
        return f"{len(rows)} rows, expected {op.expect['rows']}", info
    bad = [r for r in rows if not math.isfinite(float(r["mean_ln"]))]
    if bad:
        return f"{len(bad)} rows with non-finite mean_ln", info
    return None, info


def check_collapse(op: Op, rc: int) -> tuple[str | None, dict]:
    # 0 = every curve pair within tolerance, 1 = some pair outside: both are
    # answers.  Anything else is an error.
    info = {"exit_code": rc}
    if rc not in (0, 1):
        return f"exit code {rc}", info
    if not op.out.is_file():
        return "no collapse report", info
    return None, info


def check_verify(op: Op, rc: int) -> tuple[str | None, dict]:
    if rc != 0:
        return f"exit code {rc}", {}
    if not op.out.is_file():
        return "no report CSV", {}
    rows = _rows(op.out)
    info = {"checks": len(rows), "sha256": _sha256(op.out)}
    if len(rows) != op.expect["checks"]:
        return f"{len(rows)} checks, expected {op.expect['checks']}", info
    flagged = [r for r in rows if r["model"] == "counterexample" and r["hypothesis_ok"] == "False"]
    if len(flagged) != 1:
        return "counterexample row missing or not flagged", info
    return None, info


def check_generate(op: Op, rc: int) -> tuple[str | None, dict]:
    if rc != 0:
        return f"exit code {rc}", {}
    files = sorted(op.out.glob("*.edges"))
    info = {"files": len(files), "bytes": sum(f.stat().st_size for f in files)}
    if len(files) != op.expect["files"]:
        return f"{len(files)} edge-list files, expected {op.expect['files']}", info
    return None, info


def _degree_arrays(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    nums = np.array(path.read_text().split(), dtype=np.int64)
    n, m = int(nums[0]), int(nums[1])
    u, v = nums[2::2], nums[3::2]
    if u.shape[0] != m or v.shape[0] != m:
        raise ValueError(f"{path.name}: header declares m={m}, found {u.shape[0]} edges")
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    return deg, deg[u], deg[v]


def check_index(op: Op, rc: int) -> tuple[str | None, dict]:
    """Every ``ln`` value must match ``ln_indices_from_arrays`` on the file's degrees."""
    from mtindex.indices import ln_indices_from_arrays

    if rc != 0:
        return f"exit code {rc}", {}
    if not op.out.is_file():
        return "no index CSV", {}
    rows = _rows(op.out)
    kinds = op.expect["kinds"]
    info = {"rows": len(rows), "sha256": _sha256(op.out)}
    if len(rows) != op.expect["files"] * len(kinds):
        return f"{len(rows)} rows, expected {op.expect['files'] * len(kinds)}", info
    by_file: dict[str, dict[str, float]] = {}
    for r in rows:
        by_file.setdefault(r["file"], {})[r["index"]] = float(r["value"])
    for path, values in by_file.items():
        if set(values) != set(kinds):
            return f"{Path(path).name}: indices {sorted(values)}", info
        deg, du, dv = _degree_arrays(Path(path))
        expected = ln_indices_from_arrays(deg, du, dv, MULTIPLICATIVE)
        for kind, ref in zip(MULTIPLICATIVE, expected):
            got = values[kind]
            if not abs(got - ref.value) <= REL_TOL * abs(ref.value):
                return f"{Path(path).name}: {kind}={got!r}, bulk path gives {ref.value!r}", info
    return None, info


CHECKERS = {
    "sweep": check_sweep,
    "collapse": check_collapse,
    "verify": check_verify,
    "generate": check_generate,
    "index": check_index,
}


def check(op: Op, rc: int) -> tuple[str | None, dict]:
    try:
        return CHECKERS[op.kind](op, rc)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {exc}", {}
