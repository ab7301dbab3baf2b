"""Self-tests of the benchmark harness; every workload runs at the smoke size.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == summary.UNITS
    assert spec["paths"] == ["bench"]


def test_self_times_subtract_direct_children():
    spans = [
        ["cli.main", 0, 10_000_000_000, None, None],
        ["ensemble.run_point", 1_000_000_000, 8_000_000_000, 0, None],
        ["models.sample", 2_000_000_000, 5_000_000_000, 1, None],
        ["trace.bookkeeping", 5_000_000_000, 6_000_000_000, 1, None],
    ]
    assert summary.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert measure.tail([1.0] * 10) is None
    t = measure.tail([float(i) for i in range(20)])
    assert t == {"percentile": 50.0, "value": 9.0}


def test_preflight_refuses_what_does_not_fit(monkeypatch, tmp_path):
    ops = workloads.build("sweep-large", "full", 1, tmp_path)
    monkeypatch.setattr(measure, "mem_available_bytes", lambda: 2**30)
    report = run.preflight(ops)
    assert not report["fits"]
    # er at n=10^4: 25 bytes per candidate pair, two workers in parallel.
    assert report["pair_bytes_computed"] == 2 * 25 * (10000 * 9999 // 2)


def test_index_check_catches_a_wrong_value(tmp_path):
    from mtindex.indices import ln_indices_from_arrays

    edges = tmp_path / "path3.edges"
    edges.write_text("3 2\n0 1\n1 2\n")
    deg, du, dv = np.array([1, 2, 1]), np.array([1, 2]), np.array([2, 1])
    mult, kinds = workloads.MULTIPLICATIVE, workloads.MULTIPLICATIVE + workloads.ADDITIVE
    values = {k: r.value for k, r in zip(mult, ln_indices_from_arrays(deg, du, dv, mult))}
    values.update({k: 1.0 for k in workloads.ADDITIVE})
    out = tmp_path / "index.csv"
    op = workloads.Op("index", "index", [], out, expect={"files": 1, "kinds": kinds})

    def write():
        rows = "".join(f"{edges},{k},t,{v!r},False,0,exclude\n" for k, v in values.items())
        out.write_text("file,index,value_type,value,log_zero,excluded,policy\n" + rows)

    write()
    assert checks.check(op, 0)[0] is None
    values["pi2"] *= 1 + 1e-6
    write()
    assert "pi2" in checks.check(op, 0)[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = summary.UNITS if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    detail = json.loads(detail_line)
    assert detail["env"]["mtindex_from"] == "src/mtindex/__init__.py"
    if trace == "1":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        accounted = sum(m[name] for name in summary.SELF_TIME.values())
        assert accounted == pytest.approx(m["trace.wall_s"], rel=1e-9)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "index-files", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
