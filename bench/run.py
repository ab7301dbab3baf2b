"""mtindex benchmark: run one workload through the real CLI and report its metrics.

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout and measures that checkout's ``src/``
(``PYTHONPATH=src``; nothing needs to be installed).  With ``--trace 0`` it
repeats the workload's pass of ``python -m mtindex.cli`` commands until
``--seconds`` have elapsed and at least three passes have run, checks every
command's output, and reports the end-to-end metrics (per-command medians
over passes).  With ``--trace 1`` it runs the same
commands in-process through ``cli.main`` with one worker, untraced and then
traced, and reports the per-layer metrics (see summary.py).

Prints a human-readable table, then one JSON line of details (environment,
digests, per-command samples), then, as the last line, the result:
``{"correct", "attempted", "failed", "metrics"}``.  Exits 0 when a result was
measured, 1 when the memory preflight refused the workload, 2 on bad usage or
when the checkout has no ``src/mtindex``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

import checks
import measure
import summary
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
HARD_LIMIT_S = 170.0       # every run ends well inside the 180 s allowed
SETUP_RUNS = 5             # timed no-work invocations per run, after one warm-up
MIN_PASSES = 3             # passes per run at least, so per-command medians reject outliers
MEMORY_SHARE = 0.8         # refuse a workload whose computed arrays exceed this share
PROCESS_BASE_BYTES = 200 * 2**20   # interpreter + numpy + mpmath, per process

END_TO_END = {
    "wall_s": "s",
    "replicas_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
    "setup_s": "s",
}


class Run:
    """Operation counts and failure reasons of one benchmark run."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {error}")

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def _fresh(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)


def _same_digest(first: dict, label: str, info: dict) -> str | None:
    digest = info.get("sha256")
    if digest is None:
        return None
    if first.setdefault(label, digest) != digest:
        return "output differs from the first pass of this run"
    return None


def preflight(ops: list[workloads.Op]) -> dict:
    """Computed (not measured) O(n^2) bytes against MemAvailable."""
    pair_bytes = workloads.computed_pair_bytes(ops)
    need = pair_bytes + PROCESS_BASE_BYTES * (max(op.workers for op in ops) + 1)
    available = measure.mem_available_bytes()
    fits = available is None or need <= MEMORY_SHARE * available
    return {"pair_bytes_computed": pair_bytes, "need_bytes_computed": need,
            "mem_available_bytes": available, "fits": fits}


def untraced(args, run: Run, work: Path) -> tuple[dict, dict]:
    env = measure.child_env(ROOT)
    setup = []
    for i in range(SETUP_RUNS + 1):
        proc = measure.run_cli(["--help"], env, run.remaining())
        run.record("setup --help", None if proc.rc == 0 else f"exit code {proc.rc}")
        if i:
            setup.append(proc.wall_s)

    ops = workloads.build(args.workload, args.size, args.seed, work)
    first_digest: dict = {}
    passes, per_op, collapse_rc = [], {op.label: [] for op in ops}, []
    start = time.perf_counter()
    while True:
        _fresh(work)
        walls, pass_start = [], time.perf_counter()
        for op in ops:
            proc = measure.run_cli(op.resolved_argv(), env, run.remaining())
            error, info = checks.check(op, proc.rc)
            if proc.timed_out:
                error = "timed out"
            error = error or _same_digest(first_digest, op.label, info)
            run.record(op.label, error)
            walls.append(proc.wall_s)
            per_op[op.label].append({"wall_s": proc.wall_s, "cpu_s": proc.cpu_s,
                                     "maxrss_mb": proc.maxrss_mb, **info})
            if "exit_code" in info:
                collapse_rc.append(info["exit_code"])
        passes.append(sum(walls))
        took = time.perf_counter() - pass_start
        done = len(passes) >= MIN_PASSES and time.perf_counter() - start >= args.seconds
        if run.failures or done or run.remaining() < 2.0 * took + 5.0:
            break

    # Per-command medians over passes, summed over the pass: one slow
    # execution of one command does not move the result.
    med = measure.median
    wall = sum(med([s["wall_s"] for s in samples]) for samples in per_op.values())
    metrics = {
        "wall_s": (wall, "s"),
        "replicas_per_s": (sum(op.replicas for op in ops) / wall, "1/s"),
        "peak_rss_mb": (max(med([s["maxrss_mb"] for s in samples])
                            for samples in per_op.values()), "MB"),
        "cpu_s": (sum(med([s["cpu_s"] for s in samples]) for samples in per_op.values()), "s"),
        "setup_s": (med(setup), "s"),
    }
    extra = {"fail_ratio": (len(run.failures) / run.attempted, "ratio")}
    if args.workload == "verify-corpus":
        extra["checks_per_s"] = (ops[0].expect["checks"] / wall, "1/s")
    if args.workload == "index-files":
        extra["files_per_s"] = (ops[0].expect["files"] / wall, "1/s")
    detail = {
        "passes": len(passes),
        "pass_wall_s": measure.timing(passes),
        "op_wall_s": {label: measure.timing([s["wall_s"] for s in samples])
                      for label, samples in per_op.items()},
        "setup_s": measure.timing(setup),
        "per_op": per_op,
        "collapse_exit_codes": collapse_rc,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }
    return {**metrics, **extra}, detail


def traced(args, run: Run, work: Path) -> tuple[dict, dict]:
    ops = workloads.build(args.workload, args.size, args.seed, work, traced=True)
    first_digest: dict = {}

    def one_pass(tracer: tracing.Tracer | None = None) -> float:
        _fresh(work)
        total = 0.0
        for op in ops:
            rc, wall = tracing.run_command(op.resolved_argv(), tracer)
            error, info = checks.check(op, rc)
            label = op.label if tracer is None else f"traced {op.label}"
            run.record(label, error or _same_digest(first_digest, op.label, info))
            total += wall
        return total

    walls = []
    start = time.perf_counter()
    while True:
        walls.append(one_pass())
        enough = len(walls) >= 2 and time.perf_counter() - start >= args.seconds / 2
        if run.failures or enough or run.remaining() < 4 * walls[-1] + 10:
            break
    if run.remaining() < 3 * walls[-1] + 10:
        run.record("traced pass", "no time left for the traced pass")
        return {}, {"untraced_walls": walls}
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as untraced_names:
        one_pass(tracer)
    # One more reference pass after the traced one, so that a change in
    # machine speed during the run does not land in trace.overhead_s.
    if run.remaining() > 2 * walls[-1] + 10:
        walls.append(one_pass())
    # The first in-process pass also warms caches the later passes find warm
    # (mpmath constants, lazy imports), so it is not a reference.
    untraced_walls = walls[1:] or walls

    dump = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "warmup_wall": walls[0], "untraced_walls": untraced_walls,
        "peak_alloc_bytes": tracing.peak_alloc_bytes(ops, args.seed),
        "pair_bytes_computed": workloads.computed_pair_bytes(ops),
        "spans": tracer.spans,
    }
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    dump_path = traces / f"{args.workload}-s{args.seed}.json"
    dump_path.write_text(json.dumps(dump))
    metrics = summary.summarize(dump)
    detail = {"untraced_walls": untraced_walls, "spans": len(tracer.spans),
              "not_wrapped": untraced_names,
              "span_dump": str(dump_path.relative_to(ROOT))}
    return {k: (v, summary.UNITS[k]) for k, v in metrics.items()}, detail


def _table(metrics: dict) -> list[str]:
    return [f"{name:<34}{value:>16.6g}  {unit}" for name, (value, unit) in metrics.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'smoke' runs every workload in seconds, for the benchmark's tests")
    args = parser.parse_args(argv)

    run = Run(time.perf_counter() + HARD_LIMIT_S)
    try:
        env = measure.environment(ROOT)
    except (RuntimeError, ImportError) as exc:
        print(f"bench: cannot measure this checkout: {exc}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-s{args.seed}-{'traced' if args.trace else 'cli'}"
    ops = workloads.build(args.workload, args.size, args.seed, work, traced=bool(args.trace))
    memory = preflight(ops)
    head = {"workload": args.workload, "seed": args.seed, "size": args.size,
            "seconds": args.seconds, "trace": args.trace, "env": env, "preflight": memory}
    if not memory["fits"]:
        for op in ops:
            run.record(op.label, "refused by the memory preflight")
        print(json.dumps(head))
        print(json.dumps(run.result({})))
        return 1

    try:
        if args.trace:
            metrics, detail = traced(args, run, work)
        else:
            metrics, detail = untraced(args, run, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = summary.UNITS if args.trace else END_TO_END
    print(f"mtindex bench: {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} backend={env['mpmath_backend']} nproc={env['nproc']}")
    if args.trace and metrics:
        print("\n".join(summary.table({k: v for k, (v, _) in metrics.items()})))
    else:
        print("\n".join(_table(metrics)))
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(json.dumps({**head, "detail": detail, "failures": run.failures}))
    print(json.dumps(run.result({k: metrics[k] for k in wanted if k in metrics})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
