"""Turn a span dump into the per-layer metrics and table.

Self time of a span is its duration minus the time its direct children
cover; spans nest strictly (one thread, one stack), so the self times of all
spans add up to the traced command wall.  Layer metrics are sums of self
times by span name; ``cli.self_s`` is what the command spent outside every
traced call (argparse, formatting, file opens).

Usage: python3 bench/summary.py .bench_work/traces/<workload>-s<seed>.json
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

# Per-layer metric -> unit, in BENCHMARK.json order.
UNITS = {
    "models.seed_s": "s",
    "models.sample_s": "s",
    "models.sample_calls": "count",
    "models.cold_sample_s": "s",
    "models.edges": "count",
    "models.edges_per_s": "1/s",
    "models.edge_yield": "ratio",
    "models.sample_share": "ratio",
    "models.peak_alloc_mb": "MB",
    "models.pair_bytes_computed": "B",
    "indices.bulk_eval_s": "s",
    "indices.scalar_eval_s": "s",
    "indices.factors": "count",
    "indices.factors_per_s": "1/s",
    "indices.distinct_arg_ratio": "ratio",
    "ensemble.self_s": "s",
    "ensemble.csv_write_s": "s",
    "ensemble.collapse_s": "s",
    "graph.write_s": "s",
    "graph.read_s": "s",
    "graph.bytes": "B",
    "inequalities.check_s": "s",
    "inequalities.checks": "count",
    "inequalities.us_per_check": "us",
    "inequalities.self_s": "s",
    "inequalities.report_write_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.bookkeeping_s": "s",
}

# Span name -> the layer metric its self time adds to.
SELF_TIME = {
    "cli.main": "cli.self_s",
    "models.seed": "models.seed_s",
    "models.sample": "models.sample_s",
    "indices.bulk_eval": "indices.bulk_eval_s",
    "indices.scalar_eval": "indices.scalar_eval_s",
    "ensemble.run_point": "ensemble.self_s",
    "ensemble.csv_write": "ensemble.csv_write_s",
    "ensemble.collapse": "ensemble.collapse_s",
    "graph.read": "graph.read_s",
    "graph.write": "graph.write_s",
    "inequalities.check": "inequalities.check_s",
    "inequalities.verify_corpus": "inequalities.self_s",
    "inequalities.report_write": "inequalities.report_write_s",
    "trace.bookkeeping": "trace.bookkeeping_s",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def self_times(spans: list[list]) -> list[float]:
    """Self time in seconds of each span (duration minus direct children)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    return [(end - start - child_ns[i]) / 1e9 for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (every key of ``UNITS``)."""
    spans = dump["spans"]
    selfs = self_times(spans)
    out: dict[str, float] = {name: 0.0 for name in UNITS}
    counts = defaultdict(int)
    wall = 0.0
    for (name, start, end, parent, attrs), own in zip(spans, selfs):
        if name in SELF_TIME:
            out[SELF_TIME[name]] += own
        if name == "cli.main" and parent is None:
            wall += (end - start) / 1e9
        attrs = attrs or {}
        if name == "models.sample":
            counts["sample_calls"] += 1
            counts["edges"] += attrs["edges"]
            counts["pairs"] += attrs["pairs"]
            if attrs["cold"]:
                out["models.cold_sample_s"] += own
        if name in ("indices.bulk_eval", "indices.scalar_eval"):
            counts["factors"] += attrs["factors"]
        if "distinct" in attrs:
            counts["arg_factors"] += attrs["factors"]
            counts["distinct"] += attrs["distinct"]
        counts["checks"] += attrs.get("checks", 0)
        counts["bytes"] += attrs.get("bytes", 0)

    out["models.sample_calls"] = counts["sample_calls"]
    out["models.edges"] = counts["edges"]
    out["models.edges_per_s"] = _ratio(counts["edges"], out["models.sample_s"])
    out["models.edge_yield"] = _ratio(counts["edges"], counts["pairs"])
    out["models.sample_share"] = _ratio(out["models.sample_s"], wall)
    out["models.peak_alloc_mb"] = dump["peak_alloc_bytes"] / 2**20
    out["models.pair_bytes_computed"] = dump["pair_bytes_computed"]
    out["indices.factors"] = counts["factors"]
    out["indices.factors_per_s"] = _ratio(
        counts["factors"], out["indices.bulk_eval_s"] + out["indices.scalar_eval_s"])
    out["indices.distinct_arg_ratio"] = _ratio(counts["distinct"], counts["arg_factors"])
    out["graph.bytes"] = counts["bytes"]
    out["inequalities.checks"] = counts["checks"]
    out["inequalities.us_per_check"] = 1e6 * _ratio(out["inequalities.check_s"], counts["checks"])
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - statistics.median(dump["untraced_walls"])
    return out


def table(metrics: dict[str, float]) -> list[str]:
    """Human-readable lines: layer self times with their share, then every metric."""
    wall = metrics["trace.wall_s"]
    lines = [f"{'layer self time':<34}{'s':>12}{'share':>9}"]
    accounted = 0.0
    for metric in SELF_TIME.values():
        value = metrics[metric]
        accounted += value
        lines.append(f"  {metric:<32}{value:>12.4f}{100 * _ratio(value, wall):>8.1f}%")
    lines.append(f"  {'sum of self times':<32}{accounted:>12.4f}"
                 f"{100 * _ratio(accounted, wall):>8.1f}%  (traced wall {wall:.4f} s)")
    lines.append(f"{'metric':<34}{'value':>16}  unit")
    for name, unit in UNITS.items():
        lines.append(f"  {name:<32}{metrics[name]:>16.6g}  {unit}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        dump = json.load(fh)
    print("\n".join(table(summarize(dump))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
