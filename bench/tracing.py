"""In-process runs of a workload through ``cli.main``, optionally traced.

The tracer wraps public functions of ``src/mtindex`` at the attribute their
caller looks up, so nothing under ``src/`` changes:

* ``ensemble`` and ``inequalities`` import ``sample_degree_arrays``,
  ``ln_indices_from_arrays`` and ``generate`` by name, so the wrappers go on
  those modules' attributes;
* ``run_all_checks`` calls the ``check_*`` functions through module globals;
* ``cli`` imports the edge-list and scalar index functions by name.

A span is ``[name, start_ns, end_ns, parent, attrs]``; spans stay in memory
and are written out at the end of the run.  Counting work (edges, factors,
distinct arguments) happens after a span has ended and is itself recorded as
a ``trace.bookkeeping`` span under the same parent, so it is never billed to
a layer.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
import tracemalloc
from typing import Callable

import numpy as np

from workloads import VERTEX_KINDS, Op, Point, candidate_pairs

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Spans and per-command counting state of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._cold: set = set()
        self._graphs: dict[int, tuple] = {}

    def begin_command(self) -> None:
        """Per-command state: each CLI command is a fresh process in real use."""
        self._cold.clear()
        self._graphs.clear()

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, 0, 0, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(self, args, result)
                self.spans.append([BOOKKEEPING, span[2], time.perf_counter_ns(), parent, None])
            return result

        return traced

    # -- attribute functions: (tracer, call args, result) -> attrs ---------------

    def sample_attrs(self, args, result) -> dict:
        spec = args[0]
        edges = result[1].shape[0] if isinstance(result, tuple) else result.m
        pairs = candidate_pairs(spec.model, spec.n, spec.n1, spec.n2)
        key = (spec.model, spec.n)
        cold = key not in self._cold
        self._cold.add(key)
        return {"n": spec.n, "edges": edges, "pairs": pairs, "cold": cold}

    def bulk_attrs(self, args, result) -> dict:
        deg, du, dv, kinds = args[:4]
        nonzero = deg[deg > 0]
        distinct_v = int(np.unique(nonzero).size)
        distinct_e = _distinct_pairs(du, dv)
        factors = distinct = 0
        for kind in kinds:
            vertex = kind in VERTEX_KINDS
            factors += nonzero.size if vertex else du.size
            distinct += distinct_v if vertex else distinct_e
        return {"factors": int(factors), "distinct": int(distinct)}

    def _graph_stats(self, g) -> tuple[int, int, int, int]:
        hit = self._graphs.get(id(g))
        if hit is not None and hit[0] is g:
            return hit[1]
        nonzero = [d for d in g.degrees if d > 0]
        pairs = {(a, b) if a <= b else (b, a) for a, b in g.edge_degree_pairs()}
        stats = (len(nonzero), len(set(nonzero)), g.m, len(pairs))
        self._graphs[id(g)] = (g, stats)
        return stats

    def _function_attrs(self, g, vertex: bool) -> dict:
        nonzero, distinct_v, m, distinct_e = self._graph_stats(g)
        if vertex:
            return {"factors": nonzero, "distinct": distinct_v}
        return {"factors": m, "distinct": distinct_e}

    def scalar_attrs(self, args, result) -> dict:
        return self._function_attrs(args[0], args[1] in VERTEX_KINDS)

    def check_attrs(self, args, result) -> dict:
        g, f = args[0], args[1]
        vertex = f in VERTEX_KINDS if isinstance(f, str) else type(f).__name__ == "VertexFunction"
        attrs = self._function_attrs(g, vertex)
        attrs["checks"] = len(result) if isinstance(result, tuple) else 1
        return attrs

    def file_attrs(self, args, result) -> dict:
        path = args[1] if len(args) > 1 else args[0]
        return {"bytes": os.path.getsize(path)}


def _distinct_pairs(du: np.ndarray, dv: np.ndarray) -> int:
    if du.size == 0:
        return 0
    lo, hi = np.minimum(du, dv), np.maximum(du, dv)
    return int(np.unique(lo * (int(hi.max()) + 1) + hi).size)


def _patch_table():
    """(owner, attribute, span name, attrs method name or None)."""
    from mtindex import cli, ensemble, inequalities, models

    table = [
        (models.SeedDerivation, "generator", "models.seed", None),
        (ensemble, "sample_degree_arrays", "models.sample", "sample_attrs"),
        (models, "generate", "models.sample", "sample_attrs"),
        (inequalities, "generate", "models.sample", "sample_attrs"),
        (ensemble, "ln_indices_from_arrays", "indices.bulk_eval", "bulk_attrs"),
        (cli, "ln_multiplicative_index", "indices.scalar_eval", "scalar_attrs"),
        (cli, "additive_index", "indices.scalar_eval", "scalar_attrs"),
        (ensemble, "run_point", "ensemble.run_point", None),
        (ensemble, "write_results_csv_path", "ensemble.csv_write", None),
        (ensemble, "read_results_csv_path", "ensemble.collapse", None),
        (ensemble, "split_curves", "ensemble.collapse", None),
        (ensemble, "collapse_check", "ensemble.collapse", None),
        (cli, "read_edge_list_path", "graph.read", "file_attrs"),
        (cli, "write_edge_list_path", "graph.write", "file_attrs"),
        (inequalities, "verify_corpus", "inequalities.verify_corpus", None),
        (inequalities, "write_report_csv", "inequalities.report_write", None),
    ]
    for name in ("check_jensen", "check_jensen_converse", "check_kober",
                 "check_petrovic_sum", "check_exp_linear"):
        table.append((inequalities, name, "inequalities.check", "check_attrs"))
    return table


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block.

    Yields the ``owner.attribute`` names the program no longer has, which
    therefore go untraced and are billed to their caller.
    """
    saved, missing = [], []
    try:
        for owner, attr, span, attrs in _patch_table():
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            saved.append((owner, attr, original))
            method = getattr(Tracer, attrs) if attrs else None
            setattr(owner, attr, tracer.wrap(span, original, method))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def clear_caches() -> None:
    """Empty every ``functools`` cache in ``mtindex``, as a fresh process would start."""
    for name, module in list(sys.modules.items()):
        if name == "mtindex" or name.startswith("mtindex."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_command(argv: list[str], tracer: Tracer | None = None) -> tuple[int, float]:
    """``cli.main(argv)`` in this process; returns (exit code, wall seconds)."""
    from mtindex import cli

    clear_caches()
    main = cli.main
    if tracer is not None:
        tracer.begin_command()
        main = tracer.wrap("cli.main", cli.main)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, time.perf_counter() - start


def _spec(p: Point):
    from mtindex import models

    if p.model == "er":
        return models.erdos_renyi(p.n, p.param)
    if p.model == "rg":
        return models.random_geometric(p.n, p.param)
    return models.bipartite(p.n1, p.n2, p.param)


def peak_alloc_bytes(ops: list[Op], seed: int) -> int:
    """tracemalloc peak of one sample call per distinct model size, from a cold cache."""
    from mtindex import models

    seen, peak = set(), 0
    for op in ops:
        for p in op.points:
            key = (p.model, p.n, p.n1, p.n2)
            if key in seen:
                continue
            seen.add(key)
            clear_caches()
            tracemalloc.start()
            try:
                models.sample_degree_arrays(_spec(p), models.SeedDerivation(seed).generator())
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    clear_caches()
    return peak
