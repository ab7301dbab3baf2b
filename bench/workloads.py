"""The benchmark's workloads: the CLI commands each one runs, and what they must output.

A workload is a fixed list of operations (one ``mtindex`` command each) that
is run as one *pass*.  Every input is derived from the workload seed, which is
passed to the program as its ``--seed``; model parameters for a target mean
degree are computed here, so the program receives only the generated inputs.

Why these four (see BENCHMARK.json for the one-line reasons):

* ``sweep-large`` -- sampling-dominated sweeps at n = 4000 and 10^4 with the
  O(n^2) pair arrays; runs ``run_point``'s process-pool branch.
* ``sweep-small`` -- the paper's cross-model collapse at n = 250, where bulk
  index evaluation and per-replica overhead are a visible share.
* ``verify-corpus`` -- the 192-bit inequality verifier on the default corpus
  shape plus one custom edge expression; sampling is negligible there.
* ``index-files`` -- edge-list text I/O and the scalar index path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

MULTIPLICATIVE = ("nk", "pi1", "pi2", "pi1s", "rpi", "hpi", "chipi", "idpi", "gapi")
ADDITIVE = ("m1", "m2", "r", "h", "chi", "id")
VERTEX_KINDS = frozenset({"nk", "pi1", "m1", "id"})
CUSTOM_EDGE = "rootsum=sqrt(a+b)"
CHECKS_PER_FUNCTION = 6        # jensen, converse, kober x2, petrovic, exp-linear
DEFAULT_BUDGET = 1e5           # the CLI's default replica budget, R = ceil(budget / n)

# Bytes of O(n^2) working arrays one sample call allocates, per candidate pair.
# er: int64 pair indices (16) + float64 uniforms (8) + bool mask (1).
# rg: pair indices (16) + dx, dy (16) + dx*dx, dy*dy (16) + mask (1).
# br: float64 uniforms (8) + mask (1) over the n1*n2 cross pairs.
_BYTES_PER_PAIR = {"er": 25, "rg": 49, "br": 9}

WORKLOADS = ("sweep-large", "sweep-small", "verify-corpus", "index-files")
SIZES = ("full", "smoke")


def candidate_pairs(model: str, n: int, n1: int | None, n2: int | None) -> int:
    """Vertex pairs a sampler draws for: all C(n, 2), or the n1*n2 cross pairs of br."""
    return n1 * n2 if model == "br" else n * (n - 1) // 2


@dataclass(frozen=True)
class Point:
    """One model point the workload samples: (model, n, n1, n2, parameter)."""

    model: str
    n: int
    param: float
    n1: int | None = None
    n2: int | None = None

    @property
    def pair_bytes(self) -> int:
        """Computed (not measured) bytes of one sample call's O(n^2) arrays."""
        pairs = candidate_pairs(self.model, self.n, self.n1, self.n2)
        return _BYTES_PER_PAIR[self.model] * pairs


@dataclass
class Op:
    """One CLI command and the check its output must pass.

    ``argv`` may be a callable, evaluated just before the command runs, for
    arguments that depend on files an earlier op wrote.
    """

    label: str
    kind: str                      # sweep | collapse | verify | generate | index
    argv: list[str] | Callable[[], list[str]]
    out: Path
    expect: dict = field(default_factory=dict)
    replicas: int = 0              # sampled graphs this op produces
    points: tuple[Point, ...] = ()
    workers: int = 1

    def resolved_argv(self) -> list[str]:
        return self.argv() if callable(self.argv) else list(self.argv)


def _g_of_r(r: float) -> float:
    # P(two uniform points of the unit square lie within distance r).
    if r <= 1.0:
        return r * r * (math.pi - (8.0 / 3.0) * r + 0.5 * r * r)
    return (
        1.0 / 3.0
        - 2.0 * r * r * (1.0 - math.asin(1.0 / r) + math.acos(1.0 / r))
        + (4.0 / 3.0) * (2.0 * r * r + 1.0) * math.sqrt(r * r - 1.0)
        - 0.5 * r ** 4
    )


def _radius(n: int, k: float) -> float:
    target, lo, hi = k / (n - 1), 0.0, math.sqrt(2.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _g_of_r(mid) < target else (lo, mid)
    return 0.5 * (lo + hi)


def point(model: str, n: int, k: float) -> Point:
    """The model point of size n with expected mean degree k."""
    if model == "er":
        return Point("er", n, k / (n - 1))
    if model == "rg":
        return Point("rg", n, _radius(n, k))
    n1, n2 = n // 2, n - n // 2
    return Point("br", n, k * (n1 + n2) / (2.0 * n1 * n2), n1, n2)


def _model_flags(points: list[Point]) -> list[str]:
    first = points[0]
    values = ",".join(repr(p.param) for p in points)
    if first.model == "br":
        return ["--model", "br", "--n1", str(first.n1), "--n2", str(first.n2), "--p", values]
    flag = "--r" if first.model == "rg" else "--p"
    return ["--model", first.model, "--n", str(first.n), flag, values]


def _sweep(label: str, points: list[Point], seed: int, workers: int, budget: float,
           work: Path) -> Op:
    out = work / f"{label}.csv"
    argv = ["sweep", *_model_flags(points), "--index", ",".join(MULTIPLICATIVE),
            "--seed", str(seed), "--workers", str(workers), "--out", str(out)]
    if budget != DEFAULT_BUDGET:
        argv += ["--budget", repr(budget)]
    reps = max(1, math.ceil(budget / points[0].n))
    return Op(label, "sweep", argv, out,
              expect={"rows": len(points) * len(MULTIPLICATIVE)},
              replicas=reps * len(points), points=tuple(points), workers=workers)


# Per-size settings.  "full" is what BENCHMARK.json measures; "smoke" runs
# every workload in seconds for the benchmark's own tests.
_SETTINGS = {
    "full": {
        "large_sizes": (4000, 10000), "large_rg": 4000, "large_budget": DEFAULT_BUDGET,
        "small_n": 250, "small_budget": DEFAULT_BUDGET,
        "verify_sizes": (8, 16, 32), "verify_graphs": 10,
        "index_n": 1000, "index_files": 60,
    },
    "smoke": {
        "large_sizes": (400, 1000), "large_rg": 400, "large_budget": 2000.0,
        "small_n": 60, "small_budget": 600.0,
        "verify_sizes": (8,), "verify_graphs": 10,
        "index_n": 200, "index_files": 4,
    },
}

LARGE_WORKERS = 2
MEAN_DEGREE = 10.0
SMALL_K_GRID = tuple(2.0 + 2.0 * i for i in range(10))   # 10 values in [2, 20]


def build(name: str, size: str, seed: int, work: Path, traced: bool = False) -> list[Op]:
    """The ops of one pass of workload ``name``; outputs go under ``work``.

    ``traced`` runs every sweep with one worker, since the traced run is
    in-process.
    """
    s = _SETTINGS[size]
    if name == "sweep-large":
        workers = 1 if traced else LARGE_WORKERS
        ops = []
        for model in ("er", "br"):
            for n in s["large_sizes"]:
                ops.append(_sweep(f"{model}{n}", [point(model, n, MEAN_DEGREE)], seed,
                                  workers, s["large_budget"], work))
        n = s["large_rg"]
        ops.append(_sweep(f"rg{n}", [point("rg", n, MEAN_DEGREE)], seed, workers,
                          s["large_budget"], work))
        return ops
    if name == "sweep-small":
        n = s["small_n"]
        ops = [
            _sweep(f"{model}{n}", [point(model, n, k) for k in SMALL_K_GRID], seed, 1,
                   s["small_budget"], work)
            for model in ("er", "rg", "br")
        ]
        out = work / "collapse.csv"
        ops.append(Op("collapse", "collapse",
                      ["collapse", *(str(op.out) for op in ops), "--index", "nk",
                       "--out", str(out)], out))
        return ops
    if name == "verify-corpus":
        sizes, graphs = s["verify_sizes"], s["verify_graphs"]
        corpus_graphs = 3 * len(sizes) * 10 * max(1, graphs // 10)
        functions = len(MULTIPLICATIVE) + 1
        out = work / "report.csv"
        argv = ["verify", "--seed", str(seed), "--sizes", ",".join(map(str, sizes)),
                "--graphs", str(graphs), "--custom-edge", CUSTOM_EDGE, "--out", str(out)]
        # The densest corpus points at the largest size bound its allocations.
        n = max(sizes)
        densest = (Point("er", n, 1.0), Point("rg", n, math.sqrt(2.0)),
                   Point("br", n, 1.0, n // 2, n - n // 2))
        return [Op("verify", "verify", argv, out,
                   expect={"checks": corpus_graphs * functions * CHECKS_PER_FUNCTION + 1},
                   replicas=corpus_graphs, points=densest)]
    if name == "index-files":
        n, files = s["index_n"], s["index_files"]
        pt = point("er", n, MEAN_DEGREE)
        graphs = work / "graphs"
        gen = Op("generate", "generate",
                 ["generate", *_model_flags([pt]), "--replicas", str(files),
                  "--seed", str(seed), "--out", str(graphs)],
                 graphs, expect={"files": files}, replicas=files, points=(pt,))
        out = work / "index.csv"
        kinds = MULTIPLICATIVE + ADDITIVE
        index = Op("index", "index",
                   lambda: ["index", *map(str, sorted(graphs.glob("*.edges"))),
                            "--index", ",".join(kinds), "--out", str(out)],
                   out, expect={"files": files, "kinds": kinds})
        return [gen, index]
    raise ValueError(f"unknown workload {name!r}")


def computed_pair_bytes(ops: list[Op]) -> int:
    """Computed peak bytes of concurrent sample calls: largest point x workers."""
    return max((p.pair_bytes * op.workers for op in ops for p in op.points), default=0)
