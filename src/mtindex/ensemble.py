"""Seeded replica ensembles over model grids, aggregation, and collapse checks.

Replica ``i`` of grid point ``j`` is a pure function of (master_seed, j, i).
A point's replicas are cut into contiguous chunks planned from the point alone,
before anything is sampled, and the chunks run one after another in the calling
process.  Any partition of the replica range reproduces the same per-replica
values, and the exact reduction below yields bitwise-identical statistics for
any partition.

Results are written as a flat CSV, one row per (grid point, index), with
floats serialized via ``repr`` so reruns are byte-identical.

:func:`collapse_check` returns each verdict with what it measured: a curve
pair's tolerance, max(floor, 5 * pooled sem), where the pooled sem is the
largest interpolated hypot(sa, sb) anywhere on the shared <k> grid, and
whether the pair's largest deviation is within it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .dense import DENSE_REGIME_MEAN_DEGREE, UnsupportedIndexError, scaling_curve
from .graph import DegreeHistogram, atomic_write
from .indices import EXCLUDE, _check_policy, _ln_indices, resolve
from .models import (ModelSpec, check_master_seed, mean_degree, replica_generators,
                     sample_chunk)

DEFAULT_BUDGET = 1e5

@dataclass(frozen=True)
class EnsembleSpec:
    """A sweep: grid of model points sharing one model kind, plus run settings.

    The replica count at a point with n vertices is ceil(budget / n), never
    below 1.
    """

    grid: tuple[ModelSpec, ...]
    indices: tuple[str, ...]
    master_seed: int
    budget: float = DEFAULT_BUDGET
    isolated_policy: str = EXCLUDE

    def __post_init__(self):
        if not self.grid:
            raise ValueError("grid must be nonempty")
        if not self.indices:
            raise ValueError("index set must be nonempty")
        resolve(self.indices)
        _check_policy(self.isolated_policy)
        for i, spec in enumerate(self.grid):
            if spec in self.grid[:i]:
                raise ValueError(f"grid repeats a point: {spec.label}")
        kinds = {spec.model for spec in self.grid}
        if len(kinds) > 1:
            raise ValueError(f"grid mixes model kinds {sorted(kinds)}")
        if not math.isfinite(self.budget):
            raise ValueError(f"budget must be finite, got {self.budget}")
        check_master_seed(self.master_seed)


def replicas_for(n: int, budget: float = DEFAULT_BUDGET) -> int:
    return max(1, math.ceil(budget / n))


@dataclass(frozen=True)
class EnsembleStats:
    """Aggregate of ln X_prod over the non-degenerate replicas of one point.

    ``degenerate`` counts log-zero replicas under the logzero policy, and the
    total number of excluded isolated vertices under the exclude policy.
    ``mean_k_theory`` and ``mean_ln_over_n`` derive from the other fields.
    """

    spec: ModelSpec
    index: str
    policy: str
    replicas: int
    degenerate: int
    mean_k_empirical: float
    mean_k_sem: float
    mean_ln: float
    sem: float
    master_seed: int

    @property
    def mean_k_theory(self) -> float:
        return mean_degree(self.spec)

    @property
    def mean_ln_over_n(self) -> float:
        return self.mean_ln / self.spec.n


# Expected degree entries (n + 2m per replica) in one chunk: the histogram and
# rule calls are paid per chunk, and a chunk's arrays stay small.
_CHUNK_ENTRIES = 1 << 14


def _chunks(point: ModelSpec, replicas: int) -> list[tuple[int, int]]:
    """Contiguous spans [lo, hi) that cover range(replicas), planned before sampling.

    A replica holds n + 2 E[m] = n (1 + <k>) degree entries in expectation;
    every span but the last holds the fewest replicas whose expected entries
    reach ``_CHUNK_ENTRIES``.
    """
    size = math.ceil(_CHUNK_ENTRIES / (point.n * (1.0 + mean_degree(point))))
    return [(lo, min(lo + size, replicas)) for lo in range(0, replicas, size)]


def _mean_sem(xs: Sequence[float]) -> tuple[float, float]:
    # fsum keeps the reduction exact, hence independent of chunking.
    n = len(xs)
    if n == 0:
        return math.nan, 0.0
    mean = math.fsum(xs) / n
    if n == 1:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
    return mean, math.sqrt(var / n)


def _check_run(policy: str, master_seed: int, replicas: int, point_id: int = 0) -> None:
    _check_policy(policy)
    check_master_seed(master_seed, point_id)
    if replicas < 1:
        raise ValueError(f"replica count must be >= 1, got {replicas}")


def run_point(
    point: ModelSpec,
    indices: Sequence[str],
    replicas: int,
    master_seed: int,
    *,
    point_id: int = 0,
    isolated_policy: str = EXCLUDE,
) -> list[EnsembleStats]:
    """Run one grid point; returns one :class:`EnsembleStats` per index.

    The chunks of :func:`_chunks` run in order, in this process.  Each chunk
    is sampled in one pass and evaluated as one stack: one sample serves every
    index, and each replica's values are those it would have alone.  A chunk's
    arrays are released before the next chunk is sampled.  An unknown or
    repeated index, an unknown policy, or a seed or point id outside
    [0, 2^64), raises ValueError before any allocation or chunk; a point that
    no replica can sample is no :class:`ModelSpec`.
    """
    rules = resolve(indices)
    _check_run(isolated_policy, master_seed, replicas, point_id)
    # Allocated before any chunk is planned or sampled, so a replica count
    # whose arrays numpy refuses fails at once.
    values = np.empty((len(rules), replicas))
    skipped = np.zeros(len(rules), dtype=np.int64)  # isolated vertices each rule skipped
    k_emp = np.empty(replicas)
    for lo, hi in _chunks(point, replicas):
        try:
            deg, du, dv, m = sample_chunk(point, replica_generators(master_seed, point_id, lo, hi))
            values[:, lo:hi], excluded = _ln_indices(
                rules, DegreeHistogram.stack(deg, du, dv, np.full(hi - lo, point.n), m),
                isolated_policy)
            skipped += excluded.sum(axis=1)
        except Exception as exc:
            raise RuntimeError(
                f"replica failed at seed triple (master_seed={master_seed}, "
                f"point_id={point_id}, replica_index in [{lo}, {hi})): {exc}"
            ) from exc
        k_emp[lo:hi] = 2.0 * m / point.n
        del deg, du, dv  # before the next chunk is sampled

    k_mean, k_sem = _mean_sem(k_emp.tolist())

    out = []
    for rule, vals, rule_skipped in zip(rules, values, skipped):
        finite = vals[np.isfinite(vals)]
        # Only logzero gives non-finite values and only exclude skips vertices.
        degenerate = int(vals.size - finite.size + rule_skipped)
        mean_ln, sem = _mean_sem(finite.tolist())
        out.append(
            EnsembleStats(
                spec=point,
                index=rule.name,
                policy=isolated_policy,
                replicas=replicas,
                degenerate=degenerate,
                mean_k_empirical=k_mean,
                mean_k_sem=k_sem,
                mean_ln=mean_ln,
                sem=sem,
                master_seed=master_seed,
            )
        )
    return out


def sweep(spec: EnsembleSpec) -> list[EnsembleStats]:
    """Run every grid point in order; rows are (point, index) in grid order."""
    rows: list[EnsembleStats] = []
    for point_id, point in enumerate(spec.grid):
        rows.extend(
            run_point(
                point,
                spec.indices,
                replicas_for(point.n, spec.budget),
                spec.master_seed,
                point_id=point_id,
                isolated_policy=spec.isolated_policy,
            )
        )
    return rows


def _optional_int(text: str) -> int | None:
    return None if text == "" else int(text)


# The results CSV, one entry per column in file order: the EnsembleStats
# attribute it holds (whose last part names it) and the type that reads it
# back.  Floats are spelled by repr, so reruns are byte-identical.
_RESULTS_TABLE = (
    ("spec.model", str),
    ("spec.n", int),
    ("spec.n1", _optional_int),
    ("spec.n2", _optional_int),
    ("spec.param_name", str),
    ("spec.param_value", float),
    ("index", str),
    ("policy", str),
    ("replicas", int),
    ("degenerate", int),
    ("mean_k_theory", float),
    ("mean_k_empirical", float),
    ("mean_k_sem", float),
    ("mean_ln", float),
    ("sem", float),
    ("mean_ln_over_n", float),
    ("master_seed", int),
)
_RESULTS_NAMES = tuple(attr.rpartition(".")[2] for attr, _ in _RESULTS_TABLE)
_RESULTS_KINDS = tuple(kind for _, kind in _RESULTS_TABLE)
_RESULTS_VALUES = operator.attrgetter(*(attr for attr, _ in _RESULTS_TABLE))
RESULTS_COLUMNS = ",".join(_RESULTS_NAMES)


def _spell(kind, value) -> str:
    if value is None:  # n1 and n2 outside br
        return ""
    return repr(float(value)) if kind is float else str(value)


def write_results_csv(rows: Iterable[EnsembleStats], out: TextIO) -> None:
    out.write(RESULTS_COLUMNS + "\n")
    for row in rows:
        out.write(",".join(map(_spell, _RESULTS_KINDS, _RESULTS_VALUES(row))) + "\n")


def write_results_csv_path(rows: Iterable[EnsembleStats], path) -> None:
    with atomic_write(path) as fh:
        write_results_csv(rows, fh)


def _read_row(line: str) -> EnsembleStats:
    texts = line.split(",")
    if len(texts) != len(_RESULTS_TABLE):
        raise ValueError(f"expected {len(_RESULTS_TABLE)} fields, got {len(texts)}")
    f = {name: kind(text) for name, kind, text in zip(_RESULTS_NAMES, _RESULTS_KINDS, texts)}
    param = f.pop("param_name")
    if param not in ("p", "r"):
        raise ValueError(f"unknown param_name {param!r}")
    _check_run(f["policy"], f["master_seed"], f["replicas"])
    if f["degenerate"] < 0:
        raise ValueError(f"degenerate count must be >= 0, got {f['degenerate']}")
    spec = ModelSpec(f.pop("model"), f.pop("n"), n1=f.pop("n1"), n2=f.pop("n2"),
                     **{param: f.pop("param_value")})
    # Each derived column must be what the writer spells for the other fields.
    derived = {name: _spell(float, f.pop(name)) for name in ("mean_k_theory", "mean_ln_over_n")}
    stats = EnsembleStats(spec=spec, **f)
    for name, given in derived.items():
        want = _spell(float, getattr(stats, name))
        if given != want:
            raise ValueError(f"{name} {given} differs from {want}, derived from the row")
    return stats


def read_results_csv(src: TextIO) -> list[EnsembleStats]:
    """Rows of a results CSV.

    A wrong header, or a row that is the wrong width, does not parse, holds
    a value that no run writes or a derived column that its other fields do
    not give, raises ValueError naming its line.
    """
    header = src.readline().strip()
    if header != RESULTS_COLUMNS:
        raise ValueError(f"unexpected results header: {header!r}")
    rows = []
    for lineno, line in enumerate(src, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(_read_row(line))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return rows


def read_results_csv_path(path) -> list[EnsembleStats]:
    with open(path) as fh:
        return read_results_csv(fh)


def split_curves(rows: Iterable[EnsembleStats]) -> list[tuple[str, list[EnsembleStats]]]:
    """``(curve, rows)`` groups of the result rows by ``row.spec.curve``
    (``er n=60``, ``br n1=6 n2=54``), in order of first appearance, each
    group's rows in their order."""
    groups: dict[str, list[EnsembleStats]] = {}
    for row in rows:
        groups.setdefault(row.spec.curve, []).append(row)
    return list(groups.items())


@dataclass(frozen=True)
class PairDeviation:
    """Max interpolated gap between two curves, ``within`` when at most ``tolerance``."""

    label_a: str
    label_b: str
    max_abs_deviation: float
    k_at_max: float
    pooled_sem: float
    tolerance: float
    within: bool


@dataclass
class CollapseReport:
    """Scaling-collapse comparison of >= 2 curves of mean_ln/n against <k>.

    ``labels`` holds one label per compared table, in table order.
    """

    index: str
    labels: tuple[str, ...]
    pairs: tuple[PairDeviation, ...]
    max_deviation: float
    k_at_max: float
    passed: bool  # every pair within its tolerance
    # The largest |curve - first-order dense curve| at k >= DENSE_REGIME_MEAN_DEGREE.
    # Informational: passed never reads it.  That curve is off by the per-rule
    # offsets dense.py states, O(1) per vertex for pi2, pi1s, rpi, hpi and chipi.
    dense_deviation: float | None = None


def collapse_check(
    tables: Sequence[tuple[str, Sequence[EnsembleStats]]], index: str, floor: float
) -> CollapseReport:
    """Interpolate curves onto a shared <k> grid and measure pairwise gaps.

    Each table becomes one curve of mean_ln/n against mean_k_theory (linear
    interpolation, no smoothing); curves are compared by table position, so
    equal labels never merge two tables.  Requires >= 2 tables, >= 5 points
    each at distinct, finite <k> with a finite mean and sem, and a nonempty
    overlap of the <k> ranges.

    The rule, for a finite ``floor`` >= 0: each curve's mean_ln/n and its
    sem/n are interpolated onto the shared grid, every distinct <k> of any
    curve inside the overlap.  A pair's deviation is the largest |ya - yb| on
    that grid, at the first <k> that attains it.  Its ``pooled_sem`` is the
    largest hypot(sa, sb) anywhere on the grid, not the value at the <k> of
    the deviation.  Its tolerance is max(``floor``, 5 * pooled_sem), and the
    pair is ``within`` when its deviation is at most that.
    """
    if not 0.0 <= floor < math.inf:
        raise ValueError(f"collapse floor must be finite and >= 0, got {floor}")
    if len(tables) < 2:
        raise ValueError("collapse check needs at least two curves")
    curves = []  # (k, y, s) per table, in table order, sorted by k
    for label, rows in tables:
        pts = [r for r in rows if r.index == index]
        if not pts:
            raise ValueError(f"index {index!r} not present in table {label!r}")
        if len(pts) < 5:
            raise ValueError(f"table {label!r} has {len(pts)} points for {index!r}, needs >= 5")
        for r in pts:
            if not all(map(math.isfinite, (r.mean_k_theory, r.mean_ln, r.sem))):
                raise ValueError(f"table {label!r} has a non-finite mean, sem or <k> for"
                                 f" {index!r} at <k>={r.mean_k_theory:.6g}")
        k = np.array([r.mean_k_theory for r in pts])
        if np.unique(k).size < k.size:
            raise ValueError(f"table {label!r} repeats a <k> for {index!r}")
        y = np.array([r.mean_ln_over_n for r in pts])
        s = np.array([r.sem / r.spec.n for r in pts])
        order = np.argsort(k, kind="stable")
        curves.append((k[order], y[order], s[order]))

    lo = max(k[0] for k, _, _ in curves)
    hi = min(k[-1] for k, _, _ in curves)
    if lo > hi:
        raise ValueError(
            f"insufficient overlap in <k> ranges: max of minima {lo} > min of maxima {hi}"
        )
    grid = np.unique(np.concatenate([k for k, _, _ in curves]))
    grid = grid[(grid >= lo) & (grid <= hi)]  # never empty: lo is some curve's first <k>

    labels = tuple(label for label, _ in tables)
    on_grid = [(np.interp(grid, k, y), np.interp(grid, k, s)) for k, y, s in curves]
    pairs = []
    for (la, (ya, sa)), (lb, (yb, sb)) in itertools.combinations(zip(labels, on_grid), 2):
        diff = np.abs(ya - yb)
        at = int(np.argmax(diff))
        dev, pooled = float(diff[at]), float(np.max(np.hypot(sa, sb)))
        tol = max(floor, 5.0 * pooled)
        pairs.append(PairDeviation(la, lb, dev, float(grid[at]), pooled, tol, dev <= tol))
    worst = max(reversed(pairs), key=operator.attrgetter("max_abs_deviation"))  # last on a tie

    dense_dev = None
    dense_mask = grid >= DENSE_REGIME_MEAN_DEGREE
    if dense_mask.any():
        try:
            pred = np.array([scaling_curve(index, float(k)) for k in grid[dense_mask]])
        except UnsupportedIndexError:
            pred = None
        if pred is not None:
            dense_dev = max(float(np.max(np.abs(y[dense_mask] - pred))) for y, _ in on_grid)

    return CollapseReport(
        index=index,
        labels=labels,
        pairs=tuple(pairs),
        max_deviation=worst.max_abs_deviation,
        k_at_max=worst.k_at_max,
        passed=all(pair.within for pair in pairs),
        dense_deviation=dense_dev,
    )
