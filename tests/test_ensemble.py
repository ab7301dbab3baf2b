import functools
import io
import math
import multiprocessing
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from helpers import exact_isolated_moments, exact_mean_ln, rg_vertex_means
from hypothesis import given, settings
from hypothesis import strategies as st

from mtindex import ensemble
from mtindex.ensemble import (
    EnsembleSpec,
    EnsembleStats,
    collapse_check,
    read_results_csv,
    replicas_for,
    run_point,
    split_curves,
    sweep,
    write_results_csv,
)
from mtindex.graph import DegreeHistogram
from mtindex.indices import (
    EXCLUDE,
    LOGZERO,
    MULTIPLICATIVE_INDICES,
    MULTIPLICATIVE_NAMES,
    resolve,
)
from mtindex.models import (
    MAX_RADIUS,
    bipartite,
    br_probability_for_mean_degree,
    erdos_renyi,
    mean_degree,
    probability_for_mean_degree,
    radius_for_mean_degree,
    random_geometric,
    replica_generators,
    sample_chunk,
)

SEED = 424242


def test_replica_budget_rounding():
    assert replicas_for(125, 1e5) == 800
    assert replicas_for(3, 10) == 4
    assert replicas_for(1000, 10) == 1


def test_deterministic_point_er_p1():
    rows = run_point(erdos_renyi(4, 1.0), ["nk"], 3, SEED)
    (row,) = rows
    assert row.mean_ln == pytest.approx(4.0 * math.log(3.0), abs=1e-12)
    assert row.sem == 0.0
    assert row.degenerate == 0
    assert row.mean_k_empirical == pytest.approx(3.0)
    assert row.mean_ln_over_n == pytest.approx(math.log(3.0), abs=1e-12)


def test_empty_graphs_give_zero():
    rows = run_point(erdos_renyi(100, 0.0), ["pi2"], 10, SEED)
    (row,) = rows
    assert row.mean_ln == 0.0 and row.sem == 0.0 and row.degenerate == 0


def test_degenerate_accounting_at_p0():
    (excl,) = run_point(erdos_renyi(50, 0.0), ["nk"], 4, SEED, isolated_policy=EXCLUDE)
    assert excl.degenerate == 50 * 4       # excluded isolated vertices, totalled
    assert excl.mean_ln == 0.0
    (lz,) = run_point(erdos_renyi(50, 0.0), ["nk"], 4, SEED, isolated_policy=LOGZERO)
    assert lz.degenerate == 4              # every replica is a zero product
    assert math.isnan(lz.mean_ln) and lz.sem == 0.0


def test_mean_degree_tracks_theory_on_every_point():
    spec = EnsembleSpec(
        grid=tuple(erdos_renyi(60, p) for p in (0.05, 0.2, 0.5, 1.0)),
        indices=("nk",), master_seed=SEED, budget=6000)
    for row in sweep(spec):
        assert abs(row.mean_k_empirical - row.mean_k_theory) <= 4.0 * row.mean_k_sem + 1e-12


def test_self_consistency_across_master_seeds():
    a = run_point(erdos_renyi(50, 0.5), ["nk"], 200, 1111)[0]
    b = run_point(erdos_renyi(50, 0.5), ["nk"], 200, 2222)[0]
    assert abs(a.mean_ln - b.mean_ln) <= 4.0 * math.hypot(a.sem, b.sem)


def test_half_pooling_reproduces_full_mean():
    spec = erdos_renyi(30, 0.4)
    full = run_point(spec, ["pi2"], 20, SEED)[0]
    rules = resolve(("pi2",))

    def half(lo, hi):
        # The stages of one run_point chunk, called as run_point calls them.
        deg, du, dv, m = sample_chunk(spec, replica_generators(SEED, 0, lo, hi))
        values, _ = ensemble._ln_indices(
            rules, DegreeHistogram.stack(deg, du, dv, np.full(hi - lo, spec.n), m), EXCLUDE)
        return values[0].tolist()

    pooled = math.fsum(half(0, 10) + half(10, 20)) / 20.0
    assert pooled == full.mean_ln


def test_sweep_row_order_and_count():
    spec = EnsembleSpec(
        grid=(erdos_renyi(125, 0.1), erdos_renyi(125, 0.2),
              erdos_renyi(250, 0.1), erdos_renyi(250, 0.2)),
        indices=("nk",),
        master_seed=SEED,
        budget=500,
    )
    rows = sweep(spec)
    assert len(rows) == 4
    assert [(r.spec.n, r.spec.p) for r in rows] == [
        (125, 0.1), (125, 0.2), (250, 0.1), (250, 0.2)]


def test_sweep_rejects_mixed_models_and_empty_grid():
    with pytest.raises(ValueError):
        EnsembleSpec(grid=(erdos_renyi(10, 0.1), bipartite(5, 5, 0.1)),
                     indices=("nk",), master_seed=1)
    with pytest.raises(ValueError):
        EnsembleSpec(grid=(), indices=("nk",), master_seed=1)
    with pytest.raises(ValueError, match="repeats a name: nk,pi2,nk"):
        EnsembleSpec(grid=(erdos_renyi(10, 0.1),), indices=("nk", "pi2", "nk"), master_seed=1)


def test_csv_round_trip():
    spec = EnsembleSpec(
        grid=(bipartite(10, 15, 0.3), bipartite(10, 15, 0.6)),
        indices=("nk", "chipi"),
        master_seed=SEED,
        budget=100,
    )
    rows = sweep(spec)
    buf = io.StringIO()
    write_results_csv(rows, buf)
    back = read_results_csv(io.StringIO(buf.getvalue()))
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        assert a.spec == b.spec and a.index == b.index
        assert a.mean_ln == b.mean_ln and a.sem == b.sem
        assert a.degenerate == b.degenerate and a.replicas == b.replicas


def test_blank_lines_of_a_results_csv_are_skipped():
    rows = sweep(EnsembleSpec(grid=(erdos_renyi(10, 0.3), erdos_renyi(10, 0.5)),
                              indices=("nk",), master_seed=SEED, budget=20))
    buf = io.StringIO()
    write_results_csv(rows, buf)
    header, first, second = buf.getvalue().splitlines()
    back = read_results_csv(io.StringIO(f"{header}\n{first}\n\n{second}\n\n"))
    assert repr(back) == repr(rows)


_SIZES = st.integers(1, 10**6)
_RESULT_ROWS = st.builds(
    EnsembleStats,
    spec=st.one_of(
        st.builds(erdos_renyi, _SIZES, st.floats(0.0, 1.0)),
        st.builds(random_geometric, _SIZES, st.floats(0.0, MAX_RADIUS)),
        st.builds(bipartite, _SIZES, _SIZES, st.floats(0.0, 1.0)),
    ),
    index=st.sampled_from(MULTIPLICATIVE_NAMES),
    policy=st.sampled_from([EXCLUDE, LOGZERO]),
    replicas=st.integers(1, 10**6),
    degenerate=st.integers(0, 10**9),
    mean_k_theory=st.floats(),
    mean_k_empirical=st.floats(),
    mean_k_sem=st.floats(),
    mean_ln=st.floats(),                  # nan and +-inf included
    sem=st.floats(),
    master_seed=st.integers(),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_RESULT_ROWS, max_size=6))
def test_results_rows_round_trip(rows):
    written = io.StringIO()
    write_results_csv(rows, written)
    back = read_results_csv(io.StringIO(written.getvalue()))
    rewritten = io.StringIO()
    write_results_csv(back, rewritten)
    assert rewritten.getvalue() == written.getvalue()
    # Every field comes back (repr: NaN equals NaN).
    assert repr(back) == repr(rows)


def test_rerun_is_byte_identical():
    spec = EnsembleSpec(grid=(erdos_renyi(30, 0.2),), indices=("nk",),
                        master_seed=SEED, budget=300)
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_results_csv(sweep(spec), buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]


def _toy_rows(n, ks, values, index="nk"):
    rows = []
    for k, v in zip(ks, values):
        rows.extend(run_point(erdos_renyi(n, k / (n - 1)), [index], 1, SEED))
    return rows


def test_collapse_identical_tables_have_zero_deviation():
    spec = EnsembleSpec(
        grid=tuple(erdos_renyi(50, k / 49.0) for k in (2, 4, 6, 8, 10)),
        indices=("nk",), master_seed=SEED, budget=100)
    rows = sweep(spec)
    report = collapse_check([("a", rows), ("b", rows)], "nk", 0.05)
    assert report.max_deviation == 0.0
    assert report.passed


def test_collapse_errors():
    spec = EnsembleSpec(
        grid=tuple(erdos_renyi(50, k / 49.0) for k in (2, 4, 6, 8, 10)),
        indices=("nk",), master_seed=SEED, budget=100)
    rows = sweep(spec)
    with pytest.raises(ValueError, match="not present"):
        collapse_check([("a", rows), ("b", rows)], "pi2", 0.05)
    with pytest.raises(ValueError, match="at least two"):
        collapse_check([("a", rows)], "nk", 0.05)
    short = rows[:3]
    with pytest.raises(ValueError, match=">= 5"):
        collapse_check([("a", short), ("b", short)], "nk", 0.05)
    with pytest.raises(ValueError, match="table 'b' repeats a <k> for 'nk'"):
        collapse_check([("a", rows), ("b", short + short)], "nk", 0.05)
    far = sweep(EnsembleSpec(
        grid=tuple(erdos_renyi(50, k / 49.0) for k in (20, 25, 30, 35, 40)),
        indices=("nk",), master_seed=SEED, budget=100))
    with pytest.raises(ValueError, match="overlap"):
        collapse_check([("a", rows), ("b", far)], "nk", 0.05)


@pytest.mark.parametrize("floor", [math.nan, -1.0, math.inf])
def test_collapse_refuses_a_floor_that_is_not_finite_and_nonnegative(monkeypatch, floor):
    spec = EnsembleSpec(
        grid=tuple(erdos_renyi(50, k / 49.0) for k in (2, 4, 6, 8, 10)),
        indices=("nk",), master_seed=SEED, budget=100)
    rows = sweep(spec)

    def no_interp(*args, **kwargs):
        raise AssertionError("interpolated before refusing the floor")

    monkeypatch.setattr(ensemble.np, "interp", no_interp)
    with pytest.raises(ValueError) as refused:
        collapse_check([("a", rows), ("b", rows)], "nk", floor)
    assert str(refused.value) == f"collapse floor must be finite and >= 0, got {floor}"


def test_split_curves_groups_by_size():
    er = sweep(EnsembleSpec(
        grid=(erdos_renyi(20, 0.1), erdos_renyi(40, 0.1), erdos_renyi(20, 0.2)),
        indices=("nk",), master_seed=SEED, budget=40))
    br = sweep(EnsembleSpec(grid=(bipartite(10, 20, 0.1), bipartite(10, 20, 0.2)),
                            indices=("nk",), master_seed=SEED, budget=40))
    # Each curve is named by ModelSpec.curve, in order of first appearance.
    curves = split_curves([*er, *br])
    assert [(label, [id(row) for row in grp]) for label, grp in curves] == [
        ("er n=20", [id(er[0]), id(er[2])]), ("er n=40", [id(er[1])]),
        ("br n1=10 n2=20", [id(br[0]), id(br[1])])]


def test_broken_worker_pool_names_the_seed_triple(monkeypatch):
    # A chunk that fails in its own code names the replica range it was running.
    def out_of_memory(point, rngs):
        raise MemoryError("no room")

    monkeypatch.setattr(ensemble, "sample_chunk", out_of_memory)
    with pytest.raises(RuntimeError) as failed:
        run_point(erdos_renyi(20, 0.3), ["nk"], 10, 77, point_id=3)
    msg = str(failed.value)
    assert "master_seed=77" in msg and "point_id=3" in msg and "[0, 10)" in msg
    prefix = "replica failed at seed triple (master_seed=77, point_id=3, replica_index in [0, 10)): "
    assert msg == prefix + "no room"
    assert isinstance(failed.value.__cause__, MemoryError)


def test_an_unknown_isolated_policy_is_refused_at_construction(monkeypatch):
    with pytest.raises(ValueError, match="unknown isolated policy 'bogus'"):
        EnsembleSpec(grid=(erdos_renyi(10, 0.1),), indices=("nk",), master_seed=1,
                     isolated_policy="bogus")
    # run_point refuses it before any chunk is sampled, not as a failed replica.
    monkeypatch.setattr(ensemble, "sample_chunk", None)
    with pytest.raises(ValueError, match="unknown isolated policy 'bogus'"):
        run_point(erdos_renyi(10, 0.1), ["nk"], 10, 1, isolated_policy="bogus")


def _no_sample(*args, **kwargs):
    raise AssertionError("sampled a point that was to be refused")


# More than the 2^47 candidate pairs one sample may hold; no such ModelSpec
# exists, so each call builds it.
UNSAMPLABLE = functools.partial(erdos_renyi, 2**24 + 2, 1e-9)
UNSAMPLABLE_MESSAGE = ("er n=16777218 p=1e-09: 140737513521153 candidate pairs exceed the 2^47"
                       " of one sample")


@pytest.mark.parametrize("entry, message", [
    (lambda: EnsembleSpec(grid=(UNSAMPLABLE(),), indices=("nk",), master_seed=1),
     UNSAMPLABLE_MESSAGE),
    (lambda: run_point(UNSAMPLABLE(), ["nk"], 1, 1), UNSAMPLABLE_MESSAGE),
    (lambda: run_point(erdos_renyi(10, 0.1), ["nk"], 1, 1, point_id=-1),
     "point id must lie in [0, 2^64), got -1"),
    (lambda: run_point(erdos_renyi(10, 0.1), ["nk"], 1, 1, point_id=2**64),
     f"point id must lie in [0, 2^64), got {2**64}"),
    (lambda: EnsembleSpec(grid=(erdos_renyi(10, 0.1),), indices=(), master_seed=1),
     "index set must be nonempty"),
    (lambda: run_point(erdos_renyi(10, 0.1), ["nk"], 0, 1), "replica count must be >= 1, got 0"),
], ids=["spec-pairs", "run-point-pairs", "run-point-id-negative", "run-point-id-2-to-the-64",
        "spec-no-index", "run-point-no-replica"])
def test_a_bad_point_or_run_is_refused_before_any_sample(monkeypatch, entry, message):
    monkeypatch.setattr(ensemble, "sample_chunk", _no_sample)
    with pytest.raises(ValueError) as refused:
        entry()
    assert str(refused.value) == message


def test_run_point_runs_the_last_point_id():
    # Below 0 or from 2^64 on a point id is refused, as it would alias one in range.
    (row,) = run_point(erdos_renyi(40, 0.2), ["nk"], 5, 7, point_id=2**64 - 1)
    assert row.replicas == 5 and math.isfinite(row.mean_ln)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_any_contiguous_partition_gives_the_same_stats(data):
    # run_point's chunks replaced by spans cut at arbitrary points, so every
    # partition of [0, replicas) into contiguous spans occurs.
    replicas = data.draw(st.integers(1, 24), label="replicas")
    cuts = data.draw(st.sets(st.integers(1, replicas)), label="cuts")
    point = data.draw(st.sampled_from(
        [erdos_renyi(12, 0.2), random_geometric(10, 0.3), bipartite(5, 6, 0.3)]), label="point")
    policy = data.draw(st.sampled_from([EXCLUDE, LOGZERO]), label="policy")
    kwargs = dict(point_id=4, isolated_policy=policy)
    want = run_point(point, ["nk", "pi2", "gapi"], replicas, SEED, **kwargs)
    bounds = [0, *sorted(cuts - {replicas}), replicas]
    spans = list(zip(bounds, bounds[1:]))
    with mock.patch.object(ensemble, "_chunks", lambda point, replicas: spans):
        got = run_point(point, ["nk", "pi2", "gapi"], replicas, SEED, **kwargs)
    assert repr(got) == repr(want)  # repr, so that NaN means equal NaN


def test_run_point_without_an_executor_starts_no_process(monkeypatch):
    def no_process(self):
        raise AssertionError("run_point started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    run_point(erdos_renyi(30, 0.2), ["nk", "pi2"], 9, SEED)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("point", [erdos_renyi(250, 20.0 / 249),
                                   random_geometric(250, radius_for_mean_degree(250, 20.0)),
                                   random_geometric(250, radius_for_mean_degree(250, 2.0))],
                         ids=["er", "rg", "rg-k2"])
def test_a_replica_block_evaluates_one_chunk_at_a_time(point):
    # 400 replicas at <k> = 20 hold ~2.1e6 degree entries, 17 MB as int64; a
    # point that stacked them all would pass 4 MiB many times over.  At <k> = 2
    # a chunk holds the most replicas (22), sampled together.
    tracemalloc.start()
    try:
        run_point(point, MULTIPLICATIVE_NAMES, 400, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("point", [erdos_renyi(4000, 10.0 / 3999),
                                   random_geometric(4000, radius_for_mean_degree(4000, 10.0))],
                         ids=["er", "rg"])
def test_a_chunk_is_released_before_the_next_is_sampled(point):
    # At n = 4000 and <k> = 10 a chunk is one replica, and its degree arrays
    # hold ~44000 entries, ~350 KB: a chunk kept alive while the next one is
    # sampled raises the peak of 6 chunks above that of 1 by about that much.
    def peak(replicas):
        tracemalloc.start()
        try:
            run_point(point, MULTIPLICATIVE_NAMES, replicas, SEED)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_point(point, MULTIPLICATIVE_NAMES, 1, SEED)  # builds the ln tables
    assert len(ensemble._chunks(point, 6)) == 6
    assert peak(6) - peak(1) <= 64 * 2**10


def test_a_point_holds_one_value_per_rule_and_replica():
    # Up front a point allocates its rules x replicas values and the replicas'
    # empirical <k>, 8 bytes each, and the chunks add a few bytes a replica; the
    # skipped vertices are one total per rule, where a second rules x replicas
    # array would add 8 bytes a rule.
    point = erdos_renyi(30, 0.1)

    def peak(replicas):
        tracemalloc.start()
        try:
            run_point(point, MULTIPLICATIVE_NAMES, replicas, SEED)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_point(point, MULTIPLICATIVE_NAMES, 1, SEED)  # builds the ln tables
    per_replica = (peak(4000) - peak(1000)) / 3000
    assert per_replica <= (len(MULTIPLICATIVE_NAMES) + 1) * 8 + 16


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_chunks_are_planned_contiguous_spans_of_bounded_entries(data):
    n = data.draw(st.integers(1, 3000), label="n")
    x = data.draw(st.floats(0.0, 1.0), label="p or r")
    point = data.draw(st.sampled_from(
        [erdos_renyi(n, x), random_geometric(n, x), bipartite(n, n // 2 + 1, x)]), label="point")
    replicas = data.draw(st.integers(1, 2000), label="replicas")
    spans = ensemble._chunks(point, replicas)
    assert spans[0][0] == 0 and spans[-1][1] == replicas
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    assert all(lo < hi for lo, hi in spans)
    size = spans[0][1] - spans[0][0]
    assert all(hi - lo == size for lo, hi in spans[:-1])
    assert spans[-1][1] - spans[-1][0] <= size
    # At most one replica's expected entries past the bound.
    per_replica = point.n * (1.0 + mean_degree(point))
    assert size * per_replica < ensemble._CHUNK_ENTRIES + per_replica


# ER and BR grids of 250 vertices each, 400 replicas per point (budget 10^5).
ORACLE_GRIDS = {
    "er": [erdos_renyi(250, probability_for_mean_degree(250, k)) for k in range(2, 21, 2)],
    "br-balanced": [bipartite(125, 125, br_probability_for_mean_degree(125, 125, k))
                    for k in (2, 5, 8, 12, 20)],
    "br-unbalanced": [bipartite(50, 200, br_probability_for_mean_degree(50, 200, k))
                      for k in (2, 5, 8, 12, 20)],
}


@pytest.mark.parametrize("grid", ORACLE_GRIDS)
def test_sweep_means_match_the_exact_finite_n_expectation(grid):
    # The seed and the |z| <= 5 threshold are fixed in advance; under normality
    # the family-wise false-alarm rate over the 180 rows is about 1e-4.
    rows = sweep(EnsembleSpec(grid=tuple(ORACLE_GRIDS[grid]), indices=MULTIPLICATIVE_NAMES,
                              master_seed=SEED))
    assert len(rows) == len(ORACLE_GRIDS[grid]) * len(MULTIPLICATIVE_NAMES)
    for row in rows:
        assert row.replicas == 400
        z = (row.mean_ln - exact_mean_ln(row.spec, row.index)) / row.sem
        assert abs(z) <= 5.0, (row.spec, row.index, z)
        z_k = (row.mean_k_empirical - row.mean_k_theory) / row.mean_k_sem
        assert abs(z_k) <= 5.0, (row.spec, z_k)
        # Under exclude, degenerate sums the replicas' isolated vertices,
        # which only the vertex rules skip.
        if MULTIPLICATIVE_INDICES[row.index].arity == "edge":
            assert row.degenerate == 0, (row.spec, row.index)
        else:
            mean, var = exact_isolated_moments(row.spec)
            z_iso = (row.degenerate - row.replicas * mean) / math.sqrt(row.replicas * var)
            assert abs(z_iso) <= 5.0, (row.spec, row.index, z_iso)


# An RG grid of 250 vertices, 400 replicas per point (budget 10^5); r <= 1/2.
RG_ORACLE_GRID = tuple(random_geometric(250, radius_for_mean_degree(250, k))
                       for k in (2, 5, 8, 12, 20))
RG_ORACLE_INDICES = ("nk", "pi1", "pi2", "rpi")


def _rg_oracle(spec, nodes):
    """E[ln X] of each of RG_ORACLE_INDICES, isolated vertices excluded, the
    expected isolated vertices of one replica, and (n - 1) times the mean of A.

    ln nk = sum of ln d_v and ln pi1 = 2 ln nk over the vertices; ln pi2 =
    sum of ln(d_u d_v) over the edges = sum of d_v ln d_v; ln rpi = -ln pi2 / 2.
    """
    d = np.arange(spec.n, dtype=float)
    ln_d = np.log(np.maximum(d, 1.0))
    nk, pi2, isolated, degrees = rg_vertex_means(
        spec.n, spec.r, np.stack([ln_d, d * ln_d, d == 0, d], axis=1), nodes)
    return {"nk": nk, "pi1": 2 * nk, "pi2": pi2, "rpi": -pi2 / 2}, isolated, degrees / spec.n


def test_rg_sweep_means_match_the_quadrature_oracle():
    # As for ER and BR, the seed and the |z| <= 5 threshold are fixed in advance.
    rows = sweep(EnsembleSpec(grid=RG_ORACLE_GRID, indices=RG_ORACLE_INDICES, master_seed=SEED))
    replicas = 400
    for point_id, spec in enumerate(RG_ORACLE_GRID):
        means, isolated, mean_k = _rg_oracle(spec, 48)
        coarse, coarse_isolated, coarse_k = _rg_oracle(spec, 32)
        assert [coarse[name] for name in RG_ORACLE_INDICES] == pytest.approx(
            [means[name] for name in RG_ORACLE_INDICES], rel=1e-7)
        assert (coarse_isolated, coarse_k) == pytest.approx((isolated, mean_k), rel=1e-7)
        # mean_degree's closed form g(r) against the integral of A.
        point_rows = rows[point_id * len(RG_ORACLE_INDICES):][:len(RG_ORACLE_INDICES)]
        assert point_rows[0].mean_k_theory == pytest.approx(mean_k, rel=1e-8)
        # The sweep's replicas, drawn again for their isolated vertices.
        deg, *_ = sample_chunk(spec, replica_generators(SEED, point_id, 0, replicas))
        counts = (deg.reshape(replicas, spec.n) == 0).sum(axis=1)
        for row in point_rows:
            assert row.spec == spec and row.replicas == replicas
            z = (row.mean_ln - means[row.index]) / row.sem
            assert abs(z) <= 5.0, (spec, row.index, z)
            arity = MULTIPLICATIVE_INDICES[row.index].arity
            assert row.degenerate == (counts.sum() if arity == "vertex" else 0), (spec, row.index)
        z_k = (point_rows[0].mean_k_empirical - mean_k) / point_rows[0].mean_k_sem
        assert abs(z_k) <= 5.0, (spec, z_k)
        # The normal approximation of the isolated total needs a few expected.
        if replicas * isolated >= 10:
            z_iso = (counts.mean() - isolated) / (counts.std(ddof=1) / math.sqrt(replicas))
            assert abs(z_iso) <= 5.0, (spec, z_iso)
