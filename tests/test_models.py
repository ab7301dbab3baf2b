import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from helpers import reference_edge_arrays
from hypothesis import assume, example, given, settings, strategies as st

from mtindex import models
from mtindex.models import (
    MAX_RADIUS,
    ModelSpec,
    SeedDerivation,
    bipartite,
    br_probability_for_mean_degree,
    erdos_renyi,
    g_of_r,
    generate,
    mean_degree,
    probability_for_mean_degree,
    radius_for_mean_degree,
    random_geometric,
    sample_chunk,
    sample_degree_arrays,
    splitmix64,
)


def _assert_complete(spec, degrees):
    # Every replica of a 3-replica chunk holds each of the spec.pairs pairs.
    deg, _, _, m = sample_chunk(spec, models.replica_generators(1, 0, 0, 3))
    assert m.tolist() == [spec.pairs] * 3
    assert deg.tolist() == degrees * 3


@pytest.mark.parametrize("n", [1, 2, 3, 57, 362, 363])
def test_er_p1_is_complete(n):
    _assert_complete(erdos_renyi(n, 1.0), [n - 1] * n)


@pytest.mark.parametrize("n", [1, 2, 50])
def test_rg_max_radius_is_complete(n):
    _assert_complete(random_geometric(n, MAX_RADIUS), [n - 1] * n)


# Both sides of the pair table's bound of 2^16 pairs.
@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 7), (256, 256), (256, 257)])
def test_br_p1_is_complete_bipartite(n1, n2):
    _assert_complete(bipartite(n1, n2, 1.0), [n2] * n1 + [n1] * n2)


def test_er_p0_is_empty():
    g = generate(erdos_renyi(4, 0.0), SeedDerivation(4))
    assert g.m == 0


@pytest.mark.parametrize(
    "bad",
    [
        lambda: erdos_renyi(5, 1.5),
        lambda: erdos_renyi(0, 0.5),
        lambda: random_geometric(5, -0.1),
        lambda: random_geometric(5, 1.5),
        lambda: bipartite(0, 3, 0.5),
        lambda: ModelSpec("br", 4, p=0.5, n1=1, n2=2),
        lambda: ModelSpec("zz", 4, p=0.5),
        # A field that its model does not read, which would set the point apart
        # from its model's point, so that a repeat check missed the pair.
        pytest.param(lambda: ModelSpec("er", 10, p=0.1, r=0.3), id="er-with-r"),
        pytest.param(lambda: ModelSpec("rg", 10, p=0.1, r=0.3), id="rg-with-p"),
        pytest.param(lambda: ModelSpec("rg", 10, r=0.3, n1=4, n2=6), id="rg-with-parts"),
    ],
)
def test_invalid_specs_rejected(bad):
    with pytest.raises(ValueError):
        bad()


@pytest.mark.parametrize("make, message", [
    (lambda: erdos_renyi(2.5, 0.5), "size must be a positive integer, got n=2.5"),
    (lambda: random_geometric(7.0, 0.3), "size must be a positive integer, got n=7.0"),
    (lambda: ModelSpec("br", 6, p=0.5, n1=3.0, n2=3), "br requires positive part sizes n1, n2"),
    (lambda: bipartite(3, np.float64(3.0), 0.5), "size must be a positive integer, got n=6.0"),
], ids=["er", "rg", "br-part", "br-total"])
def test_a_size_that_is_no_integer_is_refused_at_construction(make, message):
    # It would fail inside numpy when sampled, or pass a float n to a sampler.
    with pytest.raises(ValueError) as refused:
        make()
    assert str(refused.value) == message


def test_numpy_integer_sizes_are_sizes():
    for make, sizes in ((erdos_renyi, (9,)), (random_geometric, (9,)), (bipartite, (4, 5))):
        assert (generate(make(*map(np.int32, sizes), 0.5), SeedDerivation(3))
                == generate(make(*sizes, 0.5), SeedDerivation(3)))


def test_mean_degree_formulas():
    assert mean_degree(erdos_renyi(101, 0.1)) == pytest.approx(10.0)
    assert mean_degree(random_geometric(2, MAX_RADIUS)) == pytest.approx(1.0)
    spec = bipartite(100, 100, 0.05)
    assert mean_degree(spec) == pytest.approx(5.0)


def test_g_endpoints_and_branch_agreement():
    assert g_of_r(0.0) == 0.0
    assert abs(g_of_r(MAX_RADIUS) - 1.0) <= 1e-12
    # Evaluate the two closed-form branches at r=1 independently.
    low = math.pi - 8.0 / 3.0 + 0.5
    high = (1.0 / 3.0 - 2.0 * (1.0 - math.asin(1.0) + math.acos(1.0))
            + (4.0 / 3.0) * 3.0 * 0.0 - 0.5)
    assert abs(low - high) <= 1e-12 * abs(low)
    assert g_of_r(1.0) == pytest.approx(low, rel=1e-12)
    with pytest.raises(ValueError):
        g_of_r(1.5)
    with pytest.raises(ValueError):
        g_of_r(-0.01)


def test_g_monotone_on_grid():
    grid = np.linspace(0.0, MAX_RADIUS, 1000)
    vals = [g_of_r(float(r)) for r in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_radius_inversion():
    for n, k in [(500, 10.0), (250, 2.0), (125, 20.0)]:
        r = radius_for_mean_degree(n, k)
        assert (n - 1) * g_of_r(r) == pytest.approx(k, abs=1e-9)
    assert probability_for_mean_degree(101, 10.0) == pytest.approx(0.1)


@pytest.mark.parametrize("target, message", [
    (lambda: probability_for_mean_degree(1, 0.0), "got n=1"),
    (lambda: probability_for_mean_degree(0, 0.0), "got n=0"),
    (lambda: radius_for_mean_degree(1, 0.0), "got n=1"),
    (lambda: br_probability_for_mean_degree(0, 5, 2.0), "got n1=0, n2=5"),
    (lambda: br_probability_for_mean_degree(5, 0, 0.0), "got n1=5, n2=0"),
], ids=["er-n1", "er-n0", "rg-n1", "br-n1-0", "br-n2-0"])
def test_mean_degree_targets_name_a_size_too_small(target, message):
    # Each once divided by zero: there is no second vertex to be a neighbour.
    with pytest.raises(ValueError, match=message):
        target()


@pytest.mark.parametrize("target, message", [
    (lambda: probability_for_mean_degree(10, 10.0), "target mean degree 10.0 outside [0, n-1]"),
    (lambda: br_probability_for_mean_degree(2, 2, 5.0),
     "target mean degree 5.0 unreachable for n1=2, n2=2"),
], ids=["er", "br"])
def test_a_mean_degree_beyond_the_model_is_refused(target, message):
    with pytest.raises(ValueError) as refused:
        target()
    assert str(refused.value) == message


def test_same_seed_triple_bitwise_reproducible():
    for spec in (erdos_renyi(30, 0.3), random_geometric(30, 0.4), bipartite(10, 20, 0.5)):
        a = generate(spec, SeedDerivation(99, 4, 7))
        b = generate(spec, SeedDerivation(99, 4, 7))
        assert a == b


def test_distinct_triples_give_distinct_streams():
    spec = erdos_renyi(40, 0.5)
    seen = set()
    for point in range(3):
        for rep in range(3):
            g = generate(spec, SeedDerivation(5, point, rep))
            seen.add(g.edges.tobytes())
    assert len(seen) == 9
    assert splitmix64(0) != splitmix64(1)


def test_br_has_no_intra_set_edges():
    spec = bipartite(7, 12, 0.4)
    for rep in range(50):
        g = generate(spec, SeedDerivation(11, 0, rep))
        for u, v in g.edges:
            assert u < 7 <= v


def test_empirical_mean_degree_matches_theory():
    # |<2m/n> - (n-1)p| <= 4 SEM over R=200 replicas at fixed seeds.
    for spec in (erdos_renyi(60, 0.3), random_geometric(60, 0.3), bipartite(30, 30, 0.3)):
        ks = []
        for rep in range(200):
            deg, du, _ = sample_degree_arrays(spec, SeedDerivation(123, 0, rep).generator())
            ks.append(2.0 * du.shape[0] / spec.n)
        mean = float(np.mean(ks))
        sem = float(np.std(ks, ddof=1) / math.sqrt(len(ks)))
        assert abs(mean - mean_degree(spec)) <= 4.0 * sem


def test_rg_positions_drawn_before_distance_tests():
    # The edge set must match a direct recomputation from the same positions.
    spec = random_geometric(25, 0.5)
    seed = SeedDerivation(42, 0, 0)
    g = generate(spec, seed)
    pos = seed.generator().random((25, 2))
    expected = set()
    for u in range(25):
        for v in range(u + 1, 25):
            d2 = (pos[u, 0] - pos[v, 0]) ** 2 + (pos[u, 1] - pos[v, 1]) ** 2
            if d2 <= 0.25:
                expected.add((u, v))
    assert set(map(tuple, g.edges.tolist())) == expected


def _assert_same_edges(spec, seed):
    got = models._edges(spec, [seed.generator()])[:2]
    want = reference_edge_arrays(spec, seed.generator())
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@st.composite
def model_specs(draw):
    n = draw(st.integers(1, 300))
    model = draw(st.sampled_from(("er", "rg", "br")))
    if model == "rg":
        return random_geometric(n, draw(st.floats(0.0, MAX_RADIUS)))
    p = draw(st.floats(0.0, 1.0))
    if model == "er":
        return erdos_renyi(n, p)
    n1 = draw(st.integers(1, max(1, n - 1)))
    return bipartite(n1, max(1, n - n1), p)


@settings(max_examples=150, deadline=None)
@given(model_specs(), st.integers(0, 2**64 - 1), st.integers(0, 50), st.integers(0, 50))
def test_sampler_matches_reference(spec, master, point, replica):
    _assert_same_edges(spec, SeedDerivation(master, point, replica))


@pytest.mark.parametrize("n", [1, 2, 3, 57])
@pytest.mark.parametrize(
    "make",
    [lambda n: erdos_renyi(n, 0.0), lambda n: erdos_renyi(n, 1.0)]
    + [lambda n, r=r: random_geometric(n, r) for r in (0.0, 1e-9, 0.25, 0.5, 1.0, MAX_RADIUS)]
    + [lambda n: bipartite(1, n, 0.0), lambda n: bipartite(n, 2, 1.0)]
    # p near 1, where most skips are 0 and y is below 1, and tiny p, where the
    # first draw runs past the last pair unless U = 1.
    + [lambda n, p=p: erdos_renyi(n, p) for p in (1.0 - 2.0 ** -53, 1.0 - 1e-9, 5e-324, 2.0 ** -61)]
    + [lambda n: bipartite(n, 3, 1.0 - 2.0 ** -53), lambda n: bipartite(2, n, 1e-300)],
)
def test_sampler_matches_reference_at_edge_cases(make, n):
    for replica in range(3):
        _assert_same_edges(make(n), SeedDerivation(8, 1, replica))


@pytest.mark.parametrize("n", [2, 57, 250])
def test_rg_edges_at_cell_width_boundaries(n):
    # r = 1/g and its float neighbours put r exactly at, just below and just
    # above the width of a grid of g cells per side.
    for g in range(1, 65):
        r = 1.0 / g
        for radius in (np.nextafter(r, 0.0), r, np.nextafter(r, 2.0)):
            spec = random_geometric(n, float(radius))
            for replica in range(3):
                _assert_same_edges(spec, SeedDerivation(g, n, replica))


# A point of at most _BLOCK pairs maps its offsets through a pair table: block
# 2^16 sends er-250 and br-125 through one, the smaller blocks through the
# arithmetic.
@pytest.mark.parametrize("block", [1, 7, 4096, 1 << 16])
@pytest.mark.parametrize(
    "spec",
    [erdos_renyi(90, 0.1), random_geometric(90, 0.2), random_geometric(40, 0.6),
     bipartite(30, 45, 0.1), erdos_renyi(250, 0.04), bipartite(125, 125, 0.04)],
    ids=["er", "rg", "rg-dense", "br", "er-250", "br-125"],
)
def test_edges_do_not_depend_on_block_size(monkeypatch, block, spec):
    monkeypatch.setattr(models, "_BLOCK", block)
    monkeypatch.setattr(models, "_RG_BLOCK", block)
    for replica in range(3):
        _assert_same_edges(spec, SeedDerivation(21, 0, replica))


@st.composite
def chunk_specs(draw):
    """A model point of n <= 120 whose parameter is often 0 or its largest value."""
    n = draw(st.integers(1, 120))
    model = draw(st.sampled_from(("er", "rg", "br")))
    top = MAX_RADIUS if model == "rg" else 1.0
    x = draw(st.one_of(st.sampled_from([0.0, top]), st.floats(0.0, top)))
    if model == "er":
        return erdos_renyi(n, x)
    if model == "rg":
        return random_geometric(n, x)
    n1 = draw(st.integers(1, max(1, n - 1)))
    return bipartite(n1, max(1, n - n1), x)


@settings(max_examples=200, deadline=None)
@given(chunk_specs(), st.integers(0, 2**64 - 1), st.integers(0, 50), st.integers(1, 12),
       st.sampled_from([None, 1, 7]))
@example(erdos_renyi(1, 0.5), 1, 0, 1, None)
@example(random_geometric(1, 0.3), 1, 0, 3, None)
@example(erdos_renyi(40, 0.3), 2, 5, 1, 7)
def test_a_chunk_equals_its_replicas_sampled_alone(spec, master, lo, size, block):
    # block: a small _BLOCK makes some replicas read on past their first
    # block, alone, and a small _RG_BLOCK cuts the RG tests across replicas.
    # The replicas alone are sampled after the patch ends, at the default blocks.
    replicas = range(lo, lo + size)
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(models, "_BLOCK", block)
            patch.setattr(models, "_RG_BLOCK", block)
        chunk = sample_chunk(spec, [SeedDerivation(master, 3, r).generator() for r in replicas])
    _assert_chunk_equals_replicas(spec, master, replicas, chunk)


def _assert_chunk_equals_replicas(spec, master, replicas, chunk):
    deg, du, dv, m = chunk
    assert m.sum() == du.size == dv.size
    assert deg.size == len(replicas) * spec.n
    ends = np.cumsum(m)
    for j, r in enumerate(replicas):
        want = sample_degree_arrays(spec, SeedDerivation(master, 3, r).generator())
        got = (deg[j * spec.n:(j + 1) * spec.n], du[ends[j] - m[j]:ends[j]],
               dv[ends[j] - m[j]:ends[j]])
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


# RG n = 250 with 16 x 16 cells: 272 cell ids a replica, cells 0.0625 wide.
@pytest.mark.parametrize("size, id_type, key_type", [(241, np.uint32, np.uint32),
                                                     (263, np.uint32, np.uint64)])
def test_a_chunk_equals_its_replicas_at_each_rg_key_width(size, id_type, key_type):
    # The chunk's cell ids, past 2^16, take no radix sort; past 2^16 points
    # its edge keys u*N + v need 64 bits.  Its edges must still be those of
    # the all-pairs reference, array type too, and its replicas those alone.
    spec = random_geometric(250, 0.05)
    g = models._cells_per_side(spec.n, spec.r)
    assert np.min_scalar_type(size * (g + 1) * g - 1) == id_type
    assert np.min_scalar_type((size * spec.n) ** 2 - 1) == key_type
    u, v, _ = models._edges(spec, [SeedDerivation(4, 3, r).generator() for r in range(size)])
    want = [reference_edge_arrays(spec, SeedDerivation(4, 3, r).generator()) for r in range(size)]
    for got, alone in zip((u, v), zip(*want)):
        union = np.concatenate([ends + j * spec.n for j, ends in enumerate(alone)])
        assert got.dtype == union.dtype
        np.testing.assert_array_equal(got, union)
    chunk = sample_chunk(spec, [SeedDerivation(4, 3, r).generator() for r in range(size)])
    _assert_chunk_equals_replicas(spec, 4, range(size), chunk)


_SEEDS = st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1)


@settings(max_examples=100, deadline=None)
@given(_SEEDS, _SEEDS | st.integers(2**64, 2**66), _SEEDS, st.integers(1, 6))
@example(0, 2**64 - 1, 2**64 - 3, 6)
@example(2**64 - 1, 2**64 + 7, 2**64 - 1, 3)
def test_a_chunk_seeds_each_replica_from_its_triple(master, point_id, lo, size):
    # A chunk computes the chain's prefix through (master, point_id) once; each
    # replica's generator must still be a PCG64 stream seeded by its triple's
    # stream seed, draw for draw, also where the prefix plus the point id or
    # the replica index wraps past 2^64.
    seen = [(rng.bit_generator.state, rng.random(3).tolist())
            for rng in models.replica_generators(master, point_id, lo, lo + size)]
    want = []
    for r in range(lo, lo + size):
        seed = SeedDerivation(master, point_id, r).stream_seed()
        rng = np.random.Generator(np.random.PCG64(seed))
        want.append((rng.bit_generator.state, rng.random(3).tolist()))
    assert seen == want


@pytest.mark.parametrize("model, sizes", [
    *[("er", (n,)) for n in (2, 3, 57, 250, 362, 363)],
    *[("br", sizes) for sizes in ((1, 7), (125, 125), (255, 257), (256, 256), (256, 257))],
], ids=lambda x: "-".join(map(str, x)) if isinstance(x, tuple) else x)
def test_the_pair_table_equals_the_arithmetic_mapping(model, sizes):
    # Every pair of the point, in reverse order, through _pairs and through
    # the arithmetic; a table is built up to _BLOCK = 2^16 pairs only.  A p = 1
    # chunk then adds each replica's j*n to its pairs in place, which must
    # leave the table as it was built.
    pairs_of, make = {"er": (models._er_pairs, erdos_renyi),
                      "br": (models._br_pairs, bipartite)}[model]
    spec = make(*sizes, 1.0)
    flat = np.arange(spec.pairs)[::-1]
    models._pair_table.cache_clear()
    got = models._pairs(pairs_of, sizes, spec.pairs, flat)
    models._edges(spec, models.replica_generators(1, 0, 0, 3))
    again = models._pairs(pairs_of, sizes, spec.pairs, flat)
    for g, a, w in zip(got, again, pairs_of(*sizes, flat)):
        assert g.dtype == a.dtype == w.dtype
        np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(a, w)
    built = models._pair_table.cache_info()
    assert (built.misses, built.currsize) == ((1, 1) if spec.pairs <= 1 << 16 else (0, 0))


def test_the_process_keeps_one_pair_table():
    # Three points of at most 2^16 pairs in turn; each builds its table, which
    # replaces the last, and what stays held is BR 256 + 256's: 2 x 65536
    # int64 (1 MiB), plus 64 KiB of slack for the arrays' headers and the
    # interpreter's own.  A first sample, untraced, pays the allocations of a
    # first call.
    sample_chunk(erdos_renyi(20, 0.5), models.replica_generators(1, 0, 0, 4))
    models._pair_table.cache_clear()
    tracemalloc.start()
    try:
        for built, spec in enumerate((erdos_renyi(250, 0.04), erdos_renyi(362, 0.03),
                                      bipartite(256, 256, 0.04)), 1):
            sample_chunk(spec, models.replica_generators(1, 0, 0, 4))
            kept = models._pair_table.cache_info()
            assert (kept.misses, kept.currsize) == (built, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2**20 + 2**16


# No ModelSpec beyond 2^47 candidate pairs exists, so each test builds its own.
@pytest.mark.parametrize("make, args", [(erdos_renyi, (2**24 + 2, 1e-9)),
                                        (bipartite, (2**24, 2**23 + 1, 1e-9))], ids=["er", "br"])
def test_more_than_2_to_the_47_pairs_is_refused_before_any_allocation(make, args):
    # Beyond 2^47 pairs the float skips and int64 offsets would no longer be exact.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="candidate pairs exceed the 2\\^47 of one sample"):
            models._edges(make(*args), [SeedDerivation(1).generator()])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


@pytest.mark.parametrize("make, args, message", [
    (erdos_renyi, (2**24 + 2, 1e-9),
     "er n=16777218 p=1e-09: 140737513521153 candidate pairs exceed the 2^47 of one sample"),
    (bipartite, (2**24, 2**23 + 1, 1e-9),
     "br n1=16777216 n2=8388609 p=1e-09: 140737505132544 candidate pairs exceed the 2^47 of"
     " one sample"),
], ids=["er", "br"])
def test_generate_names_a_point_no_replica_can_sample(monkeypatch, make, args, message):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew from a point that was to be refused")

    monkeypatch.setattr(models, "_bernoulli_offsets", no_draw)
    with pytest.raises(ValueError) as refused:
        generate(make(*args), SeedDerivation(1))
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "spec",
    [
        erdos_renyi(4000, probability_for_mean_degree(4000, 10.0)),
        bipartite(2000, 2000, 10.0 / 2000),
        random_geometric(4000, radius_for_mean_degree(4000, 10.0)),
    ],
    ids=["er", "br", "rg"],
)
def test_one_sample_stays_within_16_mib(spec):
    rng = SeedDerivation(3).generator()
    tracemalloc.start()
    try:
        models._edges(spec, [rng])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


_PREC = 192   # fixed-point bits of the exact tables below


def _exact_powers(p):
    """Integers lo[j] <= (1 - p)**j * 2^_PREC <= hi[j] for j = 0, 1, ... while
    (1 - p)**j >= 2^-53, one multiplication by 1 - p = q / 2^e at a time, each
    rounded down for lo and up for hi (so hi - lo <= j)."""
    a, b = p.as_integer_ratio()
    q, e = b - a, b.bit_length() - 1
    lo, hi = [1 << _PREC], [1 << _PREC]
    while hi[-1] >> (_PREC - 53):
        lo.append(lo[-1] * q >> e)
        hi.append(-(-hi[-1] * q >> e))
    return lo, hi


def _grid_thresholds(lo, hi):
    """F[j] = floor((1 - p)**j * 2^53), so U = c / 2^53 has (1 - p)**j >= U iff c <= F[j]."""
    f = [x >> (_PREC - 53) for x in lo]
    assert f == [x >> (_PREC - 53) for x in hi]
    return np.array(f, dtype=np.int64)


def _nearest_to_power(lo, hi, k):
    """U at the double nearest (1 - p)**k and at the two doubles on each side
    of it, with the exact skip max{j : (1 - p)**j >= U} of each (k or k - 1)."""
    x = lo[k] / (1 << _PREC)
    us = [x]
    for toward in (0.0, 2.0):
        u = x
        for _ in range(2):
            u = float(np.nextafter(u, toward))
            us.append(u)
    out = []
    for u in us:
        c, d = u.as_integer_ratio()
        t = c << (_PREC - (d.bit_length() - 1))
        assert t <= lo[k] or t > hi[k]
        out.append((u, k if t <= lo[k] else k - 1))
    return out


def test_filtered_skips_equal_the_exact_definition(monkeypatch):
    # Over 10^6 draws the float filter with its exact fallback gives the skip
    # of the definition, taken here from exact tables of (1 - p)^j.  The draws
    # include every U on the 2^-53 grid next to (1 - p)^k for k spread over the
    # table, and the doubles next to (1 - p)^k, whose y lies within an ulp or
    # so of k and which the filter must defer, up to k = 10^5.
    deferred = []
    power_at_least = models._power_at_least
    monkeypatch.setattr(models, "_power_at_least",
                        lambda p, k, u: deferred.append(k) or power_at_least(p, k, u))
    rng = np.random.default_rng(19)
    draws = 0
    for p in (0.5, 0.75, 0.3, 1.0 - 2.0 ** -53, 0.01, 1e-3, 2e-4):
        lo, hi = _exact_powers(p)
        f = _grid_thresholds(lo, hi)
        ks = np.unique(np.geomspace(1, f.size - 1, 60).astype(int)).tolist()
        c = np.concatenate([rng.integers(1, 2**53, 150_000, endpoint=True),
                            (f[ks][:, None] + np.arange(-2, 3)).ravel()])
        c = c[(c >= 1) & (c <= 2**53)]
        want = np.searchsorted(-f[1:], -c, side="right")
        np.testing.assert_array_equal(models._skips(c / 2.0**53, p, models._MAX_PAIRS), want)
        near = [pair for k in ks for pair in _nearest_to_power(lo, hi, k)]
        u, want = (np.array(col) for col in zip(*near))
        np.testing.assert_array_equal(models._skips(u, p, models._MAX_PAIRS), want)
        draws += c.size + u.size
    assert draws >= 10**6
    assert max(deferred) >= 10**5


@pytest.mark.parametrize("p", [0.5, 0.75, 0.25, 0.3, 1e-3, 1.0 - 2.0 ** -53, 2.0 ** -70])
def test_power_at_least_is_exact(p):
    # Against the exact integers; U at (1 - p)^k itself where a double holds
    # it, so equality must read True.
    a, b = p.as_integer_ratio()
    for k in range(0, 400, 7):
        x = (b - a) ** k / b ** k
        for u in (x, *np.nextafter(x, [0.0, 2.0])):
            if 0.0 < u <= 1.0:
                c, d = float(u).as_integer_ratio()
                assert models._power_at_least(p, k, float(u)) == ((b - a) ** k * d >= c * b ** k)


def _exactly_at_least(p, k, u):
    return (1 - Fraction(p)) ** k >= Fraction(u)


@pytest.mark.parametrize("p, k, u, rounds", [
    # 1 - 2^-200 rounds to 1 at 128 bits, so the first bracket holds u = 1.
    (2.0 ** -200, 2, 1.0, 2),
    (0.5, 3, 0.125, 1),         # equal: every product is exact at the first precision
    (0.25, 4, 81 / 256, 1),     # equal
    (0.5, 3, 0.25, 1),
    (0.3, 5, 0.1, 1),
    (1e-3, 7, 0.99, 1),
], ids=["doubles", "equal", "equal-4", "below", "above", "near-one"])
def test_power_at_least_doubles_its_precision_until_the_bracket_decides(
        monkeypatch, p, k, u, rounds):
    seen = []
    fixed_power = models._fixed_power
    monkeypatch.setattr(models, "_fixed_power",
                        lambda q, e, k, prec: seen.append(prec) or fixed_power(q, e, k, prec))
    assert models._power_at_least(p, k, u) == _exactly_at_least(p, k, u)
    first = u.as_integer_ratio()[1].bit_length() - 1 + 128    # u = c / 2^f: f + 128 bits
    assert seen == [first << i for i in range(rounds)]


def _ulps_from(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 80).flatmap(
           lambda e: st.integers(1, 2 ** min(e, 53) - 1).map(lambda a: a * 2.0 ** -e)),
       st.integers(0, 8),
       st.one_of(st.floats(5e-324, 1.0), st.integers(-2, 2)))
def test_power_at_least_agrees_with_fractions_on_dyadic_p(p, k, u):
    # An integer u stands for the double that many ulps from the exact power.
    if isinstance(u, int):
        u = _ulps_from(float((1 - Fraction(p)) ** k), u)
    assume(0.0 < u <= 1.0)
    assert models._power_at_least(p, k, u) == _exactly_at_least(p, k, u)


def test_fixed_power_brackets_the_power():
    # At precisions low enough that every product rounds.
    for q, e in [(1, 1), (3, 2), (5, 3), (2**20 - 1, 20), (12345, 17)]:
        for k in range(0, 70, 3):
            for prec in (8, 16, 40):
                lo, hi = models._fixed_power(q, e, k, prec)
                exact = q**k << prec
                assert lo << (e * k) <= exact <= hi << (e * k)
                assert hi - lo <= 8 * max(k, 1)
