import io
import tracemalloc

import numpy as np
import pytest
from helpers import (
    edge_list_texts,
    edge_sets,
    flat_stack,
    reference_read_edge_list,
    reference_write_edge_list,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtindex import graph
from mtindex.graph import (
    GraphError,
    _is_canonical,
    build_graph,
    read_edge_list,
    read_edge_list_path,
    write_edge_list,
    write_edge_list_path,
)
from mtindex.models import (
    SeedDerivation,
    bipartite,
    erdos_renyi,
    generate,
    probability_for_mean_degree,
    random_geometric,
)


def test_path_graph_degrees():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.m == 2
    assert g.degrees.tolist() == [1, 2, 1]
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_canonicalization_orders_endpoints_and_edges():
    g = build_graph(4, [(3, 2), (1, 0)])
    assert g.edges.tolist() == [[0, 1], [2, 3]]


def test_self_loop_rejected_with_pair():
    with pytest.raises(GraphError, match=r"self-loop \(0, 0\)"):
        build_graph(2, [(0, 0)])


def test_duplicate_after_canonicalization_rejected():
    with pytest.raises(GraphError, match="duplicate"):
        build_graph(4, [(0, 1), (1, 0)])


@pytest.mark.parametrize("build, message", [
    (lambda: build_graph(-1, []), "vertex count must be nonnegative, got -1"),
    (lambda: build_graph(3, [(0, 1, 2)]), "edges must be (u, v) pairs, got shape (1, 3)"),
    (lambda: read_edge_list(io.StringIO("x 1\n0 1\n")), "non-integer header 'x 1'"),
], ids=["negative-count", "triple", "line-parser-header"])
def test_a_bad_count_edge_shape_or_header_is_a_one_line_error(build, message):
    with pytest.raises(GraphError) as refused:
        build()
    assert str(refused.value) == message


def test_out_of_range_endpoint_rejected():
    with pytest.raises(GraphError, match="out of range"):
        build_graph(3, [(0, 3)])


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(0, 1), (2, 5), (1, 1)], r"out of range \[0, 3\): \(2, 5\)"),
        ([(0, 1), (1, 1), (2, 5)], r"self-loop \(1, 1\)"),
        ([(1, 2), (2, 1), (1, 0), (0, 1)], r"duplicate edge \(0, 1\)"),
        ([(0, 1), (0, 1), (1, 2), (1, 2)], r"duplicate edge \(0, 1\)"),
        ([(0, 1), (1, 1), (2, 2)], r"self-loop \(1, 1\)"),
        ([(0, 1), (1, 3), (2, 5)], r"out of range \[0, 3\): \(1, 3\)"),
        ([(-1, 0), (0, 1), (0, 1)], r"out of range \[0, 3\): \(-1, 0\)"),
    ],
)
def test_first_of_two_bad_pairs_is_named(pairs, message):
    # Self-loops and range errors in input order; duplicates in canonical order.
    # The last four lists ascend, so they reach the test for canonical input.
    with pytest.raises(GraphError, match=message):
        build_graph(3, pairs)


def test_empty_graphs_are_legal():
    assert build_graph(0, []).degrees.tolist() == []
    assert build_graph(5, []).degrees.tolist() == [0] * 5


@given(edge_sets(), st.randoms(use_true_random=False))
def test_build_graph_ignores_pair_order_and_orientation(case, rnd):
    n, edges = case
    canonical = sorted(edges)
    shuffled = rnd.sample(canonical, len(canonical))
    swapped = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in shuffled]
    g = build_graph(n, canonical)
    assert g.edges.tolist() == [list(pair) for pair in canonical]
    assert build_graph(n, np.array(canonical, dtype=np.int64).reshape(-1, 2)) == g
    assert build_graph(n, shuffled) == g
    assert build_graph(n, swapped) == g


# Endpoints at the int64 limits, where a u*n + v key would overflow.
_ENDPOINTS = st.one_of(st.integers(-2, 8),
                       st.sampled_from([-2**63, 2**31, 2**62 - 1, 2**62, 2**63 - 2, 2**63 - 1]))


@given(st.one_of(st.integers(0, 8), st.sampled_from([2**62, 2**63 - 1])),
       st.lists(st.tuples(_ENDPOINTS, _ENDPOINTS), max_size=8))
def test_canonical_test_accepts_only_canonical_pairs(n, pairs):
    # Sorted pairs ascend, so only a loop, a reversed or out-of-range pair or
    # a duplicate can make them non-canonical.
    pairs = sorted(pairs)
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    want = (all(0 <= a < b < n for a, b in pairs)
            and all(p < q for p, q in zip(pairs, pairs[1:])))
    assert _is_canonical(n, u, v) == want
    assert _is_canonical(n, u[::-1], v[::-1]) == (want and len(pairs) < 2)


def _refuse(*args):
    raise AssertionError("the line parser was called")


@pytest.mark.parametrize("g", [
    generate(erdos_renyi(300, 0.05), SeedDerivation(3)),
    generate(random_geometric(300, 0.1), SeedDerivation(3)),
    generate(bipartite(120, 180, 0.05), SeedDerivation(3)),
    build_graph(10**6, [(0, 999_999), (7, 10), (123_456, 654_321)]),
    build_graph(7, []),
    build_graph(0, []),
], ids=["er", "rg", "br", "wide", "edgeless", "n0"])
def test_writer_output_is_read_in_one_numpy_pass(g, tmp_path, monkeypatch):
    monkeypatch.setattr(graph, "_parse_edge_lines", _refuse)
    path = tmp_path / "g.edges"
    write_edge_list_path(g, path)
    assert read_edge_list_path(path) == g


def test_reader_peak_memory_is_bounded_per_input_byte(tmp_path):
    # About 1 MB of plain text, read within 12 bytes per input byte.
    n = 20_000
    g = generate(erdos_renyi(n, probability_for_mean_degree(n, 10.0)), SeedDerivation(1))
    path = tmp_path / "g.edges"
    write_edge_list_path(g, path)
    size = path.stat().st_size
    assert size > 10**6
    tracemalloc.start()
    try:
        back = read_edge_list_path(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == g
    assert peak <= 12 * size


@given(st.lists(st.one_of(st.sampled_from([(0, []), (1, [])]), edge_sets()),
                min_size=1, max_size=12))
def test_both_pair_counters_give_the_same_histogram(cases):
    # Empty graphs, isolated vertices and J = 1..12; each counter is forced in
    # turn, and the one the size rule picks must agree with both.
    graphs = [build_graph(n, edges) for n, edges in cases]
    arrays = flat_stack([(g.degrees, *g.edge_degree_pairs().T) for g in graphs])
    histograms = [graph.DegreeHistogram.stack(*arrays)]
    for counter in (graph._count_by_bincount, graph._count_by_sort):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "_count_by_bincount", counter)
            patch.setattr(graph, "_count_by_sort", counter)
            histograms.append(graph.DegreeHistogram.stack(*arrays))
    picked, *forced = ([h.vertex, *h.pairs, h.pair_counts, h.pair_graph] for h in histograms)
    for got in forced:
        for a, b in zip(got, picked):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def test_a_hub_histogram_is_counted_by_sorting_in_linear_memory(monkeypatch):
    # A star's K^2 = 10^10 possible pair keys would take 80 GB to count by
    # bincount; sorting its n - 1 keys stays within 40 bytes per vertex and edge.
    def refuse(keys):
        raise AssertionError("a hub's pair keys were counted by bincount")

    monkeypatch.setattr(graph, "_count_by_bincount", refuse)
    n = 10**5
    star = build_graph(n, np.stack((np.zeros(n - 1, dtype=np.int64), np.arange(1, n)), axis=1))
    arrays = flat_stack([(star.degrees, *star.edge_degree_pairs().T)])
    tracemalloc.start()
    try:
        h = graph.DegreeHistogram.stack(*arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.pairs[0].tolist() == [n - 1] and h.pairs[1].tolist() == [1]
    assert h.pair_counts.tolist() == [n - 1]
    assert peak <= 40 * (n + star.m)


@given(edge_sets())
def test_handshake_and_degree_cache(case):
    n, edges = case
    g = build_graph(n, edges)
    assert sum(g.degrees) == 2 * g.m
    recount = [0] * n
    for u, v in g.edges:
        recount[u] += 1
        recount[v] += 1
    assert recount == g.degrees.tolist()


@given(edge_sets())
def test_edge_list_round_trip(case):
    n, edges = case
    g = build_graph(n, edges)
    buf = io.StringIO()
    write_edge_list(g, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == f"{n} {len(edges)}"
    # The writer's texts are plain: none goes to the slower line parser.
    assert graph._parse_plain(text) is not None
    back = read_edge_list(io.StringIO(text))
    assert back == g
    again = io.StringIO()
    write_edge_list(back, again)
    assert again.getvalue() == text


@given(edge_sets())
def test_writer_gives_the_line_writer_bytes(case):
    g = build_graph(*case)
    got, want = io.StringIO(), io.StringIO()
    write_edge_list(g, got)
    reference_write_edge_list(g, want)
    assert got.getvalue() == want.getvalue()


def _outcome(read, text):
    try:
        return read(io.StringIO(text))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(edge_list_texts())
@example("3 1\n0 99999999999999999999\n")     # beyond int64
@example("3 1\n0 9223372036854775808\n")      # 2**63, 19 digits
@example("3 1\n0 1000000000000000000\n")      # 19 digits, fits int64
@example("3 1\r\n+0 002\r\n")
@example("3 1\n0 1 2\n")                      # every edge line has three tokens
@example("3 2\n0\n1\n")                       # every edge line has one token
@example("\n \t\n")
@example("2 0")
@example("3 1\n0 x\n")                        # a token that is no integer
@example("3 1\n0 1.0\n")
def test_reader_agrees_with_the_line_parser(text):
    # The same Graph, or the same error type and message.
    assert _outcome(read_edge_list, text) == _outcome(reference_read_edge_list, text)


def test_reader_rejects_inconsistent_m():
    with pytest.raises(GraphError, match="declares m=2"):
        read_edge_list(io.StringIO("3 2\n0 1\n"))


def test_reader_rejects_bad_header_and_lines():
    with pytest.raises(GraphError):
        read_edge_list(io.StringIO("3\n"))
    with pytest.raises(GraphError):
        read_edge_list(io.StringIO("3 1\n0 1 2\n"))
    with pytest.raises(GraphError):
        read_edge_list(io.StringIO(""))
