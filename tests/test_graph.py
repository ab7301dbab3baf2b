import io

import pytest
from helpers import edge_list_texts, edge_sets, reference_read_edge_list, reference_write_edge_list
from hypothesis import example, given, settings

from mtindex.graph import (
    GraphError,
    build_graph,
    degree_summary,
    read_edge_list,
    write_edge_list,
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


def test_out_of_range_endpoint_rejected():
    with pytest.raises(GraphError, match="out of range"):
        build_graph(3, [(0, 3)])


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(0, 1), (2, 5), (1, 1)], r"out of range \[0, 3\): \(2, 5\)"),
        ([(0, 1), (1, 1), (2, 5)], r"self-loop \(1, 1\)"),
        ([(1, 2), (2, 1), (1, 0), (0, 1)], r"duplicate edge \(0, 1\)"),
    ],
)
def test_first_of_two_bad_pairs_is_named(pairs, message):
    # Self-loops and range errors in input order; duplicates in canonical order.
    with pytest.raises(GraphError, match=message):
        build_graph(3, pairs)


def test_empty_graphs_are_legal():
    assert build_graph(0, []).degrees.tolist() == []
    assert build_graph(5, []).degrees.tolist() == [0] * 5


def test_degree_summary_examples():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    s = degree_summary(p3)
    assert (s.min_degree, s.max_degree, s.isolated_count) == (1, 2, 0)
    assert s.mean_degree_empirical == pytest.approx(4 / 3)

    empty = degree_summary(build_graph(5, []))
    assert (empty.min_degree, empty.max_degree, empty.mean_degree_empirical,
            empty.isolated_count) == (0, 0, 0.0, 5)

    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    s4 = degree_summary(k4)
    assert (s4.min_degree, s4.max_degree, s4.mean_degree_empirical,
            s4.isolated_count) == (3, 3, 3.0, 0)


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
