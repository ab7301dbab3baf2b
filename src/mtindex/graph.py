"""Immutable simple undirected graphs held as int64 arrays.

Vertices are the integers ``0 .. n-1``.  ``edges`` is an ``(m, 2)`` array of
canonical pairs ``u < v`` in ascending lexicographic order, so that every
downstream accumulation visits factors in a fixed, reproducible order;
``degrees`` is the ``(n,)`` degree sequence.  Graphs with ``n == 0`` or no
edges are legal everywhere.

``build_graph`` takes pairs that already satisfy ``0 <= u < v < n`` and ascend
strictly (compared pair by pair) straight to the graph, as every file
``write_edge_list`` writes; any other list is validated, sorted and checked for
duplicates.  ``read_edge_list`` converts a plain text with ``np.loadtxt``: ASCII
digits, spaces, tabs and newlines only, every token at most 18 digits, every
nonblank line two tokens, and a header ``n m`` with m the number of edge lines.
Any other text (signs, ``_``, non-ASCII digits, other whitespace, a longer
token, a wrong token count or m) goes to the line parser, whose values and
error messages are the reference.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence, TextIO

import numpy as np


class GraphError(ValueError):
    """Malformed graph input: self-loop, out-of-range endpoint, or duplicate edge."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph, immutable after construction (read-only arrays).

    Safe to share across concurrent workers without synchronization.  Two
    graphs are equal when their vertex counts and arrays are equal.
    """

    n: int
    edges: np.ndarray       # (m, 2) int64, canonical u < v, sorted
    degrees: np.ndarray     # (n,) int64

    def __post_init__(self):
        self.edges.setflags(write=False)
        self.degrees.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.edges, other.edges)
                and np.array_equal(self.degrees, other.degrees))

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    def edge_degree_pairs(self) -> np.ndarray:
        """``(m, 2)`` array of ``(d_u, d_v)`` per edge in canonical edge order."""
        return self.degrees[self.edges]

    @functools.cached_property
    def histogram(self) -> DegreeHistogram:
        """The :class:`DegreeHistogram`, built on first use and kept."""
        return DegreeHistogram.of(self.degrees, *self.edge_degree_pairs().T)


class DegreeHistogram(NamedTuple):
    """All that a degree-based index reads of J >= 1 graphs: ``vertex[j, d]``
    counts the vertices of degree d in graph j (column 0: isolated), and
    ``pair_counts`` the edges of each distinct ordered degree pair in
    ``pairs = (d_u, d_v)``, lexicographic within a graph and graph after graph;
    ``pair_graph`` names each pair's graph."""

    vertex: np.ndarray
    pairs: tuple[np.ndarray, np.ndarray]
    pair_counts: np.ndarray
    pair_graph: np.ndarray

    @classmethod
    def of(cls, deg: np.ndarray, du: np.ndarray, dv: np.ndarray) -> DegreeHistogram:
        """One graph's, from its degrees and each edge's endpoint degrees."""
        return cls.stack(deg, du, dv, [deg.size], [du.size])

    @classmethod
    def stack(cls, deg: np.ndarray, du: np.ndarray, dv: np.ndarray,
              vertices: Sequence[int], edges: Sequence[int]) -> DegreeHistogram:
        """Graph j's from consecutive slices of the flat arrays: the next
        ``vertices[j]`` degrees of ``deg`` and the next ``edges[j]`` endpoint
        degrees of ``du`` and ``dv``.  All in one pass, O(n + m) summed over
        the graphs; read-only.

        The J*K^2 possible pair keys (K = max degree + 1) are counted by
        ``np.bincount`` while they number at most 2m + n, and sorted by
        ``np.unique`` beyond that (a hub's degree makes K^2 large), so memory
        stays O(n + m) either way; both give the same arrays."""
        graphs = len(vertices)
        base = max((int(a.max()) for a in (deg, du, dv) if a.size), default=0) + 1
        if graphs * base * base > np.iinfo(np.int64).max:
            raise ValueError(f"{graphs} graphs of max degree {base - 1} overflow an int64 key")
        # Ascending keys (j*K + d_u)*K + d_v run graph after graph, each
        # graph's pairs lexicographic.
        offset = np.arange(graphs) * base
        vertex = np.bincount(np.repeat(offset, vertices) + deg,
                             minlength=graphs * base).reshape(graphs, base)
        keys = (np.repeat(offset, edges) + du) * base + dv
        dense = graphs * base * base <= 2 * keys.size + deg.size
        keys, counts = (_count_by_bincount if dense else _count_by_sort)(keys)
        graph, pair = np.divmod(keys, base * base)
        h = cls(vertex, tuple(np.divmod(pair, base)), counts, graph)
        for a in (h.vertex, *h.pairs, h.pair_counts, h.pair_graph):
            a.setflags(write=False)
        return h


def _count_by_bincount(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct nonnegative ``keys``, ascending, and their counts; memory
    O(max key)."""
    counts = np.bincount(keys)
    keys = np.flatnonzero(counts)
    return keys, counts[keys]


def _count_by_sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_count_by_bincount`'s arrays by sorting; memory O(len(keys))."""
    return np.unique(keys, return_counts=True)


def build_graph(n: int, edge_list: Sequence[tuple[int, int]]) -> Graph:
    """Validate, canonicalize and deduplicate ``edge_list`` into a :class:`Graph`.

    Raises :class:`GraphError` for a vertex count below 0 or beyond int64, and
    otherwise names the offending pair: the first self-loop or out-of-range
    endpoint in input order, else the first duplicate in canonical order
    (detected after canonicalization, so ``(0, 1)`` and ``(1, 0)`` collide).
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    if n > np.iinfo(np.int64).max:
        raise GraphError(f"vertex count {n} is beyond int64")
    try:
        pairs = np.asarray(edge_list, dtype=np.int64)
    except OverflowError:
        raise GraphError(f"endpoint out of range [0, {n}): beyond int64") from None
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
    u, v = pairs.T
    if _is_canonical(n, u, v):
        return _from_canonical(n, u, v)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    loop = lo == hi
    bad = loop | (lo < 0) | (hi >= n)
    if bad.any():
        i = int(np.argmax(bad))
        pair = tuple(pairs[i].tolist())
        if loop[i]:
            raise GraphError(f"self-loop {pair}")
        raise GraphError(f"endpoint out of range [0, {n}): {pair}")
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    if dup.any():
        i = int(np.argmax(dup))
        raise GraphError(f"duplicate edge {(int(lo[i]), int(hi[i]))}")
    return _from_canonical(n, lo, hi)


def _is_canonical(n: int, u: np.ndarray, v: np.ndarray) -> bool:
    """Whether every pair has ``0 <= u < v < n`` and the pairs ascend strictly in
    lexicographic order, compared pair by pair: a ``u*n + v`` key could overflow."""
    if not ((u >= 0).all() and (u < v).all() and (v < n).all()):
        return False
    return bool(((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))).all())


def _from_canonical(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    # Trusted path: (u, v) already canonical (u < v), sorted, unique.
    edges = np.stack((u, v), axis=1).astype(np.int64, copy=False)
    return Graph(n=n, edges=edges, degrees=np.bincount(edges.ravel(), minlength=n))


def write_edge_list(g: Graph, out: TextIO) -> None:
    """Write the ``n m`` header followed by one ``u v`` line per edge."""
    out.write(f"{g.n} {g.m}\n")
    out.write(("%d %d\n" * g.m) % tuple(g.edges.ravel().tolist()))


# Each byte's kind in a plain text: a digit reads b"0", a space or tab b" ",
# a newline itself and any other byte b"x".
_PLAIN = bytearray(b"x" * 256)
_PLAIN[ord("0"):ord("9") + 1] = b"0" * 10
_PLAIN[ord(" ")] = _PLAIN[ord("\t")] = ord(" ")
_PLAIN[ord("\n")] = ord("\n")
_PLAIN = bytes(_PLAIN)


def read_edge_list(src: TextIO) -> Graph:
    """Parse the edge-list text format, rejecting inconsistent edge counts.

    ``src`` is read whole; lines end at each ``\\n``.  A plain text (see
    :func:`_parse_plain`) is converted by ``np.loadtxt``; any other text is
    parsed line by line, which names the first malformed line.  Both give the
    same integers, so the same :class:`Graph` or :class:`GraphError`.
    """
    text = src.read()
    plain = _parse_plain(text)
    if plain is not None:
        return build_graph(*plain)
    lines = [ln for ln in (raw.strip() for raw in text.split("\n")) if ln]
    if not lines:
        raise GraphError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphError(f"malformed header {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphError(f"non-integer header {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise GraphError(f"header declares m={m} but {len(lines) - 1} edge lines found")
    return build_graph(n, _parse_edge_lines(lines[1:]))


def _parse_plain(text: str) -> tuple[int, np.ndarray] | None:
    """``(n, edges)`` of a plain edge list (defined in the module docstring),
    or None for any other text.

    One translation of the bytes checks the alphabet and the token lengths;
    ``np.loadtxt`` converts the tokens.  At most 18 digits fit an int64, so
    no token takes loadtxt's float fallback, and a text with a digit is never
    empty to it.
    """
    if not text.isascii():
        return None
    kinds = text.encode("ascii").translate(_PLAIN)
    if b"x" in kinds or b"0" * 19 in kinds or b"0" not in kinds:
        return None
    try:
        rows = np.loadtxt(io.StringIO(text), dtype=np.int64, ndmin=2, comments=None)
    except ValueError:
        return None
    if rows.shape[1] != 2 or rows[0, 1] != len(rows) - 1:
        return None
    return int(rows[0, 0]), rows[1:]


def _parse_edge_lines(lines: list[str]) -> list[tuple[int, int]]:
    """The edge lines as integer pairs; raises on the first malformed line."""
    edges = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"malformed edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphError(f"non-integer edge line {ln!r}") from None
    return edges


@contextlib.contextmanager
def atomic_write(path):
    """Yield a text handle on a temp file beside ``path``; rename it into place on success.

    If the block raises, the temp file is removed and ``path`` is left as it was,
    so a failed run leaves no partial output file.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_edge_list_path(g: Graph, path) -> None:
    with atomic_write(path) as fh:
        write_edge_list(g, fh)


def read_edge_list_path(path) -> Graph:
    with open(path) as fh:
        return read_edge_list(fh)
