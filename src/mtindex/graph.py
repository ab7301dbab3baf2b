"""Immutable simple undirected graphs with cached degree sequences.

Vertices are the integers ``0 .. n-1``.  Edges are stored canonically as
``(u, v)`` with ``u < v``, sorted in ascending lexicographic order, so that
every downstream accumulation visits factors in a fixed, reproducible order.
Graphs with ``n == 0`` or no edges are legal everywhere.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO


class GraphError(ValueError):
    """Malformed graph input: self-loop, out-of-range endpoint, or duplicate edge."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph, immutable after construction.

    Safe to share across concurrent workers without synchronization.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_degree_pairs(self) -> Iterable[tuple[int, int]]:
        """Yield ``(d_u, d_v)`` per edge in canonical edge order."""
        deg = self.degrees
        for u, v in self.edges:
            yield deg[u], deg[v]


@dataclass(frozen=True)
class DegreeSummary:
    min_degree: int
    max_degree: int
    mean_degree_empirical: float
    isolated_count: int


def build_graph(n: int, edge_list: Sequence[tuple[int, int]]) -> Graph:
    """Validate, canonicalize and deduplicate ``edge_list`` into a :class:`Graph`.

    Raises :class:`GraphError` naming the offending pair for self-loops,
    out-of-range endpoints, and duplicates (detected after canonicalization,
    so ``(0, 1)`` and ``(1, 0)`` collide).
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    canonical = []
    for pair in edge_list:
        u, v = pair
        if u == v:
            raise GraphError(f"self-loop ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"endpoint out of range [0, {n}): ({u}, {v})")
        canonical.append((u, v) if u < v else (v, u))
    canonical.sort()
    for a, b in zip(canonical, canonical[1:]):
        if a == b:
            raise GraphError(f"duplicate edge {a}")
    return _from_canonical(n, canonical)


def _from_canonical(n: int, edges: Sequence[tuple[int, int]]) -> Graph:
    # Trusted path: edges already canonical (u < v), sorted, unique.
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return Graph(n=n, edges=tuple(edges), degrees=tuple(deg))


def degree_summary(g: Graph) -> DegreeSummary:
    """Min/max/mean degree and isolated-vertex count; zeros for the empty graph."""
    if g.n == 0:
        return DegreeSummary(0, 0, 0.0, 0)
    return DegreeSummary(
        min_degree=min(g.degrees),
        max_degree=max(g.degrees),
        mean_degree_empirical=2.0 * g.m / g.n,
        isolated_count=sum(1 for d in g.degrees if d == 0),
    )


def write_edge_list(g: Graph, out: TextIO) -> None:
    """Write the ``n m`` header followed by one ``u v`` line per edge."""
    out.write(f"{g.n} {g.m}\n")
    for u, v in g.edges:
        out.write(f"{u} {v}\n")


def read_edge_list(src: TextIO) -> Graph:
    """Parse the edge-list text format, rejecting inconsistent edge counts."""
    lines = [ln for ln in (raw.strip() for raw in src) if ln]
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
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"malformed edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphError(f"non-integer edge line {ln!r}") from None
    return build_graph(n, edges)


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
