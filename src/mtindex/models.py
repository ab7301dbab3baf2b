"""Seeded generators for three random-network models.

Models:

* ``er`` -- Erdos-Renyi G(n, p): each of the C(n, 2) vertex pairs is an edge
  independently with probability p.
* ``rg`` -- random geometric graph on the unit square: n points placed
  uniformly, edge iff Euclidean distance <= r, r in [0, sqrt(2)].
* ``br`` -- bipartite random network with parts of sizes n1 (vertices
  ``0..n1-1``) and n2 (vertices ``n1..n1+n2-1``); each cross pair is an edge
  independently with probability p.  No intra-set edges ever.

Determinism contract: a replica stream is a pure function of the triple
(master_seed, point_id, replica_index), mixed through a splitmix64-style
avalanche into a PCG64 state.  ER/BR spend exactly one uniform draw per
candidate pair in canonical pair order; RG draws the n (x, y) positions first
and only then tests distances, so edges never depend on traversal order.

Cost of one sample with m edges:

* ER/BR -- O(C(n, 2)) resp. O(n1*n2) uniform draws in O(block + m) memory.
  Uniforms are drawn in blocks of ``_BLOCK``; each hit's flat pair offset is
  mapped back to (u, v) arithmetically.
* RG -- O(n + m) expected time and memory: a cell list (Bentley, Stanat &
  Williams, IPL 6, 1977) over g x g cells at least r + 2^-40 wide, the margin
  covering every rounding (see ``_cells_per_side``).  Each sorted point has
  two candidate runs of the cell order, one in its own column of cells and one
  in the next; whole runs are tested in blocks of about ``_BLOCK`` candidates
  laid out by ``np.repeat``, then the edges are sorted canonically.

The edges do not depend on the block size: they equal, array for array, those
of materialising every candidate pair at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _from_canonical

MAX_RADIUS = math.sqrt(2.0)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ModelSpec:
    """One random-graph model point: ER(n, p) | RG(n, r) | BR(n1, n2, p)."""

    model: str  # "er" | "rg" | "br"
    n: int      # total vertex count (n1 + n2 for br)
    p: float | None = None
    r: float | None = None
    n1: int | None = None
    n2: int | None = None

    def __post_init__(self):
        if self.model not in ("er", "rg", "br"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.n < 1:
            raise ValueError(f"size must be a positive integer, got n={self.n}")
        if self.model in ("er", "br"):
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.model == "rg":
            if self.r is None or not (0.0 <= self.r <= MAX_RADIUS):
                raise ValueError(f"r must lie in [0, sqrt(2)], got {self.r}")
        if self.model == "br":
            if self.n1 is None or self.n2 is None or self.n1 < 1 or self.n2 < 1:
                raise ValueError("br requires positive part sizes n1, n2")
            if self.n1 + self.n2 != self.n:
                raise ValueError(f"br total n={self.n} != n1+n2={self.n1 + self.n2}")

    @property
    def param_name(self) -> str:
        return "r" if self.model == "rg" else "p"

    @property
    def param_value(self) -> float:
        return self.r if self.model == "rg" else self.p


def erdos_renyi(n: int, p: float) -> ModelSpec:
    return ModelSpec("er", n, p=p)


def random_geometric(n: int, r: float) -> ModelSpec:
    return ModelSpec("rg", n, r=r)


def bipartite(n1: int, n2: int, p: float) -> ModelSpec:
    return ModelSpec("br", n1 + n2, p=p, n1=n1, n2=n2)


def g_of_r(r: float) -> float:
    """Probability that two uniform points of the unit square lie within distance r.

    Piecewise closed form, continuous at r=1, with g(0)=0 and g(sqrt(2))=1.
    """
    if not (0.0 <= r <= MAX_RADIUS):
        raise ValueError(f"r must lie in [0, sqrt(2)], got {r}")
    if r <= 1.0:
        return r * r * (math.pi - (8.0 / 3.0) * r + 0.5 * r * r)
    return (
        1.0 / 3.0
        - 2.0 * r * r * (1.0 - math.asin(1.0 / r) + math.acos(1.0 / r))
        + (4.0 / 3.0) * (2.0 * r * r + 1.0) * math.sqrt(r * r - 1.0)
        - 0.5 * r ** 4
    )


def mean_degree(spec: ModelSpec) -> float:
    """Expected network-level mean degree <k> of a model point.

    ER: (n-1)p.  RG: (n-1)g(r).  BR: 2*n1*n2*p/(n1+n2).
    """
    if spec.model == "er":
        return (spec.n - 1) * spec.p
    if spec.model == "rg":
        return (spec.n - 1) * g_of_r(spec.r)
    return 2.0 * spec.n1 * spec.n2 * spec.p / (spec.n1 + spec.n2)


def probability_for_mean_degree(n: int, k: float) -> float:
    """ER probability p with (n-1)p = k."""
    if n < 2:
        raise ValueError(f"a mean degree needs size n >= 2, got n={n}")
    if not 0.0 <= k <= n - 1:
        raise ValueError(f"target mean degree {k} outside [0, n-1]")
    return k / (n - 1)


def br_probability_for_mean_degree(n1: int, n2: int, k: float) -> float:
    """BR probability p with network mean degree 2*n1*n2*p/(n1+n2) = k."""
    if n1 < 1 or n2 < 1:
        raise ValueError(f"br requires positive part sizes, got n1={n1}, n2={n2}")
    p = k * (n1 + n2) / (2.0 * n1 * n2)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"target mean degree {k} unreachable for n1={n1}, n2={n2}")
    return p


def radius_for_mean_degree(n: int, k: float) -> float:
    """RG radius r with (n-1)g(r) = k, by bisection (g is monotone)."""
    target = probability_for_mean_degree(n, k)
    lo, hi = 0.0, MAX_RADIUS
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g_of_r(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def splitmix64(x: int) -> int:
    """One step of the splitmix64 avalanche; maps 64-bit ints to 64-bit ints."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class SeedDerivation:
    """Replica-stream identity: (master_seed, point_id, replica_index)."""

    master_seed: int
    point_id: int = 0
    replica_index: int = 0

    def stream_seed(self) -> int:
        h = splitmix64(self.master_seed & _MASK64)
        h = splitmix64((h + self.point_id) & _MASK64)
        h = splitmix64((h + self.replica_index) & _MASK64)
        return h

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.stream_seed()))


# Uniforms drawn per block by the ER/BR samplers, and about the candidate pairs
# tested per block by the RG sampler (whole rows: fewer than _BLOCK + n); edges
# do not depend on it.
_BLOCK = 1 << 16

# Absolute margin of the RG cell width over r; see _cells_per_side.
_CELL_MARGIN = 2.0 ** -40


def _bernoulli_offsets(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Offsets in [0, total) whose uniform draw is below p, drawn in blocks.

    Each double consumes one PCG64 word, so consecutive blocks read the stream
    exactly as one draw of ``total`` uniforms would.
    """
    hits = [np.empty(0, dtype=np.intp)]
    for lo in range(0, total, _BLOCK):
        block = rng.random(min(_BLOCK, total - lo))
        hits.append(np.flatnonzero(block < p) + lo)
    return np.concatenate(hits)


def _unrank(row_start: np.ndarray, first: np.ndarray, flat: np.ndarray):
    """Map offsets into consecutive ragged rows to (row, first[row] + column).

    ``row_start`` is nondecreasing; an empty row shares its start with the
    next row, and ``side="right"`` skips it.
    """
    row = np.searchsorted(row_start, flat, "right") - 1
    return row, flat - row_start[row] + first[row]


def _er_edges(n: int, p: float, rng: np.random.Generator):
    # Row u holds the pairs (u, u+1..n-1); it starts at u*(2n-u-1)/2.
    u = np.arange(n, dtype=np.intp)
    row_start = u * (2 * n - u - 1) // 2
    return _unrank(row_start, u + 1, _bernoulli_offsets(rng, n * (n - 1) // 2, p))


def _br_edges(n1: int, n2: int, p: float, rng: np.random.Generator):
    # Cross pairs (u, n1 + w) in lexicographic order; u < n1 <= v always.
    u, w = np.divmod(_bernoulli_offsets(rng, n1 * n2, p), n2)
    return u, w + n1


def _cells_per_side(n: int, r: float) -> int:
    """Grid side g for the RG cell list: the largest g <= isqrt(n) + 1 whose
    cells are at least r + eps wide (eps = ``_CELL_MARGIN`` = 2^-40), up to
    rounding.

    Each pair within distance r must fall in the same or adjacent cells: its
    computed cell coordinates floor(x*g) may differ by at most 1, which holds
    while the products x*g differ by at most 1.  A pair that passes the
    distance test has |dx| <= r + r*2^-51 + 2^-536 (the last term where squares
    underflow), each x*g carries at most g*2^-53 of rounding, and the float
    g = floor(1/(r + eps)) has g*(r + eps) <= 1 + 2^-51.  So the products
    differ by at most g*r + g*2^-49 <= 1 + 2^-51 - g*(eps - 2^-49) < 1: the
    margin is 2^9 times the rounding it absorbs.  The cap isqrt(n) + 1 keeps
    O(n) cells for tiny r, and r + eps >= 2^-40 keeps 1/(r + eps) finite.
    """
    return max(1, min(math.isqrt(n) + 1, math.floor(1.0 / (r + _CELL_MARGIN))))


def _rg_edges(n: int, r: float, rng: np.random.Generator):
    pos = rng.random((n, 2))
    g = _cells_per_side(n, r)
    cx, cy = np.minimum((pos * g).astype(np.intp), g - 1).T
    cell = cx * g + cy
    order = np.argsort(cell, kind="stable")
    # Column x = g holds no point: its cells close the runs of the last column.
    counts = np.bincount(cell, minlength=(g + 1) * g)
    cell_end = np.cumsum(counts)
    cell_start = cell_end - counts

    # Cell (x, y) has id x*g + y, so the sorted points of cells (x, y-1..y+1)
    # are consecutive.  Candidate row 2*s: sorted point s against the later
    # points of its own cell and of (x, y+1); row 2*s + 1: against the points
    # of (x+1, y-1..y+1).  Every pair of adjacent cells is visited once.
    own = cell[order]
    up, down = own + (cy[order] < g - 1), own - (cy[order] > 0)
    firsts = np.stack([np.arange(1, n + 1), cell_start[down + g]], axis=1).ravel()
    lengths = np.stack([cell_end[up], cell_end[up + g]], axis=1).ravel() - firsts
    ends = np.cumsum(lengths)
    row_start = ends - lengths

    # Blocks of whole rows, each starting at the row that holds candidate
    # offset 0, _BLOCK, 2*_BLOCK, ..., so a block holds < _BLOCK + n candidates.
    cuts = np.searchsorted(ends, np.arange(0, int(ends[-1]), _BLOCK), "right")
    cuts = cuts[np.diff(cuts, prepend=-1) > 0]  # a row may hold several such offsets
    # (a-b)**2 == (b-a)**2 exactly, so testing in sorted order matches the
    # canonical dx = pos[u, 0] - pos[v, 0] with u < v bit for bit.
    x, y = pos[order, 0], pos[order, 1]
    rr = r * r
    keys = [np.empty(0, dtype=np.intp)]
    for lo, hi in zip(cuts.tolist(), [*cuts[1:].tolist(), lengths.size]):
        size = lengths[lo:hi]
        a = np.repeat(np.arange(lo, hi) // 2, size)
        shift = np.repeat(firsts[lo:hi] - row_start[lo:hi], size)
        b = np.arange(row_start[lo], ends[hi - 1]) + shift
        dx = x[a] - x[b]
        dy = y[a] - y[b]
        hit = dx * dx + dy * dy <= rr
        a, b = order[a[hit]], order[b[hit]]
        keys.append(np.minimum(a, b) * n + np.maximum(a, b))
    return np.divmod(np.sort(np.concatenate(keys)), n)


def sample_edge_arrays(spec: ModelSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one instance; return edge endpoint arrays (u, v) in canonical order."""
    if spec.model == "er":
        return _er_edges(spec.n, spec.p, rng)
    if spec.model == "rg":
        return _rg_edges(spec.n, spec.r, rng)
    return _br_edges(spec.n1, spec.n2, spec.p, rng)


def sample_degree_arrays(
    spec: ModelSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one instance; return (degrees, d_u per edge, d_v per edge)."""
    iu, ju = sample_edge_arrays(spec, rng)
    deg = np.bincount(iu, minlength=spec.n) + np.bincount(ju, minlength=spec.n)
    return deg, deg[iu], deg[ju]


def generate(spec: ModelSpec, seed: SeedDerivation) -> Graph:
    """Generate one :class:`Graph` instance, deterministic in the seed triple."""
    return _from_canonical(spec.n, *sample_edge_arrays(spec, seed.generator()))
