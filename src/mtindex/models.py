"""Seeded generators for three random-network models.

Models:

* ``er`` -- Erdos-Renyi G(n, p): each of the C(n, 2) vertex pairs is an edge
  independently with probability p.
* ``rg`` -- random geometric graph on the unit square: n points placed
  uniformly, edge iff Euclidean distance <= r, r in [0, sqrt(2)].
* ``br`` -- bipartite random network with parts of sizes n1 (vertices
  ``0..n1-1``) and n2 (vertices ``n1..n1+n2-1``); each cross pair is an edge
  independently with probability p.  No intra-set edges ever.

``FIELDS`` states once which fields each model reads, in the order its
factory takes them (sizes, then the parameter); :class:`ModelSpec` and the
CLI's grid read it.

Determinism contract: a replica stream is a pure function of the triple
(master_seed, point_id, replica_index), mixed through a splitmix64-style
avalanche into a PCG64 state; a chunk of replicas of one point computes the
chain through (master_seed, point_id) once.  ER/BR spend one uniform draw per
edge, plus one that runs past the last pair, by geometric skipping over the
candidate pairs in canonical order; RG draws the n (x, y) positions first and
only then tests distances, so edges never depend on traversal order.

Geometric skipping (Batagelj & Brandes, *Efficient generation of large random
networks*, PRE 71, 036113, 2005): each draw U = 1 - ``rng.random()``, in
(0, 1], gives the skip G = max{j >= 0 : (1 - p)^j >= U} over the reals for the
float p and U, and the next edge's offset is the previous one + G + 1,
starting from -1.  So P(G >= j) = (1 - p)^j and each pair is an edge with
probability p, independently.  G = floor(y) for the real
y = ln U / ln(1 - p), and the samplers compute y = ``np.log(U)`` /
``math.log1p(-p)`` in float64 (-p for p < 2^-60, within a relative p/2 of
ln(1 - p)).  Assuming ``np.log`` and ``math.log1p`` are within 1 ulp, as
numpy's validation data holds its float64 ``log``, the computed y is within a
relative 2.5 * 2^-52 of the real one, and ``_SKIP_TOL`` = 2^-49 covers that
and the rounding of y * (1 -+ 2^-49).  Where both of those have the same floor,
it is G; where the lower one is >= the number of pairs, the draw runs past the
last pair.  The rest (a share of about 2^-48 * y of the draws, and every y
within a few ulp of an integer) are decided exactly by ``_power_at_least``,
so the edges
are the same on any machine whose ``log`` meets that accuracy (the filter
then exact fallback of Shewchuk, *Adaptive precision floating-point
arithmetic and fast robust geometric predicates*, DCG 18, 1997).  p = 0 and
p = 1 draw nothing; p near 1 needs nothing special, since ``log1p(-p)`` is the
log of the exact 1 - p.

Cost of one sample with m edges:

* ER/BR -- O(n + m) time and memory, one sampler over the point's
  ``ModelSpec.pairs`` candidate pairs in its model's order (``_er_pairs``,
  ``_br_pairs``): m + 1 uniform draws, in a first block of at most ``_BLOCK``
  sized E[m] + 5 sqrt(E[m]) + 2, then blocks of ``_BLOCK``; each edge's flat
  pair offset is mapped back to (u, v) arithmetically, or, for a point of at
  most ``_BLOCK`` pairs, by one gather from a table of every pair's (u, v)
  that the arithmetic builds once (see ``_pairs``).  One table is kept, that
  of the last such point: at most 1 MiB, and 2 MiB while the next is built.
  A sample may have at most 2^47 candidate pairs, which keeps y, the skips
  and the offsets exact in float64 and int64; :class:`ModelSpec` refuses more.
* RG -- O(n + m) expected time and memory: a cell list (Bentley, Stanat &
  Williams, IPL 6, 1977) over g x g cells at least r + 2^-40 wide, the margin
  covering every rounding (see ``_cells_per_side``).  Each sorted point has
  two candidate runs of the cell order, one in its own column of cells and one
  in the next; whole runs are tested in blocks of about ``_RG_BLOCK``
  candidates laid out by ``np.repeat``, each candidate carrying the sorted
  index of its own point and of the point it is tested against, so a hit
  reads both ends directly and needs no search; then the edges are sorted
  canonically.  The cell ids and the edge keys are each sorted in the
  narrowest integer type that holds them, which is faster (16-bit ids take a
  radix sort) and, a sort having one result, gives the same order.

A chunk of J replicas (:func:`sample_chunk`) is sampled in one pass, at the
numpy call count of one sample: each replica draws from its own generator,
into its own row of the first ER/BR block or its own n positions, and the
chunk is then one graph, the disjoint union of its replicas, on J*n vertices
(replica j's vertex u is j*n + u).  ER/BR skip, cut and map to pairs every
row at once; only a replica whose first block holds only edges reads on,
alone.  RG gives replica j's cells the ids after replica j - 1's, so one sort,
one cell count and one block loop serve the chunk.  At n = 250 one sample's
time goes mostly to the fixed cost of its numpy calls, which a chunk pays once.

The edges do not depend on the block size: ER/BR read the stream in order and
stop at the first offset past the last pair, and RG's equal, array for array,
those of materialising every candidate pair at once.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .graph import Graph, _from_canonical

MAX_RADIUS = math.sqrt(2.0)

FIELDS = {"er": ("n", "p"), "rg": ("n", "r"), "br": ("n1", "n2", "p")}

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ModelSpec:
    """One random-graph model point: ER(n, p) | RG(n, r) | BR(n1, n2, p).  A
    field that its model does not read (see ``FIELDS``), and an ER/BR point
    beyond 2^47 candidate pairs, which no replica can sample, are refused
    here, so no entry point meets one."""

    model: str  # "er" | "rg" | "br"
    n: int      # total vertex count (n1 + n2 for br)
    p: float | None = None
    r: float | None = None
    n1: int | None = None
    n2: int | None = None

    def __post_init__(self):
        if self.model not in FIELDS:
            raise ValueError(f"unknown model {self.model!r}")
        if not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise ValueError(f"size must be a positive integer, got n={self.n}")
        high, spelled = (MAX_RADIUS, "sqrt(2)") if self.param_name == "r" else (1.0, "1")
        value = self.param_value
        if value is None or not (0.0 <= value <= high):
            raise ValueError(f"{self.param_name} must lie in [0, {spelled}], got {value}")
        if self.model == "br":
            if not all(isinstance(k, numbers.Integral) and k >= 1 for k in (self.n1, self.n2)):
                raise ValueError("br requires positive part sizes n1, n2")
            if self.n1 + self.n2 != self.n:
                raise ValueError(f"br total n={self.n} != n1+n2={self.n1 + self.n2}")
        given = [f.name for f in fields(self) if f.default is None  # the optional fields
                 and f.name not in FIELDS[self.model] and getattr(self, f.name) is not None]
        if given:
            raise ValueError(f"{self.model} takes no {', '.join(given)}")
        if self.model != "rg" and self.pairs > _MAX_PAIRS:
            raise ValueError(
                f"{self.label}: {self.pairs} candidate pairs exceed the 2^47 of one sample")

    @property
    def pairs(self) -> int:
        """The vertex pairs that can be edges: C(n, 2), or n1 * n2 for br.  A
        Python int, so that numpy sizes cannot wrap around below the limit."""
        return int(self.n1) * int(self.n2) if self.model == "br" else math.comb(self.n, 2)

    @property
    def param_name(self) -> str:
        return FIELDS[self.model][-1]

    @property
    def param_value(self) -> float:
        return getattr(self, self.param_name)

    @property
    def curve(self) -> str:
        """The model and sizes, as ``collapse`` names a curve: ``er n=30``, ``br n1=10 n2=20``."""
        size = f"n={self.n}" if self.n1 is None else f"n1={self.n1} n2={self.n2}"
        return f"{self.model} {size}"

    @property
    def label(self) -> str:
        """The point as messages name it: ``er n=30 p=0.1``, ``br n1=10 n2=20 p=0.3``."""
        return f"{self.curve} {self.param_name}={self.param_value!r}"


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


def check_master_seed(master_seed: int, point_id: int = 0) -> None:
    """Refuse a master seed or point id outside [0, 2^64): the streams read
    each modulo 2^64, so it would give the replicas of one inside the range."""
    for what, value in (("seed", master_seed), ("point id", point_id)):
        if not 0 <= value <= _MASK64:
            raise ValueError(f"{what} must lie in [0, 2^64), got {value}")


@dataclass(frozen=True)
class SeedDerivation:
    """Replica-stream identity: (master_seed, point_id, replica_index); its
    :meth:`generator` is the one-replica case of :func:`replica_generators`."""

    master_seed: int
    point_id: int = 0
    replica_index: int = 0

    def stream_seed(self) -> int:
        [seed] = _stream_seeds(self.master_seed, self.point_id, [self.replica_index])
        return seed

    def generator(self) -> np.random.Generator:
        [rng] = replica_generators(self.master_seed, self.point_id,
                                   self.replica_index, self.replica_index + 1)
        return rng


def _stream_seeds(master_seed: int, point_id: int, replicas: Iterable[int]) -> list[int]:
    """The stream seed of each replica index of one point: the splitmix64 chain
    through the master seed and the point id is their shared prefix, computed
    once."""
    prefix = splitmix64((splitmix64(master_seed & _MASK64) + point_id) & _MASK64)
    return [splitmix64((prefix + r) & _MASK64) for r in replicas]


def replica_generators(master_seed: int, point_id: int, lo: int, hi: int
                       ) -> list[np.random.Generator]:
    """The generators of replicas [lo, hi) of a point, each a PCG64 stream
    seeded by the :meth:`SeedDerivation.stream_seed` of its triple."""
    return [np.random.Generator(np.random.PCG64(seed))
            for seed in _stream_seeds(master_seed, point_id, range(lo, hi))]


# Uniforms drawn per block by the ER/BR samplers, after a first block sized for
# the expected edges; edges do not depend on it.
_BLOCK = 1 << 16
# About the candidate pairs tested per block by the RG sampler (whole rows);
# edges do not depend on it.
_RG_BLOCK = 1 << 13

# Absolute margin of the RG cell width over r; see _cells_per_side.
_CELL_MARGIN = 2.0 ** -40

# Relative margin of the float skip y; see the module docstring.
_SKIP_TOL = 2.0 ** -49
# Candidate pairs of one ER/BR sample at most: y < 2^47 leaves y * (1 -+ _SKIP_TOL)
# at most one integer apart, and a block's offsets stay below 2^63.
_MAX_PAIRS = 1 << 47


def _fixed_power(q: int, e: int, k: int, prec: int) -> tuple[int, int]:
    """Integers lo <= (q / 2^e)^k * 2^prec <= hi, for 0 <= q <= 2^e, by binary
    powering in prec-bit fixed point, each product rounded down for lo and up
    for hi.  Every factor is at most 1, so each product adds at most one unit
    to the widths it combines, and hi - lo <= 8k."""
    if prec >= e:
        low = high = q << (prec - e)
    else:
        low, high = q >> (e - prec), -(-q >> (e - prec))
    lo = hi = 1 << prec
    while k:
        if k & 1:
            lo, hi = lo * low >> prec, -(-hi * high >> prec)
        k >>= 1
        low, high = low * low >> prec, -(-high * high >> prec)
    return lo, hi


def _power_at_least(p: float, k: int, u: float) -> bool:
    """Whether (1 - p)^k >= u exactly, for floats 0 < p < 1 and 0 < u <= 1.

    With p = a / 2^e and u = c / 2^f, both fractions reduced, ``_fixed_power``
    brackets (1 - p)^k at prec = f + 128, 2(f + 128), ... bits until the
    bracket lies on one side of u.  If (1 - p)^k = u, then e*k = f, since
    2^e - a is odd; at prec >= e*k every product is exact, so the first
    bracket is the point itself.  Otherwise the two differ by at least
    2^-(e*k + f), more than the bracket's 8k * 2^-prec once
    prec > e*k + f + log2(k) + 3, so the doubling ends.  A draw that the
    samplers defer is left open at the first prec with probability about
    k * 2^-77, so it costs O(log k) products of a few hundred bits, where the
    power as an exact integer has e*k bits.
    """
    a, b = p.as_integer_ratio()
    c, d = u.as_integer_ratio()
    e, f = b.bit_length() - 1, d.bit_length() - 1
    prec = f + 128
    while True:
        lo, hi = _fixed_power(b - a, e, k, prec)
        target = c << (prec - f)
        if lo >= target:
            return True
        if hi < target:
            return False
        prec *= 2


def _skips(u: np.ndarray, p: float, total: int) -> np.ndarray:
    """The skip G of each uniform in ``u`` (module docstring), capped at
    ``total``, for 0 < p < 1."""
    log_q = -p if p < 2.0 ** -60 else math.log1p(-p)
    with np.errstate(over="ignore"):  # y = inf past the end, for subnormal p
        y = np.log(u) / log_q
    lo = np.floor(y * (1.0 - _SKIP_TOL))
    hi = np.floor(y * (1.0 + _SKIP_TOL))
    # G lies in [lo, hi], and hi <= lo + 1 wherever lo < total.
    deferred = np.flatnonzero((lo != hi) & (lo < total)).tolist()
    lo[lo > total] = total
    skip = lo.astype(np.intp)
    for i in deferred:
        top = min(int(hi[i]), total)
        skip[i] = top if _power_at_least(p, top, float(u[i])) else top - 1
    return skip


def _bernoulli_offsets(
    rngs: Sequence[np.random.Generator], total: int, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Offsets in [0, total) of the pairs that are edges, by geometric skipping,
    replica after replica, and how many each replica holds.

    Replica j reads ``rngs[j]``: it fills row j of one first block, and only a
    replica whose first block holds no offset past the last pair reads on,
    alone.  Each double consumes one PCG64 word, so the blocks read a stream
    exactly as one draw would, and a replica's offsets end at the first one
    past the last pair whatever the block sizes.
    """
    if p == 1.0:
        return np.tile(np.arange(total, dtype=np.intp), len(rngs)), np.full(len(rngs), total)
    if p == 0.0 or total == 0:
        return np.empty(0, dtype=np.intp), np.zeros(len(rngs), dtype=np.intp)
    mean = total * p
    u = np.empty((len(rngs), min(_BLOCK, int(mean + 5.0 * math.sqrt(mean)) + 2)))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    np.subtract(1.0, u, out=u)
    offsets = np.cumsum(_skips(u.ravel(), p, total).reshape(u.shape) + 1, axis=1) - 1
    inside = offsets < total
    flat, counts = offsets[inside], inside.sum(axis=1)
    ran_out = np.flatnonzero(counts == u.shape[1]).tolist()
    if not ran_out:
        return flat, counts
    pieces = np.split(flat, np.cumsum(counts)[:-1])
    for j in reversed(ran_out):
        later = _later_offsets(rngs[j], int(offsets[j, -1]), total, p)
        pieces[j + 1:j + 1] = later
        counts[j] += sum(block.size for block in later)
    return np.concatenate(pieces), counts


def _later_offsets(rng: np.random.Generator, last: int, total: int, p: float) -> list[np.ndarray]:
    """The offsets after ``last`` that ``rng`` skips to, in blocks of ``_BLOCK`` draws."""
    blocks = []
    while True:
        offsets = last + np.cumsum(_skips(1.0 - rng.random(_BLOCK), p, total) + 1)
        end = int(np.searchsorted(offsets, total))
        blocks.append(offsets[:end])
        if end < _BLOCK:
            return blocks
        last = int(offsets[-1])


def _er_pairs(n: int, flat: np.ndarray):
    # Row u holds the pairs (u, u+1..n-1); it starts at u*(2n-u-1)/2.  The
    # last row is empty and starts at C(n, 2), past every offset, and
    # side="right" puts an offset equal to a row's start in that row.
    u = np.arange(n, dtype=np.intp)
    row_start = u * (2 * n - u - 1) // 2
    row = np.searchsorted(row_start, flat, "right") - 1
    return row, flat - row_start[row] + row + 1


def _br_pairs(n1: int, n2: int, flat: np.ndarray):
    # Cross pairs (u, n1 + w) in lexicographic order; u < n1 <= v always.
    u, v = np.divmod(flat, n2)
    v += n1
    return u, v


@functools.lru_cache(maxsize=1)
def _pair_table(pairs_of, sizes: tuple, total: int) -> np.ndarray:
    """The (u, v) of every pair of a point, as ``pairs_of`` maps them."""
    return np.stack(pairs_of(*sizes, np.arange(total, dtype=np.intp)))


def _pairs(pairs_of, sizes: tuple, total: int, flat: np.ndarray):
    """``pairs_of(*sizes, flat)``: the (u, v) of each offset into the ``total``
    pairs of a point.  Up to ``_BLOCK`` pairs, one gather from the point's
    ``_pair_table``, which keeps the table of the last such point only."""
    if total > _BLOCK:
        return pairs_of(*sizes, flat)
    return _pair_table(pairs_of, sizes, total).take(flat, axis=1)


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


def _rg_runs(n: int, r: float, rngs: Sequence[np.random.Generator]):
    """Replica j's n points from ``rngs[j]``, in cell order over the chunk, and
    each sorted point's two candidate runs: ``(order, x, y, firsts, lengths)``.

    Replica j's cell (x, y) has id j*(g+1)*g + x*g + y, so the sorted points of
    cells (x, y-1..y+1) are consecutive.  Candidate row 2*s: sorted point s
    against the later points of its own cell and of (x, y+1); row 2*s + 1:
    against the points of (x+1, y-1..y+1).  Every pair of adjacent cells is
    visited once.  Column x = g holds no point: its cells close the runs of the
    last column within the replica.  Each temporary is freed once used, since
    a chunk's point arrays are J times those of one sample.
    """
    pos = np.empty((len(rngs), n, 2))
    for rng, points in zip(rngs, pos):
        rng.random(out=points)
    pos = pos.reshape(-1, 2)
    g = _cells_per_side(n, r)
    cell = (pos * g).astype(np.intp)
    np.minimum(cell, g - 1, out=cell)
    below, above = cell[:, 1] > 0, cell[:, 1] < g - 1
    cell = cell[:, 0] * g + cell[:, 1]
    cell.reshape(len(rngs), n)[...] += (np.arange(len(rngs)) * ((g + 1) * g))[:, None]
    cells = len(rngs) * (g + 1) * g
    # Sorted in the narrowest type that holds the ids: stable, so the same
    # order, and a radix sort for 16-bit ids.
    order = np.argsort(cell.astype(np.min_scalar_type(cells - 1)), kind="stable")
    x, y = pos[order, 0], pos[order, 1]
    del pos
    counts = np.bincount(cell, minlength=cells)
    cell_end = np.cumsum(counts)
    cell_start = np.subtract(cell_end, counts, out=counts)
    own = cell[order]
    del cell
    up, down = own + above[order], own - below[order]
    del own
    runs = np.empty((x.size, 2), dtype=np.intp)
    runs[:, 0] = cell_end[up]
    runs[:, 1] = cell_end[up + g]
    firsts = np.empty_like(runs)
    firsts[:, 0] = np.arange(1, x.size + 1)
    firsts[:, 1] = cell_start[down + g]
    runs -= firsts
    return order, x, y, firsts.ravel(), runs.ravel()


def _rg_edges(n: int, r: float, rngs: Sequence[np.random.Generator]):
    order, x, y, firsts, lengths = _rg_runs(n, r, rngs)
    ends = np.cumsum(lengths)
    # Each row's shift from its candidate offsets to the sorted points it tests.
    shifts = firsts
    shifts -= ends
    shifts += lengths

    # Blocks of whole rows, each starting at the row that holds candidate
    # offset 0, _RG_BLOCK, 2*_RG_BLOCK, ..., so a block holds fewer than
    # _RG_BLOCK + n candidates.
    cuts = np.searchsorted(ends, np.arange(0, int(ends[-1]), _RG_BLOCK), "right")
    cuts = cuts[np.diff(cuts, prepend=-1) > 0]  # a row may hold several such offsets
    # (a-b)**2 == (b-a)**2 exactly, so testing in sorted order matches the
    # canonical dx = pos[u, 0] - pos[v, 0] with u < v bit for bit.
    rr = r * r
    # Keys u*N + v over the N points of the chunk order the edges replica after
    # replica, each replica's canonically.
    points = x.size
    keys = [np.empty(0, dtype=np.intp)]
    for lo, hi in zip(cuts.tolist(), [*cuts[1:].tolist(), lengths.size]):
        run = lengths[lo:hi]
        # Each candidate's sorted point (row 2*s or 2*s + 1 is point s) and
        # the sorted point it is tested against.
        a = np.repeat(np.arange(lo, hi) // 2, run)
        b = np.repeat(shifts[lo:hi], run)
        b += np.arange(ends[lo] - run[0], ends[hi - 1])
        dx = x.take(a)
        dx -= x.take(b)
        dx *= dx
        dy = y.take(a)
        dy -= y.take(b)
        dy *= dy
        dx += dy
        hit = np.flatnonzero(dx <= rr)
        del dx, dy
        a = order[a[hit]]
        b = order[b[hit]]
        keys.append(np.minimum(a, b) * points + np.maximum(a, b))
    # Sorted and split in the narrowest integer type that holds every key,
    # which is faster.
    keys = np.concatenate(keys, dtype=np.min_scalar_type(points * points - 1), casting="unsafe")
    keys.sort()
    u, v = (half.astype(np.intp) for half in np.divmod(keys, points))
    return u, v, np.diff(np.searchsorted(u, np.arange(len(rngs) + 1) * n))


def _edges(spec: ModelSpec, rngs: Sequence[np.random.Generator]):
    """Edges (u, v) of the disjoint union of one replica per generator, the
    vertices of replica j being j*n .. j*n + n-1, in canonical order; and each
    replica's edge count.  Any ModelSpec can be sampled: it holds the limit."""
    if spec.model == "rg":
        return _rg_edges(spec.n, spec.r, rngs)
    pairs_of, sizes = ((_er_pairs, (spec.n,)) if spec.model == "er"
                       else (_br_pairs, (spec.n1, spec.n2)))
    flat, counts = _bernoulli_offsets(rngs, spec.pairs, spec.p)
    u, v = _pairs(pairs_of, sizes, spec.pairs, flat)
    base = np.repeat(np.arange(counts.size) * spec.n, counts)
    # In place: _pairs returns new arrays, never a view of its table.
    u += base
    v += base
    return u, v, counts


def sample_chunk(
    spec: ModelSpec, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw replica j from ``rngs[j]``, every j at once; return flat arrays
    ``(deg, du, dv, m)``.  Replica j holds ``m[j]`` edges; its degrees are
    ``deg[j*n:(j+1)*n]``, and the endpoint degrees of its edges, in canonical
    order, come after those of replica j - 1 in ``du`` and ``dv``.  Each
    replica's arrays equal those :func:`sample_degree_arrays` draws alone."""
    u, v, m = _edges(spec, rngs)
    size = len(rngs) * spec.n
    deg = np.bincount(u, minlength=size) + np.bincount(v, minlength=size)
    return deg, deg[u], deg[v], m


def sample_degree_arrays(
    spec: ModelSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one instance; return (degrees, d_u per edge, d_v per edge)."""
    return sample_chunk(spec, [rng])[:3]


def generate(spec: ModelSpec, seed: SeedDerivation) -> Graph:
    """Generate one :class:`Graph` instance, deterministic in the seed triple."""
    u, v, _ = _edges(spec, [seed.generator()])
    return _from_canonical(spec.n, u, v)
