"""Shared deterministic graph streams and reference implementations for the test suite."""

import math
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
from hypothesis import strategies as st
from mpmath import mp

from mtindex.indices import VertexFunction, _checked
from mtindex.inequalities import _PREC as PREC
from mtindex.models import SeedDerivation, bipartite, erdos_renyi, generate, random_geometric


class BrokenPool:
    """Executor stub whose futures fail as if their worker process had died."""

    def __init__(self, max_workers=None):
        pass

    def submit(self, fn, *args):
        future = Future()
        future.set_exception(BrokenProcessPool("worker terminated abruptly"))
        return future

    def shutdown(self):
        pass


def reference_edge_arrays(spec, rng):
    """The original O(n^2) sampler: every candidate pair materialised at once.

    The production samplers must return exactly these arrays from the same rng.
    """
    if spec.model == "er":
        iu, ju = np.triu_indices(spec.n, k=1)
        mask = rng.random(iu.shape[0]) < spec.p
        return iu[mask], ju[mask]
    if spec.model == "rg":
        iu, ju = np.triu_indices(spec.n, k=1)
        pos = rng.random((spec.n, 2))
        dx = pos[iu, 0] - pos[ju, 0]
        dy = pos[iu, 1] - pos[ju, 1]
        mask = dx * dx + dy * dy <= spec.r * spec.r
        return iu[mask], ju[mask]
    # br: candidate pairs (u, n1 + w) in lexicographic order; u < n1 <= v always.
    mask = rng.random((spec.n1, spec.n2)) < spec.p
    iu, jw = np.nonzero(mask)
    return iu, jw + spec.n1


@st.composite
def edge_sets(draw):
    """(n, edges): a simple graph on 2..12 vertices as a list of distinct pairs u < v."""
    n = draw(st.integers(min_value=2, max_value=12))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return n, edges


def mixed_graphs(master_seed, count, sizes=(4, 6, 8, 12, 16, 20), params=(0.15, 0.4, 0.8)):
    """Yield ``count`` small graphs cycling through models, sizes and densities."""
    makers = [
        lambda n, p: erdos_renyi(n, p),
        lambda n, p: random_geometric(n, p),
        lambda n, p: bipartite(n // 2, n - n // 2, p),
    ]
    produced = 0
    replica = 0
    while produced < count:
        for mi, make in enumerate(makers):
            for si, n in enumerate(sizes):
                for pi, p in enumerate(params):
                    if produced >= count:
                        return
                    spec = make(n, p)
                    point_id = (mi * len(sizes) + si) * len(params) + pi
                    yield generate(spec, SeedDerivation(master_seed, point_id, replica))
                    produced += 1
        replica += 1


def model_graphs(master_seed, model, count, sizes=(6, 10, 14, 18, 20), params=(0.1, 0.3, 0.6, 0.9)):
    """Yield ``count`` graphs of one model across sizes and densities."""
    make = {
        "er": lambda n, p: erdos_renyi(n, p),
        "rg": lambda n, p: random_geometric(n, p),
        "br": lambda n, p: bipartite(n // 2, n - n // 2, p),
    }[model]
    produced = 0
    replica = 0
    while True:
        for si, n in enumerate(sizes):
            for pi, p in enumerate(params):
                if produced >= count:
                    return
                spec = make(n, p)
                yield generate(spec, SeedDerivation(master_seed, si * len(params) + pi, replica))
                produced += 1
        replica += 1


# The float factors of the built-ins, as the verifier used them before it
# evaluated the exact mpmath rules once per distinct degree.
REFERENCE_FACTORS = {
    "nk": ("vertex", lambda d: float(d)),
    "pi1": ("vertex", lambda d: float(d * d)),
    "pi2": ("edge", lambda a, b: float(a * b)),
    "pi1s": ("edge", lambda a, b: float(a + b)),
    "rpi": ("edge", lambda a, b: (a * b) ** -0.5),
    "hpi": ("edge", lambda a, b: 2.0 / (a + b)),
    "chipi": ("edge", lambda a, b: (a + b) ** -0.5),
    "idpi": ("edge", lambda a, b: 1.0 / (a * a) + 1.0 / (b * b)),
    "gapi": ("edge", lambda a, b: 2.0 * math.sqrt(a * b) / (a + b)),
}


def reference_function_values(g, f):
    """(arity, name, realized F values in canonical order), one float per element."""
    if isinstance(f, str):
        arity, fn = REFERENCE_FACTORS[f]
        name = f
    elif isinstance(f, VertexFunction):
        arity, fn, name = "vertex", _checked(f.fn, f.name), f.name
    else:
        arity, fn, name = "edge", _checked(f.fn, f.name), f.name
    if arity == "vertex":
        values = [fn(d) for d in g.degrees.tolist() if d > 0]
    else:
        values = [fn(du, dv) for du, dv in g.edge_degree_pairs().tolist()]
    for v in values:
        if not math.isfinite(v) or v <= 0.0:
            raise ValueError(f"function {name!r} produced nonpositive value {v}")
    return arity, name, values


class ReferencePrepared:
    """The verifier's per-element preparation: float factors, one mpmath log each."""

    def __init__(self, g, f):
        self.arity, self.name, raw = reference_function_values(g, f)
        self.k = len(raw)
        with mp.workprec(PREC):
            self.values = [mp.mpf(v) for v in raw]
            self.logs = [mp.log(v) for v in self.values]
            self.sum = mp.fsum(self.values)
            self.sum_sq = mp.fsum(v * v for v in self.values)
            self.log_sum = mp.fsum(self.logs)
