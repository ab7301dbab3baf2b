"""Shared deterministic graph streams and reference implementations for the test suite."""

import ast
import math

import numpy as np
from hypothesis import strategies as st
from mpmath import mp

from mtindex.graph import DegreeHistogram, Graph, GraphError, _from_canonical, build_graph
from mtindex.indices import (
    EXCLUDE,
    LOGZERO,
    MULTIPLICATIVE_INDICES,
    EdgeFunction,
    IndexKind,
    LogIndexValue,
    VertexFunction,
    _check_policy,
    resolve,
)
from mtindex.inequalities import _PREC as PREC, RELATIVE_TOL
from mtindex.models import SeedDerivation, bipartite, erdos_renyi, generate, random_geometric


def _at_least(p, j, u):
    """Whether (1 - p)**j >= u, for floats 0 <= p <= 1 and 0 < u <= 1, in
    Python integers: first Bernoulli's 1 - j*p <= (1 - p)**j <= 1 / (1 + j*p),
    then the power itself."""
    a, b = p.as_integer_ratio()
    c, d = u.as_integer_ratio()
    if c * b <= d * (b - j * a):
        return True
    if c * (b + j * a) > d * b:
        return False
    return (b - a) ** j * d >= c * b ** j


def _reference_skip(u, p, cap):
    """min(cap, max{j >= 0 : (1 - p)**j >= u}), every comparison exact.

    The float estimate of j only says where to start looking."""
    lu, lq = math.log(u), (math.log1p(-p) if p < 1.0 else -math.inf)
    j = cap if lu <= cap * lq else min(cap, math.floor(lu / lq))
    while j > 0 and not _at_least(p, j, u):
        j -= 1
    while j < cap and _at_least(p, j + 1, u):
        j += 1
    return j


def _reference_offsets(rng, total, p):
    """Offsets of the edges among ``total`` candidate pairs by the definition of
    geometric skipping: one draw U = 1 - rng.random() at a time, skip
    G = max{j >= 0 : (1 - p)**j >= U}, next offset = last + G + 1."""
    offsets, last = [], -1
    while True:
        cap = total - 1 - last   # a skip of cap or more runs past the last pair
        skip = _reference_skip(1.0 - rng.random(), p, cap)
        if skip >= cap:
            return np.array(offsets, dtype=np.intp)
        last += skip + 1
        offsets.append(last)


def reference_edge_arrays(spec, rng):
    """ER/BR by the exact definition of their skip stream, each skip decided in
    Python integers; RG by materialising every candidate pair at once.

    The production samplers must return exactly these arrays from the same rng.
    """
    if spec.model == "er":
        iu, ju = np.triu_indices(spec.n, k=1)
        hits = _reference_offsets(rng, iu.size, spec.p)
        return iu[hits], ju[hits]
    if spec.model == "rg":
        iu, ju = np.triu_indices(spec.n, k=1)
        pos = rng.random((spec.n, 2))
        dx = pos[iu, 0] - pos[ju, 0]
        dy = pos[iu, 1] - pos[ju, 1]
        mask = dx * dx + dy * dy <= spec.r * spec.r
        return iu[mask], ju[mask]
    # br: candidate pairs (u, n1 + w) in lexicographic order; u < n1 <= v always.
    iu, jw = np.unravel_index(_reference_offsets(rng, spec.n1 * spec.n2, spec.p),
                              (spec.n1, spec.n2))
    return iu, jw + spec.n1


def reference_read_edge_list(src):
    """The line-by-line edge-list parser; the production reader must agree with it."""
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


def reference_write_edge_list(g, out):
    """The line-by-line edge-list writer; the production writer must give its bytes."""
    out.write(f"{g.n} {g.m}\n")
    out.write("".join(f"{u} {v}\n" for u, v in g.edges.tolist()))


# Tokens that stress the reader: what int() takes and numpy might not, and the reverse.
_ODD_TOKENS = ["+3", "007", "-0", "1_0", "x", "1.0", "0x1", "\u0663", "9" * 18, "9" * 19,
               "99999999999999999999", "-9223372036854775809"]
_BLANKS = ["", " ", "\t", " \t ", "\r", "\x0c", "\x1c"]
_SEPARATORS = [" ", "\t", "  ", " \t", "\x0c", "\r", "\u2003"]


@st.composite
def edge_list_texts(draw):
    """Edge-list text, well formed or mutated: a token added, dropped or replaced
    on some line, a wrong edge count, odd whitespace, blank lines.

    The header's vertex count stays small, so no text asks for a huge degree array.
    """
    n = draw(st.integers(min_value=0, max_value=8))
    pairs = draw(st.lists(st.tuples(st.integers(-1, 9), st.integers(-1, 9)), max_size=8))
    m = len(pairs) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    lines = [[str(n), str(m)]] + [[str(u), str(v)] for u, v in pairs]
    small = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(_ODD_TOKENS[:8]))
    any_token = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(_ODD_TOKENS))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i]
        token = draw(small if i == 0 else any_token)
        op = draw(st.sampled_from(("add", "drop", "replace")))
        if op == "add":
            tokens.append(token)
        elif tokens and op == "drop":
            tokens.pop(draw(st.integers(0, len(tokens) - 1)))
        elif tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = token
    plain = draw(st.booleans())     # spaces and tabs only, as the writer's output
    separators = st.sampled_from(_SEPARATORS[:4] if plain else _SEPARATORS)
    text_lines = [draw(separators).join(t) for t in lines]
    for _ in range(draw(st.integers(0, 3))):
        text_lines.insert(draw(st.integers(0, len(text_lines))), draw(st.sampled_from(_BLANKS)))
    indent = draw(st.sampled_from(["", " ", "\t"]))
    end = draw(st.sampled_from(["\n", "", "\n\n", " \n", "\n\t"]))
    return "\n".join(indent + ln for ln in text_lines) + end


@st.composite
def edge_sets(draw):
    """(n, edges): a simple graph on 2..12 vertices as a list of distinct pairs u < v."""
    n = draw(st.integers(min_value=2, max_value=12))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return n, edges


def flat_stack(replicas):
    """``(deg, du, dv, vertices, edges)`` of ``DegreeHistogram.stack`` for a
    list of degree arrays (deg, du, dv), one per graph."""
    degs, dus, dvs = zip(*replicas)
    return (*(np.concatenate(a) for a in (degs, dus, dvs)),
            [a.size for a in degs], [a.size for a in dus])


def corpus_graph(spec, seed):
    """One test-corpus graph from ``seed``'s stream: ER/BR with one uniform per
    candidate pair in canonical order, an edge where it is below p, and RG by
    ``generate``.

    The corpora that test indices and inequalities, and the test ids that name
    their graphs by size, then do not move when the samplers' ER/BR stream does.
    """
    if spec.model == "rg":
        return generate(spec, seed)
    rng = seed.generator()
    if spec.model == "er":
        iu, ju = np.triu_indices(spec.n, k=1)
        mask = rng.random(iu.size) < spec.p
        return _from_canonical(spec.n, iu[mask], ju[mask])
    iu, jw = np.nonzero(rng.random((spec.n1, spec.n2)) < spec.p)
    return _from_canonical(spec.n, iu, jw + spec.n1)


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
                    yield corpus_graph(spec, SeedDerivation(master_seed, point_id, replica))
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
                seed = SeedDerivation(master_seed, si * len(params) + pi, replica)
                yield corpus_graph(make(n, p), seed)
                produced += 1
        replica += 1


# The evaluator before the degree histogram: every rule applied to every
# vertex or edge, then one reduction.  Kept verbatim as the reference.
def _degree_arrays(g):
    return g.degrees, g.degrees[g.edges[:, 0]], g.degrees[g.edges[:, 1]]


def _evaluate(fn, rule, deg, du, dv, policy, compensated=False):
    excluded = 0
    if rule.arity == "edge":
        args = (du, dv)
    elif rule.defined_at_zero:
        args = (deg,)
    else:
        nonzero = deg[deg > 0]
        excluded = deg.shape[0] - nonzero.shape[0]
        if excluded and policy == LOGZERO:
            return None
        args = (nonzero,)
    terms = fn(*args)
    return (math.fsum(terms) if compensated else float(np.sum(terms))), excluded


def reference_evaluate(g, fn, rule, policy, compensated=False):
    """``(total, excluded)`` of ``fn`` summed per vertex or per edge of ``g``,
    or ``None`` for a log-zero; ``compensated`` sums with ``math.fsum``."""
    return _evaluate(fn, rule, *_degree_arrays(g), policy, compensated)


# Oracle precision: 240-bit significand, comfortably above the 128-bit floor.
_ORACLE_PREC = 240


def exact_ln_oracle(g: Graph, kind: IndexKind, isolated_policy: str = EXCLUDE) -> LogIndexValue:
    """Independent oracle: form the product itself in 240-bit arithmetic, log once.

    Restricted to n <= 64; used to bound the log-space accumulation error of
    :func:`ln_multiplicative_index`.
    """
    _check_policy(isolated_policy)
    if g.n > 64:
        raise ValueError(f"oracle restricted to n <= 64 graphs, got n={g.n}")
    rule = resolve([kind])[0]
    with mp.workprec(_ORACLE_PREC):
        product = mp.one
        excluded = 0
        if rule.arity == "vertex":
            for d in g.degrees.tolist():
                if d == 0:
                    if isolated_policy == LOGZERO:
                        return LogIndexValue.log_zero()
                    excluded += 1
                    continue
                product *= rule.mp(mp, d)
        else:
            for du, dv in g.edge_degree_pairs().tolist():
                product *= rule.mp(mp, du, dv)
        return LogIndexValue(float(mp.log(product)), excluded)


def _binomial_pmf(trials, p):
    """(support, P(Bin(trials, p) = d) on it) for 0 < p < 1: the pmf from
    ``math.lgamma`` in log space, truncated where it underflows to 0."""
    d = np.arange(trials + 1)
    log_choose = [math.lgamma(trials + 1) - math.lgamma(x + 1) - math.lgamma(trials - x + 1)
                  for x in range(trials + 1)]
    pmf = np.exp(np.array(log_choose) + d * math.log(p) + (trials - d) * math.log1p(-p))
    return d[pmf > 0.0], pmf[pmf > 0.0]


def exact_mean_ln(spec, name):
    """E[ln X_prod] of the built-in ``name`` over ER or BR model ``spec``,
    isolated vertices excluded, exact at finite n.

    A vertex degree is Bin(n-1, p) in ER and Bin(n2, p) resp. Bin(n1, p) in the
    two parts of BR.  Given an edge, its ends' other degrees are independent
    Bin(n-2, p) in ER and Bin(n2-1, p), Bin(n1-1, p) in BR, since the other
    pairs at the two ends are disjoint (Bollobas, *Random Graphs*, 2nd ed., ch. 3).
    """
    rule = resolve([name])[0]
    p = spec.p
    if rule.arity == "vertex":
        parts = ([(spec.n, spec.n - 1)] if spec.model == "er"
                 else [(spec.n1, spec.n2), (spec.n2, spec.n1)])
        total = 0.0
        for count, trials in parts:
            d, pmf = _binomial_pmf(trials, p)
            total += count * math.fsum((pmf[d > 0] * rule.ln(d[d > 0])).tolist())
        return total
    if spec.model == "er":
        edges = math.comb(spec.n, 2) * p
        x, px = y, py = _binomial_pmf(spec.n - 2, p)
    else:
        edges = spec.n1 * spec.n2 * p
        (x, px), (y, py) = _binomial_pmf(spec.n2 - 1, p), _binomial_pmf(spec.n1 - 1, p)
    ln_f = rule.ln(1 + x[:, None], 1 + y[None, :])
    return edges * math.fsum((np.outer(px, py) * ln_f).ravel().tolist())


def second_order_mean_ln(spec, name):
    """E[ln X_prod] of the built-in ``name`` over ER or BR model ``spec`` to
    second order: ln F at the mean degrees, plus half of each degree's
    variance times the second derivative of ln F in that degree there.

    The degrees are those of :func:`exact_mean_ln`.  A vertex degree has mean
    (n-1)p and variance (n-1)p(1-p) in ER, and n2 or n1 trials in place of
    n-1 in the two parts of BR.  An edge's end degrees are independent, each
    1 plus a binomial: mean 1 + (n-2)p and variance (n-2)p(1-p) at both ends
    in ER; 1 + (n2-1)p and 1 + (n1-1)p, with (n2-1)p(1-p) and (n1-1)p(1-p),
    at the part-1 and part-2 ends in BR.  The derivatives are mpmath's
    numerical ones of the exact rule.
    """
    rule = resolve([name])[0]
    p = spec.p
    # (factor count, each degree of a factor as (shift, trials): shift + Bin(trials, p))
    if rule.arity == "vertex":
        groups = ([(spec.n, [(0, spec.n - 1)])] if spec.model == "er"
                  else [(spec.n1, [(0, spec.n2)]), (spec.n2, [(0, spec.n1)])])
    elif spec.model == "er":
        groups = [(math.comb(spec.n, 2) * p, [(1, spec.n - 2)] * 2)]
    else:
        groups = [(spec.n1 * spec.n2 * p, [(1, spec.n2 - 1), (1, spec.n1 - 1)])]
    total = 0.0
    with mp.workprec(_ORACLE_PREC):
        def ln_f(*degrees):
            return mp.log(rule.mp(mp, *degrees))

        for count, degrees in groups:
            means = [mp.mpf(shift + trials * p) for shift, trials in degrees]
            term = ln_f(*means)
            for i, (_, trials) in enumerate(degrees):
                order = [2 if j == i else 0 for j in range(len(degrees))]
                term += trials * p * (1 - p) / 2 * mp.diff(ln_f, means, order)
            total += count * float(term)
    return total


def exact_isolated_moments(spec):
    """Mean and variance of the number of isolated vertices of one ER or BR
    replica, exact at finite n, as a sum of indicators over the vertices.

    A vertex with t possible edges is isolated with q = (1-p)^t: t = n-1 in ER,
    n2 in part 1 and n1 in part 2 of BR.  Two vertices are both isolated with
    (1-p)^(t_u + t_v - 1) where they are a possible edge (every ER pair, a BR
    pair across the parts) and (1-p)^(t_u + t_v) where not (Bollobas, *Random
    Graphs*, 2nd ed., ch. 3).
    """
    p = spec.p
    parts = ([(spec.n, spec.n - 1)] if spec.model == "er"
             else [(spec.n1, spec.n2), (spec.n2, spec.n1)])
    mean = var = 0.0
    for i, (count, trials) in enumerate(parts):
        q = (1 - p) ** trials
        mean += count * q
        var += count * q * (1 - q)
        for j, (other, other_trials) in enumerate(parts):
            pairs = count * (other - (i == j))
            shared = 1 if spec.model == "er" or i != j else 0
            both = (1 - p) ** (trials + other_trials - shared)
            var += pairs * (both - q * (1 - p) ** other_trials)
    return mean, var


def rg_disc_area(x, y, r):
    """Area A(x, y) of the disc of radius r around (x, y) inside the unit square,
    for 0 < r <= 1/2 and (x, y) in the quarter [0, 1/2]^2, where only the sides
    x = 0 and y = 0 can cut it: the disc, less the cap beyond each side, plus
    the corner that both caps remove (Penrose, *Random Geometric Graphs*, 2003,
    ch. 1)."""
    def cap(h):
        h = np.minimum(h, r)
        return r * r * np.arccos(h / r) - h * np.sqrt(r * r - h * h)

    def primitive(t):  # of sqrt(r^2 - t^2)
        return 0.5 * (t * np.sqrt(r * r - t * t) + r * r * np.arcsin(t / r))

    # Beyond both sides: sqrt(r^2 - t^2) - y over x < t < c, where c^2 + y^2 = r^2.
    c = np.sqrt(np.maximum(r * r - y * y, 0.0))
    corner = np.where(x < c, primitive(c) - primitive(np.minimum(x, c)) - y * (c - x), 0.0)
    return math.pi * r * r - cap(x) - cap(y) + corner


def _rg_quarter_rule(r, nodes):
    """(x, y, weight) of a Gauss-Legendre rule with ``nodes`` points a side on
    each piece of the quarter [0, 1/2]^2 where A is smooth: split at r on both
    axes, and [0, r]^2 also on the arc x^2 + y^2 = r^2, where the corner starts."""
    t, w = np.polynomial.legendre.leggauss(nodes)

    def rule(lo, hi):  # nodes and weights on [lo, hi], along a new last axis
        lo, hi = np.asarray(lo, float)[..., None], np.asarray(hi, float)[..., None]
        return lo + (hi - lo) * (t + 1) / 2, (hi - lo) / 2 * w

    near, w_near = rule(0.0, r)
    far, w_far = rule(r, 0.5)
    arc = np.sqrt(r * r - near * near)
    xs, ys, ws = [], [], []
    for x, wx, y_lo, y_hi in ((near, w_near, 0.0, arc), (near, w_near, arc, r),
                              (near, w_near, r, 0.5), (far, w_far, 0.0, r), (far, w_far, r, 0.5)):
        y, wy = rule(y_lo, y_hi)
        y = np.broadcast_to(y, (nodes, nodes))
        xs.append(np.broadcast_to(x[:, None], y.shape).ravel())
        ys.append(y.ravel())
        ws.append((wx[:, None] * wy).ravel())
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(ws)


def rg_vertex_means(n, r, h, nodes=48):
    """E[sum of h[d_v] over the n vertices] of RG(n, r) on the unit square, for
    0 < r <= 1/2 and each column of ``h``, which holds h[d] for d = 0..n-1.

    Given its position x, a vertex's degree is Bin(n - 1, A(x)), so the
    expectation is n times the integral of E[h[D] | x] over the square: four
    times that over the quarter of :func:`_rg_quarter_rule`.
    """
    x, y, w = _rg_quarter_rule(r, nodes)
    a = rg_disc_area(x, y, r)
    d = np.arange(n)
    log_choose = np.array([math.lgamma(n) - math.lgamma(k + 1) - math.lgamma(n - k) for k in d])
    pmf = np.exp(log_choose + d * np.log(a)[:, None] + (n - 1 - d) * np.log1p(-a)[:, None])
    return 4.0 * n * (w @ pmf) @ h


U = 2.0 ** -53      # unit roundoff of a double


def gamma(j):
    return j * U / (1.0 - j * U)


def stated_ln_bound(g: Graph, kind: str) -> float:
    """The bound that the indices module docstring states on the error of
    ``ln_multiplicative_index(g, kind)`` (exclude policy), gamma_(k-1) * sum |t_i|
    + 4u * sum (1 + |t_i|), from the built-in's computed log-factors t_i."""
    rule = resolve([kind])[0]
    deg = g.degrees
    args = (deg[deg > 0],) if rule.arity == "vertex" else tuple(g.edge_degree_pairs().T)
    abs_terms = np.abs(rule.ln(*args))
    k, total = abs_terms.size, float(abs_terms.sum())
    return gamma(max(k - 1, 0)) * total + 4.0 * U * (k + total)


def count_histograms(monkeypatch):
    """A list that gains one entry each time a degree histogram is built."""
    built = []
    of = DegreeHistogram.of.__func__
    monkeypatch.setattr(DegreeHistogram, "of", classmethod(
        lambda cls, *arrays: built.append(arrays) or of(cls, *arrays)))
    return built


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


def reference_function_values(g, rule):
    """(arity, name, realized F values in canonical order), one float per element.
    A built-in rule's factor is its entry of ``REFERENCE_FACTORS``, a custom
    rule's its checked F."""
    builtin = MULTIPLICATIVE_INDICES.get(rule.name) is rule
    arity, fn = REFERENCE_FACTORS[rule.name] if builtin else (rule.arity, rule.F)
    if arity == "vertex":
        values = [fn(d) for d in g.degrees.tolist() if d > 0]
    else:
        values = [fn(du, dv) for du, dv in g.edge_degree_pairs().tolist()]
    for v in values:
        if not math.isfinite(v) or v <= 0.0:
            raise ValueError(f"function {rule.name!r} produced nonpositive value {v}")
    return arity, rule.name, values


def _raw_envelope(prepared, logs):
    """Set ``prepared``'s ``a`` and ``b``: min and max of the mpf ``logs``, raw
    (None without logs), as the verifier's raw-valued preparation has them."""
    prepared.a = min(logs)._mpf_ if logs else None
    prepared.b = max(logs)._mpf_ if logs else None


class ReferencePrepared:
    """The verifier's per-element preparation of a resolved rule: float factors,
    one mpmath log each, summed as mpf objects; the sums and the envelope are
    handed on raw, as ``inequalities._checks`` reads them.  The memo is not used."""

    def __init__(self, g, rule, memo):
        self.arity, self.name, raw = reference_function_values(g, rule)
        self.k = len(raw)
        with mp.workprec(PREC):
            values = [mp.mpf(v) for v in raw]
            logs = [mp.log(v) for v in values]
            self.sum = mp.fsum(values)._mpf_
            self.sum_sq = mp.fsum(v * v for v in values)._mpf_
            self.log_sum = mp.fsum(logs)._mpf_
        _raw_envelope(self, logs)


class UnmemoizedPrepared:
    """The verifier's preparation before the memo and the raw values: exact
    rules once per distinct argument of one graph (``np.unique(axis=0)``),
    count-weighted ``c * v`` sums of mpf objects, and min/max of the logs."""

    def __init__(self, g, f):
        rule = resolve([f])[0]
        self.name = rule.name
        if rule.arity == "vertex":
            args = g.degrees[g.degrees > 0, None]
        else:
            args = g.edge_degree_pairs()
        self.k = args.shape[0]
        distinct, counts = np.unique(args, axis=0, return_counts=True)
        counts = counts.tolist()
        with mp.workprec(PREC):
            values = [rule.mp(mp, *x) for x in distinct.tolist()]
            logs = [mp.log(v) for v in values]
            self.sum = mp.fsum(c * v for c, v in zip(counts, values))._mpf_
            self.sum_sq = mp.fsum(c * v * v for c, v in zip(counts, values))._mpf_
            self.log_sum = mp.fsum(c * x for c, x in zip(counts, logs))._mpf_
        _raw_envelope(self, logs)


def reference_holds(lhs, rhs):
    """The verdict of the check ``lhs <= rhs`` of raw values, by the full rule
    in mpf objects: the slack against ``-RELATIVE_TOL * max(1, |lhs|, |rhs|)``,
    the tolerance worked out whatever the slack's sign."""
    with mp.workprec(PREC):
        lhs, rhs = mp.make_mpf(lhs), mp.make_mpf(rhs)
        return rhs - lhs >= -(max(1, abs(lhs), abs(rhs)) * RELATIVE_TOL)


# The custom-expression front end of the CLI before it became one AST walk:
# a whitelist over the tree, then compile and eval with float arguments.
# ``cli._parse_custom`` must give the same bits and the same errors.
_CUSTOM_CALLS = {"sqrt": math.sqrt, "log": math.log, "exp": math.exp}
_CUSTOM_CONSTANTS = {"pi": math.pi, "e": math.e}
_CUSTOM_ARGS = {"vertex": ("d",), "edge": ("a", "b", "du", "dv")}
_CUSTOM_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _check_custom(node: ast.AST, names: tuple[str, ...]) -> None:
    """Reject any expression node outside the custom-function grammar.

    Allowed: int/float literals, the argument names and pi/e, ``+ - * / **``,
    unary minus, and one-argument calls of sqrt/log/exp.
    """
    children: list[ast.AST] = []
    if isinstance(node, ast.Constant):
        ok = type(node.value) in (int, float)
    elif isinstance(node, ast.Name):
        ok = node.id in names or node.id in _CUSTOM_CONSTANTS
    elif isinstance(node, ast.BinOp):
        ok = isinstance(node.op, _CUSTOM_BINOPS)
        children = [node.left, node.right]
    elif isinstance(node, ast.UnaryOp):
        ok = isinstance(node.op, ast.USub)
        children = [node.operand]
    elif isinstance(node, ast.Call):
        ok = (isinstance(node.func, ast.Name) and node.func.id in _CUSTOM_CALLS
              and len(node.args) == 1 and not node.keywords)
        children = node.args
    else:
        ok = False
    if not ok:
        raise ValueError(f"{ast.unparse(node)!r} is not allowed")
    for child in children:
        _check_custom(child, names)


def _real(value) -> float:
    # A negative base to a fractional power yields a complex number.
    if isinstance(value, complex):
        raise ValueError(f"complex result {value!r}")
    return float(value)


class _FloatLiterals(ast.NodeTransformer):
    def visit_Constant(self, node):
        if type(node.value) is int:
            return ast.copy_location(ast.Constant(float(node.value)), node)
        return node


def with_float_literals(expr: str) -> str:
    """``expr`` with every int literal written as a float, as the AST walk reads it."""
    return ast.unparse(_FloatLiterals().visit(ast.parse(expr, mode="eval")))


def reference_parse_custom(defs: list[str], arity: str):
    out = []
    names = _CUSTOM_ARGS[arity]
    env = {"__builtins__": {}, **_CUSTOM_CALLS, **_CUSTOM_CONSTANTS}
    for item in defs:
        if "=" not in item:
            raise ValueError(f"custom function must be NAME=EXPR, got {item!r}")
        name, expr = item.split("=", 1)
        try:
            tree = ast.parse(expr, mode="eval")
            _check_custom(tree.body, names)
        except SyntaxError as exc:
            raise ValueError(f"custom function {name!r}: {exc.msg}") from None
        except ValueError as exc:
            raise ValueError(f"custom function {name!r}: {exc}") from None
        code = compile(tree, f"<{name}>", "eval")
        # Float arguments: integer powers such as d**d**d would otherwise grow
        # without bound, where float ones overflow into an error.
        if arity == "vertex":
            fn = lambda d, _c=code: _real(eval(_c, env, {"d": float(d)}))
            out.append(VertexFunction(name, fn))
        else:
            fn = lambda a, b, _c=code: _real(
                eval(_c, env, {"a": float(a), "b": float(b), "du": float(a), "dv": float(b)}))
            out.append(EdgeFunction(name, fn))
    return out


# Leaves that the grammar allows besides the argument names, and nodes it rejects.
_CUSTOM_LITERALS = ["0", "1", "2", "3", "0.5", "1.5", "2.0", "1e-3", "1e300", "pi", "e"]
_CUSTOM_REJECTED = ["True", "None", "x", "1j", "'s'", "d.real", "abs(d)", "sqrt(d, d)",
                    "sqrt(x=d)", "sqrt(d, x=d)", "(d // 2)", "(d % 2)", "+d", "(d < 2)", "[d][0]"]


@st.composite
def custom_expressions(draw, names, depth=4, power=True):
    """Source text of an expression in the custom-function grammar over ``names``,
    now and then with one node the grammar rejects.

    An exponent holds no ``**`` and at most one operator, so integer powers stay
    small: with literals up to 3 and depth 4 no integer exceeds 3**(9**4).
    """
    leaf = st.sampled_from([*names, *_CUSTOM_LITERALS])
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.integers(0, 40)) == 0:
            return draw(st.sampled_from(_CUSTOM_REJECTED))
        return draw(leaf)
    ops = ["+", "-", "*", "/", "neg", "call"] + (["**"] if power else [])
    op = draw(st.sampled_from(ops))
    sub = custom_expressions(names, depth - 1, power)
    if op == "neg":
        return f"-{draw(sub)}"
    if op == "call":
        return f"{draw(st.sampled_from(['sqrt', 'log', 'exp']))}({draw(sub)})"
    if op == "**":
        exponent = custom_expressions(names, 1, power=False)
        return f"({draw(sub)} ** {draw(exponent)})"
    return f"({draw(sub)} {op} {draw(sub)})"
