"""Numeric verification of sum-vs-product index inequalities.

Each check compares the additive and multiplicative invariants of one graph
under one positive degree function F.  All comparisons run in 192-bit
mpmath arithmetic because the raw product appears un-logged in several of the
bounds and overflows doubles already on mid-sized graphs; reported lhs/rhs
are rounded to floats afterwards (possibly to inf) while ``holds`` is decided
at full precision.  The six checks read one preparation per (graph,
function), made from the graph's degree histogram: k, the sums of F and F^2,
the sum of ln F and its min/max.  A custom function is float-valued, so its
verdicts are decided in 192 bits on those float values.

:func:`verify_corpus` resolves each function once and keeps one memo per
function for one call: each distinct argument's F and ln F at the working
precision.  The exact rule thus runs once per distinct argument of the whole
corpus, the memo holds at most that many entries (a few hundred per function
on the default corpus, whose degrees are below 32), and no result bit changes.
A built-in edge rule runs once per unordered degree pair: it is built from
``+``, ``*``, ``/`` and ``sqrt``, which mpmath rounds correctly, and ``+`` and
``*`` commute, so F(a, b) and F(b, a) have the same bits, and the memo stores
the entry under both orders.  A custom edge function keeps one entry per
ordered pair, as a float expression need not be symmetric.

Past the memo, the arithmetic runs on mpmath's raw values (``x._mpf_``)
through ``mpmath.libmp``, which skips the cost of an ``mpf`` object per
operation.  Each raw call is the one that the ``mpf`` operator or context
function it replaces makes at the same precision and rounding: ``c * v``
calls ``mpf_mul_int``, ``mp.fsum`` calls ``mpf_sum``, ``mp.exp`` calls
``mpf_exp``, and ``float(x)`` calls ``to_float``.  So every bit is as the
object layer computes it.  The envelope [a, b] of ln F is found on the
floats of the memoized ln F first: rounding to float64 is monotone, so the
exact extreme is among the entries whose float ties with the float extreme,
and only those are compared in 192 bits (filter, then decide exactly, as in
Shewchuk 1997).  exp(a), exp(b) and exp(a + b) are read from a cache keyed
by the raw value, which lives for one :func:`verify_corpus` call like the
memo.  A check depends only on its function and the arguments' histogram,
so :func:`verify_corpus` computes the checks once per function and
histogram key (a vertex rule's degree counts, an edge rule's degree-pair
counts) and reuses the same immutable checks for every graph that repeats
the key.

Conventions: every inequality is oriented ``lhs <= rhs``; ``slack = rhs -
lhs``; ``holds`` tolerates slack down to ``-1e-9 * max(1, |lhs|, |rhs|)``.
That bound is never positive, so a slack >= 0 holds at once and only a
negative slack is compared with it.
A check whose side conditions fail is still evaluated but flagged with
``hypothesis_ok=False`` so callers can report it without asserting it.

The converse-Jensen bound takes [a, b] as the realized envelope of ln F:
the least and greatest log-factor over the graph's degrees (the exponential
convexity argument behind the bound applies to the log-factors), with a
and b exponentiated in the conclusion exactly as stated.  The
Petrovic-style sum bound carries an implicit sign-coherence hypothesis: all
log-factors >= 0 or all <= 0; :func:`petrovic_counterexample` builds a
mixed-sign instance that genuinely violates the bare inequality.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, TextIO

from mpmath import mp
from mpmath.libmp import (fone, from_float, from_int, from_str, fzero, mpf_abs, mpf_add, mpf_cmp,
                          mpf_div, mpf_exp, mpf_ge, mpf_gt, mpf_le, mpf_mul, mpf_mul_int, mpf_neg,
                          mpf_sub, mpf_sum, to_float)

from .graph import Graph, build_graph
from .indices import (
    IndexKind,
    MULTIPLICATIVE_NAMES,
    VertexFunction,
    _ROW,
    _distinct_arguments,
    resolve,
)
from .models import (
    ModelSpec,
    SeedDerivation,
    bipartite,
    check_master_seed,
    erdos_renyi,
    generate,
    random_geometric,
)

_PREC = 192          # bits; well above the 128-bit floor the bounds need
_RND = "n"           # round to nearest: mpmath's default, which mtindex never changes
RELATIVE_TOL = 1e-9
_TOL = from_float(RELATIVE_TOL)
_EPS = from_str("1e-12", _PREC, _RND)          # mp.mpf("1e-12") at _PREC
_NEG_EPS = mpf_neg(_EPS, _PREC, _RND)

# The positions of run_all_checks' result; k factors, X_sum and X_prod over F.
INEQUALITIES = (
    "jensen",            # X_prod^(1/k) <= X_sum/k
    "jensen_converse",   # X_sum/k <= e^a + e^b - e^(a+b)/X_prod^(1/k), ln F in [a, b]
    "kober_lower",       # X_sum(F^2) + k(k-1) X_prod^(2/k) <= X_sum^2
    "kober_upper",       # X_sum^2 <= (k-1) X_sum(F^2) + k X_prod^(2/k)
    "petrovic_sum",      # X_sum <= X_prod + (k - 1), log-factors of one sign
    "exp_linear",        # sum ln F + 1 <= X_prod; unconditional
)

REPORT_COLUMNS = "inequality,model,n,param,function,lhs,rhs,slack,holds,hypothesis_ok"


class InequalityCheck(NamedTuple):
    inequality: str
    function: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    hypothesis_ok: bool


# Raw-value operations at (_PREC, _RND); each is the call that the mpf
# operator or context function named beside it makes.
def _add(x, y):         # x + y
    return mpf_add(x, y, _PREC, _RND)


def _sub(x, y):         # x - y
    return mpf_sub(x, y, _PREC, _RND)


def _mul(x, y):         # x * y
    return mpf_mul(x, y, _PREC, _RND)


def _mul_int(x, n):     # n * x, int n
    return mpf_mul_int(x, n, _PREC, _RND)


def _div_int(x, n):     # x / n, int n
    return mpf_div(x, from_int(n), _PREC, _RND)


def _exp(x):            # mp.exp(x)
    return mpf_exp(x, _PREC, _RND)


def _fsum(xs):          # mp.fsum(xs)
    return mpf_sum(xs, _PREC, _RND)


def _finish(inequality, name, lhs, rhs, hypothesis_ok=True):
    """The check ``lhs <= rhs`` of raw values: ``holds`` when the slack is at
    least ``-RELATIVE_TOL * max(1, |lhs|, |rhs|)``.  That bound is <= 0, so a
    slack >= 0 holds without it."""
    slack = _sub(rhs, lhs)
    holds = mpf_ge(slack, fzero)
    if not holds:
        scale = fone
        for side in (mpf_abs(lhs, _PREC, _RND), mpf_abs(rhs, _PREC, _RND)):
            if mpf_gt(side, scale):
                scale = side
        holds = mpf_ge(slack, mpf_neg(_mul(scale, _TOL), _PREC, _RND))
    return InequalityCheck(inequality, name, to_float(lhs, rnd=_RND), to_float(rhs, rnd=_RND),
                           to_float(slack, rnd=_RND), holds, hypothesis_ok)


def _extreme(entries, target: float, sign: int):
    """The least (``sign`` -1) or greatest (+1) raw ln F among the memo
    ``entries`` whose float is ``target``, the float extreme."""
    best = None
    for _, ln, ln_float in entries:
        if ln_float == target and (best is None or mpf_cmp(ln, best) == sign):
            best = ln
    return best


class _Prepared:
    """Shared per-(graph, function) quantities, raw mpf values at ``_PREC``.

    Vertex functions are evaluated over non-isolated vertices only (exclude
    policy with effective n); edge endpoints always have degree >= 1.  F is
    evaluated once per distinct degree, or per distinct ordered (d_u, d_v),
    and the sums are weighted by how often each value occurs.  ``a`` and
    ``b`` are the least and greatest ln F (None when k == 0).

    ``memo`` maps a distinct argument of the resolved ``rule`` to the raw ``(F, ln F)`` and
    the float of ln F; passing the same dict for every graph evaluates each argument once.
    A built-in edge rule (one with a row in ``indices._ROW``) is exactly symmetric, so its
    entry for (d_u, d_v) is also stored for (d_v, d_u).
    """

    def __init__(self, g: Graph, rule, memo: dict):
        self.name = rule.name
        args, counts, _, _ = _distinct_arguments(g.histogram, rule)
        distinct, counts = list(zip(*(a.tolist() for a in args))), counts.tolist()
        self.k = sum(counts)
        mirror = rule.arity == "edge" and rule in _ROW
        with mp.workprec(_PREC):
            for x in distinct:
                if x not in memo:
                    v = rule.mp(mp, *x)
                    ln = mp.log(v)
                    memo[x] = (v._mpf_, ln._mpf_, float(ln))
                    if mirror:
                        memo[x[::-1]] = memo[x]
        entries = [memo[x] for x in distinct]
        weighted = [_mul_int(v, c) for c, (v, _, _) in zip(counts, entries)]   # c * v
        self.sum = _fsum(weighted)
        self.sum_sq = _fsum([_mul(cv, v) for cv, (v, _, _) in zip(weighted, entries)])
        self.log_sum = _fsum([_mul_int(ln, c) for c, (_, ln, _) in zip(counts, entries)])
        # Rounding to float64 is monotone, so the exact extremes are among the
        # entries whose float ties with the float extreme.
        floats = [ln_float for _, _, ln_float in entries]
        self.a = _extreme(entries, min(floats), -1) if entries else None
        self.b = _extreme(entries, max(floats), 1) if entries else None


def run_all_checks(g: Graph, f: IndexKind) -> list[InequalityCheck]:
    """The six checks of ``INEQUALITIES``, in order, from one preparation of (g, f).

    With no realized values (k == 0) the first four checks are vacuous:
    lhs = rhs = 0.
    """
    return _checks(_Prepared(g, resolve([f])[0], {}), {})


def _cached_exp(x, exps: dict):
    """``_exp(x)``, read from or added to ``exps``, keyed by the raw ``x``."""
    e = exps.get(x)
    if e is None:
        e = exps[x] = _exp(x)
    return e


def _checks(p: _Prepared, exps: dict) -> list[InequalityCheck]:
    """:func:`run_all_checks` on the preparation ``p``; ``exps`` caches exp
    of the envelope ends (see :func:`_cached_exp`)."""
    k, name, total, log_sum = p.k, p.name, p.sum, p.log_sum
    if k == 0:
        checks = [_finish(ineq, name, fzero, fzero) for ineq in INEQUALITIES[:4]]
        coherent = True
    else:
        a, b = p.a, p.b
        mean = _div_int(total, k)
        # e^a + e^b - e^(a+b) * exp(-log_sum / k)
        converse = _sub(_add(_cached_exp(a, exps), _cached_exp(b, exps)),
                        _mul(_cached_exp(_add(a, b), exps),
                             _exp(_div_int(mpf_neg(log_sum, _PREC, _RND), k))))
        gm_sq = _exp(_div_int(_mul_int(log_sum, 2), k))          # exp(2 * log_sum / k)
        square = _mul(total, total)
        checks = [
            _finish("jensen", name, _exp(_div_int(log_sum, k)), mean),
            _finish("jensen_converse", name, mean, converse),
            # sum_sq + k * (k - 1) * gm_sq <= square
            _finish("kober_lower", name, _add(p.sum_sq, _mul_int(gm_sq, k * (k - 1))), square),
            # square <= (k - 1) * sum_sq + k * gm_sq
            _finish("kober_upper", name, square,
                    _add(_mul_int(p.sum_sq, k - 1), _mul_int(gm_sq, k))),
        ]
        coherent = mpf_ge(a, _NEG_EPS) or mpf_le(b, _EPS)        # a >= -eps or b <= eps
    product = _exp(log_sum)
    checks.append(_finish("petrovic_sum", name, total, _add(product, from_int(k - 1)), coherent))
    checks.append(_finish("exp_linear", name, _add(log_sum, fone), product))
    return checks


def petrovic_counterexample() -> tuple[Graph, VertexFunction]:
    """Mixed-sign instance violating the bare sum bound.

    A 3-vertex path with F(1)=e^-3, F(2)=e^3 gives X_sum ~ 20.19 while
    X_prod + n - 1 ~ 2.05.  (With symmetric degree rules on simple graphs a
    two-factor mixed-sign instance does not exist, so this is the minimal
    graph realization.)
    """
    g = build_graph(3, [(0, 1), (1, 2)])
    f = VertexFunction("mixed_sign_demo", lambda d: math.exp(3.0) if d == 2 else math.exp(-3.0))
    return g, f


class CorpusCheck(NamedTuple):
    model: str
    n: int
    param: float
    check: InequalityCheck


DEFAULT_SIZES = (8, 16, 32)
DEFAULT_GRAPHS_PER_SIZE = 100


def corpus_model_points(
    sizes: Sequence[int] = DEFAULT_SIZES,
    graphs_per_size: int = DEFAULT_GRAPHS_PER_SIZE,
) -> list[tuple[ModelSpec, int]]:
    """(model point, replica count) cells of the default verification corpus.

    Per model and size: a 10-value parameter grid over which exactly
    ``graphs_per_size`` graphs are split, the first ``graphs_per_size % 10``
    values taking one more than the rest.  Every grid value keeps its cell,
    also with zero replicas, so a cell's position (its point id) depends only
    on the sizes.  A size below 2 leaves a bipartite part empty, so it is
    refused before any cell is built.
    """
    if not sizes:
        raise ValueError("sizes must list at least one graph size")
    for n in sizes:
        if n < 2:
            raise ValueError(f"sizes must be >= 2, got {n}")
    if graphs_per_size < 1:
        raise ValueError(f"graphs per size must be >= 1, got {graphs_per_size}")
    params = [(i + 1) / 10.0 for i in range(10)]
    base, extra = divmod(graphs_per_size, len(params))
    reps = [base + (i < extra) for i in range(len(params))]
    makers = (
        erdos_renyi,
        lambda n, p: random_geometric(n, p * math.sqrt(2.0)),
        lambda n, p: bipartite(n // 2, n - n // 2, p),
    )
    return [(make(n, p), r) for make in makers for n in sizes for p, r in zip(params, reps)]


def verify_corpus(
    master_seed: int,
    sizes: Sequence[int] = DEFAULT_SIZES,
    graphs_per_size: int = DEFAULT_GRAPHS_PER_SIZE,
    functions: Sequence[IndexKind] | None = None,
) -> list[CorpusCheck]:
    """Run every check over the sampled corpus; deterministic in master_seed.
    An unknown function or a repeated name, built-in or custom (each function
    is resolved once, here), a seed outside [0, 2^64), a size below 2, or a
    cell that no replica can sample (no :class:`ModelSpec`), raises ValueError
    before any sampling."""
    rules = resolve(MULTIPLICATIVE_NAMES if functions is None else functions)
    check_master_seed(master_seed)
    cells = corpus_model_points(sizes, graphs_per_size)
    rows: list[CorpusCheck] = []
    # For this call only: per function, each argument's F and ln F, and the
    # checks of each histogram key; exp of each envelope end for all of them.
    memos = [{} for _ in rules]
    done: list[dict] = [{} for _ in rules]
    exps: dict = {}
    for point_id, (spec, reps) in enumerate(cells):
        for replica in range(reps):
            g = generate(spec, SeedDerivation(master_seed, point_id, replica))
            h = g.histogram
            keys = {"vertex": h.vertex.tobytes(),
                    "edge": (h.pairs[0].tobytes(), h.pairs[1].tobytes(), h.pair_counts.tobytes())}
            for rule, memo, seen in zip(rules, memos, done):
                key = keys[rule.arity]
                checks = seen.get(key)
                if checks is None:
                    checks = seen[key] = _checks(_Prepared(g, rule, memo), exps)
                rows.extend(CorpusCheck(spec.model, spec.n, spec.param_value, c) for c in checks)
    g, f = petrovic_counterexample()
    rows.append(CorpusCheck("counterexample", g.n, 0.0, run_all_checks(g, f)[4]))
    return rows


def write_report_csv(rows: Sequence[CorpusCheck], out: TextIO) -> None:
    out.write(REPORT_COLUMNS + "\n")
    for row in rows:
        c = row.check
        out.write(
            f"{c.inequality},{row.model},{row.n},{repr(float(row.param))},{c.function},"
            f"{repr(c.lhs)},{repr(c.rhs)},{repr(c.slack)},{c.holds},{c.hypothesis_ok}\n"
        )
