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

Conventions: every inequality is oriented ``lhs <= rhs``; ``slack = rhs -
lhs``; ``holds`` tolerates slack down to ``-1e-9 * max(1, |lhs|, |rhs|)``.
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
from dataclasses import dataclass
from typing import Sequence, TextIO

from mpmath import mp

from .graph import Graph, build_graph
from .indices import (
    IndexKind,
    MULTIPLICATIVE_INDICES,
    VertexFunction,
    _distinct_arguments,
    _resolve,
    resolve,
)
from .models import (
    ModelSpec,
    SeedDerivation,
    bipartite,
    check_master_seed,
    check_samplable,
    erdos_renyi,
    generate,
    random_geometric,
)

_PREC = 192          # bits; well above the 128-bit floor the bounds need
RELATIVE_TOL = 1e-9

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


@dataclass(frozen=True)
class InequalityCheck:
    inequality: str
    function: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    hypothesis_ok: bool


def _finish(inequality, name, lhs, rhs, hypothesis_ok=True):
    slack = rhs - lhs
    tol = RELATIVE_TOL * max(mp.one, abs(lhs), abs(rhs))
    return InequalityCheck(
        inequality=inequality,
        function=name,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        holds=bool(slack >= -tol),
        hypothesis_ok=hypothesis_ok,
    )


class _Prepared:
    """Shared per-(graph, function) quantities, all in working precision.

    Vertex functions are evaluated over non-isolated vertices only (exclude
    policy with effective n); edge endpoints always have degree >= 1.  F is
    evaluated once per distinct degree, or per distinct ordered (d_u, d_v),
    and the sums are weighted by how often each value occurs.

    ``memo`` maps a distinct argument of the resolved ``rule`` to ``(F, ln F)``;
    passing the same dict for every graph evaluates each argument once.
    """

    def __init__(self, g: Graph, rule, memo: dict):
        self.name = rule.name
        args, counts, _, _ = _distinct_arguments(g.histogram, rule)
        distinct, counts = list(zip(*(a.tolist() for a in args))), counts.tolist()
        self.k = sum(counts)
        with mp.workprec(_PREC):
            for x in distinct:
                if x not in memo:
                    v = rule.mp(mp, *x)
                    memo[x] = (v, mp.log(v))
            values = [memo[x][0] for x in distinct]
            self.logs = [memo[x][1] for x in distinct]
            self.sum = mp.fsum(c * v for c, v in zip(counts, values))
            self.sum_sq = mp.fsum(c * v * v for c, v in zip(counts, values))
            self.log_sum = mp.fsum(c * x for c, x in zip(counts, self.logs))


def run_all_checks(g: Graph, f: IndexKind) -> list[InequalityCheck]:
    """The six checks of ``INEQUALITIES``, in order, from one preparation of (g, f).

    With no realized values (k == 0) the first four checks are vacuous:
    lhs = rhs = 0.
    """
    return _checks(_Prepared(g, _resolve(f), {}))


def _checks(p: _Prepared) -> list[InequalityCheck]:
    """:func:`run_all_checks` on the preparation ``p``."""
    k, name = p.k, p.name
    with mp.workprec(_PREC):
        eps = mp.mpf("1e-12")
        if k == 0:
            checks = [_finish(ineq, name, mp.zero, mp.zero) for ineq in INEQUALITIES[:4]]
            coherent = True
        else:
            a, b = min(p.logs), max(p.logs)
            mean = p.sum / k
            converse = mp.exp(a) + mp.exp(b) - mp.exp(a + b) * mp.exp(-p.log_sum / k)
            gm_sq = mp.exp(2 * p.log_sum / k)
            square = p.sum * p.sum
            checks = [
                _finish("jensen", name, mp.exp(p.log_sum / k), mean),
                _finish("jensen_converse", name, mean, converse),
                _finish("kober_lower", name, p.sum_sq + k * (k - 1) * gm_sq, square),
                _finish("kober_upper", name, square, (k - 1) * p.sum_sq + k * gm_sq),
            ]
            coherent = bool(a >= -eps) or bool(b <= eps)
        product = mp.exp(p.log_sum)
        checks.append(_finish("petrovic_sum", name, p.sum, product + (k - 1), coherent))
        checks.append(_finish("exp_linear", name, p.log_sum + 1, product))
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


@dataclass(frozen=True)
class CorpusCheck:
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
    on the sizes.
    """
    if not sizes:
        raise ValueError("sizes must list at least one graph size")
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
    An unknown or repeated function (each is resolved once, here), a seed
    outside [0, 2^64), or a cell that no replica can sample, raises ValueError
    before any sampling."""
    rules = resolve(MULTIPLICATIVE_INDICES if functions is None else functions)
    check_master_seed(master_seed)
    cells = corpus_model_points(sizes, graphs_per_size)
    for spec, _ in cells:
        check_samplable(spec)
    rows: list[CorpusCheck] = []
    memos = [{} for _ in rules]  # per function, for this call only
    for point_id, (spec, reps) in enumerate(cells):
        for replica in range(reps):
            g = generate(spec, SeedDerivation(master_seed, point_id, replica))
            for rule, memo in zip(rules, memos):
                for check in _checks(_Prepared(g, rule, memo)):
                    rows.append(CorpusCheck(spec.model, spec.n, spec.param_value, check))
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
