"""Degree-based topological indices in log-space.

Two families of graph invariants over a degree function F:

* additive:        ``X_sum  = sum of F over vertices (or edges)``
* multiplicative:  ``X_prod = product of F over vertices (or edges)``

Multiplicative values explode far beyond double range (the second
multiplicative Zagreb index of a 1000-vertex network with mean degree 10 is
around e^23000), so this module never forms the raw product: it returns
``ln X_prod``.  Every index, sum or product, one graph or many, runs through
one evaluator: one term (F for a sum, ln F for a product) per distinct degree
or degree pair of the graph's histogram, and the count-weighted terms added
one at a time, in order; the rule picks its term.  A histogram may stack
several graphs (the sweep's chunks of replicas); the distinct arguments are
then found once per arity and the terms taken once for all of them, and one
``np.bincount`` adds each graph's terms, in order, into its own total, so a
graph gets the same bits alone or stacked.

Terms.  A built-in's ln F comes from its row of one table per arity, with one
row per built-in product of that arity, at every degree (or degree pair) below
``_TABLE_CAP`` = 64, built once per process on first use.  The table index
of a histogram's arguments is computed once per arity, and one gather of the
table's rows and one multiply by the counts give the weighted terms of every
built-in product of that arity; each rule keeps its own ``np.bincount``.  A
stack with a degree at or above the cap computes ln F at its distinct
arguments.  A sum's F, and any custom function, is computed at those
arguments only, never over a table.  numpy's log and the rules' arithmetic
act element by element, so a table entry has the bits of ln F at that
argument alone, and no value depends on where its term came from (the tests
check this under both log kernels).

Error bound.  With unit roundoff u = 2^-53 and gamma_j = j*u / (1 - j*u),
the computed value S^ of S = sum ln F_i over k factors obeys

    |S^ - S| <= gamma_(k-1) * sum |t_i|  +  4u * sum (1 + |t_i|)

where t_i are the computed log-factors.  The first term bounds the reduction
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section
4.2): d terms c_j*t_j over the distinct arguments, each rounded once, and d-1
additions in any order stay within gamma_d * sum |t_i|; when every count c_j
is 1, d = k and the terms are exact, else d < k.  The second term is the
error of each log-factor: a built-in forms F from exact integers (degrees
up to 2^26) with at most three rounded operations (3.0001u after the log),
then one log, within one ulp (2u*|t_i|); the u + 2u*|t_i| left is margin.
The tests hold every built-in to this bound against a 240-bit oracle that
forms the product itself, factor by factor, and each log-factor alone.

Names.  :func:`resolve` alone turns index kinds into rules, refusing an unknown
or repeated name, for the evaluators, ``EnsembleSpec``, ``verify_corpus``,
``run_all_checks`` and ``mtindex index`` and ``collapse``.

Vertex-based products are zero on graphs with isolated vertices.  The
``isolated_policy`` argument picks between excluding those vertices from the
product (reporting how many were skipped) and returning an explicit log-zero
sentinel; edge-based indices are unaffected since edge endpoints always have
degree >= 1.

Imports.  This module needs numpy and :mod:`mtindex.graph` only.  A
rule's exact form ``mp(ctx, *degrees)`` takes its mpmath context from the
caller, so mpmath loads only where the exact forms run:
:mod:`mtindex.inequalities` (192-bit verdicts) and the tests' 240-bit oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Union

import numpy as np

from .graph import DegreeHistogram, Graph
from .names import EXCLUDE, LOGZERO, POLICIES


class EvaluationError(ValueError):
    """A degree function failed or produced a nonpositive or non-finite factor."""


@dataclass(frozen=True)
class VertexFunction:
    """Custom vertex rule d -> F(d), required positive and finite for d >= 1."""

    name: str
    fn: Callable[[int], float]


@dataclass(frozen=True)
class EdgeFunction:
    """Custom edge rule (d_u, d_v) -> F, positive and finite for d >= 1, called
    as F(d_u, d_v) for each edge u < v in vertex order: an asymmetric F means
    something only where the model fixes that order (in br, u is in part 1)."""

    name: str
    fn: Callable[[int, int], float]


IndexKind = Union[str, VertexFunction, EdgeFunction]


@dataclass(frozen=True)
class LogIndexValue:
    """ln of a multiplicative index; ``-inf`` encodes a zero product.

    ``excluded`` counts isolated vertices skipped under the exclude policy.
    """

    value: float
    excluded: int = 0

    @property
    def is_log_zero(self) -> bool:
        return math.isinf(self.value) and self.value < 0

    @classmethod
    def log_zero(cls) -> "LogIndexValue":
        return cls(value=-math.inf)


def _checked(fn: Callable, name: str):
    """``fn`` that raises :class:`EvaluationError` naming ``name`` and the integer
    degrees whenever it fails or returns a nonpositive or non-finite factor."""

    def wrapped(*degrees: int) -> float:
        try:
            val = fn(*degrees)
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationError(f"function {name!r} failed at {_where(degrees)}: {exc}") from exc
        if not math.isfinite(val) or val <= 0.0:
            raise EvaluationError(f"function {name!r} returned {val!r} at {_where(degrees)}")
        return val

    return wrapped


def _where(degrees: tuple[int, ...]) -> str:
    return f"degrees {degrees}" if len(degrees) > 1 else f"degree {degrees[0]}"


@dataclass(frozen=True)
class _Rule:
    """One degree rule F: F_V(d) when ``arity`` is "vertex", F_E(d_u, d_v) when "edge".

    ``F(sqrt, *degrees)`` is written once for every number type it runs on:
    int64 or float64 degree arrays with ``np.sqrt``, and mpmath numbers with
    the context's ``sqrt``.  Its forms derive from it: ``value`` and ``ln``
    (F and ln F over degree arrays) and ``mp(ctx, *degrees)`` (F in ``ctx``).
    """

    name: str
    arity: str                          # "vertex" | "edge"
    F: Callable
    defined_at_zero: bool = False       # isolated vertices add F(0), whatever the policy
    dense_limit: bool = True            # ln F at the mean degrees predicts the mean (dense.py)
    additive: bool = False              # the index sums F, not ln F

    def value(self, *degrees: np.ndarray) -> np.ndarray:
        return self.F(np.sqrt, *degrees)

    def ln(self, *degrees: np.ndarray) -> np.ndarray:
        return np.log(self.value(*degrees))

    def mp(self, ctx, *degrees):
        return self.F(ctx.sqrt, *map(ctx.mpf, degrees))


class _Custom(_Rule):
    """A :class:`VertexFunction` or :class:`EdgeFunction`: ``F(*degrees)`` is the
    user's function, checked, called once per distinct argument with ints."""

    def value(self, *degrees: np.ndarray) -> np.ndarray:
        return np.array([self.F(*x) for x in zip(*(a.tolist() for a in degrees))])

    def mp(self, ctx, *degrees):
        return ctx.mpf(self.F(*degrees))


MULTIPLICATIVE_INDICES: dict[str, _Rule] = {
    b.name: b
    for b in (
        _Rule("nk", "vertex", lambda sqrt, d: d),
        # 1.0 * makes F a float on int64 degrees, so the additive m1, m2 sum floats.
        _Rule("pi1", "vertex", lambda sqrt, d: 1.0 * d * d),
        _Rule("pi2", "edge", lambda sqrt, a, b: 1.0 * a * b),
        _Rule("pi1s", "edge", lambda sqrt, a, b: a + b),
        _Rule("rpi", "edge", lambda sqrt, a, b: 1 / sqrt(a * b)),
        _Rule("hpi", "edge", lambda sqrt, a, b: 2 / (a + b)),
        _Rule("chipi", "edge", lambda sqrt, a, b: 1 / sqrt(a + b)),
        _Rule("idpi", "edge", lambda sqrt, a, b: 1 / (a * a) + 1 / (b * b)),
        # Geometric-arithmetic edge rule; exploratory.  It is 1 at equal
        # degrees, so only their spread moves its mean.
        _Rule("gapi", "edge", lambda sqrt, a, b: 2 * sqrt(a * b) / (a + b), dense_limit=False),
    )
}

# Additive built-ins: sums of the F of pi1, pi2, rpi, hpi and chipi, and of 1/d.
# Terms undefined at d=0 leave isolated vertices to the policy.
_ADDITIVE: dict[str, _Rule] = {
    b.name: b
    for b in (
        replace(MULTIPLICATIVE_INDICES["pi1"], name="m1", defined_at_zero=True, additive=True),
        replace(MULTIPLICATIVE_INDICES["pi2"], name="m2", additive=True),
        replace(MULTIPLICATIVE_INDICES["rpi"], name="r", additive=True),
        replace(MULTIPLICATIVE_INDICES["hpi"], name="h", additive=True),
        replace(MULTIPLICATIVE_INDICES["chipi"], name="chi", additive=True),
        _Rule("id", "vertex", lambda sqrt, d: 1.0 / d, additive=True),
    )
}

# The built-ins of each arity in the order of their rows of its ln F table.
_TABLE_ROWS = {arity: tuple(rule for rule in MULTIPLICATIVE_INDICES.values() if rule.arity == arity)
               for arity in ("vertex", "edge")}
_ROW = {rule: row for rules in _TABLE_ROWS.values() for row, rule in enumerate(rules)}
_TABLE_CAP = 64     # the tables cover degrees below it; a stack with one at or above computes ln F


@functools.cache
def _ln_table(arity: str) -> np.ndarray:
    """Row i holds ln F of ``_TABLE_ROWS[arity][i]`` at every degree (or degree pair, flat
    at ``d_u * _TABLE_CAP + d_v``) below ``_TABLE_CAP``; built on first use, read-only."""
    grid = np.indices((_TABLE_CAP,) * (1 if arity == "vertex" else 2))
    with np.errstate(divide="ignore", invalid="ignore"):   # F at degree 0
        table = np.array([rule.ln(*grid).ravel() for rule in _TABLE_ROWS[arity]])
    table.setflags(write=False)
    return table


def _table_terms(arity: str, degrees: tuple[np.ndarray, ...]) -> np.ndarray:
    """ln F of every built-in of ``arity`` at each argument below ``_TABLE_CAP``,
    one row per rule of ``_TABLE_ROWS[arity]``, by one gather from its table."""
    index = degrees[0] if len(degrees) == 1 else degrees[0] * _TABLE_CAP + degrees[1]
    return _ln_table(arity).take(index, axis=1)


MULTIPLICATIVE_NAMES = tuple(MULTIPLICATIVE_INDICES)
ADDITIVE_NAMES = tuple(_ADDITIVE)
BUILT_IN_INDICES = {**MULTIPLICATIVE_INDICES, **_ADDITIVE}


def _distinct_arguments(
    h: DegreeHistogram, rule: _Rule, policy: str = EXCLUDE
) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
    """Distinct arguments of ``rule`` in each graph of ``h`` (ascending degrees
    ``(d,)`` or lexicographic pairs ``(d_u, d_v)``), graph after graph; their
    counts; the graph of each; and the isolated vertices each graph skips
    (degree 0 is an argument only where the rule is defined).  Under
    ``logzero`` a graph that skips a vertex contributes no argument.  They
    depend on the rule only through its arity and ``defined_at_zero``."""
    if rule.arity == "edge":
        return h.pairs, h.pair_counts, h.pair_graph, np.zeros(len(h.vertex), dtype=np.int64)
    start = 0 if rule.defined_at_zero else 1
    skipped = h.vertex[:, :start].sum(axis=1)
    body = h.vertex[:, start:]
    if policy == LOGZERO:
        body = body * (skipped == 0)[:, None]
    graph, d = np.nonzero(body)
    return (d + start,), body[graph, d], graph, skipped


def resolve(kinds: Iterable[IndexKind], table=MULTIPLICATIVE_INDICES) -> list[_Rule]:
    """The rule of each kind, in order, from a name in ``table`` or a custom function (additive
    with the additive table); ValueError for a name not in ``table`` or given twice."""
    rules = []
    for kind in kinds:
        if isinstance(kind, str):
            if kind not in table:
                family = ("multiplicative " if table is MULTIPLICATIVE_INDICES
                          else "additive " if table is _ADDITIVE else "")
                raise ValueError(f"unknown {family}index {kind!r}")
            rules.append(table[kind])
        elif isinstance(kind, (VertexFunction, EdgeFunction)):
            arity = "vertex" if isinstance(kind, VertexFunction) else "edge"
            rules.append(_Custom(kind.name, arity, _checked(kind.fn, kind.name),
                                 additive=table is _ADDITIVE))
        else:
            raise TypeError(f"not an index kind: {kind!r}")
    names = [rule.name for rule in rules]
    if len(set(names)) < len(names):
        raise ValueError(f"index set repeats a name: {','.join(names)}")
    return rules


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise ValueError(f"unknown isolated policy {policy!r}")


def ln_multiplicative_index(
    g: Graph, kind: IndexKind, isolated_policy: str = EXCLUDE
) -> LogIndexValue:
    """ln of the multiplicative index of ``g``.

    The count-weighted ln-factors are summed in order (see the module
    docstring for the error bound).  An empty product yields ``Finite(0)``.
    """
    [[value]], [[excluded]] = _ln_indices(resolve([kind]), g.histogram, isolated_policy)
    return LogIndexValue(float(value), int(excluded))


def additive_index(g: Graph, kind: IndexKind, isolated_policy: str = EXCLUDE) -> float:
    """Additive index of ``g``, reduced like :func:`ln_multiplicative_index`.

    Isolated vertices: terms that are defined at d=0 (e.g. the first Zagreb
    index) are included; undefined terms (inverse degree, custom functions)
    are skipped under ``exclude`` and make the sum +inf under ``logzero``,
    matching the divergence of 1/d at d=0.
    """
    [[value]], _ = _ln_indices(resolve([kind], _ADDITIVE), g.histogram, isolated_policy)
    return float(value)


def ln_indices_from_arrays(
    deg: np.ndarray,
    du: np.ndarray,
    dv: np.ndarray,
    kinds: Iterable[IndexKind],
    isolated_policy: str = EXCLUDE,
) -> list[LogIndexValue]:
    """Evaluate several indices from degree arrays, as :func:`ln_multiplicative_index` does.

    ``deg`` is the full degree sequence; ``du``/``dv`` are edge endpoint
    degrees in canonical edge order.  It runs the same evaluator on one
    histogram, so it returns the per-graph function's bits.
    """
    values, excluded = _ln_indices(resolve(kinds), DegreeHistogram.of(deg, du, dv),
                                   isolated_policy)
    return [LogIndexValue(v, e) for v, e in zip(values[:, 0].tolist(), excluded[:, 0].tolist())]


def _ln_indices(rules: list, h: DegreeHistogram, policy: str) -> tuple[np.ndarray, np.ndarray]:
    """``(values, excluded)`` of each rule on each graph of ``h``, of shape
    ``(len(rules), graphs)``: its count-weighted terms (``value`` for a sum,
    ``ln`` for a product) added in order by ``np.bincount``, so a graph gets
    the same bits alone or stacked.  The built-ins of one arity share one
    gather from their table and one multiply by the counts.  Under
    ``logzero`` an isolated vertex at which a rule is undefined makes the
    total ``+inf`` for a sum and ``-inf`` for a product, with none excluded."""
    _check_policy(policy)
    top = h.vertex.shape[1]     # no degree of the stack reaches it
    arguments, tabled, values, excluded = {}, {}, [], []
    for rule in rules:
        key = (rule.arity, rule.defined_at_zero)
        if key not in arguments:
            degrees, counts, graph, skipped = _distinct_arguments(h, rule, policy)
            # Every count is below 2^53, so each rule's counts * terms has the
            # bits it had with the int64 counts.
            arguments[key] = degrees, counts.astype(np.float64), graph, skipped
        degrees, counts, graph, skipped = arguments[key]
        row = _ROW.get(rule)
        if row is not None and top <= _TABLE_CAP:
            if rule.arity not in tabled:
                tabled[rule.arity] = _table_terms(rule.arity, degrees) * counts
            weighted = tabled[rule.arity][row]
        else:
            weighted = counts * (rule.value(*degrees) if rule.additive else rule.ln(*degrees))
        total = np.bincount(graph, weights=weighted, minlength=skipped.size)
        total = total.astype(np.float64, copy=False)  # bincount counts in int64 when no term
        if policy == LOGZERO:
            total[skipped > 0] = math.inf if rule.additive else -math.inf
            skipped = np.zeros_like(skipped)
        values.append(total)
        excluded.append(skipped)
    shape = (len(values), len(h.vertex))
    return np.array(values).reshape(shape), np.array(excluded, dtype=np.int64).reshape(shape)
