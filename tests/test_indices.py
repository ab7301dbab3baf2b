import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from helpers import (
    _ORACLE_PREC,
    U,
    count_histograms,
    edge_sets,
    exact_ln_oracle,
    flat_stack,
    gamma,
    mixed_graphs,
    reference_evaluate,
    stated_ln_bound,
)
from mtindex import indices
from mtindex.graph import DegreeHistogram, build_graph
from mtindex.indices import (
    ADDITIVE_NAMES,
    BUILT_IN_INDICES,
    EXCLUDE,
    POLICIES,
    EdgeFunction,
    EvaluationError,
    LOGZERO,
    LogIndexValue,
    MULTIPLICATIVE_INDICES,
    MULTIPLICATIVE_NAMES,
    VertexFunction,
    _ADDITIVE,
    _TABLE_CAP,
    _TABLE_ROWS,
    _distinct_arguments,
    _ln_indices,
    _table_terms,
    additive_index,
    ln_indices_from_arrays,
    ln_multiplicative_index,
    resolve,
)

P3 = build_graph(3, [(0, 1), (1, 2)])
K4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
C5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
EMPTY5 = build_graph(5, [])


def test_p3_frozen_values():
    assert ln_multiplicative_index(P3, "nk").value == pytest.approx(math.log(2.0), abs=1e-12)
    assert ln_multiplicative_index(P3, "hpi").value == pytest.approx(
        2.0 * math.log(2.0 / 3.0), abs=1e-12)
    assert ln_multiplicative_index(P3, "idpi").value == pytest.approx(
        math.log(25.0 / 16.0), abs=1e-12)


def test_empty_product_is_zero():
    assert ln_multiplicative_index(EMPTY5, "pi2") == LogIndexValue(0.0)
    assert ln_multiplicative_index(build_graph(0, []), "nk") == LogIndexValue(0.0)


def test_isolated_vertex_policies():
    g = build_graph(4, [(0, 1), (1, 2)])  # vertex 3 isolated
    excl = ln_multiplicative_index(g, "nk", EXCLUDE)
    assert excl.value == pytest.approx(math.log(2.0)) and excl.excluded == 1
    sentinel = ln_multiplicative_index(g, "nk", LOGZERO)
    assert sentinel.is_log_zero
    # Edge-based kinds never see degree-0 endpoints.
    assert not ln_multiplicative_index(g, "pi2", LOGZERO).is_log_zero
    with pytest.raises(ValueError, match="policy"):
        ln_multiplicative_index(g, "nk", "drop")


def test_additive_values():
    assert additive_index(P3, "m1") == pytest.approx(6.0, abs=1e-12)
    assert additive_index(P3, "r") == pytest.approx(math.sqrt(2.0), abs=1e-12)
    k2 = build_graph(2, [(0, 1)])
    assert additive_index(k2, "h") == pytest.approx(1.0, abs=1e-12)
    assert additive_index(P3, "m2") == pytest.approx(4.0)
    assert additive_index(P3, "id") == pytest.approx(1.0 + 0.5 + 1.0)


def test_additive_isolated_policy():
    g = build_graph(3, [(0, 1)])  # vertex 2 isolated
    assert additive_index(g, "id", EXCLUDE) == pytest.approx(2.0)
    assert additive_index(g, "id", LOGZERO) == math.inf
    # m1 is defined at d=0; the isolated vertex contributes 0 either way.
    assert additive_index(g, "m1", LOGZERO) == pytest.approx(2.0)


def test_oracle_frozen_values():
    assert exact_ln_oracle(P3, "pi2").value == pytest.approx(math.log(4.0), abs=1e-12)
    assert exact_ln_oracle(K4, "nk").value == pytest.approx(4.0 * math.log(3.0), abs=1e-12)
    assert exact_ln_oracle(C5, "chipi").value == pytest.approx(-5.0 * math.log(2.0), abs=1e-12)


def test_oracle_rejects_large_graphs():
    g = build_graph(65, [])
    with pytest.raises(ValueError, match="n <= 64"):
        exact_ln_oracle(g, "nk")


def test_oracle_log_zero_matches_engine():
    g = build_graph(4, [(0, 1), (1, 2)])
    assert exact_ln_oracle(g, "nk", LOGZERO).is_log_zero
    o = exact_ln_oracle(g, "nk", EXCLUDE)
    assert o.excluded == 1 and o.value == pytest.approx(math.log(2.0))


@pytest.mark.parametrize("g", list(mixed_graphs(321, 40)), ids=lambda g: f"n{g.n}m{g.m}")
def test_algebraic_identities(g):
    tol = 1e-12 * max(g.m, 1)
    nk = ln_multiplicative_index(g, "nk").value
    pi1 = ln_multiplicative_index(g, "pi1").value
    pi2 = ln_multiplicative_index(g, "pi2").value
    pi1s = ln_multiplicative_index(g, "pi1s").value
    rpi = ln_multiplicative_index(g, "rpi").value
    hpi = ln_multiplicative_index(g, "hpi").value
    chipi = ln_multiplicative_index(g, "chipi").value
    assert abs(pi1 - 2.0 * nk) <= tol
    assert abs(rpi + 0.5 * pi2) <= tol
    assert abs(chipi + 0.5 * pi1s) <= tol
    assert abs(hpi - (g.m * math.log(2.0) - pi1s)) <= tol


@pytest.mark.parametrize("g", list(mixed_graphs(99, 20)), ids=lambda g: f"n{g.n}m{g.m}")
def test_sign_structure(g):
    if g.m == 0:
        pytest.skip("no edges")
    for kind in ("hpi", "rpi", "chipi", "gapi"):
        assert ln_multiplicative_index(g, kind).value <= 1e-12


def test_regular_graph_nk_exact():
    # 3-regular on 8 vertices (cube graph): ln NK = n ln k.
    cube = build_graph(8, [(0, 1), (1, 2), (2, 3), (0, 3),
                           (4, 5), (5, 6), (6, 7), (4, 7),
                           (0, 4), (1, 5), (2, 6), (3, 7)])
    assert set(cube.degrees) == {3}
    got = ln_multiplicative_index(cube, "nk").value
    assert abs(got - 8.0 * math.log(3.0)) <= 1e-12 * 8


@pytest.mark.parametrize("g", list(mixed_graphs(777, 25)), ids=lambda g: f"n{g.n}m{g.m}")
def test_engine_agrees_with_oracle(g):
    for kind in MULTIPLICATIVE_NAMES:
        got = ln_multiplicative_index(g, kind)
        ref = exact_ln_oracle(g, kind)
        assert got.excluded == ref.excluded
        assert abs(got.value - ref.value) <= 1e-9


@pytest.mark.parametrize("g", list(mixed_graphs(555, 25)), ids=lambda g: f"n{g.n}m{g.m}")
def test_bulk_path_agrees_with_engine(g):
    deg = np.array(g.degrees, dtype=np.int64)
    iu = np.array([u for u, _ in g.edges], dtype=np.int64)
    ju = np.array([v for _, v in g.edges], dtype=np.int64)
    du, dv = deg[iu], deg[ju]
    for policy in (EXCLUDE, LOGZERO):
        bulk = ln_indices_from_arrays(deg, du, dv, MULTIPLICATIVE_NAMES, policy)
        for kind, got in zip(MULTIPLICATIVE_NAMES, bulk):
            ref = ln_multiplicative_index(g, kind, policy)
            assert got.excluded == ref.excluded
            assert got.is_log_zero == ref.is_log_zero
            if not ref.is_log_zero:
                assert got.value == ref.value


@st.composite
def replica_lists(draw, hubs=st.integers(12, 40)):
    """Degree arrays (deg, du, dv) of up to 10 small graphs, plus an edge-less
    graph and a star whose hub (degree from ``hubs``) has the largest degree
    of all, each inserted at a drawn position."""
    cases = draw(st.lists(edge_sets(), max_size=10))
    hub = draw(hubs)
    for case in ((draw(st.integers(1, 6)), []), (hub + 1, [(0, v) for v in range(1, hub + 1)])):
        cases.insert(draw(st.integers(0, len(cases))), case)
    graphs = [build_graph(*case) for case in cases]
    return [(g.degrees, *g.edge_degree_pairs().T) for g in graphs]


STACK_KINDS = (*MULTIPLICATIVE_NAMES, VertexFunction("succ", lambda d: d + 1.0),
               EdgeFunction("mean", lambda a, b: (a + b) / 2.0))


@settings(max_examples=100, deadline=None)
@given(replica_lists(), st.sets(st.integers(1, 11)), st.sampled_from(POLICIES))
def test_stacked_evaluation_equals_one_replica_at_a_time(replicas, cuts, policy):
    # Cut the replicas into consecutive stacks at any points; every replica must
    # get the bits and the excluded count it gets alone.
    bounds = [0, *sorted(c for c in cuts if c < len(replicas)), len(replicas)]
    rules = resolve(STACK_KINDS)
    stacks = [_ln_indices(rules, DegreeHistogram.stack(*flat_stack(replicas[lo:hi])), policy)
              for lo, hi in zip(bounds, bounds[1:])]
    values = np.concatenate([v for v, _ in stacks], axis=1)
    excluded = np.concatenate([e for _, e in stacks], axis=1)
    alone = [ln_indices_from_arrays(*arrays, STACK_KINDS, policy) for arrays in replicas]
    want_values = np.array([[res.value for res in results] for results in alone]).T
    want_excluded = [[res.excluded for res in results] for results in alone]
    assert values.view(np.int64).tolist() == want_values.view(np.int64).tolist()
    assert excluded.T.tolist() == want_excluded


def test_a_logzero_graph_never_runs_the_rule():
    # Under logzero a graph with an isolated vertex is a zero product at once,
    # alone or stacked: a rule that fails on its degrees is never called.
    no_three = VertexFunction("no_three", lambda d: 1.0 if d != 3 else 1 / 0)
    star = build_graph(5, [(0, 1), (0, 2), (0, 3)])  # hub of degree 3, vertex 4 isolated
    path = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(EvaluationError, match="no_three"):
        ln_multiplicative_index(star, no_three, EXCLUDE)
    assert ln_multiplicative_index(star, no_three, LOGZERO).is_log_zero
    arrays = [(g.degrees, *g.edge_degree_pairs().T) for g in (star, path)]
    values, excluded = _ln_indices(resolve([no_three]), DegreeHistogram.stack(*flat_stack(arrays)),
                                   LOGZERO)
    assert values.tolist() == [[-math.inf, 0.0]] and excluded.tolist() == [[0, 0]]


def test_a_histogram_key_beyond_int64_is_refused():
    # K = 2^32 + 1 makes the pair key K*K overflow int64 before any array is built.
    no_edges = np.array([], dtype=np.int64)
    with pytest.raises(ValueError, match="overflow an int64 key"):
        DegreeHistogram.of(np.array([2**32]), no_edges, no_edges)


def test_custom_functions():
    square = VertexFunction("deg_squared", lambda d: float(d * d))
    assert ln_multiplicative_index(P3, square).value == pytest.approx(
        ln_multiplicative_index(P3, "pi1").value, abs=1e-12)
    fe = EdgeFunction("sum_plus_one", lambda a, b: float(a + b + 1))
    assert ln_multiplicative_index(P3, fe).value == pytest.approx(2.0 * math.log(4.0))
    assert additive_index(P3, fe) == pytest.approx(8.0)


def test_custom_functions_run_once_per_distinct_argument():
    calls = []
    fe = EdgeFunction("logged", lambda a, b: calls.append((a, b)) or float(a + b))
    ln_multiplicative_index(P3, fe)
    assert calls == [(1, 2), (2, 1)]
    assert all(type(d) is int for pair in calls for d in pair)
    calls.clear()
    additive_index(C5, fe)
    assert calls == [(2, 2)]


def test_a_custom_function_is_called_only_at_the_graph_degrees():
    # No table is built for a custom rule: 1/(d - 1) never meets degree 1 on C5.
    pole = VertexFunction("pole", lambda d: 1.0 / (d - 1))
    edge_pole = EdgeFunction("edge_pole", lambda a, b: 1.0 / (a + b - 2))
    assert ln_multiplicative_index(C5, pole).value == 0.0
    h = DegreeHistogram.stack(C5.degrees, *C5.edge_degree_pairs().T, [5], [5])
    values, _ = _ln_indices(resolve([pole, edge_pole]), h, EXCLUDE)
    assert values.tolist() == [[0.0], [5 * math.log(0.5)]]


@pytest.mark.parametrize("name", MULTIPLICATIVE_NAMES)
def test_table_terms_equal_the_rule_bit_for_bit(name):
    # Every degree (pair) in 1.._TABLE_CAP-1 read from its arity's full-width
    # table: the rule's row must hold ln F of that argument alone.
    rule = MULTIPLICATIVE_INDICES[name]
    arity = 1 if rule.arity == "vertex" else 2
    args = tuple(np.indices((_TABLE_CAP - 1,) * arity).reshape(arity, -1) + 1)
    got = _table_terms(rule.arity, args)[_TABLE_ROWS[rule.arity].index(rule)]
    want = np.concatenate([rule.ln(*(a[i:i + 1] for a in args)) for i in range(args[0].size)])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_each_arity_builds_its_table_once():
    # A star with a hub of degree _TABLE_CAP builds no table; stars whose hub
    # climbs from 1 to _TABLE_CAP - 1 then build each arity's table once, at
    # full width, read-only.
    rules = resolve(MULTIPLICATIVE_NAMES)
    indices._ln_table.cache_clear()
    for hub in (_TABLE_CAP, *range(1, _TABLE_CAP)):
        star = build_graph(hub + 1, [(0, v) for v in range(1, hub + 1)])
        _ln_indices(rules, star.histogram, EXCLUDE)
        if hub == _TABLE_CAP:
            assert indices._ln_table.cache_info().misses == 0
    assert indices._ln_table.cache_info().misses == 2
    for arity, dims in (("vertex", 1), ("edge", 2)):
        table = indices._ln_table(arity)
        assert table.shape == (len(_TABLE_ROWS[arity]), _TABLE_CAP ** dims)
        assert not table.flags.writeable


# Products and sums, built-in and custom, of both arities.
MIXED_RULES = [
    *MULTIPLICATIVE_INDICES.values(), *_ADDITIVE.values(),
    *resolve([VertexFunction("succ", lambda d: d + 1.0),
              EdgeFunction("mean", lambda a, b: (a + b) / 2.0)]),
    *resolve([VertexFunction("succ_sum", lambda d: d + 1.0),
              EdgeFunction("mean_sum", lambda a, b: (a + b) / 2.0)], _ADDITIVE),
]


def _star(hub):
    """Degree arrays of a star with ``hub`` leaves and one isolated vertex."""
    g = build_graph(hub + 2, [(0, v) for v in range(1, hub + 1)])
    return g.degrees, *g.edge_degree_pairs().T


def _alone(rule, deg, du, dv, policy):
    """``(total, excluded)`` of ``rule`` on one graph: its count-weighted term
    (``ln``, or ``value`` for a sum) at each distinct argument alone, added in
    ascending order of the arguments."""
    excluded = 0
    if rule.arity == "edge":
        args = Counter(zip(du.tolist(), dv.tolist()))
    else:
        start = 0 if rule.defined_at_zero else 1
        excluded = int(np.sum(deg < start))
        if excluded and policy == LOGZERO:
            return (math.inf if rule.additive else -math.inf), 0
        args = Counter((d,) for d in deg.tolist() if d >= start)
    term = rule.value if rule.additive else rule.ln
    total = 0.0
    for arg, count in sorted(args.items()):
        total += count * float(term(*(np.array([d]) for d in arg))[0])
    return total, excluded


@settings(max_examples=150, deadline=None)
@given(replica_lists(hubs=st.integers(1, _TABLE_CAP + 2)),
       st.lists(st.sampled_from(MIXED_RULES), unique=True, min_size=1),
       st.sampled_from(POLICIES))
@example([_star(_TABLE_CAP - 1)], [MULTIPLICATIVE_INDICES["gapi"], MULTIPLICATIVE_INDICES["nk"]],
         EXCLUDE)
@example([_star(2), _star(_TABLE_CAP)], MIXED_RULES[::-1], LOGZERO)
def test_shared_tables_give_each_rule_its_terms_alone(replicas, rules, policy):
    # Any subset of the built-in products in any order, between sums and
    # custom rules, on stacks whose largest degree lies below, at or above
    # _TABLE_CAP: each rule's row of the shared gather must be its own.
    values, excluded = _ln_indices(rules, DegreeHistogram.stack(*flat_stack(replicas)), policy)
    for i, rule in enumerate(rules):
        for j, arrays in enumerate(replicas):
            want, skipped = _alone(rule, *arrays, policy)
            assert values[i, j].view(np.int64) == np.float64(want).view(np.int64), rule.name
            assert excluded[i, j] == skipped, rule.name


@given(st.lists(st.integers(0, 40), max_size=60),
       st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)), max_size=60))
def test_distinct_arguments_match_the_two_dimensional_unique(degrees, pairs):
    # The histogram must give np.unique(axis=0)'s order and counts: over all
    # degrees, over the nonzero ones, and over the pairs keyed as d_u*K + d_v.
    deg = np.array(degrees, dtype=np.int64)
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    h = DegreeHistogram.of(deg, arr[:, 0], arr[:, 1])
    cases = (
        (_ADDITIVE["m1"], deg[:, None], 0),
        (MULTIPLICATIVE_INDICES["nk"], deg[deg > 0, None], int(np.sum(deg == 0))),
        (MULTIPLICATIVE_INDICES["pi2"], arr, 0),
    )
    for rule, elements, excluded in cases:
        want, counts = np.unique(elements, axis=0, return_counts=True)
        args, got_counts, graph, got_excluded = _distinct_arguments(h, rule)
        got = list(zip(*(a.tolist() for a in args)))
        assert got == [tuple(x) for x in want.tolist()]
        assert all(type(d) is int for x in got for d in x)
        assert got_counts.tolist() == counts.tolist()
        assert graph.tolist() == [0] * len(got)
        assert got_excluded.tolist() == [excluded]


def test_custom_function_errors_name_the_offender():
    bad = EdgeFunction("negative_demo", lambda a, b: -1.0)
    with pytest.raises(EvaluationError, match=r"negative_demo.*\(1, 2\)"):
        ln_multiplicative_index(P3, bad)
    bad_v = VertexFunction("zero_demo", lambda d: 0.0)
    with pytest.raises(EvaluationError, match="zero_demo"):
        additive_index(P3, bad_v)
    # Exceptions raised inside a custom function name it and its degrees too.
    pole = VertexFunction("pole_demo", lambda d: 1.0 / (d - 1))
    with pytest.raises(EvaluationError, match=r"'pole_demo' failed at degree 1: .*division"):
        ln_multiplicative_index(P3, pole)
    domain = EdgeFunction("domain_demo", lambda a, b: math.log(a - 1))
    with pytest.raises(EvaluationError, match=r"'domain_demo' failed at degrees \(1, 2\)"):
        exact_ln_oracle(P3, domain)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ln_multiplicative_index(P3, "wiener")
    with pytest.raises(ValueError):
        additive_index(P3, "nk")
    with pytest.raises(TypeError, match="not an index kind: 3"):
        indices.resolve([3])


@pytest.mark.parametrize("g", list(mixed_graphs(31, 10)), ids=lambda g: f"n{g.n}m{g.m}")
def test_compensated_summation_agrees(g):
    # The reference's math.fsum over every vertex or edge term rounds once.
    for kind in ("pi2", "chipi"):
        rule = MULTIPLICATIVE_INDICES[kind]
        plain = ln_multiplicative_index(g, kind).value
        comp, _ = reference_evaluate(g, rule.ln, rule, EXCLUDE, compensated=True)
        assert abs(plain - comp) <= 1e-12 * max(g.m, 1)
    rule = _ADDITIVE["m2"]
    comp, _ = reference_evaluate(g, rule.value, rule, EXCLUDE, compensated=True)
    assert comp == pytest.approx(additive_index(g, "m2"), abs=1e-12 * max(g.m, 1))


@pytest.mark.parametrize("g", list(mixed_graphs(4242, 40)), ids=lambda g: f"n{g.n}m{g.m}")
def test_log_sum_within_stated_error_bound(g):
    # The bound in the indices module docstring, plus the oracle's own final
    # rounding to double (u * |S|).
    for kind in MULTIPLICATIVE_NAMES:
        ref = exact_ln_oracle(g, kind).value
        got = ln_multiplicative_index(g, kind).value
        assert abs(got - ref) <= stated_ln_bound(g, kind) + U * abs(ref)


@settings(max_examples=300)
@given(st.integers(1, 2**26), st.integers(1, 2**26))
@example(1, 2**26)
@example(2**26, 2**26)
def test_each_log_factor_within_its_stated_term(a, b):
    # The per-factor term of the module docstring's bound, 4u * (1 + |t|),
    # at degrees far beyond the n <= 64 graphs of the product oracle.
    with mp.workprec(_ORACLE_PREC):
        for rule in MULTIPLICATIVE_INDICES.values():
            degrees = (a,) if rule.arity == "vertex" else (a, b)
            t = float(rule.ln(*(np.array([d]) for d in degrees))[0])
            exact = mp.log(rule.mp(mp, *degrees))
            assert abs(t - exact) <= 4.0 * U * (1.0 + abs(t)), (rule.name, degrees)


@settings(max_examples=150)
@given(edge_sets())
def test_weighted_sums_equal_the_per_element_reference(case):
    # Both sums are within the module's stated bound of the exact one, so
    # within twice that bound of each other.
    g = build_graph(*case)
    deg, (du, dv) = g.degrees, g.edge_degree_pairs().T
    kinds = [(name, MULTIPLICATIVE_INDICES[name], "ln") for name in MULTIPLICATIVE_NAMES]
    kinds += [(name, _ADDITIVE[name], "value") for name in ADDITIVE_NAMES]
    for name, rule, field in kinds:
        fn = getattr(rule, field)
        index = ln_multiplicative_index if field == "ln" else additive_index
        if rule.arity == "edge":
            elements = (du, dv)
        else:
            elements = (deg if rule.defined_at_zero else deg[deg > 0],)
        abs_terms = np.abs(fn(*elements))
        k, total = abs_terms.size, float(abs_terms.sum())
        per_term = 4.0 * U * (k + total)
        for policy in POLICIES:
            ref = reference_evaluate(g, fn, rule, policy)
            got = index(g, name, policy)
            if field == "ln":
                assert got.is_log_zero == (ref is None)
                if ref is None:
                    continue
                assert got.excluded == ref[1]
                got = got.value
            elif ref is None:
                assert got == math.inf
                continue
            bound = per_term + U * abs(ref[0]) + gamma(max(k - 1, 0)) * total
            assert abs(got - ref[0]) <= 2.0 * bound, (name, policy)


@settings(max_examples=150, deadline=None)
@given(edge_sets(), st.data(), st.sampled_from(POLICIES))
def test_built_ins_do_not_depend_on_the_vertex_labels(case, data, policy):
    # Relabelling keeps the degree multiset, so a vertex rule keeps its bits.
    # It may turn an edge's (d_u, d_v) into (d_v, d_u), which a built-in edge
    # rule's F ignores, but the counts of its arguments may regroup: both
    # values lie within the module's stated bound of the exact one, so within
    # twice that bound of each other.
    n, edges = case
    label = data.draw(st.permutations(range(n)))
    g = build_graph(n, edges)
    relabelled = build_graph(n, [(label[u], label[v]) for u, v in edges])
    kinds = [(name, MULTIPLICATIVE_INDICES[name], "ln") for name in MULTIPLICATIVE_NAMES]
    kinds += [(name, _ADDITIVE[name], "value") for name in ADDITIVE_NAMES]
    for name, rule, field in kinds:
        index = ln_multiplicative_index if field == "ln" else additive_index
        a, b = index(g, name, policy), index(relabelled, name, policy)
        if field == "ln":
            assert a.excluded == b.excluded, name
            a, b = a.value, b.value
        if rule.arity == "vertex":
            assert np.float64(a).view(np.int64) == np.float64(b).view(np.int64), name
            continue
        abs_terms = np.abs(getattr(rule, field)(*g.edge_degree_pairs().T))
        k, total = abs_terms.size, float(abs_terms.sum())
        assert abs(a - b) <= 2.0 * (gamma(max(k - 1, 0)) * total + 4.0 * U * (k + total)), name


def test_an_asymmetric_edge_function_reads_vertex_order():
    # Each edge u < v gives F(d_u, d_v): a/b is 1/2 then 2 along 0-1-2, and 2
    # twice on the same path with its centre labelled 0.
    ratio = EdgeFunction("ratio", lambda a, b: a / b)
    assert ln_multiplicative_index(P3, ratio).value == 0.0
    centre_first = build_graph(3, [(0, 1), (0, 2)])
    assert ln_multiplicative_index(centre_first, ratio).value == 2 * math.log(2.0)


@settings(max_examples=100, deadline=None)
@given(edge_sets(), st.sampled_from(POLICIES))
def test_one_call_over_every_built_in_gives_each_index_alone(case, policy):
    # Sums and ln-products in one evaluator call share their distinct
    # arguments; each must still get the bits and excluded count it gets alone.
    g = build_graph(*case)
    values, excluded = _ln_indices(resolve(BUILT_IN_INDICES, BUILT_IN_INDICES), g.histogram,
                                   policy)
    for name, value, skipped in zip(BUILT_IN_INDICES, values[:, 0], excluded[:, 0].tolist()):
        if name in ADDITIVE_NAMES:
            want = additive_index(g, name, policy)
        else:
            res = ln_multiplicative_index(g, name, policy)
            want = res.value
            assert skipped == res.excluded, (name, policy)
        assert value.view(np.int64) == np.float64(want).view(np.int64), (name, policy)


def test_all_kinds_of_a_graph_share_one_histogram(monkeypatch):
    built = count_histograms(monkeypatch)
    g = build_graph(5, [(0, 1), (1, 2), (1, 3)])
    for name in MULTIPLICATIVE_NAMES:
        ln_multiplicative_index(g, name, LOGZERO)
    for name in ADDITIVE_NAMES:
        additive_index(g, name)
    assert len(built) == 1
    du, dv = g.edge_degree_pairs().T
    ln_indices_from_arrays(g.degrees, du, dv, MULTIPLICATIVE_NAMES)
    assert len(built) == 2
