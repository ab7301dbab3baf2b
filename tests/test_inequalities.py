import collections
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import finf, fnan, fninf, from_float, from_man_exp, fzero

from helpers import (
    ReferencePrepared,
    UnmemoizedPrepared,
    count_histograms,
    edge_sets,
    mixed_graphs,
    reference_holds,
)
from mtindex import inequalities
from mtindex.graph import build_graph
from mtindex.indices import (
    MULTIPLICATIVE_INDICES,
    MULTIPLICATIVE_NAMES,
    EdgeFunction,
    VertexFunction,
    _Custom,
    _Rule,
    resolve,
)
from mtindex.inequalities import (
    INEQUALITIES,
    corpus_model_points,
    petrovic_counterexample,
    run_all_checks,
    verify_corpus,
    write_report_csv,
)
from mtindex.models import SeedDerivation, generate

P3 = build_graph(3, [(0, 1), (1, 2)])
K4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
DEGREE = VertexFunction("degree", float)


def check(inequality, g, f):
    """The entry of ``run_all_checks`` that ``INEQUALITIES`` names ``inequality``."""
    return run_all_checks(g, f)[INEQUALITIES.index(inequality)]


def test_jensen_regular_graph_equality():
    c = check("jensen", K4, DEGREE)
    assert c.lhs == pytest.approx(3.0, abs=1e-9)
    assert c.rhs == pytest.approx(3.0, abs=1e-9)
    assert c.holds and c.hypothesis_ok
    assert abs(c.slack) <= 1e-9 * 3.0


def test_jensen_p3_hand_values():
    c = check("jensen", P3, DEGREE)
    assert c.lhs == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)
    assert c.rhs == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert c.holds


def test_jensen_converse_degenerate_window():
    # ln F is ln 3 at every vertex: the window is [ln 3, ln 3].
    c = check("jensen_converse", K4, DEGREE)
    assert c.lhs == pytest.approx(3.0, abs=1e-9)
    assert c.rhs == pytest.approx(3.0, abs=1e-9)
    assert c.holds and c.hypothesis_ok


def test_jensen_converse_p3_hand_values():
    # Degrees 1, 2, 1: the window is [0, ln 2].
    c = check("jensen_converse", P3, DEGREE)
    assert c.lhs == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert c.rhs == pytest.approx(3.0 - 2.0 ** (2.0 / 3.0), abs=1e-12)
    assert c.holds and c.hypothesis_ok


def test_kober_k4_equality():
    lower, upper = run_all_checks(K4, DEGREE)[2:4]
    for c in (lower, upper):
        assert c.lhs == pytest.approx(144.0, abs=1e-7)
        assert c.rhs == pytest.approx(144.0, abs=1e-7)
        assert c.holds
        assert abs(c.slack) <= 1e-9 * 144.0


def test_kober_p3_hand_values():
    lower, upper = run_all_checks(P3, DEGREE)[2:4]
    cube = 2.0 ** (2.0 / 3.0)
    assert lower.lhs == pytest.approx(6.0 + 6.0 * cube, abs=1e-12)
    assert lower.rhs == pytest.approx(16.0, abs=1e-12)
    assert upper.lhs == pytest.approx(16.0, abs=1e-12)
    assert upper.rhs == pytest.approx(12.0 + 3.0 * cube, abs=1e-12)
    assert lower.holds and upper.holds


def test_petrovic_hand_values():
    big = check("petrovic_sum", P3, EdgeFunction("product", lambda a, b: float(a * b)))
    assert big.lhs == pytest.approx(4.0) and big.rhs == pytest.approx(5.0)
    assert big.holds and big.hypothesis_ok
    small = check("petrovic_sum", P3, EdgeFunction("harmonic", lambda a, b: 2.0 / (a + b)))
    assert small.lhs == pytest.approx(4.0 / 3.0)
    assert small.rhs == pytest.approx(4.0 / 9.0 + 1.0)
    assert small.holds and small.hypothesis_ok


def test_petrovic_counterexample_detected():
    g, f = petrovic_counterexample()
    c = check("petrovic_sum", g, f)
    assert c.lhs == pytest.approx(math.exp(3.0) + 2.0 * math.exp(-3.0), rel=1e-9)
    assert c.rhs == pytest.approx(math.exp(-3.0) + 2.0, rel=1e-9)
    assert not c.holds
    assert not c.hypothesis_ok


def test_exp_linear():
    c = check("exp_linear", P3, VertexFunction("nk_like", float))
    assert c.lhs == pytest.approx(math.log(2.0) + 1.0, abs=1e-12)
    assert c.rhs == pytest.approx(2.0, abs=1e-12)
    assert c.holds
    empty = check("exp_linear", build_graph(4, []), "pi2")
    assert empty.lhs == pytest.approx(1.0) and empty.rhs == pytest.approx(1.0)
    assert empty.holds


def test_vacuous_checks_on_empty_graphs():
    g = build_graph(3, [])
    checks = run_all_checks(g, "pi2")
    for c in checks:
        assert c.holds and c.hypothesis_ok
    for c in checks[:4]:        # no realized values: lhs = rhs = 0
        assert (c.lhs, c.rhs, c.slack) == (0.0, 0.0, 0.0)


def test_overflowing_products_still_compare():
    # K32 with the product rule: X_prod ~ e^3407 overflows doubles but the
    # comparison must still be decided (in extended precision).
    k32 = build_graph(32, [(i, j) for i in range(32) for j in range(i + 1, 32)])
    c = check("petrovic_sum", k32, "pi2")
    assert c.holds and c.hypothesis_ok
    assert math.isinf(c.rhs)  # float-rounded report saturates, verdict does not


@pytest.mark.parametrize("g", list(mixed_graphs(2024, 15)), ids=lambda g: f"n{g.n}m{g.m}")
def test_mini_corpus_all_built_ins_hold(g):
    # The sum bound carries the sign-coherence hypothesis and is only
    # asserted when it applies (idpi factors straddle 1 on many graphs);
    # the other five bounds are unconditional here.
    for name in ("nk", "pi1", "pi2", "pi1s", "rpi", "hpi", "chipi", "idpi", "gapi"):
        for c in run_all_checks(g, name):
            if c.inequality != "petrovic_sum":
                assert c.hypothesis_ok, (name, c)
            if c.hypothesis_ok:
                assert c.holds, (name, c)
                assert c.slack >= -1e-9 * max(1.0, abs(c.lhs), abs(c.rhs))


def test_verify_corpus_report():
    rows = verify_corpus(master_seed=7, sizes=(8,), graphs_per_size=10,
                         functions=["nk", "hpi"])
    assert all(r.check.holds for r in rows if r.check.hypothesis_ok)
    flagged = [r for r in rows if not r.check.hypothesis_ok]
    assert len(flagged) == 1 and flagged[0].model == "counterexample"
    buf = io.StringIO()
    write_report_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "inequality,model,n,param,function,lhs,rhs,slack,holds,hypothesis_ok"
    assert len(lines) == len(rows) + 1
    assert any(",False,False" in ln for ln in lines)


REFERENCE_FUNCTIONS = list(MULTIPLICATIVE_NAMES) + [
    VertexFunction("shifted", lambda d: d + 1.0),
    EdgeFunction("rootsum", lambda a, b: math.sqrt(a + b)),
]


@pytest.mark.parametrize("g", list(mixed_graphs(4711, 30)), ids=lambda g: f"n{g.n}m{g.m}")
def test_verdicts_match_the_per_element_reference(monkeypatch, g):
    # The verifier evaluates exact rules once per distinct degree; the
    # reference evaluates the float factors once per vertex or edge.
    for f in REFERENCE_FUNCTIONS:
        got = run_all_checks(g, f)
        with monkeypatch.context() as patch:
            patch.setattr(inequalities, "_Prepared", ReferencePrepared)
            want = run_all_checks(g, f)
        for c, r in zip(got, want, strict=True):
            assert (c.inequality, c.function) == (r.inequality, r.function)
            assert (c.holds, c.hypothesis_ok) == (r.holds, r.hypothesis_ok), (c, r)
            for x, y in ((c.lhs, r.lhs), (c.rhs, r.rhs)):
                assert x == y or abs(x - y) <= 1e-12 * max(abs(x), abs(y)), (c, r)


@settings(max_examples=100, deadline=None)
@given(edge_sets())
def test_verdicts_match_the_per_element_reference_on_any_graph(case):
    g = build_graph(*case)
    for f in REFERENCE_FUNCTIONS:
        got = run_all_checks(g, f)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inequalities, "_Prepared", ReferencePrepared)
            want = run_all_checks(g, f)
        for c, r in zip(got, want, strict=True):
            assert (c.inequality, c.function) == (r.inequality, r.function)
            assert (c.holds, c.hypothesis_ok) == (r.holds, r.hypothesis_ok), (c, r)
            for x, y in ((c.lhs, r.lhs), (c.rhs, r.rhs)):
                assert x == y or abs(x - y) <= 1e-12 * max(abs(x), abs(y)), (c, r)


PREPARATION_CASES = [
    pytest.param(K4, DEGREE, id="k4-window-holds"),
    pytest.param(build_graph(3, []), "pi2", id="empty"),
    pytest.param(*petrovic_counterexample(), id="counterexample"),
]


@pytest.mark.parametrize("g, f", PREPARATION_CASES)
def test_run_all_checks_prepares_once(monkeypatch, g, f):
    built = []

    class CountingPrepared(inequalities._Prepared):
        def __init__(self, g, rule, memo):
            built.append(rule)
            super().__init__(g, rule, memo)

    monkeypatch.setattr(inequalities, "_Prepared", CountingPrepared)
    checks = run_all_checks(g, f)
    assert len(built) == 1
    assert [c.inequality for c in checks] == list(INEQUALITIES)
    assert checks[1].hypothesis_ok


def test_verify_refuses_a_cell_no_replica_can_sample_before_any_sampling(monkeypatch):
    def no_sample(*args, **kwargs):
        raise AssertionError("sampled a corpus before refusing one of its cells")

    monkeypatch.setattr(inequalities, "generate", no_sample)
    with pytest.raises(ValueError) as refused:
        verify_corpus(1, sizes=(8, 2**24 + 2), graphs_per_size=1)
    assert str(refused.value) == ("er n=16777218 p=0.1: 140737513521153 candidate pairs exceed"
                                  " the 2^47 of one sample")


def _corpus_graphs(master_seed, sizes, graphs_per_size):
    for point_id, (spec, reps) in enumerate(corpus_model_points(sizes, graphs_per_size)):
        for replica in range(reps):
            yield spec, generate(spec, SeedDerivation(master_seed, point_id, replica))


@pytest.mark.parametrize("graphs", [1, 5, 10, 15, 20, 23])
def test_corpus_splits_exactly_the_requested_graphs(graphs):
    cells = corpus_model_points((8, 16), graphs)
    assert len(cells) == 3 * 2 * 10                 # point ids do not depend on the count
    for block in range(0, len(cells), 10):          # one (model, size) per 10 cells
        reps = [r for _, r in cells[block:block + 10]]
        assert sum(reps) == graphs and max(reps) - min(reps) <= 1
        assert reps == sorted(reps, reverse=True)


def test_custom_functions_run_once_per_distinct_argument_across_the_corpus():
    calls = collections.Counter()

    def logged(*degrees):
        calls[degrees] += 1
        return float(sum(degrees)) + 0.5

    functions = [VertexFunction("v", logged), EdgeFunction("e", logged)]
    verify_corpus(5, sizes=(8, 16), graphs_per_size=10, functions=functions)
    seen = set()
    for _, g in _corpus_graphs(5, (8, 16), 10):
        seen.update((d,) for d in g.degrees.tolist() if d > 0)
        seen.update(map(tuple, g.edge_degree_pairs().tolist()))
    # Vertex arguments are 1-tuples and edge arguments 2-tuples, so they never collide.
    assert calls == collections.Counter(seen)


MEMO_FUNCTIONS = list(MULTIPLICATIVE_NAMES) + [
    VertexFunction("shifted", lambda d: d + 1.0),
    VertexFunction("third", lambda d: d / 3.0),     # ln F changes sign at d = 3
    EdgeFunction("rootsum", lambda a, b: math.sqrt(a + b)),
]


def test_corpus_rows_equal_per_graph_checks_without_the_memo():
    rows = verify_corpus(9, sizes=(8, 16), graphs_per_size=10, functions=MEMO_FUNCTIONS)
    want = [
        inequalities.CorpusCheck(spec.model, spec.n, spec.param_value, check)
        for spec, g in _corpus_graphs(9, (8, 16), 10)
        for f in MEMO_FUNCTIONS
        for check in run_all_checks(g, f)
    ]
    assert rows[:-1] == want
    assert rows[-1].model == "counterexample"


REGULAR = [build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
           for n in range(3, 9)] + [build_graph(n, [(i, (i + 1) % n) for i in range(n)])
                                    for n in range(3, 9)]


PREPARED = ("name", "k", "sum", "sum_sq", "log_sum", "a", "b")


def test_memoized_preparations_equal_the_unmemoized_reference():
    # The report rounds to floats; this compares every prepared quantity exactly.
    # On regular graphs one argument carries all k, so a changed c*v*v shows.
    graphs = REGULAR + [g for _, g in _corpus_graphs(13, (8, 16, 32), 10)]
    rules = resolve(MEMO_FUNCTIONS)
    memos = [{} for _ in rules]
    for g in graphs:
        for f, rule, memo in zip(MEMO_FUNCTIONS, rules, memos):
            got, want = inequalities._Prepared(g, rule, memo), UnmemoizedPrepared(g, f)
            for attr in PREPARED:
                assert getattr(got, attr) == getattr(want, attr), (attr, f, g)


# ln F at any two degrees below 2^20 rounds to one float64 (ln 2^1000 ~ 693 has
# an ulp of 2^-43) but differs at 192 bits, so the envelope is decided on
# the exact values of these float ties: the greatest ln F of TIED_UP is at the
# largest degree, and the least of TIED_DOWN at the largest degree.
TIED_UP = VertexFunction("tied_up", lambda d: 2.0 ** 1000 * (1.0 + d * 2.0 ** -52))
TIED_DOWN = VertexFunction("tied_down", lambda d: 2.0 ** 1000 * (1.0 - d * 2.0 ** -53))


def test_float_ties_of_ln_f_differ_at_the_working_precision():
    logs = [math.log(TIED_UP.fn(d)) for d in range(1, 12)]
    assert len(set(logs)) == 1
    p = inequalities._Prepared(build_graph(3, [(0, 1), (1, 2)]), resolve([TIED_UP])[0], {})
    assert p.a != p.b


@settings(max_examples=100, deadline=None)
@given(edge_sets())
def test_preparations_equal_the_unmemoized_reference_on_any_graph(case):
    g = build_graph(*case)
    functions = MEMO_FUNCTIONS + [TIED_UP, TIED_DOWN]
    for f, rule in zip(functions, resolve(functions)):
        got, want = inequalities._Prepared(g, rule, {}), UnmemoizedPrepared(g, f)
        for attr in PREPARED:
            assert getattr(got, attr) == getattr(want, attr), (attr, f, case)


def _histogram_key(g, rule):
    """What a rule's checks read of ``g``: its degree counts, isolated
    vertices included, or its counts of ordered endpoint-degree pairs."""
    if rule.arity == "vertex":
        return tuple(np.bincount(g.degrees).tolist())
    return tuple(sorted(collections.Counter(map(tuple, g.edge_degree_pairs().tolist())).items()))


def test_verify_checks_each_function_and_histogram_once(monkeypatch):
    # The ER p = 1.0 and RG r = sqrt(2) cells (and at n = 8 some RG cells
    # below) give complete graphs, whose histograms repeat across the models.
    checked = []

    def counting(p, exps):
        checked.append(p.name)
        return real(p, exps)

    real = inequalities._checks
    monkeypatch.setattr(inequalities, "_checks", counting)
    sizes = (8, 16)
    rows = verify_corpus(9, sizes=sizes, graphs_per_size=10, functions=MEMO_FUNCTIONS)
    rules = resolve(MEMO_FUNCTIONS)
    graphs = [(spec, g) for spec, g in _corpus_graphs(9, sizes, 10)]
    complete = {(spec.model, g.n) for spec, g in graphs if g.m == g.n * (g.n - 1) // 2}
    assert complete == {(model, n) for model in ("er", "rg") for n in sizes}
    keys = {(i, _histogram_key(g, rule)) for _, g in graphs for i, rule in enumerate(rules)}
    # The counterexample's run_all_checks is one more call.
    assert len(checked) == len(keys) + 1 < len(graphs) * len(rules) + 1
    assert collections.Counter(checked[:-1]) == collections.Counter(
        rules[i].name for i, _ in keys)
    assert len(rows) == len(graphs) * len(rules) * len(INEQUALITIES) + 1


def test_a_verify_graph_builds_its_histogram_once_for_all_functions(monkeypatch):
    built = count_histograms(monkeypatch)
    rows = verify_corpus(9, sizes=(8, 16), graphs_per_size=10, functions=MEMO_FUNCTIONS)
    graphs = sum(reps for _, reps in corpus_model_points((8, 16), 10))
    assert len(rows) == graphs * len(MEMO_FUNCTIONS) * len(INEQUALITIES) + 1
    assert len(built) == graphs + 1     # the counterexample is one more graph


BUILT_IN_EDGE_RULES = [r for r in MULTIPLICATIVE_INDICES.values() if r.arity == "edge"]


def _mirrored_bits(rule, a, b):
    """Raw F and ln F of ``rule`` at (a, b) and at (b, a), at the working precision."""
    with mp.workprec(inequalities._PREC):
        f_ab, f_ba = rule.mp(mp, a, b), rule.mp(mp, b, a)
        return (f_ab._mpf_, mp.log(f_ab)._mpf_), (f_ba._mpf_, mp.log(f_ba)._mpf_)


def test_built_in_edge_rules_are_bitwise_symmetric_at_every_small_degree_pair():
    # The memo stores a built-in edge rule's F at (a, b) for (b, a) too.
    # mpmath's + * / and sqrt round correctly and + and * commute, so F(a, b)
    # and F(b, a) have the same bits.
    for rule in BUILT_IN_EDGE_RULES:
        for a in range(1, 65):
            for b in range(a + 1, 65):
                ab, ba = _mirrored_bits(rule, a, b)
                assert ab == ba, (rule.name, a, b)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**40), st.integers(1, 2**40))
def test_built_in_edge_rules_are_bitwise_symmetric_at_any_degree_pair(a, b):
    for rule in BUILT_IN_EDGE_RULES:
        ab, ba = _mirrored_bits(rule, a, b)
        assert ab == ba, (rule.name, a, b)


ROOTSUM = EdgeFunction("rootsum", lambda a, b: math.sqrt(a + b))
SKEW = EdgeFunction("skew", lambda a, b: a + 2.0 * b)


def test_built_in_edge_rules_evaluate_f_once_per_unordered_pair(monkeypatch):
    # The bench's verify-corpus shape at seed 1 has 508 distinct ordered
    # degree pairs and 304 unordered ones.  A custom edge function need not
    # be symmetric, so it keeps one evaluation per ordered pair.
    calls = collections.Counter()
    for cls in (_Rule, _Custom):
        def counted(self, ctx, *degrees, real=cls.mp):
            calls[self.name] += 1
            return real(self, ctx, *degrees)
        monkeypatch.setattr(cls, "mp", counted)
    verify_corpus(1, sizes=(8, 16, 32), graphs_per_size=10,
                  functions=[*MULTIPLICATIVE_NAMES, ROOTSUM])
    for rule in BUILT_IN_EDGE_RULES:
        assert calls[rule.name] == 304, rule.name
    assert calls["rootsum"] == 508


def test_an_asymmetric_custom_edge_function_matches_the_per_element_reference(monkeypatch):
    # skew(a, b) != skew(b, a): mirroring its memo would read F of the other order.
    got = verify_corpus(1, sizes=(8, 16), graphs_per_size=10, functions=[SKEW])
    monkeypatch.setattr(inequalities, "_Prepared", ReferencePrepared)
    want = verify_corpus(1, sizes=(8, 16), graphs_per_size=10, functions=[SKEW])
    assert got == want


def _raw_values():
    """Raw mpf values: finite ones from tiny to far beyond float range, and
    the special values, which no verifier side takes but the rule decides."""
    finite = st.builds(lambda sign, man, exp: from_man_exp(sign * man, exp),
                       st.sampled_from([1, -1]), st.integers(1, 2**192), st.integers(-400, 5000))
    floats = st.floats(allow_nan=False, allow_infinity=False).map(from_float)
    return st.one_of(finite, floats, st.sampled_from([fzero, from_float(-0.0), finf, fninf, fnan]))


@st.composite
def _sides(draw):
    """(lhs, rhs): rhs is lhs itself, any value, or lhs less t times the
    tolerance, with t just below, at or just above 1 (a negative slack just
    inside, at or just outside the tolerance) or t < 0 (a positive slack)."""
    lhs = draw(_raw_values())
    how = draw(st.sampled_from(["equal", "near", "any"]))
    if how == "equal":
        return lhs, lhs
    if how == "any":
        return lhs, draw(_raw_values())
    t = draw(st.sampled_from([1.0 - 2.0**-30, 1.0, 1.0 + 2.0**-30, -0.5]))
    with mp.workprec(inequalities._PREC):
        x = mp.make_mpf(lhs)
        return lhs, (x - t * inequalities.RELATIVE_TOL * max(1, abs(x)))._mpf_


def test_mpmath_has_no_negative_zero():
    # A slack of -0.0 reaches the verifier only as fzero.
    assert from_float(-0.0) == fzero


@settings(max_examples=500, deadline=None)
@given(_sides())
def test_sign_first_verdicts_equal_the_full_rule(sides):
    lhs, rhs = sides
    assert inequalities._finish("jensen", "f", lhs, rhs).holds == reference_holds(lhs, rhs)
