"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Ensembles run at the desk-scale replica budget B=1e5 (replicas = ceil(B/n))
with a fixed master seed; run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import math

import numpy as np
import pytest

from helpers import exact_ln_oracle, mixed_graphs, model_graphs
from mtindex.cli import main as cli_main
from mtindex.dense import scaling_curve
from mtindex.ensemble import EnsembleSpec, collapse_check, split_curves, sweep
from mtindex.graph import build_graph
from mtindex.indices import (
    EXCLUDE,
    LOGZERO,
    MULTIPLICATIVE_NAMES,
    ln_multiplicative_index,
)
from mtindex.inequalities import (
    petrovic_counterexample,
    run_all_checks,
    verify_corpus,
)
from mtindex.models import (
    MAX_RADIUS,
    bipartite,
    br_probability_for_mean_degree,
    erdos_renyi,
    g_of_r,
    probability_for_mean_degree,
    radius_for_mean_degree,
    random_geometric,
)

SEED = 20260810
BUDGET = 1e5
SCALING_INDICES = ("nk", "pi1", "pi2", "pi1s", "rpi", "hpi", "chipi", "idpi")
COLLAPSE_K_GRID = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 20.0)
CROSS_K_GRID = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 15.0)


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _er_point(n, k):
    return erdos_renyi(n, probability_for_mean_degree(n, k))

def _rg_point(n, k):
    return random_geometric(n, radius_for_mean_degree(n, k))

def _br_point(n_half, k):
    return bipartite(n_half, n_half, br_probability_for_mean_degree(n_half, n_half, k))


@pytest.fixture(scope="module")
def dense_sweeps():
    """Criterion 1: ER and RG at n=500, <k> in {10, 15, 20}, all eight indices."""
    out = {}
    for model, mk in (("er", _er_point), ("rg", _rg_point)):
        grid = tuple(mk(500, k) for k in (10.0, 15.0, 20.0))
        out[model] = sweep(EnsembleSpec(grid=grid, indices=SCALING_INDICES,
                                        master_seed=SEED, budget=BUDGET))
    return out


@pytest.fixture(scope="module")
def size_sweeps():
    """Criteria 2/11: ER and RG at n in {125, 250} over the shared <k> grid."""
    indices = ("nk", "pi2", "chipi", "idpi", "gapi")
    out = {}
    for model, mk in (("er", _er_point), ("rg", _rg_point)):
        grid = tuple(mk(n, k) for n in (125, 250) for k in COLLAPSE_K_GRID)
        out[model] = sweep(EnsembleSpec(grid=grid, indices=indices,
                                        master_seed=SEED, budget=BUDGET))
    return out


@pytest.fixture(scope="module")
def cross_model_tables():
    """Criterion 3 curves: ER, RG and BR on the shared <k> grid in [2, 15]."""
    tables = []
    for model, mk in (("er", _er_point), ("rg", _rg_point)):
        grid = tuple(mk(250, k) for k in CROSS_K_GRID)
        rows = sweep(EnsembleSpec(grid=grid, indices=("nk", "chipi", "idpi"),
                                  master_seed=SEED, budget=BUDGET))
        tables.append((f"{model} n=250", rows))
    br_grid = tuple(_br_point(250, k) for k in CROSS_K_GRID)
    br_rows = sweep(EnsembleSpec(grid=br_grid, indices=("nk", "chipi", "idpi"),
                                 master_seed=SEED, budget=BUDGET))
    tables.append(("br n1=n2=250", br_rows))
    return tables


@pytest.fixture(scope="module")
def shape_sweep():
    """Criterion 6: ER n=250 across small and moderate p.

    The grid reaches below <k>=0.5 because the inverse-degree product peaks
    there; coarser grids see only its decreasing branch.
    """
    ks = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 7.0, 10.0, 14.0, 18.0)
    grid = tuple(_er_point(250, k) for k in ks)
    return sweep(EnsembleSpec(grid=grid, indices=("nk", "pi2", "hpi", "idpi"),
                              master_seed=SEED, budget=BUDGET))


def test_c01_dense_limit_agreement(dense_sweeps):
    worst = 0.0
    worst_at = ""
    for model, rows in dense_sweeps.items():
        for row in rows:
            pred = scaling_curve(row.index, row.mean_k_theory)
            dev = abs(row.mean_ln_over_n - pred)
            rel = dev if abs(pred) < 1.0 else dev / abs(pred)
            if rel > worst:
                worst, worst_at = rel, f"{model} {row.index} k={row.mean_k_theory:.3g}"
    report(1, "dense-limit agreement at <k> in {10,15,20}, n=500",
           worst <= 0.05, f"worst relative deviation {worst:.4f} at {worst_at}")


def test_c02_size_collapse(size_sweeps):
    failures = []
    details = []
    for model in ("er", "rg"):
        tables = split_curves(size_sweeps[model])
        for idx in ("nk", "pi2", "chipi", "idpi"):
            rep = collapse_check(tables, idx, 0.05)
            pair = rep.pairs[0]
            details.append(f"{model}/{idx}: dev {pair.max_abs_deviation:.4f} "
                           f"tol {pair.tolerance:.4f}")
            if not rep.passed:
                failures.append(f"{model}/{idx}")
    report(2, "size collapse n=125 vs n=250 over <k> in [2,20]",
           not failures, "; ".join(details if not failures else failures))


def test_c03_cross_model_collapse(cross_model_tables):
    failures = []
    details = []
    for idx in ("nk", "chipi", "idpi"):
        rep = collapse_check(cross_model_tables, idx, 0.08)
        worst = max(rep.pairs, key=lambda p: p.max_abs_deviation)
        details.append(f"{idx}: dev {worst.max_abs_deviation:.4f} "
                       f"tol {worst.tolerance:.4f}")
        if not rep.passed:
            failures.append(idx)
    report(3, "cross-model collapse ER/RG/BR over <k> in [2,15]",
           not failures, "; ".join(details if not failures else failures))


def test_c04_br_reduction_identity():
    from mtindex.dense import predict_br_per_vertex
    worst = 0.0
    for idx in ("pi2", "pi1s", "rpi", "hpi", "chipi", "idpi"):
        for d in range(1, 51):
            worst = max(worst, abs(predict_br_per_vertex(idx, float(d), float(d))
                                   - scaling_curve(idx, float(d))))
    report(4, "BR reduction identity on <d> in {1..50}",
           worst <= 1e-12, f"worst |diff| {worst:.2e}")


def test_c05_er_rg_formula_identity(capsys):
    # `predict` serves ER and RG from the one scaling curve.
    worst = 0.0
    for idx in SCALING_INDICES:
        for d in range(1, 51):
            printed = []
            for model in ("er", "rg"):
                assert cli_main(["predict", "--model", model, "--index", idx, "--k", str(d)]) == 0
                printed.append(float(capsys.readouterr().out))
            worst = max(worst, abs(printed[0] - printed[1]),
                        abs(printed[0] - scaling_curve(idx, float(d))))
    report(5, "ER/RG formula identity on <d> in {1..50}",
           worst <= 1e-12, f"worst |diff| {worst:.2e}")


def _monotone(rows, index, direction):
    pts = sorted((r for r in rows if r.index == index), key=lambda r: r.spec.p)
    bad = []
    for a, b in zip(pts, pts[1:]):
        guard = 4.0 * math.hypot(a.sem, b.sem)
        step = (b.mean_ln - a.mean_ln) * direction
        if step < -guard:
            bad.append(f"p={a.spec.p:.4g}->{b.spec.p:.4g} step {step:.4g} guard {guard:.4g}")
    return bad


def test_c06_qualitative_shape(shape_sweep):
    problems = []
    for idx in ("nk", "pi2"):
        problems += [f"{idx} {msg}" for msg in _monotone(shape_sweep, idx, +1.0)]
    problems += [f"hpi {msg}" for msg in _monotone(shape_sweep, "hpi", -1.0)]
    id_pts = sorted((r for r in shape_sweep if r.index == "idpi"), key=lambda r: r.spec.p)
    slopes = [b.mean_ln - a.mean_ln for a, b in zip(id_pts, id_pts[1:])]
    rising = [i for i, s in enumerate(slopes) if s > 0]
    falling = [i for i, s in enumerate(slopes) if s < 0]
    nonmonotone = bool(rising and falling and min(rising) < max(falling))
    if not nonmonotone:
        problems.append(f"idpi slopes show no interior sign change: {slopes}")
    report(6, "qualitative shape at n=250 (monotone NK/Pi2, anti-monotone HPi, "
              "nonmonotone IDPi)", not problems, "; ".join(problems))


def test_c07_oracle_equivalence():
    worst = 0.0
    count = 0
    for model in ("er", "rg", "br"):
        for g in model_graphs(SEED + 7, model, 500):
            count += 1
            for kind in MULTIPLICATIVE_NAMES:
                fast = ln_multiplicative_index(g, kind, EXCLUDE)
                ref = exact_ln_oracle(g, kind, EXCLUDE)
                assert fast.excluded == ref.excluded
                worst = max(worst, abs(fast.value - ref.value))
            lz_fast = ln_multiplicative_index(g, "nk", LOGZERO)
            lz_ref = exact_ln_oracle(g, "nk", LOGZERO)
            assert lz_fast.is_log_zero == lz_ref.is_log_zero
            if not lz_fast.is_log_zero:
                worst = max(worst, abs(lz_fast.value - lz_ref.value))
    report(7, f"oracle equivalence on {count} graphs (n <= 20), all built-ins",
           worst <= 1e-9, f"worst |diff| {worst:.2e}")


def test_c08_algebraic_identities():
    worst_scaled = 0.0
    graphs = list(mixed_graphs(SEED + 8, 300))
    for g in graphs:
        tol = 1e-12 * max(g.m, 1)
        nk = ln_multiplicative_index(g, "nk").value
        vals = {k: ln_multiplicative_index(g, k).value
                for k in ("pi1", "pi2", "pi1s", "rpi", "hpi", "chipi")}
        residues = (
            abs(vals["pi1"] - 2.0 * nk),
            abs(vals["rpi"] + 0.5 * vals["pi2"]),
            abs(vals["chipi"] + 0.5 * vals["pi1s"]),
            abs(vals["hpi"] - (g.m * math.log(2.0) - vals["pi1s"])),
        )
        worst_scaled = max(worst_scaled, max(residues) / max(tol, 1e-300))
    report(8, f"algebraic identities on {len(graphs)} graphs at 1e-12*m",
           worst_scaled <= 1.0, f"worst residue {worst_scaled:.3f}x tolerance")


def test_c09_inequality_suite():
    rows = verify_corpus(SEED + 9)
    asserted = [r for r in rows if r.check.hypothesis_ok]
    failures = [r for r in asserted if not r.check.holds]
    unconditional_flagged = [
        r for r in rows
        if not r.check.hypothesis_ok and r.check.inequality != "petrovic_sum"
    ]

    # Regular graphs: Jensen and both Kober bounds are equalities.
    eq_bad = []
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    k8 = build_graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    for g in (k4, k8, c6):
        for name in MULTIPLICATIVE_NAMES:
            for c in run_all_checks(g, name):
                if c.inequality in ("jensen", "kober_lower", "kober_upper"):
                    scale = max(1.0, abs(c.lhs), abs(c.rhs))
                    if abs(c.slack) > 1e-9 * scale:
                        eq_bad.append(f"{name}/{c.inequality} slack {c.slack:.2e}")

    cg, cf = petrovic_counterexample()
    cx = run_all_checks(cg, cf)[4]
    counterexample_ok = (not cx.holds) and (not cx.hypothesis_ok)

    ok = (not failures and not unconditional_flagged and not eq_bad
          and counterexample_ok)
    report(9, f"inequality suite ({len(rows)} checks on default corpus)",
           ok,
           f"{len(failures)} failures, {len(eq_bad)} equality misses, "
           f"counterexample detected={counterexample_ok}")


def test_c10_connection_function():
    problems = []
    if g_of_r(0.0) != 0.0:
        problems.append("g(0) != 0")
    if abs(g_of_r(MAX_RADIUS) - 1.0) > 1e-12:
        problems.append(f"g(sqrt2) = {g_of_r(MAX_RADIUS)}")
    low = 1.0 * (math.pi - 8.0 / 3.0 + 0.5)
    high = (1.0 / 3.0 - 2.0 * (1.0 - math.asin(1.0) + math.acos(1.0))
            + (4.0 / 3.0) * 3.0 * 0.0 - 0.5)
    if abs(low - high) > 1e-12 * abs(low):
        problems.append(f"branch mismatch at r=1: {low} vs {high}")
    grid = np.linspace(0.0, MAX_RADIUS, 1000)
    vals = [g_of_r(float(r)) for r in grid]
    if not all(b >= a for a, b in zip(vals, vals[1:])):
        problems.append("not monotone on 1000-point grid")
    report(10, "connection function g(r) checks", not problems, "; ".join(problems))


def test_c11_gapi_non_scaling_probe(size_sweeps):
    lines = []
    for model in ("er", "rg"):
        rep = collapse_check(split_curves(size_sweeps[model]), "gapi", 0.05)
        pair = rep.pairs[0]
        lines.append(f"{model}: max deviation {pair.max_abs_deviation:.5f} "
                     f"at <k>={pair.k_at_max:.3g} (5*sem {5 * pair.pooled_sem:.5f})")
        assert math.isfinite(pair.max_abs_deviation)
        assert rep.dense_deviation is None  # no closed form exists for gapi
    report(11, "geometric-arithmetic probe collapse deviation recorded",
           True, "; ".join(lines))


def test_c12_worker_determinism(tmp_path, capsys):
    mismatches = []
    for model in ("er", "rg"):
        for n in (125, 250):
            if model == "er":
                params = ["--p", ",".join(repr(probability_for_mean_degree(n, k))
                                          for k in COLLAPSE_K_GRID)]
            else:
                params = ["--r", ",".join(repr(radius_for_mean_degree(n, k))
                                          for k in COLLAPSE_K_GRID)]
            outs = {}
            for workers in (1, 8):
                out = tmp_path / f"{model}_{n}_w{workers}.csv"
                code = cli_main([
                    "sweep", "--model", model, "--n", str(n), *params,
                    "--index", "nk,pi2,chipi,idpi,gapi",
                    "--budget", str(BUDGET), "--seed", str(SEED),
                    "--workers", str(workers), "--out", str(out),
                ])
                assert code == 0
                outs[workers] = out.read_bytes()
            if outs[1] != outs[8]:
                mismatches.append(f"{model} n={n}")

    # End-to-end collapse over the CLI-produced size tables must also pass.
    code = cli_main(["collapse", str(tmp_path / "er_125_w1.csv"),
                     str(tmp_path / "er_250_w1.csv"),
                     "--index", "nk", "--tolerance", "0.05"])
    capsys.readouterr()
    report(12, "byte-identical sweeps for --workers 1 vs --workers 8",
           not mismatches and code == 0,
           ("; ".join(mismatches) or "4 sweeps compared")
           + f"; CLI nk collapse exit {code}")
