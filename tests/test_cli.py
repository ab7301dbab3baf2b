import contextlib
import csv
import glob
import io
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from helpers import (
    custom_expressions,
    reference_parse_custom,
    with_float_literals,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mtindex
from mtindex import cli, ensemble, graph, indices, inequalities, models
from mtindex.cli import main
from mtindex.graph import write_edge_list_path
from mtindex.indices import (
    MULTIPLICATIVE_NAMES,
    EdgeFunction,
    VertexFunction,
    additive_index,
    ln_indices_from_arrays,
    ln_multiplicative_index,
)
from mtindex.models import SeedDerivation, erdos_renyi, generate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_complete_er(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "--model", "er", "--n", "10", "--p", "1.0",
                       "--replicas", "1", "--seed", "7", "--out", str(tmp_path))
    assert code == 0
    files = sorted(tmp_path.glob("*.edges"))
    assert len(files) == 1
    text = files[0].read_text()
    assert text.splitlines()[0] == "10 45"
    assert "s7_pt0_r0" in files[0].name


def test_generate_complete_bipartite(tmp_path, capsys):
    run(capsys, "generate", "--model", "br", "--n1", "2", "--n2", "3", "--p", "1.0",
        "--seed", "7", "--out", str(tmp_path))
    (path,) = sorted(tmp_path.glob("*.edges"))
    assert path.read_text().splitlines()[0] == "5 6"


def test_generate_rerun_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        run(capsys, "generate", "--model", "rg", "--n", "12", "--r", "0.5",
            "--replicas", "3", "--seed", "99", "--out", str(d))
    fa, fb = sorted(a.glob("*")), sorted(b.glob("*"))
    assert [f.name for f in fa] == [f.name for f in fb]
    assert all(x.read_bytes() == y.read_bytes() for x, y in zip(fa, fb))


def test_seed_flag_is_required(capsys):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--model", "er", "--n", "5", "--p", "0.5"])
    assert err.value.code == 2


SEEDED = {
    "generate": ["generate", "--model", "er", "--n", "30", "--p", "0.1", "--out", "out"],
    "sweep": ["sweep", "--model", "er", "--n", "30", "--p", "0.1", "--index", "nk",
              "--budget", "300", "--out", "out"],
    "verify": ["verify", "--sizes", "8", "--graphs", "1", "--out", "out"],
}


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", sorted(SEEDED))
def test_a_seed_outside_64_bits_is_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                                           command, seed):
    # The streams read the seed modulo 2^64, so it would alias seed % 2^64.
    def no_work(*args, **kwargs):
        raise AssertionError("sampling began before the seed was checked")

    for owner, name in ((models, "generate"), (inequalities, "generate"),
                        (ensemble, "sample_chunk")):
        monkeypatch.setattr(owner, name, no_work)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*SEEDED[command], "--seed", str(seed)])
    assert exc.value.code == f"error: seed must lie in [0, 2^64), got {seed}"
    assert capsys.readouterr().out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("call", [
    lambda seed: ensemble.EnsembleSpec(grid=(erdos_renyi(30, 0.1),), indices=("nk",),
                                       master_seed=seed),
    lambda seed: ensemble.run_point(erdos_renyi(30, 0.1), ["nk"], 10, seed),
    lambda seed: inequalities.verify_corpus(seed, sizes=(8,), graphs_per_size=1),
], ids=["EnsembleSpec", "run_point", "verify_corpus"])
def test_the_library_refuses_a_seed_outside_64_bits(call):
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\^64\), got {seed}$"):
            call(seed)
    call(2**64 - 1)


def test_index_command_values(tmp_path, capsys):
    p3 = tmp_path / "p3.edges"
    p3.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "index", str(p3), "--index", "nk,hpi,m1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "file,index,value_type,value,log_zero,excluded,policy"
    vals = {ln.split(",")[1]: ln.split(",") for ln in lines[1:]}
    assert float(vals["nk"][3]) == pytest.approx(math.log(2.0), abs=1e-12)
    assert vals["nk"][2] == "ln_product"
    assert float(vals["hpi"][3]) == pytest.approx(2.0 * math.log(2.0 / 3.0), abs=1e-12)
    assert float(vals["m1"][3]) == pytest.approx(6.0)
    assert vals["m1"][2] == "sum"


@pytest.mark.parametrize("policy, rows", [
    ("exclude", ["nk,ln_product,0.6931471805599453,False,1", "id,sum,2.5,False,1",
                 "m1,sum,6.0,False,0"]),
    ("logzero", ["nk,ln_product,-inf,True,0", "id,sum,inf,False,0", "m1,sum,6.0,False,0"]),
], ids=["exclude", "logzero"])
def test_index_rows_count_the_isolated_vertices_their_rule_skips(tmp_path, capsys, policy,
                                                                  rows):
    # A sum undefined at degree 0 (id) skips an isolated vertex as nk does;
    # m1 is defined there and skips none.
    g = tmp_path / "g.edges"
    g.write_text("4 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "index", str(g), "--index", "nk,id,m1", "--policy", policy)
    assert code == 0
    assert out.splitlines()[1:] == [f"{g},{row},{policy}" for row in rows]


def test_index_empty_graph(tmp_path, capsys):
    f = tmp_path / "empty.edges"
    f.write_text("6 0\n")
    code, out, _ = run(capsys, "index", str(f), "--index", "pi2")
    assert float(out.splitlines()[1].split(",")[3]) == 0.0


def test_index_unknown_name(tmp_path, capsys):
    f = tmp_path / "g.edges"
    f.write_text("2 1\n0 1\n")
    with pytest.raises(SystemExit, match="unknown index"):
        main(["index", str(f), "--index", "wiener"])


def test_index_names_are_checked_before_any_file(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("3 1\n0 0\n")
    with pytest.raises(SystemExit, match="unknown index 'wiener'"):
        main(["index", str(bad), str(tmp_path / "missing.edges"), "--index", "nk,wiener"])


P3 = graph.build_graph(3, [(0, 1), (1, 2)])
P3_ARRAYS = (P3.degrees, *P3.edge_degree_pairs().T)
SWEEP = ["sweep", "--model", "er", "--n", "30", "--p", "0.1", "--budget", "60", "--seed", "1"]


def _verify_with_built_ins(monkeypatch, names):
    """``mtindex verify`` as if ``names`` were its built-in functions."""
    monkeypatch.setattr(indices, "MULTIPLICATIVE_NAMES", names)
    main(["verify", "--seed", "1", "--sizes", "8", "--graphs", "1"])


@pytest.mark.parametrize("call, message", [
    (lambda mp, tmp: ensemble.EnsembleSpec(grid=(erdos_renyi(30, 0.1),), indices=("nk", "m1"),
                                           master_seed=1),
     "unknown multiplicative index 'm1'"),
    (lambda mp, tmp: ensemble.EnsembleSpec(grid=(erdos_renyi(30, 0.1),),
                                           indices=("nk", "pi2", "nk"), master_seed=1),
     "index set repeats a name: nk,pi2,nk"),
    (lambda mp, tmp: ensemble.run_point(erdos_renyi(20, 0.3), ["wiener"], 10, 1),
     "unknown multiplicative index 'wiener'"),
    (lambda mp, tmp: ensemble.run_point(erdos_renyi(20, 0.3), ["nk", "nk"], 10, 1),
     "index set repeats a name: nk,nk"),
    (lambda mp, tmp: inequalities.verify_corpus(1, functions=["nk", "wiener"]),
     "unknown multiplicative index 'wiener'"),
    (lambda mp, tmp: inequalities.verify_corpus(1, functions=["nk", "nk"]),
     "index set repeats a name: nk,nk"),
    (lambda mp, tmp: inequalities.verify_corpus(
        1, functions=[VertexFunction("v", float), EdgeFunction("v", max)]),
     "index set repeats a name: v,v"),
    (lambda mp, tmp: ln_multiplicative_index(P3, "m1"), "unknown multiplicative index 'm1'"),
    (lambda mp, tmp: additive_index(P3, "nk"), "unknown additive index 'nk'"),
    (lambda mp, tmp: ln_indices_from_arrays(*P3_ARRAYS, ["nk", "wiener"]),
     "unknown multiplicative index 'wiener'"),
    (lambda mp, tmp: ln_indices_from_arrays(*P3_ARRAYS, ["nk", "pi2", "nk"]),
     "index set repeats a name: nk,pi2,nk"),
    (lambda mp, tmp: main([*SWEEP, "--index", "nk,m1"]), "unknown multiplicative index 'm1'"),
    (lambda mp, tmp: main([*SWEEP, "--index", "hpi,hpi"]), "index set repeats a name: hpi,hpi"),
    (lambda mp, tmp: main(["index", str(tmp / "missing.edges"), "--index", "nk,wiener"]),
     "unknown index 'wiener'"),
    (lambda mp, tmp: main(["index", str(tmp / "missing.edges"), "--index", "nk,m1,nk"]),
     "index set repeats a name: nk,m1,nk"),
    (lambda mp, tmp: _verify_with_built_ins(mp, (*MULTIPLICATIVE_NAMES, "wiener")),
     "unknown multiplicative index 'wiener'"),
    (lambda mp, tmp: _verify_with_built_ins(mp, (*MULTIPLICATIVE_NAMES, "nk")),
     f"index set repeats a name: {','.join(MULTIPLICATIVE_NAMES)},nk"),
], ids=["spec-unknown", "spec-repeated", "run_point-unknown", "run_point-repeated",
        "verify_corpus-unknown", "verify_corpus-repeated",
        "verify_corpus-repeated-custom", "ln_multiplicative_index-unknown",
        "additive_index-unknown", "from_arrays-unknown", "from_arrays-repeated",
        "cli-sweep-unknown", "cli-sweep-repeated", "cli-index-unknown", "cli-index-repeated",
        "cli-verify-unknown", "cli-verify-repeated"])
def test_an_unknown_or_repeated_index_is_refused_before_any_work(monkeypatch, tmp_path, call,
                                                                 message):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the index set was checked")

    for owner, name in ((inequalities, "generate"), (ensemble, "sample_chunk"),
                        (graph, "read_edge_list_path"), (graph.DegreeHistogram, "stack")):
        monkeypatch.setattr(owner, name, no_work)
    with pytest.raises((ValueError, SystemExit)) as info:
        call(monkeypatch, tmp_path)
    if info.type is SystemExit:     # the CLI: one error line, exit status 1
        assert info.value.code == f"error: {message}"
    else:
        assert str(info.value) == message


@pytest.mark.parametrize("content, message", [
    (b"3 1\n0 0\n", "self-loop"),
    (b"2 1\n0 \xc0\n", "can't decode"),
    (None, "No such file"),
    (b"1000000000000000000000000000000 1\n0 1\n", "vertex count 10"),
    (b"1000000000000000 1\n0 1\n", "Unable to allocate"),
], ids=["self-loop", "binary", "missing", "n-beyond-int64", "n-beyond-memory"])
def test_index_bad_file_is_a_one_line_error(tmp_path, content, message):
    f = tmp_path / "g.edges"
    if content is not None:
        f.write_bytes(content)
    out = tmp_path / "index.csv"
    with pytest.raises(SystemExit) as exc:
        main(["index", str(f), "--index", "nk", "--out", str(out)])
    text = str(exc.value)
    assert text.startswith(f"error: {f}: ") and message in text and "\n" not in text
    assert not out.exists()


def test_predict_command(capsys):
    code, out, _ = run(capsys, "predict", "--model", "er", "--index", "nk", "--k", "10")
    assert code == 0
    assert float(out.strip()) == pytest.approx(math.log(10.0), abs=1e-12)
    # ln k itself forms no product, so no degree is too small for it.
    code, out, _ = run(capsys, "predict", "--model", "er", "--index", "nk", "--k", "1e-300")
    assert float(out.strip()) == math.log(1e-300)
    code, out, _ = run(capsys, "predict", "--model", "br", "--index", "pi2",
                       "--d1", "6", "--d2", "6")
    assert float(out.strip()) == pytest.approx(12.0 * math.log(6.0), abs=1e-12)
    code, out, _ = run(capsys, "predict", "--model", "br", "--index", "pi2",
                       "--d1", "6", "--d2", "6", "--per-vertex")
    assert float(out.strip()) == pytest.approx(6.0 * math.log(6.0), abs=1e-12)
    with pytest.raises(SystemExit, match="no dense-limit formula"):
        main(["predict", "--model", "er", "--index", "gapi", "--k", "10"])


@pytest.mark.parametrize("argv, message", [
    (["--model", "er", "--index", "nk", "--k", "nan"],
     "mean degree must be finite and positive, got nan"),
    (["--model", "rg", "--index", "pi2", "--k", "inf"],
     "mean degree must be finite and positive, got inf"),
    (["--model", "er", "--index", "nk", "--k", "0"],
     "mean degree must be finite and positive, got 0.0"),
    (["--model", "br", "--index", "pi2", "--d1", "inf", "--d2", "6"],
     "mean degrees must be finite and positive, got (inf, 6.0)"),
    (["--model", "br", "--index", "hpi", "--d1", "6", "--d2", "nan", "--per-vertex"],
     "mean degrees must be finite and positive, got (6.0, nan)"),
    # Finite degrees whose prediction overflows.
    (["--model", "er", "--index", "pi2", "--k", "1e308"],
     "prediction is not finite at these degrees, got inf"),
    (["--model", "er", "--index", "idpi", "--k", "1e308"],
     "prediction is not finite at these degrees, got -inf"),
    (["--model", "br", "--index", "hpi", "--d1", "1e308", "--d2", "1e308"],
     "prediction is not finite at these degrees, got -inf"),
    (["--model", "br", "--index", "pi2", "--d1", "1e308", "--d2", "1e308", "--per-vertex"],
     "prediction is not finite at these degrees, got nan"),
    # Finite degrees whose product k*k is subnormal.
    (["--model", "er", "--index", "pi2", "--k", "1e-160"],
     "prediction underflows at degrees (1e-160, 1e-160)"),
    (["--model", "rg", "--index", "pi1", "--k", "1e-160"],
     "prediction underflows at degree 1e-160"),
    (["--model", "br", "--index", "rpi", "--d1", "1e-160", "--d2", "1e-170"],
     "prediction underflows at degrees (1e-160, 1e-170)"),
    # A degree the model needs is missing.
    (["--model", "br", "--index", "nk", "--d1", "3"], "br prediction requires --d1 and --d2"),
    (["--model", "rg", "--index", "nk"], "er/rg prediction requires --k"),
    # A degree flag that the model does not read is refused, not dropped, and
    # before a missing one is named.
    (["--model", "br", "--index", "pi2", "--d1", "3", "--d2", "4", "--k", "9"],
     "br takes no --k"),
    (["--model", "br", "--index", "pi2", "--d1", "3", "--k", "0"], "br takes no --k"),
    (["--model", "rg", "--index", "nk", "--k", "10", "--per-vertex"], "rg takes no --per-vertex"),
    (["--model", "er", "--index", "nk", "--d1", "3", "--d2", "4"], "er takes no --d1, --d2"),
], ids=["er-k-nan", "rg-k-inf", "er-k-0", "br-d1-inf", "br-d2-nan-per-vertex",
        "er-pi2-overflow", "er-idpi-overflow", "br-hpi-overflow", "br-pi2-per-vertex-overflow",
        "er-pi2-underflow", "rg-pi1-underflow", "br-rpi-underflow", "br-no-d2", "rg-no-k",
        "br-with-k", "br-with-k-0-no-d2", "rg-with-per-vertex", "er-with-d1-d2"])
def test_bad_predict_degrees_are_one_line_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(["predict", *argv])
    assert info.value.code == f"error: {message}"
    assert capsys.readouterr().out == ""


def test_sweep_determinism_and_workers(tmp_path, capsys):
    args = ["sweep", "--model", "er", "--n", "40", "--p", "0.1,0.3",
            "--index", "nk,pi2", "--budget", "400", "--seed", "5"]
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    main(args + ["--out", str(paths[0]), "--workers", "1"])
    main(args + ["--out", str(paths[1]), "--workers", "1"])
    main(args + ["--out", str(paths[2]), "--workers", "2"])
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    capsys.readouterr()


def test_sweep_budget_must_cover_max_n(capsys):
    with pytest.raises(SystemExit, match="budget"):
        main(["sweep", "--model", "er", "--n", "500", "--p", "0.1",
              "--index", "nk", "--budget", "100", "--seed", "1"])


def test_collapse_identical_files_pass(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    main(["sweep", "--model", "er", "--n", "50",
          "--p", "0.04,0.08,0.12,0.16,0.2",
          "--index", "nk", "--budget", "500", "--seed", "3", "--out", str(csv)])
    twin = tmp_path / "twin.csv"
    twin.write_bytes(csv.read_bytes())
    code, out, _ = run(capsys, "collapse", str(csv), str(twin), "--index", "nk",
                       "--tolerance", "0.05")
    assert code == 0
    assert "max deviation 0" in out
    assert "PASS" in out


def test_collapse_missing_index_errors(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    main(["sweep", "--model", "er", "--n", "50",
          "--p", "0.04,0.08,0.12,0.16,0.2",
          "--index", "nk", "--budget", "500", "--seed", "3", "--out", str(csv)])
    twin = tmp_path / "twin.csv"
    twin.write_bytes(csv.read_bytes())
    capsys.readouterr()
    with pytest.raises(SystemExit, match="not present"):
        main(["collapse", str(csv), str(twin), "--index", "pi2"])


@pytest.mark.parametrize("spelling", ["same", "dot-slash"])
def test_collapse_refuses_a_table_named_twice(tmp_path, monkeypatch, capsys, spelling):
    # A table compared with itself would pass at deviation 0.
    _er_sweep(tmp_path / "b.csv", 3)
    monkeypatch.chdir(tmp_path)
    again = {"same": "b.csv", "dot-slash": "./b.csv"}[spelling]
    out = tmp_path / "report.csv"
    with pytest.raises(SystemExit) as exc:
        main(["collapse", "b.csv", again, "--index", "nk", "--out", str(out)])
    assert exc.value.code == f"error: inputs repeat a table: b.csv and {again}"
    assert capsys.readouterr().out == "" and not out.exists()


def test_collapse_bad_header_is_a_one_line_error(tmp_path):
    csv = tmp_path / "sweep.csv"
    csv.write_text("model,n\ner,50\n")
    out = tmp_path / "report.csv"
    with pytest.raises(SystemExit) as exc:
        main(["collapse", str(csv), str(csv), "--index", "nk", "--out", str(out)])
    text = str(exc.value)
    assert text.startswith(f"error: {csv}: unexpected results header") and "\n" not in text
    assert not out.exists()


def _er_sweep(path, seed):
    main(["sweep", "--model", "er", "--n", "60", "--p", "0.04,0.08,0.12,0.16,0.2",
          "--index", "nk", "--budget", "600", "--seed", str(seed), "--out", str(path)])


def test_collapse_compares_same_named_files_as_two_curves(tmp_path, capsys):
    for name, seed in (("d1", 4), ("d2", 99)):
        (tmp_path / name).mkdir()
        _er_sweep(tmp_path / name / "er.csv", seed)
    (tmp_path / "a.csv").write_bytes((tmp_path / "d1" / "er.csv").read_bytes())
    (tmp_path / "b.csv").write_bytes((tmp_path / "d2" / "er.csv").read_bytes())
    capsys.readouterr()
    _, same, _ = run(capsys, "collapse", str(tmp_path / "d1" / "er.csv"),
                     str(tmp_path / "d2" / "er.csv"), "--index", "nk")
    _, distinct, _ = run(capsys, "collapse", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                         "--index", "nk")
    assert "over 2 curves" in same and "max deviation 0 " not in same
    # A shared basename labels each side by its path as given.
    d1, d2 = str(tmp_path / "d1" / "er.csv"), str(tmp_path / "d2" / "er.csv")
    assert f"nk,{d1}:er n=60,{d2}:er n=60," in same
    assert same == distinct.replace("a.csv", d1).replace("b.csv", d2)


@pytest.fixture(scope="module")
def two_sweeps(tmp_path_factory):
    """The texts of two ER sweeps at n = 60 (seeds 1 and 2), five points each."""
    folder = tmp_path_factory.mktemp("sweeps")
    for seed in (1, 2):
        _er_sweep(folder / f"{seed}.csv", seed)
    return [(folder / f"{seed}.csv").read_text() for seed in (1, 2)]


def _well_formed_csv_or_refusal(argv, out):
    """``argv`` run with ``--out out`` either refuses with one ``error:`` line
    and writes nothing, or writes lines that each have the header's fields,
    read alike by a comma split and by an RFC 4180 reader."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            main([*argv, "--out", str(out)])
    except SystemExit as exc:
        assert isinstance(exc.code, str) and exc.code.startswith("error: "), exc.code
        assert "\n" not in exc.code and printed.getvalue() == "" and not out.exists()
        return
    text = out.read_text()
    header, *rows = text.removesuffix("\n").split("\n")
    assert text.endswith("\n") and rows, text
    assert [len(row.split(",")) for row in rows] == [len(header.split(","))] * len(rows), text
    assert list(csv.reader(io.StringIO(text))) == [line.split(",") for line in [header, *rows]]


# Names with and without what no CSV field of the CLI may hold.
_FIELD_TEXTS = st.text(st.sampled_from(',\n" ab'), max_size=6)


@settings(max_examples=60, deadline=None)
@given(names=st.tuples(_FIELD_TEXTS, _FIELD_TEXTS))
@example(names=("a,x", "b"))
@example(names=("a", "b\nx"))
@example(names=('"a', "b a"))
def test_every_csv_the_cli_writes_is_well_formed(two_sweeps, names):
    # A path is the file field of index rows and the start of collapse's curve
    # fields; a custom NAME is the function field of the verify report.
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        edges = folder / f"{names[0]}.edges"
        edges.write_text("3 2\n0 1\n1 2\n")
        _well_formed_csv_or_refusal(["index", str(edges), "--index", "nk,m1"],
                                    folder / "index.csv")
        tables = [folder / f"{name}.csv" for name in names]
        for table, text in zip(tables, two_sweeps):
            table.write_text(text)
        _well_formed_csv_or_refusal(["collapse", *map(str, tables), "--index", "nk",
                                     "--tolerance", "10"], folder / "collapse.csv")
        _well_formed_csv_or_refusal(["verify", "--seed", "1", "--sizes", "8", "--graphs", "1",
                                     "--custom-edge", f"{names[1]}=a*b"], folder / "verify.csv")


@pytest.mark.parametrize("floor", ["nan", "inf", "-inf", "-1"])
def test_collapse_refuses_a_tolerance_floor_that_is_not_finite_and_nonnegative(tmp_path, floor):
    # The inputs do not exist: the floor is refused before any CSV is read.
    missing = str(tmp_path / "missing.csv")
    with pytest.raises(SystemExit) as exc:
        main(["collapse", missing, missing, "--index", "nk", f"--tolerance={floor}"])
    assert exc.value.code == f"error: tolerance must be finite and >= 0, got {float(floor)}"


def test_repeated_rows_do_not_make_up_collapse_points(tmp_path, capsys):
    # Three points written twice are still three points.
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--model", "er", "--n", "60", "--p", "0.04,0.08,0.12",
              "--index", "nk,nk", "--budget", "600", "--seed", "1"])
    assert exc.value.code == "error: index set repeats a name: nk,nk"
    csv = tmp_path / "er.csv"
    main(["sweep", "--model", "er", "--n", "60", "--p", "0.04,0.08,0.12", "--index", "nk",
          "--budget", "600", "--seed", "1", "--out", str(csv)])
    header, *rows = csv.read_text().splitlines()
    twice = tmp_path / "twice.csv"
    twice.write_text("\n".join([header, *rows, *rows]) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["collapse", str(twice), str(csv), "--index", "nk"])
    assert exc.value.code == "error: table 'twice.csv:er n=60' repeats a <k> for 'nk'"


def test_collapse_refuses_a_point_with_no_mean(tmp_path, capsys):
    # Under logzero all 10 replicas at p = 0.001 and 0.05 are degenerate, so
    # those points have no mean; a NaN gap would read "max deviation 0".
    for name, n in (("a.csv", 30), ("b.csv", 40)):
        main(["sweep", "--model", "er", "--n", str(n), "--p", "0.001,0.05,0.1,0.2,0.3",
              "--index", "nk", "--budget", str(10 * n), "--seed", "1", "--policy", "logzero",
              "--out", str(tmp_path / name)])
    out = tmp_path / "report.csv"
    with pytest.raises(SystemExit) as exc:
        main(["collapse", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--index", "nk",
              "--out", str(out)])
    assert exc.value.code == ("error: table 'a.csv:er n=30' has a non-finite mean, sem or <k>"
                              " for 'nk' at <k>=0.029")
    assert capsys.readouterr().out == "" and not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda f: f[:-1], "line 2: expected 17 fields, got 16"),
    (lambda f: f + ["0"], "line 2: expected 17 fields, got 18"),
    (lambda f: f[:4] + ["x"] + f[5:], "line 2: unknown param_name 'x'"),
    (lambda f: ["rg"] + f[1:], "line 2: r must lie in [0, sqrt(2)], got None"),
    (lambda f: f[:2] + ["20", "40"] + f[4:], "line 2: er takes no n1, n2"),
    (lambda f: f[:1] + ["16777218"] + f[2:], "line 2: er n=16777218 p=0.04: 140737513521153"
     " candidate pairs exceed the 2^47 of one sample"),
    (lambda f: f[:7] + ["foo"] + f[8:], "line 2: unknown isolated policy 'foo'"),
    (lambda f: f[:8] + ["-7"] + f[9:], "line 2: replica count must be >= 1, got -7"),
    (lambda f: f[:9] + ["-1"] + f[10:], "line 2: degenerate count must be >= 0, got -1"),
    (lambda f: f[:-1] + [str(2**64)],
     "line 2: seed must lie in [0, 2^64), got 18446744073709551616"),
    # The model gives <k> = 59 * 0.04 and mean_ln / n = 60 / 60.
    (lambda f: f[:10] + ["999.0"] + f[11:],
     "line 2: mean_k_theory 999.0 differs from 2.36, derived from the row"),
    (lambda f: f[:13] + ["60.0"] + f[14:15] + ["-5.0"] + f[16:],
     "line 2: mean_ln_over_n -5.0 differs from 1.0, derived from the row"),
], ids=["short", "long", "param-x", "rg-with-p", "er-with-parts", "unsamplable", "policy-foo",
        "replicas-negative", "degenerate-negative", "seed-beyond-2^64", "k-theory-not-derived",
        "ln-over-n-not-derived"])
def test_collapse_bad_row_is_a_one_line_error(tmp_path, capsys, edit, message):
    csv = tmp_path / "sweep.csv"
    _er_sweep(csv, 3)
    header, first, *rest = csv.read_text().splitlines()
    csv.write_text("\n".join([header, ",".join(edit(first.split(","))), *rest]) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["collapse", str(csv), str(csv), "--index", "nk"])
    assert exc.value.code == f"error: {csv}: {message}"


def test_verify_small_corpus(tmp_path, capsys):
    report = tmp_path / "report.csv"
    code, out, _ = run(capsys, "verify", "--seed", "11", "--sizes", "8",
                       "--graphs", "10", "--out", str(report))
    assert code == 0
    assert "0 failures" in out
    # idpi trips the sum-bound sign hypothesis on some graphs; the
    # counterexample row is always among the flagged ones.
    assert int(out.split(" flagged")[0].rsplit(" ", 1)[1]) >= 1
    text = report.read_text().splitlines()
    assert text[0] == "inequality,model,n,param,function,lhs,rhs,slack,holds,hypothesis_ok"
    assert any(ln.startswith("petrovic_sum,counterexample,3,") and ln.endswith("False,False")
               for ln in text)


@pytest.mark.parametrize("graphs, checks", [(1, 163), (5, 811)])
def test_verify_runs_the_requested_number_of_graphs(capsys, graphs, checks):
    # 3 models x --graphs graphs x 9 functions x 6 checks, plus the counterexample.
    code, out, _ = run(capsys, "verify", "--seed", "1", "--sizes", "8",
                       "--graphs", str(graphs))
    assert code == 0
    assert out.startswith(f"verify: {checks} checks,")


def test_verify_invalid_custom_function_names_it(capsys):
    code = main(["verify", "--seed", "11", "--sizes", "8", "--graphs", "5",
                 "--custom-edge", "bad=-1"])
    out = capsys.readouterr()
    assert code == 2
    assert "bad" in out.err


def test_verify_valid_custom_functions(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "11", "--sizes", "8", "--graphs", "5",
                       "--custom-vertex", "shifted=d+1",
                       "--custom-edge", "rootsum=sqrt(a+b)")
    assert code == 0
    assert "0 failures" in out


@pytest.mark.parametrize(
    "expr, where",
    [("x=1/(d-1)", "failed at degree 1: float division by zero"),
     ("x=d**d**d", "failed at degree 5: (34, 'Numerical result out of range')"),
     # The corpus's first vertex of degree 1 or 2 has degree 2: (2-2)**0.5 = 0.
     ("x=(d-2)**0.5", "returned 0.0 at degree 2"),
     ("x=sqrt((d-2)**0.5)", "returned 0.0 at degree 2")],
    ids=["x=1/(d-1)-degree 1: float division by zero",
         "x=d**d**d-degree 5: (34, 'Numerical result out of range')",
         "x=(d-2)**0.5-degree 2: 0.0",
         "x=sqrt((d-2)**0.5)-degree 2: 0.0"],
)
def test_verify_failing_custom_expression_aborts(capsys, expr, where):
    # Float arguments: d**d**d overflows at degree 5 instead of building 5**3125.
    code = main(["verify", "--seed", "11", "--sizes", "8", "--graphs", "5",
                 "--custom-vertex", expr])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"verification aborted: function 'x' {where}")


def test_integer_towers_in_custom_expressions_overflow_at_once():
    # Int literals would build 9**9**9**9**9 exactly and never finish.
    src = str(Path(mtindex.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "mtindex.cli", "verify", "--seed", "1", "--sizes", "8",
            "--graphs", "1", "--custom-vertex", "x=9**9**9**9**9"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("verification aborted: function 'x' failed at degree 1: "
                                  "(34, 'Numerical result out of range')")


def test_custom_literal_beyond_the_float_range_is_a_one_line_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", "1", "--custom-vertex", "x=d+1" + "0" * 400])
    assert exc.value.code == "error: custom function 'x': int too large to convert to float"


def test_index_values_equal_the_bulk_path(tmp_path, capsys):
    g = generate(erdos_renyi(200, 0.05), SeedDerivation(3))
    path = tmp_path / "g.edges"
    write_edge_list_path(g, path)
    code, out, _ = run(capsys, "index", str(path), "--index", ",".join(MULTIPLICATIVE_NAMES))
    assert code == 0
    got = {ln.split(",")[1]: float(ln.split(",")[3]) for ln in out.splitlines()[1:]}
    deg, (u, v) = g.degrees, g.edges.T
    bulk = ln_indices_from_arrays(deg, deg[u], deg[v], MULTIPLICATIVE_NAMES)
    assert got == {kind: res.value for kind, res in zip(MULTIPLICATIVE_NAMES, bulk)}


def test_verify_rejects_code_in_custom_expressions(capsys):
    payload = "x=1 if ().__class__.__base__.__subclasses__() else 2"
    with pytest.raises(SystemExit, match="error: custom function 'x'.*not allowed"):
        main(["verify", "--seed", "11", "--sizes", "8", "--graphs", "5",
              "--custom-edge", payload])
    for bad in ("y=d.real", "y=a+1", "y=sqrt(d, d)", "y=d//2", "y=True"):
        with pytest.raises(SystemExit, match="not allowed"):
            main(["verify", "--seed", "11", "--custom-vertex", bad])


def _outcome(fn, degrees):
    """The float bits ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*degrees).hex()
    except Exception as exc:
        return type(exc), str(exc)


def _agrees_with_the_reference(expr, arity, degree_args):
    try:
        reference_parse_custom([f"x={expr}"], arity)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            cli._parse_custom([f"x={expr}"], arity)
        assert str(info.value) == str(exc)
        return
    # The walk reads every literal as a float, so the reference gets float literals.
    (want,) = reference_parse_custom([f"x={with_float_literals(expr)}"], arity)
    (got,) = cli._parse_custom([f"x={expr}"], arity)
    for degrees in degree_args:
        expected, actual = _outcome(want.fn, degrees), _outcome(got.fn, degrees)
        walk_complex = actual[0] is ValueError and actual[1].startswith("complex result")
        # The reference meets a complex number at a ``**`` and carries it on:
        # into sqrt/log/exp (TypeError) or to the end (complex result).
        ref_complex = expected[0] is TypeError or (
            expected[0] is ValueError and expected[1].startswith("complex result"))
        if walk_complex or ref_complex:
            # The walk stops at that ``**``; the reference cannot return a float.
            assert walk_complex and not isinstance(expected, str), (expr, degrees, expected)
        else:
            assert actual == expected, (expr, degrees)


@settings(max_examples=400, deadline=None)
@given(custom_expressions(("d",)))
@example("sqrt((d - 2) ** 0.5)")                      # TypeError in the reference
@example("(d - 2) ** 0.5 + 1 / 0")                    # complex, then a plain error
@example("1 / ((d - 2) ** 0.5 - (d - 2) ** 0.5)")     # complex division by zero
@example("d ** d ** d")
def test_custom_vertex_walk_matches_the_eval_reference(expr):
    _agrees_with_the_reference(expr, "vertex", [(d,) for d in range(1, 41)])


@settings(max_examples=400, deadline=None)
@given(custom_expressions(("a", "b", "du", "dv")),
       st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)), max_size=12))
@example("log((a - du - 1) ** 1.5) + dv", [])
@example("2 * sqrt(du * dv) / (a + b)", [])
def test_custom_edge_walk_matches_the_eval_reference(expr, pairs):
    _agrees_with_the_reference(expr, "edge", [(1, 1), (1, 2), (2, 1), (40, 40), *pairs])


def test_sweep_worker_failure_is_a_one_line_error(tmp_path, monkeypatch):
    def out_of_memory(point, rngs):
        raise MemoryError("no room")

    monkeypatch.setattr(ensemble, "sample_chunk", out_of_memory)
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--model", "er", "--n", "40", "--p", "0.1,0.3", "--index", "nk",
              "--budget", "400", "--seed", "5", "--workers", "2", "--out", str(out)])
    msg = info.value.code
    assert msg.startswith("error: ") and "\n" not in msg
    assert "master_seed=5" in msg and "point_id=0" in msg and "[0, 10)" in msg
    assert not out.exists()


def test_refused_budget_is_a_one_line_error(tmp_path):
    # 10^16 replicas need 71 PiB, beyond any 48- or 57-bit address space.
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--model", "er", "--n", "1", "--p", "0.5", "--index", "nk",
              "--budget", "1e16", "--seed", "1", "--out", str(out)])
    msg = info.value.code
    assert msg.startswith("error: ") and "\n" not in msg
    assert list(tmp_path.iterdir()) == []


def test_failed_sweep_leaves_no_output_file(tmp_path, monkeypatch):
    real = ensemble.write_results_csv

    def fail_after_first_row(rows, fh):
        real(list(rows)[:1], fh)
        raise OSError("disk full")

    monkeypatch.setattr(ensemble, "write_results_csv", fail_after_first_row)
    out = tmp_path / "sweep.csv"
    with pytest.raises(OSError, match="disk full"):
        main(["sweep", "--model", "er", "--n", "40", "--p", "0.1", "--index", "nk,pi2",
              "--budget", "80", "--seed", "5", "--out", str(out)])
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--model", "er", "--n", "40", "--p", "0.1", "--index", "nk", "--seed", "5",
      "--workers", "0"], "workers must be >= 1"),
    (["sweep", "--model", "er", "--n", "40", "--p", "1.5", "--index", "nk", "--seed", "5"],
     "p must lie in [0, 1], got 1.5"),
    (["generate", "--model", "er", "--n", "10", "--p", "1.5", "--seed", "1"],
     "p must lie in [0, 1], got 1.5"),
    (["sweep", "--model", "rg", "--n", "40", "--r", "2", "--index", "nk", "--seed", "5"],
     "r must lie in [0, sqrt(2)], got 2.0"),
    (["verify", "--seed", "1", "--sizes", "0"], "sizes must be >= 2, got 0"),
    (["verify", "--seed", "1", "--sizes", "1"], "sizes must be >= 2, got 1"),
    (["verify", "--seed", "1", "--sizes", "8,1"], "sizes must be >= 2, got 1"),
    (["verify", "--seed", "1", "--sizes", "8,16,8", "--graphs", "10"],
     "sizes repeat a size: 8,16,8"),
    (["sweep", "--model", "er", "--n", "40", "--p", "0.1", "--index", "nk", "--seed", "5",
      "--budget", "inf"], "budget must be finite, got inf"),
    (["sweep", "--model", "er", "--n", "40", "--p", "0.1", "--index", "nk", "--seed", "5",
      "--budget", "nan"], "budget must be finite, got nan"),
    (["verify", "--seed", "1", "--sizes", "8", "--graphs", "0"],
     "graphs per size must be >= 1, got 0"),
    (["verify", "--seed", "1", "--sizes", "8", "--graphs", "-1"],
     "graphs per size must be >= 1, got -1"),
    (["verify", "--seed", "1", "--sizes", ""], "sizes must list at least one graph size"),
    (["verify", "--seed", "1", "--sizes", ","], "sizes must list at least one graph size"),
    (["generate", "--model", "er", "--n", "10", "--p", "0.5", "--seed", "1", "--replicas", "0"],
     "replicas must be >= 1, got 0"),
    (["generate", "--model", "er", "--n", "10", "--p", "0.5", "--seed", "1", "--replicas", "-1"],
     "replicas must be >= 1, got -1"),
    (["sweep", "--model", "er", "--n", "30", "--p", "0.1,0.1", "--index", "nk", "--budget", "60",
      "--seed", "1"], "grid repeats a point: er n=30 p=0.1"),
    (["sweep", "--model", "br", "--n1", "10,10", "--n2", "20,20", "--p", "0.3", "--index", "nk",
      "--seed", "1"], "grid repeats a point: br n1=10 n2=20 p=0.3"),
    # A custom NAME is the report's function field: one field, naming one function.
    (["verify", "--seed", "1", "--sizes", "8", "--graphs", "1", "--custom-edge", "a,b=a*b"],
     "custom function name 'a,b' must be nonempty, with no comma, double quote or line break"),
    (["verify", "--seed", "1", "--sizes", "8", "--graphs", "1", "--custom-vertex", "=d+1"],
     "custom function name '' must be nonempty, with no comma, double quote or line break"),
    (["verify", "--seed", "1", "--sizes", "8", "--graphs", "1", "--custom-vertex", "x\ry=d"],
     "custom function name 'x\\ry' must be nonempty, with no comma, double quote or line break"),
    (["verify", "--seed", "1", "--sizes", "8", "--graphs", "1", "--custom-edge", '"x=a*b'],
     "custom function name '\"x' must be nonempty, with no comma, double quote or line break"),
    (["verify", "--seed", "1", "--sizes", "8", "--graphs", "1", "--custom-edge", "nk=a*b"],
     f"index set repeats a name: {','.join(MULTIPLICATIVE_NAMES)},nk"),
    (["verify", "--seed", "1", "--sizes", "8", "--graphs", "1", "--custom-edge", "y=a",
      "--custom-edge", "y=b"], f"index set repeats a name: {','.join(MULTIPLICATIVE_NAMES)},y,y"),
    (["verify", "--seed", "1", "--sizes", "8", "--graphs", "1", "--custom-vertex", "y=d",
      "--custom-edge", "y=a*b"], f"index set repeats a name: {','.join(MULTIPLICATIVE_NAMES)},y,y"),
    # Each index path is the first field of its rows: one field, on one line.
    (["index", "g.edges", "--index", "nk,m1,nk"], "index set repeats a name: nk,m1,nk"),
    (["index", "a,b.edges", "--index", "nk"],
     "input path 'a,b.edges' must be nonempty, with no comma, double quote or line break"),
    (["index", "a\nb.edges", "--index", "nk"],
     "input path 'a\\nb.edges' must be nonempty, with no comma, double quote or line break"),
    (["index", '"a.edges', "--index", "nk"],
     "input path '\"a.edges' must be nonempty, with no comma, double quote or line break"),
    # A point beyond 2^47 candidate pairs is refused as a point, before any replica.
    (["sweep", "--model", "er", "--n", "16777218", "--p", "1e-9", "--index", "nk", "--seed", "1",
      "--budget", "16777218"],
     "er n=16777218 p=1e-09: 140737513521153 candidate pairs exceed the 2^47 of one sample"),
    (["generate", "--model", "br", "--n1", "16777216", "--n2", "8388609", "--p", "1e-9",
      "--seed", "1"],
     "br n1=16777216 n2=8388609 p=1e-09: 140737505132544 candidate pairs exceed the 2^47 of"
     " one sample"),
    (["verify", "--seed", "1", "--sizes", "16777218", "--graphs", "1"],
     "er n=16777218 p=0.1: 140737513521153 candidate pairs exceed the 2^47 of one sample"),
    # Each model names the size or parameter flag it lacks.
    (["sweep", "--model", "br", "--p", "0.1", "--index", "nk", "--seed", "1"],
     "br requires --n1 and --n2"),
    (["generate", "--model", "br", "--n1", "10,20", "--n2", "10", "--p", "0.1", "--seed", "1"],
     "--n1 and --n2 lists must have equal length"),
    (["sweep", "--model", "br", "--n1", "10", "--n2", "10", "--index", "nk", "--seed", "1"],
     "br requires --p"),
    (["generate", "--model", "er", "--p", "0.1", "--seed", "1"], "er requires --n"),
    (["sweep", "--model", "er", "--n", "10", "--index", "nk", "--seed", "1"], "er requires --p"),
    (["generate", "--model", "rg", "--n", "10", "--seed", "1"], "rg requires --r"),
    # A size or parameter flag that the model does not read is refused, not dropped.
    (["sweep", "--model", "rg", "--n", "30", "--r", "0.3", "--p", "0.5", "--index", "nk",
      "--seed", "1"], "rg takes no --p"),
    (["sweep", "--model", "br", "--n", "20", "--n1", "10", "--n2", "10", "--p", "0.1",
      "--index", "nk", "--seed", "1"], "br takes no --n"),
    (["generate", "--model", "er", "--n", "20", "--n1", "10", "--n2", "10", "--p", "0.1",
      "--seed", "1"], "er takes no --n1, --n2"),
    (["generate", "--model", "er", "--n", "20", "--p", "0.1", "--r", "0.3", "--seed", "1"],
     "er takes no --r"),
    (["verify", "--seed", "1", "--sizes", "8", "--graphs", "1", "--custom-vertex", "x"],
     "custom function must be NAME=EXPR, got 'x'"),
    # A collapse input names curves of the report, and its --index is resolved,
    # each before any CSV is read: these inputs do not exist.
    (["collapse", "a,x.csv", "b.csv", "--index", "nk"],
     "input path 'a,x.csv' must be nonempty, with no comma, double quote or line break"),
    (["collapse", "a.csv", "b\nx.csv", "--index", "nk"],
     "input path 'b\\nx.csv' must be nonempty, with no comma, double quote or line break"),
    (["collapse", "a.csv", 'b"x.csv', "--index", "nk"],
     "input path 'b\"x.csv' must be nonempty, with no comma, double quote or line break"),
    (["collapse", "a.csv", "b.csv", "--index", "m1"], "unknown multiplicative index 'm1'"),
    (["collapse", "a.csv", "b.csv", "--index", "wiener"],
     "unknown multiplicative index 'wiener'"),
], ids=["sweep-workers-0", "sweep-p", "generate-p", "sweep-rg-r", "verify-sizes-0",
        "verify-sizes-1", "verify-sizes-8-1", "verify-sizes-repeated",
        "sweep-budget-inf", "sweep-budget-nan", "verify-graphs-0", "verify-graphs-negative",
        "verify-sizes-empty", "verify-sizes-comma", "generate-replicas-0",
        "generate-replicas-negative", "sweep-er-repeated-point", "sweep-br-repeated-point",
        "verify-custom-comma", "verify-custom-empty", "verify-custom-line-break",
        "verify-custom-quote", "verify-custom-builtin", "verify-custom-twice",
        "verify-custom-vertex-and-edge", "index-repeated-name", "index-path-comma",
        "index-path-line-break", "index-path-quote", "sweep-er-pairs", "generate-br-pairs",
        "verify-pairs", "sweep-br-no-sizes", "generate-br-unequal-sizes", "sweep-br-no-p",
        "generate-er-no-n", "sweep-er-no-p", "generate-rg-no-r", "sweep-rg-with-p",
        "sweep-br-with-n", "generate-er-with-parts", "generate-er-with-r",
        "verify-custom-no-equals",
        "collapse-path-comma", "collapse-path-line-break", "collapse-path-quote",
        "collapse-additive-index", "collapse-unknown-index"])
def test_bad_model_and_worker_flags_are_one_line_errors(tmp_path, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(out)])
    assert info.value.code == f"error: {message}"
    assert not out.exists()


def test_verify_reports_the_first_20_failures_one_line_each(monkeypatch, capsys):
    # No corpus check fails, so a patched corpus stands in for one that does.
    def failing_corpus(*args, **kwargs):
        rows = [inequalities.CorpusCheck("er", 8, (i + 1) / 4, inequalities.InequalityCheck(
            "jensen", "nk", 2.5, 2.0, -0.5, False, True)) for i in range(25)]
        flagged = inequalities.InequalityCheck("petrovic_sum", "demo", 3.0, 2.0, -1.0, False,
                                               False)
        return [*rows, inequalities.CorpusCheck("counterexample", 3, 0.0, flagged)]

    monkeypatch.setattr(inequalities, "verify_corpus", failing_corpus)
    assert main(["verify", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("verify: 26 checks, 25 failures, 1 flagged"
                        " (hypothesis not met, not asserted)")
    assert lines[1] == "  FAIL jensen on er n=8 param=0.25 function=nk: lhs=2.5 rhs=2.0 slack=-0.5"
    assert lines[1:] == [
        f"  FAIL jensen on er n=8 param={(i + 1) / 4} function=nk: lhs=2.5 rhs=2.0 slack=-0.5"
        for i in range(20)]


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


class _InterruptingHandle:
    """A text handle that writes part of its text, then raises as Ctrl-C would."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[:8])
        raise KeyboardInterrupt


def _interrupting_atomic_write(real):
    @contextlib.contextmanager
    def atomic_write(path):
        with real(path) as fh:
            yield _InterruptingHandle(fh)
    return atomic_write


SWEEP = ["sweep", "--model", "er", "--n", "30", "--p", "0.1,0.3", "--index", "nk,pi2",
         "--budget", "120", "--seed", "5"]


@pytest.mark.parametrize("command, module, name", [
    ("sweep", ensemble, "sample_chunk"),
    ("sweep", graph, "atomic_write"),
    ("collapse", graph, "atomic_write"),
    ("verify", inequalities, "_Prepared"),
    ("verify", graph, "atomic_write"),
    ("index", indices, "_ln_indices"),
    ("index", graph, "atomic_write"),
    ("generate", models, "generate"),
    ("generate", graph, "atomic_write"),
])
def test_interrupt_exits_130_and_leaves_no_output(tmp_path, monkeypatch, capsys,
                                                  command, module, name):
    edges = tmp_path / "in" / "g.edges"
    edges.parent.mkdir()
    edges.write_text("3 2\n0 1\n1 2\n")
    tables = [tmp_path / "in" / name for name in ("a.csv", "b.csv")]
    if command == "collapse":
        for seed, table in enumerate(tables, start=4):
            _er_sweep(table, seed)
    out = tmp_path / "out"
    argv = {
        "sweep": [*SWEEP, "--out", str(out)],
        "collapse": ["collapse", *map(str, tables), "--index", "nk", "--out", str(out)],
        "verify": ["verify", "--seed", "3", "--sizes", "8", "--graphs", "10", "--out", str(out)],
        "index": ["index", str(edges), "--index", "nk,m1", "--out", str(out)],
        "generate": ["generate", "--model", "er", "--n", "10", "--p", "0.3", "--seed", "1",
                     "--out", str(out)],
    }[command]
    if name == "atomic_write":
        monkeypatch.setattr(module, name, _interrupting_atomic_write(getattr(module, name)))
    else:
        monkeypatch.setattr(module, name, _interrupt)
    assert main(argv) == 130
    assert capsys.readouterr().err == f"{command}: interrupted\n"
    left = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
    # generate makes its output directory once the first graph is sampled.
    made = command == "generate" and name == "atomic_write"
    inputs = ["in/a.csv", "in/b.csv"] if command == "collapse" else []
    assert left == ["in", *inputs, "in/g.edges"] + (["out"] if made else [])


@pytest.mark.parametrize("command, module, name", [
    ("index", graph, "read_edge_list_path"),
    ("collapse", ensemble, "read_results_csv_path"),
])
@pytest.mark.parametrize("exc", [MemoryError("cannot allocate"), OSError("device gone")],
                         ids=["memory", "os"])
def test_a_failed_read_names_its_path(tmp_path, monkeypatch, command, module, name, exc):
    def fail(path):
        raise exc
    monkeypatch.setattr(module, name, fail)
    path = str(tmp_path / "input")
    with pytest.raises(SystemExit) as info:
        main([command, path, "--index", "nk"])
    assert info.value.code == f"error: {path}: {exc}"


def _no_work(*args, **kwargs):
    raise AssertionError("the command started work before checking --out")


@pytest.mark.parametrize("argv, module, name", [
    (SWEEP, ensemble, "sweep"),
    (["verify", "--seed", "3", "--sizes", "8", "--graphs", "10"], inequalities, "verify_corpus"),
], ids=["sweep", "verify"])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_bad_output_path_stops_before_any_work(tmp_path, monkeypatch, argv, module, name,
                                               where):
    monkeypatch.setattr(module, name, _no_work)
    out = tmp_path / "missing" / "out.csv" if where == "missing" else tmp_path
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(out)])
    assert info.value.code == {"missing": f"error: {out.parent}: no such output directory",
                               "directory": f"error: {out}: is a directory"}[where]
    assert list(tmp_path.iterdir()) == []


def test_failed_generate_leaves_no_directory(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("no sample")

    monkeypatch.setattr(models, "generate", fail)
    out = tmp_path / "graphs" / "er"
    with pytest.raises(SystemExit) as info:
        main(["generate", "--model", "er", "--n", "10", "--p", "0.5", "--seed", "1",
              "--out", str(out)])
    assert info.value.code == "error: no sample"
    assert list(tmp_path.iterdir()) == []


def test_generate_into_a_regular_file_stops_before_any_work(tmp_path, monkeypatch):
    monkeypatch.setattr(models, "generate", _no_work)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    with pytest.raises(SystemExit) as info:
        main(["generate", "--model", "er", "--n", "10", "--p", "0.5", "--seed", "1",
              "--out", str(taken)])
    assert info.value.code == f"error: {taken}: not a directory"
    assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "keep\n"


def _children(pid):
    kids = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        with contextlib.suppress(OSError), open(path) as fh:
            kids += fh.read().split()
    return kids


def _cpu_seconds(pid):
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")  # utime + stime


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="watches the sweep via /proc")
def test_ctrl_c_on_a_real_pool_sweep_exits_130(tmp_path):
    # A terminal's Ctrl-C goes to the whole process group.  It is sent once
    # the sweep has used more CPU time than its start-up takes, so it lands
    # inside the grid, whose 3000 points would run for seconds more.
    out = tmp_path / "sweep.csv"
    p = ",".join(str(round(0.05 + i * 1e-5, 5)) for i in range(3000))
    argv = [sys.executable, "-m", "mtindex.cli", "sweep", "--model", "er", "--n", "30",
            "--p", p, "--index", "nk", "--budget", "3000", "--seed", "5", "--workers", "2",
            "--out", str(out)]
    src = str(Path(mtindex.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while proc.poll() is None and _cpu_seconds(proc.pid) < 0.5:
            assert time.monotonic() < deadline, "the sweep used no CPU time"
            time.sleep(0.02)
        assert proc.returncode is None, "the sweep ended before the interrupt"
        assert _children(proc.pid) == []    # --workers 2 starts no process
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert (proc.returncode, err) == (130, "sweep: interrupted\n")
    assert list(tmp_path.iterdir()) == []
