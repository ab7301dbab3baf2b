"""Which modules each command loads, each case in a fresh interpreter.

``import mtindex`` loads no submodule; ``mtindex.cli`` loads ``graph``,
``indices`` and ``models``, and every command imports the rest of what it
runs: mpmath only with ``verify``, ``ensemble`` only with ``sweep`` and
``collapse``.  No command loads a process pool.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtindex
from mtindex.indices import ADDITIVE_NAMES, MULTIPLICATIVE_NAMES

# The package's exports, by defining submodule, in the order of its table.
EXPORTS = {
    "dense": ["DENSE_REGIME_MEAN_DEGREE", "UnsupportedIndexError", "predict_br",
              "predict_br_per_vertex", "scaling_curve"],
    "ensemble": ["CollapseReport", "EnsembleSpec", "EnsembleStats", "collapse_check",
                 "read_results_csv_path", "replicas_for", "run_point", "split_curves",
                 "sweep", "write_results_csv_path"],
    "graph": ["Graph", "GraphError", "build_graph", "read_edge_list", "read_edge_list_path",
              "write_edge_list", "write_edge_list_path"],
    "indices": ["ADDITIVE_NAMES", "EXCLUDE", "EdgeFunction", "EvaluationError", "LOGZERO",
                "LogIndexValue", "MULTIPLICATIVE_NAMES", "VertexFunction", "additive_index",
                "ln_indices_from_arrays", "ln_multiplicative_index"],
    "inequalities": ["InequalityCheck", "petrovic_counterexample", "run_all_checks",
                     "verify_corpus"],
    "models": ["MAX_RADIUS", "ModelSpec", "SeedDerivation", "bipartite",
               "br_probability_for_mean_degree", "erdos_renyi", "g_of_r", "generate",
               "mean_degree", "probability_for_mean_degree", "radius_for_mean_degree",
               "random_geometric"],
}

POOL = "concurrent.futures.process"
SUBMODULES = {f"mtindex.{name}" for name in (*EXPORTS, "cli")}
ALL_INDICES = ",".join(MULTIPLICATIVE_NAMES + ADDITIVE_NAMES)


def _run(tmp_path, code: str) -> list[str]:
    """stdout lines of ``code`` run by a fresh interpreter in ``tmp_path``,
    followed by one line that lists the modules it had loaded when done."""
    src = str(Path(mtindex.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = f"{code}\nimport sys\nprint(*sorted(sys.modules))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _loaded(tmp_path, code: str) -> set[str]:
    return set(_run(tmp_path, code)[-1].split())


def test_importing_the_package_loads_no_submodule(tmp_path):
    loaded = _loaded(tmp_path, "import mtindex")
    assert loaded.isdisjoint(SUBMODULES | {"numpy", "mpmath"})


def test_importing_the_cli_loads_no_command_module(tmp_path):
    loaded = _loaded(tmp_path, "import mtindex.cli")
    assert {"mtindex.graph", "mtindex.indices", "mtindex.models"} <= loaded
    assert loaded.isdisjoint(
        {"mpmath", "mtindex.inequalities", "mtindex.ensemble", "mtindex.dense", POOL})


def _main(*argv: str) -> str:
    return f"from mtindex.cli import main\nassert main({list(argv)!r}) == 0"


# command -> (its argv, modules it must load, modules it must leave unloaded)
COMMANDS = {
    "generate": (["generate", "--model", "rg", "--n", "30", "--r", "0.3", "--seed", "1",
                  "--out", "graphs"],
                 set(), {"mpmath", "mtindex.inequalities", "mtindex.ensemble", "mtindex.dense",
                         POOL}),
    "index": (["index", "path.edges", "--index", ALL_INDICES, "--out", "index.csv"],
              set(), {"mpmath", "mtindex.inequalities", "mtindex.ensemble", "mtindex.dense",
                      POOL}),
    "predict": (["predict", "--model", "br", "--index", "pi2", "--d1", "6", "--d2", "6"],
                {"mtindex.dense"}, {"mpmath", "mtindex.inequalities", "mtindex.ensemble",
                                    POOL}),
    "sweep": (["sweep", "--model", "er", "--n", "30", "--p", "0.1,0.3", "--index", "nk,pi2",
               "--budget", "90", "--seed", "1", "--out", "sweep.csv"],
              {"mtindex.ensemble"}, {"mpmath", "mtindex.inequalities", POOL}),
    "verify": (["verify", "--seed", "1", "--sizes", "8", "--graphs", "1", "--out", "report.csv"],
               {"mpmath", "mtindex.inequalities"}, {"mtindex.ensemble", POOL}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_what_it_runs(tmp_path, command):
    argv, needed, unloaded = COMMANDS[command]
    (tmp_path / "path.edges").write_text("4 3\n0 1\n1 2\n1 3\n")
    loaded = _loaded(tmp_path, _main(*argv))
    assert needed <= loaded
    assert loaded.isdisjoint(unloaded), sorted(loaded & unloaded)


def test_star_import_binds_every_export(tmp_path):
    names = [name for group in EXPORTS.values() for name in group]
    checks = [f"assert mtindex.__all__ == {names!r}"]
    for module, group in EXPORTS.items():
        checks.append(f"import mtindex.{module}")
        checks += [f"assert {name} is mtindex.{module}.{name}" for name in group]
    lines = _run(tmp_path, "\n".join(["from mtindex import *", "import mtindex", *checks,
                                      "print('bound')"]))
    assert lines[-2] == "bound"
