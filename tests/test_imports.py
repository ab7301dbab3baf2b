"""Which modules each command loads, each case in a fresh interpreter.

``import mtindex`` loads no submodule.  ``mtindex.cli`` loads only the
standard library and ``names``, so ``--help``, a usage error and a refused
``--out`` load no numpy; every command imports what it runs when it runs:
``models`` and ``graph`` with ``generate``, ``graph`` and ``indices`` with
``index``, mpmath only with ``verify``, ``ensemble`` only with ``sweep`` and
``collapse``.  No command loads a process pool, and every command runs on
one thread: the CLI pins OpenBLAS to one thread before any command loads
numpy.
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
SUBMODULES = {f"mtindex.{name}" for name in (*EXPORTS, "cli", "names")}
ALL_INDICES = ",".join(MULTIPLICATIVE_NAMES + ADDITIVE_NAMES)


def _run(tmp_path, code: str, env: dict | None = None) -> list[str]:
    """stdout lines of ``code`` run by a fresh interpreter in ``tmp_path``
    (with ``env``, default this process's environment), followed by one line
    that lists the modules it had loaded when done."""
    src = str(Path(mtindex.__file__).parents[1])
    env = dict(os.environ if env is None else env,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
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
    assert loaded.isdisjoint(SUBMODULES - {"mtindex.cli", "mtindex.names"}
                             | {"numpy", "mpmath", POOL}), sorted(loaded & SUBMODULES)


def _main(*argv: str) -> str:
    return f"from mtindex.cli import main\nassert main({list(argv)!r}) == 0"


# Runs that end before any command starts: argv -> the code they exit with.
SWEEP = ["sweep", "--model", "er", "--n", "30", "--p", "0.1", "--index", "nk", "--seed", "1"]
PARSE_ONLY = {
    "help": (["--help"], "0"),
    "sweep-help": (["sweep", "--help"], "0"),
    "usage-error": ([*SWEEP[:2], "xx", *SWEEP[3:]], "2"),    # --model xx
    "out-is-a-directory": ([*SWEEP, "--out", "."], "error: .: is a directory"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ONLY))
def test_parsing_loads_no_numpy(tmp_path, case):
    argv, code = PARSE_ONLY[case]
    lines = _run(tmp_path, f"from mtindex.cli import main\ntry:\n    main({argv!r})\n"
                           "except SystemExit as exc:\n    print(exc.code)")
    assert lines[-2] == code
    assert "numpy" not in lines[-1].split()


# command -> (its argv, modules it must load, modules it must leave unloaded)
COMMANDS = {
    "generate": (["generate", "--model", "rg", "--n", "30", "--r", "0.3", "--seed", "1",
                  "--out", "graphs"],
                 {"mtindex.models", "mtindex.graph"},
                 {"mpmath", "mtindex.inequalities", "mtindex.ensemble", "mtindex.dense", POOL}),
    "index": (["index", "path.edges", "--index", ALL_INDICES, "--out", "index.csv"],
              {"mtindex.graph", "mtindex.indices"},
              {"mpmath", "mtindex.inequalities", "mtindex.ensemble", "mtindex.dense", POOL}),
    "predict": (["predict", "--model", "br", "--index", "pi2", "--d1", "6", "--d2", "6"],
                {"mtindex.dense"}, {"mpmath", "mtindex.inequalities", "mtindex.ensemble",
                                    POOL}),
    "sweep": (["sweep", "--model", "er", "--n", "30", "--p", "0.1,0.3", "--index", "nk,pi2",
               "--budget", "90", "--seed", "1", "--out", "sweep.csv"],
              {"mtindex.ensemble"}, {"mpmath", "mtindex.inequalities", POOL}),
    "verify": (["verify", "--seed", "1", "--sizes", "8", "--graphs", "1", "--out", "report.csv"],
               {"mpmath", "mtindex.inequalities"}, {"mtindex.ensemble", POOL}),
}


def _command(tmp_path, command: str) -> str:
    """Code that runs ``command`` of COMMANDS in ``tmp_path``."""
    (tmp_path / "path.edges").write_text("4 3\n0 1\n1 2\n1 3\n")
    return _main(*COMMANDS[command][0])


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_what_it_runs(tmp_path, command):
    _, needed, unloaded = COMMANDS[command]
    loaded = _loaded(tmp_path, _command(tmp_path, command))
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


TASKS = "/proc/self/task"


def _blas_env(threads: str | None) -> dict:
    """This process's environment with OPENBLAS_NUM_THREADS set to ``threads``,
    or removed if ``threads`` is None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def _tasks(tmp_path, code: str, threads: str | None) -> int:
    """The threads of a fresh interpreter once it has run ``code``."""
    lines = _run(tmp_path, f"{code}\nimport os\nprint(len(os.listdir({TASKS!r})))",
                 _blas_env(threads))
    return int(lines[-2])


@pytest.fixture(scope="module")
def blas_pool_shows(tmp_path_factory):
    """Skip where one thread cannot be told from an OpenBLAS pool."""
    if not os.path.isdir(TASKS):
        pytest.skip(f"{TASKS} is missing")
    if _tasks(tmp_path_factory.mktemp("numpy"), "import numpy", "4") == 1:
        pytest.skip("import numpy starts no OpenBLAS thread here")


@pytest.mark.parametrize("command, threads",
                         [*((command, "4") for command in sorted(COMMANDS)), ("sweep", None)],
                         ids=[*sorted(COMMANDS), "sweep-unset"])
def test_each_command_runs_on_one_thread(blas_pool_shows, tmp_path, command, threads):
    # An inherited OPENBLAS_NUM_THREADS is overridden, and so is its absence.
    assert _tasks(tmp_path, _command(tmp_path, command), threads) == 1


def test_the_library_leaves_blas_threads_alone(tmp_path):
    # Only the CLI, and only when it loads numpy first, sets the variable.
    lines = _run(tmp_path, "import os, numpy, mtindex.cli, mtindex.ensemble\n"
                           "print(os.environ['OPENBLAS_NUM_THREADS'])", _blas_env("4"))
    assert lines[-2] == "4"
    lines = _run(tmp_path, "import os, mtindex.ensemble, mtindex.inequalities\n"
                           "print(os.environ.get('OPENBLAS_NUM_THREADS'))", _blas_env(None))
    assert lines[-2] == "None"
