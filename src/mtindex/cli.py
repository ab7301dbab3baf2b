"""Command-line front end: generate | index | sweep | collapse | predict | verify.

Every randomized command requires an explicit ``--seed``; reruns with
identical flags produce byte-identical output.  ``sweep --workers`` is
accepted (at least 1) and changes nothing: every chunk runs in this process.
A command refuses out-of-range flags, unreadable inputs, custom expressions
outside the grammar, bad ``--out`` paths, failed replicas and allocations that
numpy refuses by raising ValueError; :func:`main` alone writes the one ``error:``
line (exit status 1).  ``sweep``, ``generate`` and ``predict`` refuse a size,
parameter or degree flag that the model does not read (``rg takes no --p``);
``names.FIELDS`` says which fields each model reads.  A degree function that
fails in ``verify`` exits 2 instead.
:func:`_read_each` reads every input path; :func:`_emit` writes every output,
to stdout or through ``graph.atomic_write``.  So an interrupt (Ctrl-C), which
ends any command with exit status 130 and one line on stderr, leaves no partial
output file and no temp file (``generate`` keeps the edge-list files it finished).

``index`` evaluates each file's index set, sums and ln-products alike, in one
evaluator call; a row's ``excluded`` counts the isolated vertices it skipped.

Each command imports only the modules it runs, when it runs.  This module
loads the standard library and ``names`` alone, so ``--help``, every usage
error and the ``--out`` refusals load no numpy.  ``generate`` imports
``models`` and ``graph``; ``index`` imports ``graph`` and ``indices``;
``sweep`` and ``collapse`` import ``ensemble``; ``collapse`` and ``predict``
import ``dense``; only ``verify`` imports ``inequalities``, and with it mpmath.

No command starts a second process, nor a second thread: mtindex calls no
BLAS routine, so the OpenBLAS worker that numpy starts on import could only
spin, and this module pins OpenBLAS to one thread on import, before any
command loads numpy.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import math
import operator
import os
import sys
from pathlib import Path

# One thread (see above), set only where numpy is not loaded before the CLI:
# an inherited value is overridden, and a library user's BLAS is left alone.
if "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .names import EXCLUDE, FIELDS, POLICIES


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def _fmt(x: float) -> str:
    return repr(float(x))


def _build_grid(args) -> list[models.ModelSpec]:
    """Grid in deterministic order: sizes outer, parameter values inner.

    A point that no replica can sample is no ModelSpec, so it fails here, before any work.
    """
    from . import models

    *sizes, param = read = FIELDS[args.model]
    unread = [f"--{name}" for name in sorted(set().union(*FIELDS.values()))
              if name not in read and getattr(args, name)]
    if unread:
        raise ValueError(f"{args.model} takes no {', '.join(unread)}")
    lists = [getattr(args, name) for name in sizes]
    flags = " and ".join(f"--{name}" for name in sizes)
    if not all(lists):
        raise ValueError(f"{args.model} requires {flags}")
    if len(set(map(len, lists))) > 1:
        raise ValueError(f"{flags} lists must have equal length")
    if not getattr(args, param):
        raise ValueError(f"{args.model} requires --{param}")
    make = {"er": models.erdos_renyi, "rg": models.random_geometric,
            "br": models.bipartite}[args.model]
    return [make(*size, value) for size in zip(*lists) for value in getattr(args, param)]


def _csv_field(what: str, text: str) -> None:
    """Refuse ``text``, which the CLI writes as given into one CSV field, unless
    it is nonempty and holds no comma, double quote or line break: a field that
    starts with a quote is read by RFC 4180 readers as a quoted one."""
    if "," in text or '"' in text or text.splitlines() != [text]:
        raise ValueError(
            f"{what} {text!r} must be nonempty, with no comma, double quote or line break")


def _point_tag(spec: models.ModelSpec) -> str:
    if spec.model == "br":
        size = f"n1-{spec.n1}_n2-{spec.n2}"
    else:
        size = f"n{spec.n}"
    return f"{spec.model}_{size}_{spec.param_name}{_fmt(spec.param_value)}"


def _read_each(paths: list[str], read):
    """Yield ``(path, read(path))`` in order.  Each path is a CSV field of the
    output as given, so all are checked before the first read."""
    for path in paths:
        _csv_field("input path", path)
    for path in paths:
        try:
            value = read(path)
        # A bad table or edge list, an unreadable path, a vertex count too large to allocate
        except (ValueError, OSError, MemoryError) as exc:
            raise ValueError(f"{path}: {exc}") from None
        yield path, value


def _emit(out, table) -> None:
    """Write ``table``, a list of lines or a ``write(fh)`` callable, to ``out`` or stdout."""
    from .graph import atomic_write

    write = table if callable(table) else lambda fh: fh.write("\n".join(table) + "\n")
    with atomic_write(out) if out else contextlib.nullcontext(sys.stdout) as fh:
        write(fh)


def cmd_generate(args) -> int:
    from . import models
    from .graph import write_edge_list

    models.check_master_seed(args.seed)
    grid = _build_grid(args)
    if args.replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {args.replicas}")
    outdir = Path(args.outdir)
    # The directory is made once the first graph is sampled, so a failed
    # sample leaves none behind; a regular file in its place stops us now.
    if not next(p for p in (outdir, *outdir.parents) if p.exists()).is_dir():
        raise ValueError(f"{outdir}: not a directory")
    for point_id, spec in enumerate(grid):
        for replica in range(args.replicas):
            seed = models.SeedDerivation(args.seed, point_id, replica)
            g = models.generate(spec, seed)
            outdir.mkdir(parents=True, exist_ok=True)
            name = f"{_point_tag(spec)}_s{args.seed}_pt{point_id}_r{replica}.edges"
            _emit(outdir / name, functools.partial(write_edge_list, g))
            print(outdir / name)
    return 0


def cmd_index(args) -> int:
    from .graph import read_edge_list_path
    from .indices import BUILT_IN_INDICES, _ln_indices, resolve

    rules = resolve(args.index, BUILT_IN_INDICES)
    lines = ["file,index,value_type,value,log_zero,excluded,policy"]
    for path, g in _read_each(args.paths, read_edge_list_path):
        values, excluded = _ln_indices(rules, g.histogram, args.policy)
        for rule, [value], [skipped] in zip(rules, values.tolist(), excluded.tolist()):
            lines.append(
                f"{path},{rule.name},{'sum' if rule.additive else 'ln_product'},{_fmt(value)},"
                f"{value == -math.inf},{skipped},{args.policy}"
            )
    _emit(args.out, lines)
    return 0


def cmd_sweep(args) -> int:
    from . import ensemble

    grid = _build_grid(args)
    if args.workers < 1:
        raise ValueError("workers must be >= 1")
    budget = ensemble.DEFAULT_BUDGET if args.budget is None else args.budget
    max_n = max(spec.n for spec in grid)
    if budget < max_n:
        raise ValueError(f"budget {budget} must be >= max n {max_n}")
    spec = ensemble.EnsembleSpec(
        grid=tuple(grid),
        indices=tuple(args.index),
        master_seed=args.seed,
        budget=budget,
        isolated_policy=args.policy,
    )
    _emit(args.out, functools.partial(ensemble.write_results_csv, ensemble.sweep(spec)))
    return 0


def cmd_collapse(args) -> int:
    from . import dense, ensemble
    from .indices import resolve

    if not 0.0 <= args.tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {args.tolerance}")
    resolve([args.index])    # an unknown or additive name, before any CSV is read
    # A path, or its name, is the start of a curve field of the report.
    names = [Path(path).name for path in args.csvs]
    tables = []
    for i, (path, rows) in enumerate(_read_each(args.csvs, ensemble.read_results_csv_path)):
        # A table named twice would be compared with itself.
        for earlier in args.csvs[:i]:
            if os.path.samefile(earlier, path):
                raise ValueError(f"inputs repeat a table: {earlier} and {path}")
        # A basename that two inputs share names neither; their paths do.
        source = names[i] if names.count(names[i]) == 1 else path
        for label, group in ensemble.split_curves(rows):
            tables.append((f"{source}:{label}", group))
    report = ensemble.collapse_check(tables, args.index, args.tolerance)

    lines = [
        "index,curve_a,curve_b,max_abs_deviation,k_at_max,pooled_sem,tolerance,within"
    ]
    for pair in report.pairs:
        lines.append(
            f"{report.index},{pair.label_a},{pair.label_b},{_fmt(pair.max_abs_deviation)},"
            f"{_fmt(pair.k_at_max)},{_fmt(pair.pooled_sem)},{_fmt(pair.tolerance)},{pair.within}"
        )
    _emit(args.out, lines)

    print(
        f"collapse[{report.index}]: max deviation {report.max_deviation:.6g} "
        f"at <k>={report.k_at_max:.6g} over {len(report.labels)} curves -> "
        f"{'PASS' if report.passed else 'FAIL'} (tolerance floor {args.tolerance})"
    )
    if report.dense_deviation is not None:
        print(
            f"collapse[{report.index}]: dense-regime (<k> >= {dense.DENSE_REGIME_MEAN_DEGREE:g})"
            f" max |curve - prediction| = {report.dense_deviation:.6g}"
        )
    return 0 if report.passed else 1


def cmd_predict(args) -> int:
    from . import dense

    # A degree flag that the model does not read is refused, not dropped.
    unread = ("k",) if args.model == "br" else ("d1", "d2", "per_vertex")
    given = [f"--{name.replace('_', '-')}" for name in unread if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{args.model} takes no {', '.join(given)}")
    if args.model == "br":
        if args.d1 is None or args.d2 is None:
            raise ValueError("br prediction requires --d1 and --d2")
        if args.per_vertex:
            value = dense.predict_br_per_vertex(args.index, args.d1, args.d2)
        else:
            value = dense.predict_br(args.index, args.d1, args.d2)
    else:
        if args.k is None:
            raise ValueError("er/rg prediction requires --k")
        value = dense.scaling_curve(args.index, args.k)
    if not math.isfinite(value):
        raise ValueError(f"prediction is not finite at these degrees, got {value!r}")
    print(_fmt(value))
    return 0


def _power(base, exponent):
    # A negative base to a fractional power is the grammar's one way out of the reals.
    value = base ** exponent
    if isinstance(value, complex):
        raise ValueError(f"complex result {value!r}")
    return value


_CUSTOM_CALLS = {"sqrt": math.sqrt, "log": math.log, "exp": math.exp}
_CUSTOM_CONSTANTS = {"pi": math.pi, "e": math.e}
# Argument name -> position in the degree tuple, by arity.
_CUSTOM_ARGS = {"vertex": {"d": 0}, "edge": {"a": 0, "b": 1, "du": 0, "dv": 1}}
_CUSTOM_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
                  ast.Div: operator.truediv, ast.Pow: _power}


def _custom_closure(node: ast.AST, args: dict[str, int]):
    """Closure over the degree tuple that evaluates ``node`` in the custom grammar.

    Allowed: int/float literals, the argument names and pi/e, ``+ - * / **``,
    unary minus, and one-argument calls of sqrt/log/exp.  Any other node is
    rejected with a ValueError naming it, before anything is evaluated.
    Literals become floats, so every operation is a float one: integer powers
    such as 9**9**9 would otherwise grow without bound, where float ones
    overflow into an error.  An int literal beyond the float range raises
    OverflowError.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return lambda x, value=float(node.value): value
    if isinstance(node, ast.Name) and node.id in _CUSTOM_CONSTANTS:
        return lambda x, value=_CUSTOM_CONSTANTS[node.id]: value
    if isinstance(node, ast.Name) and node.id in args:
        return lambda x, i=args[node.id]: x[i]
    if isinstance(node, ast.BinOp) and type(node.op) in _CUSTOM_BINOPS:
        op = _CUSTOM_BINOPS[type(node.op)]
        left, right = _custom_closure(node.left, args), _custom_closure(node.right, args)
        return lambda x: op(left(x), right(x))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = _custom_closure(node.operand, args)
        return lambda x: -operand(x)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _CUSTOM_CALLS and len(node.args) == 1 and not node.keywords):
        fn, arg = _CUSTOM_CALLS[node.func.id], _custom_closure(node.args[0], args)
        return lambda x: fn(arg(x))
    raise ValueError(f"{ast.unparse(node)!r} is not allowed")


def _parse_custom(defs: list[str], arity: str):
    """The ``NAME=EXPR`` definitions as vertex or edge functions, by ``arity``.
    Each NAME is a field of the verify report, so it must be nonempty and hold
    no comma, double quote or line break; ``indices.resolve`` refuses one that
    repeats a function name."""
    from .indices import EdgeFunction, VertexFunction

    kind = VertexFunction if arity == "vertex" else EdgeFunction
    out = []
    for item in defs:
        if "=" not in item:
            raise ValueError(f"custom function must be NAME=EXPR, got {item!r}")
        name, expr = item.split("=", 1)
        _csv_field("custom function name", name)
        try:
            closure = _custom_closure(ast.parse(expr, mode="eval").body, _CUSTOM_ARGS[arity])
        except (SyntaxError, ValueError, OverflowError) as exc:
            raise ValueError(f"custom function {name!r}: {getattr(exc, 'msg', exc)}") from None
        # Float arguments, as the literals are floats (see _custom_closure).
        out.append(kind(name, lambda *degrees, _c=closure: _c(tuple(map(float, degrees)))))
    return out


def cmd_verify(args) -> int:
    from . import inequalities
    from .indices import EvaluationError, MULTIPLICATIVE_NAMES

    vertex = _parse_custom(args.custom_vertex, "vertex")
    edge = _parse_custom(args.custom_edge, "edge")
    functions = [*MULTIPLICATIVE_NAMES, *vertex, *edge]
    try:
        rows = inequalities.verify_corpus(
            args.seed,
            sizes=inequalities.DEFAULT_SIZES if args.sizes is None else tuple(args.sizes),
            graphs_per_size=(
                inequalities.DEFAULT_GRAPHS_PER_SIZE if args.graphs is None else args.graphs
            ),
            functions=functions,
        )
    except EvaluationError as exc:
        print(f"verification aborted: {exc}", file=sys.stderr)
        return 2

    if args.out:
        _emit(args.out, functools.partial(inequalities.write_report_csv, rows))

    flagged = [r for r in rows if not r.check.hypothesis_ok]
    failures = [r for r in rows if r.check.hypothesis_ok and not r.check.holds]
    print(
        f"verify: {len(rows)} checks, {len(failures)} failures, "
        f"{len(flagged)} flagged (hypothesis not met, not asserted)"
    )
    for r in failures[:20]:
        c = r.check
        print(
            f"  FAIL {c.inequality} on {r.model} n={r.n} param={r.param} "
            f"function={c.function}: lhs={c.lhs} rhs={c.rhs} slack={c.slack}"
        )
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtindex",
        description="Multiplicative topological indices on random networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--model", choices=tuple(FIELDS), required=True)
        p.add_argument("--n", type=_int_list, default=[], help="comma list of sizes")
        p.add_argument("--n1", type=_int_list, default=[], help="br part-1 sizes")
        p.add_argument("--n2", type=_int_list, default=[], help="br part-2 sizes")
        p.add_argument("--p", type=_float_list, default=[], help="comma list of probabilities")
        p.add_argument("--r", type=_float_list, default=[], help="comma list of radii")
        p.add_argument("--seed", type=int, required=True, help="master seed (required)")

    p = sub.add_parser("generate", help="write edge-list files for sampled instances")
    add_model_flags(p)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--out", dest="outdir", default=".", help="output directory (made if missing)")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("index", help="compute index values for edge-list files")
    p.add_argument("paths", nargs="+")
    p.add_argument("--index", type=lambda s: s.split(","), required=True)
    p.add_argument("--policy", choices=POLICIES, default=EXCLUDE)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("sweep", help="run a replica ensemble over a parameter grid")
    add_model_flags(p)
    p.add_argument("--index", type=lambda s: s.split(","), required=True)
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted (>= 1) and ignored: a sweep runs in one process")
    p.add_argument("--policy", choices=POLICIES, default=EXCLUDE)
    p.add_argument("--out", default=None, help="results CSV path (default stdout)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("collapse", help="scaling-collapse check over result CSVs")
    p.add_argument("csvs", nargs="+")
    p.add_argument("--index", required=True)
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="deviation floor; the effective bound is max(floor, 5*pooled sem)",
    )
    p.add_argument("--out", default=None, help="pairwise report CSV path")
    p.set_defaults(fn=cmd_collapse)

    p = sub.add_parser("predict", help="dense-limit prediction of mean ln X per vertex")
    p.add_argument("--model", choices=tuple(FIELDS), required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--k", type=float, default=None, help="mean degree (er/rg)")
    p.add_argument("--d1", type=float, default=None, help="br part-1 mean degree")
    p.add_argument("--d2", type=float, default=None, help="br part-2 mean degree")
    p.add_argument(
        "--per-vertex",
        action="store_true",
        default=None,
        help="normalize br prediction per total vertex count instead of per part",
    )
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("verify", help="numeric inequality verification over a graph corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sizes", type=_int_list, default=None)
    p.add_argument("--graphs", type=int, default=None)
    p.add_argument("--custom-vertex", action="append", default=[], metavar="NAME=EXPR")
    p.add_argument("--custom-edge", action="append", default=[], metavar="NAME=EXPR")
    p.add_argument("--out", default=None, help="report CSV path")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        # A bad --out path stops the command before any work.
        if out and os.path.isdir(out):
            raise ValueError(f"{out}: is a directory")
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise ValueError(f"{os.path.dirname(out)}: no such output directory")
        return args.fn(args)
    # MemoryError: a per-point array numpy refuses (a vast --budget)
    except (ValueError, RuntimeError, MemoryError) as exc:
        raise SystemExit(f"error: {exc}")
    except KeyboardInterrupt:
        # Every output file goes through _emit, so none is left behind.
        print(f"{args.command}: interrupted", file=sys.stderr)
        return 130


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
