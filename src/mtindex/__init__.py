"""Multiplicative degree-based topological indices on random networks.

Log-space index evaluation, seeded ER/RG/BR ensembles, dense-limit
predictions, scaling-collapse checks, and numeric verification of
sum-vs-product inequalities.

The names below are exported lazily (PEP 562): ``import mtindex`` loads no
submodule, and the first lookup of a name imports the one submodule that
defines it, so a caller pays only for what it uses (mpmath, for one, loads
only with ``inequalities``).
"""

import importlib

_EXPORTS = {
    "dense": ("DENSE_REGIME_MEAN_DEGREE", "UnsupportedIndexError", "predict_br",
              "predict_br_per_vertex", "scaling_curve"),
    "ensemble": ("CollapseReport", "EnsembleSpec", "EnsembleStats", "collapse_check",
                 "read_results_csv_path", "replicas_for", "run_point", "split_curves",
                 "sweep", "write_results_csv_path"),
    "graph": ("Graph", "GraphError", "build_graph", "read_edge_list", "read_edge_list_path",
              "write_edge_list", "write_edge_list_path"),
    "indices": ("ADDITIVE_NAMES", "EXCLUDE", "EdgeFunction", "EvaluationError", "LOGZERO",
                "LogIndexValue", "MULTIPLICATIVE_NAMES", "VertexFunction", "additive_index",
                "ln_indices_from_arrays", "ln_multiplicative_index"),
    "inequalities": ("InequalityCheck", "petrovic_counterexample", "run_all_checks",
                     "verify_corpus"),
    "models": ("MAX_RADIUS", "ModelSpec", "SeedDerivation", "bipartite",
               "br_probability_for_mean_degree", "erdos_renyi", "g_of_r", "generate",
               "mean_degree", "probability_for_mean_degree", "radius_for_mean_degree",
               "random_geometric"),
}

# Exported name -> the submodule that defines it.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
