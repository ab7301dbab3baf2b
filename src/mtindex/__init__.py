"""Multiplicative degree-based topological indices on random networks.

Log-space index evaluation, seeded ER/RG/BR ensembles, dense-limit
predictions, scaling-collapse checks, and numeric verification of
sum-vs-product inequalities.
"""

from .dense import (
    DENSE_REGIME_MEAN_DEGREE,
    UnsupportedIndexError,
    predict_br,
    predict_br_per_vertex,
    scaling_curve,
)
from .ensemble import (
    CollapseReport,
    EnsembleSpec,
    EnsembleStats,
    collapse_check,
    read_results_csv_path,
    replicas_for,
    run_point,
    split_curves,
    sweep,
    write_results_csv_path,
)
from .graph import (
    Graph,
    GraphError,
    build_graph,
    read_edge_list,
    read_edge_list_path,
    write_edge_list,
    write_edge_list_path,
)
from .indices import (
    ADDITIVE_NAMES,
    EXCLUDE,
    EdgeFunction,
    EvaluationError,
    LOGZERO,
    LogIndexValue,
    MULTIPLICATIVE_NAMES,
    VertexFunction,
    additive_index,
    ln_indices_from_arrays,
    ln_multiplicative_index,
)
from .inequalities import (
    BoundsWindow,
    InequalityCheck,
    petrovic_counterexample,
    run_all_checks,
    verify_corpus,
)
from .models import (
    MAX_RADIUS,
    ModelSpec,
    SeedDerivation,
    bipartite,
    br_probability_for_mean_degree,
    erdos_renyi,
    g_of_r,
    generate,
    mean_degree,
    probability_for_mean_degree,
    radius_for_mean_degree,
    random_geometric,
)

__version__ = "0.1.0"
