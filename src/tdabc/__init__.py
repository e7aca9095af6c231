"""Transductive classification over persistence-selected Rips subcomplexes."""

from .baselines import KnnConfig, knn_predict_all
from .classifier import (
    AssociationTable,
    associate,
    classify_all,
    extend,
    handle_isolated,
    handle_unlabeled_link,
)
from .complexes import FilteredComplex, Simplex, simplex
from .evaluation import (
    FoldPlan,
    KnnSpec,
    MetricRecord,
    TdabcSpec,
    default_classifiers,
    fold_metrics,
    ranking_aucs,
    run_experiment,
    stratified_splits,
)
from .persistence import (
    Diagram,
    PersistenceInterval,
    boundary_reduce,
    intervals_above_dim_zero,
)
from .rips import RipsConfig, auto_max_edge, build_rips, pairwise_distances
from .selection import SelectionPolicy, recover

__version__ = "0.1.0"

__all__ = [
    "AssociationTable",
    "Diagram",
    "FilteredComplex",
    "FoldPlan",
    "KnnConfig",
    "KnnSpec",
    "MetricRecord",
    "PersistenceInterval",
    "RipsConfig",
    "SelectionPolicy",
    "Simplex",
    "TdabcSpec",
    "associate",
    "auto_max_edge",
    "boundary_reduce",
    "build_rips",
    "classify_all",
    "default_classifiers",
    "extend",
    "fold_metrics",
    "handle_isolated",
    "handle_unlabeled_link",
    "intervals_above_dim_zero",
    "knn_predict_all",
    "pairwise_distances",
    "ranking_aucs",
    "recover",
    "run_experiment",
    "simplex",
    "stratified_splits",
]
