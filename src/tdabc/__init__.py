"""Transductive classification over persistence-selected Rips subcomplexes."""

from .baselines import KnnConfig, knn_predict, knn_predict_all
from .classifier import (
    AssociationTable,
    Prediction,
    associate,
    choose_label,
    classify_all,
    extend,
    extend_link_form,
    handle_isolated,
    handle_unlabeled_link,
)
from .complexes import FilteredComplex, Simplex, simplex
from .evaluation import (
    FoldPlan,
    KnnSpec,
    MetricRecord,
    TdabcSpec,
    binary_rates,
    default_classifiers,
    f1,
    gmean,
    pr_auc,
    roc_auc_ovr_macro,
    run_experiment,
    stratified_splits,
)
from .persistence import (
    Diagram,
    PersistenceInterval,
    betti_oracle,
    boundary_reduce,
    intervals_above_dim_zero,
)
from .rips import RipsConfig, auto_max_edge, build_rips, pairwise_distances
from .selection import SelectionPolicy, avg_int, lifetime, max_int, rand_int, recover

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
    "Prediction",
    "RipsConfig",
    "SelectionPolicy",
    "Simplex",
    "TdabcSpec",
    "associate",
    "auto_max_edge",
    "avg_int",
    "betti_oracle",
    "binary_rates",
    "boundary_reduce",
    "build_rips",
    "choose_label",
    "classify_all",
    "default_classifiers",
    "extend",
    "extend_link_form",
    "f1",
    "gmean",
    "handle_isolated",
    "handle_unlabeled_link",
    "intervals_above_dim_zero",
    "knn_predict",
    "knn_predict_all",
    "lifetime",
    "max_int",
    "pairwise_distances",
    "pr_auc",
    "rand_int",
    "recover",
    "roc_auc_ovr_macro",
    "run_experiment",
    "simplex",
    "stratified_splits",
]
