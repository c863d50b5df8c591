"""Dynamic decision trees with provable per-update maintenance guarantees."""

from .core import (
    ActiveMultiset,
    ExampleNotFound,
    FeasibilityParams,
    FeatureKind,
    LabeledExample,
    Schema,
    SchemaError,
    Split,
    TreeNode,
    majority_label,
    make_example,
)
from .gini import (
    GainResult,
    best_split,
    gini_gain,
    gini_index,
    relative_edit_distance,
)
from .build import build
from .dynamic import DecisionTree, RebuildInfo
from .oracle import (
    CounterReport,
    FeasibilityReport,
    audit_smoothness,
    check_counters,
    check_feasibility,
    exact_feature_gains,
    exact_gain,
    exact_gini,
    exhaustive_split_search,
    generate_index_instance,
)
from .harness import (
    StreamConfig,
    StreamMetrics,
    VerificationError,
    emit_metrics,
    load_stream,
    prequential_f1,
    run_incremental,
    run_random_update,
    run_sliding_window,
)
from .synth import era_flip_stream, mixed_stream, threshold_stream

__version__ = "0.1.0"

__all__ = [
    "ActiveMultiset",
    "CounterReport",
    "DecisionTree",
    "ExampleNotFound",
    "FeasibilityParams",
    "FeasibilityReport",
    "FeatureKind",
    "GainResult",
    "LabeledExample",
    "RebuildInfo",
    "Schema",
    "SchemaError",
    "Split",
    "StreamConfig",
    "StreamMetrics",
    "TreeNode",
    "VerificationError",
    "audit_smoothness",
    "best_split",
    "build",
    "check_counters",
    "check_feasibility",
    "emit_metrics",
    "era_flip_stream",
    "exact_feature_gains",
    "exact_gain",
    "exact_gini",
    "exhaustive_split_search",
    "generate_index_instance",
    "gini_gain",
    "gini_index",
    "load_stream",
    "majority_label",
    "make_example",
    "mixed_stream",
    "prequential_f1",
    "relative_edit_distance",
    "run_incremental",
    "run_random_update",
    "run_sliding_window",
    "threshold_stream",
]
