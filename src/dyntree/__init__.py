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
    make_example,
)
from .build import best_split
from .dynamic import DecisionTree
from .oracle import check_counters, check_feasibility
from .harness import (
    StreamConfig,
    StreamMetrics,
    VerificationError,
    emit_metrics,
    load_stream,
    prequential_f1,
    run_stream,
)
from .synth import mixed_stream, threshold_stream

__version__ = "0.1.0"

__all__ = [
    "ActiveMultiset",
    "DecisionTree",
    "ExampleNotFound",
    "FeasibilityParams",
    "FeatureKind",
    "LabeledExample",
    "Schema",
    "SchemaError",
    "Split",
    "StreamConfig",
    "StreamMetrics",
    "TreeNode",
    "VerificationError",
    "best_split",
    "check_counters",
    "check_feasibility",
    "emit_metrics",
    "load_stream",
    "make_example",
    "mixed_stream",
    "prequential_f1",
    "run_stream",
    "threshold_stream",
]
