"""Streaming evaluation: prequential scoring over three update models.

Each runner predicts the next example's label before the engine sees it,
then feeds the step's updates to the tree.  Metrics exclude the warm-start
prefix, which is consumed by one exact build.  With verification enabled,
the ground-truth multiset is maintained alongside the engine and the
oracle checks feasibility and counters after every single update.
"""

from __future__ import annotations

import csv
import json
import random
import statistics
import time
from collections import deque
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional, Sequence

from .core import (
    ActiveMultiset,
    FeasibilityParams,
    LabeledExample,
    Schema,
    make_example,
)
from .dynamic import DecisionTree
from .oracle import check_counters, check_feasibility

MODES = ("incremental", "sw", "ru")


class VerificationError(AssertionError):
    """A per-update oracle check failed during a harness run."""


@dataclass
class StreamConfig:
    """Knobs of one harness run."""

    params: FeasibilityParams
    mode: str = "incremental"
    window: Optional[int] = None
    warmup: Optional[int] = None
    seed: int = 0
    verify: bool = False
    dataset_path: Optional[str] = None
    label_column: Optional[str] = None
    positive_class: Optional[str] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "sw":
            if self.window is None or self.window < 1:
                raise ValueError("sliding-window mode needs a positive window")
            if self.warmup is not None and self.warmup > self.window:
                raise ValueError("warmup cannot exceed the window")

    @property
    def effective_warmup(self) -> int:
        if self.warmup is not None:
            return self.warmup
        return self.window if self.mode == "sw" else 0


@dataclass
class StreamMetrics:
    """Outcome of one harness run.

    predictions holds (t, predicted, actual) per scored step, step_nanos
    the engine time each step spent in updates, per_update_nanos one entry
    per individual engine update.
    """

    predictions: list = field(default_factory=list)
    step_nanos: list = field(default_factory=list)
    per_update_nanos: list = field(default_factory=list)
    f1: float = 0.0
    n_updates: int = 0
    rebuild_count: int = 0
    rebuild_example_touches: int = 0
    rebuild_reused_touches: int = 0
    max_height: int = 0


def prequential_f1(y_true: Sequence[int], y_pred: Sequence[int]) -> float:
    """F1 on the positive class; 0 when precision + recall is 0."""
    if len(y_true) != len(y_pred):
        raise ValueError(
            f"length mismatch: {len(y_true)} labels vs {len(y_pred)} predictions"
        )
    if len(y_true) == 0:
        raise ValueError("prequential_f1 needs at least one prediction")
    tp = fp = fn = 0
    for yt, yp in zip(y_true, y_pred):
        if yp == 1 and yt == 1:
            tp += 1
        elif yp == 1:
            fp += 1
        elif yt == 1:
            fn += 1
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def load_stream(
    path, label_column: str, positive_class: str
) -> list[LabeledExample]:
    """Read a headered CSV into labeled examples.

    Columns whose every value parses as a float become real features, all
    others categorical symbols; a NaN in a real column is an error.  The
    label column is picked by name, or by zero-based index when the name is
    not in the header; its values map to 1 when equal to positive_class and
    0 otherwise.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return []
    header, data = rows[0], rows[1:]
    if label_column in header:
        label_idx = header.index(label_column)
    else:
        try:
            label_idx = int(label_column)
        except ValueError:
            raise ValueError(
                f"label column {label_column!r} not in header {header}"
            ) from None
        if not 0 <= label_idx < len(header):
            raise ValueError(f"label column index {label_idx} out of range")

    for rownum, row in enumerate(data, start=2):
        if len(row) != len(header):
            raise ValueError(
                f"row {rownum}: expected {len(header)} fields, got {len(row)}"
            )
        if not row[label_idx].strip():
            raise ValueError(f"row {rownum}: empty label value")

    feature_idx = [j for j in range(len(header)) if j != label_idx]
    numeric = []
    for j in feature_idx:
        try:
            for row in data:
                float(row[j])
            numeric.append(True)
        except ValueError:
            numeric.append(False)

    out = []
    for rownum, row in enumerate(data, start=2):
        feats = tuple(
            float(row[j]) if is_num else row[j]
            for j, is_num in zip(feature_idx, numeric)
        )
        nan = [header[j] for j, v in zip(feature_idx, feats) if v != v]
        if nan:
            raise ValueError(f"row {rownum}: NaN in real column {nan[0]!r}")
        out.append(make_example(feats, 1 if row[label_idx] == positive_class else 0))
    return out


def _verify_step(tree: DecisionTree, shadow: ActiveMultiset, config: StreamConfig):
    rep = check_feasibility(tree, shadow, config.params)
    if not rep.ok:
        raise VerificationError(str(rep))
    crep = check_counters(tree, shadow, config.params.epsilon)
    if not crep.ok:
        raise VerificationError(f"counter invariant: {crep.detail}")


class _Session:
    """Shared plumbing for the runners: warm start, timing, verification."""

    def __init__(self, examples: Sequence[LabeledExample], config: StreamConfig):
        self.config = config
        self.metrics = StreamMetrics()
        self.warm = min(config.effective_warmup, len(examples))
        self.examples = examples
        if not examples:
            self.tree = None
            return
        schema = Schema.infer(examples[0].features)
        warm_set = ActiveMultiset.from_examples(examples[: self.warm], schema)
        self.shadow = warm_set.copy() if config.verify else None
        if self.warm:
            self.tree = DecisionTree.from_multiset(warm_set, config.params)
        else:
            self.tree = DecisionTree.empty(config.params, schema)
        if config.verify:
            _verify_step(self.tree, self.shadow, config)

    def apply(self, example: LabeledExample, op: str) -> int:
        t0 = time.perf_counter_ns()
        self.tree.update(example, op)
        dt = time.perf_counter_ns() - t0
        self.metrics.per_update_nanos.append(dt)
        if self.shadow is not None:
            if op == "ins":
                self.shadow.insert(example)
            else:
                self.shadow.delete(example)
            _verify_step(self.tree, self.shadow, self.config)
        return dt

    def finish(self) -> StreamMetrics:
        m = self.metrics
        if m.predictions:
            m.f1 = prequential_f1(
                [y for _, _, y in m.predictions],
                [p for _, p, _ in m.predictions],
            )
        if self.tree is not None:
            m.n_updates = self.tree.stats.updates
            m.rebuild_count = self.tree.stats.rebuild_count
            m.rebuild_example_touches = self.tree.stats.rebuild_touches
            m.rebuild_reused_touches = self.tree.stats.reused_touches
            m.max_height = self.tree.stats.max_height
        return m


def run_incremental(
    examples: Sequence[LabeledExample], config: StreamConfig
) -> StreamMetrics:
    """Insert-only model: predict, then insert, for every example."""
    ses = _Session(examples, config)
    if ses.tree is None:
        return ses.metrics
    for t, e in enumerate(examples[ses.warm :], start=ses.warm + 1):
        yhat = ses.tree.query(e.features)
        dt = ses.apply(e, "ins")
        ses.metrics.predictions.append((t, yhat, e.label))
        ses.metrics.step_nanos.append(dt)
    return ses.finish()


def run_sliding_window(
    examples: Sequence[LabeledExample], config: StreamConfig
) -> StreamMetrics:
    """Window model: the oldest example leaves before each new one lands.

    A step first deletes the example falling out of the full window, then
    predicts, then inserts; the active set holds min(t, window) examples.
    """
    ses = _Session(examples, config)
    if ses.tree is None:
        return ses.metrics
    window: deque = deque(examples[: ses.warm])
    for t, e in enumerate(examples[ses.warm :], start=ses.warm + 1):
        nanos = 0
        if len(window) >= config.window:
            nanos += ses.apply(window.popleft(), "del")
        yhat = ses.tree.query(e.features)
        nanos += ses.apply(e, "ins")
        window.append(e)
        ses.metrics.predictions.append((t, yhat, e.label))
        ses.metrics.step_nanos.append(nanos)
    return ses.finish()


def run_random_update(
    examples: Sequence[LabeledExample], config: StreamConfig
) -> StreamMetrics:
    """Coin-flip model: insert the step's example, or delete a uniform
    active one.  A delete drawn against an empty active set becomes an
    insert.  Fully deterministic for a given seed."""
    ses = _Session(examples, config)
    if ses.tree is None:
        return ses.metrics
    rng = random.Random(config.seed)
    active = list(examples[: ses.warm])
    for t, e in enumerate(examples[ses.warm :], start=ses.warm + 1):
        yhat = ses.tree.query(e.features)
        if rng.random() < 0.5 or not active:
            nanos = ses.apply(e, "ins")
            active.append(e)
        else:
            i = rng.randrange(len(active))
            victim = active[i]
            active[i] = active[-1]
            active.pop()
            nanos = ses.apply(victim, "del")
        ses.metrics.predictions.append((t, yhat, e.label))
        ses.metrics.step_nanos.append(nanos)
    return ses.finish()


RUNNERS = {
    "incremental": run_incremental,
    "sw": run_sliding_window,
    "ru": run_random_update,
}


def emit_metrics(
    metrics: StreamMetrics,
    path=None,
    config: Optional[StreamConfig] = None,
    series_path=None,
) -> dict:
    """Summarize a run; write the summary as JSON to path when given, and
    the steps as CSV to series_path when given."""
    upd = metrics.per_update_nanos
    summary = {
        "f1": metrics.f1,
        "predictions": len(metrics.predictions),
        "updates": metrics.n_updates,
        "mean_update_nanos": statistics.fmean(upd) if upd else None,
        "median_update_nanos": statistics.median(upd) if upd else None,
        "rebuild_count": metrics.rebuild_count,
        "rebuild_example_touches": metrics.rebuild_example_touches,
        "rebuild_reused_touches": metrics.rebuild_reused_touches,
        "max_height": metrics.max_height,
        "config": asdict(config) if config is not None else None,
    }
    if path is not None:
        Path(path).write_text(json.dumps(summary, indent=2) + "\n")
    if series_path is not None:
        with open(series_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "y_hat", "y", "nanos"])
            for (t, yhat, y), nanos in zip(metrics.predictions, metrics.step_nanos):
                writer.writerow([t, yhat, y, nanos])
    return summary
