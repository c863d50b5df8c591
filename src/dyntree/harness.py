"""Streaming evaluation: prequential scoring over three update models.

run_stream replays a stream under the model that StreamConfig.mode names
(insert-only, sliding window or random updates).  Each step predicts the
next example's label before the engine sees it, then feeds the step's
updates to the tree.  Metrics exclude the warm-start prefix, which is
consumed by one exact build.  With verification enabled, the ground-truth
multiset is maintained alongside the engine and the oracle checks the
counters after every single update, and feasibility too when the params
are in the guaranteed regime, the only one where the contract promises
it.
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
from .dynamic import DecisionTree, TreeStats
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
        if self.warmup is not None and self.warmup < 0:
            raise ValueError(f"warmup must be nonnegative, got {self.warmup}")
        if self.mode == "sw":
            if self.window is None or self.window < 1:
                raise ValueError("sliding-window mode needs a positive window")
            if self.warmup is not None and self.warmup > self.window:
                raise ValueError("warmup cannot exceed the window")
        elif self.window is not None:
            raise ValueError(f"window applies to sw mode only, not {self.mode!r}")

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
    per individual engine update, setup_nanos the time the warm-start
    prefix took to ingest and build (0 for an empty stream), and stats
    the tree's own counters.
    """

    predictions: list = field(default_factory=list)
    step_nanos: list = field(default_factory=list)
    per_update_nanos: list = field(default_factory=list)
    setup_nanos: int = 0
    f1: float = 0.0
    stats: TreeStats = field(default_factory=TreeStats)


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
    # each feature column's cells, as floats when every one parses as one
    columns = []
    for j in feature_idx:
        cells = [row[j] for row in data]
        try:
            cells = list(map(float, cells))
        except ValueError:
            pass
        columns.append(cells)

    out = []
    rows_feats = zip(*columns) if columns else [()] * len(data)
    for rownum, row, feats in zip(range(2, len(data) + 2), data, rows_feats):
        nan = [header[j] for j, v in zip(feature_idx, feats) if v != v]
        if nan:
            raise ValueError(f"row {rownum}: NaN in real column {nan[0]!r}")
        out.append(make_example(feats, 1 if row[label_idx] == positive_class else 0))
    return out


def _verify_step(tree: DecisionTree, shadow: ActiveMultiset, config: StreamConfig):
    if config.params.guaranteed:
        rep = check_feasibility(tree, shadow, config.params)
        if not rep.ok:
            raise VerificationError(str(rep))
    crep = check_counters(tree, shadow, config.params.epsilon)
    if not crep.ok:
        raise VerificationError(f"counter invariant: {crep.detail}")


def run_stream(
    examples: Sequence[LabeledExample], config: StreamConfig
) -> StreamMetrics:
    """Replay examples under config.mode and score each step prequentially.

    Every step predicts its example's label before the engine sees it.
    incremental then inserts the example.  sw deletes the oldest example
    before predicting once the window is full, then inserts, so the active
    set holds min(t, window) examples.  ru flips a coin after predicting:
    insert the example, or delete a uniform active one; a delete drawn
    against an empty active set becomes an insert.  Runs are fully
    deterministic for a given seed.
    """
    metrics = StreamMetrics()
    if not examples:
        return metrics
    mode = config.mode
    warm = min(config.effective_warmup, len(examples))
    schema = Schema.infer(examples[0].features)
    t0 = time.perf_counter_ns()
    warm_set = ActiveMultiset.from_examples(examples[:warm], schema)
    tree = DecisionTree.from_multiset(warm_set, config.params)
    metrics.setup_nanos = time.perf_counter_ns() - t0
    # the tree was built over a copy of warm_set, which it left as it was
    shadow = warm_set.copy() if config.verify else None
    if shadow is not None:
        _verify_step(tree, shadow, config)

    def apply(example: LabeledExample, op: str) -> int:
        t0 = time.perf_counter_ns()
        tree.update(example, op)
        dt = time.perf_counter_ns() - t0
        metrics.per_update_nanos.append(dt)
        if shadow is not None:
            if op == "ins":
                shadow.insert(example)
            else:
                shadow.delete(example)
            _verify_step(tree, shadow, config)
        return dt

    rng = random.Random(config.seed)
    active = deque(examples[:warm]) if mode == "sw" else list(examples[:warm])
    for t, e in enumerate(examples[warm:], start=warm + 1):
        nanos = 0
        if mode == "sw" and len(active) >= config.window:
            nanos += apply(active.popleft(), "del")
        yhat = tree.query(e.features)
        if mode == "ru" and rng.random() >= 0.5 and active:
            i = rng.randrange(len(active))
            victim = active[i]
            active[i] = active[-1]
            active.pop()
            nanos += apply(victim, "del")
        else:
            nanos += apply(e, "ins")
            active.append(e)
        metrics.predictions.append((t, yhat, e.label))
        metrics.step_nanos.append(nanos)

    if metrics.predictions:
        metrics.f1 = prequential_f1(
            [y for _, _, y in metrics.predictions],
            [p for _, p, _ in metrics.predictions],
        )
    metrics.stats = tree.stats
    return metrics


def emit_metrics(
    metrics: StreamMetrics,
    path=None,
    config: Optional[StreamConfig] = None,
    series_path=None,
) -> dict:
    """Summarize a run; write the summary as JSON to path when given, and
    the steps as CSV to series_path when given.

    The summary holds every ``TreeStats`` counter under its own name, and
    the set-up time as ``setup_nanos``.
    Update-time percentiles interpolate linearly between the two nearest
    ranks, as statistics.median does; they are None for a run of no update.
    """
    upd = sorted(metrics.per_update_nanos)

    def percentile(p: int):
        if not upd:
            return None
        i, r = divmod(p * (len(upd) - 1), 100)
        return upd[i] if r == 0 else (upd[i] * (100 - r) + upd[i + 1] * r) / 100

    summary = {
        "f1": metrics.f1,
        "predictions": len(metrics.predictions),
        **asdict(metrics.stats),
        "mean_update_nanos": statistics.fmean(upd) if upd else None,
        "median_update_nanos": percentile(50),
        "p90_update_nanos": percentile(90),
        "p99_update_nanos": percentile(99),
        "max_update_nanos": percentile(100),
        "setup_nanos": metrics.setup_nanos,
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
