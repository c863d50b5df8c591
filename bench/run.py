"""Benchmark of the dynamic tree engine on three prequential workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload numeric-sw-lazy --seed 1 --seconds 30 --trace 0

The engine is imported from the checkout's ``src`` directory. Inputs are
generated from ``--seed`` before timing starts. The measured phase is a
fixed number of whole rounds, set by ``--seconds``; every round replays
the same segments (see ``workloads.py``). A step is one
``DecisionTree.query`` plus that step's ``DecisionTree.update`` calls, in
the harness runners' order, each step starting when the previous one
returns (a closed loop with one client). Timings are scaled to a nominal
machine speed (see ``calibration.py``). Correctness checks run between
timed chunks.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` rounds alternate between
untraced and traced, and the JSON holds the per-layer metrics of the
traced rounds. Both write the full result under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"

# Each workload's round is sized to take about ROUND_SECONDS on a 2-core
# Xeon VM. --seconds fixes the number of rounds, never less than MIN_ROUNDS,
# so that a faster engine is measured on the same work, not on more of it.
ROUND_SECONDS = 10.0
MIN_ROUNDS = 3
SETUP_REPS = 3  # timed set-ups per segment per round; the last one is used
WARMUP_SHARE = 0.1  # share of the first segment's steps run untimed first
TAIL_BEYOND = 10  # samples a tail percentile must leave above it
MIN_TAIL_SAMPLES = 40


def _import_engine():
    """Import dyntree from this checkout only, never from elsewhere."""
    if not (SRC / "dyntree" / "__init__.py").is_file():
        sys.exit(f"bench: no engine source at {SRC / 'dyntree'}")
    sys.path.insert(0, str(SRC))
    import dyntree

    if Path(dyntree.__file__).resolve().parent != SRC / "dyntree":
        sys.exit(f"bench: imported dyntree from {dyntree.__file__}, not {SRC}")
    return dyntree


dyntree = _import_engine()
sys.path.insert(0, str(Path(__file__).resolve().parent))

from dyntree import (  # noqa: E402
    ActiveMultiset,
    DecisionTree,
    Schema,
    check_counters,
    check_feasibility,
)
from calibration import CHUNK_NS, NOMINAL_NS, reference_ns  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Segment, Workload, prepare  # noqa: E402


@dataclass
class Round:
    """What one pass over a workload's segments did and how long it took.

    Timings are raw nanoseconds. ``chunks`` holds, per chunk of timed
    steps, ``(engine_ns, reference_ns, steps)`` and the lengths the three
    latency arrays had at the chunk's end, so each call can be scaled by
    its own chunk's calibration (see ``calibration.py``).
    """

    setup_s: list = field(default_factory=list)  # scaled, one per set-up
    chunks: list = field(default_factory=list)
    # per-call latencies, packed so they do not swell the resident set
    update_ns: array = field(default_factory=lambda: array("q"))  # no rebuild
    rebuild_ns: array = field(default_factory=lambda: array("q"))  # rebuilt
    query_ns: array = field(default_factory=lambda: array("q"))
    attempted: Counter = field(default_factory=Counter)  # calls per kind
    failed: Counter = field(default_factory=Counter)  # calls that raised, per kind
    outcome: Counter = field(default_factory=Counter)  # tp/tn/fp/fn, touches, rebuilds
    problems: list = field(default_factory=list)

    @property
    def steps(self) -> int:
        return sum(c[2] for c in self.chunks)

    @property
    def step_ns(self) -> int:
        """Raw time spent in timed steps."""
        return sum(c[0] for c in self.chunks)

    def scale(self) -> np.ndarray:
        """Per chunk: the factor that takes raw time to nominal speed."""
        return np.array([NOMINAL_NS / c[1] for c in self.chunks])

    def scaled(self, which: int) -> np.ndarray:
        """Scaled latencies of the updates (0), rebuilds (1) or queries (2)."""
        raw = np.frombuffer((self.update_ns, self.rebuild_ns, self.query_ns)[which],
                            dtype=np.int64)
        ends = [c[3 + which] for c in self.chunks]
        counts = np.diff([0] + ends)
        return raw * np.repeat(self.scale(), counts)

    @property
    def scaled_step_ns(self) -> float:
        return float(np.dot([c[0] for c in self.chunks], self.scale()))


def _setup(segment: Segment, workload: Workload, schema: Schema):
    """Ingest the warm window and build; returns the tree and scaled seconds."""
    ref = reference_ns()
    t0 = time.perf_counter_ns()
    tree = DecisionTree.from_multiset(
        ActiveMultiset.from_examples(segment.warm, schema), workload.params
    )
    dt = time.perf_counter_ns() - t0
    ref = (ref + reference_ns()) / 2
    return tree, dt * NOMINAL_NS / ref / 1e9


def _drive(tree, steps, rnd: Round) -> None:
    """The timed loop: query and update, timing each call.

    Every CHUNK_NS of engine work the reference kernel runs once, outside
    the timed chunks; a chunk's calibration is the mean of the kernel
    times on either side of it.
    """
    pc = time.perf_counter_ns
    query, update = tree.query, tree.update
    upd, reb, qry = rnd.update_ns, rnd.rebuild_ns, rnd.query_ns
    out = rnd.outcome

    def apply(example, op):
        try:
            t0 = pc()
            info = update(example, op)
            dt = pc() - t0
        except Exception:  # a failed call is counted, and the run goes on
            _note_failure(rnd, "update")
            return
        (upd if info is None else reb).append(dt)

    def close(ref_before):
        ref_after = reference_ns()
        rnd.chunks.append((end - start, (ref_before + ref_after) / 2, n,
                           len(upd), len(reb), len(qry)))
        return ref_after

    ref = reference_ns()
    n = 0
    start = pc()
    for before, features, label, after in steps:
        for example, op in before:
            apply(example, op)
        try:
            t0 = pc()
            yhat = query(features)
            qry.append(pc() - t0)
        except Exception:
            _note_failure(rnd, "query")
        else:
            if yhat == label:
                out["tp" if label else "tn"] += 1
            else:
                out["fp" if yhat else "fn"] += 1
        for example, op in after:
            apply(example, op)
        n += 1
        end = pc()
        if end - start >= CHUNK_NS:
            ref = close(ref)
            n = 0
            start = pc()
    if n:
        end = pc()
        close(ref)


def _note_failure(rnd: Round, kind: str) -> None:
    rnd.failed[kind] += 1
    if rnd.failed.total() <= 3:
        print(f"bench: {kind} raised:\n{traceback.format_exc()}", file=sys.stderr)


def _check(tree, shadow: Counter, workload: Workload, schema: Schema) -> list:
    """Compare the engine's state with the benchmark's own shadow multiset."""
    problems = []
    union = dict(tree.leaf_union().items())
    if union != shadow:
        diff = (Counter(union) - shadow) + (shadow - Counter(union))
        problems.append(f"leaf union differs from shadow on {sum(diff.values())} examples")
    truth = ActiveMultiset.from_examples(shadow.elements(), schema)
    counters = check_counters(tree, truth, workload.params.epsilon)
    if not counters.ok:
        problems.append(f"counter invariant: {counters.detail}")
    st = tree.stats
    budget = 4.0 / workload.params.epsilon * st.updates * st.max_height
    if st.rebuild_touches > budget:
        problems.append(f"rebuild touches {st.rebuild_touches} exceed "
                        f"(4/eps)*updates*max_height = {budget:g}")
    if workload.params.guaranteed:
        feasible = check_feasibility(tree, truth, workload.params)
        if not feasible.ok:
            problems.append(f"feasibility: {feasible}")
    return problems


def run_round(segments, workload, schema, checkpoints: bool, tracer=None) -> Round:
    rnd = Round()
    for index, segment in enumerate(segments):
        for _ in range(SETUP_REPS):
            tree, seconds = _setup(segment, workload, schema)
            rnd.setup_s.append(seconds)
        stops = sorted(segment.shadows) if checkpoints else [len(segment.steps)]
        done = 0
        for stop in stops:
            chunk = segment.steps[done:stop]
            if tracer is not None:
                tracer.active = True
            _drive(tree, chunk, rnd)
            if tracer is not None:
                tracer.active = False
            rnd.attempted["query"] += len(chunk)
            rnd.attempted["update"] += sum(len(b) + len(a) for b, _, _, a in chunk)
            done = stop
            rnd.problems += [f"segment {index}, step {stop}: {p}"
                             for p in _check(tree, segment.shadows[stop], workload, schema)]
        rnd.outcome["touches"] += tree.stats.rebuild_touches
        rnd.outcome["rebuilds"] += tree.stats.rebuild_count
    return rnd


def f1_score(outcome: Counter) -> float:
    tp, fp, fn = outcome["tp"], outcome["fp"], outcome["fn"]
    return 2.0 * tp / (2 * tp + fp + fn) if tp else 0.0


def layer_metrics(tracer: Tracer, rnd: Round) -> dict:
    spans = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return spans[name][0]

    def self_s(name):
        return spans[name][2] / 1e9

    rebuilds = calls("dynamic.rebuild")
    unchanged = counts["dynamic.rebuild_unchanged"]
    phase = rnd.step_ns / 1e9
    loop_self = (rnd.step_ns - tracer.top_ns) / 1e9
    accounted = sum(rec[2] for rec in spans.values()) / 1e9 + loop_self
    return {
        "core.validate_calls": (calls("core.validate"), "calls"),
        "core.validate_s": (self_s("core.validate"), "s"),
        "core.multiset_edit_calls": (calls("core.multiset_edit"), "calls"),
        "core.multiset_edit_s": (self_s("core.multiset_edit"), "s"),
        "core.leaf_materialize_calls": (calls("core.leaf_materialize"), "calls"),
        "core.leaf_materialize_s": (self_s("core.leaf_materialize"), "s"),
        "core.leaf_materialize_entries": (counts["core.leaf_materialize_entries"], "entries"),
        "dynamic.update_self_s": (self_s("dynamic.update"), "s"),
        "dynamic.query_self_s": (self_s("dynamic.query"), "s"),
        "dynamic.route_steps": (counts["dynamic.route_steps"], "steps"),
        "dynamic.rebuild_count": (rebuilds, "rebuilds"),
        "dynamic.rebuild_self_s": (self_s("dynamic.rebuild"), "s"),
        "dynamic.gather_s": (self_s("dynamic.gather"), "s"),
        "dynamic.gather_entries": (counts["dynamic.gather_entries"], "entries"),
        "dynamic.rebuild_unchanged": (unchanged, "rebuilds"),
        "dynamic.rebuild_useful_ratio": (
            (rebuilds - unchanged) / rebuilds if rebuilds else 0.0, "ratio"),
        "build.generic_calls": (calls("build.generic"), "calls"),
        "build.generic_self_s": (self_s("build.generic"), "s"),
        "build.generic_entries": (counts["build.generic_entries"], "entries"),
        "build.nodes": (counts["build.nodes"], "nodes"),
        "build.categorical_calls": (calls("build.categorical"), "calls"),
        "build.categorical_self_s": (self_s("build.categorical"), "s"),
        "gini.sweep_numeric_calls": (calls("gini.sweep_numeric"), "calls"),
        "gini.sweep_numeric_s": (self_s("gini.sweep_numeric"), "s"),
        "gini.sweep_numeric_rows": (counts["gini.sweep_numeric_rows"], "rows"),
        "gini.gain_calls": (counts["gini.gain_calls"], "calls"),
        "trace.bookkeeping_s": (self_s("trace.bookkeeping"), "s"),
        "bench.loop_self_s": (loop_self, "s"),
        "trace.phase_s": (phase, "s"),
        "trace.accounted_share": (accounted / phase, "ratio"),
    }


def _median_metrics(per_round: list) -> dict:
    """Per metric, the median over traced rounds; counts repeat exactly."""
    out = {}
    for name, (value, unit) in per_round[0].items():
        values = [r[name][0] for r in per_round]
        out[name] = (value if len(set(values)) == 1 else statistics.median(values), unit)
    return out


def end_to_end(rounds: list) -> tuple[dict, dict]:
    """Metrics as (value, unit), and each timing's sample count.

    Timings are scaled to nominal machine speed. Latency percentiles pool
    the calls of all rounds, except the tail, which is taken in each round
    (where it keeps TAIL_BEYOND calls above it) and then reported as the
    median over rounds.
    """
    first = rounds[0]
    if len(first.rebuild_ns) < MIN_TAIL_SAMPLES:
        sys.exit(f"bench: {len(first.rebuild_ns)} rebuilds per round; "
                 f"a tail needs {MIN_TAIL_SAMPLES}")
    upd, reb, qry = (np.concatenate([r.scaled(k) for r in rounds]) for k in range(3))
    setups = [x for r in rounds for x in r.setup_s]
    tails = [np.sort(r.scaled(1))[-TAIL_BEYOND - 1] for r in rounds]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "steps_per_s": (sum(r.steps for r in rounds) * 1e9
                        / sum(r.scaled_step_ns for r in rounds), "steps/s"),
        "update_p50_us": (float(np.median(upd)) / 1e3, "us"),
        "rebuild_p50_ms": (float(np.median(reb)) / 1e6, "ms"),
        "rebuild_tail_ms": (float(np.median(tails)) / 1e6, "ms"),
        "query_p50_us": (float(np.median(qry)) / 1e3, "us"),
        "rebuild_touches": (first.outcome["touches"], "examples"),
        "f1": (f1_score(first.outcome), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {
        "setup_s": len(setups),
        "steps_per_s": sum(r.steps for r in rounds),
        "update_p50_us": len(upd),
        "rebuild_p50_ms": len(reb),
        "rebuild_tail_ms": len(first.rebuild_ns),
        "query_p50_us": len(qry),
        "rebuild_touches": first.outcome["rebuilds"],
        "f1": sum(first.outcome[k] for k in ("tp", "tn", "fp", "fn")),
    }
    return metrics, samples


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    segments = prepare(workload, args.seed)
    schema = Schema.infer(segments[0].warm[0].features)
    # the inputs are not the system under test: keep them out of the
    # collector's generations so they do not lengthen its pauses
    gc.collect()
    gc.freeze()

    warm = segments[0]
    tree, _ = _setup(warm, workload, schema)
    _drive(tree, warm.steps[: int(len(warm.steps) * WARMUP_SHARE)], Round())

    tracer = Tracer() if args.trace else None
    n_rounds = max(MIN_ROUNDS, round(args.seconds / ROUND_SECONDS))
    if tracer is not None:
        n_rounds = max(2, (n_rounds + 1) // 2) * 2
    untraced, traced, layers = [], [], []
    while len(untraced) + len(traced) < n_rounds:
        if tracer is not None and len(traced) < len(untraced):
            tracer.install()
            tracer.reset()
            try:
                rnd = run_round(segments, workload, schema, False, tracer)
            finally:
                tracer.active = False
                tracer.uninstall()
            layers.append(layer_metrics(tracer, rnd))
            traced.append(rnd)
        else:
            untraced.append(run_round(segments, workload, schema, not untraced))
    rounds = untraced + traced

    problems = [p for r in rounds for p in r.problems]
    reference = rounds[0].outcome
    for i, r in enumerate(rounds[1:], start=2):
        if r.outcome != reference:
            problems.append(f"round {i} differs from round 1: {dict(r.outcome)} "
                            f"vs {dict(reference)}")

    metrics, samples = end_to_end(untraced)
    report = {"workload": workload.name, "seed": args.seed, "rounds": len(rounds),
              "end_to_end": {k: {"value": v, "unit": u, "samples": samples.get(k)}
                             for k, (v, u) in metrics.items()},
              "problems": problems}
    if tracer is not None:
        per_layer = _median_metrics(layers)
        per_layer["trace.overhead_ratio"] = (
            sum(r.scaled_step_ns for r in traced)
            / sum(r.scaled_step_ns for r in untraced), "ratio")
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        report["spans_of_last_traced_round"] = tracer.edges()
        shown = per_layer
    else:
        shown = metrics

    for k, (v, u) in shown.items():
        n = samples.get(k) if tracer is None else None
        print(f"{k:32s} {v:14.6g} {u:9s}" + (f" n={n}" if n is not None else ""))
    attempted = sum((r.attempted for r in rounds), Counter())
    failed = sum((r.failed for r in rounds), Counter())
    for kind in ("update", "query"):
        print(f"{kind} calls: {attempted[kind]} attempted, {failed[kind]} raised")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted.total(),
        "failed": failed.total(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
