"""Replay one synthetic stream over a grid of stream modes and epsilons.

Each (mode, epsilon) pair replays the same seeded stream and prints one
row of ``harness.emit_metrics``' summary: update count, engine time per
update (mean and percentiles), the set-up time of the warm-start prefix
(ingest and first build), rebuild count and touches, and prequential
F1.  The "faults/upd" column is the minor page faults of this process
over the run (``getrusage``, set-up included) per update: a rebuild path
that gets fresh memory from the system for its temporaries shows up
there.  A run that made no update (its stream ended within the warm-up)
prints "-" in its timing and faults columns.  The rows can also land in
a CSV for plotting.
"""

import argparse
import csv
import resource
import sys

from dyntree import (
    FeasibilityParams,
    StreamConfig,
    emit_metrics,
    mixed_stream,
    run_stream,
    threshold_stream,
)
from dyntree.harness import MODES

# (header, key of emit_metrics' summary or the faults column, format)
COLUMNS = (
    ("updates", "updates", "d"),
    ("mean us", "mean_update_nanos", ".1f"),
    ("p50 us", "median_update_nanos", ".1f"),
    ("p90 us", "p90_update_nanos", ".1f"),
    ("p99 us", "p99_update_nanos", ".1f"),
    ("max us", "max_update_nanos", ".1f"),
    ("setup us", "setup_nanos", ".1f"),
    ("rebuilds", "rebuild_count", "d"),
    ("touches", "rebuild_touches", "d"),
    ("f1", "f1", ".4f"),
    ("faults/upd", "faults_per_update", ".2f"),
)


def _cell(key, value, spec) -> str:
    if value is None:  # a run of no update has no times and no rate
        return f"{'-':>10}"
    if key.endswith("_nanos"):
        value /= 1000
    return f"{value:>10{spec}}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", nargs="+", choices=(*MODES, "all"),
                        default=["all"])
    parser.add_argument("--epsilon", type=float, nargs="+", default=[0.1])
    parser.add_argument("--n", type=int, default=20_000, help="stream length")
    parser.add_argument("--d", type=int, default=8, help="feature count")
    parser.add_argument("--mixed", action="store_true",
                        help="use a stream with categorical features")
    parser.add_argument("--noise", type=float, default=0.05,
                        help="label noise of the all-real stream")
    parser.add_argument("--window", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--alpha", type=float, default=0.3)
    parser.add_argument("--beta", type=float, default=0.4)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--h", type=int, default=8)
    parser.add_argument("--out", default=None, help="write the rows here as CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.mixed:
        half = max(1, args.d // 2)
        stream = mixed_stream(args.n, d_num=half, d_cat=args.d - half,
                              seed=args.seed)
    else:
        stream = threshold_stream(args.n, d=args.d, seed=args.seed,
                                  noise=args.noise)
    modes = MODES if "all" in args.mode else args.mode
    print(f"{'mode':>12} {'epsilon':>10} "
          + " ".join(f"{header:>10}" for header, _, _ in COLUMNS))
    rows = []
    for mode in modes:
        for eps in args.epsilon:
            params = FeasibilityParams(epsilon=eps, alpha=args.alpha,
                                       beta=args.beta, k=args.k, h=args.h)
            window = args.window if mode == "sw" else None
            config = StreamConfig(params, mode=mode, window=window,
                                  seed=args.seed)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            metrics = run_stream(stream, config)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            summary = emit_metrics(metrics)
            updates = summary["updates"]
            summary["faults_per_update"] = faults / updates if updates else None
            row = {"mode": mode, "epsilon": eps}
            row.update((key, summary[key]) for _, key, _ in COLUMNS)
            rows.append(row)
            print(f"{mode:>12} {eps:>10g} " + " ".join(
                _cell(key, row[key], spec) for _, key, spec in COLUMNS))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
