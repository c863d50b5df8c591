"""Sweep the rebuild laziness knob over one synthetic stream.

Replays the same sliding-window stream at several epsilon values and
prints one row per value: engine time per update, rebuild volume and
prequential F1.  The row data can also land in a CSV for plotting.
"""

import argparse
import csv
import statistics
import sys

from dyntree import (
    FeasibilityParams,
    StreamConfig,
    run_stream,
    threshold_stream,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--updates", type=int, default=20_000,
                        help="total engine updates per run (two per step)")
    parser.add_argument("--window", type=int, default=1000)
    parser.add_argument("--d", type=int, default=8, help="feature count")
    parser.add_argument("--noise", type=float, default=0.04)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, nargs="+",
                        default=[0.0, 0.1, 0.5, 1.0])
    parser.add_argument("--alpha", type=float, default=0.3)
    parser.add_argument("--beta", type=float, default=0.4)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--h", type=int, default=8)
    parser.add_argument("--out", default=None, help="write the rows here as CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    n = args.window + args.updates // 2
    stream = threshold_stream(n, d=args.d, seed=args.seed, noise=args.noise)
    rows = []
    print(f"{'epsilon':>8} {'mean us':>10} {'median us':>10} "
          f"{'rebuilds':>9} {'touches':>10} {'f1':>7}")
    for eps in args.epsilon:
        params = FeasibilityParams(
            epsilon=eps, alpha=args.alpha, beta=args.beta, k=args.k, h=args.h
        )
        config = StreamConfig(params, mode="sw", window=args.window,
                              seed=args.seed)
        metrics = run_stream(stream, config)
        mean_us = statistics.fmean(metrics.per_update_nanos) / 1000.0
        median_us = statistics.median(metrics.per_update_nanos) / 1000.0
        rows.append({
            "epsilon": eps,
            "mean_us": round(mean_us, 3),
            "median_us": round(median_us, 3),
            "rebuilds": metrics.rebuild_count,
            "touches": metrics.rebuild_example_touches,
            "f1": round(metrics.f1, 4),
        })
        print(f"{eps:>8g} {mean_us:>10.1f} {median_us:>10.1f} "
              f"{metrics.rebuild_count:>9} "
              f"{metrics.rebuild_example_touches:>10} {metrics.f1:>7.4f}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
