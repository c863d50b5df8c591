"""Time the engine across stream modes on synthetic data.

Each mode replays a seeded stream and reports the per-update engine time
distribution plus rebuild statistics, so regressions in the hot paths
show up as shifted percentiles.  The "faults/upd" column is the minor
page faults of this process over the mode's run (``getrusage``, set-up
included) per update: a rebuild path that gets fresh memory from the
system for its temporaries shows up there.
"""

import argparse
import resource
import statistics
import sys

from dyntree import (
    FeasibilityParams,
    StreamConfig,
    mixed_stream,
    run_stream,
    threshold_stream,
)
from dyntree.harness import MODES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=(*MODES, "all"), default="all")
    parser.add_argument("--n", type=int, default=20_000, help="stream length")
    parser.add_argument("--d", type=int, default=8)
    parser.add_argument("--mixed", action="store_true",
                        help="use a stream with categorical features")
    parser.add_argument("--window", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--alpha", type=float, default=0.3)
    parser.add_argument("--beta", type=float, default=0.4)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--h", type=int, default=8)
    return parser


def percentile(sorted_values, q):
    i = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[i]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.mixed:
        half = max(1, args.d // 2)
        stream = mixed_stream(args.n, d_num=half, d_cat=args.d - half,
                              seed=args.seed)
    else:
        stream = threshold_stream(args.n, d=args.d, seed=args.seed)
    params = FeasibilityParams(
        epsilon=args.epsilon, alpha=args.alpha, beta=args.beta,
        k=args.k, h=args.h,
    )
    modes = MODES if args.mode == "all" else [args.mode]
    print(f"{'mode':>12} {'updates':>8} {'mean us':>9} {'p50 us':>9} "
          f"{'p90 us':>9} {'max us':>9} {'rebuilds':>9} {'f1':>7} "
          f"{'faults/upd':>10}")
    for mode in modes:
        window = args.window if mode == "sw" else None
        config = StreamConfig(params, mode=mode, window=window, seed=args.seed)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        metrics = run_stream(stream, config)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        nanos = sorted(metrics.per_update_nanos)
        if nanos:
            timings = (statistics.fmean(nanos), percentile(nanos, 0.5),
                       percentile(nanos, 0.9), nanos[-1])
            timing = " ".join(f"{t / 1000:>9.1f}" for t in timings)
            faults = f"{faults / len(nanos):>10.2f}"
        else:  # the stream ended before the mode's first update
            timing = " ".join([f"{'-':>9}"] * 4)
            faults = f"{'-':>10}"
        print(f"{mode:>12} {metrics.n_updates:>8} {timing} "
              f"{metrics.rebuild_count:>9} {metrics.f1:>7.4f} {faults}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
