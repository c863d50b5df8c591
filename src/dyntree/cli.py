"""Command line entry point for streaming runs over CSV data."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import FeasibilityParams
from .harness import (
    MODES,
    StreamConfig,
    VerificationError,
    emit_metrics,
    load_stream,
    run_stream,
)


def _parse_h(text: str):
    if text.lower() in ("none", "inf", "unbounded"):
        return None
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyntree", description="Dynamic decision tree streaming harness."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="replay a CSV stream through the tree")
    run.add_argument("--mode", choices=MODES, default="incremental")
    run.add_argument("--data", required=True, help="path to a headered CSV file")
    run.add_argument("--label", required=True, help="label column name or index")
    run.add_argument(
        "--positive", required=True, help="label value mapped to class 1"
    )
    run.add_argument("--epsilon", type=float, default=0.1)
    run.add_argument("--alpha", type=float, default=0.0)
    run.add_argument("--beta", type=float, default=0.0)
    run.add_argument("--k", type=int, default=1)
    run.add_argument(
        "--h", type=_parse_h, default=10, help='depth cap, or "none" for unbounded'
    )
    run.add_argument("--window", type=int, default=None, help="sw mode window size")
    run.add_argument(
        "--warmup",
        type=int,
        default=None,
        help="examples consumed by one initial build (sw default: the window)",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--verify",
        action="store_true",
        help="check counters after every update, feasibility if guaranteed",
    )
    run.add_argument("--out", default=None, help="write a JSON summary here")
    run.add_argument("--series", default=None, help="write a per-step CSV here")
    return parser


def _claim(path) -> list:
    # opens path for appending, so an output that cannot be written fails
    # before the replay, and a file that exists keeps what it holds;
    # returns [path] when this made the file
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    return [] if existed else [path]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    made = []  # output files this run made, removed again if it fails
    try:
        params = FeasibilityParams(
            epsilon=args.epsilon,
            alpha=args.alpha,
            beta=args.beta,
            k=args.k,
            h=args.h,
        )
        config = StreamConfig(
            params=params,
            mode=args.mode,
            window=args.window,
            warmup=args.warmup,
            seed=args.seed,
            verify=args.verify,
            dataset_path=args.data,
            label_column=args.label,
            positive_class=args.positive,
        )
        for path in (args.out, args.series):
            if path is not None:
                made += _claim(path)
        examples = load_stream(args.data, args.label, args.positive)
        metrics = run_stream(examples, config)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        code = 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    else:
        summary = emit_metrics(metrics, args.out, config=config,
                               series_path=args.series)
        print(json.dumps(summary))
        return 0
    for path in made:
        os.remove(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
