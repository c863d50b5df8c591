"""Command line entry point for streaming runs over CSV data."""

from __future__ import annotations

import argparse
import json
import sys

from .core import FeasibilityParams
from .harness import RUNNERS, StreamConfig, VerificationError, emit_metrics, load_stream


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
    run.add_argument(
        "--mode", choices=("incremental", "sw", "ru"), default="incremental"
    )
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
        help="run the feasibility and counter oracles after every update",
    )
    run.add_argument("--out", default=None, help="write a JSON summary here")
    run.add_argument("--series", default=None, help="write a per-step CSV here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        examples = load_stream(args.data, args.label, args.positive)
        metrics = RUNNERS[args.mode](examples, config)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = emit_metrics(metrics, args.out, config=config, series_path=args.series)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
