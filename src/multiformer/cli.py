"""Command-line entry point.

    mf train    --arch <file|preset> --task <file> --seed N --steps N --out DIR
    mf analyze  --ckpt FILE --arch <file|preset> [--samples N] --seed N --csv F --svg F
    mf avg-ckpt --metrics CSV --dir DIR --out FILE
    mf verify   [--fast]

Exit codes: 0 success, 1 validation/parse error, 2 numerical-check
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis import aggregate_contributions, emit_report
from .checkpoint import CheckpointError, load_into
from .config import ArchitectureError, parse_architecture, parse_task
from .model import init_model_weights
from .training import (CKPT_PATTERN, TrainConfig, TrainingDiverged,
                       SyntheticTaskSpec, average_checkpoints, read_metrics,
                       select_around_best, train)
from .verify import run_all

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class NumericalFailure(RuntimeError):
    pass


def _cmd_train(args) -> int:
    config = parse_architecture(args.arch)
    spec = parse_task(args.task)
    cfg = TrainConfig(max_updates=args.steps, seed=args.seed, log_every=args.log_every)
    result = train(config, cfg, spec, args.out, init_from=args.init_from)
    print(f"trained {result.steps} updates; held-out loss {result.final_loss:.4f}, "
          f"token accuracy {result.final_accuracy:.4f}")
    print(f"metrics: {result.metrics_path}")
    print(f"checkpoints: {len(result.checkpoint_paths)} under {args.out}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    config = parse_architecture(args.arch)
    weights = init_model_weights(config, seed=0)
    data = load_into(args.ckpt, config, weights)
    spec = SyntheticTaskSpec.from_meta(data.meta_dict())
    report = aggregate_contributions(config, weights, spec,
                                     samples=args.samples, seed=args.seed)
    emit_report(report, args.csv, args.svg)
    shares = report.normalized_shares()
    entropy = report.layer_entropy()
    print(f"{report.sample_count} samples, {report.token_count} valid tokens")
    for li in range(report.shape[0]):
        cells = "  ".join(
            f"{report.mechanisms[li][h]}={shares[li, h]:.3f}"
            for h in range(report.shape[1]))
        print(f"layer {li:2d}: {cells}  entropy={entropy[li]:.4f}")
    print(f"wrote {args.csv} and {args.svg}")
    return EXIT_OK


def _cmd_avg_ckpt(args) -> int:
    steps, losses = read_metrics(args.metrics)
    chosen = select_around_best(steps, losses)
    paths = [os.path.join(args.dir, CKPT_PATTERN.format(step=s)) for s in chosen]
    average_checkpoints(paths, args.out)
    print(f"averaged steps {chosen} -> {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_all(fast=args.fast)
    for r in results:
        print(r.line())
    if not all(r.passed for r in results):
        raise NumericalFailure("verification failed")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # usage mistakes are validation errors, not argparse's default exit 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="train on the synthetic task")
    p.add_argument("--arch", required=True, help="architecture file or preset name")
    p.add_argument("--task", required=True, help="task spec file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--init-from", default=None, help="warm-start checkpoint")
    p.add_argument("--log-every", type=int, default=100)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("analyze", help="head-contribution report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--arch", required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--svg", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("avg-ckpt", help="average checkpoints around the best")
    p.add_argument("--metrics", required=True, help="metrics CSV from training")
    p.add_argument("--dir", required=True, help="checkpoint directory")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(func=_cmd_avg_ckpt)

    p = sub.add_parser("verify", help="run the numerical verification suites")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ArchitectureError, CheckpointError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (TrainingDiverged, NumericalFailure) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
