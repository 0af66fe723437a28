"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 assumption violation,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, augmented, harness
from .errors import (
    AssumptionViolationError,
    DivergenceError,
    NumericalError,
    StructuralError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSUMPTION = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="gossiptd",
        description="Gossip-coupled distributed TD(0) policy evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("validate", "check all model assumptions for a config"),
        ("solve", "solve the fixed point and print it as JSON"),
        ("bounds", "solve and print the error-bound report as JSON"),
        ("run", "run the full experiment and write CSV/JSON artifacts"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to JSON experiment config")
        cmd.add_argument("--seed", type=int, help="override run seed")
        cmd.add_argument("--steps", type=int, help="override run horizon")
        cmd.add_argument("--out", help="override output directory")
    return parser


def _load_config(args) -> harness.ExperimentConfig:
    with open(args.config) as fh:
        doc = json.load(fh)
    if args.seed is not None or args.steps is not None:
        run_doc = dict(doc.get("run", {}))
        if args.seed is not None:
            run_doc["seed"] = args.seed
        if args.steps is not None:
            run_doc["steps"] = args.steps
        doc["run"] = run_doc
    if args.out is not None:
        doc["out_dir"] = args.out
    return harness.ExperimentConfig.from_dict(doc)


def _cmd_validate(config: harness.ExperimentConfig) -> int:
    augmented.build_augmented(config.model, config.gossip, config.bases)
    harness.prepare(config)  # orthogonalization, (A6) and the fixed-point solve
    print("ok: all assumptions hold")
    return EXIT_OK


def _cmd_solve(config: harness.ExperimentConfig) -> int:
    _, _, _, fp = harness.prepare(config)
    print(fp.to_json())
    return EXIT_OK


def _cmd_bounds(config: harness.ExperimentConfig) -> int:
    eta, bases, _, fp = harness.prepare(config)
    report = analysis.compute_errors(
        config.model, bases, config.gossip, config.run.criterion, fp, eta
    )
    print(report.to_json())
    return EXIT_OK


def _cmd_run(config: harness.ExperimentConfig) -> int:
    result = harness.run_experiment(config)
    print(
        json.dumps(
            {
                "files": list(result.files),
                "runtime_seconds": result.runtime_seconds,
                "fixed_point_residual": result.fixed_point.residual,
            }
        )
    )
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        handler = {
            "validate": _cmd_validate,
            "solve": _cmd_solve,
            "bounds": _cmd_bounds,
            "run": _cmd_run,
        }[args.command]
        return handler(config)
    except AssumptionViolationError as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except (NumericalError, DivergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (StructuralError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
