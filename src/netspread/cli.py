"""Command-line entry points: simulate, train, report.

    netspread simulate --config cfg.json [--stub-model always-positive] [--out DIR]
    netspread train    --config cfg.json [--out DIR]
    netspread report   --config cfg.json [--out DIR]

Exit codes: 0 on success, 2 on configuration errors, 1 on anything else.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from .experiments import (
    DIST_FILE,
    MODEL_FILE,
    STUB_MODELS,
    SWEEP_FILE,
    ConfigError,
    ExperimentConfig,
    check_output_dir,
    report_distributions,
    run_experiment,
    train_pipeline,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netspread",
        description="Seeded diffusion experiments on random social graphs.",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run the configured parameter sweep")
    simulate.add_argument("--config", required=True, help="experiment config JSON")
    simulate.add_argument(
        "--stub-model",
        choices=list(STUB_MODELS),
        help="replace the trained model with a constant predictor",
    )
    simulate.add_argument("--out", help="override the config output directory")

    train = sub.add_parser("train", help="run the training pipeline and save the model")
    train.add_argument("--config", required=True)
    train.add_argument("--out", help="override the config output directory")

    report = sub.add_parser("report", help="write per-wave distribution tables")
    report.add_argument("--config", required=True)
    report.add_argument("--out", help="override the config output directory")
    return parser


def _run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    config = replace(config, output_dir=args.out or config.output_dir)
    out_dir = config.output_dir
    check_output_dir(out_dir, "--out" if args.out else "output_dir")
    if args.command == "simulate":
        rows = run_experiment(config, stub_model=args.stub_model)
        print(f"wrote {len(rows)} sweep rows to {os.path.join(out_dir, SWEEP_FILE)}")
    elif args.command == "train":
        model = train_pipeline(config)
        os.makedirs(out_dir, exist_ok=True)
        model_path = os.path.join(out_dir, MODEL_FILE)
        model.save(model_path)
        status = "converged" if model.converged else "NOT converged"
        print(f"wrote {model_path} ({len(model.coefs)} support vectors, {status})")
    else:
        averaged = report_distributions(config)
        for fid in averaged:
            print(f"wrote {os.path.join(out_dir, DIST_FILE.format(fid))}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map everything else to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
