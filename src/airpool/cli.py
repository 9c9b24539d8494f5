"""Command-line entry point.

Subcommands: `run` (config-driven experiments), `validate-bounds` (batch
property gate, nonzero exit on any failed check), `latency`, `optimize-alpha`,
and `train-snn`. Exit codes, the same for every subcommand: 0 success,
1 check failure, 2 config error (an invalid config file, or any option or
config value out of its range: the library raises ValueError only for
arguments), 3 numeric error (an ArithmeticError such as an overflow).
"""

import argparse
import dataclasses
import os
import sys

from . import experiments, optimizer, sensing
from .channel import SystemParams, airpool_latency, db_to_linear, digital_latency
from .experiments import ConfigError, ExperimentConfig, ExperimentResult
from .features import FeatureModel
from .pooling import PoolingMode

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3


def _add_common_overrides(sub):
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--trials", type=int, help="override the Monte Carlo trial count")
    sub.add_argument("--out", help="override the output directory")


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """The config with the command-line overrides, checked again."""
    overrides = {name: getattr(args, option) for name, option in
                 (("seed", "seed"), ("trials", "trials"), ("output_dir", "out"))
                 if getattr(args, option, None) is not None}
    if "trials" in overrides and "trials" not in experiments._READS[cfg.experiment]:
        raise ConfigError(f"--trials: {cfg.experiment} does not read trials")
    return dataclasses.replace(cfg, **overrides)


def _error_exit(exc: Exception) -> int:
    """Print the one-line message of a config or numeric error; its exit code."""
    if isinstance(exc, (ConfigError, ValueError)):
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_NUMERIC_ERROR


def _print_table(result: ExperimentResult) -> None:
    widths = [max(len(str(c)), *(len(experiments._fmt_value(r.get(c, "")))
                                 for r in result.rows)) for c in result.columns]
    header = "  ".join(str(c).ljust(w) for c, w in zip(result.columns, widths))
    print(header)
    print("-" * len(header))
    for row in result.rows:
        print("  ".join(experiments._fmt_value(row.get(c, "")).ljust(w)
                        for c, w in zip(result.columns, widths)))


def _cmd_run(args) -> int:
    cfg = _apply_overrides(experiments.parse_config(args.config), args)
    result, paths = experiments.run_experiment(cfg)
    print(f"{cfg.experiment}: {len(result.rows)} rows -> {paths['csv']}")
    if result.failures:
        print(f"{result.failures} checks failed", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def _cmd_validate_bounds(args) -> int:
    if args.config:
        cfg = experiments.parse_config(args.config)
        if cfg.experiment != "bound_validation":
            raise ConfigError(f"{args.config}: validate-bounds takes a bound_validation "
                              f"config, got kind = {cfg.experiment}")
    else:
        cfg = ExperimentConfig(experiment="bound_validation")
    result, _ = experiments.run_experiment(_apply_overrides(cfg, args))
    _print_table(result)
    total = len(result.rows)
    if result.failures:
        failing = sorted({r["check"] for r in result.rows if not r["passed"]})
        print(f"\nFAIL: {result.failures}/{total} checks failed: {', '.join(failing)}")
        return EXIT_CHECK_FAILURE
    print(f"\nOK: all {total} checks passed")
    return EXIT_OK


def _cmd_latency(args) -> int:
    params = SystemParams(k_sensors=args.k, n_features=args.n_features,
                          bandwidth_hz=args.bandwidth_hz)
    print(f"over-the-air pooling: {airpool_latency(params) * 1e3:.4f} ms "
          f"(independent of K and SNR)")
    for snr_db in args.snr_db:
        ms = digital_latency(params, args.q_bits, db_to_linear(snr_db)) * 1e3
        print(f"digital baseline at {snr_db:g} dB, Q={args.q_bits}: {ms:.2f} ms")
    if args.out:
        cfg = ExperimentConfig(experiment="latency_table", system=params,
                               snr_grid_db=tuple(args.snr_db),
                               q_bits=args.q_bits, output_dir=args.out)
        experiments.run_experiment(cfg)
        print(f"wrote {os.path.join(args.out, 'latency_table.csv')}")
    return EXIT_OK


def _cmd_optimize_alpha(args) -> int:
    model = FeatureModel.rectified_gaussian()
    noise = 1.0
    p_bars = [db_to_linear(snr_db) * noise for snr_db in args.snr_db]
    decisions = optimizer.select_alpha(PoolingMode.max(), model, args.k, p_bars, noise,
                                       trials=args.trials, seed=args.seed)
    for snr_db, decision in zip(args.snr_db, decisions):
        extra = f" ({decision.note})" if decision.note else ""
        print(f"snr={snr_db:g} dB: alpha*={decision.alpha_star:.4f} "
              f"[{decision.method}]{extra}")
    return EXIT_OK


def _cmd_train_snn(args) -> int:
    dataset = sensing.generate_dataset(args.samples, args.seed)
    report = sensing.train_classifier(dataset, epochs=args.epochs,
                                      learning_rate=args.learning_rate,
                                      seed=args.seed)
    pooled = dataset.pooled()
    check = sensing.gradient_check(report.classifier, pooled[:10],
                                   dataset.labels[:10])
    print(f"samples={len(dataset)} epochs={args.epochs} "
          f"clean accuracy={report.clean_accuracy:.4f} "
          f"loss={report.final_loss:.4f} gradient check={check:.2e}")
    return EXIT_OK if report.clean_accuracy >= 0.85 and check <= 1e-4 \
        else EXIT_CHECK_FAILURE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="airpool",
        description="Over-the-air multi-view pooling: simulation and optimization")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("run", help="run a config-driven experiment")
    p.add_argument("--config", required=True, help="experiment config file")
    _add_common_overrides(p)
    p.set_defaults(func=_cmd_run)

    p = subs.add_parser("validate-bounds", help="run the bound/property gate")
    p.add_argument("--config", help="optional bound_validation config (else defaults)")
    _add_common_overrides(p)
    p.set_defaults(func=_cmd_validate_bounds)

    p = subs.add_parser("latency", help="latency comparison table")
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--n-features", type=int, default=17911)
    p.add_argument("--bandwidth-hz", type=float, default=10e6)
    p.add_argument("--q-bits", type=int, default=6)
    p.add_argument("--snr-db", type=float, nargs="+", default=[6.0, 10.0, 16.0])
    p.add_argument("--out", help="also write latency_table artifacts here")
    p.set_defaults(func=_cmd_latency)

    p = subs.add_parser("optimize-alpha", help="select alpha for max pooling")
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--snr-db", type=float, nargs="+", default=[20.0, 30.0, 40.0])
    p.add_argument("--trials", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_optimize_alpha)

    p = subs.add_parser("train-snn", help="train the synthetic-task classifier")
    p.add_argument("--samples", type=int, default=4000)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_train_snn)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, ArithmeticError) as exc:
        return _error_exit(exc)


if __name__ == "__main__":
    sys.exit(main())
