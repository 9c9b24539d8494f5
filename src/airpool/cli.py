"""Command-line entry point.

Subcommands: `run` (config-driven experiments), `validate-bounds` (batch
property gate, nonzero exit on any failed check), `latency`, `optimize-alpha`,
and `train-snn`. Exit codes, the same for every subcommand: 0 success,
1 check failure, 2 config error (an invalid config file, or any option or
config value out of its range: the library raises ValueError only for
arguments), 3 numeric error (an ArithmeticError such as an overflow).
"""

import argparse
import csv
import dataclasses
import sys

from . import experiments, optimizer, sensing
from .channel import db_to_linear
from .experiments import CONFIG_KEYS, ConfigError, ExperimentConfig
from .features import FeatureModel

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3


# The config key each option sets. The option's dest is the key's field; the
# key's parser reads the option's text (the words of --snr-db as one list), its
# range and rules check the value, and an error about the key names the option
# as typed. Defaults are text too; an option of a command that builds an
# ExperimentConfig has none unless its default differs from the field's.
OPTION_KEYS = {
    "--seed": ("experiment", "seed"), "--trials": ("experiment", "trials"),
    "--out": ("experiment", "output_dir"), "--k": ("system", "k_sensors"),
    "--n-features": ("system", "n_features"), "--bandwidth-hz": ("system", "bandwidth_hz"),
    "--snr-db": ("sweep", "snr_grid_db"), "--q-bits": ("sweep", "q_bits"),
    "--samples": ("sweep", "n_samples"), "--epochs": ("sweep", "epochs"),
    "--learning-rate": ("sweep", "learning_rate"),
}


def _option(sub, option, **kwargs):
    sub.add_argument(option, dest=CONFIG_KEYS[OPTION_KEYS[option]].field, **kwargs)


def _add_common_overrides(sub):
    _option(sub, "--seed", help="override the config seed")
    _option(sub, "--trials", help="override the Monte Carlo trial count")
    _option(sub, "--out", help="override the output directory")


def _typed(args) -> dict:
    """(section, key) -> (option, value) of each option given."""
    typed = {}
    for option, where in OPTION_KEYS.items():
        value = getattr(args, CONFIG_KEYS[where].field, None)
        if value is not None:
            typed[where] = (option, value)
    return typed


def _parse_options(args) -> None:
    """Replace each option's text by its key's parse of it; text the parser
    rejects is a config error, as the same text in a config file is."""
    for where, (_, text) in _typed(args).items():
        entry = CONFIG_KEYS[where]
        text = " ".join(map(str.strip, text)) if isinstance(text, list) else text.strip()
        if text == "-h" or text.startswith("--"):  # `--out -h`: the value is missing
            raise ConfigError.at(*where, f"expected a value, got the option {text!r}")
        try:
            setattr(args, entry.field, entry.parse(text))
        except ValueError as exc:
            raise ConfigError.at(*where, f"cannot parse {text!r}: {exc}")


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """The config with the values of the options given, checked as their keys:
    as in a config file, a key the kind does not read is an error."""
    typed = _typed(args)
    for section, key in typed:
        if cfg.experiment not in CONFIG_KEYS[section, key].read_by:
            raise ConfigError.at(section, key, f"{cfg.experiment} does not read this key")
    return dataclasses.replace(cfg, **{CONFIG_KEYS[where].field: value
                                       for where, (_, value) in typed.items()})


def _read_config(path) -> ExperimentConfig:
    """parse_config of the stripped path (`--config -x.ini` comes as ' -x.ini');
    its errors name `[section] key`, even of a key an option sets."""
    try:
        return experiments.parse_config(path.strip())
    except ConfigError as exc:
        exc.where = None  # the file's value is at fault, not the option's
        raise


def _dashes_as_values(argv):
    """argv with a leading space on each dash-led token that is a value, so
    that argparse takes it as one (`_parse_options` strips it): a token right
    after an option, and one that starts with a single '-', but -h. Every
    option is --name, and argparse reads -1e3, -inf or -x as unknown options."""
    marked = []
    for token in argv:
        after_option = marked and marked[-1].startswith("--") and "=" not in marked[-1]
        value = after_option or not token.startswith("--") and token != "-h"
        marked.append(" " + token if value and token.startswith("-") else token)
    return marked


def _error_exit(exc: Exception, args) -> int:
    """Print the one-line message of a config or numeric error, naming the
    option as typed if one set the key at fault; its exit code."""
    if isinstance(exc, (ConfigError, ValueError)):
        option, _ = _typed(args).get(getattr(exc, "where", None), (None, None))
        print(f"config error: {f'{option}: {exc.text}' if option else exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_NUMERIC_ERROR


def _print_table(csv_path) -> None:
    with open(csv_path, newline="") as fh:
        table = list(csv.reader(fh))
    widths = [max(map(len, cells)) for cells in zip(*table)]
    header, *rows = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table]
    print("\n".join([header, "-" * len(header), *rows]))


def _cmd_run(args) -> int:
    cfg = _apply_overrides(_read_config(args.config), args)
    result, paths = experiments.run_experiment(cfg)
    print(f"{cfg.experiment}: {len(result.rows)} rows -> {paths['csv']}")
    if result.failures:
        print(f"{result.failures} checks failed", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def _cmd_validate_bounds(args) -> int:
    if args.config:
        cfg = _read_config(args.config)
        if cfg.experiment != "bound_validation":
            raise ConfigError.at("experiment", "kind", f"validate-bounds takes bound_validation, "
                                                       f"got {cfg.experiment}")
    else:
        cfg = ExperimentConfig(experiment="bound_validation")
    result, paths = experiments.run_experiment(_apply_overrides(cfg, args))
    _print_table(paths["csv"])
    total = len(result.rows)
    if result.failures:
        failing = sorted({r["check"] for r in result.rows if not r["passed"]})
        print(f"\nFAIL: {result.failures}/{total} checks failed: {', '.join(failing)}")
        return EXIT_CHECK_FAILURE
    print(f"\nOK: all {total} checks passed")
    return EXIT_OK


def _cmd_latency(args) -> int:
    # Every option is checked, and the --out directory made, before the first line.
    cfg = _apply_overrides(ExperimentConfig(experiment="latency_table"), args)
    if args.output_dir:
        result, paths = experiments.run_experiment(cfg)
    else:
        result, _ = experiments.run_latency_table(cfg)
    airpool_row, *digital_rows = result.rows
    print(f"over-the-air pooling: {airpool_row['latency_ms']:.4f} ms "
          f"(independent of K and SNR)")
    for row in digital_rows:
        print(f"digital baseline at {row['snr_db']:g} dB, Q={row['q_bits']}: "
              f"{row['latency_ms']:.2f} ms")
    if args.output_dir:
        print(f"wrote {paths['csv']}")
    return EXIT_OK


def _cmd_optimize_alpha(args) -> int:
    # No experiment kind fits these options: each is checked by its key's range.
    for (section, key), (_, value) in _typed(args).items():
        CONFIG_KEYS[section, key].check(section, key, value)
    model = FeatureModel.rectified_gaussian()
    noise = 1.0
    p_bars = [db_to_linear(snr_db) * noise for snr_db in args.snr_grid_db]
    decisions = optimizer.select_alpha(model, args.k_sensors, p_bars, noise,
                                       trials=args.trials, seed=args.seed)
    for snr_db, decision in zip(args.snr_grid_db, decisions):
        extra = f" ({decision.note})" if decision.note else ""
        print(f"snr={snr_db:g} dB: alpha*={decision.alpha_star:.4f} "
              f"[{decision.method}]{extra}")
    return EXIT_OK


def _cmd_train_snn(args) -> int:
    cfg = _apply_overrides(ExperimentConfig(experiment="synthetic_e2e"), args)
    dataset = sensing.generate_dataset(cfg.n_samples, cfg.seed)
    report = sensing.train_classifier(dataset, epochs=cfg.epochs,
                                      learning_rate=cfg.learning_rate, seed=cfg.seed)
    pooled = dataset.pooled()
    check = sensing.gradient_check(report.classifier, pooled[:10],
                                   dataset.labels[:10])
    print(f"samples={len(dataset)} epochs={cfg.epochs} "
          f"clean accuracy={report.clean_accuracy:.4f} "
          f"loss={report.final_loss:.4f} gradient check={check:.2e}")
    return EXIT_OK if report.clean_accuracy >= 0.85 and check <= 1e-4 \
        else EXIT_CHECK_FAILURE


def _parser() -> argparse.ArgumentParser:
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
    _option(p, "--k")
    _option(p, "--n-features")
    _option(p, "--bandwidth-hz")
    _option(p, "--q-bits")
    _option(p, "--snr-db", nargs="+", default="6 10 16")
    _option(p, "--out", help="also write latency_table artifacts here")
    p.set_defaults(func=_cmd_latency)

    p = subs.add_parser("optimize-alpha", help="select alpha for max pooling")
    _option(p, "--k", default="12")
    _option(p, "--snr-db", nargs="+", default="20 30 40")
    _option(p, "--trials", default="200000")
    _option(p, "--seed", default="42")
    p.set_defaults(func=_cmd_optimize_alpha)

    p = subs.add_parser("train-snn", help="train the synthetic-task classifier")
    _option(p, "--samples")
    _option(p, "--epochs")
    _option(p, "--learning-rate")
    _option(p, "--seed")
    p.set_defaults(func=_cmd_train_snn)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(_dashes_as_values(sys.argv[1:] if argv is None else argv))
    try:
        _parse_options(args)
        return args.func(args)
    except (ConfigError, ValueError, ArithmeticError) as exc:
        return _error_exit(exc, args)


if __name__ == "__main__":
    sys.exit(main())
