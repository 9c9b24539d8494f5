"""Batch experiment drivers behind the command-line interface.

Each experiment consumes an ExperimentConfig (parsed from a flat INI-style
file), produces a fixed-column row set, and writes three artifacts into the
output directory: `<kind>.csv` (byte-reproducible for a fixed config and
seed), `<kind>.svg` (derived chart, never feeds back into the CSV), and
`<kind>.meta.json` (config echo, CSV content hash, timestamp; the timestamp
lives here so the CSV stays reproducible).

A Monte Carlo experiment makes one `analysis.estimate_errors_grid` sweep over
every pooling mode it checks, reads each brute-force argmin from a slice of
it, takes beta* from one `optimizer.BetaTable` that it owns, and draws
E[fmax^2] once. Only the bound gate computes the error bounds.
"""

import configparser
import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np

from . import analysis, features as feat, optimizer, sensing
from .channel import NOISE_W, airpool_latency, db_to_linear, digital_latency, digital_rate
from .features import FeatureModel
from ._mc import MonteCarloEstimate, rng_from
from .pooling import (AirPoolConfig, PoolingMode, aggregate_with_noise, postprocess,
                      powered_sum, true_pool)
from .svgchart import Series, render_line_chart

EXPERIMENT_KINDS = ("latency_table", "tradeoff_curve", "bound_validation",
                    "alpha_optimality", "synthetic_e2e")

class ConfigError(Exception):
    """Raised for unparsable or invalid experiment configuration; `at` keeps
    the (section, key) as `where` and the text after it as `text`."""

    @classmethod
    def at(cls, section: str, key: str, text: str) -> "ConfigError":
        """The one form of every config key error: `[section] key: text`."""
        exc = cls(f"[{section}] {key}: {text}")
        exc.where, exc.text = (section, key), text
        return exc


def _float_list(raw: str) -> Tuple[float, ...]:
    return tuple(float(part) for part in raw.replace(",", " ").split())


class Key(NamedTuple):
    """One config key: the ExperimentConfig field it sets (none for `workers`),
    its parser, the kinds that read it, and its range: a predicate, its text."""

    field: Optional[str]
    parse: Callable[[str], Any]
    read_by: FrozenSet[str]
    ok: Optional[Callable[[Any], bool]] = None
    range: str = ""

    def check(self, section: str, key: str, value) -> None:
        if self.ok is not None and not self.ok(value):
            raise ConfigError.at(section, key, f"must be {self.range}, got {value!r}")


_ANY = frozenset(EXPERIMENT_KINDS)
_MC = _ANY - {"latency_table"}  # the Monte Carlo kinds
_E2E = frozenset({"synthetic_e2e"})

# Every key of every section. Any other key, or one the configured kind does
# not read, is an error, so neither a typo nor a key that changes nothing is
# accepted. Generated benchmark configs say `workers = 1`.
CONFIG_KEYS: Dict[Tuple[str, str], Key] = {
    ("experiment", "kind"): Key("experiment", str.strip, _ANY, EXPERIMENT_KINDS.__contains__,
                                f"one of {', '.join(EXPERIMENT_KINDS)}"),
    ("experiment", "trials"): Key("trials", int, _MC, lambda v: v >= feat.MIN_MC_TRIALS,
                                  f">= {feat.MIN_MC_TRIALS}"),
    ("experiment", "seed"): Key("seed", int, _ANY, lambda v: v >= 0, ">= 0"),
    ("experiment", "output_dir"): Key("output_dir", str.strip, _ANY),
    ("experiment", "workers"): Key(None, int, _ANY, lambda v: v == 1,
                                   "1 (parallel workers were removed)"),
    # synthetic_e2e's dataset fixes K = 4.
    ("system", "k_sensors"): Key("k_sensors", int, _ANY - _E2E, lambda v: v >= 1, ">= 1"),
    ("system", "n_features"): Key("n_features", int, _ANY - _MC, lambda v: v >= 0, ">= 0"),
    ("system", "bandwidth_hz"): Key("bandwidth_hz", float, _ANY - _MC,
                                    lambda v: 0.0 < v < math.inf, "finite and > 0"),
    ("feature_model", "kind"): Key("feature_kind", str.strip, _MC,
                                   (*feat.BUILT_IN_KINDS, "empirical").__contains__,
                                   f"one of {', '.join(feat.BUILT_IN_KINDS)}, empirical"),
    ("feature_model", "sample_file"): Key("feature_file", str.strip, _MC),
    # 10^(dB/10) stays nonzero, and sqrt(2) times it finite (closed_form_alpha).
    ("sweep", "snr_grid_db"): Key("snr_grid_db", _float_list, _ANY,
                                  lambda g: bool(g) and all(-3000.0 <= s <= 3000.0 for s in g),
                                  "a nonempty list of values in [-3000, 3000]"),
    ("sweep", "alpha_grid"): Key("alpha_grid", _float_list,
                                 frozenset({"tradeoff_curve", "bound_validation"}),
                                 lambda g: bool(g) and all(1.0 <= a <= feat.ALPHA_MAX for a in g),
                                 f"a nonempty list of values in [1, {feat.ALPHA_MAX:g}]"),
    ("sweep", "q_bits"): Key("q_bits", int, _ANY - _MC, lambda v: v >= 1, ">= 1"),
    ("sweep", "n_samples"): Key("n_samples", int, _E2E, lambda v: v >= 1, ">= 1"),
    ("sweep", "epochs"): Key("epochs", int, _E2E, lambda v: v >= 1, ">= 1"),
    ("sweep", "learning_rate"): Key("learning_rate", float, _E2E, lambda v: 0.0 < v < math.inf,
                                    "finite and > 0"),
    ("sweep", "trials_per_sample"): Key("trials_per_sample", int, _E2E, lambda v: v >= 1, ">= 1"),
}


@dataclass
class ExperimentConfig:
    """Everything one experiment run needs."""

    experiment: str
    k_sensors: int = 12
    n_features: int = 17911
    bandwidth_hz: float = 10e6
    feature_kind: str = "rectified_gaussian"
    feature_file: str = ""
    snr_grid_db: Tuple[float, ...] = (0.0, 6.0, 12.0)
    alpha_grid: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)
    trials: int = 100_000
    seed: int = 42
    output_dir: str = "out"
    q_bits: int = 6
    n_samples: int = 4000
    epochs: int = 200
    learning_rate: float = 0.5
    trials_per_sample: int = 20

    def __post_init__(self):
        for (section, key), entry in CONFIG_KEYS.items():
            if entry.field is not None:
                entry.check(section, key, getattr(self, entry.field))
        # Cross-key rules. K >= 4 and SNR > K are premises of the closed-form alpha.
        kind, k = self.experiment, self.k_sensors
        if kind in _MC and (self.feature_kind == "empirical") != bool(self.feature_file):
            raise ConfigError.at("feature_model", "sample_file", f"must be given exactly when "
                                 f"kind = empirical, got kind = {self.feature_kind}")
        if kind in ("bound_validation", "alpha_optimality") and k < 4:
            raise ConfigError.at("system", "k_sensors", f"must be >= 4 for {kind}, got {k}")
        if kind == "synthetic_e2e" and \
                sensing.SyntheticDataset.train_size(self.n_samples) >= self.n_samples:
            raise ConfigError.at("sweep", "n_samples", f"{self.n_samples} leaves no test sample "
                                 f"in the {sensing.TRAIN_FRACTION:g} train/test split")
        # The ratio closed_form_alpha tests, rounding and all.
        if kind == "alpha_optimality" and not all(
                db_to_linear(s) * NOISE_W / NOISE_W > k for s in self.snr_grid_db):
            raise ConfigError.at("sweep", "snr_grid_db", f"alpha_optimality needs every SNR "
                                 f"above K = {k} in linear terms, got {self.snr_grid_db}")
        if kind == "latency_table":
            for snr_db in self.snr_grid_db:
                try:
                    digital_rate(k, db_to_linear(snr_db))
                except ValueError as exc:
                    raise ConfigError.at("sweep", "snr_grid_db", f"{snr_db:g} dB: {exc}")
        if kind == "tradeoff_curve" and (len(self.alpha_grid) < 2 or
                                         sorted(self.alpha_grid) != list(self.alpha_grid)):
            raise ConfigError.at("sweep", "alpha_grid", f"tradeoff_curve needs an ascending "
                                 f"grid of at least 2 values, got {self.alpha_grid}")

    def feature_model(self) -> FeatureModel:
        if self.feature_kind != "empirical":
            return FeatureModel(self.feature_kind)
        try:
            return FeatureModel.from_file(self.feature_file)
        except (OSError, ValueError) as exc:  # unreadable, or a line that is no feature
            raise ConfigError.at("feature_model", "sample_file", f"{self.feature_file!r}: "
                                 f"{exc.strerror if isinstance(exc, OSError) else exc}")


def parse_config(path) -> ExperimentConfig:
    """Read the flat key-value experiment config with section headers."""
    # No header names the section "", so [DEFAULT] is an unknown section too.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None,
                                       default_section="")
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}")
    if not read:
        raise ConfigError(f"{path}: file not found or empty")
    sections = dict.fromkeys(section for section, _ in CONFIG_KEYS)
    kind = parser.get("experiment", "kind", fallback="").strip()
    config = {"experiment": kind}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"{path}: unknown section [{section}]; expected one of "
                              f"{', '.join(sections)}")
        for key, raw in parser[section].items():
            entry = CONFIG_KEYS.get((section, key))
            if entry is None:
                raise ConfigError.at(section, key, "unknown key; expected one of " + ", ".join(
                    name for where, name in CONFIG_KEYS if where == section))
            if kind in _ANY and kind not in entry.read_by:
                raise ConfigError.at(section, key, f"{kind} does not read this key")
            try:
                value = entry.parse(raw)
            except ValueError as exc:
                raise ConfigError.at(section, key, f"cannot parse {raw!r}: {exc}")
            entry.check(section, key, value)
            if entry.field is not None:
                config[entry.field] = value
    # On the file's values: a tradeoff_curve that omits snr_grid_db reads 0 dB.
    if kind == "tradeoff_curve" and len(config.get("snr_grid_db", ())) > 1:
        raise ConfigError.at("sweep", "snr_grid_db",
                             f"tradeoff_curve reads one SNR, got {config['snr_grid_db']}")
    if kind == "tradeoff_curve" and config.get("feature_kind", "empirical") != "empirical":
        raise ConfigError.at("feature_model", "kind", "tradeoff_curve writes every built-in "
                             f"model unless empirical, got {config['feature_kind']}")
    if kind == "alpha_optimality" and "snr_grid_db" not in config:
        raise ConfigError.at("sweep", "snr_grid_db", "alpha_optimality requires this key: "
                             "the default grid's 0 dB is above no K >= 4")
    return ExperimentConfig(**config)


@dataclass
class ExperimentResult:
    """Fixed-column rows plus reproducibility metadata."""

    experiment: str
    columns: Tuple[str, ...]
    rows: List[Dict]
    metadata: Dict
    failures: int = 0


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_csv(result: ExperimentResult, path) -> str:
    """Write rows with a header; returns the sha256 of the file content."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow([_fmt_value(row.get(c, "")) for c in result.columns])
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_outputs(result: ExperimentResult, out_dir, chart: Optional[dict]) -> dict:
    """Write CSV, SVG, and metadata sidecar into the existing out_dir;
    returns the artifact paths."""
    base = os.path.join(out_dir, result.experiment)
    csv_path, svg_path, meta_path = (base + ext for ext in (".csv", ".svg", ".meta.json"))
    content_hash = write_csv(result, csv_path)
    if chart:
        render_line_chart(svg_path, **chart)
    meta = dict(result.metadata)
    meta["csv_sha256"] = content_hash
    meta["written_at_unix"] = time.time()
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"csv": csv_path, "svg": svg_path if chart else "", "meta": meta_path}


# ---------------------------------------------------------------------------
# latency_table
# ---------------------------------------------------------------------------

def run_latency_table(cfg: ExperimentConfig) -> Tuple[ExperimentResult, Optional[dict]]:
    rows = [{"scheme": "airpool", "snr_db": "", "q_bits": "", "seed": cfg.seed,
             "latency_ms": airpool_latency(cfg.n_features, cfg.bandwidth_hz) * 1e3}]
    rows += [{"scheme": "digital", "snr_db": snr_db, "q_bits": cfg.q_bits, "seed": cfg.seed,
              "latency_ms": digital_latency(cfg.k_sensors, cfg.n_features, cfg.bandwidth_hz,
                                            cfg.q_bits, db_to_linear(snr_db)) * 1e3}
             for snr_db in cfg.snr_grid_db]
    result = ExperimentResult(
        "latency_table", ("scheme", "snr_db", "q_bits", "latency_ms", "seed"), rows, {})
    chart = dict(
        series=[Series("digital", list(cfg.snr_grid_db),
                       [r["latency_ms"] for r in rows[1:]]),
                Series("airpool", list(cfg.snr_grid_db),
                       [rows[0]["latency_ms"]] * len(cfg.snr_grid_db))],
        title="Air latency vs receive SNR", x_label="receive SNR (dB)",
        y_label="latency (ms)")
    return result, chart


# ---------------------------------------------------------------------------
# tradeoff_curve
# ---------------------------------------------------------------------------

def run_tradeoff_curve(cfg: ExperimentConfig) -> Tuple[ExperimentResult, Optional[dict]]:
    snr_db = cfg.snr_grid_db[0]
    p_rx = db_to_linear(snr_db) * NOISE_W
    rows: List[Dict] = []
    series: List[Series] = []
    kinds = ("empirical",) if cfg.feature_kind == "empirical" else feat.BUILT_IN_KINDS
    k = cfg.k_sensors
    for kind in kinds:
        model = cfg.feature_model() if kind == "empirical" else FeatureModel(kind)
        curve, diagnostics = analysis.tradeoff_curve(
            model, k, p_rx, NOISE_W, list(cfg.alpha_grid), trials=cfg.trials, seed=cfg.seed)
        for row, diag in zip(curve, [";".join(diagnostics)] + [""] * (len(curve) - 1)):
            rows.append({"model": kind, "snr_db": snr_db, **row,
                         "diagnostics": diag, "seed": cfg.seed})
        series.append(Series(f"{kind} noise", [r["alpha"] for r in curve],
                             [r["noise_bound"] for r in curve]))
        series.append(Series(f"{kind} approx", [r["alpha"] for r in curve],
                             [r["approx_bound_max"] for r in curve]))
    # The config echo names the models that ran, not the default kind.
    result = ExperimentResult(
        "tradeoff_curve",
        ("model", "snr_db", "alpha", "noise_bound", "noise_bound_asymptotic",
         "approx_bound_max", "bound_sum", "diagnostics", "seed"),
        rows, {"config": {"feature_kind": list(kinds)}})
    chart = dict(series=series, title=f"Error-bound tradeoff at {snr_db:g} dB",
                 x_label="alpha", y_label="bound", log_x=True)
    return result, chart


# ---------------------------------------------------------------------------
# bound_validation
# ---------------------------------------------------------------------------

# The max-mode alphas of the reconfiguration checks and the argmin grid.
_RECONFIG_ALPHAS = (2.0, 8.0, 64.0)
_ARGMIN_GRID = (1.0, 2.0, 4.0)


def _check(check: str, mode: str, alpha, snr_db, measured: float, bound: float,
           slack: float, passed: Optional[bool] = None) -> Dict:
    """One check row. `passed` defaults to `slack >= 0.0`: a slack fl(a - b) of
    finite floats is >= 0 exactly when a >= b, so the rule is stated once."""
    return {"check": check, "mode": mode, "alpha": alpha, "snr_db": snr_db,
            "measured": measured, "bound": bound, "slack": slack,
            "passed": slack >= 0.0 if passed is None else passed}


def _grid_point_rows(err: analysis.ErrorBreakdown, point: AirPoolConfig,
                     eps: MonteCarloEstimate, snr_db: float) -> List[Dict]:
    """Noise, approximation and decomposition checks of one grid point, whose
    approximation bound is `eps`."""
    noise_bound = analysis.noise_error_bound(point.moments, point.p_rx_w,
                                             point.noise_power_w)
    c0 = analysis.decomposition_c0(point.mode, point.alpha)
    eps_tol = analysis.N_SIGMA * math.hypot(err.appr.std_error, eps.std_error)
    where = (point.mode.kind, point.alpha, snr_db)
    return [
        _check("noise-bound", *where, err.chan.value, noise_bound,
               noise_bound + analysis.N_SIGMA * err.chan.std_error - err.chan.value),
        _check("approx-bound", *where, err.appr.value, eps.value,
               eps.value + eps_tol - err.appr.value),
        _check("decomposition", *where, err.total.value,
               c0 * (err.chan.value + err.appr.value), analysis.decomposition_slack(err, c0)),
    ]


def run_bound_validation(cfg: ExperimentConfig) -> Tuple[ExperimentResult, Optional[dict]]:
    k = cfg.k_sensors
    model = cfg.feature_model()
    betas = optimizer.BetaTable(model, k, seed=cfg.seed)
    betas.fill([*cfg.alpha_grid, *_RECONFIG_ALPHAS, *_ARGMIN_GRID])
    e2_est, e2_sweep = feat.max_second_moment_prefixes(
        model, k, [max(cfg.trials, 100_000), cfg.trials], seed=cfg.seed)
    e2 = e2_est.value
    points = [(alpha, snr_db) for alpha in cfg.alpha_grid for snr_db in cfg.snr_grid_db]
    # One sweep over both modes; each mode's part ends with the argmin grid
    # at the power of its rule.
    argmin_p_rx = {"average": db_to_linear(cfg.snr_grid_db[0]) * NOISE_W,
                   "max": 0.5 * optimizer.low_snr_threshold(k, e2) * NOISE_W}
    grid = [(alpha, db_to_linear(snr_db) * NOISE_W) for alpha, snr_db in points]
    cfgs = [optimizer.config_for(model, mode, k, alpha, p_rx, NOISE_W, betas)
            for mode in (PoolingMode.average(), PoolingMode.max())
            for alpha, p_rx in grid + [(a, argmin_p_rx[mode.kind]) for a in _ARGMIN_GRID]]
    sweep = analysis.estimate_errors_grid(model, cfgs, k, trials=cfg.trials, seed=cfg.seed)
    half = len(cfgs) // 2
    errors = {"average": sweep[:half], "max": sweep[half:]}
    avg_eps = dict(zip(cfg.alpha_grid, analysis.average_approx_error_bounds(
        model, k, cfg.alpha_grid, trials=cfg.trials, seed=cfg.seed)))
    rows: List[Dict] = []
    for i, (alpha, snr_db) in enumerate(points):
        for j in (i, half + i):  # average, then max
            eps = avg_eps[alpha] if j < half else MonteCarloEstimate(
                analysis.max_approx_error_bound(alpha, k, e2_sweep.value),
                analysis.max_approx_error_bound(alpha, k, e2_sweep.std_error),
                e2_sweep.trials)
            rows.extend(_grid_point_rows(sweep[j], cfgs[j], eps, snr_db))

    # Closed-form cross checks that need no Monte Carlo.
    p10 = 10.0 * NOISE_W
    gaussian = FeatureModel.rectified_gaussian()
    ratio64, ratio8 = (analysis.noise_error_asymptote(a, p10, NOISE_W)
                       / analysis.noise_error_bound(feat.normalization_moments(gaussian, a),
                                                    p10, NOISE_W) for a in (64.0, 8.0))
    rows.append(_check(
        "asymptote-tightness", "max", 64.0, 10.0, ratio64, 1.05, 0.05 - abs(ratio64 - 1.0),
        abs(ratio64 - 1.0) <= 0.05 and abs(ratio64 - 1.0) < abs(ratio8 - 1.0)))
    slope = analysis.noise_error_asymptote_derivative(64.0, p10, NOISE_W)
    rows.append(_check("asymptote-slope", "max", 64.0, 10.0, slope, 2.0 / math.e,
                       0.05 - abs(slope / (2.0 / math.e) - 1.0)))
    gaps = [abs(optimizer.closed_form_alpha(k, ratio * NOISE_W, NOISE_W, e2).alpha_star
                - optimizer.bisection_alpha(k, ratio * NOISE_W, NOISE_W, e2))
            for ratio in (1e2, 1e3, 1e4)]
    rows.append(_check(
        "stationarity-gap-monotone", "max", "", "", max(gaps), gaps[0],
        min(gaps[i] - gaps[i + 1] for i in range(len(gaps) - 1)),
        all(gaps[i] >= gaps[i + 1] - 1e-12 for i in range(len(gaps) - 1))))
    dense = np.geomspace(1.0, 128.0, 512)
    for ratio in (1e3, 1e4):
        closed = optimizer.closed_form_alpha(k, ratio * NOISE_W, NOISE_W, e2)
        best = min(optimizer.surrogate_objective(a, k, ratio * NOISE_W, NOISE_W, e2)
                   for a in dense)
        rows.append(_check("surrogate-near-optimality", "max", closed.alpha_star,
                           10.0 * math.log10(ratio), closed.objective_value, 1.1 * best,
                           1.1 * best - closed.objective_value))
    rows.extend(_reconfigurability_checks(model, k, cfg, betas))
    # Brute-force argmin rules over `_ARGMIN_GRID`, from the tail of each
    # sweep: averaging prefers alpha = 1 at any SNR (alpha >= 1, so its slack
    # is >= 0 only there), and below the critical power ratio max pooling
    # stays within one grid step of alpha = 1.
    avg_alpha, max_alpha = (optimizer.lowest_error_alpha(
        _ARGMIN_GRID, errors[mode][len(points):]).alpha_star for mode in ("average", "max"))
    rows += [_check("average-argmin", "average", avg_alpha, cfg.snr_grid_db[0], avg_alpha,
                    1.0, 1.0 - avg_alpha),
             _check("low-snr-argmin", "max", max_alpha, "", max_alpha, _ARGMIN_GRID[1],
                    _ARGMIN_GRID[1] - max_alpha)]
    rows.extend(_margin_chain_checks(model, cfg))
    failures = sum(0 if r["passed"] else 1 for r in rows)
    result = ExperimentResult(
        "bound_validation",
        ("check", "mode", "alpha", "snr_db", "measured", "bound", "slack", "passed"),
        rows, {}, failures=failures)
    return result, None


def _reconfigurability_checks(model, k, cfg: ExperimentConfig,
                              betas: optimizer.BetaTable) -> List[Dict]:
    """Exactness of zero-noise averaging, convergence of zero-noise max
    pooling, and the per-sample sandwich bound.

    One pass over up to 50,000 rows, block by block: maxima and the
    sandwich's `all` are exact per block, and the mean relative error keeps
    the rows with fmax > 0 per alpha for one mean at the end, with the
    one-shot bits. The protocol form powers the raw block (`_RowSums`, the
    bits of `powered_sum`); the sandwich is checked on the rescaled form
    ||f||_a beta^(-1/a), since in the protocol form a small non-zero row
    maximum powers to 0.0 at large alpha (f^64 below f = 1.6e-5), which
    would read as a violation."""
    n = min(cfg.trials, 50_000)
    avg_cfg = AirPoolConfig.for_average(model, k, 1.0, 0.0)
    max_cfgs = [optimizer.config_for(model, PoolingMode.max(), k, alpha, 1.0, 0.0, betas)
                for alpha in _RECONFIG_ALPHAS]
    row_sums = feat._RowSums(k, n)
    v_sum = np.empty(row_sums.most)
    avg_errs, rel_errs = [], [[] for _ in max_cfgs]
    sandwich_ok = True
    for f in feat.draw_blocks(model, rng_from(cfg.seed), n, k):
        g_hat = postprocess(powered_sum(f, avg_cfg), avg_cfg)
        g_true = true_pool(f, avg_cfg.mode)
        avg_errs.append(np.max(np.abs(g_hat - g_true) / np.where(g_true > 0, g_true, 1.0)))
        row_sums.load(f)
        fmax = f.max(axis=1)
        pos = fmax > 0
        v = v_sum[:len(f)]
        for max_cfg, rel in zip(max_cfgs, rel_errs):
            g_hat = postprocess(row_sums(max_cfg.alpha, v), max_cfg)
            rel.append(np.abs(g_hat[pos] - fmax[pos]) / fmax[pos])
        row_sums.load_rescaled(f)
        for max_cfg in max_cfgs:
            alpha = max_cfg.alpha
            g_rescaled = row_sums.norms(alpha, v) * max_cfg.beta ** (-1.0 / alpha)
            sandwich_ok &= bool(np.all(g_rescaled >= fmax * k ** (-1.0 / alpha) - 1e-12)
                                and np.all(g_rescaled <= fmax * k ** (1.0 / alpha) + 1e-12))
    avg_err = float(np.max(avg_errs))
    rows = [_check("reconfig-average", "average", 1.0, "", avg_err, 1e-12, 1e-12 - avg_err)]
    prev_err = math.inf
    mean_rel = math.nan
    for alpha, rel in zip(_RECONFIG_ALPHAS, rel_errs):
        mean_rel = float(np.mean(np.concatenate(rel)))
        rows.append(_check("reconfig-max-monotone", "max", alpha, "", mean_rel, prev_err,
                           prev_err - mean_rel, mean_rel < prev_err))
        prev_err = mean_rel
    rows.append(_check("reconfig-max", "max", 64.0, "", mean_rel, 0.02, 0.02 - mean_rel))
    rows.append(_check("sandwich", "max", "", "", 0.0 if sandwich_ok else 1.0, 0.0, 0.0,
                       sandwich_ok))
    return rows


def _margin_chain_checks(model, cfg: ExperimentConfig) -> List[Dict]:
    """Accuracy chain on the linear synthetic task plus the chi fit of the
    averaging error norm."""
    rows = []
    dataset = sensing.generate_dataset(1500, cfg.seed, linear_labels=True,
                                       margin_gap=0.2,
                                       mode=PoolingMode.average(), model=model)
    margin_model = sensing.measure_linear_margin(dataset)
    per_dim = np.swapaxes(dataset.views, 1, 2)
    pooled = dataset.pooled()
    r0 = margin_model.clean_accuracy
    for snr_db in (cfg.snr_grid_db[0], cfg.snr_grid_db[-1]):
        pool_cfg = AirPoolConfig.for_average(model, dataset.k_views,
                                             db_to_linear(snr_db) * NOISE_W, NOISE_W)
        v_sum = powered_sum(per_dim, pool_cfg)
        rng = rng_from(cfg.seed)
        hits, sq, n = 0, 0.0, 0
        for _ in range(10):
            g_hat = postprocess(aggregate_with_noise(v_sum, pool_cfg, rng),
                                pool_cfg)
            pred = (margin_model.decision(g_hat) > 0).astype(int)
            hits += int((pred == dataset.labels).sum())
            sq += float(((g_hat - pooled) ** 2).sum(axis=1).mean())
            n += len(dataset)
        r_ap = hits / n
        bound, _ = analysis.accuracy_lower_bounds(margin_model.margin, r0,
                                                  dataset.n_features, sq / 10.0)
        se = math.sqrt(max(r_ap * (1.0 - r_ap), 1e-12) / n)
        rows.append(_check("margin-chain", "average", 1.0, snr_db, r_ap, bound,
                           r_ap - (bound - 2.0 * se)))
    chi_cfg = AirPoolConfig.for_average(model, dataset.k_views,
                                        db_to_linear(10.0) * NOISE_W, NOISE_W)
    fit = analysis.chi_error_check(chi_cfg, dataset.n_features, trials=cfg.trials,
                                   seed=cfg.seed)
    rows.append(_check("chi-fit", "average", 1.0, 10.0, fit.statistic, fit.critical_1pct,
                       fit.critical_1pct - fit.statistic, fit.passed))
    return rows


# ---------------------------------------------------------------------------
# alpha_optimality
# ---------------------------------------------------------------------------

def run_alpha_optimality(cfg: ExperimentConfig) -> Tuple[ExperimentResult, Optional[dict]]:
    k = cfg.k_sensors
    model = cfg.feature_model()
    e2 = feat.max_second_moment(model, k, max(cfg.trials, 100_000), cfg.seed).value
    grid = optimizer.default_alpha_grid(48)
    p_bars = [db_to_linear(snr_db) * NOISE_W for snr_db in cfg.snr_grid_db]
    closed_alphas = [optimizer.closed_form_alpha(k, p_bar, NOISE_W, e2)
                     for p_bar in p_bars]
    betas = optimizer.BetaTable(model, k, seed=cfg.seed)
    betas.fill(grid + [c.alpha_star for c in closed_alphas])
    # One sweep, alpha-major so each grid alpha is powered once, then each
    # SNR's closed-form alpha, which shares the draw but not the argmin.
    sweep = [(alpha, p_bar) for alpha in grid for p_bar in p_bars]
    sweep += [(closed.alpha_star, p_bar) for closed, p_bar in zip(closed_alphas, p_bars)]
    cfgs = [optimizer.config_for(model, PoolingMode.max(), k, alpha, p_bar, NOISE_W, betas)
            for alpha, p_bar in sweep]
    errors = analysis.estimate_errors_grid(model, cfgs, k, trials=cfg.trials,
                                           seed=cfg.seed)
    n_grid = len(grid) * len(p_bars)
    rows = []
    for i, (snr_db, p_bar, closed) in enumerate(zip(cfg.snr_grid_db, p_bars,
                                                    closed_alphas)):
        brute = optimizer.lowest_error_alpha(grid, errors[i:n_grid:len(p_bars)])
        rows.append({
            "snr_db": snr_db, "alpha_closed": closed.alpha_star,
            "alpha_bisection": optimizer.bisection_alpha(k, p_bar, NOISE_W, e2),
            "alpha_bruteforce": brute.alpha_star,
            "d_closed": errors[n_grid + i].total.value, "d_bruteforce": brute.objective_value,
            "seed": cfg.seed,
        })
    result = ExperimentResult(
        "alpha_optimality",
        ("snr_db", "alpha_closed", "alpha_bisection", "alpha_bruteforce",
         "d_closed", "d_bruteforce", "seed"),
        rows, {})
    xs = [r["snr_db"] for r in rows]
    chart = dict(series=[
        Series("closed form", xs, [r["alpha_closed"] for r in rows]),
        Series("stationarity root", xs, [r["alpha_bisection"] for r in rows]),
        Series("brute force", xs, [r["alpha_bruteforce"] for r in rows])],
        title="Selected alpha vs receive SNR", x_label="receive SNR (dB)",
        y_label="alpha")
    return result, chart


# ---------------------------------------------------------------------------
# synthetic_e2e
# ---------------------------------------------------------------------------

def run_synthetic_e2e(cfg: ExperimentConfig) -> Tuple[ExperimentResult, Optional[dict]]:
    model = cfg.feature_model()
    dataset = sensing.generate_dataset(cfg.n_samples, cfg.seed, model=model)
    report = sensing.train_classifier(dataset, epochs=cfg.epochs,
                                      learning_rate=cfg.learning_rate, seed=cfg.seed)
    rows = []
    k = dataset.k_views
    snrs = sorted(cfg.snr_grid_db, reverse=True)
    p_rxs = [db_to_linear(snr_db) * NOISE_W for snr_db in snrs]
    decisions = optimizer.select_alpha(model, k, p_rxs, NOISE_W, trials=cfg.trials,
                                       seed=cfg.seed)
    betas = optimizer.BetaTable(model, k, beta_trials=200_000, seed=cfg.seed)
    betas.fill([d.alpha_star for d in decisions])
    for snr_db, p_rx, decision in zip(snrs, p_rxs, decisions):
        pool_cfg = optimizer.config_for(model, PoolingMode.max(), k, decision.alpha_star,
                                        p_rx, NOISE_W, betas)
        r_ap, d_sigma = sensing.evaluate_accuracy(
            report.classifier, dataset, pool_cfg,
            trials_per_sample=cfg.trials_per_sample, seed=cfg.seed)
        rows.append({"snr_db": snr_db, "alpha": decision.alpha_star,
                     "alpha_method": decision.method, "r_ap": r_ap,
                     "d_sigma": d_sigma, "r0": report.clean_accuracy,
                     "seed": cfg.seed})
    result = ExperimentResult(
        "synthetic_e2e",
        ("snr_db", "alpha", "alpha_method", "r_ap", "d_sigma", "r0", "seed"),
        rows, {"clean_accuracy": report.clean_accuracy, "final_loss": report.final_loss})
    xs = [r["snr_db"] for r in rows]
    chart = dict(series=[Series("accuracy", xs, [r["r_ap"] for r in rows]),
                         Series("feature error", xs, [r["d_sigma"] for r in rows])],
                 title="End-to-end accuracy and pooling error",
                 x_label="receive SNR (dB)", y_label="value")
    return result, chart


_RUNNERS = {
    "latency_table": run_latency_table,
    "tradeoff_curve": run_tradeoff_curve,
    "bound_validation": run_bound_validation,
    "alpha_optimality": run_alpha_optimality,
    "synthetic_e2e": run_synthetic_e2e,
}

def run_experiment(cfg: ExperimentConfig) -> Tuple[ExperimentResult, dict]:
    """Run the configured experiment and write its artifacts. The output
    directory is made first, so a path that cannot be one (an existing
    file, say) is a config error before anything is drawn."""
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError.at("experiment", "output_dir", f"cannot make the directory "
                             f"{cfg.output_dir!r}: {exc.strerror}")
    result, chart = _RUNNERS[cfg.experiment](cfg)
    # The config echo: the keys the kind reads, then what the runner adds.
    read = {entry.field: getattr(cfg, entry.field) for entry in CONFIG_KEYS.values()
            if entry.field is not None and cfg.experiment in entry.read_by}
    result.metadata["config"] = {**read, **result.metadata.get("config", {})}
    paths = write_outputs(result, cfg.output_dir, chart)
    return result, paths
