"""Batch experiment drivers behind the command-line interface.

Each experiment consumes an ExperimentConfig (parsed from a flat INI-style
file), produces a fixed-column row set, and writes three artifacts into the
output directory: `<kind>.csv` (byte-reproducible for a fixed config and
seed), `<kind>.svg` (derived chart, never feeds back into the CSV), and
`<kind>.meta.json` (config echo, CSV content hash, timestamp; the timestamp
lives here so the CSV stays reproducible).

A Monte Carlo experiment makes one `analysis.estimate_errors_grid` sweep per
pooling mode, reads each brute-force argmin from a slice of it, and takes
beta* from one `optimizer.BetaTable` that it owns.
"""

import configparser
import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field, fields, asdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import analysis, features as feat, optimizer, sensing
from .channel import SystemParams, airpool_latency, db_to_linear, digital_latency
from .features import FeatureModel
from .pooling import (AirPoolConfig, PoolingMode, aggregate_with_noise,
                      pool_noisy_and_clean, postprocess, powered_sum)
from .svgchart import Series, render_line_chart

EXPERIMENT_KINDS = ("latency_table", "tradeoff_curve", "bound_validation",
                    "alpha_optimality", "synthetic_e2e")

_MODEL_KINDS = {
    "rectified_gaussian": FeatureModel.rectified_gaussian,
    "uniform01": FeatureModel.uniform01,
    "exponential_unit": FeatureModel.exponential_unit,
}


class ConfigError(Exception):
    """Raised for unparsable or invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    """Everything one experiment run needs."""

    experiment: str
    system: SystemParams = field(default_factory=SystemParams)
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
        if self.experiment not in EXPERIMENT_KINDS:
            raise ConfigError(f"experiment.kind must be one of {EXPERIMENT_KINDS}, "
                              f"got {self.experiment!r}")
        if not self.snr_grid_db or not self.alpha_grid:
            raise ConfigError("sweep grids must be nonempty")
        if not all(1.0 <= a <= feat.ALPHA_MAX for a in self.alpha_grid):
            raise ConfigError(f"sweep.alpha_grid values must lie in [1, {feat.ALPHA_MAX:g}], "
                              f"got {self.alpha_grid}")
        if self.experiment != "latency_table" and self.trials < 10_000:
            raise ConfigError("experiment.trials must be >= 10000 for Monte Carlo runs")
        for name in ("n_samples", "epochs", "trials_per_sample", "q_bits"):
            if getattr(self, name) < 1:
                raise ConfigError(f"sweep.{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError(f"sweep.learning_rate must be finite and > 0, "
                              f"got {self.learning_rate}")
        # The premises of low_snr_threshold and closed_form_alpha, checked
        # before any draw; the power ratio is the one the runner computes.
        k, noise = self.system.k_sensors, self.system.subchannel_noise_w
        k_min = {"bound_validation": 2, "alpha_optimality": 4}.get(self.experiment, 1)
        if k < k_min:
            raise ConfigError(f"system.k_sensors must be >= {k_min} for {self.experiment}, "
                              f"got {k}")
        if self.experiment == "alpha_optimality" and not all(
                db_to_linear(s) * noise / noise > k for s in self.snr_grid_db):
            raise ConfigError(f"sweep.snr_grid_db: alpha_optimality needs every SNR above "
                              f"K = {k} in linear terms, got {self.snr_grid_db}")

    def feature_model(self) -> FeatureModel:
        if self.feature_kind == "empirical":
            if not self.feature_file:
                raise ConfigError("feature_model.sample_file is required for kind=empirical")
            return FeatureModel.from_file(self.feature_file)
        maker = _MODEL_KINDS.get(self.feature_kind)
        if maker is None:
            raise ConfigError(f"feature_model.kind must be one of "
                              f"{sorted(_MODEL_KINDS) + ['empirical']}, got {self.feature_kind!r}")
        return maker()


def _float_list(raw: str) -> Tuple[float, ...]:
    return tuple(float(part) for part in raw.replace(",", " ").split())


# Every key of every section: the ExperimentConfig field it sets and its
# parser. The [system] keys are the SystemParams fields. Anything else in a
# config file is an error, so a typo is never silently ignored.
_SECTIONS = {
    "experiment": {"kind": ("experiment", str.strip), "trials": ("trials", int),
                   "seed": ("seed", int), "output_dir": ("output_dir", str.strip),
                   "workers": ("workers", int)},
    "system": {f.name: (f.name, f.type) for f in fields(SystemParams)},
    "feature_model": {"kind": ("feature_kind", str.strip),
                      "sample_file": ("feature_file", str.strip)},
    "sweep": {"snr_grid_db": ("snr_grid_db", _float_list),
              "alpha_grid": ("alpha_grid", _float_list), "q_bits": ("q_bits", int),
              "n_samples": ("n_samples", int), "epochs": ("epochs", int),
              "learning_rate": ("learning_rate", float),
              "trials_per_sample": ("trials_per_sample", int)},
}


def _read_section(parser, name: str, path, kind: str) -> dict:
    """The typed values of one section, keyed by the field each one sets."""
    keys = _SECTIONS[name]
    values = {}
    for key, raw in parser[name].items():
        if key not in keys:
            raise ConfigError(f"{path}: [{name}] unknown key {key!r}; expected one of "
                              f"{', '.join(keys)}")
        field_name, cast = keys[key]
        if kind in _READS and field_name not in _READS[kind]:
            raise ConfigError(f"{path}: [{name}] {key}: {kind} does not read this key")
        try:
            values[field_name] = cast(raw)
        except ValueError:
            what = "a float list" if cast is _float_list else cast.__name__
            raise ConfigError(f"[{name}] {key}: cannot parse {raw!r} as {what}")
    return values


def parse_config(path) -> ExperimentConfig:
    """Read the flat key-value experiment config with section headers."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}")
    if not read:
        raise ConfigError(f"{path}: file not found or empty")
    if parser.defaults():
        raise ConfigError(f"{path}: a [DEFAULT] section is not supported")
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{name}]; expected one of "
                              f"{', '.join(_SECTIONS)}")
    if "experiment" not in parser:
        raise ConfigError(f"{path}: missing [experiment] section")
    kind = parser["experiment"].get("kind", "").strip()
    values = {name: _read_section(parser, name, path, kind) for name in parser.sections()}
    try:
        system = SystemParams(**values.pop("system", {}))
    except ValueError as exc:
        raise ConfigError(f"[system]: {exc}")
    kwargs = {"experiment": ""}
    for section in values.values():
        kwargs.update(section)
    if kwargs.pop("workers", 1) != 1:  # generated benchmark configs say `workers = 1`
        raise ConfigError("[experiment] workers: parallel workers were removed; "
                          "only workers = 1 is accepted")
    return ExperimentConfig(system=system, **kwargs)


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
    """Write CSV, SVG, and metadata sidecar; returns the artifact paths."""
    os.makedirs(out_dir, exist_ok=True)
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
    params = cfg.system
    rows = [{
        "scheme": "airpool", "snr_db": "", "q_bits": "",
        "latency_ms": airpool_latency(params) * 1e3, "seed": cfg.seed,
    }]
    for snr_db in cfg.snr_grid_db:
        rows.append({
            "scheme": "digital", "snr_db": snr_db, "q_bits": cfg.q_bits,
            "latency_ms": digital_latency(params, cfg.q_bits, db_to_linear(snr_db)) * 1e3,
            "seed": cfg.seed,
        })
    result = ExperimentResult(
        "latency_table", ("scheme", "snr_db", "q_bits", "latency_ms", "seed"),
        rows, {"config": asdict(cfg)})
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
    noise = cfg.system.subchannel_noise_w
    p_rx = db_to_linear(snr_db) * noise
    rows: List[Dict] = []
    series: List[Series] = []
    model_kinds = [cfg.feature_kind] if cfg.feature_kind == "empirical" else \
        list(_MODEL_KINDS)
    k = cfg.system.k_sensors
    for kind in model_kinds:
        model = cfg.feature_model() if kind == "empirical" else _MODEL_KINDS[kind]()
        curve, diagnostics = analysis.tradeoff_curve(
            model, k, p_rx, noise, list(cfg.alpha_grid),
            trials=cfg.trials, seed=cfg.seed)
        for row, diag in zip(curve, [";".join(diagnostics)] + [""] * (len(curve) - 1)):
            rows.append({"model": kind, "snr_db": snr_db, **row,
                         "diagnostics": diag, "seed": cfg.seed})
        series.append(Series(f"{kind} noise", [r["alpha"] for r in curve],
                             [r["noise_bound"] for r in curve]))
        series.append(Series(f"{kind} approx", [r["alpha"] for r in curve],
                             [r["approx_bound_max"] for r in curve]))
    result = ExperimentResult(
        "tradeoff_curve",
        ("model", "snr_db", "alpha", "noise_bound", "noise_bound_asymptotic",
         "approx_bound_max", "bound_sum", "diagnostics", "seed"),
        rows, {"config": asdict(cfg)})
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


def _grid_point_rows(err: analysis.ErrorBreakdown, mode_name: str, alpha: float,
                     snr_db: float) -> List[Dict]:
    """Noise, approximation and decomposition checks of one grid point."""
    eps_tol = analysis.N_SIGMA * math.hypot(err.se_appr, err.approx_bound_se)
    point = (mode_name, alpha, snr_db)
    return [
        _check("noise-bound", *point, err.d_chan, err.noise_bound,
               err.noise_bound + analysis.N_SIGMA * err.se_chan - err.d_chan),
        _check("approx-bound", *point, err.d_appr, err.approx_bound,
               err.approx_bound + eps_tol - err.d_appr),
        _check("decomposition", *point, err.d_total, err.c0 * (err.d_chan + err.d_appr),
               err.decomposition_slack()),
    ]


def run_bound_validation(cfg: ExperimentConfig) -> Tuple[ExperimentResult, Optional[dict]]:
    noise = cfg.system.subchannel_noise_w
    k = cfg.system.k_sensors
    model = cfg.feature_model()
    betas = optimizer.BetaTable(model, k, seed=cfg.seed)
    betas.fill([*cfg.alpha_grid, *_RECONFIG_ALPHAS, *_ARGMIN_GRID])
    e2 = feat.max_second_moment(model, k, trials=max(cfg.trials, 100_000),
                                seed=cfg.seed).value
    points = [(alpha, snr_db) for alpha in cfg.alpha_grid for snr_db in cfg.snr_grid_db]
    # Each mode's sweep ends with the argmin grid at the power of its rule.
    argmin_p_rx = {"average": db_to_linear(cfg.snr_grid_db[0]) * noise,
                   "max": 0.5 * optimizer.low_snr_threshold(k, e2) * noise}
    errors = {}
    for mode in (PoolingMode.average(), PoolingMode.max()):
        sweep = [(alpha, db_to_linear(snr_db) * noise) for alpha, snr_db in points]
        sweep += [(alpha, argmin_p_rx[mode.kind]) for alpha in _ARGMIN_GRID]
        cfgs = [optimizer.config_for(model, mode, k, alpha, p_rx, noise, betas)
                for alpha, p_rx in sweep]
        errors[mode.kind] = analysis.estimate_errors_grid(model, cfgs, k,
                                                          trials=cfg.trials, seed=cfg.seed)
    rows: List[Dict] = []
    for i, (alpha, snr_db) in enumerate(points):
        for mode_name in ("average", "max"):
            rows.extend(_grid_point_rows(errors[mode_name][i], mode_name, alpha, snr_db))

    # Closed-form cross checks that need no Monte Carlo.
    p10 = 10.0 * noise
    gaussian = FeatureModel.rectified_gaussian()
    ratio64, ratio8 = (analysis.noise_error_asymptote(a, p10, noise)
                       / analysis.noise_error_bound(gaussian, a, p10, noise) for a in (64.0, 8.0))
    rows.append(_check(
        "asymptote-tightness", "max", 64.0, 10.0, ratio64, 1.05, 0.05 - abs(ratio64 - 1.0),
        abs(ratio64 - 1.0) <= 0.05 and abs(ratio64 - 1.0) < abs(ratio8 - 1.0)))
    slope = analysis.noise_error_asymptote_derivative(64.0, p10, noise)
    rows.append(_check("asymptote-slope", "max", 64.0, 10.0, slope, 2.0 / math.e,
                       0.05 - abs(slope / (2.0 / math.e) - 1.0)))
    gaps = [abs(optimizer.closed_form_alpha(k, ratio * noise, noise, e2).alpha_star
                - optimizer.bisection_alpha(k, ratio * noise, noise, e2))
            for ratio in (1e2, 1e3, 1e4)]
    rows.append(_check(
        "stationarity-gap-monotone", "max", "", "", max(gaps), gaps[0],
        min(gaps[i] - gaps[i + 1] for i in range(len(gaps) - 1)),
        all(gaps[i] >= gaps[i + 1] - 1e-12 for i in range(len(gaps) - 1))))
    dense = np.geomspace(1.0, 128.0, 512)
    for ratio in (1e3, 1e4):
        closed = optimizer.closed_form_alpha(k, ratio * noise, noise, e2)
        best = min(optimizer.surrogate_objective(a, k, ratio * noise, noise, e2)
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
    rows.extend(_margin_chain_checks(model, noise, cfg))
    failures = sum(0 if r["passed"] else 1 for r in rows)
    result = ExperimentResult(
        "bound_validation",
        ("check", "mode", "alpha", "snr_db", "measured", "bound", "slack", "passed"),
        rows, {"config": asdict(cfg)}, failures=failures)
    return result, None


def _reconfigurability_checks(model, k, cfg: ExperimentConfig,
                              betas: optimizer.BetaTable) -> List[Dict]:
    """Exactness of zero-noise averaging, convergence of zero-noise max
    pooling, and the per-sample sandwich bound."""
    rows = []
    rng = np.random.default_rng(cfg.seed)
    f = model.draw(rng, (min(cfg.trials, 50_000), k))
    avg_cfg = AirPoolConfig.for_average(model, k, 1.0, 0.0)
    g_hat, _, g_true = pool_noisy_and_clean(f, avg_cfg, rng)
    avg_err = float(np.max(np.abs(g_hat - g_true)
                           / np.where(g_true > 0, g_true, 1.0)))
    rows.append(_check("reconfig-average", "average", 1.0, "", avg_err, 1e-12,
                       1e-12 - avg_err))
    prev_err = math.inf
    sandwich_ok = True
    mean_rel = math.nan
    for alpha in _RECONFIG_ALPHAS:
        max_cfg = optimizer.config_for(model, PoolingMode.max(), k, alpha,
                                       1.0, 0.0, betas)
        g_hat, _, g_true = pool_noisy_and_clean(f, max_cfg, rng)
        pos = g_true > 0
        mean_rel = float(np.mean(np.abs(g_hat[pos] - g_true[pos]) / g_true[pos]))
        sandwich_ok &= bool(np.all(g_hat >= g_true * k ** (-1.0 / alpha) - 1e-12)
                            and np.all(g_hat <= g_true * k ** (1.0 / alpha) + 1e-12))
        rows.append(_check("reconfig-max-monotone", "max", alpha, "", mean_rel, prev_err,
                           prev_err - mean_rel, mean_rel < prev_err))
        prev_err = mean_rel
    rows.append(_check("reconfig-max", "max", 64.0, "", mean_rel, 0.02, 0.02 - mean_rel))
    rows.append(_check("sandwich", "max", "", "", 0.0 if sandwich_ok else 1.0, 0.0, 0.0,
                       sandwich_ok))
    return rows


def _margin_chain_checks(model, noise, cfg: ExperimentConfig) -> List[Dict]:
    """Accuracy chain on the linear synthetic task plus the chi fit of the
    averaging error norm."""
    rows = []
    dataset = sensing.generate_dataset(1500, cfg.seed, linear_labels=True,
                                       margin_gap=0.2,
                                       mode=PoolingMode.average(), model=model)
    margin_model = sensing.measure_linear_margin(dataset, seed=cfg.seed)
    per_dim = np.swapaxes(dataset.views, 1, 2)
    pooled = dataset.pooled()
    r0 = margin_model.clean_accuracy
    for snr_db in (cfg.snr_grid_db[0], cfg.snr_grid_db[-1]):
        pool_cfg = AirPoolConfig.for_average(model, dataset.k_views,
                                             db_to_linear(snr_db) * noise, noise)
        v_sum = powered_sum(per_dim, pool_cfg)
        rng = np.random.default_rng(cfg.seed)
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
    nu1_sq = feat.normalization_moments(model, 1.0).nu_sq
    fit = analysis.chi_error_check(dataset.k_views, dataset.n_features, noise,
                                   db_to_linear(10.0) * noise, nu1_sq,
                                   trials=max(cfg.trials, 10_000), seed=cfg.seed)
    rows.append(_check("chi-fit", "average", 1.0, 10.0, fit.statistic, fit.critical_1pct,
                       fit.critical_1pct - fit.statistic, fit.passed))
    return rows


# ---------------------------------------------------------------------------
# alpha_optimality
# ---------------------------------------------------------------------------

def run_alpha_optimality(cfg: ExperimentConfig) -> Tuple[ExperimentResult, Optional[dict]]:
    noise = cfg.system.subchannel_noise_w
    k = cfg.system.k_sensors
    model = cfg.feature_model()
    e2 = feat.max_second_moment(model, k, trials=max(cfg.trials, 100_000),
                                seed=cfg.seed).value
    grid = optimizer.default_alpha_grid(48)
    p_bars = [db_to_linear(snr_db) * noise for snr_db in cfg.snr_grid_db]
    closed_alphas = [optimizer.closed_form_alpha(k, p_bar, noise, e2)
                     for p_bar in p_bars]
    betas = optimizer.BetaTable(model, k, seed=cfg.seed)
    betas.fill(grid + [c.alpha_star for c in closed_alphas])
    # One sweep, alpha-major so each grid alpha is powered once, then each
    # SNR's closed-form alpha, which shares the draw but not the argmin.
    sweep = [(alpha, p_bar) for alpha in grid for p_bar in p_bars]
    sweep += [(closed.alpha_star, p_bar) for closed, p_bar in zip(closed_alphas, p_bars)]
    cfgs = [optimizer.config_for(model, PoolingMode.max(), k, alpha, p_bar, noise, betas)
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
            "alpha_bisection": optimizer.bisection_alpha(k, p_bar, noise, e2),
            "alpha_bruteforce": brute.alpha_star,
            "d_closed": errors[n_grid + i].d_total, "d_bruteforce": brute.objective_value,
            "seed": cfg.seed,
        })
    result = ExperimentResult(
        "alpha_optimality",
        ("snr_db", "alpha_closed", "alpha_bisection", "alpha_bruteforce",
         "d_closed", "d_bruteforce", "seed"),
        rows, {"config": asdict(cfg)})
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
    noise = cfg.system.subchannel_noise_w
    model = cfg.feature_model()
    dataset = sensing.generate_dataset(cfg.n_samples, cfg.seed, model=model)
    report = sensing.train_classifier(dataset, epochs=cfg.epochs,
                                      learning_rate=cfg.learning_rate, seed=cfg.seed)
    rows = []
    k = dataset.k_views
    snrs = sorted(cfg.snr_grid_db, reverse=True)
    p_rxs = [db_to_linear(snr_db) * noise for snr_db in snrs]
    decisions = optimizer.select_alpha(PoolingMode.max(), model, k, p_rxs, noise,
                                       trials=max(cfg.trials, 10_000), seed=cfg.seed)
    betas = optimizer.BetaTable(model, k, beta_trials=200_000, seed=cfg.seed)
    betas.fill([d.alpha_star for d in decisions])
    for snr_db, p_rx, decision in zip(snrs, p_rxs, decisions):
        pool_cfg = optimizer.config_for(model, PoolingMode.max(), k, decision.alpha_star,
                                        p_rx, noise, betas)
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
        rows, {"config": asdict(cfg),
               "clean_accuracy": report.clean_accuracy,
               "final_loss": report.final_loss})
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

# The fields each runner reads. A config key that sets any other field is
# an error, so no key is accepted that changes nothing. `workers` stays
# readable because generated benchmark configs say `workers = 1`.
_EVERY = {"experiment", "seed", "output_dir", "workers"}
_MONTE_CARLO = {*_EVERY, "trials", "bandwidth_hz", "n_subchannels",
                "noise_density_dbm_per_hz", "noise_figure_db", "feature_kind",
                "feature_file", "snr_grid_db"}
_READS = {
    "latency_table": {*_EVERY, "k_sensors", "n_features", "bandwidth_hz", "snr_grid_db",
                      "q_bits"},
    "tradeoff_curve": {*_MONTE_CARLO, "k_sensors", "alpha_grid"},
    "bound_validation": {*_MONTE_CARLO, "k_sensors", "alpha_grid"},
    "alpha_optimality": {*_MONTE_CARLO, "k_sensors"},
    "synthetic_e2e": {*_MONTE_CARLO, "n_samples", "epochs", "learning_rate",
                      "trials_per_sample"},  # the dataset fixes K = 4
}


def run_experiment(cfg: ExperimentConfig) -> Tuple[ExperimentResult, dict]:
    """Run the configured experiment and write its artifacts."""
    result, chart = _RUNNERS[cfg.experiment](cfg)
    paths = write_outputs(result, cfg.output_dir, chart)
    return result, paths
