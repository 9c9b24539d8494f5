"""Config parsing, experiment artifacts, reproducibility, and CLI exit
codes."""

import csv
import glob
import hashlib
import importlib.util
import json
import math
import os
import re
import sys

import pytest

from airpool import analysis, cli, experiments, features as feat, optimizer, sensing
from airpool.channel import SystemParams, db_to_linear
from airpool.experiments import ConfigError, ExperimentConfig, parse_config
from airpool.features import FeatureModel
from airpool.pooling import AirPoolConfig, PoolingMode

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LATENCY_CFG = """
[experiment]
kind = latency_table
seed = 7
output_dir = {out}

[system]
k_sensors = 12
n_features = 17911
bandwidth_hz = 10e6

[sweep]
snr_grid_db = 6, 10, 16
q_bits = 6
"""

SMALL_BOUNDS_CFG = """
[experiment]
kind = bound_validation
seed = 5
trials = 20000
output_dir = {out}

[sweep]
snr_grid_db = 6
alpha_grid = 1, 4
"""


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestConfigParsing:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(LATENCY_CFG.format(out=tmp_path / "out"))
        cfg = parse_config(path)
        assert cfg.experiment == "latency_table"
        assert cfg.seed == 7
        assert cfg.system.n_features == 17911
        assert cfg.snr_grid_db == (6.0, 10.0, 16.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.ini")

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nkind = nonsense\n")
        with pytest.raises(ConfigError, match="kind"):
            parse_config(path)

    def test_bad_field_names_field(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nkind = latency_table\nseed = abc\n")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(path)

    def test_trial_floor_for_monte_carlo(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nkind = bound_validation\ntrials = 100\n")
        with pytest.raises(ConfigError, match="trials"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nkind = latency_table\ntrails = 5\n")
        with pytest.raises(ConfigError, match="trails"):
            parse_config(path)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "trails" in capsys.readouterr().err

    def test_removed_channel_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(LATENCY_CFG.format(out=tmp_path / "out").replace(
            "bandwidth_hz = 10e6", "bandwidth_hz = 10e6\npath_loss = 1e-9"))
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "path_loss" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nkind = latency_table\n\n[sweeps]\nq_bits = 6\n")
        with pytest.raises(ConfigError, match="sweeps"):
            parse_config(path)

    def test_empirical_requires_sample_file(self):
        cfg = ExperimentConfig(experiment="latency_table",
                               feature_kind="empirical")
        with pytest.raises(ConfigError, match="sample_file"):
            cfg.feature_model()


class TestLatencyTable:
    def test_reference_rows_present(self, tmp_path):
        cfg = ExperimentConfig(experiment="latency_table",
                               snr_grid_db=(6.0, 10.0, 16.0),
                               output_dir=str(tmp_path))
        result, paths = experiments.run_experiment(cfg)
        with open(paths["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        air = [r for r in rows if r["scheme"] == "airpool"]
        assert len(air) == 1
        assert float(air[0]["latency_ms"]) == pytest.approx(1.7911, abs=1e-9)
        digital = {float(r["snr_db"]): float(r["latency_ms"])
                   for r in rows if r["scheme"] == "digital"}
        assert abs(digital[6.0] - 22.90) / 22.90 <= 0.05
        assert abs(digital[10.0] - 18.64) / 18.64 <= 0.02
        assert abs(digital[16.0] - 14.47) / 14.47 <= 0.02

    def test_csv_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = ExperimentConfig(experiment="latency_table",
                                   output_dir=str(out))
            experiments.run_experiment(cfg)
        assert _sha(out1 / "latency_table.csv") == _sha(out2 / "latency_table.csv")

    def test_svg_written_and_csv_untouched(self, tmp_path):
        cfg = ExperimentConfig(experiment="latency_table", output_dir=str(tmp_path))
        _, paths = experiments.run_experiment(cfg)
        before = _sha(paths["csv"])
        assert paths["svg"].endswith(".svg")
        text = open(paths["svg"]).read()
        assert text.startswith("<svg") and "polyline" in text
        assert _sha(paths["csv"]) == before

    def test_meta_sidecar_has_hash(self, tmp_path):
        cfg = ExperimentConfig(experiment="latency_table", output_dir=str(tmp_path))
        _, paths = experiments.run_experiment(cfg)
        meta = json.load(open(paths["meta"]))
        assert meta["csv_sha256"] == _sha(paths["csv"])
        assert "config" in meta and "written_at_unix" in meta


class TestTradeoffExperiment:
    def test_three_models_emitted(self, tmp_path):
        cfg = ExperimentConfig(experiment="tradeoff_curve",
                               snr_grid_db=(6.0,),
                               alpha_grid=(1.0, 2.0, 4.0, 8.0),
                               trials=20_000, output_dir=str(tmp_path))
        result, paths = experiments.run_experiment(cfg)
        models = {r["model"] for r in result.rows}
        assert models == {"rectified_gaussian", "uniform01", "exponential_unit"}
        for r in result.rows:
            assert r["diagnostics"] == ""

    def test_reproducible(self, tmp_path):
        hashes = []
        for sub in ("x", "y"):
            cfg = ExperimentConfig(experiment="tradeoff_curve",
                                   snr_grid_db=(6.0,), alpha_grid=(1.0, 4.0),
                                   trials=20_000,
                                   output_dir=str(tmp_path / sub))
            _, paths = experiments.run_experiment(cfg)
            hashes.append(_sha(paths["csv"]))
        assert hashes[0] == hashes[1]


class TestBoundValidationGate:
    def test_small_grid_passes(self, tmp_path):
        cfg = ExperimentConfig(experiment="bound_validation", trials=20_000,
                               snr_grid_db=(6.0,), alpha_grid=(1.0, 4.0),
                               seed=5, output_dir=str(tmp_path))
        result, _ = experiments.run_experiment(cfg)
        assert result.failures == 0
        checks = {r["check"] for r in result.rows}
        assert {"noise-bound", "approx-bound", "decomposition",
                "asymptote-tightness", "asymptote-slope",
                "stationarity-gap-monotone", "surrogate-near-optimality",
                "reconfig-average", "reconfig-max", "reconfig-max-monotone",
                "sandwich", "average-argmin", "low-snr-argmin",
                "margin-chain", "chi-fit"} <= checks

    def test_noise_bound_violation_fails_named_check(self, tmp_path, monkeypatch):
        shrink_noise_bound(monkeypatch)
        cfg = ExperimentConfig(experiment="bound_validation", trials=20_000,
                               snr_grid_db=(6.0,), alpha_grid=(4.0,),
                               seed=5, output_dir=str(tmp_path))
        result, _ = experiments.run_experiment(cfg)
        failing = {r["check"] for r in result.rows if not r["passed"]}
        assert "noise-bound" in failing

    def test_grid_rows_match_per_point_loop(self, tmp_path):
        # One error sweep per mode over a grid that mixes SNRs gives the
        # rows of drawing every (mode, alpha, SNR) point on its own.
        k, seed, trials = 4, 3, 10_000
        cfg = ExperimentConfig(experiment="bound_validation", trials=trials,
                               system=SystemParams(k_sensors=k),
                               snr_grid_db=(0.0, 12.0), alpha_grid=(1.0, 4.0, 16.0),
                               seed=seed, output_dir=str(tmp_path))
        result, _ = experiments.run_experiment(cfg)
        model = FeatureModel.rectified_gaussian()
        noise = cfg.system.subchannel_noise_w
        expected = []
        for alpha in cfg.alpha_grid:
            beta = feat.optimal_beta_grid(model, k, [alpha], trials=400_000,
                                          seed=seed)[0].value
            for snr_db in cfg.snr_grid_db:
                p_rx = db_to_linear(snr_db) * noise
                for point in (
                        AirPoolConfig.average_ground_truth(model, k, alpha, p_rx, noise),
                        AirPoolConfig(PoolingMode.max(), alpha, beta, p_rx, noise,
                                      feat.normalization_moments(model, alpha))):
                    err, = analysis.estimate_errors_grid(model, [point], k,
                                                         trials=trials, seed=seed)
                    expected += per_point_rows(err, point.mode.kind, alpha, snr_db)
        assert result.rows[:len(expected)] == expected
        assert len(expected) == 36

    @pytest.mark.parametrize("snr_grid_db", [(0.0, 12.0), (12.0, 0.0)])
    def test_argmin_rows_match_per_sweep_search(self, tmp_path, monkeypatch, snr_grid_db):
        # The argmin configurations ride at the end of each mode's error
        # sweep; each decision equals a brute-force search drawn on its own.
        k, seed, trials = 4, 3, 10_000
        decisions = []
        lowest_error_alpha = optimizer.lowest_error_alpha

        def recording(grid, errors):
            decision = lowest_error_alpha(grid, errors)
            decisions.append((decision.alpha_star, decision.objective_value))
            return decision

        monkeypatch.setattr(optimizer, "lowest_error_alpha", recording)
        cfg = ExperimentConfig(experiment="bound_validation", trials=trials,
                               system=SystemParams(k_sensors=k),
                               snr_grid_db=snr_grid_db, alpha_grid=(1.0, 4.0),
                               seed=seed, output_dir=str(tmp_path))
        result, _ = experiments.run_experiment(cfg)
        shared, decisions[:] = list(decisions), []
        model = FeatureModel.rectified_gaussian()
        noise = cfg.system.subchannel_noise_w
        e2 = feat.max_second_moment(model, k, trials=100_000, seed=seed).value
        grid = (1.0, 2.0, 4.0)
        average = optimizer.brute_force_alpha(
            model, PoolingMode.average(), k, db_to_linear(snr_grid_db[0]) * noise,
            noise, grid, trials=trials, seed=seed)
        low_snr = optimizer.brute_force_alpha(
            model, PoolingMode.max(), k, 0.5 * optimizer.low_snr_threshold(k, e2) * noise,
            noise, grid, trials=trials, seed=seed)
        assert shared == decisions
        rows = {r["check"]: r for r in result.rows if r["check"].endswith("-argmin")}
        assert (rows["average-argmin"]["measured"], rows["average-argmin"]["snr_db"]) \
            == (average.alpha_star, snr_grid_db[0])
        assert rows["low-snr-argmin"]["measured"] == low_snr.alpha_star


def shrink_noise_bound(monkeypatch):
    """Put every closed-form noise bound far below the measured noise error,
    so the gate's failure path runs."""
    bound = analysis.noise_error_bound_from_moments
    monkeypatch.setattr(analysis, "noise_error_bound_from_moments",
                        lambda *args: 1e-6 * bound(*args))


def per_point_rows(err, mode_name, alpha, snr_db):
    """The noise, approximation and decomposition rows of one grid point."""
    eps_tol = 4.0 * math.hypot(err.se_appr, err.approx_bound_se)
    slack = err.decomposition_slack()
    point = {"mode": mode_name, "alpha": alpha, "snr_db": snr_db}
    return [
        {"check": "noise-bound", **point, "measured": err.d_chan,
         "bound": err.noise_bound,
         "slack": err.noise_bound + 4.0 * err.se_chan - err.d_chan,
         "passed": err.d_chan <= err.noise_bound + 4.0 * err.se_chan},
        {"check": "approx-bound", **point, "measured": err.d_appr,
         "bound": err.approx_bound, "slack": err.approx_bound + eps_tol - err.d_appr,
         "passed": err.d_appr <= err.approx_bound + eps_tol},
        {"check": "decomposition", **point, "measured": err.d_total,
         "bound": err.c0 * (err.d_chan + err.d_appr), "slack": slack,
         "passed": slack >= 0.0},
    ]


class TestAlphaOptimality:
    def test_closed_form_error_matches_separate_call(self, tmp_path):
        # The closed-form alpha rides along in the sweep's draws; its error
        # equals a separate estimate at that alpha.
        k, seed, trials = 6, 5, 10_000
        cfg = ExperimentConfig(experiment="alpha_optimality", trials=trials,
                               system=SystemParams(k_sensors=k),
                               snr_grid_db=(15.0, 25.0), seed=seed,
                               output_dir=str(tmp_path))
        result, _ = experiments.run_experiment(cfg)
        model = FeatureModel.rectified_gaussian()
        noise = cfg.system.subchannel_noise_w
        e2 = feat.max_second_moment(model, k, trials=100_000, seed=seed).value
        for row in result.rows:
            p_bar = db_to_linear(row["snr_db"]) * noise
            alpha = optimizer.closed_form_alpha(k, p_bar, noise, e2).alpha_star
            beta = feat.optimal_beta_grid(model, k, [alpha], trials=400_000,
                                          seed=seed)[0].value
            point = AirPoolConfig(PoolingMode.max(), alpha, beta, p_bar, noise,
                                  feat.normalization_moments(model, alpha))
            err, = analysis.estimate_errors_grid(model, [point], k, trials=trials,
                                                 seed=seed)
            assert (row["alpha_closed"], row["d_closed"]) == (alpha, err.d_total)
            assert alpha not in optimizer.default_alpha_grid(48)

    def test_brute_force_columns_match_per_snr_sweep(self, tmp_path):
        # One sweep over every (alpha, SNR) pair gives each SNR's brute-force
        # alpha and error of a sweep over that SNR alone.
        k, seed, trials = 6, 5, 10_000
        cfg = ExperimentConfig(experiment="alpha_optimality", trials=trials,
                               system=SystemParams(k_sensors=k),
                               snr_grid_db=(15.0, 25.0, 35.0), seed=seed,
                               output_dir=str(tmp_path))
        result, _ = experiments.run_experiment(cfg)
        model = FeatureModel.rectified_gaussian()
        noise = cfg.system.subchannel_noise_w
        grid = optimizer.default_alpha_grid(48)
        betas = optimizer.BetaTable(model, k, seed=seed)
        betas.fill(grid)
        for row in result.rows:
            p_bar = db_to_linear(row["snr_db"]) * noise
            cfgs = [optimizer.config_for(model, PoolingMode.max(), k, alpha, p_bar,
                                         noise, betas) for alpha in grid]
            errors = analysis.estimate_errors_grid(model, cfgs, k, trials=trials,
                                                   seed=seed)
            brute = optimizer.lowest_error_alpha(grid, errors)
            assert (row["alpha_bruteforce"], row["d_bruteforce"]) \
                == (brute.alpha_star, brute.objective_value)
        assert [r["snr_db"] for r in result.rows] == [15.0, 25.0, 35.0]


def load_benchmark_runner():
    """perfbench/run.py, which writes the benchmark's experiment configs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestConfigCoverage:
    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(ROOT, "configs",
                                                                   "*.ini"))),
                             ids=os.path.basename)
    def test_repository_configs_parse(self, path):
        assert parse_config(path).experiment in experiments.EXPERIMENT_KINDS

    @pytest.mark.parametrize("scale", ["full", "tiny"])
    def test_benchmark_configs_parse(self, tmp_path, monkeypatch, scale):
        monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends its dir
        runner = load_benchmark_runner()
        assert len(runner.WORKLOADS) == 3
        for workload, spec in runner.WORKLOADS.items():
            path = tmp_path / f"{workload}.ini"
            path.write_text(runner.config_text(workload, scale, 1, str(tmp_path)))
            assert parse_config(path).experiment == spec["kind"]

    def test_parallel_workers_rejected(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(LATENCY_CFG.format(out=tmp_path / "out")
                        .replace("seed = 7", "seed = 7\nworkers = 2"))
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "parallel workers were removed" in capsys.readouterr().err


class TestBenchmarkCsvBytes:
    """Every benchmark workload, run in-process at its tiny size, writes the
    CSV bytes recorded at the seed commit."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("workload", ["alpha_search", "bound_gate", "sensing_e2e"])
    def test_tiny_csv_matches_seed_commit(self, workload, seed, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends its dir
        runner = load_benchmark_runner()
        with open(os.path.join(ROOT, "perfbench", "csv_sha256_seed_commit.json")) as fh:
            want = json.load(fh)["tiny"][workload][str(seed)]
        path = tmp_path / "bench.ini"
        path.write_text(runner.config_text(workload, "tiny", seed, str(tmp_path / "out")))
        _, paths = experiments.run_experiment(parse_config(path))
        assert _sha(paths["csv"]) == want


# Inputs outside their documented range, each with the field its error
# message names: a config body for `run` (or for the subcommand and options
# that follow it), or a subcommand's argv.
RANGE_ERRORS = {
    "run-bound-alpha-below-one": (
        "alpha_grid", ("bound_validation", "[sweep]\nalpha_grid = 0.5, 2")),
    "run-tradeoff-alpha-descending": (
        "alpha_grid", ("tradeoff_curve", "[sweep]\nalpha_grid = 4, 2")),
    "run-alpha-optimality-k-2": ("k_sensors", ("alpha_optimality", "[system]\nk_sensors = 2")),
    "run-alpha-optimality-snr-not-above-k": (
        "snr_grid_db", ("alpha_optimality", "[sweep]\nsnr_grid_db = 5, 30")),
    "run-bound-k-1": ("k_sensors", ("bound_validation", "[system]\nk_sensors = 1")),
    "run-e2e-no-samples": ("n_samples", ("synthetic_e2e", "[sweep]\nn_samples = 0")),
    "run-e2e-no-trials-per-sample": (
        "trials_per_sample",
        ("synthetic_e2e", "[sweep]\nn_samples = 100\ntrials_per_sample = 0")),
    "run-e2e-negative-epochs": (
        "epochs", ("synthetic_e2e", "[sweep]\nn_samples = 300\nepochs = -1")),
    "run-e2e-nan-learning-rate": (
        "learning_rate", ("synthetic_e2e", "[sweep]\nn_samples = 300\nlearning_rate = nan")),
    "run-e2e-negative-learning-rate": (
        "learning_rate", ("synthetic_e2e", "[sweep]\nn_samples = 300\nlearning_rate = -1")),
    "run-latency-q-bits-0": ("q_bits", ("latency_table", "[sweep]\nq_bits = 0")),
    "run-e2e-trials-override-5": (
        "trials", ("synthetic_e2e", "[sweep]\nn_samples = 300", "run", "--trials", "5")),
    "validate-bounds-trials-override-5": (
        "trials", ("bound_validation", "[sweep]\nsnr_grid_db = 0, 6, 12\nalpha_grid = 1, 4, 16",
                   "validate-bounds", "--trials", "5")),
    "latency-q-bits-0": ("q_bits", ["latency", "--q-bits", "0"]),
    "train-snn-no-samples": ("n_samples", ["train-snn", "--samples", "0"]),
    "optimize-alpha-k-0": ("k", ["optimize-alpha", "--k", "0"]),
}

# Keys outside each experiment's set, as (kind, section, key, value): each
# one changes nothing for that experiment, so the file is rejected.
UNREAD_KEYS = [
    *[(kind, "experiment", "fault_injection", "noise_bound")
      for kind in experiments.EXPERIMENT_KINDS],
    ("latency_table", "experiment", "trials", "10"),
    ("latency_table", "system", "n_subchannels", "12"),
    ("latency_table", "system", "noise_density_dbm_per_hz", "-174"),
    ("latency_table", "system", "noise_figure_db", "4"),
    ("latency_table", "feature_model", "kind", "uniform01"),
    ("latency_table", "feature_model", "sample_file", "features.txt"),
    ("latency_table", "sweep", "alpha_grid", "1, 2"),
    ("latency_table", "sweep", "n_samples", "300"),
    ("latency_table", "sweep", "epochs", "10"),
    ("latency_table", "sweep", "learning_rate", "0.5"),
    ("latency_table", "sweep", "trials_per_sample", "10"),
    *[(kind, section, key, value)
      for kind in ("tradeoff_curve", "bound_validation", "alpha_optimality")
      for section, key, value in (("system", "n_features", "100"),
                                  ("sweep", "q_bits", "6"), ("sweep", "n_samples", "300"),
                                  ("sweep", "epochs", "10"),
                                  ("sweep", "learning_rate", "0.5"),
                                  ("sweep", "trials_per_sample", "10"))],
    ("alpha_optimality", "sweep", "alpha_grid", "1, 2"),
    ("synthetic_e2e", "system", "k_sensors", "4"),
    ("synthetic_e2e", "system", "n_features", "100"),
    ("synthetic_e2e", "sweep", "alpha_grid", "1, 2"),
    ("synthetic_e2e", "sweep", "q_bits", "6"),
]

# The keys each experiment reads, as (section, key, value).
_NOISE_KEYS = [("system", "bandwidth_hz", "10e6"), ("system", "n_subchannels", "12"),
               ("system", "noise_density_dbm_per_hz", "-174"),
               ("system", "noise_figure_db", "4")]
_MONTE_CARLO_KEYS = [("experiment", "trials", "10000"), *_NOISE_KEYS,
                     ("feature_model", "kind", "rectified_gaussian"),
                     ("sweep", "snr_grid_db", "20, 30")]
READ_KEYS = {
    "latency_table": [("system", "k_sensors", "12"), ("system", "n_features", "100"),
                      ("system", "bandwidth_hz", "10e6"), ("sweep", "snr_grid_db", "6"),
                      ("sweep", "q_bits", "6")],
    "tradeoff_curve": [*_MONTE_CARLO_KEYS, ("system", "k_sensors", "12"),
                       ("sweep", "alpha_grid", "1, 2")],
    "bound_validation": [*_MONTE_CARLO_KEYS, ("system", "k_sensors", "12"),
                         ("sweep", "alpha_grid", "1, 2")],
    "alpha_optimality": [*_MONTE_CARLO_KEYS, ("system", "k_sensors", "12")],
    "synthetic_e2e": [*_MONTE_CARLO_KEYS, ("sweep", "n_samples", "300"),
                      ("sweep", "epochs", "10"), ("sweep", "learning_rate", "0.5"),
                      ("sweep", "trials_per_sample", "10")],
}


def config_body(kind, entries, out):
    """A config file of this kind with (section, key, value) entries."""
    sections = {"experiment": [f"kind = {kind}", "seed = 1", f"output_dir = {out}",
                               "workers = 1"]}
    for section, key, value in entries:
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n\n"
                   for name, lines in sections.items())


@pytest.fixture
def no_draw_or_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a rejected input reached training")

    def no_draw(*args, **kwargs):
        raise AssertionError("a rejected input reached a Monte Carlo draw")

    monkeypatch.setattr(sensing, "train_classifier", no_training)
    monkeypatch.setattr(FeatureModel, "draw", no_draw)


class TestExperimentKeys:
    @pytest.mark.parametrize("kind,section,key,value", UNREAD_KEYS,
                             ids=lambda v: str(v))
    def test_unread_key_is_a_config_error(self, kind, section, key, value, tmp_path,
                                          capsys, no_draw_or_training):
        path = tmp_path / "exp.ini"
        path.write_text(config_body(kind, [(section, key, value)], tmp_path / "out"))
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"[{section}] " in err and key in err
        if key != "fault_injection":
            assert f"{kind} does not read this key" in err

    def test_trials_override_of_latency_table_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["run", "--config", os.path.join(ROOT, "configs", "latency.ini"),
                         "--trials", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --trials: latency_table does not read")
        assert not out.exists()

    @pytest.mark.parametrize("kind", experiments.EXPERIMENT_KINDS)
    def test_every_read_key_is_accepted(self, kind, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(config_body(kind, READ_KEYS[kind], tmp_path / "out"))
        cfg = parse_config(path)
        assert (cfg.experiment, cfg.seed) == (kind, 1)


class TestCliExitCodes:
    @pytest.mark.parametrize("case", sorted(RANGE_ERRORS))
    def test_out_of_range_input_is_a_config_error(self, case, tmp_path, capsys,
                                                  no_draw_or_training):
        named, argv = RANGE_ERRORS[case]
        if isinstance(argv, tuple):
            kind, body, *command = argv
            trials = "" if kind == "latency_table" else "trials = 10000\n"
            path = tmp_path / "exp.ini"
            path.write_text(f"[experiment]\nkind = {kind}\n{trials}"
                            f"output_dir = {tmp_path / 'out'}\n\n{body}\n")
            command = command or ["run"]
            argv = [command[0], "--config", str(path), *command[1:]]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert re.search(rf"\b{named}\b", err)

    def test_run_latency(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(LATENCY_CFG.format(out=tmp_path / "out"))
        assert cli.main(["run", "--config", str(path)]) == 0
        assert "latency_table" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nkind = nonsense\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_validate_bounds_pass_and_fail(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "ok.ini"
        path.write_text(SMALL_BOUNDS_CFG.format(out=tmp_path / "ok"))
        assert cli.main(["validate-bounds", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK: all" in out

        shrink_noise_bound(monkeypatch)
        bad = tmp_path / "bad.ini"
        bad.write_text(SMALL_BOUNDS_CFG.format(out=tmp_path / "bad"))
        assert cli.main(["validate-bounds", "--config", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL:" in out and "noise-bound" in out.split("FAIL:")[1]

    def test_validate_bounds_takes_only_a_bound_validation_config(self, capsys,
                                                                   monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a rejected config reached a Monte Carlo draw")

        monkeypatch.setattr(FeatureModel, "draw", no_draw)
        path = os.path.join(ROOT, "configs", "e2e.ini")
        assert cli.main(["validate-bounds", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "synthetic_e2e" in err

    def test_numeric_error_exit_code(self, tmp_path, capsys):
        # Gamma(129) of the unit-exponential moments overflows a float.
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nkind = tradeoff_curve\ntrials = 10000\n"
                        f"output_dir = {tmp_path / 'out'}\n\n"
                        "[sweep]\nsnr_grid_db = 10\nalpha_grid = 1, 16, 128\n")
        assert cli.main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: OverflowError")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_latency_command(self, capsys):
        assert cli.main(["latency", "--snr-db", "6", "10", "16"]) == 0
        out = capsys.readouterr().out
        assert "1.7911" in out

    def test_optimize_alpha_command(self, capsys):
        assert cli.main(["optimize-alpha", "--k", "12", "--snr-db", "30",
                         "--trials", "50000"]) == 0
        out = capsys.readouterr().out
        assert "closed_form" in out

    def test_train_snn_command(self, capsys):
        assert cli.main(["train-snn", "--samples", "1500", "--epochs", "60",
                         "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "clean accuracy" in out

    def test_seed_override_changes_output(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(LATENCY_CFG.format(out=tmp_path / "out"))
        assert cli.main(["run", "--config", str(path), "--seed", "99",
                         "--out", str(tmp_path / "o2")]) == 0
        meta = json.load(open(tmp_path / "o2" / "latency_table.meta.json"))
        assert meta["config"]["seed"] == 99
