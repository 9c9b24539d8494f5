"""Config parsing, experiment artifacts, reproducibility, and CLI exit
codes."""

import argparse
import contextlib
import csv
import dataclasses
import glob
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from airpool import analysis, cli, experiments, features as feat, optimizer, sensing
from airpool._mc import pairwise_nodes, rng_from
from airpool.channel import NOISE_W, db_to_linear
from airpool.experiments import ConfigError, ExperimentConfig, parse_config
from airpool.features import FeatureModel
from airpool.pooling import AirPoolConfig, PoolingMode
from oracles import dense_average_approx_bound

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
        assert cfg.n_features == 17911
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

    def test_latency_command_echoes_the_config_defaults(self, tmp_path, capsys):
        # The options the user does not type leave ExperimentConfig's
        # defaults; --snr-db has its own.
        assert cli.main(["latency", "--out", str(tmp_path)]) == 0
        echo = json.load(open(tmp_path / "latency_table.meta.json"))["config"]
        defaults = dataclasses.asdict(ExperimentConfig(experiment="latency_table"))
        assert echo == {**{key: defaults[key] for key in echo},
                        "snr_grid_db": [6.0, 10.0, 16.0], "output_dir": str(tmp_path)}
        assert {"k_sensors", "n_features", "bandwidth_hz", "q_bits", "seed"} <= echo.keys()

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

    @pytest.mark.parametrize("feature_model,models", [
        ("", ["rectified_gaussian", "uniform01", "exponential_unit"]),
        ("[feature_model]\nkind = empirical\nsample_file = {samples}\n", ["empirical"])],
        ids=["kind-omitted", "empirical"])
    def test_sidecar_names_the_models_that_ran(self, tmp_path, feature_model, models):
        samples = tmp_path / "samples.txt"
        samples.write_text("0.5\n1.5\n2.0\n")
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\nkind = tradeoff_curve\ntrials = 10000\n"
                        f"output_dir = {tmp_path / 'out'}\n\n[sweep]\nsnr_grid_db = 6\n"
                        f"alpha_grid = 1, 4\n\n" + feature_model.format(samples=samples))
        result, paths = experiments.run_experiment(parse_config(path))
        assert [r["model"] for r in result.rows][::2] == models
        with open(paths["meta"]) as fh:
            assert json.load(fh)["config"]["feature_kind"] == models


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

    def test_one_sweep_one_power_per_alpha_one_fmax_draw(self, tmp_path, monkeypatch):
        # Both pooling modes share one error sweep, which powers each
        # distinct alpha once per block; E[fmax^2] and the max-mode
        # approximation bound read one (seed, 0) draw besides the beta*
        # table's, and one averaging-bound call covers the grid alphas, not
        # the argmin grid. The reconfiguration check powers its own
        # 10k-row draw, raw and then rescaled.
        seed, trials = 3, 10_000
        sweeps, keys, in_beta_table, avg_bounds, in_sweep = [], [], [], [], []
        loads = {}  # the caller of each `_RowSums` -> the alphas of each load
        errors_grid, average_bounds = (analysis.estimate_errors_grid,
                                       analysis.average_approx_error_bounds)
        init, load, call = feat._RowSums.__init__, feat._RowSums.load, feat._RowSums.__call__
        rng_from, beta_grid = feat.rng_from, feat.optimal_beta_grid

        def counting_errors_grid(*args, **kwargs):
            sweeps.append(len(args[1]))
            in_sweep.append(True)
            try:
                return errors_grid(*args, **kwargs)
            finally:
                in_sweep.pop()

        def recording_average_bounds(model, k, alphas, trials, seed):
            avg_bounds.append(list(alphas))
            in_sweep.append(False)
            try:
                return average_bounds(model, k, alphas, trials, seed)
            finally:
                in_sweep.pop()

        def counting_init(self, k, n):
            caller = "beta" if in_beta_table else \
                {(): "reconfig", (True,): "sweep", (False,): "average"}[tuple(in_sweep)]
            assert caller not in loads
            self.caller, loads[caller] = caller, []
            init(self, k, n)

        def counting_load(self, x):
            loads[self.caller].append([])
            load(self, x)

        def counting_call(self, alpha, out):
            loads[self.caller][-1].append(alpha)
            return call(self, alpha, out)

        def counting_rng_from(*key):
            keys.append((key, bool(in_beta_table)))
            return rng_from(*key)

        def counting_beta_grid(*args, **kwargs):
            in_beta_table.append(True)
            try:
                return beta_grid(*args, **kwargs)
            finally:
                in_beta_table.pop()

        monkeypatch.setattr(analysis, "estimate_errors_grid", counting_errors_grid)
        monkeypatch.setattr(analysis, "average_approx_error_bounds", recording_average_bounds)
        monkeypatch.setattr(feat._RowSums, "__init__", counting_init)
        monkeypatch.setattr(feat._RowSums, "load", counting_load)
        monkeypatch.setattr(feat._RowSums, "__call__", counting_call)
        for module in (feat, analysis):
            monkeypatch.setattr(module, "rng_from", counting_rng_from)
        monkeypatch.setattr(feat, "optimal_beta_grid", counting_beta_grid)
        cfg = ExperimentConfig(experiment="bound_validation", trials=trials,
                               k_sensors=4,
                               snr_grid_db=(0.0, 12.0), alpha_grid=(1.0, 4.0, 16.0),
                               seed=seed, output_dir=str(tmp_path))
        result, _ = experiments.run_experiment(cfg)
        assert result.failures == 0
        # (3 grid alphas x 2 SNRs + 3 argmin alphas) x 2 modes.
        assert sweeps == [18]
        assert avg_bounds == [[1.0, 4.0, 16.0]]
        blocks = len(pairwise_nodes(trials, feat._BLOCK_ROWS))
        assert [sorted(alphas) for alphas in loads["sweep"]] \
            == [[1.0, 2.0, 4.0, 16.0]] * blocks
        assert loads["average"] == [[1.0, 4.0, 16.0]] * blocks
        assert loads["reconfig"] == [list(experiments._RECONFIG_ALPHAS)] * 2 * blocks
        assert [key for key, beta in keys if beta] == [(seed, 0)]
        # Besides the chi fit's (seed,): E[fmax^2], the sweep and the
        # averaging bound, one draw each, and the sweep's stream once more
        # to reach the unit noise that follows its features.
        assert sorted(key for key, beta in keys if not beta) \
            == [(seed,), (seed, 0), (seed, 0, 0), (seed, 0, 0), (seed, 1, 0)]

    def test_sandwich_holds_where_the_powered_maximum_underflows(self):
        # Seed 1611 draws a row whose maximum, about 7e-6, powers to 0.0 at
        # alpha = 64; the protocol-form estimate of that row is then 0.0,
        # below fmax K^(-1/64), though no bound is violated.
        k, seed = 12, 1611
        model = FeatureModel.rectified_gaussian()
        fmax = model.draw(rng_from(seed), (50_000, k)).max(axis=1)
        assert np.any((fmax > 0.0) & (fmax ** 64 == 0.0))
        cfg = ExperimentConfig(experiment="bound_validation", trials=100_000,
                               k_sensors=k, seed=seed)
        rows = experiments._reconfigurability_checks(
            model, k, cfg, optimizer.BetaTable(model, k, seed=seed))
        sandwich, = [row for row in rows if row["check"] == "sandwich"]
        assert sandwich["passed"] and sandwich["measured"] == 0.0

    def test_quick_config_csv_is_pinned(self, tmp_path):
        # Its trials = 20000 is below the 100,000-trial E[fmax^2] draw, so the
        # max-mode approximation bounds read a prefix of that draw.
        cfg = parse_config(os.path.join(ROOT, "configs", "bounds_quick.ini"))
        cfg.output_dir = str(tmp_path)
        result, paths = experiments.run_experiment(cfg)
        assert result.failures == 0
        assert _sha(paths["csv"]) \
            == "5612d7e9b970d1666e515b0b19e0e1cc2db856d5f1e415fae8deaaa489110223"

    def test_noise_bound_violation_fails_named_check(self, tmp_path, monkeypatch):
        shrink_noise_bound(monkeypatch)
        cfg = ExperimentConfig(experiment="bound_validation", trials=20_000,
                               snr_grid_db=(6.0,), alpha_grid=(4.0,),
                               seed=5, output_dir=str(tmp_path))
        result, _ = experiments.run_experiment(cfg)
        failing = {r["check"] for r in result.rows if not r["passed"]}
        assert "noise-bound" in failing

    def test_grid_rows_match_per_point_loop(self, tmp_path):
        # One error sweep over both modes and a grid that mixes SNRs gives
        # the rows of drawing every (mode, alpha, SNR) point on its own.
        k, seed, trials = 4, 3, 10_000
        cfg = ExperimentConfig(experiment="bound_validation", trials=trials,
                               k_sensors=k,
                               snr_grid_db=(0.0, 12.0), alpha_grid=(1.0, 4.0, 16.0),
                               seed=seed, output_dir=str(tmp_path))
        result, _ = experiments.run_experiment(cfg)
        model = FeatureModel.rectified_gaussian()
        noise = NOISE_W
        e2 = feat.max_second_moment(model, k, trials=trials, seed=seed)
        expected = []
        for alpha in cfg.alpha_grid:
            beta = feat.optimal_beta_grid(model, k, [alpha], trials=400_000,
                                          seed=seed)[0].value
            for snr_db in cfg.snr_grid_db:
                p_rx = db_to_linear(snr_db) * noise
                for point in (
                        AirPoolConfig.for_average(model, k, p_rx, noise, alpha),
                        AirPoolConfig(PoolingMode.max(), alpha, beta, p_rx, noise,
                                      feat.normalization_moments(model, alpha))):
                    err, = analysis.estimate_errors_grid(model, [point], k, trials=trials,
                                                         seed=seed)
                    expected += per_point_rows(err, point, snr_db, model, k, trials, seed, e2)
        assert result.rows[:len(expected)] == expected
        assert len(expected) == 36

    @pytest.mark.parametrize("snr_grid_db", [(0.0, 12.0), (12.0, 0.0)])
    def test_argmin_rows_match_per_sweep_search(self, tmp_path, monkeypatch, snr_grid_db):
        # The argmin configurations ride at the end of each mode's part of
        # the error sweep; each decision equals a brute-force search drawn on
        # its own.
        k, seed, trials = 4, 3, 10_000
        decisions = []
        lowest_error_alpha = optimizer.lowest_error_alpha

        def recording(grid, errors):
            decision = lowest_error_alpha(grid, errors)
            decisions.append((decision.alpha_star, decision.objective_value))
            return decision

        monkeypatch.setattr(optimizer, "lowest_error_alpha", recording)
        cfg = ExperimentConfig(experiment="bound_validation", trials=trials,
                               k_sensors=k,
                               snr_grid_db=snr_grid_db, alpha_grid=(1.0, 4.0),
                               seed=seed, output_dir=str(tmp_path))
        result, _ = experiments.run_experiment(cfg)
        shared, decisions[:] = list(decisions), []
        model = FeatureModel.rectified_gaussian()
        noise = NOISE_W
        e2 = feat.max_second_moment(model, k, trials=100_000, seed=seed).value
        grid = (1.0, 2.0, 4.0)
        average = optimizer.lowest_error_alpha(grid, analysis.estimate_errors_grid(
            model, [AirPoolConfig.for_average(model, k, db_to_linear(snr_grid_db[0]) * noise,
                                              noise, alpha) for alpha in grid],
            k, trials=trials, seed=seed))
        low_snr, = optimizer.brute_force_alpha(
            model, k, [0.5 * optimizer.low_snr_threshold(k, e2) * noise], noise, grid,
            trials=trials, seed=seed)
        assert shared == decisions
        rows = {r["check"]: r for r in result.rows if r["check"].endswith("-argmin")}
        assert (rows["average-argmin"]["measured"], rows["average-argmin"]["snr_db"]) \
            == (average.alpha_star, snr_grid_db[0])
        assert rows["low-snr-argmin"]["measured"] == low_snr.alpha_star


def shrink_noise_bound(monkeypatch):
    """Put every closed-form noise bound far below the measured noise error,
    so the gate's failure path runs."""
    bound = analysis.noise_error_bound
    monkeypatch.setattr(analysis, "noise_error_bound", lambda *args: 1e-6 * bound(*args))


def per_point_rows(err, cfg, snr_db, model, k, trials, seed, e2):
    """The noise, approximation and decomposition rows of one grid point
    `cfg`: the bounds from the bound functions (max pooling from the
    E[fmax^2] estimate `e2`) and the dense averaging oracle."""
    d_total, d_chan, d_appr = err.total.value, err.chan.value, err.appr.value
    noise_bound = analysis.noise_error_bound(cfg.moments, cfg.p_rx_w, cfg.noise_power_w)
    if cfg.mode.kind == "max":
        eps, eps_se = (analysis.max_approx_error_bound(cfg.alpha, k, x)
                       for x in (e2.value, e2.std_error))
    else:
        eps, eps_se = dense_average_approx_bound(model, k, cfg.alpha, trials, seed)
    c0 = analysis.decomposition_c0(cfg.mode, cfg.alpha)
    eps_tol = 4.0 * math.hypot(err.appr.std_error, eps_se)
    slack = analysis.decomposition_slack(err, c0)
    point = {"mode": cfg.mode.kind, "alpha": cfg.alpha, "snr_db": snr_db}
    return [
        {"check": "noise-bound", **point, "measured": d_chan, "bound": noise_bound,
         "slack": noise_bound + 4.0 * err.chan.std_error - d_chan,
         "passed": d_chan <= noise_bound + 4.0 * err.chan.std_error},
        {"check": "approx-bound", **point, "measured": d_appr,
         "bound": eps, "slack": eps + eps_tol - d_appr, "passed": d_appr <= eps + eps_tol},
        {"check": "decomposition", **point, "measured": d_total,
         "bound": c0 * (d_chan + d_appr), "slack": slack, "passed": slack >= 0.0},
    ]


class TestAlphaOptimality:
    def test_closed_form_error_matches_separate_call(self, tmp_path):
        # The closed-form alpha rides along in the sweep's draws; its error
        # equals a separate estimate at that alpha.
        k, seed, trials = 6, 5, 10_000
        cfg = ExperimentConfig(experiment="alpha_optimality", trials=trials,
                               k_sensors=k,
                               snr_grid_db=(15.0, 25.0), seed=seed,
                               output_dir=str(tmp_path))
        result, _ = experiments.run_experiment(cfg)
        model = FeatureModel.rectified_gaussian()
        noise = NOISE_W
        e2 = feat.max_second_moment(model, k, trials=100_000, seed=seed).value
        for row in result.rows:
            p_bar = db_to_linear(row["snr_db"]) * noise
            alpha = optimizer.closed_form_alpha(k, p_bar, noise, e2).alpha_star
            beta = feat.optimal_beta_grid(model, k, [alpha], trials=400_000,
                                          seed=seed)[0].value
            point = AirPoolConfig(PoolingMode.max(), alpha, beta, p_bar, noise,
                                  feat.normalization_moments(model, alpha))
            err, = analysis.estimate_errors_grid(model, [point], k, trials=trials, seed=seed)
            assert (row["alpha_closed"], row["d_closed"]) == (alpha, err.total.value)
            assert alpha not in optimizer.default_alpha_grid(48)

    def test_brute_force_columns_match_per_snr_sweep(self, tmp_path):
        # One sweep over every (alpha, SNR) pair gives each SNR's brute-force
        # alpha and error of a sweep over that SNR alone.
        k, seed, trials = 6, 5, 10_000
        cfg = ExperimentConfig(experiment="alpha_optimality", trials=trials,
                               k_sensors=k,
                               snr_grid_db=(15.0, 25.0, 35.0), seed=seed,
                               output_dir=str(tmp_path))
        result, _ = experiments.run_experiment(cfg)
        model = FeatureModel.rectified_gaussian()
        noise = NOISE_W
        grid = optimizer.default_alpha_grid(48)
        betas = optimizer.BetaTable(model, k, seed=seed)
        betas.fill(grid)
        for row in result.rows:
            p_bar = db_to_linear(row["snr_db"]) * noise
            cfgs = [optimizer.config_for(model, PoolingMode.max(), k, alpha, p_bar,
                                         noise, betas) for alpha in grid]
            errors = analysis.estimate_errors_grid(model, cfgs, k, trials=trials, seed=seed)
            brute = optimizer.lowest_error_alpha(grid, errors)
            assert (row["alpha_bruteforce"], row["d_bruteforce"]) \
                == (brute.alpha_star, brute.objective_value)
        assert [r["snr_db"] for r in result.rows] == [15.0, 25.0, 35.0]

    def test_error_sweeps_compute_no_bound(self, tmp_path, monkeypatch):
        # The alpha searches only measure errors: every bound function raises
        # inside an error sweep, and the searches still run. (The closed
        # form's surrogate objective reads the max-pooling bound outside the
        # sweep.)
        in_sweep, sweeps = [], []
        errors_grid = analysis.estimate_errors_grid

        def sweep(*args, **kwargs):
            in_sweep.append(True)
            sweeps.append(len(args[1]))
            try:
                return errors_grid(*args, **kwargs)
            finally:
                in_sweep.pop()

        def raising_in_sweep(bound):
            def call(*args, **kwargs):
                if in_sweep:
                    raise AssertionError(f"{bound.__name__} ran inside an error sweep")
                return bound(*args, **kwargs)
            return call

        monkeypatch.setattr(analysis, "estimate_errors_grid", sweep)
        for name in ("noise_error_bound", "max_approx_error_bound",
                     "average_approx_error_bounds"):
            monkeypatch.setattr(analysis, name, raising_in_sweep(getattr(analysis, name)))
        model = FeatureModel.rectified_gaussian()
        decision, = optimizer.brute_force_alpha(model, 4, [5.0], 1.0, [1.0, 2.0, 4.0],
                                                trials=10_000, seed=2,
                                                betas=optimizer.BetaTable(
                                                    model, 4, beta_trials=20_000, seed=2))
        assert decision.method == optimizer.BRUTE_FORCE
        cfg = ExperimentConfig(experiment="alpha_optimality", trials=10_000,
                               k_sensors=4, snr_grid_db=(20.0,),
                               seed=2, output_dir=str(tmp_path))
        result, _ = experiments.run_experiment(cfg)
        assert len(result.rows) == 1 and sweeps == [3, 49]


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

    # Seeds of two and three 32-bit words; from 2**64 on, (seed, 0, 0) and
    # (seed, 1, 0) name streams of their own (see `_mc`).
    LARGE_SEED_SHA256 = {
        ("alpha_search", 2 ** 32 + 5):
            "264da5c75fd1b0f0750fef68add628d188b0517623bb7237c78989c8bea1da0f",
        ("alpha_search", 2 ** 64 + 3):
            "e4e0cc3b5de5f72e27af0a5c8848fec30e2910c4cc023c370d773cab578b5e63",
        ("bound_gate", 2 ** 32 + 5):
            "812656f31252fad7457b006f43271e77c6555dca9ded2001d3fd724cc63232a3",
        ("bound_gate", 2 ** 64 + 3):
            "97e4f20f42e85d7dfb372a7b462441758889799578f6cb69593e4909bbe40748",
    }

    @pytest.mark.parametrize("workload,seed", sorted(LARGE_SEED_SHA256))
    def test_tiny_csv_at_large_seed(self, workload, seed, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends its dir
        runner = load_benchmark_runner()
        path = tmp_path / "bench.ini"
        path.write_text(runner.config_text(workload, "tiny", seed, str(tmp_path / "out")))
        _, paths = experiments.run_experiment(parse_config(path))
        assert _sha(paths["csv"]) == self.LARGE_SEED_SHA256[workload, seed]


# Inputs outside their documented range, each with what its error message
# names: a config body for `run` (or for the subcommand and options that
# follow it) names its key, and an option names itself as typed.
RANGE_ERRORS = {
    "run-bound-alpha-below-one": (
        "alpha_grid", ("bound_validation", "[sweep]\nalpha_grid = 0.5, 2")),
    "run-tradeoff-alpha-descending": (
        "alpha_grid", ("tradeoff_curve", "[sweep]\nalpha_grid = 4, 2")),
    "run-tradeoff-misspelled-model": (
        r"feature_model\] kind", ("tradeoff_curve", "[feature_model]\nkind = unifrom01")),
    "run-alpha-optimality-k-2": (
        "k_sensors", ("alpha_optimality", "[system]\nk_sensors = 2\n[sweep]\nsnr_grid_db = 20")),
    "run-alpha-optimality-snr-not-above-k": (
        "snr_grid_db", ("alpha_optimality", "[sweep]\nsnr_grid_db = 5, 30")),
    "run-bound-k-1": ("k_sensors", ("bound_validation", "[system]\nk_sensors = 1")),
    "run-bound-k-3": ("k_sensors", ("bound_validation", "[system]\nk_sensors = 3")),
    "run-e2e-no-samples": ("n_samples", ("synthetic_e2e", "[sweep]\nn_samples = 0")),
    "run-e2e-one-sample": ("n_samples", ("synthetic_e2e", "[sweep]\nn_samples = 1")),
    "run-e2e-two-samples": ("n_samples", ("synthetic_e2e", "[sweep]\nn_samples = 2")),
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
    # log2(1 + K * 1e-100) rounds to 0: the digital rate would divide by zero.
    "run-latency-snr-minus-1e3": (
        "snr_grid_db", ("latency_table", "[sweep]\nsnr_grid_db = -1e3")),
    # tradeoff_curve evaluates one SNR; more would be silently dropped.
    "run-tradeoff-three-snrs": (
        "snr_grid_db", ("tradeoff_curve", "[sweep]\nsnr_grid_db = 10, 20, 30")),
    # Non-finite values are rejected before any draw, naming the key.
    **{f"run-{kind}-snr-{text}": ("snr_grid_db", (kind, f"[sweep]\nsnr_grid_db = {text}"))
       for kind in ("tradeoff_curve", "bound_validation", "alpha_optimality",
                    "latency_table")
       for text in ("nan", "inf", "-inf")},
    # The noise keys are unknown keys: the receive SNR is the only power input,
    # so no noise power, finite or not, reaches a run.
    "run-bound-noise-figure-inf": (
        r"system\] noise_figure_db: unknown key",
        ("bound_validation", "[system]\nnoise_figure_db = inf")),
    "run-tradeoff-noise-density-nan": (
        r"system\] noise_density_dbm_per_hz: unknown key",
        ("tradeoff_curve", "[system]\nnoise_density_dbm_per_hz = nan")),
    "run-tradeoff-noise-density-1e308": (
        r"system\] noise_density_dbm_per_hz: unknown key",
        ("tradeoff_curve", "[system]\nnoise_density_dbm_per_hz = 1e308")),
    "run-tradeoff-noise-density-minus-1e308": (
        r"system\] noise_density_dbm_per_hz: unknown key",
        ("tradeoff_curve", "[system]\nnoise_density_dbm_per_hz = -1e308")),
    # tradeoff_curve writes every built-in model, so naming one changes nothing.
    "run-tradeoff-built-in-model": (
        r"feature_model\] kind", ("tradeoff_curve", "[feature_model]\nkind = uniform01")),
    # The default snr_grid_db starts at 0 dB, which is above no K >= 4.
    "run-alpha-optimality-no-snr-grid": (
        "snr_grid_db: alpha_optimality requires", ("alpha_optimality", "")),
    # The ranges of [system]: K >= 1, N >= 0, and a finite bandwidth > 0.
    "run-latency-k-0": ("k_sensors", ("latency_table", "[system]\nk_sensors = 0")),
    "run-latency-n-features-minus-1": (
        "n_features", ("latency_table", "[system]\nn_features = -1")),
    "run-latency-bandwidth-0": ("bandwidth_hz", ("latency_table", "[system]\nbandwidth_hz = 0")),
    "run-latency-bandwidth-inf": ("bandwidth_hz", ("latency_table", "[system]\nbandwidth_hz = inf")),
    "run-latency-bandwidth-nan": ("bandwidth_hz", ("latency_table", "[system]\nbandwidth_hz = nan")),
    # From about 3081 dB on, 10^(dB/10) or sqrt(2) times it overflows.
    "run-alpha-optimality-snr-4000": (
        "snr_grid_db", ("alpha_optimality", "[sweep]\nsnr_grid_db = 4000")),
    # An option names itself, first, even where its value overrides a file's.
    "run-e2e-trials-override-5": (
        "--trials", ("synthetic_e2e", "[sweep]\nn_samples = 300", "run", "--trials", "5")),
    "validate-bounds-trials-override-5": (
        "--trials", ("bound_validation", "[sweep]\nsnr_grid_db = 0, 6, 12\nalpha_grid = 1, 4, 16",
                     "validate-bounds", "--trials", "5")),
    "run-seed-override-minus-1": ("--seed", ("latency_table", "", "run", "--seed", "-1")),
    # A bad value in the file names its key, though an option overrides it.
    "run-file-seed-minus-1-seed-override-5": (
        "seed", ("latency_table", "seed = -1", "run", "--seed", "5")),
    "validate-bounds-file-seed-minus-1-seed-override-5": (
        "seed", ("bound_validation", "seed = -1", "validate-bounds", "--seed", "5")),
    "run-out-is-a-file": (
        "--out", ("latency_table", "", "run", "--out", os.path.abspath(__file__))),
    # A body line before any section header belongs to [experiment].
    "run-bound-negative-seed": ("seed", ("bound_validation", "seed = -1")),
    "run-bound-output-dir-is-a-file": (
        "output_dir", ("bound_validation", f"output_dir = {os.path.abspath(__file__)}")),
    "run-tradeoff-missing-sample-file": (
        "sample_file", ("tradeoff_curve", "[feature_model]\nkind = empirical\n"
                                          "sample_file = /nonexistent/features.txt")),
    # A sample_file is read only for kind = empirical.
    "run-tradeoff-unread-sample-file": (
        "sample_file", ("tradeoff_curve", "[feature_model]\nsample_file = /nonexistent/x.txt")),
    "run-alpha-optimality-only-sample-file": (
        "sample_file", ("alpha_optimality", "[feature_model]\nsample_file = /nonexistent/x.txt\n"
                                            "[sweep]\nsnr_grid_db = 20")),
    "run-bound-sample-file-not-decimal": (
        "sample_file", ("bound_validation", "[feature_model]\nkind = empirical\n"
                                            f"sample_file = {os.path.abspath(__file__)}")),
    "run-bound-empty-alpha-grid": ("alpha_grid", ("bound_validation", "[sweep]\nalpha_grid =")),
    "run-latency-empty-snr-grid": ("snr_grid_db", ("latency_table", "[sweep]\nsnr_grid_db =")),
    # A % in a value is a character, not an interpolation.
    "run-latency-percent-in-seed": ("seed", ("latency_table", "seed = 5%")),
    "latency-k-0": ("--k", ["latency", "--k", "0"]),
    "latency-q-bits-0": ("--q-bits", ["latency", "--q-bits", "0"]),
    "latency-out-is-a-file": ("--out", ["latency", "--out", os.path.abspath(__file__)]),
    "optimize-alpha-seed-minus-1": ("--seed", ["optimize-alpha", "--seed", "-1"]),
    "train-snn-seed-minus-1": ("--seed", ["train-snn", "--seed", "-1"]),
    "train-snn-no-samples": ("--samples", ["train-snn", "--samples", "0"]),
    "train-snn-no-epochs": ("--epochs", ["train-snn", "--epochs", "0"]),
    "optimize-alpha-k-0": ("--k", ["optimize-alpha", "--k", "0"]),
    "optimize-alpha-trials-5": ("--trials", ["optimize-alpha", "--trials", "5"]),
    "optimize-alpha-snr-nan": (
        "--snr-db", ["optimize-alpha", "--snr-db", "nan", "--trials", "10000"]),
    "optimize-alpha-snr-inf": ("--snr-db", ["optimize-alpha", "--snr-db", "inf"]),
    "latency-snr-nan": ("--snr-db", ["latency", "--snr-db", "nan"]),
    # argparse alone would read -inf as an unknown option.
    "latency-snr-minus-inf": ("--snr-db", ["latency", "--snr-db", "6", "-inf"]),
    "optimize-alpha-snr-minus-inf": ("--snr-db", ["optimize-alpha", "--snr-db", "-inf"]),
    "latency-snr-minus-1e3": ("--snr-db", ["latency", "--snr-db", "6", "-1e3"]),
    "latency-snr-4000": ("--snr-db", ["latency", "--snr-db", "4000"]),
    "optimize-alpha-snr-3082": (
        "--snr-db", ["optimize-alpha", "--snr-db", "3082", "--trials", "10000"]),
    # Text that the key's parser rejects is one config error line, as in a file.
    "latency-k-abc": ("--k", ["latency", "--k", "abc"]),
    "latency-k-1.5": ("--k", ["latency", "--k", "1.5"]),
    "optimize-alpha-trials-1e5": ("--trials", ["optimize-alpha", "--trials", "1e5"]),
    # A dash-led word is a value, so argparse prints no usage block for it.
    "latency-snr-db-dash-led-text": ("--snr-db", ["latency", "--snr-db", "6", "-abc"]),
    # An option where its value should be is a missing value, not argparse's usage block.
    "run-out-minus-h": ("--out", ("latency_table", "", "run", "--out", "-h")),
    "run-out-option-like": ("--out", ("latency_table", "", "run", "--out", "--x")),
}

# Keys outside each experiment's set, as (kind, section, key, value): each
# one changes nothing for that experiment, so the file is rejected. The
# first ones are keys of no experiment, the noise keys among them: the
# receive SNR is the only power input.
UNREAD_KEYS = [
    *[(kind, section, key, value) for kind in experiments.EXPERIMENT_KINDS
      for section, key, value in (("experiment", "fault_injection", "noise_bound"),
                                  ("system", "n_subchannels", "12"),
                                  ("system", "noise_density_dbm_per_hz", "-174"),
                                  ("system", "noise_figure_db", "4"))],
    ("latency_table", "experiment", "trials", "10"),
    ("latency_table", "feature_model", "kind", "uniform01"),
    ("latency_table", "feature_model", "sample_file", "features.txt"),
    ("latency_table", "sweep", "alpha_grid", "1, 2"),
    ("latency_table", "sweep", "n_samples", "300"),
    ("latency_table", "sweep", "epochs", "10"),
    ("latency_table", "sweep", "learning_rate", "0.5"),
    ("latency_table", "sweep", "trials_per_sample", "10"),
    *[(kind, "system", "bandwidth_hz", "10e6") for kind in
      ("tradeoff_curve", "bound_validation", "alpha_optimality", "synthetic_e2e")],
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
_MONTE_CARLO_KEYS = [("experiment", "trials", "10000"),
                     ("feature_model", "kind", "rectified_gaussian"),
                     ("sweep", "snr_grid_db", "20, 30")]
READ_KEYS = {
    "latency_table": [("system", "k_sensors", "12"), ("system", "n_features", "100"),
                      ("system", "bandwidth_hz", "10e6"), ("sweep", "snr_grid_db", "6"),
                      ("sweep", "q_bits", "6")],
    # tradeoff_curve reads one SNR, and a model kind only as empirical.
    "tradeoff_curve": [*[{"snr_grid_db": ("sweep", "snr_grid_db", "20"),
                          "kind": ("feature_model", "kind", "empirical")}.get(entry[1], entry)
                         for entry in _MONTE_CARLO_KEYS],
                       ("feature_model", "sample_file", "features.txt"),
                       ("system", "k_sensors", "12"), ("sweep", "alpha_grid", "1, 2")],
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
        assert err.startswith(f"config error: [{section}] {key}: ") and err.count("\n") == 1
        assert ("unknown key" if (section, key) not in experiments.CONFIG_KEYS
                else f"{kind} does not read this key") in err

    @pytest.mark.parametrize("kind", feat.BUILT_IN_KINDS)
    def test_feature_model_of_each_built_in_kind(self, kind):
        cfg = ExperimentConfig(experiment="bound_validation", feature_kind=kind)
        assert cfg.feature_model() == FeatureModel(kind)

    def test_trials_override_of_latency_table_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["run", "--config", os.path.join(ROOT, "configs", "latency.ini"),
                         "--trials", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --trials: latency_table does not read")
        assert not out.exists()

    def test_readme_key_table_matches_the_schema(self):
        # The README's table: a header of sections, then one row per kind
        # whose cells list the keys it reads in each section.
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            lines = [line for line in fh if line.startswith("| `")]
        header, *rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
                         for line in lines if "`[experiment]`" in line
                         or line.split("|")[1].strip(" `") in experiments.EXPERIMENT_KINDS]
        sections = [re.fullmatch(r"`\[(\w+)\]`", cell).group(1) for cell in header[1:]]
        documented = {row[0].strip("`"): {(section, key) for section, cell in
                                          zip(sections, row[1:])
                                          for key in re.findall(r"`(\w+)`", cell)}
                      for row in rows}
        assert documented == {
            kind: {where for where, entry in experiments.CONFIG_KEYS.items()
                   if kind in entry.read_by} for kind in experiments.EXPERIMENT_KINDS}

    @pytest.mark.parametrize("kind", experiments.EXPERIMENT_KINDS)
    def test_every_read_key_is_accepted(self, kind, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(config_body(kind, READ_KEYS[kind], tmp_path / "out"))
        cfg = parse_config(path)
        assert (cfg.experiment, cfg.seed) == (kind, 1)

    @pytest.mark.parametrize("kind", experiments.EXPERIMENT_KINDS)
    def test_sidecar_echoes_the_keys_its_kind_reads(self, kind, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # tradeoff_curve's sample file is features.txt
        (tmp_path / "features.txt").write_text("0.5\n1.5\n2.0\n")
        path = tmp_path / "exp.ini"
        path.write_text(config_body(kind, READ_KEYS[kind], tmp_path / "out"))
        _, paths = experiments.run_experiment(parse_config(path))
        with open(paths["meta"]) as fh:
            echo = json.load(fh)["config"]
        assert set(echo) == {entry.field for entry in experiments.CONFIG_KEYS.values()
                             if entry.field is not None and kind in entry.read_by}
        assert (echo["experiment"], echo["seed"]) == (kind, 1)


class Sentinel(Exception):
    """Raised by the patched draw and training step; `cli.main` lets it through."""


def _raise_sentinel(*args, **kwargs):
    raise Sentinel


def _no_step(*args, **kwargs):
    raise AssertionError("a rejected input reached a training step")


# The grammar of a config file, built from experiments.CONFIG_KEYS: every key
# draws a value by its parser, tame (finite and mostly in range) or wild
# (extreme, non-finite or unparsable). trials, k_sensors and n_samples stay
# small even when wild: with the draw patched away, a huge one could still
# size an array before the sentinel is reached, and such an allocation can
# take the machine's memory.
_FLOATS = st.floats(-1e3, 1e8).map(repr)
_GRID = st.lists(st.floats(1.0, 128.0).map(repr), min_size=1, max_size=3).map(", ".join)
_TAME = {int: st.integers(0, 64).map(str), float: _FLOATS, experiments._float_list: _GRID}
_SIZES = {("experiment", "trials"): ["-1", "0", "9999", "10000", "20000"],
          ("system", "k_sensors"): ["-1", "0", "1", "3", "4", "12"],
          ("sweep", "n_samples"): ["-1", "0", "1", "2", "3", "300"]}
_WILD_FLOATS = st.sampled_from(["0", "-0.0", "5e-324", "1e-308", "1e308", "-1e308",
                                "nan", "inf", "-inf"])
_WILD = {int: st.sampled_from(["-1", str(2 ** 64), str(10 ** 400)]), float: _WILD_FLOATS,
         experiments._float_list: st.lists(st.one_of(_FLOATS, _WILD_FLOATS), max_size=3)
         .map(", ".join)}
_UNPARSABLE = st.sampled_from(["", "abc", "1.5.2", "%(x)s", "1e", "0x10", "- 1"])
_FAULTS = [None, "wild", "unparsable", "unread", "misspelled key", "misspelled section"]


def _key_values(out, files, wild):
    """A strategy for each (section, key): by its parser, tame or wild."""
    strategies = {where: (_WILD if wild else _TAME).get(entry.parse) for where, entry in
                  experiments.CONFIG_KEYS.items()}
    strategies.update({
        **{where: st.sampled_from(sizes) for where, sizes in _SIZES.items()},
        ("experiment", "kind"): st.sampled_from([*experiments.EXPERIMENT_KINDS, "latency"]),
        ("experiment", "workers"): st.just("2" if wild else "1"),
        ("experiment", "output_dir"): st.just(files["good"] if wild else out),
        ("feature_model", "kind"): st.sampled_from(
            ["unifrom01"] if wild else [*feat.BUILT_IN_KINDS, "empirical"]),
        ("feature_model", "sample_file"): st.sampled_from(
            [files["missing"], files["not-decimal"], files["directory"]] if wild
            else [files["good"]]),
    })
    return strategies


@st.composite
def config_files(draw, out, files):
    """(kind, sections): tame values for keys the kind reads, then at most
    one fault: a wild or unparsable value, a key the kind does not read, or
    a misspelled key or section."""
    tame, wild = _key_values(out, files, False), _key_values(out, files, True)
    kind = draw(tame["experiment", "kind"])
    keys = experiments.CONFIG_KEYS
    # A kind out of range skips the unread-key check, as if it read every key.
    read = [where for where, entry in keys.items() if where != ("experiment", "kind")
            and kind in {*entry.read_by, "latency"}]
    sections = {"experiment": {"kind": kind, "output_dir": out}}
    if kind in keys["experiment", "trials"].read_by:
        sections["experiment"]["trials"] = "10000"
    for section, key in draw(st.lists(st.sampled_from(read), unique=True, max_size=5)):
        sections.setdefault(section, {})[key] = draw(tame[section, key])
    fault = draw(st.sampled_from(_FAULTS))
    if fault == "wild" or (fault == "unread" and kind != "latency"):
        section, key = draw(st.sampled_from(sorted(set(read) if fault == "wild" else
                                                   set(keys) - set(read))))
        sections.setdefault(section, {})[key] = draw(wild[section, key])
    section = draw(st.sampled_from(sorted(sections)))
    key = draw(st.sampled_from(sorted(sections[section])))
    if fault == "unparsable":
        sections[section][key] = draw(_UNPARSABLE)
    elif fault == "misspelled key":
        sections[section][key[::-1]] = sections[section].pop(key)
    elif fault == "misspelled section":
        sections[section + "s"] = sections.pop(section)
    return kind, sections


class TestConfigGrammar:
    """Every config file the grammar writes ends in one line and its exit
    code: a config error naming `[section] key`, a numeric error, or a run
    that reaches its first draw or training step (the sentinel). Only
    latency_table, which draws nothing, may finish; its cells are finite."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("grammar")
        (root / "samples.txt").write_text("0.5\n1.5\n2.0\n")
        return {"good": str(root / "samples.txt"), "missing": str(root / "missing.txt"),
                "not-decimal": os.path.abspath(__file__), "directory": str(root)}

    @pytest.fixture(scope="class")
    def out(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("grammar-out"))

    @settings(max_examples=400, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_every_config_ends_in_one_line(self, data, files, out):
        kind, sections = data.draw(config_files(out, files))
        path = os.path.join(out, "exp.ini")
        with open(path, "w") as fh:
            fh.write("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in lines.items())
                             for name, lines in sections.items()))
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            mp.setattr(FeatureModel, "draw", _raise_sentinel)
            mp.setattr(sensing, "train_classifier", _raise_sentinel)
            mp.chdir(out)  # a relative output_dir such as "abc" is made here
            try:
                code = cli.main(["run", "--config", path])
            except Sentinel:
                return
        err = err.getvalue()
        assert err.count("\n") == (code != 0), err
        if code == 0:
            assert kind == "latency_table"
            with open(os.path.join(out, sections["experiment"]["output_dir"],
                                   "latency_table.csv")) as fh:
                rows = list(csv.DictReader(fh))
            assert all(math.isfinite(float(row[c])) for row in rows
                       for c in ("snr_db", "latency_ms") if row[c])
        elif code == 2:
            named = re.match(r"config error: \[(\w+)\] (\w+): ", err)
            if named:
                section, key = named.groups()
                assert (section, key) in experiments.CONFIG_KEYS \
                    or key in sections.get(section, {}), err
            else:
                section, = re.match(r"config error: .*: unknown section \[(\w+)\]", err).groups()
                assert section in sections, err
        else:
            assert code == 3 and err.startswith("numeric error: "), err


def subcommand_options():
    """Each subcommand -> its options' argparse actions, but --help and --config."""
    subs, = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: [a for a in sub._actions if a.option_strings and a.dest not in ("help", "config")]
            for name, sub in subs.choices.items()}


def _key_of(action):
    """The (section, key) whose field an option's action sets."""
    where, = [where for where, entry in experiments.CONFIG_KEYS.items()
              if entry.field == action.dest]
    return where


_POSITIVE_OUT_OF_RANGE = st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan]))
# Values outside each option's key range; `run` takes them with a bound_validation config.
OPTIONS_OUT_OF_RANGE = {
    "--seed": st.integers(max_value=-1),
    "--trials": st.integers(max_value=feat.MIN_MC_TRIALS - 1),
    "--out": st.just(os.path.abspath(__file__)),
    "--k": st.integers(max_value=0),
    "--n-features": st.integers(max_value=-1),
    "--bandwidth-hz": _POSITIVE_OUT_OF_RANGE,
    "--q-bits": st.integers(max_value=0),
    "--snr-db": st.one_of(st.floats(min_value=3000.0, exclude_min=True),
                          st.floats(max_value=-3000.0, exclude_max=True), st.just(math.nan)),
    "--samples": st.integers(max_value=2),  # 1 and 2 leave no test sample
    "--epochs": st.integers(max_value=0),
    "--learning-rate": _POSITIVE_OUT_OF_RANGE,
}
# Text each option's parser rejects (any text is an --out path).
_NOT_AN_INT = st.sampled_from(["abc", "1.5", "1e5", "0x10", "", "12 3", "-abc"])
_NOT_A_FLOAT = st.sampled_from(["abc", "1,5", "0x10", "", "1e", "6 dB", "-abc"])
OPTIONS_UNPARSABLE = {
    **dict.fromkeys(["--seed", "--trials", "--k", "--n-features", "--q-bits", "--samples",
                     "--epochs"], _NOT_AN_INT),
    **dict.fromkeys(["--bandwidth-hz", "--learning-rate"], _NOT_A_FLOAT),
    "--snr-db": st.sampled_from(["abc", "6,,x", "1e", "-abc"]),
}


class TestOptionGrammar:
    """A subcommand with one option out of its key's range, or with text that
    the key's parser rejects, exits 2 before any draw or training step,
    printing one line that names the option as typed."""

    @pytest.fixture(scope="class")
    def config(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("options")
        path = root / "bounds.ini"
        path.write_text(f"[experiment]\nkind = bound_validation\noutput_dir = {root / 'out'}\n")
        return str(path)

    def test_every_option_is_a_config_key(self):
        for command, actions in subcommand_options().items():
            for action in actions:
                option, = action.option_strings
                assert cli.OPTION_KEYS[option] == _key_of(action), (command, option)

    def test_readme_option_table_matches_the_parser(self):
        # The README's table: one row per option, its `[section] key`, and the
        # subcommands that take it.
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
                    for line in fh if line.startswith("| `--")]
        documented = {option.strip("`"): (tuple(key.strip("`[").split("] ")),
                                          set(re.findall(r"`([\w-]+)`", commands)))
                      for option, key, commands in rows}
        parsed = {}
        for command, actions in subcommand_options().items():
            for action in actions:
                parsed.setdefault(action.option_strings[0], (_key_of(action), set()))[1].add(command)
        assert documented == parsed

    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_every_option_out_of_range_ends_in_one_line(self, data, config):
        options = subcommand_options()
        command = data.draw(st.sampled_from(sorted(options)))
        option = data.draw(st.sampled_from(sorted(a.option_strings[0] for a in options[command])))
        values = st.one_of(OPTIONS_OUT_OF_RANGE[option],
                           OPTIONS_UNPARSABLE.get(option, st.nothing()))
        if (command, option) == ("latency", "--snr-db"):  # the rate rounds to 0 at K = 12
            values = st.one_of(values, st.floats(-3000.0, -171.0))
        value = str(data.draw(values))
        argv = [command, *(["--config", config] if command == "run" else []), option, value]
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(out):
            mp.setattr(FeatureModel, "draw", _raise_sentinel)
            mp.setattr(sensing, "train_classifier", _raise_sentinel)
            code = cli.main(argv)
        err = err.getvalue()
        assert code == 2 and out.getvalue() == "", (argv, err)
        assert err.startswith(f"config error: {option}: ") and err.count("\n") == 1, (argv, err)


class TestCliExitCodes:
    @pytest.mark.parametrize("case", sorted(RANGE_ERRORS))
    def test_out_of_range_input_is_a_config_error(self, case, tmp_path, capsys,
                                                  no_draw_or_training):
        named, argv = RANGE_ERRORS[case]
        if isinstance(argv, tuple):
            kind, body, *command = argv
            trials = "" if kind == "latency_table" else "trials = 10000\n"
            out = "" if "output_dir" in body else f"output_dir = {tmp_path / 'out'}\n"
            path = tmp_path / "exp.ini"
            path.write_text(f"[experiment]\nkind = {kind}\n{trials}{out}\n{body}\n")
            command = command or ["run"]
            argv = [command[0], "--config", str(path), *command[1:]]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        if named.startswith("--"):
            assert err.startswith(f"config error: {named}: ")
        else:  # a value from the file: `[section] key: `
            assert err.startswith("config error: [") and re.search(rf"\b{named}\b", err)

    @pytest.mark.parametrize("argv,named", [
        (["--samples", "2"], "n_samples"), (["--samples", "1"], "n_samples"),
        (["--samples", "300", "--epochs", "-3"], "epochs"),
        (["--samples", "300", "--learning-rate", "-1"], "learning_rate"),
        (["--samples", "300", "--learning-rate", "nan"], "learning_rate")],
        ids=lambda v: "_".join(v) if isinstance(v, list) else v)
    def test_train_snn_out_of_range_is_a_config_error(self, argv, named, capsys,
                                                      monkeypatch):
        monkeypatch.setattr(sensing.ShallowClassifier, "_passes", _no_step)
        assert cli.main(["train-snn", *argv]) == 2
        err = capsys.readouterr().err
        option = argv[-2]  # the option of the value out of range, another name for `named`
        assert cli.OPTION_KEYS[option] == ("sweep", named)
        assert err.startswith(f"config error: {option}: ") and err.count("\n") == 1

    def test_train_snn_in_range_reaches_the_patched_step(self, monkeypatch):
        # The guard above is not vacuous: every training step goes through
        # the entry it patches.
        monkeypatch.setattr(sensing.ShallowClassifier, "_passes", _no_step)
        with pytest.raises(AssertionError, match="reached a training step"):
            cli.main(["train-snn", "--samples", "300", "--epochs", "1"])

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
        assert "exponential_unit" in err and "alpha = 128" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train-snn", "run"])
    def test_training_that_diverges_prints_one_line(self, command, tmp_path, capsys):
        # An overflow on the way to the non-finite loss is no warning.
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nkind = synthetic_e2e\ntrials = 10000\n"
                        f"output_dir = {tmp_path / 'out'}\n\n[sweep]\nn_samples = 50\n"
                        "epochs = 2\nlearning_rate = 1e308\n")
        argv = {"train-snn": ["train-snn", "--learning-rate", "1e308", "--epochs", "2",
                              "--samples", "50"],
                "run": ["run", "--config", str(path)]}[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert [str(w.message) for w in caught] == [] and out == ""
        assert err.startswith("numeric error: ArithmeticError: training diverged at epoch 1; ")
        assert err.count("\n") == 1

    def test_latency_that_overflows_is_a_numeric_error(self, tmp_path, capsys):
        # N / B overflows to inf at B = 1e-308 Hz: one line and exit 3, never
        # a CSV of infinities.
        path = tmp_path / "exp.ini"
        path.write_text(LATENCY_CFG.format(out=tmp_path / "out").replace("10e6", "1e-308"))
        for argv in (["run", "--config", str(path)], ["latency", "--bandwidth-hz", "1e-308"]):
            assert cli.main(argv) == 3
            out, err = capsys.readouterr()
            assert err.startswith("numeric error: OverflowError: latency 17911 / 1e-308")
            assert out == "" and err.count("\n") == 1
        assert not (tmp_path / "out" / "latency_table.csv").exists()

    def test_latency_command(self, capsys):
        assert cli.main(["latency", "--snr-db", "6", "10", "16"]) == 0
        out = capsys.readouterr().out
        assert "1.7911" in out

    def test_negative_snr_db_with_exponent(self, capsys):
        # argparse's negative-number pattern takes only digits and a point.
        assert cli.main(["latency", "--snr-db", "-1e1", "-3", "--q-bits", "6"]) == 0
        out = capsys.readouterr().out
        assert "at -10 dB" in out and "at -3 dB" in out
        assert cli.main(["optimize-alpha", "--snr-db", "-1e3", "--trials", "10000"]) == 0
        assert "snr=-1000 dB" in capsys.readouterr().out

    def test_dash_led_text_is_a_value(self, tmp_path, capsys, monkeypatch):
        # --config -c.ini reads that file, --out -x writes where output_dir =
        # -x in the file does, and the words of --snr-db are quoted as typed.
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "-c.ini"
        path.write_text(LATENCY_CFG.format(out="-x"))
        assert cli.main(["run", "--config", "-c.ini"]) == 0
        want = (tmp_path / "-x" / "latency_table.csv").read_bytes()
        (tmp_path / "-x" / "latency_table.csv").unlink()
        path.write_text(LATENCY_CFG.format(out="out"))
        assert cli.main(["run", "--config", "-c.ini", "--out", "-x"]) == 0
        assert (tmp_path / "-x" / "latency_table.csv").read_bytes() == want
        assert not (tmp_path / "out").exists()
        capsys.readouterr()
        assert cli.main(["latency", "--snr-db", "6", "-abc"]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: --snr-db: cannot parse '6 -abc': ")

    def test_latency_snr_that_rounds_the_rate_to_zero(self, capsys):
        # log2(1 + 12e-100) is 0: one line naming the option and the value,
        # before anything is printed.
        assert cli.main(["latency", "--snr-db", "-1e3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("config error: --snr-db: -1000 dB: ")

    def test_optimize_alpha_command(self, capsys):
        assert cli.main(["optimize-alpha", "--k", "12", "--snr-db", "30",
                         "--trials", "50000"]) == 0
        out = capsys.readouterr().out
        assert "closed_form" in out

    def test_train_snn_at_its_defaults_passes(self, capsys):
        # The README's example: its gradient check must clear the 1e-4 bar.
        assert cli.main(["train-snn"]) == 0
        assert "gradient check=" in capsys.readouterr().out

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
