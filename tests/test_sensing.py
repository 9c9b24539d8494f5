"""Synthetic dataset, shallow classifier, margin measurement, and the
pool-then-classify evaluation loop."""

import math

import numpy as np
import pytest

from airpool import sensing
from airpool.optimizer import BetaTable
from airpool.channel import db_to_linear
from airpool.features import FeatureModel
from airpool.pooling import AirPoolConfig, PoolingMode
from oracles import (gradient_check_reference, linear_margin_fit_reference,
                     numpy_dispatch_target, train_classifier_reference)

RG = FeatureModel.rectified_gaussian()


def no_step(*args, **kwargs):
    raise AssertionError("a rejected input reached a training step")


class TestGenerateDataset:
    def test_deterministic(self):
        a = sensing.generate_dataset(500, seed=1)
        b = sensing.generate_dataset(500, seed=1)
        np.testing.assert_array_equal(a.views, b.views)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_label_balance(self):
        ds = sensing.generate_dataset(10_000, seed=2)
        balance = ds.labels.mean()
        assert 0.45 <= balance <= 0.55

    def test_non_negative_features(self):
        ds = sensing.generate_dataset(2000, seed=3)
        assert np.all(ds.views >= 0)

    def test_default_shape(self):
        ds = sensing.generate_dataset(100, seed=4)
        assert ds.views.shape == (100, 4, 4)
        assert ds.k_views == 4 and ds.n_features == 4

    def test_margin_gap_excludes_boundary_band(self):
        ds = sensing.generate_dataset(2000, seed=5, linear_labels=True,
                                      margin_gap=0.2,
                                      mode=PoolingMode.average())
        assert len(ds) == 2000
        assert 0.4 <= ds.labels.mean() <= 0.6

    def test_pooled_uses_mode(self):
        ds_max = sensing.generate_dataset(50, seed=6, mode=PoolingMode.max())
        np.testing.assert_allclose(ds_max.pooled(), ds_max.views.max(axis=1))
        ds_avg = sensing.generate_dataset(50, seed=6, mode=PoolingMode.average())
        np.testing.assert_allclose(ds_avg.pooled(), ds_avg.views.mean(axis=1))


class TestShallowClassifier:
    def test_softmax_normalization(self):
        clf = sensing.ShallowClassifier(sensing.DEFAULT_FEATURES, seed=8)
        x = RG.draw(np.random.default_rng(8), (500, 4))
        p = clf.predict_proba(x)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(p >= 0)

    def test_gradient_check_at_init(self):
        ds = sensing.generate_dataset(200, seed=9)
        clf = sensing.ShallowClassifier(sensing.DEFAULT_FEATURES, seed=9)
        worst = sensing.gradient_check(clf, ds.pooled()[:10], ds.labels[:10])
        assert worst <= 1e-4

    def test_gradient_check_after_training(self):
        ds = sensing.generate_dataset(1500, seed=10)
        report = sensing.train_classifier(ds, epochs=40, learning_rate=0.5, seed=10)
        worst = sensing.gradient_check(report.classifier, ds.pooled()[:10],
                                       ds.labels[:10])
        assert worst <= 1e-4

    def test_trains_on_linear_rule(self):
        ds = sensing.generate_dataset(4000, seed=11, linear_labels=True)
        report = sensing.train_classifier(ds, epochs=120, learning_rate=0.5,
                                          seed=11)
        assert report.clean_accuracy >= 0.95

    def test_reaches_target_clean_accuracy(self):
        ds = sensing.generate_dataset(4000, seed=12)
        report = sensing.train_classifier(ds, epochs=200, learning_rate=0.5,
                                          seed=12)
        assert report.clean_accuracy >= 0.85

    def test_divergence_raises_with_last_state(self):
        ds = sensing.generate_dataset(1000, seed=13)
        with pytest.raises(ArithmeticError, match="last stable loss"):
            sensing.train_classifier(ds, epochs=5, learning_rate=1000.0, seed=13)

    def test_parameters_are_views_of_the_flat_vector(self):
        clf = sensing.ShallowClassifier(sensing.DEFAULT_FEATURES, seed=8)
        assert clf.params.size == 4 * 5 + 5 + 5 * 5 + 5 + 5 * 2 + 2
        for part in (*clf.weights, *clf.biases):
            assert np.shares_memory(part, clf.params)
        assert not np.shares_memory(clf.grads, clf.params)

    @pytest.mark.parametrize("n_samples,kwargs,named", [
        (2, {}, "n_samples"),
        (1, {}, "n_samples"),
        (300, {"epochs": 0}, "epochs"),
        (300, {"epochs": -3}, "epochs"),
        (300, {"learning_rate": -1.0}, "learning_rate"),
        (300, {"learning_rate": 0.0}, "learning_rate"),
        (300, {"learning_rate": math.nan}, "learning_rate"),
        (300, {"learning_rate": math.inf}, "learning_rate"),
    ])
    def test_bad_input_raises_before_the_first_step(self, n_samples, kwargs, named,
                                                    monkeypatch):
        monkeypatch.setattr(sensing.ShallowClassifier, "_passes", no_step)
        ds = sensing.generate_dataset(n_samples, seed=23)
        with pytest.raises(ValueError, match=named):
            sensing.train_classifier(ds, **kwargs)

    def test_valid_input_reaches_the_patched_step(self, monkeypatch):
        # The guard above patches the entry that every training step goes
        # through, so a valid input must trip it.
        monkeypatch.setattr(sensing.ShallowClassifier, "_passes", no_step)
        ds = sensing.generate_dataset(300, seed=23)
        with pytest.raises(AssertionError, match="reached a training step"):
            sensing.train_classifier(ds, epochs=1)

    def test_three_samples_train(self):
        ds = sensing.generate_dataset(3, seed=23)
        report = sensing.train_classifier(ds, epochs=2, seed=23)
        assert report.clean_accuracy in (0.0, 1.0)

    def test_training_deterministic(self):
        ds = sensing.generate_dataset(800, seed=14)
        a = sensing.train_classifier(ds, epochs=30, learning_rate=0.5, seed=14)
        b = sensing.train_classifier(ds, epochs=30, learning_rate=0.5, seed=14)
        assert a.final_loss == b.final_loss
        assert a.clean_accuracy == b.clean_accuracy


class TestTrainingOracle:
    """The flat-vector step gives the same bits as the per-layer loop in
    tests/oracles.py."""

    # The final loss of test_gradient_check_and_loss_bits by numpy dispatch target.
    LOSS_BITS = {"X86_V4": "0x1.0d1b93cb6553fp-5", "X86_V3": "0x1.0d1b93cb6553bp-5",
                 "X86_V2": "0x1.0d1b93cb65528p-5"}

    @pytest.mark.parametrize("n_samples,seed,epochs,linear", [
        (1500, 10, 40, False),     # 1200 training rows: the last batch is partial
        (6000, 3, 5, False),
        (2000, 11, 30, True),
    ])
    def test_training_equals_reference(self, n_samples, seed, epochs, linear):
        ds = sensing.generate_dataset(n_samples, seed=seed, linear_labels=linear)
        report = sensing.train_classifier(ds, epochs=epochs, learning_rate=0.5,
                                          seed=seed)
        want = train_classifier_reference(ds, epochs=epochs, learning_rate=0.5,
                                          seed=seed)
        assert np.array_equal(report.classifier.params, want.params)
        assert report.final_loss == want.final_loss
        assert report.clean_accuracy == want.clean_accuracy

    @pytest.mark.parametrize("learning_rate", [0.5, 0.3])
    def test_partial_last_batch_of_24_rows_equals_reference(self, learning_rate):
        # 1208 training rows: 37 full batches and a last one of 24 rows, so
        # training binds two step workspaces; 0.3 is not a power of two.
        ds = sensing.generate_dataset(1510, seed=5)
        assert sensing.SyntheticDataset.train_size(len(ds)) % 32 == 24
        report = sensing.train_classifier(ds, epochs=30, learning_rate=learning_rate, seed=5)
        want = train_classifier_reference(ds, epochs=30, learning_rate=learning_rate, seed=5)
        assert np.array_equal(report.classifier.params, want.params)
        assert report.final_loss == want.final_loss
        assert report.clean_accuracy == want.clean_accuracy

    def test_gradient_check_and_loss_bits(self):
        ds = sensing.generate_dataset(1500, seed=10)
        report = sensing.train_classifier(ds, epochs=40, learning_rate=0.5, seed=10)
        x, labels = ds.pooled()[:10], ds.labels[:10]
        assert sensing.gradient_check(report.classifier, x, labels) == \
            gradient_check_reference(report.classifier, x, labels)
        # A numpy or BLAS change that moves these bits also moves the
        # benchmark CSVs. numpy's SIMD kernels give other last bits on each
        # x86 dispatch target, so the bits are recorded per target: X86_V4's
        # before the flat-vector step, X86_V3's and X86_V2's with the higher
        # targets turned off through NPY_DISABLE_CPU_FEATURES.
        target = numpy_dispatch_target()
        assert target in self.LOSS_BITS, f"no final_loss bits recorded for {target}"
        assert report.final_loss.hex() == self.LOSS_BITS[target]


class TestEvaluateAccuracy:
    def test_zero_noise_average_reproduces_clean_accuracy(self):
        ds = sensing.generate_dataset(1200, seed=15, mode=PoolingMode.average())
        report = sensing.train_classifier(ds, epochs=60, learning_rate=0.5, seed=15)
        cfg = AirPoolConfig.for_average(RG, 4, 1.0, 0.0)
        r_ap, d_sigma = sensing.evaluate_accuracy(report.classifier, ds, cfg,
                                                  trials_per_sample=2, seed=15)
        assert r_ap == pytest.approx(report.clean_accuracy, abs=1e-12)
        assert d_sigma <= 1e-25

    def test_deterministic(self):
        ds = sensing.generate_dataset(600, seed=16)
        report = sensing.train_classifier(ds, epochs=30, learning_rate=0.5, seed=16)
        beta = BetaTable(RG, 4, beta_trials=100_000, seed=16)[8.0]
        cfg = AirPoolConfig.for_max(RG, 8.0, beta, db_to_linear(10.0), 1.0)
        a = sensing.evaluate_accuracy(report.classifier, ds, cfg,
                                      trials_per_sample=4, seed=16)
        b = sensing.evaluate_accuracy(report.classifier, ds, cfg,
                                      trials_per_sample=4, seed=16)
        assert a == b

    def test_noise_degrades_accuracy(self):
        ds = sensing.generate_dataset(1500, seed=17)
        report = sensing.train_classifier(ds, epochs=60, learning_rate=0.5, seed=17)
        results = []
        beta = BetaTable(RG, 4, beta_trials=100_000, seed=17)[8.0]
        for snr_db in [20.0, 0.0]:
            cfg = AirPoolConfig.for_max(RG, 8.0, beta, db_to_linear(snr_db), 1.0)
            results.append(sensing.evaluate_accuracy(
                report.classifier, ds, cfg, trials_per_sample=6, seed=17))
        assert results[0][0] > results[1][0]      # accuracy drops
        assert results[0][1] < results[1][1]      # feature error grows


class TestLinearMargin:
    def test_planted_margin_recovered(self):
        planted = 0.25
        ds = sensing.generate_dataset(3000, seed=18, linear_labels=True,
                                      margin_gap=planted,
                                      mode=PoolingMode.average())
        mm = sensing.measure_linear_margin(ds)
        assert 0.8 * planted <= mm.margin <= 1.2 * planted

    @pytest.mark.parametrize("seed,scale", [(19, 1.0), (23, 1e3)])
    def test_fit_bit_identical_to_reference_loop(self, seed, scale):
        # Views scaled by 1e3 drive |z| past the clip at 500.
        ds = sensing.generate_dataset(1500, seed=seed, linear_labels=True,
                                      margin_gap=0.2, mode=PoolingMode.average())
        ds = sensing.SyntheticDataset(views=ds.views * scale, labels=ds.labels,
                                      mode=ds.mode, generator_seed=ds.generator_seed)
        mm = sensing.measure_linear_margin(ds)
        w, b = linear_margin_fit_reference(ds, 4000, 2.0)
        assert mm.weight.tobytes() == w.tobytes() and mm.bias == b

    def test_margin_positive_on_correct_subset(self):
        ds = sensing.generate_dataset(1500, seed=19, linear_labels=True,
                                      mode=PoolingMode.average())
        mm = sensing.measure_linear_margin(ds)
        assert mm.margin > 0.0
        assert 0.9 <= mm.clean_accuracy <= 1.0

    def test_margin_scales_with_features(self):
        ds = sensing.generate_dataset(3000, seed=20, linear_labels=True,
                                      margin_gap=0.25, mode=PoolingMode.average())
        mm = sensing.measure_linear_margin(ds)
        scaled = sensing.SyntheticDataset(
            views=ds.views * 2.0, labels=ds.labels, mode=ds.mode,
            generator_seed=ds.generator_seed)
        mm2 = sensing.measure_linear_margin(scaled)
        assert mm2.margin / mm.margin == pytest.approx(2.0, rel=0.1)

    def test_accuracy_chain_against_markov_bound(self):
        # Measured pooled-over-the-air accuracy stays above the margin bound.
        ds = sensing.generate_dataset(2000, seed=21, linear_labels=True,
                                      margin_gap=0.2, mode=PoolingMode.average())
        mm = sensing.measure_linear_margin(ds)
        clf_like = mm  # linear model classifies directly
        for snr_db in [0.0, 10.0, 20.0]:
            cfg = AirPoolConfig.for_average(RG, 4, db_to_linear(snr_db), 1.0)
            from airpool.pooling import aggregate_with_noise, postprocess, powered_sum
            rng = np.random.default_rng(22)
            per_dim = np.swapaxes(ds.views, 1, 2)
            v_sum = powered_sum(per_dim, cfg)
            hits, sq, n = 0, 0.0, 0
            for _ in range(10):
                g_hat = postprocess(aggregate_with_noise(v_sum, cfg, rng), cfg)
                pred = (clf_like.decision(g_hat) > 0).astype(int)
                hits += int((pred == ds.labels).sum())
                sq += float(((g_hat - ds.pooled()) ** 2).sum(axis=1).mean())
                n += len(ds)
            r_ap = hits / n
            d_sigma = sq / 10.0
            r0 = mm.clean_accuracy
            bound = r0 * max(0.0, 1.0 - d_sigma / mm.margin ** 2)
            se = math.sqrt(max(r_ap * (1.0 - r_ap), 1e-12) / n)
            assert r_ap >= bound - 2.0 * se
