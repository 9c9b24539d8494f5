"""End-to-end check on a synthetic recognition task.

Four sensors observe four-dimensional feature views; a small classifier is
trained on the noiselessly max-pooled features. Pooling over the air
perturbs the features, and accuracy degrades gracefully as the receive SNR
drops, tracking the pooling error.
"""

import os

from airpool import optimizer, sensing
from airpool.channel import db_to_linear
from airpool.experiments import ExperimentConfig, run_experiment
from airpool.features import FeatureModel
from airpool.pooling import AirPoolConfig, PoolingMode

OUT = os.path.join(os.path.dirname(__file__), "out")
SEED = 11
model = FeatureModel.rectified_gaussian()

dataset = sensing.generate_dataset(4000, SEED)
report = sensing.train_classifier(dataset, epochs=200, learning_rate=0.5,
                                  seed=SEED)
print(f"{len(dataset)} samples, K={dataset.k_views} views, "
      f"N={dataset.n_features} features")
print(f"clean test accuracy: {report.clean_accuracy:.4f}")

check = sensing.gradient_check(report.classifier, dataset.pooled()[:10],
                               dataset.labels[:10])
print(f"backprop vs finite differences: {check:.2e}\n")

print(f"{'SNR (dB)':>9} {'alpha*':>7} {'method':>12} {'accuracy':>9} "
      f"{'feature error':>14}")
snrs = (20.0, 15.0, 10.0, 5.0, 0.0)
p_rxs = [db_to_linear(snr_db) for snr_db in snrs]
decisions = optimizer.select_alpha(PoolingMode.max(), model, dataset.k_views, p_rxs,
                                   1.0, trials=50_000, seed=SEED)
betas = optimizer.BetaTable(model, dataset.k_views, beta_trials=100_000, seed=SEED)
betas.fill([d.alpha_star for d in decisions])
for snr_db, p_rx, decision in zip(snrs, p_rxs, decisions):
    cfg = AirPoolConfig.for_max(model, decision.alpha_star,
                                betas[decision.alpha_star], p_rx, 1.0)
    r_ap, d_sigma = sensing.evaluate_accuracy(report.classifier, dataset, cfg,
                                              trials_per_sample=10, seed=SEED)
    print(f"{snr_db:>9.0f} {decision.alpha_star:>7.2f} {decision.method:>12} "
          f"{r_ap:>9.4f} {d_sigma:>14.4f}")

cfg = ExperimentConfig(experiment="synthetic_e2e",
                       snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0),
                       trials=20_000, n_samples=3000, trials_per_sample=10,
                       seed=SEED, output_dir=OUT)
_, paths = run_experiment(cfg)
print(f"\nwrote {paths['csv']} and {paths['svg']}")
