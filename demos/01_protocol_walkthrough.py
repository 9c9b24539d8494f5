"""Walk through one over-the-air pooling round, step by step.

Twelve sensors each hold a feature vector; instead of sending them one by
one, all sensors transmit simultaneously and the channel itself adds them
up. Raising features to a power alpha before transmission and taking the
alpha-th root afterwards turns that sum into an approximation of the
maximum; alpha = 1 recovers the exact average.
"""

import numpy as np

from airpool import FeatureModel, PoolingMode
from airpool.channel import db_to_linear
from airpool.optimizer import BetaTable
from airpool.pooling import AirPoolConfig, airpool_round, true_pool

K, N = 12, 8
model = FeatureModel.rectified_gaussian()
rng = np.random.default_rng(7)
features = model.draw(rng, (K, N))

print(f"{K} sensors, {N} feature dimensions, rectified-Gaussian features\n")

# Averaging comes out exactly when there is no noise.
cfg = AirPoolConfig.for_average(model, K, p_rx_w=1.0, noise_power_w=0.0)
pooled = airpool_round(features, cfg, seed=1)
truth = true_pool(features.T, PoolingMode.average())
print("average pooling, no noise:")
print("  worst |estimate - truth| =", np.abs(pooled - truth).max())

# Max pooling sharpens as alpha grows. The post-processing beta*(alpha) is
# estimated once per alpha by Monte Carlo and kept in a table.
print("\nmax pooling, no noise (beta tuned per alpha):")
truth = true_pool(features.T, PoolingMode.max())
betas = BetaTable(model, K, beta_trials=200_000, seed=2)
for alpha in (2.0, 8.0, 32.0, 64.0):
    cfg = AirPoolConfig.for_max(model, alpha, betas[alpha], 1.0, 0.0)
    pooled = airpool_round(features, cfg, seed=1)
    rel = np.abs(pooled - truth) / truth
    print(f"  alpha={alpha:>4.0f}: worst relative error {rel.max():.4f}")

# With channel noise there is a price for large alpha: the normalization
# amplifies the noise. 10 dB receive SNR, alpha = 8 vs alpha = 2.
print("\nmax pooling at 10 dB receive SNR (noise now matters):")
p_rx = db_to_linear(10.0)
for alpha in (2.0, 8.0):
    cfg = AirPoolConfig.for_max(model, alpha, betas[alpha], p_rx, 1.0)
    pooled = airpool_round(features, cfg, seed=3)
    rel = np.abs(pooled - truth) / truth
    print(f"  alpha={alpha:>4.0f}: worst relative error {rel.max():.4f}")

# Weighted sums ride on the averaging configuration after sensor-side
# scaling; negative weights are allowed because the clip is disabled.
weights = np.array([0.3, -0.1, 0.2, 0.05, 0.15, -0.05, 0.1, 0.05, 0.1, 0.05,
                    0.1, 0.05])
cfg = AirPoolConfig.for_weighted_sum(model, weights, 1.0, 0.0)
pooled = airpool_round(features, cfg, seed=4)
truth = true_pool(features.T, PoolingMode.weighted_sum(weights))
print("\nweighted-sum pooling, no noise:")
print("  worst |estimate - truth| =", np.abs(pooled - truth).max())
