"""Choosing the configuration parameter for max pooling.

Three routes: the Lambert-W closed form (cheap, derived from the bound
sum), a bisection root of the same stationarity condition (the closed
form's reference), and a brute-force search over the empirical error (the
ground truth, expensive). The gap between the closed form and the others
narrows as the power budget grows. Below the critical ratio rho0, plain
averaging (alpha = 1) wins.
"""

import os

from airpool import features, optimizer
from airpool.experiments import ExperimentConfig, run_experiment
from airpool.features import FeatureModel
from airpool.pooling import PoolingMode

OUT = os.path.join(os.path.dirname(__file__), "out")
K = 12
model = FeatureModel.rectified_gaussian()

e2 = features.max_second_moment(model, K, trials=400_000, seed=5).value
rho0 = optimizer.low_snr_threshold(K, e2)
print(f"E[max-feature^2] for K={K}: {e2:.4f}")
print(f"critical power ratio rho0 = {rho0:.3f}  "
      f"(below this, averaging wins)\n")

print(f"{'P/noise':>9} {'closed form':>12} {'root':>8} {'brute force':>12}")
betas = optimizer.BetaTable(model, K, seed=5)  # beta* shared by every search
for ratio in (1e2, 1e3, 1e4):
    closed = optimizer.closed_form_alpha(K, ratio, 1.0, e2).alpha_star
    root = optimizer.bisection_alpha(K, ratio, 1.0, e2)
    brute = optimizer.brute_force_alpha(
        model, PoolingMode.max(), K, ratio, 1.0,
        optimizer.default_alpha_grid(24), trials=40_000, seed=5,
        betas=betas).alpha_star
    print(f"{ratio:>9.0f} {closed:>12.3f} {root:>8.3f} {brute:>12.3f}")

print("\ndispatcher decisions:")
ratios = (0.5, 5.0, 1e3)
decisions = optimizer.select_alpha(PoolingMode.max(), model, K, ratios, 1.0,
                                   trials=40_000, seed=5,
                                   alpha_grid=optimizer.default_alpha_grid(16))
for ratio, d in zip(ratios, decisions):
    print(f"  P/noise={ratio:>7.1f}: alpha*={d.alpha_star:.3f} [{d.method}]")

# An affine calibration maps the closed form onto brute-force references,
# the hook for adapting to feature distributions that are merely close to
# the rectified Gaussian.
pairs = []
for ratio in (1e2, 1e3, 1e4):
    brute = optimizer.brute_force_alpha(
        model, PoolingMode.max(), K, ratio, 1.0,
        optimizer.default_alpha_grid(24), trials=40_000, seed=5, betas=betas)
    pairs.append((ratio, brute.alpha_star))
fit = optimizer.fit_calibration(pairs, K, e2)
print(f"\ncalibration against brute force: alpha' = {fit.c1:.3f} alpha + "
      f"{fit.c2:.3f} (mean squared residual {fit.fit_error:.4f})")

cfg = ExperimentConfig(experiment="alpha_optimality",
                       snr_grid_db=(20.0, 30.0, 40.0), trials=40_000,
                       output_dir=OUT)
_, paths = run_experiment(cfg)
print(f"wrote {paths['csv']} and {paths['svg']}")
