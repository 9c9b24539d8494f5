"""Air-latency comparison: simultaneous pooling vs a digital baseline.

The over-the-air scheme needs one symbol per feature dimension regardless
of the sensor count, so its latency is N/B. The digital baseline quantizes
each feature to Q bits and pays for every sensor separately.
"""

import os

from airpool.experiments import ExperimentConfig, run_experiment
from airpool.channel import airpool_latency, db_to_linear, digital_latency

OUT = os.path.join(os.path.dirname(__file__), "out")

K, N, B = 12, 17911, 10e6
print(f"K = {K} sensors, N = {N} features, B = {B / 1e6:.0f} MHz\n")
print(f"over-the-air pooling: {airpool_latency(N, B) * 1e3:7.4f} ms "
      f"(same for any K)")
for snr_db in (6.0, 10.0, 16.0):
    ms = digital_latency(K, N, B, 6, db_to_linear(snr_db)) * 1e3
    ratio = ms / (airpool_latency(N, B) * 1e3)
    print(f"digital, Q=6, {snr_db:4.0f} dB: {ms:7.2f} ms  ({ratio:.0f}x slower)")

print(f"\nwith the smaller feature map (N = 7675): "
      f"{airpool_latency(7675, B) * 1e3:.4f} ms over the air")

cfg = ExperimentConfig(experiment="latency_table", k_sensors=K, n_features=N, bandwidth_hz=B,
                       snr_grid_db=(6.0, 10.0, 16.0), q_bits=6,
                       output_dir=OUT)
_, paths = run_experiment(cfg)
print(f"\nwrote {paths['csv']} and {paths['svg']}")
