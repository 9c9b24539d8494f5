"""The multi-access channel after ideal channel inversion, and air latency.

Covers the physical-layer side of the simulation: the system setting and
its noise powers, and the air-latency models for both the over-the-air
scheme and the digital baseline. After ideal channel inversion, the K
sensors transmitting symbols s_k at once deliver sqrt(P_rx) sum_k s_k plus
real zero-mean Gaussian noise of the sub-channel noise power per aggregated
symbol. `pooling.aggregate_with_noise` applies that noise after
de-normalization as its equivalent term on sum_k f_k^alpha. Experiments set
the receive power directly as SNR x noise, so no fading gains are drawn.
"""

import math
from dataclasses import dataclass, fields


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class SystemParams:
    """Physical system setting shared by all experiments."""

    k_sensors: int = 12
    n_features: int = 17911
    bandwidth_hz: float = 10e6
    n_subchannels: int = 12
    noise_density_dbm_per_hz: float = -174.0
    noise_figure_db: float = 4.0

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.k_sensors < 1 or self.n_subchannels < 1:
            raise ValueError("k_sensors and n_subchannels must be >= 1")
        if self.n_features < 0:
            raise ValueError("n_features must be >= 0")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")

    @property
    def noise_density_w_per_hz(self) -> float:
        """Noise spectral density times the noise figure, in W/Hz."""
        return db_to_linear(self.noise_density_dbm_per_hz - 30.0) * db_to_linear(self.noise_figure_db)

    @property
    def subchannel_noise_w(self) -> float:
        """Per-sub-channel noise power: density x figure x B/M."""
        return self.noise_density_w_per_hz * self.bandwidth_hz / self.n_subchannels


def airpool_latency(params: SystemParams) -> float:
    """Air latency of over-the-air pooling in seconds: N / B (no K term)."""
    return params.n_features / params.bandwidth_hz


def digital_rate(k: int, snr_rx: float) -> float:
    """Spectral efficiency log2(1 + K * SNR_rx) of the digital baseline in
    bit/s/Hz, or ValueError unless it is positive: a K * SNR_rx of at most
    half an ulp of 1.0 (2**-53) rounds the rate to 0."""
    if snr_rx <= 0:
        raise ValueError("snr_rx must be positive (linear)")
    rate = math.log2(1.0 + snr_rx * k)
    if rate <= 0.0:
        raise ValueError(f"snr_rx = {snr_rx:g} is too small: log2(1 + K * snr_rx) "
                         f"rounds to 0 at K = {k}")
    return rate


def digital_latency(params: SystemParams, q_bits: int, snr_rx: float) -> float:
    """Latency of the orthogonal-access digital baseline in seconds.

    Each sensor quantizes each feature to q_bits and transmits over its
    bandwidth share, so the time is K*N*Q / (B * log2(1 + K * SNR_rx)).
    """
    if q_bits < 1:
        raise ValueError("q_bits must be >= 1")
    rate = digital_rate(params.k_sensors, snr_rx)
    return params.k_sensors * params.n_features * q_bits / (params.bandwidth_hz * rate)
