"""The multi-access channel after ideal channel inversion, and air latency.

Covers the physical-layer side of the simulation: the one noise power and
the air-latency models for both the over-the-air scheme and the digital
baseline, which take K sensors, N feature dimensions and bandwidth B as
plain numbers. After ideal channel inversion, the K
sensors transmitting symbols s_k at once deliver sqrt(P_rx) sum_k s_k plus
real zero-mean Gaussian noise of the sub-channel noise power per aggregated
symbol. `pooling.aggregate_with_noise` applies that noise after
de-normalization as its equivalent term on sum_k f_k^alpha. Experiments set
the receive power directly as SNR x NOISE_W, so no fading gains are drawn
and the receive SNR is the only power input.
"""

import math


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


# Sub-channel noise power in W of the reference setting: -174 dBm/Hz and a
# 4 dB noise figure over 10 MHz, shared by 12 sub-channels. Only the SNR
# P / NOISE_W enters the analysis, but the rounding of P = SNR x NOISE_W
# does not cancel exactly (unit noise moves a bound-gate slack in its 12th
# digit), so every experiment uses these bits.
NOISE_W = db_to_linear(-174.0 - 30.0) * db_to_linear(4.0) * 10e6 / 12


def airpool_latency(n_features: int, bandwidth_hz: float) -> float:
    """Air latency of over-the-air pooling in seconds: N / B (no K term)."""
    return _seconds(n_features, bandwidth_hz)


def _seconds(symbols, per_second: float) -> float:
    seconds = symbols / per_second
    if seconds == math.inf:
        raise OverflowError(f"latency {symbols:g} / {per_second:g} overflows float64")
    return seconds


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


def digital_latency(k: int, n_features: int, bandwidth_hz: float, q_bits: int,
                    snr_rx: float) -> float:
    """Latency of the orthogonal-access digital baseline in seconds.

    Each sensor quantizes each feature to q_bits and transmits over its
    bandwidth share, so the time is K*N*Q / (B * log2(1 + K * SNR_rx)).
    """
    if q_bits < 1:
        raise ValueError("q_bits must be >= 1")
    rate = digital_rate(k, snr_rx)
    return _seconds(k * n_features * q_bits, bandwidth_hz * rate)
