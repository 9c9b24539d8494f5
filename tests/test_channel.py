"""The noise power, the aggregation channel, and latency."""

import math

import numpy as np
import pytest

from airpool import channel
from airpool.channel import db_to_linear
from airpool.experiments import ConfigError, ExperimentConfig, run_latency_table
from oracles import transmit_over_mac


class TestSystemParams:
    def test_subchannel_noise_matches_aggregate_constant(self):
        # -174 dBm/Hz plus a 4 dB noise figure is 1e-20 W/Hz, here over 10 MHz
        # and 12 sub-channels. The bits are those every pinned CSV was made with.
        assert channel.NOISE_W == pytest.approx(1e-20 * 10e6 / 12, rel=1e-6)
        assert channel.NOISE_W.hex() == "0x1.2c3d6f030f9bep-47"

    def test_validation(self):
        # K, N and B are config fields, checked by their [system] key ranges.
        for field, value in (("k_sensors", 0), ("n_features", -1), ("bandwidth_hz", 0.0)):
            with pytest.raises(ConfigError, match=rf"^\[system\] {field}: must be "):
                ExperimentConfig(experiment="latency_table", **{field: value})


class TestTransmitOverMac:
    """The symbol-domain channel oracle that the pooling tests compose."""

    def test_noiseless_sum(self):
        s = np.array([[1.0, 2.0, -0.5], [0.0, 0.0, 0.0]])
        y = transmit_over_mac(s, p_rx=4.0, noise_power=0.0)
        np.testing.assert_allclose(y, [5.0, 0.0])

    def test_single_sensor_scaling(self):
        assert transmit_over_mac(np.array([1.0]), 4.0, 0.0) == \
            pytest.approx(2.0)

    def test_pure_noise_variance(self):
        y = transmit_over_mac(np.zeros((100_000, 3)), 1.0, 2.0, seed=10)
        assert abs(y.var() - 2.0) <= 4.0 * 2.0 * math.sqrt(2.0 / len(y))
        assert abs(y.mean()) <= 4.0 * math.sqrt(2.0 / len(y))

    def test_linear_in_each_symbol(self):
        base = np.array([1.0, 2.0, 3.0])
        y0 = transmit_over_mac(base, 9.0, 0.0)
        bumped = base.copy()
        bumped[1] += 0.25
        y1 = transmit_over_mac(bumped, 9.0, 0.0)
        assert y1 - y0 == pytest.approx(3.0 * 0.25)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            transmit_over_mac(np.ones(3), 1.0, -1.0)


class TestLatency:
    def test_airpool_large_preset(self):
        assert channel.airpool_latency(17911, 10e6) * 1e3 == pytest.approx(1.7911, abs=1e-12)

    def test_airpool_small_preset(self):
        assert channel.airpool_latency(7675, 10e6) * 1e3 == pytest.approx(0.7675, abs=1e-12)

    def test_airpool_empty_payload(self):
        assert channel.airpool_latency(0, 10e6) == 0.0

    def test_airpool_independent_of_k(self):
        # The latency table's over-the-air row reads no K.
        a, b = (run_latency_table(ExperimentConfig(experiment="latency_table", k_sensors=k))[0]
                .rows[0] for k in (1, 120))
        assert a == b

    def test_digital_reference_values(self):
        ms = channel.digital_latency(12, 17911, 10e6, 6, db_to_linear(6.0)) * 1e3
        assert abs(ms - 22.90) / 22.90 <= 0.05
        ms = channel.digital_latency(12, 17911, 10e6, 6, db_to_linear(10.0)) * 1e3
        assert abs(ms - 18.64) / 18.64 <= 0.02
        ms = channel.digital_latency(12, 17911, 10e6, 6, db_to_linear(16.0)) * 1e3
        assert abs(ms - 14.47) / 14.47 <= 0.02

    def test_digital_monotonicity(self):
        snrs = [1.0, 2.0, 5.0, 20.0]
        lat = [channel.digital_latency(12, 17911, 10e6, 6, s) for s in snrs]
        assert all(a > b for a, b in zip(lat, lat[1:]))
        q_lat = [channel.digital_latency(12, 17911, 10e6, q, 4.0) for q in [1, 2, 6, 12]]
        assert all(a < b for a, b in zip(q_lat, q_lat[1:]))

    def test_digital_argument_validation(self):
        with pytest.raises(ValueError):
            channel.digital_latency(12, 17911, 10e6, 0, 1.0)
        with pytest.raises(ValueError):
            channel.digital_latency(12, 17911, 10e6, 6, 0.0)
