"""The IEEE 802.15.4 (2.4 GHz O-QPSK) MAC/PHY constants the baselines use.

Reference values: macMinBE = 3, macMaxBE = 5, macMaxCSMABackoffs = 4,
macMaxFrameRetries = 3, aUnitBackoffPeriod = 20 symbols (320 us),
aTurnaroundTime = 12 symbols (192 us) and macAckWaitDuration = 54 symbols
(864 us) at 16 us per symbol.
"""

from __future__ import annotations

import pytest

from repro.mac.csma import CsmaConfig
from repro.phy.params import PhyParameters


def test_csma_defaults_match_the_standard():
    config = CsmaConfig()
    assert config.mac_min_be == 3
    assert config.mac_max_be == 5
    assert config.max_csma_backoffs == 4
    assert config.max_frame_retries == 3


def test_phy_timing_defaults_match_the_standard():
    phy = PhyParameters()
    assert phy.symbol_time_s == 16e-6
    assert phy.ack_wait_duration == 864e-6
    assert phy.turnaround_time == 192e-6
    # 20 * 16e-6 is one ulp short of the literal 320e-6.
    assert phy.unit_backoff_period == pytest.approx(320e-6, rel=1e-12)
