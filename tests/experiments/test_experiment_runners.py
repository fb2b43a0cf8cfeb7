"""Integration tests of the experiment runners (reduced workloads).

These tests exercise the same code paths as the paper-scale experiments but
with small packet counts so that the whole suite stays fast.  The headline
comparison (QMA beats CSMA/CA under hidden-terminal load) is asserted here
on a reduced workload; the benchmarks reproduce the full figures.
"""

from __future__ import annotations

import pytest

from repro.core.actions import QAction
from repro.experiments.base import MAC_KINDS, make_mac_factory, repeat_scalar, summarize
from repro.experiments.handshake import handshake_expected_messages
from repro.experiments.hidden_node import (
    run_convergence,
    run_fluctuating,
    run_hidden_node,
    run_slot_utilisation,
    sweep_hidden_node,
)
from repro.experiments.scalability import run_scalability
from repro.experiments.testbed import run_star, run_tree


class TestHiddenNodeRunner:
    def test_qma_outperforms_csma_at_high_load(self):
        """Reduced-workload version of the paper's headline result (Fig. 7)."""
        qma = run_hidden_node(mac="qma", delta=25, packets_per_node=150, warmup=20, seed=3)
        csma = run_hidden_node(
            mac="unslotted-csma", delta=25, packets_per_node=150, warmup=20, seed=3
        )
        assert qma.pdr > csma.pdr
        assert qma.pdr > 0.9

    def test_result_contains_qma_histories(self):
        result = run_hidden_node(mac="qma", delta=10, packets_per_node=30, warmup=10, seed=1)
        tables = result.tables
        assert tables["q_history"] and tables["rho_history"] and tables["policy"]
        for policy in tables["policy"].values():
            assert len(policy) == 54
            assert all(isinstance(action, QAction) for action in policy)

    def test_csma_result_has_no_qma_histories(self):
        result = run_hidden_node(
            mac="slotted-csma", delta=10, packets_per_node=20, warmup=5, seed=1
        )
        assert result.tables["q_history"] == {}

    def test_pdr_bounds_and_counters(self):
        result = run_hidden_node(mac="qma", delta=4, packets_per_node=20, warmup=5, seed=2)
        assert 0.0 <= result.pdr <= 1.0
        assert result.packets_generated == 40
        assert result.packets_delivered <= result.packets_generated + 10  # + management
        assert result.average_queue_level >= 0.0

    def test_sweep_structure(self):
        results = sweep_hidden_node(
            macs=("qma",), deltas=(10,), packets_per_node=20, repetitions=2, warmup=5
        )
        assert set(results) == {"qma"}
        assert len(results["qma"][10]) == 2

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            run_hidden_node(delta=0)
        with pytest.raises(ValueError):
            run_hidden_node(packets_per_node=0)


class TestSinrHiddenNodeRunner:
    def test_asymmetric_delivery_regime(self):
        """The hidden node overhears the network (sensed/received frames)
        but its own uplink never clears the 10 dB SINR threshold."""
        from repro.experiments.sinr_hidden_node import run_sinr_hidden_node

        report = run_sinr_hidden_node(
            mac="unslotted-csma", delta=10.0, packets_per_node=30, warmup=5.0, seed=0
        )
        assert report.experiment == "sinr-hidden-node"
        scalars = report.scalars
        assert scalars["hidden_delivered"] == 0.0
        assert scalars["hidden_pdr"] == 0.0
        assert scalars["hidden_frames_received"] > 0  # downlink still decodes
        assert scalars["near_pdr"] > 0.8
        assert scalars["delivery_asymmetry"] == pytest.approx(
            scalars["near_pdr"] - scalars["hidden_pdr"]
        )

    def test_sensed_only_band_drives_cca(self):
        """NEAR sits in HIDDEN's carrier-sense band (115 m < 250 m) but out
        of communication range, so the hidden node's CCA reacts to frames
        it can never decode."""
        from repro.experiments.sinr_hidden_node import run_sinr_hidden_node

        report = run_sinr_hidden_node(
            mac="unslotted-csma", delta=25.0, packets_per_node=50, warmup=5.0, seed=1
        )
        assert report.scalars["hidden_cca_sensed_only"] > 0

    def test_rejects_invalid_arguments(self):
        from repro.experiments.sinr_hidden_node import run_sinr_hidden_node

        with pytest.raises(ValueError):
            run_sinr_hidden_node(delta=0)
        with pytest.raises(ValueError):
            run_sinr_hidden_node(packets_per_node=0)


class TestConvergenceAndSlots:
    def test_convergence_histories_cover_the_run(self):
        result = run_convergence(delta=25, duration=40.0, warmup=10.0, seed=1)
        history = result.tables["q_history"][0]
        assert history[0][0] < 2.0
        assert history[-1][0] > 35.0
        values = [v for _, v in history]
        # Learning must move the cumulative Q-value away from its initial level.
        assert max(values) > min(values)

    def test_fluctuating_returns_history_per_node(self):
        histories = run_fluctuating(duration=30.0, phase_duration=10.0, node_c_join_time=5.0)
        assert set(histories) == {0, 2}
        assert all(len(history) > 10 for history in histories.values())

    def test_slot_utilisation_becomes_collision_free(self):
        snapshot, final = run_slot_utilisation(
            delta=25, snapshot_time=15.0, duration=60.0, warmup=5.0, seed=2
        )
        assert final.num_subslots == 54
        assert final.utilised_subslots() >= 1
        assert final.collision_free


class TestTestbedRunners:
    def test_tree_reports_per_node_pdr(self):
        result = run_tree(mac="qma", delta=5, packets_per_node=30, warmup=20, seed=1)
        assert result.packets_generated > 0
        assert 0.0 <= result.overall_pdr <= 1.0
        assert all(0.0 <= pdr <= 1.0 for pdr in result.tables["pdr_per_node"].values())
        assert result.transmission_attempts > 0

    def test_star_runs_for_both_macs(self):
        for mac in ("qma", "unslotted-csma"):
            result = run_star(mac=mac, delta=2, packets_per_node=10, warmup=15, seed=1)
            assert result.topology == "iotlab-star"
            assert result.packets_generated > 0


class TestScalabilityRunner:
    def test_dsme_secondary_traffic_metrics(self):
        result = run_scalability(
            mac="unslotted-csma", rings=1, duration=60.0, warmup=20.0, seed=1
        )
        assert result.num_nodes == 7
        assert result.details["secondary"].messages_sent > 0
        assert 0.0 <= result.secondary_pdr <= 1.0
        assert 0.0 <= result.gts_request_success <= 1.0
        assert result.allocation_rate >= 0.0
        assert result.primary_pdr > 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            run_scalability(rings=0)
        with pytest.raises(ValueError):
            run_scalability(duration=10.0, warmup=20.0)


class TestHandshakeExperiment:
    def test_curve_is_monotone(self):
        curve = handshake_expected_messages((0.2, 0.5, 1.0))
        assert curve[1.0] == pytest.approx(3.0)
        assert curve[0.2] > curve[0.5] > curve[1.0]


class TestBaseHelpers:
    def test_all_mac_kinds_buildable(self, sim, channel):
        from repro.phy.radio import Radio

        assert "tdma" in MAC_KINDS  # the registry picks up the new baseline
        for index, kind in enumerate(MAC_KINDS):
            radio = Radio(sim, channel, 100 + index)
            mac = make_mac_factory(kind)(sim, radio)
            assert mac.name == kind
        with pytest.raises(ValueError):
            make_mac_factory("not-a-mac")

    def test_repeat_scalar_and_summarize(self):
        mean, ci, samples = repeat_scalar(lambda seed: float(seed), repetitions=3)
        assert samples == [0.0, 1.0, 2.0]
        assert mean == 1.0
        summary = summarize(samples)
        assert summary["n"] == 3
        with pytest.raises(ValueError):
            repeat_scalar(lambda seed: 0.0, repetitions=0)
