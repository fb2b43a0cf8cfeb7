"""SINR determinism suite: the interference PHY through the campaign layer.

The SINR/capture model must satisfy exactly the contract the collision
model already pins in ``test_build_cache_determinism.py``: every scalar of
every record is bit-identical with the build cache on and off, at jobs=1
and jobs=4 — across the MAC × propagation × topology matrix.  The hidden
node's asymmetric-delivery regime (receives and senses, never delivers)
must survive every variant unchanged.
"""

from __future__ import annotations

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import Sweep
from repro.experiments.base import MAC_KINDS
from repro.scenario import ARTIFACT_CACHE


@pytest.fixture(autouse=True)
def _clean_cache():
    ARTIFACT_CACHE.clear()
    yield
    ARTIFACT_CACHE.clear()


def _run_variants(sweep: Sweep, jobs=(1, 4)):
    """Record lists of the sweep under every (jobs, cache on/off) variant."""
    variants = {}
    for job_count in jobs:
        for build_cache in (True, False):
            with CampaignRunner(jobs=job_count, build_cache=build_cache) as runner:
                variants[(job_count, build_cache)] = runner.run(sweep).records
    return variants


def _assert_all_equal(variants):
    baseline = next(iter(variants.values()))
    for key, records in variants.items():
        assert records == baseline, f"records differ for variant {key}"
    return baseline


class TestSinrHiddenNodeDeterminism:
    def test_full_mac_matrix(self):
        """Every MAC kind × 2 seeds on the SINR hidden-node topology."""
        sweep = Sweep(
            experiment="sinr-hidden-node",
            macs=MAC_KINDS,
            fixed={"packets_per_node": 3, "warmup": 0.5, "delta": 25.0},
            seeds=(0, 1),
        )
        baseline = _assert_all_equal(_run_variants(sweep))
        assert len(baseline) == sweep.size == len(MAC_KINDS) * 2
        # The physics claim holds for every MAC and seed: the hidden node's
        # uplink is SINR-starved — frames arrive but none ever decodes.
        for record in baseline:
            assert record.metrics["hidden_delivered"] == 0.0

    def test_threshold_axis_is_sweepable(self):
        """sinr_threshold_db is a construction axis: 3 dB lets the hidden
        node through (8.6 dB SNR uplink), 10 dB starves it."""
        sweep = Sweep(
            experiment="sinr-hidden-node",
            macs=("unslotted-csma",),
            grid={"sinr_threshold_db": [3.0, 10.0]},
            fixed={"packets_per_node": 5, "warmup": 0.5, "delta": 25.0},
            seeds=(0,),
        )
        records = _assert_all_equal(_run_variants(sweep))
        by_threshold = {
            record.scenario.params["sinr_threshold_db"]: record.metrics
            for record in records
        }
        assert by_threshold[10.0]["hidden_delivered"] == 0.0
        assert by_threshold[3.0]["hidden_delivered"] > 0.0

    def test_other_propagation_models_take_their_own_defaults(self):
        """The runner's unit-disk range parameters are not forced onto
        other models (log-distance has no ``communication_range``)."""
        sweep = Sweep(
            experiment="sinr-hidden-node",
            macs=("unslotted-csma",),
            propagations=("log-distance",),
            fixed={"packets_per_node": 5, "warmup": 0.5, "delta": 25.0},
            seeds=(0, 1),
        )
        with CampaignRunner(jobs=1) as runner:
            campaign = runner.run(sweep)
        assert len(campaign.records) == sweep.size == 2
        for record in campaign.records:
            assert record.metrics["packets_generated"] > 0
            assert 0.0 <= record.metrics["pdr"] <= 1.0


class TestHiddenNodeInterferenceAxis:
    def test_interference_axis_across_propagations(self):
        """`interference` as an ordinary grid axis over the legacy
        hidden-node experiment, across all power-capable propagation
        models — collision and SINR runs interleave through the same
        cache and worker pools without contaminating each other."""
        sweep = Sweep(
            experiment="hidden-node",
            macs=("qma", "unslotted-csma"),
            propagations=("unit-disk", "log-distance", "fading"),
            grid={"interference": ["collision", "sinr"]},
            fixed={"packets_per_node": 3, "warmup": 0.5, "delta": 25.0},
            seeds=(0, 1),
        )
        baseline = _assert_all_equal(_run_variants(sweep))
        assert len(baseline) == sweep.size == 2 * 3 * 2 * 2

    def test_collision_records_unchanged_by_sinr_axis(self):
        """The legacy model's scalars are identical whether collision runs
        alone or interleaved with SINR runs through a shared cache."""
        fixed = {"packets_per_node": 3, "warmup": 0.5, "delta": 25.0}
        alone = Sweep(
            experiment="hidden-node",
            macs=("unslotted-csma",),
            propagations=("unit-disk",),
            fixed=dict(fixed, interference="collision"),
            seeds=(0, 1),
        )
        mixed = Sweep(
            experiment="hidden-node",
            macs=("unslotted-csma",),
            propagations=("unit-disk",),
            grid={"interference": ["collision", "sinr"]},
            fixed=fixed,
            seeds=(0, 1),
        )
        with CampaignRunner(jobs=1, build_cache=False) as runner:
            reference = {
                record.scenario.seed: record.metrics
                for record in runner.run(alone).records
            }
        with CampaignRunner(jobs=1) as runner:
            for record in runner.run(mixed).records:
                if record.scenario.params["interference"] == "collision":
                    assert record.metrics == reference[record.scenario.seed]
