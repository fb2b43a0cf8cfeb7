"""Build-cache determinism suite: cached == uncached, bit for bit.

The construction cache and the affinity-ordered dispatch are pure
orchestration optimisations — every scalar of every record must be
identical with the cache on and off, at any worker count, under forced LRU
eviction, and across the MAC × propagation (incl. ``fading``) × topology
matrix.  These tests pin that contract; they are what makes
``--no-build-cache`` a debugging tool rather than a correctness switch.
"""

from __future__ import annotations

import pytest

from repro.campaign.runner import AFFINITY_REORDER_LIMIT, CampaignRunner
from repro.campaign.spec import Sweep, construction_affinity_key
from repro.experiments.base import MAC_KINDS
from repro.scenario import ARTIFACT_CACHE


@pytest.fixture(autouse=True)
def _clean_cache():
    ARTIFACT_CACHE.clear()
    yield
    ARTIFACT_CACHE.clear()


def _run_variants(sweep: Sweep, jobs=(1, 4), cache_sizes=(None,)):
    """Record lists of the sweep under every (jobs, cache on/off) variant."""
    variants = {}
    for job_count in jobs:
        for build_cache in (True, False):
            for cache_size in cache_sizes:
                kwargs = {"jobs": job_count, "build_cache": build_cache}
                if cache_size is not None:
                    kwargs["cache_size"] = cache_size
                with CampaignRunner(**kwargs) as runner:
                    variants[(job_count, build_cache, cache_size)] = runner.run(
                        sweep
                    ).records
    return variants


def _assert_all_equal(variants):
    baseline = next(iter(variants.values()))
    for key, records in variants.items():
        assert records == baseline, f"records differ for variant {key}"
    return baseline


class TestCachedEqualsUncached:
    def test_full_mac_propagation_matrix_hidden_node(self):
        """Every MAC kind × (explicit links, unit-disk, fading) × 2 seeds."""
        sweep = Sweep(
            experiment="hidden-node",
            macs=MAC_KINDS,
            propagations=(None, "unit-disk", "fading"),
            grid={"delta": [25.0]},
            fixed={"packets_per_node": 3, "warmup": 0.5},
            seeds=(0, 1),
        )
        baseline = _assert_all_equal(_run_variants(sweep))
        assert len(baseline) == sweep.size == len(MAC_KINDS) * 3 * 2

    def test_testbed_star_with_link_errors(self):
        """PER rows (testbed default 2%) with and without the cache."""
        sweep = Sweep(
            experiment="testbed-star",
            macs=("unslotted-csma",),
            propagations=(None, "log-distance"),
            fixed={"packets_per_node": 2, "warmup": 0.3, "delta": 40.0},
            seeds=(0, 1),
        )
        _assert_all_equal(_run_variants(sweep))

    def test_scalability_topology_axis(self):
        """Concentric and seeded random topologies, DSME assembly path."""
        sweep = Sweep(
            experiment="scalability",
            macs=("qma",),
            grid={"topology": ["concentric", "random"]},
            fixed={"duration": 7.0, "warmup": 5.0, "rings": 1, "nodes": 6},
            seeds=(0, 1),
        )
        baseline = _assert_all_equal(_run_variants(sweep))
        assert {r.scenario.params["topology"] for r in baseline} == {
            "concentric", "random",
        }

    def test_forced_lru_eviction(self):
        """cache_size=1 with two alternating construction configs: the
        cache thrashes (evictions observed) yet records stay identical."""
        sweep = Sweep(
            experiment="hidden-node",
            macs=("unslotted-csma",),
            grid={"delta": [25.0], "link_distance": [50.0, 45.0]},
            fixed={"packets_per_node": 3, "warmup": 0.5},
            seeds=(0, 1, 2),
        )
        with CampaignRunner(jobs=1, build_cache=False) as runner:
            reference = runner.run(sweep).records
        evictions_before = ARTIFACT_CACHE.stats()["evictions"]
        # Interleave the two configurations so a one-slot LRU must evict:
        # run the sweep's scenarios in (link_distance-alternating) seed-major
        # order through a cache_size=1 serial runner.
        scenarios = sorted(sweep.scenarios(), key=lambda s: s.seed)
        with CampaignRunner(jobs=1, cache_size=1) as runner:
            records = list(runner.iter_records(scenarios))
        assert ARTIFACT_CACHE.stats()["evictions"] > evictions_before
        by_key = {
            (r.scenario.label): r.metrics for r in records
        }
        for record in reference:
            assert by_key[record.scenario.label] == record.metrics


class TestAffinityDispatch:
    def test_identity_order_skips_reordering(self):
        """Single-configuration sweeps (seeds innermost) are already affine."""
        sweep = Sweep(
            experiment="hidden-node",
            macs=("qma", "unslotted-csma"),
            grid={"delta": [10.0, 25.0]},
            fixed={"packets_per_node": 3, "warmup": 0.5},
            seeds=(0, 1),
        )
        runner = CampaignRunner(jobs=4)
        axes = sweep.axes
        deltas = [
            (s.mac, s.propagation, s.seed, {name: s.params[name] for name in axes})
            for s in sweep
        ]
        # delta is a traffic axis -> not construction-relevant -> identity.
        assert runner._affinity_order(sweep, deltas) is None

    def test_construction_axis_groups_runs(self):
        sweep = Sweep(
            experiment="hidden-node",
            macs=("qma", "unslotted-csma"),
            grid={"link_distance": [50.0, 45.0]},
            fixed={"packets_per_node": 3, "warmup": 0.5},
            seeds=(0, 1),
        )
        runner = CampaignRunner(jobs=4)
        axes = sweep.axes
        scenarios = sweep.scenarios()
        deltas = [
            (s.mac, s.propagation, s.seed, {name: s.params[name] for name in axes})
            for s in scenarios
        ]
        order = runner._affinity_order(sweep, deltas)
        assert order is not None
        dispatched = [scenarios[i].params["link_distance"] for i in order]
        # Runs sharing construction are consecutive after reordering: the
        # two link_distance groups meet at exactly one boundary.
        changes = sum(1 for a, b in zip(dispatched, dispatched[1:]) if a != b)
        assert changes == 1
        # The stable sort keeps expansion order within each group.
        first = [scenarios[i] for i in order][: len(scenarios) // 2]
        assert [(s.mac, s.seed) for s in first] == [
            ("qma", 0), ("qma", 1), ("unslotted-csma", 0), ("unslotted-csma", 1),
        ]

    def test_reorder_restores_expansion_order(self):
        order = [2, 0, 3, 1, 4]
        results = [f"record-{index}" for index in order]  # dispatch order
        restored = list(CampaignRunner._reorder(iter(results), order))
        assert restored == ["record-0", "record-1", "record-2", "record-3", "record-4"]

    def test_seeded_construction_groups_by_seed_across_macs(self):
        key_a = construction_affinity_key(
            "hidden-node", "fading", 3, {"packets_per_node": 3}
        )
        key_b = construction_affinity_key(
            "hidden-node", "fading", 3, {"packets_per_node": 3}
        )
        key_c = construction_affinity_key(
            "hidden-node", "fading", 4, {"packets_per_node": 3}
        )
        assert key_a == key_b
        assert key_a != key_c
        pinned = {"propagation_params": {"seed": 7}}
        assert construction_affinity_key(
            "hidden-node", "fading", 3, pinned
        ) == construction_affinity_key("hidden-node", "fading", 4, pinned)

    def test_large_sweeps_fall_back_to_lazy_dispatch(self):
        assert AFFINITY_REORDER_LIMIT >= 10_000  # documented constant exists
