"""Declarative scenario assembly on top of the component registries.

A :class:`~repro.scenario.config.ScenarioConfig` names topology,
propagation model, MAC and link quality as plain data; the
:class:`~repro.scenario.builder.ScenarioBuilder` resolves the names through
the MAC/propagation/topology registries and assembles the live simulation
objects.  The experiment runners in :mod:`repro.experiments` are thin
layers over this pipeline: they declare a config, attach figure-specific
traffic, run, and collect metrics.
"""

from repro.scenario.artifacts import (
    ARTIFACT_CACHE,
    ArtifactCache,
    CarrierSenseSkeleton,
    ScenarioArtifacts,
    artifact_cache_stats,
    carrier_sense_skeleton,
    configure_artifact_cache,
    link_power_skeleton,
)
from repro.scenario.builder import (
    BuiltDsmeScenario,
    BuiltScenario,
    ScenarioBuilder,
    TOPOLOGY_REGISTRY,
    build_scenario,
    topology_accepts_node_count,
    topology_accepts_seed,
    topology_kinds,
)
from repro.scenario.config import ScenarioConfig

__all__ = [
    "ARTIFACT_CACHE",
    "ArtifactCache",
    "BuiltDsmeScenario",
    "CarrierSenseSkeleton",
    "BuiltScenario",
    "ScenarioArtifacts",
    "ScenarioBuilder",
    "ScenarioConfig",
    "TOPOLOGY_REGISTRY",
    "artifact_cache_stats",
    "build_scenario",
    "carrier_sense_skeleton",
    "configure_artifact_cache",
    "link_power_skeleton",
    "topology_accepts_node_count",
    "topology_accepts_seed",
    "topology_kinds",
]
