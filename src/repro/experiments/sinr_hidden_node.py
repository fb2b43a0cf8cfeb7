"""SINR hidden-node experiment: the asymmetric-link regime under capture.

Four nodes on a line (see :mod:`repro.topology.sinr_hidden_node`) run under
the SINR interference model with a carrier-sense range wider than the
decode range.  The scenario is built so three claims hold simultaneously:

* the HIDDEN sender's uplink to the sink is geometrically in range but
  SINR-starved — its frames are *received as energy* yet never decoded, so
  ``hidden_delivered`` stays 0 while the node itself keeps receiving
  (overheard RELAY traffic);
* the NEAR sender's frames are captured over HIDDEN's at the sink (their
  signal clears the threshold against HIDDEN's interference), so NEAR's
  PDR stays high even during overlap — the binary collision model would
  destroy both frames;
* NEAR's transmissions are sensed-only at HIDDEN (beyond decode range,
  inside carrier-sense range), driving ``cca_sensed_only_count`` up.

The runner mirrors :func:`repro.experiments.hidden_node.run_hidden_node`:
management traffic during the warm-up, Poisson data sources afterwards,
metrics through registered collectors, results as a
:class:`~repro.metrics.report.SimReport`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.config import QmaConfig
from repro.mac.registry import get_mac_spec
from repro.metrics.base import CollectionContext
from repro.metrics.registry import build_collectors
from repro.metrics.report import SimReport
from repro.scenario.builder import BuiltScenario, ScenarioBuilder
from repro.scenario.config import ScenarioConfig
from repro.topology.sinr_hidden_node import (
    CARRIER_SENSE_RANGE,
    COMMUNICATION_RANGE,
    HIDDEN,
    NEAR,
    RELAY,
)

#: The three traffic sources of the scenario (node 0 is the sink).
SOURCES = (NEAR, RELAY, HIDDEN)

#: Collector composition: PDR plus the asymmetry scalars of the regime.
DEFAULT_COLLECTORS = ("pdr", "attempts", "link-asymmetry")

#: Per-collector constructor overrides for this experiment.
COLLECTOR_OVERRIDES: Dict[str, Dict[str, Any]] = {
    "link-asymmetry": {"hidden_node": HIDDEN, "near_node": NEAR},
}

#: Default propagation parameters of the runner's ``unit-disk`` model: a
#: decoupled, much wider carrier-sense range (the regime needs NEAR sensed —
#: not decoded — at HIDDEN, 115 m away).  Other models take their own
#: defaults.
DEFAULT_PROPAGATION_PARAMS: Dict[str, Any] = {
    "communication_range": COMMUNICATION_RANGE,
    "carrier_sense_range": CARRIER_SENSE_RANGE,
}


def _build(
    mac: str,
    seed: int,
    qma_config: Optional[QmaConfig],
    propagation: str,
    propagation_params: Optional[Mapping[str, Any]],
    sinr_threshold_db: float,
    trace: bool,
    trace_limit: Optional[int],
) -> BuiltScenario:
    if propagation_params is None:
        propagation_params = DEFAULT_PROPAGATION_PARAMS if propagation == "unit-disk" else {}
    scenario = ScenarioConfig(
        topology="sinr-hidden-node",
        mac=mac,
        propagation=propagation,
        propagation_params=dict(propagation_params),
        interference="sinr",
        sinr_threshold_db=sinr_threshold_db,
        seed=seed,
        trace=trace,
        trace_limit=trace_limit,
    )
    if get_mac_spec(mac).config_cls is QmaConfig:
        scenario.mac_config = qma_config if qma_config is not None else QmaConfig()
    return ScenarioBuilder(scenario).build()


def run_sinr_hidden_node(
    mac: str = "qma",
    delta: float = 10.0,
    packets_per_node: int = 200,
    warmup: float = 10.0,
    management_period: float = 5.0,
    drain_time: float = 5.0,
    seed: int = 0,
    qma_config: Optional[QmaConfig] = None,
    max_duration: Optional[float] = None,
    propagation: str = "unit-disk",
    propagation_params: Optional[Mapping[str, Any]] = None,
    sinr_threshold_db: float = 10.0,
    collectors: Optional[Sequence[str]] = None,
    trace: bool = False,
    trace_limit: Optional[int] = None,
) -> SimReport:
    """Run one SINR hidden-node scenario and return its :class:`SimReport`.

    Defaults are sized for a quick demonstration run; the scalars of the
    ``link-asymmetry`` collector carry the regime's physics claims.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if packets_per_node <= 0:
        raise ValueError("packets_per_node must be positive")

    built = _build(
        mac, seed, qma_config, propagation, propagation_params,
        sinr_threshold_db, trace, trace_limit,
    )
    sim, network = built.sim, built.network

    management = [
        built.attach_management(
            node_id,
            period=management_period,
            start_time=1.0,
            jitter=management_period * 0.2,
            rng_name=f"management-{node_id}",
        )
        for node_id in SOURCES
    ]

    ctx = CollectionContext(
        sim=sim,
        network=network,
        sources=SOURCES,
        warmup=warmup,
        management_generators=dict(zip(SOURCES, management)),
    )
    active = build_collectors(
        DEFAULT_COLLECTORS if collectors is None else collectors, COLLECTOR_OVERRIDES
    )
    for collector in active:
        collector.attach(ctx)

    network.start()

    data_generators = []
    for node_id, mgmt in zip(SOURCES, management):
        generator = built.poisson_source(
            node_id,
            rate=delta,
            start_time=warmup,
            max_packets=packets_per_node,
            rng_name=f"data-{node_id}",
            start_at=warmup,
        )
        data_generators.append(generator)
        sim.schedule_at(warmup, mgmt.stop)
    ctx.data_generators = dict(zip(SOURCES, data_generators))

    expected_duration = warmup + packets_per_node / delta + drain_time
    end_time = min(expected_duration, max_duration) if max_duration else expected_duration
    sim.run_until(end_time)

    report = SimReport(
        experiment="sinr-hidden-node",
        mac=mac,
        topology=built.topology.name,
        params={
            "delta": delta,
            "packets_per_node": packets_per_node,
            "warmup": warmup,
            "sinr_threshold_db": sinr_threshold_db,
            "seed": seed,
        },
        duration=sim.now,
        trace_dropped=ctx.trace_dropped(),
    )
    for collector in active:
        collector.finalize(ctx, report)
    return report


def sweep_sinr_hidden_node(
    macs: Sequence[str] = ("qma", "unslotted-csma"),
    deltas: Sequence[float] = (10.0,),
    packets_per_node: int = 200,
    repetitions: int = 5,
    warmup: float = 10.0,
    base_seed: int = 0,
    jobs: int = 1,
    metrics: Optional[Sequence[str]] = None,
    **kwargs,
) -> Dict[str, Dict[float, List[SimReport]]]:
    """Sweep the SINR hidden-node scenario through the campaign layer."""
    from repro.campaign.runner import CampaignRunner  # local import: campaign imports us
    from repro.campaign.spec import Sweep

    sweep = Sweep(
        experiment="sinr-hidden-node",
        macs=macs,
        grid={"delta": list(deltas)},
        fixed={"packets_per_node": packets_per_node, "warmup": warmup, **kwargs},
        seeds=[base_seed + rep for rep in range(repetitions)],
        metrics=metrics,
    )
    campaign = CampaignRunner(jobs=jobs, keep_raw=True).run(sweep)

    results: Dict[str, Dict[float, List[SimReport]]] = {}
    for record in campaign:
        mac = record.scenario.mac
        delta = record.scenario.params["delta"]
        results.setdefault(mac, {}).setdefault(delta, []).append(record.raw)
    return results
