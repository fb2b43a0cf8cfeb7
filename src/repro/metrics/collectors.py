"""Built-in metric collectors.

One collector per metric family of the paper's evaluation:

* ``pdr`` — packet delivery ratio over data packets (Figs. 7, 18, 19)
* ``delay`` — end-to-end delay of sink deliveries (Fig. 9)
* ``queue`` — time-weighted queue occupancy (Fig. 8)
* ``attempts`` — transmission attempts, the paper's energy proxy (Sect. 6.2.1)
* ``slots`` — subslot utilisation of the learned schedules (Figs. 13-15)
* ``convergence`` — cumulative-Q / exploration-rate histories (Figs. 10-12)
* ``dsme`` — DSME secondary-traffic metrics (Figs. 21-22)

Every formula is the one the pre-redesign per-experiment result dataclasses
used, so reports are numerically identical to the historical runners for
fixed seeds; the regression tests in ``tests/metrics`` pin this down.
Collectors count deliveries through the typed delivery hook (fired in
chronological order), which makes incremental sums bit-identical to the
post-hoc loops they replace.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.convergence import convergence_time
from repro.analysis.slots import slot_utilisation
from repro.metrics.base import CollectionContext, MetricCollector
from repro.metrics.registry import register_collector
from repro.metrics.report import SimReport
from repro.net.node import DeliveryRecord, Node


@register_collector("pdr", description="packet delivery ratio over data packets")
class PdrCollector(MetricCollector):
    """Delivery ratio of the data traffic generated after the warm-up.

    Parameters
    ----------
    scalar_name:
        Name of the headline scalar (``pdr`` for hidden-node runs,
        ``overall_pdr`` for the testbed runners).
    per_node:
        Additionally emit one ``pdr_node_<id>`` scalar and a
        ``pdr_per_node`` table (the Fig. 18/19 metric).
    denominator:
        How data packets are counted against deliveries:
        ``"network"`` — network-side generation counters minus management
        generator counts (the hidden-node convention); ``"generators"`` —
        the data generators' own counts (the testbed convention).
    delivered_scalar:
        What ``packets_delivered`` reports: ``"all"`` — every sink
        delivery including warm-up management traffic (hidden-node
        convention); ``"data"`` — post-warm-up data deliveries only.
    """

    def __init__(
        self,
        scalar_name: str = "pdr",
        per_node: bool = False,
        denominator: str = "network",
        delivered_scalar: str = "all",
    ) -> None:
        if denominator not in ("network", "generators"):
            raise ValueError(f"denominator must be 'network' or 'generators', got {denominator!r}")
        if delivered_scalar not in ("all", "data"):
            raise ValueError(f"delivered_scalar must be 'all' or 'data', got {delivered_scalar!r}")
        self.scalar_name = scalar_name
        self.per_node = per_node
        self.denominator = denominator
        self.delivered_scalar = delivered_scalar
        self._sources: frozenset = frozenset()
        self._warmup = 0.0
        self._all_deliveries = 0
        self._data_delivered: Dict[int, int] = {}

    def provides(self) -> Tuple[str, ...]:
        names = [self.scalar_name, "packets_generated", "packets_delivered"]
        if self.per_node:
            names.append("pdr_node_*")
        return tuple(names)

    def attach(self, ctx: CollectionContext) -> None:
        self._sources = frozenset(ctx.sources)
        self._warmup = ctx.warmup
        ctx.network.add_delivery_hook(self._on_delivery, node_ids=(ctx.network.sink.node_id,))

    def _on_delivery(self, node: Node, record: DeliveryRecord) -> None:
        self._all_deliveries += 1
        if record.origin in self._sources and record.created_at >= self._warmup:
            self._data_delivered[record.origin] = self._data_delivered.get(record.origin, 0) + 1

    def finalize(self, ctx: CollectionContext, report: SimReport) -> None:
        delivered_data = sum(self._data_delivered.get(node_id, 0) for node_id in ctx.sources)
        generators = ctx.data_generators
        if generators:
            packets_generated = sum(
                generators[node_id].generated for node_id in ctx.sources if node_id in generators
            )
        else:
            packets_generated = ctx.network.packets_generated(ctx.sources)

        if self.denominator == "network":
            total_generated = ctx.network.packets_generated(ctx.sources)
            management = sum(
                ctx.management_generators[node_id].generated
                for node_id in ctx.sources
                if node_id in ctx.management_generators
            )
            data_generated = total_generated - management
            pdr = 0.0 if data_generated <= 0 else min(1.0, delivered_data / data_generated)
        else:
            data_generated = packets_generated
            pdr = min(1.0, delivered_data / data_generated) if data_generated else 0.0

        if self.per_node:
            per_node_pdr: Dict[int, float] = {}
            for node_id in ctx.sources:
                generated = generators[node_id].generated if node_id in generators else 0
                if generated:
                    per_node_pdr[node_id] = min(
                        1.0, self._data_delivered.get(node_id, 0) / generated
                    )
            report.tables["pdr_per_node"] = per_node_pdr
            for node_id in sorted(per_node_pdr):
                report.scalars[f"pdr_node_{node_id}"] = per_node_pdr[node_id]

        report.scalars[self.scalar_name] = pdr
        report.scalars["packets_generated"] = float(packets_generated)
        report.scalars["packets_delivered"] = float(
            self._all_deliveries if self.delivered_scalar == "all" else delivered_data
        )


@register_collector("delay", description="end-to-end delay of sink deliveries")
class DelayCollector(MetricCollector):
    """Mean (and per-delivery series of) sink-delivery delay, Fig. 9 style.

    The mean covers *all* deliveries recorded at the sink — including
    warm-up management traffic — exactly like the historical
    ``Network.average_end_to_end_delay``.
    """

    def __init__(
        self,
        scalar_name: str = "average_delay",
        record_series: bool = True,
        max_samples: Optional[int] = None,
    ) -> None:
        self.scalar_name = scalar_name
        self.record_series = record_series
        self.max_samples = max_samples
        self._sum = 0.0
        self._count = 0
        self._samples: List[Tuple[float, float]] = []

    def provides(self) -> Tuple[str, ...]:
        return (self.scalar_name,)

    def attach(self, ctx: CollectionContext) -> None:
        ctx.network.add_delivery_hook(self._on_delivery, node_ids=(ctx.network.sink.node_id,))

    def _on_delivery(self, node: Node, record: DeliveryRecord) -> None:
        delay = record.delay
        self._sum += delay
        self._count += 1
        if self.record_series and (
            self.max_samples is None or len(self._samples) < self.max_samples
        ):
            self._samples.append((record.received_at, delay))

    def finalize(self, ctx: CollectionContext, report: SimReport) -> None:
        report.scalars[self.scalar_name] = self._sum / self._count if self._count else 0.0
        if self.record_series:
            report.series["delay"] = self._samples


@register_collector("queue", description="time-weighted average queue occupancy")
class QueueCollector(MetricCollector):
    """Mean queue level over the source nodes (the Fig. 8 metric)."""

    def __init__(self, scalar_name: str = "average_queue_level") -> None:
        self.scalar_name = scalar_name

    def provides(self) -> Tuple[str, ...]:
        return (self.scalar_name,)

    def finalize(self, ctx: CollectionContext, report: SimReport) -> None:
        report.scalars[self.scalar_name] = ctx.network.average_queue_level(ctx.sources)
        report.tables["queue_level"] = {
            node_id: ctx.network.mac(node_id).queue.average_level() for node_id in ctx.sources
        }


@register_collector("attempts", description="transmission attempts (energy proxy)")
class AttemptsCollector(MetricCollector):
    """Total MAC transmission attempts — the paper's energy-consumption proxy."""

    def __init__(self, scalar_name: str = "transmission_attempts") -> None:
        self.scalar_name = scalar_name

    def provides(self) -> Tuple[str, ...]:
        return (self.scalar_name,)

    def finalize(self, ctx: CollectionContext, report: SimReport) -> None:
        report.scalars[self.scalar_name] = float(
            ctx.network.total_transmission_attempts(ctx.sources)
        )
        report.tables["tx_attempts"] = {
            node_id: ctx.network.mac(node_id).stats.tx_attempts for node_id in ctx.sources
        }


@register_collector("convergence", description="cumulative-Q and exploration histories")
class ConvergenceCollector(MetricCollector):
    """Per-node Q-convergence instrumentation of the QMA agents.

    Fills the ``q_history`` / ``rho_history`` / ``policy`` tables (the data
    behind Figs. 10-12) for every source running QMA; emits a
    ``convergence_time`` scalar when ``emit_scalar`` is set (the latest
    per-node stabilisation time, ``inf`` if any node never stabilises).
    Agents record their histories only when asked to, so :meth:`attach`
    (before the run starts) switches recording on for every QMA source.
    """

    def __init__(
        self,
        window: int = 10,
        tolerance: float = 1e-9,
        emit_scalar: bool = False,
    ) -> None:
        self.window = window
        self.tolerance = tolerance
        self.emit_scalar = emit_scalar

    def provides(self) -> Tuple[str, ...]:
        return ("convergence_time",) if self.emit_scalar else ()

    def attach(self, ctx: CollectionContext) -> None:
        for _, mac in ctx.qma_macs():
            mac.track_history = True

    def finalize(self, ctx: CollectionContext, report: SimReport) -> None:
        q_history: Dict[int, List[Tuple[float, float]]] = {}
        rho_history: Dict[int, List[Tuple[float, float]]] = {}
        policy: Dict[int, list] = {}
        for node_id, mac in ctx.qma_macs():
            q_history[node_id] = list(mac.q_history)
            rho_history[node_id] = list(mac.rho_history)
            policy[node_id] = mac.policy_snapshot()
        report.tables["q_history"] = q_history
        report.tables["rho_history"] = rho_history
        report.tables["policy"] = policy
        if self.emit_scalar:
            times = [
                convergence_time(history, window=self.window, tolerance=self.tolerance)
                for history in q_history.values()
            ]
            if times and all(t is not None for t in times):
                report.scalars["convergence_time"] = max(times)
            else:
                report.scalars["convergence_time"] = float("inf")


@register_collector("slots", description="subslot utilisation of the learned schedule")
class SlotUtilisationCollector(MetricCollector):
    """Subslot utilisation of the final (and optionally a mid-run) QMA policy.

    With ``snapshot_time`` set, :meth:`attach` schedules one snapshot event
    — the only built-in collector that touches the event queue, so runs
    with and without it differ in event sequence (documented determinism
    exception; the pure observers never do this).
    """

    def __init__(self, snapshot_time: Optional[float] = None, emit_scalars: bool = False) -> None:
        self.snapshot_time = snapshot_time
        self.emit_scalars = emit_scalars
        self._snapshot_policies: Dict[int, list] = {}

    def provides(self) -> Tuple[str, ...]:
        return ("utilised_subslots", "collision_free") if self.emit_scalars else ()

    def attach(self, ctx: CollectionContext) -> None:
        if self.snapshot_time is not None:
            ctx.sim.schedule_at(self.snapshot_time, self._take_snapshot, ctx)

    def _take_snapshot(self, ctx: CollectionContext) -> None:
        self._snapshot_policies = {
            node_id: mac.policy_snapshot() for node_id, mac in ctx.qma_macs()
        }

    def finalize(self, ctx: CollectionContext, report: SimReport) -> None:
        final_policies = {node_id: mac.policy_snapshot() for node_id, mac in ctx.qma_macs()}
        snapshot_policies = self._snapshot_policies or final_policies
        final = slot_utilisation(final_policies)
        report.details["slot_utilisation"] = final
        report.details["slot_utilisation_snapshot"] = slot_utilisation(snapshot_policies)
        report.tables["subslots"] = {
            node_id: final.node_subslots(node_id) for node_id in final_policies
        }
        if self.emit_scalars:
            report.scalars["utilised_subslots"] = float(final.utilised_subslots())
            report.scalars["collision_free"] = 1.0 if final.collision_free else 0.0


@register_collector("dsme", description="DSME secondary-traffic metrics (CAP)")
class DsmeSecondaryCollector(MetricCollector):
    """Secondary-traffic metrics of a DSME run (Figs. 21-22).

    Requires a DSME scenario (``ctx.dsme``); the observation window for the
    allocation rate is the simulated time minus the warm-up, matching the
    historical scalability runner.
    """

    def provides(self) -> Tuple[str, ...]:
        return (
            "num_nodes",
            "secondary_pdr",
            "gts_request_success",
            "allocation_rate",
            "primary_pdr",
        )

    def finalize(self, ctx: CollectionContext, report: SimReport) -> None:
        if ctx.dsme is None:
            raise ValueError("the 'dsme' collector requires a DSME scenario")
        stats = ctx.dsme.secondary_traffic_stats()
        observation = ctx.sim.now - ctx.warmup
        report.scalars["num_nodes"] = float(ctx.network.topology.num_nodes)
        report.scalars["secondary_pdr"] = stats.pdr
        report.scalars["gts_request_success"] = stats.gts_request_success_ratio
        report.scalars["allocation_rate"] = stats.allocation_rate(observation)
        report.scalars["primary_pdr"] = ctx.dsme.primary_traffic_pdr()
        report.tables["secondary_counts"] = stats.as_scalars()
        report.details["secondary"] = stats


@register_collector(
    "link-asymmetry",
    description="hidden-vs-near delivery asymmetry of the SINR regime",
)
class LinkAsymmetryCollector(MetricCollector):
    """Quantifies the asymmetric-link regime of the SINR hidden-node scenario.

    Two designated sources are compared: the *hidden* sender (geometrically
    in range of the sink but SINR-starved) and the *near* sender (a strong
    link that is captured over the hidden sender's frames).  The scalars
    record both sides of the physics claim — the hidden node keeps
    *receiving* (overheard relay traffic, ``hidden_frames_received``) and
    keeps *sensing* undecodable energy (``hidden_cca_sensed_only``) while
    its own uplink never delivers (``hidden_delivered``/``hidden_pdr``).
    ``delivery_asymmetry`` is the near-minus-hidden PDR gap.
    """

    def __init__(self, hidden_node: int = 3, near_node: int = 1) -> None:
        self.hidden_node = hidden_node
        self.near_node = near_node

    def provides(self) -> Tuple[str, ...]:
        return (
            "hidden_delivered",
            "hidden_pdr",
            "hidden_frames_received",
            "hidden_frames_corrupted",
            "hidden_cca_sensed_only",
            "near_pdr",
            "delivery_asymmetry",
        )

    def _pdr(self, ctx: CollectionContext, node_id: int) -> float:
        generated = ctx.network.node(node_id).packets_generated
        if generated == 0:
            return 0.0
        return ctx.network.sink.delivered_from(node_id) / generated

    def finalize(self, ctx: CollectionContext, report: SimReport) -> None:
        network = ctx.network
        hidden_radio = network.radios[self.hidden_node]
        hidden_pdr = self._pdr(ctx, self.hidden_node)
        near_pdr = self._pdr(ctx, self.near_node)
        report.scalars["hidden_delivered"] = float(
            network.sink.delivered_from(self.hidden_node)
        )
        report.scalars["hidden_pdr"] = hidden_pdr
        report.scalars["hidden_frames_received"] = float(hidden_radio.frames_received)
        report.scalars["hidden_frames_corrupted"] = float(hidden_radio.frames_corrupted)
        report.scalars["hidden_cca_sensed_only"] = float(
            hidden_radio.cca_sensed_only_count
        )
        report.scalars["near_pdr"] = near_pdr
        report.scalars["delivery_asymmetry"] = near_pdr - hidden_pdr
