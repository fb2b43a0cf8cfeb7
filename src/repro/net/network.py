"""Network builder: wire a topology, a MAC factory and traffic together.

A :class:`Network` owns the simulator's wireless channel, one radio, MAC
and :class:`~repro.net.node.Node` per topology node, and exposes the
aggregate metrics (PDR, end-to-end delay, queue levels, transmission
attempts) that the experiment runners report.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.net.node import Node
from repro.phy.channel import WirelessChannel
from repro.phy.params import PhyParameters
from repro.phy.radio import Radio
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.base import MacProtocol
    from repro.phy.propagation import PropagationModel
    from repro.sim.engine import Simulator

#: Builds a MAC for a given (simulator, radio) pair.
MacFactory = Callable[["Simulator", Radio], "MacProtocol"]


class Network:
    """All simulated objects of one scenario instance."""

    def __init__(
        self,
        sim: "Simulator",
        topology: Topology,
        mac_factory: MacFactory,
        phy: Optional[PhyParameters] = None,
        link_error_rate: float = 0.0,
        interference: str = "collision",
        sinr_threshold_db: float = 10.0,
        propagation_model: Optional["PropagationModel"] = None,
        prebuilt_powers: Optional[Mapping[int, Sequence[Tuple[int, float]]]] = None,
        prebuilt_cs: Optional[Mapping[int, Sequence[Tuple[int, float]]]] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.channel = WirelessChannel(
            sim,
            phy,
            interference=interference,
            sinr_threshold_db=sinr_threshold_db,
        )
        self.nodes: Dict[int, Node] = {}
        self.macs: Dict[int, "MacProtocol"] = {}
        self.radios: Dict[int, Radio] = {}

        for node_id in topology.node_ids:
            radio = Radio(sim, self.channel, node_id, topology.position(node_id))
            self.radios[node_id] = radio
            mac = mac_factory(sim, radio)
            self.macs[node_id] = mac
            self.nodes[node_id] = Node(
                sim,
                node_id,
                mac,
                parent=topology.parent(node_id),
                sink_id=topology.sink,
            )

        for link in topology.links:
            a, b = tuple(link)
            self.channel.connect(a, b)
            if link_error_rate > 0.0:
                self.channel.set_link_error_rate(a, b, link_error_rate)
        if interference == "sinr":
            self._wire_sinr(propagation_model, prebuilt_powers, prebuilt_cs)

    def _wire_sinr(
        self,
        model: Optional["PropagationModel"],
        prebuilt_powers: Optional[Mapping[int, Sequence[Tuple[int, float]]]],
        prebuilt_cs: Optional[Mapping[int, Sequence[Tuple[int, float]]]],
    ) -> None:
        """Wire per-link received powers and carrier-sense-only links.

        Powers and sensed pairs come from the prebuilt construction
        artifacts when available, otherwise they are derived from the
        propagation model by the same functions that build the artifacts.
        """
        if prebuilt_powers is None or prebuilt_cs is None:
            if model is None:
                raise ValueError(
                    "interference='sinr' needs prebuilt link/carrier-sense tables "
                    "or a propagation model to derive received powers from"
                )
            # Deferred: repro.scenario imports this module.
            from repro.scenario.artifacts import carrier_sense_skeleton, link_power_skeleton

            prebuilt_powers = link_power_skeleton(self.topology, model)
            prebuilt_cs = carrier_sense_skeleton(self.topology, model)
        channel = self.channel
        for sender, rows in prebuilt_powers.items():
            for receiver, power_dbm in rows:
                channel.set_link_power(sender, receiver, power_dbm)
        for sender, rows in prebuilt_cs.items():
            for receiver, power_dbm in rows:
                channel.connect_sensed(sender, receiver, power_dbm)

    # ------------------------------------------------------------------ control
    def start(self) -> None:
        """Start every MAC and every attached traffic generator."""
        for mac in self.macs.values():
            mac.start()
        for node in self.nodes.values():
            if node.traffic is not None:
                node.traffic.start()

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def mac(self, node_id: int) -> "MacProtocol":
        return self.macs[node_id]

    @property
    def sink(self) -> Node:
        """The sink node of the topology."""
        if self.topology.sink is None:
            raise ValueError("topology has no sink")
        return self.nodes[self.topology.sink]

    def sources(self) -> List[Node]:
        """All non-sink nodes."""
        return [node for node in self.nodes.values() if not node.is_sink]

    # ------------------------------------------------------------------- hooks
    def add_delivery_hook(self, hook, node_ids: Optional[Iterable[int]] = None) -> None:
        """Subscribe ``hook(node, record)`` to delivery events.

        The hook fires whenever a selected node records a
        :class:`~repro.net.node.DeliveryRecord` (default: every node).
        Hooks are pure observers — metric collectors subscribe here instead
        of scraping ``sink.deliveries`` after the run.
        """
        nodes = self.nodes.values() if node_ids is None else (self.nodes[i] for i in node_ids)
        for node in nodes:
            node.delivery_hooks.append(hook)

    def add_generate_hook(self, hook, node_ids: Optional[Iterable[int]] = None) -> None:
        """Subscribe ``hook(node, frame)`` to data-packet generation events."""
        nodes = self.nodes.values() if node_ids is None else (self.nodes[i] for i in node_ids)
        for node in nodes:
            node.generate_hooks.append(hook)

    # ------------------------------------------------------------------ metrics
    def packets_generated(self, node_ids: Optional[Iterable[int]] = None) -> int:
        nodes = self._select(node_ids)
        return sum(node.packets_generated for node in nodes)

    def packets_delivered(self, origins: Optional[Iterable[int]] = None) -> int:
        sink = self.sink
        if origins is None:
            return len(sink.deliveries)
        origin_set = set(origins)
        return sum(1 for record in sink.deliveries if record.origin in origin_set)

    def packet_delivery_ratio(self, node_ids: Optional[Iterable[int]] = None) -> float:
        """Delivered / generated over the selected source nodes (the paper's PDR)."""
        generated = self.packets_generated(node_ids)
        if generated == 0:
            return 0.0
        origins = [n.node_id for n in self._select(node_ids)]
        return self.packets_delivered(origins) / generated

    def per_node_pdr(self) -> Dict[int, float]:
        """PDR per source node (Fig. 18 / Fig. 19 metric)."""
        result: Dict[int, float] = {}
        for node in self.sources():
            if node.packets_generated == 0:
                continue
            delivered = self.sink.delivered_from(node.node_id)
            result[node.node_id] = delivered / node.packets_generated
        return result

    def average_end_to_end_delay(self) -> float:
        """Mean delay of all packets delivered to the sink (Fig. 9 metric)."""
        return self.sink.average_delivery_delay()

    def average_queue_level(self, node_ids: Optional[Iterable[int]] = None) -> float:
        """Time-weighted mean queue level averaged over the selected nodes (Fig. 8)."""
        nodes = self._select(node_ids)
        if not nodes:
            return 0.0
        return sum(self.macs[n.node_id].queue.average_level() for n in nodes) / len(nodes)

    def total_transmission_attempts(self, node_ids: Optional[Iterable[int]] = None) -> int:
        """Total MAC transmission attempts (the paper's proxy for energy consumption)."""
        nodes = self._select(node_ids)
        return sum(self.macs[n.node_id].stats.tx_attempts for n in nodes)

    def _select(self, node_ids: Optional[Iterable[int]]) -> List[Node]:
        if node_ids is None:
            return self.sources()
        return [self.nodes[node_id] for node_id in node_ids]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Network({self.topology.name!r}, nodes={len(self.nodes)})"
