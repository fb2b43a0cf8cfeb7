"""Fixed-assignment TDMA baseline.

Time is divided into frames of ``slots_per_frame`` slots and every node owns
the slot ``node_id % slots_per_frame``: it transmits its head-of-line frame
only at the start of its own slot.  With at most ``slots_per_frame`` nodes
per collision domain the schedule is collision-free by construction, which
makes TDMA the contention-free reference point against the learned
(QMA / ALOHA-Q) and contention-based (CSMA/CA, slotted ALOHA) schemes — and
the registry's proof of extensibility: the protocol is one decorated class
and is immediately available to every experiment, sweep and CLI command.

Like the other baselines it honours an :class:`~repro.mac.gate.ActivityGate`
so it can be confined to the CAP of a DSME superframe.

Wake and suspend rules: the shared :class:`~repro.mac.slotted.SlotClock`
wakes a node only at the start of its own slot, and only while it has a
frame queued and none in flight.  An enqueue arms an idle node for its
first own slot after the enqueue; the end of a transaction re-arms it for
the first own slot after that; a node whose queue is empty schedules
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.mac.gate import ActivityGate
from repro.mac.registry import register_mac
from repro.mac.slotted import SlottedConfig, SlottedMac

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.radio import Radio
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class TdmaConfig(SlottedConfig):
    """Parameters of the fixed-assignment TDMA baseline."""


@register_mac("tdma", config_cls=TdmaConfig, description="fixed-assignment TDMA")
class Tdma(SlottedMac):
    """Transmit only in the node's own slot of every TDMA frame."""

    name = "tdma"

    def __init__(
        self,
        sim: "Simulator",
        radio: "Radio",
        config: Optional[TdmaConfig] = None,
        gate: Optional[ActivityGate] = None,
    ) -> None:
        super().__init__(sim, radio, config if config is not None else TdmaConfig(), gate)
        self.own_slot = self.node_id % self.config.slots_per_frame

    def _first_action(self, k: int) -> int:
        return k + (self.own_slot - k) % self.config.slots_per_frame

    def _transmit_head(self) -> None:
        if not self.radio.transmitting:
            super()._transmit_head()
