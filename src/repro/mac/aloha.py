"""Slotted ALOHA and ALOHA-Q baselines.

ALOHA-Q (Chu et al.) is the frame/slot Q-learning family of MAC protocols
that the paper's related-work section compares QMA against: time is divided
into frames of ``slots_per_frame`` slots, every node learns a single Q-value
per slot using stateless Q-learning, transmits in the best slot of every
frame and updates the slot's Q-value with +1 on success and -1 on failure.

These baselines are used by the related-work example and by the ablation
benchmarks; they also demonstrate the limitation the paper points out:
a node can use at most one slot per frame, so asymmetric traffic rates and
hidden traffic patterns cannot be learned.

Wake and suspend rules
----------------------
A node draws its slot for every frame from its own ``aloha-<id>`` stream,
but it is woken by the shared :class:`~repro.mac.slotted.SlotClock` only at
the chosen slot of a frame in which it will try to transmit.  A node with
an empty queue or a frame in flight schedules nothing.  The draws it skips
meanwhile are made up, in frame order, when it next needs a slot: when a
frame is enqueued, and when a transaction ends (before the outcome is
learned, so that frames that started during the transaction see the
Q-values they started with).  The Q-values change only with the outcome
of a transaction, so every draw comes out as if it had been made at its
frame start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

from repro.mac.base import TransactionResult
from repro.mac.gate import ActivityGate
from repro.mac.registry import register_mac
from repro.mac.slotted import SlottedConfig, SlottedMac
from repro.phy.frames import Frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.radio import Radio
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class AlohaConfig(SlottedConfig):
    """Parameters of the slotted ALOHA / ALOHA-Q baselines."""

    # ALOHA-Q learning parameters
    learning_rate: float = 0.1
    exploration_rate: float = 0.01

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if not 0.0 <= self.exploration_rate <= 1.0:
            raise ValueError("exploration_rate must lie in [0, 1]")


@register_mac("slotted-aloha", config_cls=AlohaConfig,
              description="slotted ALOHA (one random slot per frame)")
class SlottedAloha(SlottedMac):
    """Slotted ALOHA: transmit the head-of-line frame in one random slot per frame."""

    name = "slotted-aloha"

    def __init__(
        self,
        sim: "Simulator",
        radio: "Radio",
        config: Optional[AlohaConfig] = None,
        gate: Optional[ActivityGate] = None,
    ) -> None:
        super().__init__(sim, radio, config if config is not None else AlohaConfig(), gate)
        self._rng = sim.rng.stream(f"aloha-{self.node_id}")
        self._frame = -1  # last frame whose slot has been drawn
        self._chosen_slot = 0

    # -------------------------------------------------------------- behaviour
    def _select_slot(self) -> int:
        """Pick the transmission slot for the upcoming frame period."""
        return self._rng.randrange(self.config.slots_per_frame)

    def _draw_until(self, frame: int) -> None:
        """Draw the slots of every frame up to and including ``frame``."""
        while self._frame < frame:
            self._frame += 1
            self._chosen_slot = self._select_slot()

    def _first_action(self, k: int) -> int:
        slots = self.config.slots_per_frame
        frame, slot = divmod(k, slots)
        self._draw_until(frame)
        # Drawing the next frame's slot before that frame starts is safe: the
        # node is not in flight, so the Q-values cannot change before it
        # transmits at the boundary returned here.
        if self._chosen_slot < slot:
            frame += 1
            self._draw_until(frame)
        return frame * slots + self._chosen_slot

    # ------------------------------------------------------------ transaction
    def _transaction_complete(self, frame: Frame, result: TransactionResult) -> None:
        if self._clock is not None:
            self._draw_until((self._clock.next_boundary() - 1) // self.config.slots_per_frame)
        super()._transaction_complete(frame, result)


@register_mac("aloha-q", config_cls=AlohaConfig,
              description="ALOHA-Q (stateless Q-learning over frame slots)")
class AlohaQ(SlottedAloha):
    """ALOHA-Q: stateless Q-learning over the slots of a frame."""

    name = "aloha-q"

    def __init__(
        self,
        sim: "Simulator",
        radio: "Radio",
        config: Optional[AlohaConfig] = None,
        gate: Optional[ActivityGate] = None,
    ) -> None:
        super().__init__(sim, radio, config=config, gate=gate)
        self.q_values: List[float] = [0.0] * self.config.slots_per_frame
        self._tx_slot = 0  # slot of the transmission in flight

    def _select_slot(self) -> int:
        if self._rng.random() < self.config.exploration_rate:
            return self._rng.randrange(self.config.slots_per_frame)
        best = max(self.q_values)
        candidates = [i for i, q in enumerate(self.q_values) if q == best]
        return self._rng.choice(candidates)

    def _begin_transmission(self, frame: Frame) -> float:
        self._tx_slot = self._chosen_slot
        return super()._begin_transmission(frame)

    def _learn(self, success: bool) -> None:
        # Credit the slot the frame went out in: a transaction that outlives
        # its frame ends after the next frame's slot has been drawn.
        slot = self._tx_slot
        reward = 1.0 if success else -1.0
        alpha = self.config.learning_rate
        self.q_values[slot] += alpha * (reward - self.q_values[slot])

    def converged(self, threshold: float = 0.8) -> bool:
        """True once one slot's Q-value clearly dominates (heuristic used in tests)."""
        return max(self.q_values) >= threshold
