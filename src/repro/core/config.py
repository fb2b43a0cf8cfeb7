"""Configuration of the QMA MAC.

Default values follow the paper: α = 0.5, γ = 0.9 (Sect. 6), penalty ξ = 2
(Sect. 5), Q-values initialised to -10 (Sect. 4.1), 54 subslots per CAP
(Sect. 4), a queue of 8 packets and at most 3 retransmissions as in
IEEE 802.15.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


#: Exploration probabilities of Fig. 4, indexed by
#: ``local queue level - neighbours' average queue level`` (clamped to [0, 8]).
DEFAULT_EXPLORATION_TABLE = (0.0, 0.0001, 0.001, 0.008, 0.02, 0.05, 0.1, 0.18, 0.3)


@dataclass(frozen=True)
class QmaConfig:
    """All tunable parameters of a QMA agent."""

    # --- learning (Sect. 3 / 6) -------------------------------------------
    learning_rate: float = 0.5
    discount_factor: float = 0.9
    penalty: float = 2.0
    q_init: float = -10.0

    # --- time discretisation (Sect. 4) -------------------------------------
    num_subslots: int = 54
    subslot_duration: float = 61.44e-3 / 54  # 8 CAP slots of a SO=3 superframe

    # --- queue / retransmissions -------------------------------------------
    queue_capacity: int = 8
    max_frame_retries: int = 3

    # --- exploration (Sect. 4.2) -------------------------------------------
    exploration_table: Sequence[float] = field(default=DEFAULT_EXPLORATION_TABLE)

    # --- cautious startup (Sect. 4.3) ---------------------------------------
    cautious_startup_subslots: int = 108  # Δ: two full subslot iterations
    startup_cca_punishment: float = -2.0
    startup_send_punishment: float = -3.0

    # --- instrumentation -----------------------------------------------------
    #: Record ``QmaMac.q_history`` / ``rho_history`` from the first tick.
    #: Off by default: the histories cost an append per selection and are
    #: read only by the ``convergence`` collector, which switches recording
    #: on for the agents it observes.  ``True`` records regardless.
    track_history: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if not 0.0 <= self.discount_factor <= 1.0:
            raise ValueError("discount_factor must lie in [0, 1]")
        if self.penalty < 0.0:
            raise ValueError("penalty must be non-negative")
        if self.num_subslots <= 0:
            raise ValueError("num_subslots must be positive")
        if self.subslot_duration <= 0.0:
            raise ValueError("subslot_duration must be positive")
        if self.queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        if self.max_frame_retries < 0:
            raise ValueError("max_frame_retries must be non-negative")
        if self.cautious_startup_subslots < 0:
            raise ValueError("cautious_startup_subslots must be non-negative")
        if not self.exploration_table:
            raise ValueError("exploration_table must not be empty")
        if any(not 0.0 <= rho <= 1.0 for rho in self.exploration_table):
            raise ValueError("exploration probabilities must lie in [0, 1]")

    @property
    def frame_duration(self) -> float:
        """Duration of one full subslot iteration (one 'frame') in seconds."""
        return self.num_subslots * self.subslot_duration
