"""The QMA MAC protocol (Sect. 4 of the paper).

Time is discretised into ``M`` subslots.  At the start of every subslot a
node with a non-empty queue selects an action — following its learned policy
with probability ``1 - ρ`` or uniformly at random with probability ``ρ``
(parameter-based exploration) — and executes it:

* ``QBackoff`` waits for the next subslot and is rewarded when a foreign
  frame is overheard during the wait (Eq. 6);
* ``QCCA`` performs a clear channel assessment and transmits on success
  (Eq. 7);
* ``QSend`` transmits immediately (Eq. 8).

A transmission can span several subslots (frame air time plus ACK wait);
during this time the node selects no further actions.  When the outcome of
the action is known, the Q-table is updated with Eq. 5 and the policy with
Eq. 3 (see :class:`repro.core.qtable.QTable`).

The MAC also implements the cautious-startup phase (Sect. 4.3).  On request
(``track_history``, which the ``convergence`` collector switches on) it
records the per-frame cumulative Q-value and the exploration probability
over time, which the evaluation figures 10-12 are built from.

The subslot tick runs once per agent and subslot and is the simulator's
hot path, so inside the agent actions are their ``QAction.value`` codes
and the pending action is a handful of int-coded attributes (its kind
fixes the action); :class:`QAction` appears only at the API edge
(``policy_snapshot``, ``QmaActionStats.selected``, the Q-table's public
methods).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.actions import ALL_ACTIONS, QAction
from repro.core.config import QmaConfig
from repro.core.exploration import ExplorationStrategy, ParameterBasedExploration
from repro.core.neighbours import NeighbourQueueTracker
from repro.core.qtable import QTable
from repro.core.rewards import DEFAULT_REWARDS, RewardFunction
from repro.core.startup import CautiousStartup
from repro.mac.base import MacProtocol, TransactionResult
from repro.mac.gate import ActivityGate
from repro.mac.registry import register_mac
from repro.phy.frames import Frame, FrameKind
from repro.phy.radio import RadioState

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.radio import Radio
    from repro.sim.engine import Simulator


#: Action codes (``QAction.value``) used inside the agent.
_QB = QAction.QBACKOFF.value
_QC = QAction.QCCA.value
_QS = QAction.QSEND.value
_ACTION_CODES = tuple(action.value for action in ALL_ACTIONS)
_TRANSMITTING = RadioState.TRANSMITTING

#: Pending kinds: what the agent is currently waiting for.  The kind also
#: fixes the pending action, so no separate action field is kept.
_IDLE = 0         # nothing pending
_BACKOFF = 1      # QBackoff: evaluated at the next subslot boundary
_CCA_FAILED = 2   # QCCA with busy channel: backoff, evaluated next boundary
_STARTUP = 3      # cautious-startup observation of one subslot
_TX_CCA = 4       # QCCA with idle channel: evaluated when the outcome is known
_TX_SEND = 5      # QSend: evaluated when the outcome is known


class QmaActionStats:
    """How often each action was selected (and how often at random)."""

    __slots__ = ("counts", "random_selections", "greedy_selections")

    def __init__(self) -> None:
        #: Selections per action code.
        self.counts: List[int] = [0] * len(ALL_ACTIONS)
        self.random_selections = 0
        self.greedy_selections = 0

    @property
    def selected(self) -> Dict[QAction, int]:
        """Selections per action."""
        return {action: self.counts[action.value] for action in ALL_ACTIONS}

    @property
    def total(self) -> int:
        return self.random_selections + self.greedy_selections


@register_mac("qma", config_cls=QmaConfig,
              description="Q-learning multiple access (the paper's protocol)")
class QmaMac(MacProtocol):
    """Q-learning-based multiple access."""

    name = "qma"

    def __init__(
        self,
        sim: "Simulator",
        radio: "Radio",
        config: Optional[QmaConfig] = None,
        exploration: Optional[ExplorationStrategy] = None,
        rewards: Optional[RewardFunction] = None,
        gate: Optional[ActivityGate] = None,
    ) -> None:
        self.config = config if config is not None else QmaConfig()
        super().__init__(
            sim,
            radio,
            queue_capacity=self.config.queue_capacity,
            max_frame_retries=self.config.max_frame_retries,
            gate=gate,
        )
        self.rewards = rewards if rewards is not None else DEFAULT_REWARDS
        self.exploration = (
            exploration
            if exploration is not None
            else ParameterBasedExploration(self.config.exploration_table)
        )
        self.qtable = QTable(
            num_states=self.config.num_subslots,
            learning_rate=self.config.learning_rate,
            discount_factor=self.config.discount_factor,
            penalty=self.config.penalty,
            q_init=self.config.q_init,
        )
        self.startup = CautiousStartup(
            self.config.cautious_startup_subslots,
            cca_punishment=self.config.startup_cca_punishment,
            send_punishment=self.config.startup_send_punishment,
        )
        self.neighbours = NeighbourQueueTracker()
        self.action_stats = QmaActionStats()
        self._rng = sim.rng.stream(f"qma-{self.node_id}")

        self._subslot = 0
        self._next_subslot = 0
        self._num_subslots = self.config.num_subslots
        self._subslot_duration = self.config.subslot_duration
        self.frames_elapsed = 0
        #: The pending action, int-coded: its kind (``_IDLE`` when nothing
        #: is pending), the subslot it was selected in, whether a foreign
        #: frame was overheard since, and for transmissions the frame and a
        #: generation that identifies the pending (``_transmit_pending``
        #: compares it to drop a transmit scheduled for an older pending).
        self._pend_kind = _IDLE
        self._pend_state = 0
        self._pend_overheard = False
        self._pend_frame: Optional[Frame] = None
        self._pend_gen = 0
        #: Tick-chain epoch: ticks carry the epoch they were scheduled in
        #: and no-op once it moves on, so stop()/start() cannot leave a
        #: stale chain running (ticks use the engine's fast path and have
        #: no cancellable handle).
        self._tick_epoch = 0

        #: Whether ``q_history`` / ``rho_history`` are recorded.  Off unless
        #: the config asks for it; a reader such as the ``convergence``
        #: collector switches it on before the first tick.
        self.track_history = self.config.track_history
        #: (time, cumulative Q-value of the policy) recorded at every frame boundary
        self.q_history: List[Tuple[float, float]] = []
        #: (time, ρ) recorded at every action selection
        self.rho_history: List[Tuple[float, float]] = []

    # --------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start the subslot clock (aligned to the activity gate)."""
        super().start()
        start_time = max(self.gate.next_active_time(self.sim.now), self.sim.now)
        self._next_subslot = 0
        self._tick_epoch += 1
        self.sim.schedule_at_fast(start_time, self._on_subslot, self._tick_epoch)

    def stop(self) -> None:
        """Stop the subslot clock (used by tests and node shutdown).

        Ticks run on the engine's fast path (no cancellable handle); the
        pending tick fires once more and no-ops on the stale epoch.
        """
        self._tick_epoch += 1

    def _notify_enqueue(self) -> None:
        # Action selection happens only at subslot boundaries.
        pass

    # ------------------------------------------------------------ subslot clock
    @property
    def current_subslot(self) -> int:
        """Index of the subslot currently in progress."""
        return self._subslot

    def _on_subslot(self, epoch: int) -> None:
        """One subslot boundary: learn from the last action, pick the next.

        This is the agent's hot path (one call per agent and subslot), so
        it works on action codes and pending kinds, reads its state into
        locals and records histories only when ``track_history`` is set.
        """
        if epoch != self._tick_epoch:
            return
        now = self.sim._now
        subslot = self._subslot = self._next_subslot
        qtable = self.qtable
        if subslot == 0:
            self.frames_elapsed += 1
            if self.track_history:
                self.q_history.append((now, qtable.cumulative_policy_value()))

        # 1. Evaluate actions whose outcome becomes known at a subslot boundary.
        kind = self._pend_kind
        if kind == _BACKOFF:
            reward = self.rewards.backoff(self._pend_overheard)
            qtable._update(self._pend_state, _QB, reward, subslot)
            kind = self._pend_kind = _IDLE
        elif kind == _CCA_FAILED:
            reward = self.rewards.cca(cca_success=False)
            qtable._update(self._pend_state, _QC, reward, subslot)
            kind = self._pend_kind = _IDLE
        elif kind == _STARTUP:
            state = self._pend_state
            overheard = self._pend_overheard
            qtable._update(state, _QB, self.rewards.backoff(overheard), subslot)
            if overheard:
                # Bias the table against subslots already used by other nodes.
                startup = self.startup
                qtable._update(state, _QC, startup.cca_punishment, subslot)
                qtable._update(state, _QS, startup.send_punishment, subslot)
            kind = self._pend_kind = _IDLE

        # 2. Select the next action (or observe, during cautious startup).
        # No action is selected while the radio is busy (e.g. transmitting an
        # ACK for a frame received just before the subslot boundary).
        if kind == _IDLE and self.radio.state is not _TRANSMITTING:
            if self.startup.active:
                self._pend_kind = _STARTUP
                self._pend_state = subslot
                self._pend_overheard = False
                self.startup.tick()
            else:
                level = self.queue.level
                if level:
                    self._select_and_execute(now, subslot, level)

        # 3. Schedule the next subslot boundary.
        self._schedule_next_tick()

    def _schedule_next_tick(self) -> None:
        next_time = self.sim._now + self._subslot_duration
        next_index = self._subslot + 1
        if next_index == self._num_subslots:
            next_index = 0
        if not self.gate.active(next_time):
            next_time = self.gate.next_active_time(next_time)
            next_index = 0
        self._next_subslot = next_index
        self.sim.schedule_at_fast(next_time, self._on_subslot, self._tick_epoch)

    # ------------------------------------------------------------ action choice
    def _select_and_execute(self, now: float, state: int, queue_level: int) -> None:
        exploration = self.exploration
        rho = exploration.probability(
            queue_level, self.neighbours.average_level(now), now
        )
        exploration.notify_action(now)
        if self.track_history:
            self.rho_history.append((now, rho))
        stats = self.action_stats
        rng = self._rng
        if rng.random() < rho:
            code = rng.choice(_ACTION_CODES)
            stats.random_selections += 1
        else:
            code = self.qtable._policy[state]
            stats.greedy_selections += 1
        stats.counts[code] += 1
        if code == _QB:
            # The common case resolves here, without touching the queue.
            self._pend_kind = _BACKOFF
            self._pend_state = state
            self._pend_overheard = False
        else:
            self._execute(code, state)

    def _execute(self, code: int, state: int) -> None:
        """Execute action ``code`` selected in subslot ``state``."""
        self._pend_state = state
        self._pend_overheard = False
        frame = self.queue.peek()
        if code == _QB or frame is None:
            # QBackoff (or, defensively, a queue drained between check and
            # execution): evaluated at the next boundary.
            self._pend_kind = _BACKOFF
        elif code == _QC:
            if self._cca():
                self._pend_kind = _TX_CCA
                self._pend_frame = frame
                self._pend_gen += 1
                delay = self.phy.cca_duration + self.phy.turnaround_time
                self.sim.schedule_fast(delay, self._transmit_pending, self._pend_gen)
            else:
                self._pend_kind = _CCA_FAILED
        elif self.radio.transmitting:
            # QSend with the radio busy (e.g. finishing an ACK): defer to
            # the next subslot.
            self._pend_kind = _BACKOFF
        else:
            # QSend: transmit immediately, without assessing the channel.
            self._pend_kind = _TX_SEND
            self._pend_frame = frame
            self._begin_transmission(frame)

    def _transmit_pending(self, generation: int) -> None:
        # Stale guard: the pending this transmit was scheduled for is gone.
        if self._pend_kind != _TX_CCA or self._pend_gen != generation:
            return
        if self.radio.transmitting:
            return
        self._begin_transmission(self._pend_frame)

    # ------------------------------------------------------------- evaluation
    def _transaction_complete(self, frame: Frame, result: TransactionResult) -> None:
        kind = self._pend_kind
        if kind != _TX_CCA and kind != _TX_SEND:
            # A transaction that QMA is not aware of (should not happen); ignore.
            return
        success = result is TransactionResult.SUCCESS
        if kind == _TX_SEND:
            code, reward = _QS, self.rewards.send(success)
        else:
            code, reward = _QC, self.rewards.cca(cca_success=True, tx_success=success)
        self.qtable._update(self._pend_state, code, reward, self._subslot)
        self._pend_kind = _IDLE
        self._pend_frame = None

        if success:
            self._finish_frame(frame, success=True)
            return
        frame.retries += 1
        if frame.retries > self.config.max_frame_retries:
            self.stats.dropped_retries += 1
            self._finish_frame(frame, success=False)
        # Otherwise the frame stays at the head of the queue and will be
        # retransmitted in a (learned) later subslot — QMA never drops a
        # packet because of backoffs, only after max_frame_retries failures.

    # -------------------------------------------------------------- overhearing
    def _register_channel_activity(self, frame: Frame) -> None:
        kind = self._pend_kind
        if kind == _BACKOFF or kind == _STARTUP:
            self._pend_overheard = True
        if frame.kind is not FrameKind.ACK:
            self.neighbours.observe(frame.src, frame.queue_level, self.sim.now)

    def _on_overheard(self, frame: Frame) -> None:
        self._register_channel_activity(frame)

    def _on_frame_for_us(self, frame: Frame) -> None:
        self._register_channel_activity(frame)

    # -------------------------------------------------------------- inspection
    def policy_snapshot(self) -> List[QAction]:
        """Copy of the current policy (one action per subslot)."""
        return self.qtable.policy_snapshot()

    def transmission_subslots(self) -> List[int]:
        """Subslots in which the current policy transmits (QCCA or QSend)."""
        return self.qtable.transmission_subslots()

    def cumulative_q_value(self) -> float:
        """Current value of the Fig. 10 convergence metric."""
        return self.qtable.cumulative_policy_value()
