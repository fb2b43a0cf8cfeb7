"""The shared slot clock and the common base of the slotted baselines.

Slotted ALOHA, ALOHA-Q and TDMA divide time into frames of
``slots_per_frame`` slots and act only on slot boundaries.  Rather than
every node ticking through every slot, the nodes of one simulator that
started together on the same slot duration share one :class:`SlotClock`,
and a node asks it for a wake-up only at a boundary where it can act.  The
clock keeps a single simulator event, for the earliest boundary some node
is due at, so an idle network schedules nothing at all.

The clock reproduces a per-node ``now + slot_duration`` tick exactly:

* boundary ``k`` lies at the float sum ``t_k = t_{k-1} + slot_duration``
  from the start time, and
* the nodes due at one boundary run in the order they started.

A node asks for the first boundary at which it may act counted from
:meth:`SlotClock.next_boundary`: the first boundary at or after the
current time that the clock has not fired yet.  During a run that is the
first boundary strictly after an enqueue or the end of a transaction, as
long as no other event executes at a boundary time.  That holds for the
default 5 ms slot, which the PHY timings never add up to, and
``tests/mac/test_slotted_digest.py`` checks it; a slot such as 1 ms or
4 ms does produce such ties, and the clock resolves them by that rule,
where the per-node tick's order depended on when each node had last
rescheduled itself.
"""

from __future__ import annotations

import heapq
from abc import abstractmethod
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.mac.base import MacProtocol, TransactionResult
from repro.mac.gate import ActivityGate
from repro.phy.frames import Frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.radio import Radio
    from repro.sim.engine import Event, Simulator


@dataclass(frozen=True)
class SlottedConfig:
    """Frame/slot grid and queueing parameters shared by the slotted MACs."""

    slots_per_frame: int = 10
    slot_duration: float = 5e-3
    queue_capacity: int = 8
    max_frame_retries: int = 3

    def __post_init__(self) -> None:
        if self.slots_per_frame <= 0:
            raise ValueError("slots_per_frame must be positive")
        if self.slot_duration <= 0:
            raise ValueError("slot_duration must be positive")
        if self.max_frame_retries < 0:
            raise ValueError("max_frame_retries must be non-negative")


class SlotClock:
    """The slot boundaries of one grid, shared by the MACs running on it.

    Use :meth:`shared` to obtain the clock of a simulator's grid.  Boundary
    times are cached from the oldest boundary still needed onwards, so the
    cache stays about one frame long however long the run is.
    """

    def __init__(self, sim: "Simulator", start: float, slot_duration: float) -> None:
        self.sim = sim
        self.start = start
        self.slot_duration = slot_duration
        self._base = 0  # boundary index of _times[0]
        self._times: List[float] = [start]
        self._fired = -1  # last boundary index the clock has fired
        self._due: Dict[int, List["SlottedMac"]] = {}
        self._pending: List[int] = []  # heap of the boundary indices in _due
        self._event: Optional["Event"] = None
        self._event_k = -1  # boundary index _event fires at
        self._firing = False
        self._registered = 0

    @classmethod
    def shared(cls, sim: "Simulator", slot_duration: float) -> "SlotClock":
        """The clock of the grid starting now with ``slot_duration`` slots."""
        key = ("slot-clock", sim.now, slot_duration)
        clock = sim.shared.get(key)
        if clock is None:
            clock = sim.shared[key] = cls(sim, sim.now, slot_duration)
        return clock

    def register(self) -> int:
        """A new MAC joins the grid; returns its rank among those due at one boundary."""
        rank = self._registered
        self._registered += 1
        return rank

    # ------------------------------------------------------------ boundaries
    def time_of(self, k: int) -> float:
        """Time of boundary ``k`` (no earlier than the oldest one still needed)."""
        times = self._times
        i = k - self._base
        while len(times) <= i:
            times.append(times[-1] + self.slot_duration)
        return times[i]

    def next_boundary(self) -> int:
        """Index of the first boundary at or after now that has not fired yet."""
        times = self._times
        now = self.sim.now
        i = bisect_left(times, now)
        if i == len(times):
            # Walk the float sum over boundaries nobody was due at.
            k, t = self._base + i - 1, times[-1]
            while t < now:
                t += self.slot_duration
                k += 1
            self._base, self._times = k, [t]
            i = 0
        k = max(self._base + i, self._fired + 1)
        self._drop_before(k)
        return k

    def _drop_before(self, k: int) -> None:
        times = self._times
        n = min(k - self._base, len(times) - 1)
        if n > 0:
            del times[:n]
            self._base += n

    # --------------------------------------------------------------- wake-ups
    def wake(self, mac: "SlottedMac", k: int) -> None:
        """Call ``mac._on_boundary(k)`` at boundary ``k`` (one wake per MAC)."""
        mac._wake = k
        due = self._due.get(k)
        if due is not None:
            due.append(mac)
            return
        self._due[k] = [mac]
        heapq.heappush(self._pending, k)
        if not self._firing:
            self._arm()

    def release(self, mac: "SlottedMac") -> None:
        """Forget ``mac``'s pending wake-up, if any."""
        k = mac._wake
        if k is None:
            return
        mac._wake = None
        due = self._due[k]
        due.remove(mac)
        if not due:
            del self._due[k]
            self._pending.remove(k)
            heapq.heapify(self._pending)
            if not self._firing:
                self._arm()

    def _arm(self) -> None:
        """Keep the one simulator event on the earliest pending boundary."""
        pending = self._pending
        if self._event is not None:
            if pending and pending[0] == self._event_k:
                return
            self._event.cancel()
            self._event = None
        if pending:
            k = self._event_k = pending[0]
            self._event = self.sim.schedule_at(self.time_of(k), self._fire)

    def _fire(self) -> None:
        k = heapq.heappop(self._pending)
        self._event = None
        self._fired = k
        self._drop_before(k)
        macs = self._due.pop(k)
        if len(macs) > 1:
            macs.sort(key=_rank)
        self._firing = True
        for mac in macs:
            mac._wake = None
            mac._on_boundary(k)
        self._firing = False
        self._arm()


def _rank(mac: "SlottedMac") -> int:
    return mac._rank


class SlottedMac(MacProtocol):
    """A MAC that transmits its head-of-line frame only on slot boundaries.

    Subclasses say where they may act: :meth:`_first_action` maps the first
    candidate boundary to the boundary at which the node will try to
    transmit, and :meth:`_on_boundary` runs there.  The base keeps the node
    armed exactly while it has a frame queued and none in flight: a start
    or an enqueue arms an idle node, the outcome of a transmission re-arms
    it, and an empty queue leaves it unscheduled.
    """

    def __init__(
        self,
        sim: "Simulator",
        radio: "Radio",
        config: SlottedConfig,
        gate: Optional[ActivityGate] = None,
    ) -> None:
        self.config = config
        super().__init__(
            sim,
            radio,
            queue_capacity=config.queue_capacity,
            max_frame_retries=config.max_frame_retries,
            gate=gate,
        )
        self._in_flight: Optional[Frame] = None
        self._clock: Optional[SlotClock] = None
        self._wake: Optional[int] = None  # boundary the clock will wake us at
        self._rank = 0

    # ------------------------------------------------------------------ clock
    def start(self) -> None:
        super().start()
        self._clock = SlotClock.shared(self.sim, self.config.slot_duration)
        self._rank = self._clock.register()
        self._arm()

    def stop(self) -> None:
        if self._clock is not None:
            self._clock.release(self)
            self._clock = None

    def _arm(self, k: Optional[int] = None) -> None:
        """Wake at the first boundary from ``k`` (default: the next one) where
        a transmission may start, if there is anything to transmit."""
        clock = self._clock
        if clock is None or self._wake is not None or self._in_flight is not None:
            return
        if self.queue.level == 0:
            return
        if k is None:
            k = clock.next_boundary()
        clock.wake(self, self._first_action(k))

    def _notify_enqueue(self) -> None:
        self._arm()

    # -------------------------------------------------------------- behaviour
    @abstractmethod
    def _first_action(self, k: int) -> int:
        """The first boundary at or after ``k`` at which the node may transmit."""

    def _on_boundary(self, k: int) -> None:
        """Boundary ``k`` (one returned by :meth:`_first_action`) has come."""
        self._transmit_head()
        self._arm(k + 1)

    def _transmit_head(self) -> None:
        if not self.gate.active(self.sim.now):
            return
        frame = self.queue.peek()
        if frame is None:
            return
        self._in_flight = frame
        self._begin_transmission(frame)

    # ------------------------------------------------------------ transaction
    def _transaction_complete(self, frame: Frame, result: TransactionResult) -> None:
        self._in_flight = None
        success = result is TransactionResult.SUCCESS
        self._learn(success)
        if success:
            self._finish_frame(frame, success=True)
        else:
            frame.retries += 1
            if frame.retries > self.config.max_frame_retries:
                self.stats.dropped_retries += 1
                self._finish_frame(frame, success=False)
        self._arm()

    def _learn(self, success: bool) -> None:
        """Hook for learning variants; called with the outcome of each transmission."""
