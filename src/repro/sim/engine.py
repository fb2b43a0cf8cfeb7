"""The discrete-event simulation engine.

The engine is intentionally small: a binary heap of :class:`Event` objects,
a simulation clock and a handful of run-control methods.  Determinism is a
hard requirement for reproducing the paper's figures, therefore

* events scheduled for the same time are executed in scheduling order
  (a monotonically increasing sequence number breaks ties), and
* all randomness is drawn from named streams managed by
  :class:`repro.sim.rng.RngRegistry`, seeded from a single master seed.

The heap stores ``(time, seq, event)`` tuples rather than bare
:class:`Event` objects: tuple comparison runs entirely in C, so the heap
never calls ``Event.__lt__`` on the hot path (the method is kept for
explicit comparisons).  The ordering is identical — ``(time, seq)`` is
exactly what ``Event.__lt__`` compares.

Allocation-lean fast path
-------------------------
:meth:`Simulator.schedule` is general (arbitrary ``*args``/``**kwargs``,
returns a cancellable :class:`Event`), which costs an argument tuple, a
keyword dictionary and a fresh :class:`Event` per call.  The MAC/PHY inner
loops (subslot ticks, CCA-to-transmit delays, ACK transmissions, channel
end-of-transmission) never cancel their events and pass at most one
positional argument, so they use :meth:`Simulator.schedule_fast` /
:meth:`Simulator.schedule_at_fast` instead: no tuple, no dict, no handle —
and the fired :class:`Event` shells are recycled through a freelist
instead of becoming garbage.  Ordering is shared with the general path
(one sequence counter), so mixing both paths keeps the deterministic
``(time, seq)`` execution order.

Lazily-cancelled events (ACK timeouts resolved by an ACK, stopped tick
clocks) stay on the heap until popped; the engine counts them and compacts
the heap in place once they outnumber half of the queue, so long runs with
many cancels do not drag a tail of dead entries through every sift.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


#: Shared empty kwargs for events scheduled without keyword arguments —
#: the dictionary is only ever ``**``-unpacked, never handed out or
#: mutated, so one instance serves every event.
_NO_KWARGS: dict = {}

#: Upper bound on recycled event shells kept in the freelist.  The live
#: fast-event population of a simulation is bounded by its concurrency
#: (at most a handful per node), so this is generous.
_FREELIST_MAX = 4096


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at` and can be cancelled as long as they have
    not fired yet.  Cancellation is lazy: the event stays on the heap but is
    skipped when popped (the simulator counts such entries and periodically
    compacts the heap).

    Fast-path events (``kwargs is None``) are internal: they carry at most
    one positional argument in ``args``, are never handed to callers and
    are recycled after firing.
    """

    __slots__ = ("time", "seq", "callback", "args", "kwargs", "cancelled", "fired", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Any,
        kwargs: Optional[dict],
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.fired = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling a fired event is a no-op."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._note_cancel()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and neither fired nor cancelled."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.6f}, seq={self.seq}, {name}, {state})"


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all random streams obtained through :attr:`rng`.
    trace:
        When True, a :class:`TraceRecorder` collects trace records emitted by
        components via :meth:`record`.
    trace_limit:
        Optional bound on the number of retained trace records; once hit,
        further records are counted in ``tracer.dropped`` instead of stored
        (campaign sweeps pass a default bound so long runs cannot exhaust
        memory silently).  None keeps the recorder unbounded.
    """

    #: Compaction kicks in only beyond this many lazily-cancelled entries
    #: (small queues never pay for a rebuild).
    COMPACT_MIN_CANCELLED = 64

    def __init__(
        self, seed: int = 0, trace: bool = False, trace_limit: Optional[int] = None
    ) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self._live = 0  # scheduled and neither fired nor cancelled
        self._lazy_cancelled = 0  # cancelled entries still on the heap
        self._free: List[Event] = []  # recycled fast-path event shells
        self.rng = RngRegistry(seed)
        self.tracer: Optional[TraceRecorder] = (
            TraceRecorder(max_records=trace_limit) if trace else None
        )
        self._trace_hooks: List[Callable[[float, str, dict], None]] = []
        self.events_executed = 0
        #: Per-simulation objects that components share, keyed by their
        #: owners (e.g. the slot clock of the slotted MACs); they live and
        #: die with the simulator.
        self.shared: Dict[Any, Any] = {}

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``callback(*args, **kwargs)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, **kwargs)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        if math.isnan(time) or math.isinf(time):
            raise SimulationError(f"invalid event time: {time}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        event = Event(time, next(self._seq), callback, args, kwargs or _NO_KWARGS, self)
        self._live += 1
        heapq.heappush(self._queue, (time, event.seq, event))
        return event

    def schedule_fast(self, delay: float, callback: Callable[..., Any], arg: Any = None) -> None:
        """Allocation-lean fire-and-forget scheduling (hot-path variant).

        Calls ``callback()`` (or ``callback(arg)`` when ``arg`` is not None)
        ``delay`` seconds from now.  Unlike :meth:`schedule` no handle is
        returned, so the event cannot be cancelled — use it only for events
        that always run to completion (the callback itself may no-op).
        Fired events are recycled through a freelist.  ``arg`` must not
        rely on ``None`` as a payload; use :meth:`schedule` for that.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.seq = seq = next(self._seq)
            event.callback = callback
            event.args = arg
        else:
            event = Event(time, next(self._seq), callback, arg, None, self)
            seq = event.seq
        self._live += 1
        heapq.heappush(self._queue, (time, seq, event))

    def schedule_at_fast(self, time: float, callback: Callable[..., Any], arg: Any = None) -> None:
        """Absolute-time variant of :meth:`schedule_fast`."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.seq = seq = next(self._seq)
            event.callback = callback
            event.args = arg
        else:
            event = Event(time, next(self._seq), callback, arg, None, self)
            seq = event.seq
        self._live += 1
        heapq.heappush(self._queue, (time, seq, event))

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        event.cancel()

    # ----------------------------------------------------------- maintenance
    def _note_cancel(self) -> None:
        """Book-keeping for a lazy cancel; compacts the heap when dead
        entries outnumber half of it.

        Compaction mutates the queue *in place* (slice assignment), so the
        local bindings held by an active :meth:`run_until` drain loop stay
        valid.
        """
        self._live -= 1
        self._lazy_cancelled += 1
        queue = self._queue
        if (
            self._lazy_cancelled > self.COMPACT_MIN_CANCELLED
            and self._lazy_cancelled * 2 > len(queue)
        ):
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapq.heapify(queue)
            self._lazy_cancelled = 0

    def _recycle(self, event: Event) -> None:
        """Return a fired fast-path event shell to the freelist.

        The shell keeps its last callback/argument references until reuse
        (clearing them would cost two stores per event on the hot path);
        the freelist is bounded and dies with the simulator, so nothing
        outlives the run because of it.
        """
        free = self._free
        if len(free) < _FREELIST_MAX:
            free.append(event)

    # ------------------------------------------------------------------- run
    def step(self) -> bool:
        """Execute the next pending event.

        Returns True if an event was executed, False if the queue is empty.
        """
        while self._queue:
            time, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                self._lazy_cancelled -= 1
                continue
            self._now = time
            self._live -= 1
            self.events_executed += 1
            if event.kwargs is None:
                callback, arg = event.callback, event.args
                self._recycle(event)
                if arg is None:
                    callback()
                else:
                    callback(arg)
            else:
                event.fired = True
                event.callback(*event.args, **event.kwargs)
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run events until the clock reaches ``end_time``.

        The clock is advanced to exactly ``end_time`` when the run finishes,
        even if the last event fired earlier.
        """
        if end_time < self._now:
            raise SimulationError(
                f"end_time {end_time} lies in the past (now={self._now})"
            )
        self._running = True
        self._stopped = False
        # Inlined drain loop: local bindings and the tuple-based heap keep
        # the per-event overhead minimal (this is the simulation hot path).
        queue = self._queue
        heappop = heapq.heappop
        free = self._free
        free_append = free.append
        executed = 0
        try:
            while queue and not self._stopped:
                time, _, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    self._lazy_cancelled -= 1
                    continue
                if time > end_time:
                    break
                heappop(queue)
                self._now = time
                self._live -= 1
                executed += 1
                if event.kwargs is None:
                    callback, arg = event.callback, event.args
                    if len(free) < _FREELIST_MAX:
                        free_append(event)
                    if arg is None:
                        callback()
                    else:
                        callback(arg)
                else:
                    event.fired = True
                    event.callback(*event.args, **event.kwargs)
        finally:
            self._running = False
            self.events_executed += executed
        if not self._stopped:
            self._now = max(self._now, end_time)

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue is exhausted (or ``max_events`` fired)."""
        self._running = True
        self._stopped = False
        executed = 0
        try:
            while not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                if not self.step():
                    break
                executed += 1
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop the current :meth:`run` / :meth:`run_until` after the current event."""
        self._stopped = True

    # ----------------------------------------------------------------- trace
    @property
    def tracing(self) -> bool:
        """True when trace records are observed (recorder or hooks attached).

        Components emitting hot-path traces guard on this so that building
        the record's field dictionary costs nothing when nobody listens.
        """
        return self.tracer is not None or bool(self._trace_hooks)

    def add_trace_hook(self, hook: Callable[[float, str, dict], None]) -> None:
        """Subscribe a typed hook called as ``hook(time, category, fields)``
        for every trace record emitted via :meth:`record`.

        Hooks fire regardless of whether a :class:`TraceRecorder` is
        attached, so metric collectors can observe trace events without the
        memory cost of retaining them.
        """
        self._trace_hooks.append(hook)

    def record(self, category: str, **fields: Any) -> None:
        """Emit a trace record if tracing is enabled; notify trace hooks."""
        if self.tracer is not None:
            self.tracer.record(self._now, category, fields)
        if self._trace_hooks:
            for hook in self._trace_hooks:
                hook(self._now, category, fields)

    # ----------------------------------------------------------------- misc
    def pending_events(self) -> int:
        """Number of events still scheduled (excluding lazily cancelled ones).

        O(1): the simulator keeps a live-event counter, incremented on
        scheduling and decremented when an event fires or is cancelled.
        """
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Simulator(now={self._now:.6f}, pending={self.pending_events()})"
