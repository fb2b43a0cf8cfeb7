"""The shared wireless channel and its interference models.

The channel keeps track of every transmission that is currently on the air.
Two interference models are available:

**Collision model** (``interference="collision"``, the default — the
paper's evaluation world).  A frame is delivered to a receiver if and only
if

* the receiver is within range of the sender,
* no other transmission from a node within range of *that receiver*
  overlaps the frame in time (no capture effect),
* the receiver is not itself transmitting during the frame, and
* the per-link error process (if configured) does not drop the frame.

**SINR model** (``interference="sinr"``).  Every directed link carries a
received power (:meth:`WirelessChannel.set_link_power`, fed from the
propagation model's ``received_power_dbm``).  A frame is decodable at a
receiver while its signal power divided by (noise floor + the sum of every
other concurrently arriving or sensed transmission's power at that
receiver) stays at or above the capture threshold
(``sinr_threshold_db``).  The strongest overlapping frame therefore
*survives* overlap — the capture effect — while the collision model would
destroy both.  Corruption is monotone: interference at a receiver only
grows when a new transmitter starts, so frames are re-evaluated exactly at
each transmission start; a transmitter stopping only lowers interference
and can never corrupt, which makes the sticky per-receiver corruption flag
equivalent to continuous re-evaluation.  Carrier sensing is decoupled from
decoding: :meth:`connect_sensed` links (inside carrier-sense range, beyond
communication range) contribute interference and drive CCA busy but are
never synchronised on, so they produce neither deliveries nor
``notify_corrupted_frame`` events.

Because interference is evaluated per receiver, hidden terminals behave as
in the paper: two senders that cannot hear each other will individually pass
their CCA and still collide at their common receiver.

Frames are delivered to every in-range radio, not only the addressed one;
the MAC layer decides what to do with overheard frames.  QMA relies on this
to reward ``QBackoff`` when a foreign DATA or ACK frame is overheard.

Link table
----------
Deliveries run over a precomputed *link table* — per sender, an ordered
row of ``(receiver_id, radio, arriving_list, packet_error_rate,
signal_mw)`` tuples — built lazily from the channel's own wiring on the
first transmission, so the per-delivery path is a flat iteration over
prebuilt rows instead of set/dict lookups per receiver.  Row order is the
neighbour-set iteration order, which fixes the order in which per-link
error draws consume the channel RNG.  Under the SINR model a parallel
*sense table* maps senders onto the sensing lists of their
carrier-sense-only receivers.

Any mutation (``register`` / ``connect`` / ``disconnect`` /
``connect_sensed`` / ``disconnect_sensed`` / ``set_link_error_rate`` /
``set_link_power``) drops the table and the next transmission rebuilds it
in full.  A frame already on the air keeps the rows it started with: a
receiver linked mid-flight does not get it, and a receiver whose link was
removed mid-flight gets neither the frame nor a corruption notice (the
disconnect purged the frame from its arriving list).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.phy.frames import Frame
from repro.phy.params import PhyParameters
from repro.phy.propagation import PropagationModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking
    from repro.phy.radio import Radio
    from repro.sim.engine import Simulator

#: One precomputed delivery target:
#: (receiver_id, radio, arriving, per, signal_mw).  ``signal_mw`` is the
#: linear received power of the directed link, 0.0 under the collision
#: model (which never reads it).
_LinkRow = Tuple[int, "Radio", List["ActiveTransmission"], float, float]

#: One precomputed carrier-sense-only target: (receiver_id, sensing list).
_SenseRow = Tuple[int, List["ActiveTransmission"]]

#: Interference models accepted by :class:`WirelessChannel`.
INTERFERENCE_MODELS = ("collision", "sinr")

#: Default capture threshold of the SINR model, in dB.  A frame survives
#: while its signal exceeds noise + interference by at least this margin —
#: the usual O-QPSK co-channel rejection ballpark.
DEFAULT_SINR_THRESHOLD_DB = 10.0


@dataclass
class ActiveTransmission:
    """Book-keeping for a frame that is currently on the air."""

    sender_id: int
    frame: Frame
    start: float
    end: float
    corrupted_for: Set[int] = field(default_factory=set)
    #: Link-table rows snapshotted at transmission start.
    rows: Sequence[_LinkRow] = ()
    #: Sense-table rows snapshotted at transmission start (SINR model only).
    sense_rows: Sequence[_SenseRow] = ()


class WirelessChannel:
    """A broadcast medium with per-receiver interference.

    Parameters
    ----------
    sim:
        The simulation engine.
    phy:
        PHY timing parameters (shared by all radios on the channel).
    interference:
        ``"collision"`` (default) — the paper's binary overlap model;
        ``"sinr"`` — signal-power interference with capture (see the
        module docstring).  SINR channels need per-link received powers
        (:meth:`set_link_power`); :class:`~repro.net.network.Network`
        wires them from the propagation model or the cached skeleton.
    sinr_threshold_db:
        Capture threshold of the SINR model (ignored by the collision
        model).
    """

    def __init__(
        self,
        sim: "Simulator",
        phy: Optional[PhyParameters] = None,
        interference: str = "collision",
        sinr_threshold_db: float = DEFAULT_SINR_THRESHOLD_DB,
    ) -> None:
        if interference not in INTERFERENCE_MODELS:
            raise ValueError(
                f"unknown interference model {interference!r}; "
                f"expected one of {INTERFERENCE_MODELS}"
            )
        self.sim = sim
        self.phy = phy if phy is not None else PhyParameters()
        self.interference = interference
        self.sinr_threshold_db = sinr_threshold_db
        self._sinr = interference == "sinr"
        self._radios: Dict[int, "Radio"] = {}
        self._neighbours: Dict[int, Set[int]] = {}
        #: carrier-sense-only neighbours: sensed (energy, CCA) but not
        #: decodable.  Disjoint from ``_neighbours`` by construction.
        self._cs_neighbours: Dict[int, Set[int]] = {}
        self._link_error: Dict[tuple, float] = {}
        #: linear received power (mW) per directed (sender, receiver) link,
        #: covering communication and carrier-sense-only links alike.
        self._power_mw: Dict[Tuple[int, int], float] = {}
        #: transmissions currently arriving at each radio (keyed by radio id)
        self._arriving: Dict[int, List[ActiveTransmission]] = {}
        #: transmissions currently sensed-only at each radio
        self._sensing: Dict[int, List[ActiveTransmission]] = {}
        self._rng = sim.rng.stream("channel")
        self._link_table: Optional[Dict[int, Tuple[_LinkRow, ...]]] = None
        self._sense_table: Dict[int, Tuple[_SenseRow, ...]] = {}
        self._noise_mw = 10.0 ** (self.phy.noise_floor_dbm / 10.0)
        self._capture_ratio = 10.0 ** (sinr_threshold_db / 10.0)
        # statistics
        self.transmissions_started = 0
        self.frames_delivered = 0
        self.frames_corrupted = 0
        self.frames_lost_link_error = 0

    # --------------------------------------------------------------- wiring
    def register(self, radio: "Radio") -> None:
        """Attach a radio to the channel."""
        if radio.node_id in self._radios:
            raise ValueError(f"radio id {radio.node_id} already registered")
        self._radios[radio.node_id] = radio
        self._neighbours.setdefault(radio.node_id, set())
        arriving: List[ActiveTransmission] = []
        self._arriving.setdefault(radio.node_id, arriving)
        self._sensing.setdefault(radio.node_id, [])
        # The radio keeps direct references to its arriving and sensing
        # lists so CCA needs no dict lookups (see Radio.cca).
        radio._rx_arriving = self._arriving[radio.node_id]
        radio._rx_sensing = self._sensing[radio.node_id]
        self.invalidate_link_table()

    def radios(self) -> Iterable["Radio"]:
        return self._radios.values()

    def radio(self, node_id: int) -> "Radio":
        return self._radios[node_id]

    def connect(self, a: int, b: int, bidirectional: bool = True) -> None:
        """Declare that node ``b`` can hear transmissions of node ``a``."""
        if a == b:
            raise ValueError("a node cannot be its own neighbour")
        self._neighbours.setdefault(a, set()).add(b)
        if bidirectional:
            self._neighbours.setdefault(b, set()).add(a)
        self.invalidate_link_table()

    def disconnect(self, a: int, b: int, bidirectional: bool = True) -> None:
        """Remove a previously declared link.

        Frames of the removed link that are still on the air stop arriving
        at the disconnected receiver immediately — otherwise the stale
        book-keeping entry would keep the receiver's CCA busy forever — and
        the receiver gets neither the frame nor a corruption notice.
        """
        self.invalidate_link_table()
        self._neighbours.get(a, set()).discard(b)
        self._drop_in_flight(a, b)
        if bidirectional:
            self._neighbours.get(b, set()).discard(a)
            self._drop_in_flight(b, a)

    def _drop_in_flight(self, sender_id: int, receiver_id: int) -> None:
        """Purge ``sender_id``'s in-flight transmissions from ``receiver_id``'s
        arriving list after their link was removed."""
        arriving = self._arriving.get(receiver_id)
        if arriving:
            arriving[:] = [tx for tx in arriving if tx.sender_id != sender_id]

    def build_links_from_positions(self, model: PropagationModel) -> None:
        """Derive connectivity from radio positions using a propagation model."""
        ids = list(self._radios)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                pos_a = self._radios[a].position
                pos_b = self._radios[b].position
                if pos_a is None or pos_b is None:
                    raise ValueError("all radios need positions to derive links")
                if model.in_range(pos_a, pos_b):
                    self.connect(a, b, bidirectional=False)
                if model.in_range(pos_b, pos_a):
                    self.connect(b, a, bidirectional=False)

    def set_link_error_rate(self, a: int, b: int, per: float, bidirectional: bool = True) -> None:
        """Set the packet error rate of the link from ``a`` to ``b``."""
        if not 0.0 <= per <= 1.0:
            raise ValueError("packet error rate must lie in [0, 1]")
        self._link_error[(a, b)] = per
        if bidirectional:
            self._link_error[(b, a)] = per
        self.invalidate_link_table()

    # ------------------------------------------------------ SINR link wiring
    def set_link_power(self, sender: int, receiver: int, power_dbm: float) -> None:
        """Set the received power of the directed link ``sender -> receiver``.

        Consumed by the SINR interference model for both decodable links
        (signal and interference) and sensed-only links (interference).
        Harmless no-op data under the collision model.
        """
        self._power_mw[(sender, receiver)] = 10.0 ** (power_dbm / 10.0)
        self.invalidate_link_table()

    def connect_sensed(self, sender: int, receiver: int, power_dbm: float) -> None:
        """Declare that ``receiver`` *senses* (but cannot decode) ``sender``.

        Sensed-only transmissions contribute interference at the receiver
        and drive its CCA busy, but are never delivered and never raise
        ``notify_corrupted_frame`` — the receiver cannot synchronise on
        them in the first place.
        """
        if sender == receiver:
            raise ValueError("a node cannot sense itself")
        if receiver in self._neighbours.get(sender, ()):
            raise ValueError(
                f"link {sender}->{receiver} is already a communication link"
            )
        self._cs_neighbours.setdefault(sender, set()).add(receiver)
        self._power_mw[(sender, receiver)] = 10.0 ** (power_dbm / 10.0)
        self.invalidate_link_table()

    def disconnect_sensed(self, sender: int, receiver: int) -> None:
        """Remove a sensed-only link.

        Mirrors :meth:`disconnect`: sensed transmissions still in flight
        are purged from the receiver's sensing list immediately, so a
        removed link can never strand the sensed-energy book-keeping and
        pin the receiver's CCA busy.
        """
        self.invalidate_link_table()
        self._cs_neighbours.get(sender, set()).discard(receiver)
        sensing = self._sensing.get(receiver)
        if sensing:
            sensing[:] = [tx for tx in sensing if tx.sender_id != sender]

    def senses(self, receiver: int, sender: int) -> bool:
        """True if ``receiver`` senses (without decoding) ``sender``."""
        return receiver in self._cs_neighbours.get(sender, self._EMPTY_NEIGHBOURS)

    # ----------------------------------------------------------- link table
    def invalidate_link_table(self) -> None:
        """Drop the precomputed delivery rows after a topology change.

        Called automatically by every mutating method; the next
        transmission rebuilds the table in full from the live wiring.
        Frames already on the air keep the rows they started with.
        """
        self._link_table = None

    def _build_link_table(self) -> Dict[int, Tuple[_LinkRow, ...]]:
        """Precompute per-sender delivery rows in neighbour-set order."""
        radios = self._radios
        arriving = self._arriving
        power = self._power_mw
        link_error = self._link_error
        table = {
            sender_id: tuple(
                (
                    receiver_id,
                    radios[receiver_id],
                    arriving[receiver_id],
                    link_error.get((sender_id, receiver_id), 0.0),
                    power.get((sender_id, receiver_id), 0.0),
                )
                for receiver_id in self._neighbours.get(sender_id, ())
            )
            for sender_id in radios
        }
        self._link_table = table
        if self._sinr:
            sensing = self._sensing
            self._sense_table = {
                sender_id: tuple(
                    (receiver_id, sensing[receiver_id])
                    for receiver_id in self._cs_neighbours.get(sender_id, ())
                )
                for sender_id in radios
            }
        return table

    _EMPTY_NEIGHBOURS: AbstractSet[int] = frozenset()

    def neighbours(self, node_id: int) -> Set[int]:
        """Node ids that can hear transmissions of ``node_id`` (a fresh copy)."""
        return set(self._neighbours.get(node_id, self._EMPTY_NEIGHBOURS))

    def hears(self, receiver: int, sender: int) -> bool:
        """True if ``receiver`` is within range of ``sender``."""
        return receiver in self._neighbours.get(sender, set())

    # ------------------------------------------------------------- carrier
    def is_busy_for(self, node_id: int) -> bool:
        """Channel state as seen by a CCA performed at ``node_id``.

        The channel is busy if any transmission from a node within range of
        ``node_id`` is currently on the air, or if ``node_id`` itself is
        transmitting.  Under the SINR model, sensed-only energy (inside
        carrier-sense range, beyond decode range) also reads busy.
        """
        radio = self._radios[node_id]
        if radio.transmitting:
            return True
        if self._arriving.get(node_id):
            return True
        return bool(self._sensing.get(node_id))

    # --------------------------------------------------------- transmission
    def begin_transmission(self, sender: "Radio", frame: Frame, duration: float) -> None:
        """Start a transmission of ``frame`` by ``sender`` lasting ``duration`` seconds."""
        now = self.sim.now
        tx = ActiveTransmission(sender.node_id, frame, now, now + duration)
        self.transmissions_started += 1
        if self._sinr:
            self._begin_sinr(sender, tx)
            self.sim.schedule_fast(duration, self._end_transmission, tx)
            return
        corrupted_for = tx.corrupted_for
        table = self._link_table
        if table is None:
            table = self._build_link_table()
        rows = table[sender.node_id]
        tx.rows = rows
        for receiver_id, radio, arriving, _per, _signal in rows:
            if arriving:
                # Overlap with everything currently arriving at this receiver.
                corrupted_for.add(receiver_id)
                for other in arriving:
                    other.corrupted_for.add(receiver_id)
            if radio.transmitting:
                # Half-duplex: a transmitting radio cannot receive.
                corrupted_for.add(receiver_id)
            arriving.append(tx)
        self.sim.schedule_fast(duration, self._end_transmission, tx)

    def _begin_sinr(self, sender: "Radio", tx: ActiveTransmission) -> None:
        """Start a transmission under the SINR interference model.

        The new frame is appended to the arriving list of each decodable
        receiver and the sensing list of each carrier-sense-only receiver;
        every receiver whose interference grew is re-evaluated once
        (corruption is monotone, so starts are the only points where a
        frame can newly fail the threshold).
        """
        sender_id = sender.node_id
        corrupted_for = tx.corrupted_for
        table = self._link_table
        if table is None:
            table = self._build_link_table()
        rows = table[sender_id]
        sense_rows = self._sense_table[sender_id]
        tx.rows = rows
        tx.sense_rows = sense_rows
        for receiver_id, radio, arriving, _per, _signal in rows:
            if radio.transmitting:
                # Half-duplex: a transmitting radio cannot receive.
                corrupted_for.add(receiver_id)
            arriving.append(tx)
            self._reevaluate(receiver_id, arriving)
        for receiver_id, sensing in sense_rows:
            sensing.append(tx)
            arriving = self._arriving[receiver_id]
            if arriving:
                self._reevaluate(receiver_id, arriving)

    def _reevaluate(self, receiver_id: int, arriving: List[ActiveTransmission]) -> None:
        """Re-apply the SINR threshold to every frame arriving at a receiver.

        Interference is summed fresh over the arriving and sensing lists in
        insertion (chronological) order.  Already-corrupted frames stay
        corrupted (sticky flag).
        """
        power = self._power_mw
        noise = self._noise_mw
        threshold = self._capture_ratio
        if len(arriving) == 1 and not self._sensing[receiver_id]:
            # Lone frame: only the noise floor opposes it.
            tx = arriving[0]
            if receiver_id not in tx.corrupted_for:
                signal = power.get((tx.sender_id, receiver_id), 0.0)
                if signal < threshold * noise:
                    tx.corrupted_for.add(receiver_id)
            return
        total = noise
        for other in arriving:
            total += power.get((other.sender_id, receiver_id), 0.0)
        for other in self._sensing[receiver_id]:
            total += power.get((other.sender_id, receiver_id), 0.0)
        for tx in arriving:
            if receiver_id in tx.corrupted_for:
                continue
            signal = power.get((tx.sender_id, receiver_id), 0.0)
            if signal < threshold * (total - signal):
                tx.corrupted_for.add(receiver_id)

    def notify_transmit_start(self, node_id: int) -> None:
        """Called by a radio when it switches to transmit mode.

        Any frame that is currently being received by this radio is lost
        (half-duplex operation).
        """
        for tx in self._arriving.get(node_id, []):
            tx.corrupted_for.add(node_id)

    def _end_transmission(self, tx: ActiveTransmission) -> None:
        corrupted_for = tx.corrupted_for
        rng_random = self._rng.random
        for receiver_id, receiver, arriving, per, _signal in tx.rows:
            try:
                arriving.remove(tx)
            except ValueError:
                # The link was removed while the frame was on the air
                # (disconnect purged it): no delivery, no corruption notice.
                continue
            if receiver_id in corrupted_for:
                self.frames_corrupted += 1
                receiver.notify_corrupted_frame(tx.frame)
                continue
            if receiver.transmitting:
                # Receiver started transmitting exactly at the boundary.
                self.frames_corrupted += 1
                receiver.notify_corrupted_frame(tx.frame)
                continue
            if per > 0.0 and rng_random() < per:
                self.frames_lost_link_error += 1
                continue
            self.frames_delivered += 1
            receiver.deliver(tx.frame)
        # Sensed-only receivers just stop seeing the energy — no delivery, no
        # corruption notification (they never synchronised on the frame).
        for _receiver_id, sensing in tx.sense_rows:
            try:
                sensing.remove(tx)
            except ValueError:
                # disconnect_sensed purged it while the frame was on the air.
                pass
        self._radios[tx.sender_id].transmission_finished(tx.frame)
