"""The shared slot clock of slotted ALOHA, ALOHA-Q and TDMA.

A slotted MAC is woken only at boundaries where it can act, and those
boundaries lie where a per-node ``now + slot_duration`` tick would have put
them.  These tests pin the wake/suspend rules; the pinned record digests
and the premise the clock's bit-identity rests on live in
``test_slotted_digest.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments.hidden_node import run_hidden_node
from repro.mac.aloha import AlohaConfig, AlohaQ, SlottedAloha
from repro.mac.tdma import Tdma, TdmaConfig
from repro.phy.channel import WirelessChannel
from repro.phy.frames import Frame, FrameKind
from repro.phy.radio import Radio
from repro.sim.engine import Simulator

SLOTTED_CLASSES = (SlottedAloha, AlohaQ, Tdma)
SLOTTED_MACS = ("slotted-aloha", "aloha-q", "tdma")


def build(sim, mac_cls, node_ids=(0, 1), config=None):
    """One MAC per node id; every node hears every other one."""
    channel = WirelessChannel(sim)
    radios = [Radio(sim, channel, node_id) for node_id in node_ids]
    for i, a in enumerate(node_ids):
        for b in node_ids[i + 1:]:
            channel.connect(a, b)
    return [mac_cls(sim, radio, config=config) for radio in radios]


def spy_transmissions(sim, macs):
    """``[(time, node_id), ...]`` of every data transmission the MACs begin."""
    log = []
    for mac in macs:
        original = mac._begin_transmission

        def spy(frame, mac=mac, original=original):
            log.append((sim.now, mac.node_id))
            return original(frame)

        mac._begin_transmission = spy
    return log


def boundary(k, slot_duration, start=0.0):
    """Boundary ``k`` as the float sum a per-node tick accumulates."""
    t = start
    for _ in range(k):
        t += slot_duration
    return t


def first_boundary_after(t, slot_duration):
    k, b = 0, 0.0
    while b <= t:
        b += slot_duration
        k += 1
    return k


def boundary_index(t, slot_duration):
    """The ``k`` whose boundary lies exactly at ``t``."""
    k = first_boundary_after(t, slot_duration) - 1
    assert boundary(k, slot_duration) == t
    return k


def unstarted(mac_cls, seed, node_id, config):
    """A MAC on a fresh simulator of the same seed, to draw reference slots from."""
    sim = Simulator(seed=seed)
    return mac_cls(sim, Radio(sim, WirelessChannel(sim), node_id), config=config)


def send_at(sim, mac, time, dst):
    sim.schedule_at(time, lambda: mac.send(Frame(FrameKind.DATA, src=mac.node_id, dst=dst)))


@pytest.mark.parametrize("mac_cls", SLOTTED_CLASSES)
def test_idle_started_mac_schedules_nothing(mac_cls):
    sim = Simulator(seed=1)
    for mac in build(sim, mac_cls):
        mac.start()
    assert sim.pending_events() == 0
    sim.run_until(10.0)
    assert sim.events_executed == 0


def test_mid_frame_enqueue_transmits_at_first_own_slot_after_it():
    sim = Simulator(seed=1)
    config = TdmaConfig(slots_per_frame=4, slot_duration=3e-3)
    sink, sender = build(sim, Tdma, node_ids=(0, 2), config=config)
    for mac in (sink, sender):
        mac.start()
    log = spy_transmissions(sim, [sender])
    enqueued = 0.1234
    send_at(sim, sender, enqueued, dst=0)
    sim.run_until(1.0)
    k = first_boundary_after(enqueued, config.slot_duration)
    k += (sender.own_slot - k) % config.slots_per_frame
    assert log[0] == (boundary(k, config.slot_duration), 2)
    assert sink.stats.delivered_to_upper == 1


@pytest.mark.parametrize("mac_cls", (SlottedAloha, AlohaQ))
def test_mid_frame_enqueue_transmits_at_first_chosen_slot_after_it(mac_cls):
    sim = Simulator(seed=4)
    config = AlohaConfig(slots_per_frame=5, slot_duration=3e-3)
    sink, sender = build(sim, mac_cls, config=config)
    for mac in (sink, sender):
        mac.start()
    log = spy_transmissions(sim, [sender])
    enqueued = 0.2468
    send_at(sim, sender, enqueued, dst=0)
    sim.run_until(1.0)
    # The slots a per-node tick would have drawn, one per frame from frame 0
    # (Q-values are all 0 until the first outcome, so ALOHA-Q draws alike).
    reference = unstarted(mac_cls, 4, 1, config)
    k = first_boundary_after(enqueued, config.slot_duration)
    frame, slot = divmod(k, config.slots_per_frame)
    chosen = [reference._select_slot() for _ in range(frame + 1)][-1]
    if chosen < slot:
        frame, chosen = frame + 1, reference._select_slot()
    expected = frame * config.slots_per_frame + chosen
    assert log[0] == (boundary(expected, config.slot_duration), 1)


@pytest.mark.parametrize("mac_cls", SLOTTED_CLASSES)
def test_macs_due_at_one_boundary_run_in_start_order(mac_cls):
    sim = Simulator(seed=2)
    # One slot per frame: everybody with a frame queued is due at every boundary.
    config = (TdmaConfig if mac_cls is Tdma else AlohaConfig)(slots_per_frame=1)
    macs = build(sim, mac_cls, node_ids=(0, 1, 2, 3), config=config)
    started = [macs[3], macs[1], macs[2]]
    for mac in started:
        mac.start()
    log = spy_transmissions(sim, started)
    for mac in (macs[1], macs[2], macs[3]):  # enqueue order differs from start order
        send_at(sim, mac, 0.0101, dst=0)
    sim.run_until(0.0151)
    assert [node for _, node in log] == [3, 1, 2]
    assert len({time for time, _ in log}) == 1


@pytest.mark.parametrize("mac_cls", (SlottedAloha, AlohaQ))
def test_make_up_draws_match_one_draw_per_elapsed_frame(mac_cls):
    sim = Simulator(seed=9)
    config = AlohaConfig(slots_per_frame=4, slot_duration=2e-3)
    sink, sender = build(sim, mac_cls, config=config)
    for mac in (sink, sender):
        mac.start()
    log = spy_transmissions(sim, [sender])
    send_at(sim, sender, 1.0001, dst=0)  # after 125 idle frames
    sim.run_until(1.05)
    assert len(log) == 1
    frames = boundary_index(log[0][0], config.slot_duration) // config.slots_per_frame + 1
    assert frames > 125
    reference = unstarted(mac_cls, 9, 1, config)
    for _ in range(frames):
        reference._select_slot()
    assert sender._rng.getstate() == reference._rng.getstate()


@pytest.mark.parametrize("mac_cls", SLOTTED_CLASSES)
def test_stop_deregisters_the_mac(mac_cls):
    sim = Simulator(seed=1)
    sink, sender = build(sim, mac_cls)
    for mac in (sink, sender):
        mac.start()
    sender.send(Frame(FrameKind.DATA, src=1, dst=0))
    clock = sender._clock
    assert sim.pending_events() == 1
    sender.stop()
    assert sender._clock is None and sender._wake is None
    assert clock._due == {} and clock._pending == []
    assert sim.pending_events() == 0
    sender.send(Frame(FrameKind.DATA, src=1, dst=0))
    sim.run_until(1.0)
    assert sim.events_executed == 0
    assert sender.stats.tx_attempts == 0


def test_one_clock_per_simulator_and_grid():
    sim = Simulator(seed=1)
    aloha = build(sim, SlottedAloha, node_ids=(0, 1))
    tdma = build(sim, Tdma, node_ids=(2, 3))
    other = build(sim, Tdma, node_ids=(4,), config=TdmaConfig(slot_duration=1e-3))
    for mac in aloha + tdma + other:
        mac.start()
    assert len({id(mac._clock) for mac in aloha + tdma}) == 1
    assert other[0]._clock is not aloha[0]._clock
    assert [mac._rank for mac in aloha + tdma] == [0, 1, 2, 3]


@pytest.mark.parametrize("mac", SLOTTED_MACS)
def test_hidden_node_event_budget(mac, monkeypatch):
    """Idle slots cost nothing: a per-node tick executed 11,736 events here."""
    sims = []
    original_init = Simulator.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        sims.append(self)

    monkeypatch.setattr(Simulator, "__init__", init)
    report = run_hidden_node(mac=mac, delta=10.0, packets_per_node=40, warmup=10.0, seed=1)
    assert report.scalars["packets_generated"] == 80
    (sim,) = sims
    assert sim.events_executed <= 600
