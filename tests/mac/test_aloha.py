"""Unit tests for the slotted ALOHA and ALOHA-Q baselines."""

from __future__ import annotations

import pytest

from repro.mac.aloha import AlohaConfig, AlohaQ, SlottedAloha
from repro.phy.channel import WirelessChannel
from repro.phy.frames import Frame, FrameKind
from repro.phy.radio import Radio
from repro.sim.engine import Simulator


def build_star(sim, mac_cls, num_senders=2, config=None):
    """``num_senders`` sender nodes plus sink node 0; everybody hears everybody."""
    channel = WirelessChannel(sim)
    radios = [Radio(sim, channel, i) for i in range(num_senders + 1)]
    for i in range(num_senders + 1):
        for j in range(i + 1, num_senders + 1):
            channel.connect(i, j)
    sink_mac = SlottedAloha(sim, radios[0], config=config)
    sender_macs = [mac_cls(sim, radios[i], config=config) for i in range(1, num_senders + 1)]
    for mac in [sink_mac] + sender_macs:
        mac.start()
    return sink_mac, sender_macs


@pytest.mark.parametrize(
    "kwargs",
    [
        {"slots_per_frame": 0},
        {"slot_duration": 0.0},
        {"max_frame_retries": -1},
        {"learning_rate": 0.0},
        {"exploration_rate": 1.5},
    ],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ValueError):
        AlohaConfig(**kwargs)


def test_slotted_aloha_delivers_single_sender():
    sim = Simulator(seed=1)
    sink, (sender,) = build_star(sim, SlottedAloha, num_senders=1)
    received = []
    sink.receive_callback = received.append
    for _ in range(5):
        sender.send(Frame(FrameKind.DATA, src=1, dst=0))
    sim.run_until(5.0)
    assert len(received) == 5
    assert sender.stats.tx_success == 5


def test_aloha_transmits_only_in_chosen_slot():
    sim = Simulator(seed=1)
    config = AlohaConfig(slots_per_frame=4, slot_duration=10e-3)
    sink, (sender,) = build_star(sim, SlottedAloha, num_senders=1, config=config)
    tx_times = []
    original = sender._begin_transmission

    def spy(frame):
        tx_times.append(sim.now)
        return original(frame)

    sender._begin_transmission = spy
    for _ in range(3):
        sender.send(Frame(FrameKind.DATA, src=1, dst=0))
    sim.run_until(2.0)
    # Transmissions start on slot boundaries (multiples of the slot duration).
    assert tx_times
    for t in tx_times:
        fraction = (t / config.slot_duration) % 1
        assert min(fraction, 1.0 - fraction) < 1e-6


def test_aloha_q_learns_distinct_slots_for_two_senders():
    sim = Simulator(seed=7)
    config = AlohaConfig(slots_per_frame=6, slot_duration=8e-3, exploration_rate=0.05)
    sink, senders = build_star(sim, AlohaQ, num_senders=2, config=config)
    received = []
    sink.receive_callback = received.append

    # Saturated senders: keep the queues topped up.
    def refill():
        for index, sender in enumerate(senders, start=1):
            if sender.queue.level < 2:
                sender.send(Frame(FrameKind.DATA, src=index, dst=0))
        sim.schedule(config.slot_duration, refill)

    sim.schedule(0.0, refill)
    sim.run_until(40.0)

    best_slots = [max(range(len(s.q_values)), key=lambda i: s.q_values[i]) for s in senders]
    # After convergence the two senders occupy different slots.
    assert best_slots[0] != best_slots[1]
    assert all(s.converged(threshold=0.5) for s in senders)
    assert len(received) > 100


def test_aloha_q_negative_reward_on_collisions():
    sim = Simulator(seed=3)
    config = AlohaConfig(slots_per_frame=1, slot_duration=8e-3, max_frame_retries=1)
    sink, senders = build_star(sim, AlohaQ, num_senders=2, config=config)
    # Only one slot exists, so the two saturated senders must always collide.
    for index, sender in enumerate(senders, start=1):
        for _ in range(5):
            sender.send(Frame(FrameKind.DATA, src=index, dst=0))
    sim.run_until(2.0)
    assert all(s.q_values[0] < 0 for s in senders)


def test_aloha_stop_cancels_slot_clock():
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim)
    radio = Radio(sim, channel, 0)
    mac = SlottedAloha(sim, radio)
    mac.start()
    mac.stop()
    sim.run_until(1.0)
    assert sim.pending_events() == 0


def test_aloha_q_credits_the_slot_a_transaction_was_sent_in():
    """A transaction that outlives its frame (1 ms slots, ~3.65 ms transaction)
    ends after the next frame's slot has been drawn; the outcome must still
    be credited to the slot the frame went out in."""
    sim = Simulator(seed=5)
    config = AlohaConfig(slots_per_frame=4, slot_duration=1e-3, exploration_rate=1.0)
    sink, (sender,) = build_star(sim, AlohaQ, num_senders=1, config=config)
    sent_slots, credited_slots = [], []

    class RecordingList(list):
        def __setitem__(self, index, value):
            credited_slots.append(index)
            super().__setitem__(index, value)

    sender.q_values = RecordingList(sender.q_values)
    original = sender._begin_transmission

    def spy(frame):
        sent_slots.append(round(sim.now / config.slot_duration) % config.slots_per_frame)
        return original(frame)

    sender._begin_transmission = spy
    for _ in range(8):
        sender.send(Frame(FrameKind.DATA, src=1, dst=0))
    sim.run_until(1.0)
    assert sender.stats.tx_success == 8
    assert credited_slots == sent_slots
