"""Tests for the channel's link table and its rebuild-on-mutation semantics.

The table is the channel's only delivery path.  It is built from the live
wiring on the first transmission; any mutation drops it and the next
transmission rebuilds it in full.  A frame already on the air keeps the
rows it started with.
"""

from __future__ import annotations

from repro.phy.channel import WirelessChannel
from repro.phy.frames import Frame, FrameKind
from repro.phy.radio import Radio
from repro.sim.engine import Simulator


def make_frame(src, dst, payload=20):
    return Frame(FrameKind.DATA, src=src, dst=dst, payload_bytes=payload)


def _line_network(seed=7):
    """A - B - C line (A and C hidden from each other)."""
    sim = Simulator(seed=seed)
    channel = WirelessChannel(sim)
    radios = [Radio(sim, channel, i) for i in range(3)]
    channel.connect(0, 1)
    channel.connect(1, 2)
    return sim, channel, radios


def _counters(channel, radios):
    return (
        channel.transmissions_started,
        channel.frames_delivered,
        channel.frames_corrupted,
        channel.frames_lost_link_error,
        [r.frames_received for r in radios],
        [r.frames_corrupted for r in radios],
    )


def test_table_is_built_on_first_use_and_dropped_by_mutation():
    sim, channel, radios = _line_network()
    assert channel._link_table is None
    radios[0].transmit(make_frame(0, 1))
    sim.run_until(1.0)
    assert channel._link_table is not None
    channel.connect(0, 2)
    assert channel._link_table is None


def test_hidden_node_collision_and_clean_deliveries():
    sim, channel, radios = _line_network()
    a, b, c = radios
    sim.schedule(0.0, a.transmit, make_frame(0, 1))
    sim.schedule(0.0, c.transmit, make_frame(2, 1))  # collides at B
    sim.schedule(0.1, a.transmit, make_frame(0, 1))  # clean
    sim.schedule(0.2, b.transmit, make_frame(1, 0))  # clean, heard by A and C
    sim.run_until(1.0)
    assert _counters(channel, radios) == (4, 3, 2, 0, [1, 1, 1], [0, 2, 0])


def test_connect_after_first_use_reaches_new_receiver():
    sim, channel, radios = _line_network()
    radios[0].transmit(make_frame(0, 1))
    sim.run_until(1.0)
    channel.connect(0, 2)
    before = radios[2].frames_received
    radios[0].transmit(make_frame(0, 2))
    sim.run_until(2.0)
    assert radios[2].frames_received == before + 1


def test_register_after_first_use_reaches_new_receiver():
    sim, channel, radios = _line_network()
    radios[0].transmit(make_frame(0, 1))
    sim.run_until(1.0)
    late = Radio(sim, channel, 99)
    channel.connect(0, 99)
    radios[0].transmit(make_frame(0, 99))
    sim.run_until(2.0)
    assert late.frames_received == 1


def test_disconnect_mid_flight_frees_cca_and_drops_the_frame():
    """A frame on the air when its link is removed must not stay in the
    receiver's arriving list (CCA busy for the rest of the run), and the
    receiver gets neither the frame nor a corruption notice."""
    sim, channel, radios = _line_network()
    a, b, _ = radios
    a.transmit(make_frame(0, 1))
    channel.disconnect(0, 1)  # mid-flight: frame still on the air
    assert b.cca()
    sim.run_until(1.0)
    assert b.cca()
    assert not channel._arriving[1]
    assert b.frames_received == 0
    assert b.frames_corrupted == 0
    a.transmit(make_frame(0, 1))  # link is gone: nobody hears this
    sim.run_until(2.0)
    assert b.frames_received == 0
    assert channel.frames_delivered == 0


def test_frame_in_flight_during_connect_keeps_its_rows():
    sim, channel, radios = _line_network()
    a, _, c = radios
    a.transmit(make_frame(0, 2))
    channel.connect(0, 2)  # mid-flight: C was not a receiver at start
    sim.run_until(1.0)
    assert c.frames_received == 0
    assert c.frames_corrupted == 0
    a.transmit(make_frame(0, 2))
    sim.run_until(2.0)
    assert c.frames_received == 1


def test_mutated_channel_matches_one_wired_that_way_from_start():
    """After a mutation the rebuilt table behaves exactly like a channel
    that carried the new wiring all along (RNG draws included)."""

    def rewire(channel):
        channel.connect(0, 2, bidirectional=False)
        channel.set_link_error_rate(0, 1, 0.5, bidirectional=False)

    def run(mutate_after_first_use):
        sim, channel, radios = _line_network(seed=11)
        a, b, c = radios
        if not mutate_after_first_use:
            rewire(channel)
        b.transmit(make_frame(1, 0))  # B's rows are the same either way
        sim.run_until(1.0)
        if mutate_after_first_use:
            rewire(channel)
        for k in range(6):
            start = 1.0 + k
            sim.schedule_at(start, a.transmit, make_frame(0, 1))
            sim.schedule_at(start, c.transmit, make_frame(2, 1))
            sim.schedule_at(start + 0.1, a.transmit, make_frame(0, 2))
            sim.schedule_at(start + 0.2, b.transmit, make_frame(1, 0))
            sim.schedule_at(start + 0.3, a.transmit, make_frame(0, 1))
        sim.run_until(8.0)
        return _counters(channel, radios)

    mutated = run(mutate_after_first_use=True)
    assert mutated == run(mutate_after_first_use=False)
    _, delivered, corrupted, lost, received, _ = mutated
    assert delivered > 0 and corrupted > 0 and lost > 0
    assert received[2] > 0  # the new A -> C link carries frames


def test_construction_time_wiring_before_first_use():
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim)
    Radio(sim, channel, 0)
    Radio(sim, channel, 1)
    channel.connect(0, 1)
    channel.set_link_error_rate(0, 1, 0.0)
    channel.radio(0).transmit(make_frame(0, 1))
    sim.run_until(1.0)
    assert channel.frames_delivered == 1


def test_link_error_rate_applies_through_the_table():
    sim = Simulator(seed=3)
    channel = WirelessChannel(sim)
    a = Radio(sim, channel, 0)
    Radio(sim, channel, 1)
    channel.connect(0, 1)
    channel.set_link_error_rate(0, 1, 1.0)
    a.transmit(make_frame(0, 1))
    sim.run_until(1.0)
    assert channel.frames_lost_link_error == 1
    assert channel.frames_delivered == 0
