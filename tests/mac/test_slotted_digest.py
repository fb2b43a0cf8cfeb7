"""Pinned digests of fixed-seed records of the slotted baselines.

A digest covers, for every seed of a scenario, the record's scalar metrics
and the report's series and tables (floats bit-exactly, as ``float.hex``).
The matrix runs slotted ALOHA, ALOHA-Q and TDMA on every experiment family
that can host them: the hidden-node line under three propagation models,
the SINR hidden node, the testbed tree and star, and the CAP of the
one-ring DSME scalability network.  On the hidden-node line's 50 m links
the three propagation models yield the same records, hence the repeated
digests.  The pinned values are those of the per-node slot tick that
preceded the shared slot clock, so any change to slot timing,
random-number use or event order shows up here.

The clock serves an enqueue at the first boundary strictly after it.  That
is the boundary a per-node tick served it at only because no other event
ever executes at a boundary time; the last test checks this premise on
the same matrix.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.campaign.runner import execute_scenario
from repro.campaign.spec import Scenario
from repro.mac.slotted import SlotClock
from repro.sim.engine import Simulator

SLOTTED_MACS = ("slotted-aloha", "aloha-q", "tdma")
SEEDS = (1, 2)

_HIDDEN_NODE = {"delta": 25.0, "packets_per_node": 30, "warmup": 2.0}

#: name -> (experiment, propagation, params)
SCENARIOS = {
    "hidden-node": ("hidden-node", None, _HIDDEN_NODE),
    "hidden-node-fading": ("hidden-node", "fading", _HIDDEN_NODE),
    "hidden-node-log-distance": ("hidden-node", "log-distance", _HIDDEN_NODE),
    "sinr-hidden-node": (
        "sinr-hidden-node",
        None,
        {"delta": 25.0, "packets_per_node": 15, "warmup": 2.0},
    ),
    "testbed-tree": ("testbed-tree", None, {"delta": 10.0, "packets_per_node": 6, "warmup": 1.0}),
    "testbed-star": ("testbed-star", None, {"delta": 10.0, "packets_per_node": 6, "warmup": 1.0}),
    "scalability": ("scalability", None, {"rings": 1, "duration": 10.0, "warmup": 5.0}),
}

PINNED = {
    "hidden-node/slotted-aloha": "1639be643b5a0cc680d83f2dcbe9b481b53bb98330a05526c5cda92abd3fbb55",
    "hidden-node/aloha-q": "307d584090659037d6ad496b4b3a2dbe076c1e1a5ee83b1a763159bb70a2f276",
    "hidden-node/tdma": "13610bb1cb8c833d881541d232b1428cc896ad2322c84e30b842533057ec5569",
    "hidden-node-fading/slotted-aloha":
        "1639be643b5a0cc680d83f2dcbe9b481b53bb98330a05526c5cda92abd3fbb55",
    "hidden-node-fading/aloha-q":
        "307d584090659037d6ad496b4b3a2dbe076c1e1a5ee83b1a763159bb70a2f276",
    "hidden-node-fading/tdma": "13610bb1cb8c833d881541d232b1428cc896ad2322c84e30b842533057ec5569",
    "hidden-node-log-distance/slotted-aloha":
        "1639be643b5a0cc680d83f2dcbe9b481b53bb98330a05526c5cda92abd3fbb55",
    "hidden-node-log-distance/aloha-q":
        "307d584090659037d6ad496b4b3a2dbe076c1e1a5ee83b1a763159bb70a2f276",
    "hidden-node-log-distance/tdma":
        "13610bb1cb8c833d881541d232b1428cc896ad2322c84e30b842533057ec5569",
    "scalability/slotted-aloha": "3265f2e71a30a625bb06816818b6af3f5773eb4ed0b4c12f27558533511b6a80",
    "scalability/aloha-q": "750fadcf1574f358934967aaf7e675ce4b08f6c924a6ca4b5abb6c8751674df7",
    "scalability/tdma": "c9ab8574e051c58b9c75b45bcacac1a410e923bd694fa25200948bcf6fa2c4e2",
    "sinr-hidden-node/slotted-aloha":
        "4bd6d5ecdc7bddcb752e9c1b46cf38e071b86adc489a7fd1efd407dcd128449e",
    "sinr-hidden-node/aloha-q": "9a6515a51adb3ed9f18dd2fb5e8259d3af41fef68dbe7db2b9595343277e3983",
    "sinr-hidden-node/tdma": "326b33aa9f6a8f366f636417ea97ec08a229f44afd0fedb9bafc1b91014b510f",
    "testbed-star/slotted-aloha":
        "5a64f82cc67e7d7be2e42c0ca3707f5d9d31390f902f49382e23af3ab90408ee",
    "testbed-star/aloha-q": "068442003331bbb15e7c4516af49ef7b6ef14946228f6d12de258bc700eab37b",
    "testbed-star/tdma": "c1872d021b7df978f1084381616a7c8e157e2027ecf763d228ca6c9c1df909ce",
    "testbed-tree/slotted-aloha":
        "9c494b0a1b7e4cbbaeb22e9b22753b3ea0a7be7024fbb69db4f8de4f2fb0b4d2",
    "testbed-tree/aloha-q": "bda756cc4bf3dc933d6867edf76219e12f3f695f797f43f63d54f0a228ad1b63",
    "testbed-tree/tdma": "18f43c09a13114346cffa45596e5b2dd4891900b3a3c3f8f84abb772b88af9e9",
}


def scenario(name: str, mac: str, seed: int) -> Scenario:
    experiment, propagation, params = SCENARIOS[name]
    return Scenario(
        experiment=experiment, mac=mac, seed=seed, params=dict(params), propagation=propagation
    )


def _canonical(value):
    """JSON-ready copy of ``value`` with floats as ``float.hex`` strings."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def records_digest(name: str, mac: str) -> str:
    """SHA-256 over the records (metrics, series, tables) of every seed."""
    payload = []
    for seed in SEEDS:
        record = execute_scenario(scenario(name, mac, seed), keep_raw=True)
        report = record.raw.to_dict()
        payload.append(
            {
                "metrics": _canonical(record.metrics),
                "series": _canonical(report["series"]),
                "tables": _canonical(report["tables"]),
            }
        )
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("mac", SLOTTED_MACS)
def test_records_match_pinned_digest(name, mac):
    assert records_digest(name, mac) == PINNED[f"{name}/{mac}"]


@pytest.fixture
def execution_log(monkeypatch):
    """Execution times of every non-clock event, and every slot clock made."""
    times, clocks = [], []
    original_init = SlotClock.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        clocks.append(self)

    def wrap(callback, sim):
        if isinstance(getattr(callback, "__self__", None), SlotClock):
            return callback

        def run(*args, **kwargs):
            times.append(sim.now)
            return callback(*args, **kwargs)

        return run

    def patch(name):
        original = getattr(Simulator, name)

        def schedule(self, when, callback, *args, **kwargs):
            return original(self, when, wrap(callback, self), *args, **kwargs)

        monkeypatch.setattr(Simulator, name, schedule)

    for name in ("schedule_at", "schedule_fast", "schedule_at_fast"):
        patch(name)
    monkeypatch.setattr(SlotClock, "__init__", init)
    return times, clocks


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_no_other_event_executes_at_a_slot_boundary(name, execution_log):
    times, clocks = execution_log
    for mac in SLOTTED_MACS:
        for seed in (1, 2):
            times.clear()
            clocks.clear()
            execute_scenario(scenario(name, mac, seed))
            assert clocks
            end = max(times)
            for clock in clocks:
                boundaries, t = set(), clock.start
                while t <= end:
                    boundaries.add(t)
                    t += clock.slot_duration
                assert boundaries.isdisjoint(times), (name, mac, seed)
