"""Pinned digests of the whole QMA agent state after short fixed-seed runs.

A digest covers, for every QMA agent in node order, the policy, the
Q-values and the action counts, the ``q_history`` and ``rho_history``
samples of the agents the ``convergence`` collector reads, and each run's
``events_executed``; floats enter bit-exactly (as ``float.hex``).  The
pinned values are those of the earlier enum-keyed tick, which recorded the
histories unconditionally, so any change to learning, random-number use or
event order shows up here.  The histories are
recorded only when something reads them: with the ``convergence``
collector attached they must match the pinned ones, without it they must be
empty while the rest of the state stays the same.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.actions import ALL_ACTIONS
from repro.core.mac import QmaMac
from repro.experiments.hidden_node import run_hidden_node
from repro.experiments.scalability import run_scalability
from repro.experiments.testbed import prepare_star
from repro.metrics.collectors import ConvergenceCollector
from repro.sim.batch import SeedBatchExecutor

#: (full digest with histories, digest without histories) per scenario.
PINNED = {
    "hidden-node": (
        "6c3712cca5e65629c5f407013919205668666083c97265f39db189c1d1839fd1",
        "758efce7a70c2c0ecbaab2a3182927b476616d92209438b271b8723d54938fdb",
    ),
    "dsme": (
        "d5b847851598695672dba525c25891f0f1a155d7d7606a26fa668021ef30a795",
        "471f83914e25169a52e707eb00c67c50a30a71a32a45c655d9d309766c7bfadc",
    ),
    "batched-star": (
        "f3587c726d1ac5b5157ae9002f9f4fcfec872b9305c57cbd68a2d67e9fb90db8",
        "894db3473391f38ff5d47601fd39c8eae0605ed41ea1d5a358b93dd147dd2d3f",
    ),
}

HIDDEN_NODE = {"mac": "qma", "delta": 10.0, "packets_per_node": 30, "warmup": 5.0, "seed": 7}
DSME = {"mac": "qma", "rings": 1, "duration": 6.0, "warmup": 4.0, "seed": 3}
STAR = {"packets_per_node": 3, "warmup": 0.5, "delta": 40.0, "max_duration": 3.0}
STAR_SEEDS = (0, 1)


def _hex_pairs(samples):
    return [[float(t).hex(), float(v).hex()] for t, v in samples]


def agent_state_digest(runs, history_nodes=()):
    """SHA-256 over the agent state of ``runs``, a list of ``(sim, macs)``.

    Histories enter for the agents whose node id is in ``history_nodes``.
    """
    payload = []
    for sim, macs in runs:
        agents = []
        for mac in sorted(macs, key=lambda m: m.node_id):
            stats = mac.action_stats
            entry = {
                "node": mac.node_id,
                "policy": "".join(action.short_name for action in mac.policy_snapshot()),
                "q": [
                    [float(row[action]).hex() for action in ALL_ACTIONS]
                    for row in mac.qtable.values_snapshot()
                ],
                "counts": [stats.selected[action] for action in ALL_ACTIONS]
                + [stats.random_selections, stats.greedy_selections],
            }
            if mac.node_id in history_nodes:
                entry["q_history"] = _hex_pairs(mac.q_history)
                entry["rho_history"] = _hex_pairs(mac.rho_history)
            agents.append(entry)
        payload.append({"agents": agents, "events_executed": sim.events_executed})
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.fixture
def created_macs(monkeypatch):
    """Every QmaMac constructed while the test runs."""
    macs = []
    original = QmaMac.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        macs.append(self)

    monkeypatch.setattr(QmaMac, "__init__", init)
    return macs


@pytest.fixture
def read_nodes(monkeypatch):
    """Node ids of the agents a ``convergence`` collector attached to."""
    nodes = set()
    original = ConvergenceCollector.attach

    def attach(self, ctx):
        original(self, ctx)
        nodes.update(node_id for node_id, _ in ctx.qma_macs())

    monkeypatch.setattr(ConvergenceCollector, "attach", attach)
    return nodes


def _runs(macs):
    by_sim = {}
    for mac in macs:
        by_sim.setdefault(id(mac.sim), (mac.sim, []))[1].append(mac)
    return list(by_sim.values())


def run_hidden_node_scenario(collectors=None):
    run_hidden_node(**HIDDEN_NODE, collectors=collectors)


def run_dsme_scenario(collectors=("dsme",)):
    run_scalability(**DSME, collectors=collectors)


def run_batched_star(collectors=None):
    lanes = [
        prepare_star(mac="qma", seed=seed, collectors=collectors, **STAR) for seed in STAR_SEEDS
    ]
    executor = SeedBatchExecutor()
    executor.run(lanes)
    assert executor.last_fallback_reason is None
    return [(lane.sim, list(lane.built.network.macs.values())) for lane in lanes]


def _assert_histories(runs, read_nodes):
    """Histories are recorded exactly for the agents a collector reads."""
    for _, macs in runs:
        for mac in macs:
            if mac.node_id in read_nodes:
                assert mac.q_history
            else:
                assert mac.q_history == [] and mac.rho_history == []


class TestHiddenNode:
    def test_with_convergence_matches_pinned_state(self, created_macs, read_nodes):
        run_hidden_node_scenario()  # the default collectors include convergence
        runs = _runs(created_macs)
        _assert_histories(runs, read_nodes)
        assert agent_state_digest(runs, read_nodes) == PINNED["hidden-node"][0]

    def test_without_a_reader_histories_stay_empty(self, created_macs):
        run_hidden_node_scenario(collectors=("pdr", "attempts"))
        runs = _runs(created_macs)
        _assert_histories(runs, ())
        assert agent_state_digest(runs) == PINNED["hidden-node"][1]


class TestDsme:
    def test_with_convergence_matches_pinned_state(self, created_macs, read_nodes):
        run_dsme_scenario(collectors=("dsme", "convergence"))
        runs = _runs(created_macs)
        _assert_histories(runs, read_nodes)
        assert agent_state_digest(runs, read_nodes) == PINNED["dsme"][0]

    def test_without_a_reader_histories_stay_empty(self, created_macs):
        run_dsme_scenario()
        runs = _runs(created_macs)
        _assert_histories(runs, ())
        assert agent_state_digest(runs) == PINNED["dsme"][1]


class TestBatchedLanes:
    def test_with_convergence_matches_pinned_state(self, read_nodes):
        runs = run_batched_star(collectors=("pdr", "attempts", "convergence"))
        _assert_histories(runs, read_nodes)
        assert agent_state_digest(runs, read_nodes) == PINNED["batched-star"][0]

    def test_without_a_reader_histories_stay_empty(self):
        runs = run_batched_star()
        _assert_histories(runs, ())
        assert agent_state_digest(runs) == PINNED["batched-star"][1]
