"""Property tests: the int-coded Eq. 5/Eq. 3 update against the paper's equations.

A running agent updates its table through ``QTable._update`` (action codes,
no result object); the public ``QTable.update`` returns a ``QUpdateResult``;
the seed-batch engine's ``BatchQTable`` runs the same update over numpy
store slices.  Over random ``(state, action, reward, next_state)``
sequences all three must agree bit-for-bit with a dict-based model written
straight from Eq. 5 and Eq. 3 — values, policy and update count.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.actions import ALL_ACTIONS, QAction
from repro.core.qtable import QTable
from repro.sim.batch import BatchQTable

B, C, S = QAction.QBACKOFF, QAction.QCCA, QAction.QSEND

#: The paper's rewards and startup punishments: small integers, so equal
#: Q-values (ties for Eq. 3) come up often.
PAPER_REWARDS = (-3.0, -2.0, 0.0, 1.0, 2.0, 3.0, 4.0)

PAPER_PARAMS = {"learning_rate": 0.5, "discount_factor": 0.9, "penalty": 2.0, "q_init": -10.0}


@st.composite
def update_sequences(draw):
    num_states = draw(st.integers(min_value=1, max_value=6))
    params = {
        "learning_rate": draw(st.sampled_from([0.5, 0.25, 0.1, 1.0])),
        "discount_factor": draw(st.sampled_from([0.9, 0.5, 0.0, 1.0])),
        "penalty": draw(st.sampled_from([2.0, 0.5, 0.0, 10.0])),
        "q_init": draw(st.sampled_from([-10.0, 0.0])),
    }
    state = st.integers(min_value=0, max_value=num_states - 1)
    reward = st.one_of(
        st.sampled_from(PAPER_REWARDS),
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    )
    steps = draw(
        st.lists(st.tuples(state, st.sampled_from(ALL_ACTIONS), reward, state), max_size=60)
    )
    return num_states, params, steps


class ReferenceTable:
    """Eq. 5 and Eq. 3 over dict rows keyed by action."""

    def __init__(self, num_states, learning_rate, discount_factor, penalty, q_init):
        self.alpha = learning_rate
        self.gamma = discount_factor
        self.penalty = penalty
        self.values = [{action: q_init for action in ALL_ACTIONS} for _ in range(num_states)]
        self.policy = [B] * num_states
        self.updates = 0

    def update(self, state, action, reward, next_state):
        old = self.values[state][action]
        future = max(self.values[next_state].values())
        candidate = (1.0 - self.alpha) * old + self.alpha * (reward + self.gamma * future)
        new = max(old - self.penalty, candidate)
        self.values[state][action] = new
        self.updates += 1
        changed = action is not self.policy[state] and new > self.values[state][self.policy[state]]
        if changed:
            self.policy[state] = action
        return old, new, candidate, changed


def batch_table(num_states, learning_rate, discount_factor, penalty, q_init):
    """A BatchQTable over a one-lane, one-agent store."""
    store = SimpleNamespace(
        num_subslots=num_states,
        alpha=learning_rate,
        gamma=discount_factor,
        penalty=penalty,
        q_init=q_init,
        Q=np.full((1, 1, num_states, len(ALL_ACTIONS)), q_init),
        P=np.full((1, 1, num_states), B.value, dtype=np.int64),
        updates=np.zeros((1, 1), dtype=np.int64),
    )
    return BatchQTable(store, 0, 0)


def assert_same_table(table, reference):
    assert table.values_snapshot() == reference.values
    assert table.policy_snapshot() == reference.policy
    assert table.updates == reference.updates


@settings(max_examples=200, deadline=None)
@given(update_sequences())
# A tie: QCCA reaches exactly QBackoff's value, so Eq. 3 keeps the policy.
@example((1, PAPER_PARAMS, [(0, C, -1.0, 0)]))
# The penalty branch: after a run of rewards one failure drops Q by exactly ξ.
@example((2, PAPER_PARAMS, [(0, S, 4.0, 1)] * 6 + [(0, S, -20.0, 0), (0, B, 2.0, 1)]))
def test_int_coded_update_matches_the_equations(sequence):
    num_states, params, steps = sequence
    reference = ReferenceTable(num_states, **params)
    public = QTable(num_states, **params)
    internal = QTable(num_states, **params)
    batched = batch_table(num_states, **params)
    batched_internal = batch_table(num_states, **params)
    for state, action, reward, next_state in steps:
        old, new, candidate, changed = reference.update(state, action, reward, next_state)
        result = public.update(state, action, reward, next_state)
        assert (result.old_value, result.new_value, result.candidate) == (old, new, candidate)
        assert result.policy_changed == changed
        assert internal._update(state, action.value, reward, next_state) == candidate
        assert batched.update(state, action, reward, next_state).new_value == new
        batched_internal._update(state, action.value, reward, next_state)
    for table in (public, internal, batched, batched_internal):
        assert_same_table(table, reference)


def test_examples_reach_the_tie_and_the_penalty_branch():
    tie = QTable(1, **PAPER_PARAMS)
    result = tie.update(0, C, -1.0, 0)
    assert result.new_value == tie.value(0, B) and not result.policy_changed
    assert tie.policy(0) is B

    penalised = QTable(2, **PAPER_PARAMS)
    for _ in range(6):
        penalised.update(0, S, 4.0, 1)
    result = penalised.update(0, S, -20.0, 0)
    assert result.new_value == result.old_value - PAPER_PARAMS["penalty"] > result.candidate
