"""Tabular Q-value representation with the cooperative multi-agent update.

The table stores one Q-value per (subslot, action) pair plus an explicit
policy entry per subslot.  The update rule is Eq. 5 of the paper — the
optimistic max-update of Lauer & Riedmiller combined with a learning rate α
and the penalty ξ that makes the rule usable in stochastic environments:

    Q(m, a) <- max{ Q(m, a) - ξ,  (1 - α) Q(m, a) + α (R + γ max_a' Q(m', a')) }

The policy table implements Eq. 3: a subslot's policy only changes when an
action's updated Q-value becomes *strictly* greater than the Q-value of the
current policy action, which prevents agents from flip-flopping between
equally good joint policies.

Internally actions are their ``QAction.value`` codes (0/1/2): the Q-values
are flat per-subslot float lists and the policy is a list of codes, so the
per-subslot update of a running agent (:meth:`QTable._update`) never hashes
or dereferences an enum.  :class:`QAction` appears only at the public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.actions import ALL_ACTIONS, QAction

_QBACKOFF = QAction.QBACKOFF.value


@dataclass
class QUpdateResult:
    """Outcome of a single Q-value update (useful for tests and tracing)."""

    state: int
    action: QAction
    old_value: float
    new_value: float
    candidate: float
    policy_changed: bool


class QTable:
    """Q-values and policy of a single QMA agent.

    Parameters
    ----------
    num_states:
        Number of subslots ``M``.
    learning_rate, discount_factor, penalty:
        α, γ and ξ of Eq. 5.
    q_init:
        Initial Q-value.  The paper initialises to a value smaller than the
        largest punishment (-10 in practice, standing in for -inf).
    """

    def __init__(
        self,
        num_states: int,
        learning_rate: float = 0.5,
        discount_factor: float = 0.9,
        penalty: float = 2.0,
        q_init: float = -10.0,
    ) -> None:
        if num_states <= 0:
            raise ValueError("num_states must be positive")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if not 0.0 <= discount_factor <= 1.0:
            raise ValueError("discount_factor must lie in [0, 1]")
        if penalty < 0.0:
            raise ValueError("penalty must be non-negative")
        self.num_states = num_states
        self.learning_rate = learning_rate
        self.discount_factor = discount_factor
        self.penalty = penalty
        self.q_init = q_init
        #: Q(m, a) as flat per-subslot float lists indexed by action code.
        self._values: List[List[float]] = [
            [q_init] * len(ALL_ACTIONS) for _ in range(num_states)
        ]
        #: π(m) as action codes: QBackoff for every subslot (Algorithm 1).
        self._policy: List[int] = [_QBACKOFF] * num_states
        self.updates = 0

    # ------------------------------------------------------------------ access
    def value(self, state: int, action: QAction) -> float:
        """Q(state, action)."""
        return self._values[state][action.value]

    def set_value(self, state: int, action: QAction, value: float) -> None:
        """Directly overwrite a Q-value (used by tests and the worked example)."""
        self._values[state][action.value] = value

    def max_value(self, state: int) -> float:
        """max_a Q(state, a)."""
        return max(self._values[state])

    def best_action(self, state: int) -> QAction:
        """argmax_a Q(state, a); ties resolved in action-declaration order."""
        values = self._values[state]
        best = max(values)
        for action in ALL_ACTIONS:
            if values[action.value] == best:
                return action
        raise AssertionError("unreachable")  # pragma: no cover

    def policy(self, state: int) -> QAction:
        """π(state)."""
        return ALL_ACTIONS[self._policy[state]]

    def set_policy(self, state: int, action: QAction) -> None:
        self._policy[state] = action.value

    def policy_snapshot(self) -> List[QAction]:
        """A copy of the full policy table."""
        return [ALL_ACTIONS[code] for code in self._policy]

    def values_snapshot(self) -> List[Dict[QAction, float]]:
        """A deep copy of the Q-value table (dict rows keyed by action)."""
        return [
            {action: row[action.value] for action in ALL_ACTIONS}
            for row in self._values
        ]

    # ------------------------------------------------------------------ update
    def update(
        self,
        state: int,
        action: QAction,
        reward: float,
        next_state: int,
    ) -> QUpdateResult:
        """Apply Eq. 5 (value update) and Eq. 3 (policy update).

        ``next_state`` is the subslot reached after the action finished, i.e.
        ``(state + i) mod M`` where ``i`` is the number of subslots the action
        spanned.
        """
        if not 0 <= state < self.num_states:
            raise IndexError(f"state {state} out of range")
        if not 0 <= next_state < self.num_states:
            raise IndexError(f"next_state {next_state} out of range")
        code = action.value
        old = self._values[state][code]
        policy_before = self._policy[state]
        candidate = self._update(state, code, reward, next_state)
        return QUpdateResult(
            state,
            action,
            old,
            self._values[state][code],
            candidate,
            self._policy[state] != policy_before,
        )

    def _update(self, state: int, code: int, reward: float, next_state: int) -> float:
        """Eq. 5 and Eq. 3 for action code ``code``; returns the Eq. 5 candidate.

        The unchecked, allocation-free form a running agent calls once per
        evaluated action.
        """
        alpha = self.learning_rate
        values = self._values
        row = values[state]
        old = row[code]
        candidate = (1.0 - alpha) * old + alpha * (
            reward + self.discount_factor * max(values[next_state])
        )
        new = old - self.penalty
        if candidate > new:
            new = candidate
        row[code] = new
        self.updates += 1
        policy = self._policy
        current = policy[state]
        if code != current and new > row[current]:
            # Eq. 3: only switch to a strictly better action.
            policy[state] = code
        return candidate

    # --------------------------------------------------------------- metrics
    def cumulative_policy_value(self) -> float:
        """Sum of Q-values of the policy actions over all subslots (Fig. 10 metric)."""
        return sum(row[code] for row, code in zip(self._values, self._policy))

    def cumulative_max_value(self) -> float:
        """Sum of the per-subslot maximum Q-values."""
        return sum(self.max_value(m) for m in range(self.num_states))

    def transmission_subslots(self) -> List[int]:
        """Subslots whose policy is a transmitting action (QCCA or QSend)."""
        return [m for m, code in enumerate(self._policy) if code != _QBACKOFF]

    def policy_counts(self) -> Dict[QAction, int]:
        """Number of subslots assigned to each action by the current policy."""
        counts = {action: 0 for action in ALL_ACTIONS}
        for code in self._policy:
            counts[ALL_ACTIONS[code]] += 1
        return counts

    def memory_footprint_bytes(self, bytes_per_entry: int = 4) -> int:
        """Approximate memory usage of the table on an embedded device.

        The paper stresses resource efficiency: with ``M`` subslots and three
        actions the table has ``3 M`` Q-values plus ``M`` policy entries.
        """
        return self.num_states * (len(ALL_ACTIONS) * bytes_per_entry + 1)

    # ----------------------------------------------------------------- misc
    def reset(self) -> None:
        """Reset all Q-values and the policy to their initial state."""
        for row in self._values:
            row[:] = [self.q_init] * len(ALL_ACTIONS)
        self._policy[:] = [_QBACKOFF] * self.num_states
        self.updates = 0

    def as_rows(self) -> List[Tuple[int, float, float, float, str]]:
        """Table rows ``(subslot, Q_B, Q_C, Q_S, policy)`` for pretty printing."""
        rows = []
        for m in range(self.num_states):
            values = self._values[m]
            rows.append(
                (
                    m,
                    values[QAction.QBACKOFF.value],
                    values[QAction.QCCA.value],
                    values[QAction.QSEND.value],
                    ALL_ACTIONS[self._policy[m]].short_name,
                )
            )
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"QTable(states={self.num_states}, updates={self.updates}, "
            f"cumulative={self.cumulative_policy_value():.1f})"
        )
