"""The typed simulation report produced by every experiment runner.

A :class:`SimReport` is the single result type of the reproduction: scalar
metrics keyed by name, named time series, per-node tables and typed detail
objects, plus the scenario identity (experiment, MAC, topology, parameters)
and the simulated duration.  It replaces the per-experiment result
dataclasses of earlier releases.

Scalars and scenario parameters are additionally readable as attributes
(``report.pdr``, ``report.delta``); everything else lives in its section
(``report.tables["q_history"]``, ``report.details["secondary"]``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple


@dataclass
class SimReport:
    """Structured result of one simulation run.

    Parameters
    ----------
    experiment / mac / topology / params:
        Scenario identity; ``params`` holds the runner's keyword arguments
        (``delta``, ``rings``, ...).
    duration:
        Simulated time at the end of the run (``sim.now``).
    scalars:
        Scalar metrics keyed by name; these are what the campaign layer
        exports and aggregates.
    series:
        Named time series as ``[(time, value), ...]`` lists.
    tables:
        Named per-node tables (``{name: {node_id: value}}``).
    details:
        Typed auxiliary result objects that fit neither scalars nor tables
        (e.g. :class:`~repro.dsme.network.SecondaryTrafficStats`).
    trace_dropped:
        Number of trace records discarded because the run's
        :class:`~repro.sim.trace.TraceRecorder` hit its ``max_records``
        bound (0 when tracing was off or unbounded).
    """

    experiment: str = ""
    mac: str = ""
    topology: str = ""
    params: Dict[str, Any] = field(default_factory=dict)
    duration: float = 0.0
    scalars: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    tables: Dict[str, Dict[Any, Any]] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    trace_dropped: int = 0

    # -------------------------------------------------------------- accessors
    def scalar(self, name: str) -> float:
        """Look up a scalar metric; raises :class:`KeyError` listing known names."""
        try:
            return self.scalars[name]
        except KeyError:
            known = ", ".join(sorted(self.scalars)) or "<none>"
            raise KeyError(f"report has no scalar {name!r}; available: {known}") from None

    def table(self, name: str) -> Dict[Any, Any]:
        """Look up a per-node table; raises :class:`KeyError` listing known names."""
        try:
            return self.tables[name]
        except KeyError:
            known = ", ".join(sorted(self.tables)) or "<none>"
            raise KeyError(f"report has no table {name!r}; available: {known}") from None

    def __getattr__(self, name: str) -> Any:
        # Only reached when normal attribute lookup fails.  Guard against
        # recursion while the instance dict is still empty (unpickling).
        if name.startswith("_"):
            raise AttributeError(name)
        data = object.__getattribute__(self, "__dict__")
        scalars = data.get("scalars")
        if scalars is not None and name in scalars:
            return scalars[name]
        params = data.get("params")
        if params is not None and name in params:
            return params[name]
        raise AttributeError(
            f"{type(self).__name__!s} has no attribute {name!r} "
            f"(scalars: {sorted(scalars or ())}, params: {sorted(params or ())})"
        )

    # ----------------------------------------------------------------- export
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready view: identity, scalars, series, tables and trace info.

        ``details`` objects are omitted (they are arbitrary Python objects);
        table keys are stringified so the result is JSON-serialisable.
        """
        return {
            "experiment": self.experiment,
            "mac": self.mac,
            "topology": self.topology,
            "params": dict(self.params),
            "duration": self.duration,
            "scalars": dict(self.scalars),
            "series": {name: [list(sample) for sample in samples] for name, samples in self.series.items()},
            "tables": {
                name: {str(key): value for key, value in table.items()}
                for name, table in self.tables.items()
            },
            "trace_dropped": self.trace_dropped,
        }
