"""The declarative scenario specification consumed by the builder.

A :class:`ScenarioConfig` names every axis of a simulation — topology,
propagation model, channel-access scheme, link quality and master seed — as
plain data.  Names are resolved through the registries
(:mod:`repro.mac.registry`, :mod:`repro.phy.registry` and the topology
table of :mod:`repro.scenario.builder`), so a config mentioning a new MAC
or channel model works the moment the providing module is imported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


def _hashable(value: Any) -> Any:
    """Recursively normalise a parameter value into a hashable equivalent.

    Dicts become sorted item tuples, sequences become tuples, sets become
    repr-sorted tuples.  Raises TypeError for values that stay unhashable —
    the caller then treats the configuration as uncacheable.
    """
    if isinstance(value, dict):
        return tuple((key, _hashable(item)) for key, item in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((_hashable(item) for item in value), key=repr))
    hash(value)  # TypeError for unhashable leaves
    return value


@dataclass
class ScenarioConfig:
    """Everything needed to assemble one simulation.

    Parameters
    ----------
    topology:
        Registered topology name (``hidden-node``, ``iotlab-tree``,
        ``iotlab-star``, ``concentric``); ``topology_params`` are forwarded
        to the topology factory.
    mac:
        Registered MAC name.  ``mac_config`` optionally carries the
        protocol's config dataclass instance; ``mac_params`` extra
        per-protocol constructor knobs (e.g. QMA's ``rewards``).
    propagation:
        Optional registered propagation-model name.  When set, the
        topology's link set is re-derived from node positions through the
        model (and the routing tree rebuilt); when None the topology's
        explicit links are used.  Models with a ``seed`` constructor
        parameter receive the scenario seed unless ``propagation_params``
        overrides it.
    link_error_rate:
        Uniform per-link packet error rate applied to every link.
    interference:
        Channel interference model: ``"collision"`` (default, the paper's
        binary overlap world) or ``"sinr"`` (signal-power interference with
        capture and a decoupled carrier-sense range; see
        :mod:`repro.phy.channel`).  SINR requires a propagation model —
        received powers come from its ``received_power_dbm``.
    sinr_threshold_db:
        Capture threshold of the SINR model; ignored under ``collision``.
        Under either model the channel delivers over one link table derived
        from its own wiring and rebuilt in full after any topology mutation
        (see :mod:`repro.phy.channel`).
    seed:
        Master seed of the simulation's RNG registry.
    trace / trace_limit:
        Enable the simulator's trace recorder, optionally bounded to
        ``trace_limit`` records (further records are counted as dropped,
        see :class:`repro.sim.trace.TraceRecorder`); campaign sweeps bound
        traced runs by default.
    """

    topology: str = "hidden-node"
    topology_params: Dict[str, Any] = field(default_factory=dict)
    mac: str = "qma"
    mac_config: Optional[Any] = None
    mac_params: Dict[str, Any] = field(default_factory=dict)
    propagation: Optional[str] = None
    propagation_params: Dict[str, Any] = field(default_factory=dict)
    link_error_rate: float = 0.0
    interference: str = "collision"
    sinr_threshold_db: float = 10.0
    seed: int = 0
    trace: bool = False
    trace_limit: Optional[int] = None

    def __post_init__(self) -> None:
        from repro.mac.registry import MAC_REGISTRY
        from repro.phy.channel import INTERFERENCE_MODELS
        from repro.phy.registry import PROPAGATION_REGISTRY

        if self.mac not in MAC_REGISTRY:
            raise ValueError(
                f"unknown MAC kind {self.mac!r}; expected one of "
                f"{tuple(sorted(MAC_REGISTRY.names()))}"
            )
        if self.propagation is not None and self.propagation not in PROPAGATION_REGISTRY:
            raise ValueError(
                f"unknown propagation model {self.propagation!r}; expected one of "
                f"{tuple(sorted(PROPAGATION_REGISTRY.names()))}"
            )
        if not 0.0 <= self.link_error_rate <= 1.0:
            raise ValueError("link_error_rate must lie in [0, 1]")
        if self.interference not in INTERFERENCE_MODELS:
            raise ValueError(
                f"unknown interference model {self.interference!r}; "
                f"expected one of {INTERFERENCE_MODELS}"
            )
        if self.interference == "sinr" and self.propagation is None:
            raise ValueError(
                "interference='sinr' needs a propagation model "
                "(received powers come from received_power_dbm)"
            )
        if self.trace_limit is not None and self.trace_limit < 0:
            raise ValueError("trace_limit must be non-negative (or None for unbounded)")

    # -------------------------------------------------------------- caching
    def cache_key(self) -> Optional[Tuple[Any, ...]]:
        """Deterministic key of the construction-relevant half of the config.

        Two configs with equal keys build identical construction artifacts
        (topology, link set, SINR power rows) — so artifacts can be cached
        under the key and shared across runs.  The key covers topology,
        topology params, propagation model/params, link error rate and the
        interference model; it deliberately *excludes* the master ``seed``, the
        MAC axis and tracing, which only shape per-run state.

        The seed re-enters the key exactly where it feeds construction:
        when the topology factory or the propagation model accepts a
        ``seed`` the builder injects the scenario seed (unless the params
        pin one), so the effective construction seed is part of the key —
        seeded random topologies and unpinned ``fading`` links are cached
        per seed, never shared across different draws.

        Returns None for uncacheable configs (unhashable parameter values
        or an unregistered topology); the builder then skips the cache.
        """
        from repro.phy.registry import get_propagation_spec
        from repro.registry import RegistryError
        from repro.scenario.builder import topology_accepts_seed

        try:
            topology_params = _hashable(self.topology_params)
            propagation_params = _hashable(self.propagation_params)
            topology_seeded = (
                "seed" not in self.topology_params and topology_accepts_seed(self.topology)
            )
        except (TypeError, RegistryError):
            return None
        # Layout version of the artifact bundle: bump it whenever the
        # bundle's contents change shape.
        parts: list = ["scenario-artifacts/3", self.topology, topology_params]
        if topology_seeded:
            parts.append(("topology-seed", self.seed))
        parts.append(self.propagation)
        if self.propagation is not None:
            parts.append(propagation_params)
            spec = get_propagation_spec(self.propagation)
            if "seed" not in self.propagation_params and spec.accepts_seed():
                parts.append(("propagation-seed", self.seed))
        parts.append(self.link_error_rate)
        # The interference model shapes the artifacts themselves (power
        # column, carrier-sense rows), so a collision-era bundle can never
        # be served to a SINR run or vice versa.  The carrier-sense range /
        # CCA sensitivity is part of propagation_params and therefore
        # already covered above; the SINR threshold only matters when the
        # SINR model is active.
        parts.append(("interference", self.interference))
        if self.interference == "sinr":
            parts.append(("sinr-threshold", self.sinr_threshold_db))
        return tuple(parts)
