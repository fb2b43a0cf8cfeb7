"""MAC-layer substrates: queues, the abstract MAC interface and baselines.

The baselines implemented here are the comparison points of the paper's
evaluation:

* :class:`~repro.mac.csma.UnslottedCsmaCa` — IEEE 802.15.4 unslotted CSMA/CA,
* :class:`~repro.mac.csma.SlottedCsmaCa` — IEEE 802.15.4 slotted CSMA/CA
  (two CCAs on backoff-period boundaries),
* :class:`~repro.mac.aloha.SlottedAloha` and
  :class:`~repro.mac.aloha.AlohaQ` — the frame/slot reinforcement-learning
  baseline family (ALOHA-Q) referenced in the related-work comparison.

* :class:`~repro.mac.tdma.Tdma` — fixed-assignment TDMA, the
  contention-free reference point (and the registry's extensibility proof).

The slotted ones (ALOHA, ALOHA-Q, TDMA) derive from
:class:`~repro.mac.slotted.SlottedMac` and are woken by one shared
:class:`~repro.mac.slotted.SlotClock` per simulator and slot grid, only at
boundaries where they can transmit.

QMA itself lives in :mod:`repro.core`.  Every protocol registers itself by
name in :mod:`repro.mac.registry`; resolve protocols there instead of
hard-coding classes.
"""

from repro.mac.base import MacProtocol, MacStats, TransactionResult
from repro.mac.gate import ActivityGate, AlwaysActiveGate, WindowedGate
from repro.mac.queue import PacketQueue
from repro.mac.csma import CsmaConfig, SlottedCsmaCa, UnslottedCsmaCa
from repro.mac.aloha import AlohaConfig, AlohaQ, SlottedAloha
from repro.mac.tdma import Tdma, TdmaConfig
from repro.mac.registry import (
    MAC_REGISTRY,
    MacSpec,
    create_mac,
    get_mac_spec,
    mac_kinds,
    register_mac,
)

__all__ = [
    "ActivityGate",
    "AlohaConfig",
    "AlohaQ",
    "AlwaysActiveGate",
    "CsmaConfig",
    "MAC_REGISTRY",
    "MacProtocol",
    "MacSpec",
    "MacStats",
    "PacketQueue",
    "SlottedAloha",
    "SlottedCsmaCa",
    "Tdma",
    "TdmaConfig",
    "TransactionResult",
    "UnslottedCsmaCa",
    "WindowedGate",
    "create_mac",
    "get_mac_spec",
    "mac_kinds",
    "register_mac",
]
