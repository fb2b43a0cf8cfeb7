"""Campaign service: resumable, checkpointed, sharded, supervised sweeps.

The service layer turns the campaign runner into infrastructure for
million-run sweeps:

* :mod:`repro.service.manifest` — deterministic run identity (spec
  digests, expansion indices, affinity-ordered shard splits);
* :mod:`repro.service.journal` — the append-only, crash-tolerant
  checkpoint journal (with event audit lines and sealed-segment
  compaction);
* :mod:`repro.service.backends` — pluggable dispatch (warm in-process
  pool, agent-dispatched shards, isolated serial);
* :mod:`repro.service.supervisor` — fault tolerance: per-run timeouts,
  heartbeats, bounded retry with backoff, poison-run quarantine, and
  graceful backend degradation (agent shards → pool → isolated serial);
* :mod:`repro.service.faults` — the deterministic fault-injection
  harness behind the chaos test matrix;
* :mod:`repro.service.checkpoint` — the resume-safe driver shared by the
  CLI and the service;
* :mod:`repro.service.remote` / :mod:`repro.service.agent` — shard
  dispatch: agents (remote hosts, or in-process loopback agents for
  ``--shards N``) executing shard job documents, with host-health
  quarantine and byte-offset-resumable journal streaming;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  long-lived asyncio front end and its blocking client.
"""

from repro.service.backends import (
    DispatchBackend,
    PoolBackend,
    SerialBackend,
    make_backend,
)
from repro.service.checkpoint import CheckpointOutcome, run_checkpointed
from repro.service.client import ServiceClient, ServiceError
from repro.service.faults import Fault, FaultPlan, InjectedFault
from repro.service.journal import (
    CheckpointJournal,
    JournalError,
    SweepMismatchError,
)
from repro.service.manifest import (
    affinity_order,
    record_digest,
    run_id,
    split_shards,
    sweep_digest,
)
from repro.service.agent import AgentServer, CampaignAgent
from repro.service.remote import (
    HostRegistry,
    HostSpec,
    RemoteBackend,
    RemoteDispatchError,
    ShardFailure,
    parse_hosts,
)
from repro.service.server import CampaignServer, CampaignService
from repro.service.supervisor import (
    RetryPolicy,
    SupervisedBackend,
    load_quarantine,
    make_supervised,
    quarantine_path,
    retry_quarantined,
)

__all__ = [
    "AgentServer",
    "CampaignAgent",
    "CampaignServer",
    "CampaignService",
    "CheckpointJournal",
    "CheckpointOutcome",
    "DispatchBackend",
    "Fault",
    "FaultPlan",
    "HostRegistry",
    "HostSpec",
    "InjectedFault",
    "JournalError",
    "PoolBackend",
    "RemoteBackend",
    "RemoteDispatchError",
    "RetryPolicy",
    "SerialBackend",
    "ServiceClient",
    "ServiceError",
    "ShardFailure",
    "SupervisedBackend",
    "SweepMismatchError",
    "affinity_order",
    "load_quarantine",
    "make_backend",
    "make_supervised",
    "parse_hosts",
    "quarantine_path",
    "record_digest",
    "retry_quarantined",
    "run_checkpointed",
    "run_id",
    "split_shards",
    "sweep_digest",
]
