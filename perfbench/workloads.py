"""The four campaign workloads of the benchmark.

Each workload turns the benchmark seed into a sweep (the program sees only
the generated sweep), starts whatever its backend needs, and runs the
campaign through the repository's public campaign API.  Why each workload
exists, and which layer it stresses, is in ``perfbench/README.md``.

A workload builds its sweep from the seed when it is created;
:meth:`Workload.setup` starts the backend (pool runner, agents) without
running anything, :meth:`Workload.campaign` runs the campaign into the
given sinks, and :meth:`Workload.teardown` stops whatever ``setup``
started.  :meth:`Workload.open_sink` is where the records go (memory, or a
JSONL file), and :meth:`Workload.delivered` reads them back afterwards.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from typing import Any, Dict, List

from repro.campaign import CampaignRunner, RunRecord, Sweep
from repro.campaign.frame import JsonlRecordSink, RecordSink, iter_jsonl
from repro.service import AgentServer, CampaignAgent, PoolBackend, RemoteBackend, run_checkpointed

#: Workers or connections in use at once: the machine has two cores.
WORKERS = 2


def sweep_seeds(name: str, seed: int, count: int) -> List[int]:
    """``count`` distinct simulation seeds drawn from the benchmark seed."""
    rng = random.Random(f"{name}:{seed}")
    return sorted(rng.sample(range(1, 1_000_000), count))


class Workload:
    """One named campaign: sweep from the seed, backend, campaign call."""

    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.sweep = self.make_sweep(seed)
        #: Terminal campaign status; ``run_checkpointed`` reports its own.
        self.status = "complete"

    def make_sweep(self, seed: int) -> Sweep:
        raise NotImplementedError

    def setup(self) -> None:
        """Start the backend; runs nothing."""

    def open_sink(self) -> RecordSink:
        """The sink that receives the campaign's records."""
        return _ListSink()

    def delivered(self, sink: RecordSink) -> List[RunRecord]:
        """The records :meth:`open_sink`'s sink received."""
        return sink.records

    def check(self, record: RunRecord) -> List[str]:
        """Workload-specific reasons why ``record`` is wrong (none by default)."""
        return []

    def campaign(self, sinks: List[RecordSink]) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop what :meth:`setup` started (idempotent)."""

    def journal_paths(self) -> List[str]:
        """Checkpoint journals this workload wrote (for ``journal.bytes``)."""
        return []


class _RunnerWorkload(Workload):
    """A campaign streamed by :class:`CampaignRunner` over its worker pool."""

    batch_seeds = 1

    def setup(self) -> None:
        self.runner = CampaignRunner(jobs=WORKERS, batch_seeds=self.batch_seeds)

    def campaign(self, sinks: List[RecordSink]) -> None:
        self.runner.stream(self.sweep, sinks=sinks, collect=False)

    def teardown(self) -> None:
        runner = getattr(self, "runner", None)
        if runner is not None:
            runner.close()


class StarQmaBatched(_RunnerWorkload):
    """Fig. 19 star, QMA, seed-batched: the batch kernel does the work."""

    name = "star-qma-batched"
    batch_seeds = 4

    def make_sweep(self, seed: int) -> Sweep:
        return Sweep(
            experiment="testbed-star",
            macs=["qma"],
            fixed={"packets_per_node": 10, "warmup": 2.0, "max_duration": 6.0},
            seeds=sweep_seeds(self.name, seed, 16),
        )


class DsmeScalability(_RunnerWorkload):
    """Fig. 21 DSME scalability, 43 nodes: engine drain and PHY fan-out."""

    name = "dsme-scalability"

    def make_sweep(self, seed: int) -> Sweep:
        return Sweep(
            experiment="scalability",
            macs=["qma", "unslotted-csma"],
            fixed={"rings": 3, "duration": 12.0, "warmup": 8.0},
            seeds=sweep_seeds(self.name, seed, 2),
        )

    def check(self, record: RunRecord) -> List[str]:
        # By 12 s the CSMA/CA network has formed and carries GTS traffic;
        # QMA's has not (its PDR is often 0 here, and near 0 even at 60 s).
        if record.scenario.mac != "unslotted-csma":
            return []
        return [
            f"{name} is {record.metrics[name]}, expected > 0"
            for name in ("primary_pdr", "secondary_pdr")
            if not record.metrics[name] > 0.0
        ]


class _CheckpointedWorkload(Workload):
    """A campaign driven by :func:`run_checkpointed` under a fresh journal."""

    def journal_paths(self) -> List[str]:
        return [os.path.join(self.workdir, "campaign.journal.jsonl")]

    def make_backend(self) -> Any:
        raise NotImplementedError

    def setup(self) -> None:
        self.backend = self.make_backend()

    def campaign(self, sinks: List[RecordSink]) -> None:
        outcome = run_checkpointed(
            self.sweep, self.journal_paths()[0], backend=self.backend, sinks=sinks
        )
        self.status = outcome.status

    def teardown(self) -> None:
        backend = getattr(self, "backend", None)
        if backend is not None:
            backend.close()


class ShortSweepCheckpointed(_CheckpointedWorkload):
    """Fig. 7 hidden node without QMA: short runs, per-run fixed costs."""

    name = "short-sweep-checkpointed"

    def make_sweep(self, seed: int) -> Sweep:
        return Sweep(
            experiment="hidden-node",
            macs=["unslotted-csma", "slotted-csma", "slotted-aloha", "tdma"],
            propagations=[None, "fading"],
            grid={"delta": [2.0, 10.0], "link_distance": [40.0, 60.0]},
            fixed={"packets_per_node": 40, "warmup": 10.0},
            seeds=sweep_seeds(self.name, seed, 8),
        )

    def make_backend(self) -> Any:
        return PoolBackend(jobs=WORKERS)

    def open_sink(self) -> RecordSink:
        return JsonlRecordSink(os.path.join(self.workdir, "records.jsonl"))

    def delivered(self, sink: RecordSink) -> List[RunRecord]:
        return list(iter_jsonl(sink.path))


class SinrRemote(_CheckpointedWorkload):
    """SINR hidden node over two loopback agents: remote transport + SINR PHY."""

    name = "sinr-remote"

    def make_sweep(self, seed: int) -> Sweep:
        return Sweep(
            experiment="sinr-hidden-node",
            macs=["unslotted-csma", "slotted-csma", "slotted-aloha"],
            grid={"sinr_threshold_db": [6.0, 10.0]},
            seeds=sweep_seeds(self.name, seed, 10),
        )

    def setup(self) -> None:
        self.servers: List[AgentServer] = []
        hosts = []
        for i in range(WORKERS):
            agent = CampaignAgent(
                workdir=os.path.join(self.workdir, f"agent{i}"), name=f"bench{i}"
            )
            server = AgentServer(agent)
            host, port = server.start()
            self.servers.append(server)
            hosts.append(f"{host}:{port}*1")
        self.backend = RemoteBackend(hosts)

    def agent_journals(self) -> List[str]:
        """Shard journals the agents streamed back (``remote.stream_bytes``)."""
        paths = []
        for i in range(WORKERS):
            root = os.path.join(self.workdir, f"agent{i}")
            for dirpath, _, files in os.walk(root):
                paths += [os.path.join(dirpath, f) for f in files if f.endswith(".jsonl")]
        return paths

    def teardown(self) -> None:
        super().teardown()
        for server in getattr(self, "servers", []):
            server.stop()
        self.servers = []


class _ListSink(RecordSink):
    """A record sink that keeps the records in memory."""

    def __init__(self) -> None:
        super().__init__()
        self.records: List[RunRecord] = []

    def write(self, record: RunRecord) -> None:
        super().write(record)
        self.records.append(record)


class StampSink(RecordSink):
    """A record sink that notes when the last record arrived."""

    def __init__(self) -> None:
        super().__init__()
        self.last = 0.0

    def write(self, record: RunRecord) -> None:
        super().write(record)
        self.last = time.monotonic()


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (StarQmaBatched, ShortSweepCheckpointed, DsmeScalability, SinrRemote)
}


def make_workload(name: str, seed: int, workdir: str) -> Workload:
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    return WORKLOADS[name](seed, workdir)

