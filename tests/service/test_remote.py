"""Cross-host dispatch: agents, host health, stream merging, chaos matrix.

The robustness contracts of :mod:`repro.service.remote`:

* hosts declarations are validated up front (line numbers, duplicate
  detection) and ``make_backend`` errors name the valid backends and the
  option source;
* the journal stream merger survives a connection torn at *every* byte
  offset of a completion line — the re-attach resumes at the last fully
  processed byte, recomputing nothing and duplicating nothing;
* a two-localhost-agent remote run is bit-identical to the loopback
  shard and pool backends, including after an agent is SIGKILLed
  mid-campaign (the lost slice is reassigned to the surviving host);
* injected network faults (``drop-stream``, ``partition``,
  ``slow-link``, ``agent-crash``) heal through transport retry, host
  quarantine and slice reassignment — and when every host is gone the
  supervision ladder degrades remote -> pool and still finishes.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import Sweep
from repro.scenario import ARTIFACT_CACHE
from repro.service.agent import AgentServer, CampaignAgent
from repro.service.backends import PoolBackend, make_backend
from repro.service.client import ServiceClient
from repro.service.faults import FaultPlan
from repro.service.journal import CheckpointJournal, JournalError
from repro.service.remote import (
    HostRegistry,
    HostSpec,
    JournalStreamMerger,
    RemoteBackend,
    RemoteDispatchError,
    StreamProtocolError,
    parse_host_entry,
    parse_hosts,
    parse_hosts_file,
)
from repro.service.supervisor import make_supervised

FIXED = {
    "packets_per_node": 2,
    "warmup": 0.2,
    "drain_time": 0.1,
    "management_period": 0.5,
}


@pytest.fixture(autouse=True)
def _clean_cache():
    ARTIFACT_CACHE.clear()
    yield
    ARTIFACT_CACHE.clear()


def make_sweep(seeds=3):
    return Sweep(
        experiment="hidden-node",
        macs=["unslotted-csma"],
        grid={"delta": [50.0, 100.0]},
        fixed=FIXED,
        seeds=list(range(seeds)),
    )


def reference_records(sweep):
    with CampaignRunner() as runner:
        return [record.to_dict() for record in runner.run(sweep).records]


def run_via(backend, sweep, tmp_path, name="b.jsonl", indices=None):
    journal = CheckpointJournal.create(str(tmp_path / name), sweep)
    try:
        backend.run(
            sweep,
            list(range(sweep.size)) if indices is None else indices,
            journal,
        )
        return {index: record.to_dict() for index, record in journal.iter_completed()}
    finally:
        journal.close()
        backend.close()


@pytest.fixture()
def agents(tmp_path):
    """Two in-process localhost agents; yields their HOST:PORT*CAP entries."""
    servers = []
    hosts = []
    for i in range(2):
        agent = CampaignAgent(workdir=str(tmp_path / f"agent{i}"), name=f"a{i}")
        server = AgentServer(agent)
        host, port = server.start()
        servers.append(server)
        hosts.append(f"{host}:{port}*2")
    yield hosts
    for server in servers:
        server.stop()


# ------------------------------------------------------------ host parsing


class TestHostParsing:
    def test_entry_forms(self):
        assert parse_host_entry("127.0.0.1:9000") == HostSpec("127.0.0.1", 9000, 1)
        assert parse_host_entry("node-a:8000*4") == HostSpec("node-a", 8000, 4)

    @pytest.mark.parametrize(
        "bad", ["127.0.0.1", "host:port", "host:9000*x", "host:9000*0", "host:70000"]
    )
    def test_invalid_entries_raise(self, bad):
        with pytest.raises(ValueError):
            parse_host_entry(bad)

    def test_hosts_file_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "hosts"
        path.write_text("# fleet\n127.0.0.1:9000*2\n\nnot-a-host\n")
        with pytest.raises(ValueError, match=r"line 4"):
            parse_hosts_file(str(path))

    def test_hosts_file_parses_comments_and_caps(self, tmp_path):
        path = tmp_path / "hosts"
        path.write_text("# fleet\n127.0.0.1:9000*2  # big box\n127.0.0.1:9001\n")
        assert parse_hosts_file(str(path)) == [
            HostSpec("127.0.0.1", 9000, 2),
            HostSpec("127.0.0.1", 9001, 1),
        ]

    def test_parse_hosts_mixes_inline_and_file(self, tmp_path):
        path = tmp_path / "hosts"
        path.write_text("127.0.0.1:9001\n")
        specs = parse_hosts(["127.0.0.1:9000*2", f"@{path}"])
        assert [spec.key for spec in specs] == ["127.0.0.1:9000", "127.0.0.1:9001"]

    def test_duplicates_and_empty_rejected(self):
        with pytest.raises(ValueError, match="duplicate host"):
            parse_hosts(["h:1", "h:1*2"])
        with pytest.raises(ValueError, match="no hosts declared"):
            parse_hosts([])

    def test_error_names_the_source(self):
        with pytest.raises(ValueError, match=re.escape("submit options")):
            parse_hosts(["nope:xx"], source="submit options")


class TestMakeBackendErrors:
    def test_unknown_backend_lists_valid_kinds_and_source(self):
        with pytest.raises(ValueError) as excinfo:
            make_backend({"backend": "bogus"}, source="--backend")
        message = str(excinfo.value)
        assert "unknown dispatch backend 'bogus'" in message
        assert "(from --backend)" in message
        for kind in ("pool", "shard", "serial", "remote"):
            assert kind in message

    def test_unknown_option_names_source(self):
        with pytest.raises(ValueError) as excinfo:
            make_backend(
                {"backend": "remote", "hosts": ["h:1"], "bogus": 1},
                source="submit options",
            )
        message = str(excinfo.value)
        assert "unknown option(s) ['bogus']" in message
        assert "(from submit options)" in message

    def test_remote_requires_hosts(self):
        with pytest.raises(ValueError, match="no hosts declared"):
            make_backend({"backend": "remote"})


# ------------------------------------------------------------ host registry


class TestHostRegistry:
    def test_quarantine_after_consecutive_failures(self):
        registry = HostRegistry([HostSpec("h", 1)], max_failures=2, probation=60.0)
        assert registry.failure("h:1", "boom") is False
        assert registry.has_available()
        assert registry.failure("h:1", "boom") is True
        assert not registry.has_available()
        assert registry.acquire() is None
        snapshot = registry.snapshot()[0]
        assert snapshot["state"] == "quarantined"
        assert [event["kind"] for event in snapshot["events"]].count("quarantine") == 1

    def test_probation_expires_and_success_heals(self):
        registry = HostRegistry([HostSpec("h", 1)], max_failures=1, probation=0.05)
        registry.failure("h:1", "boom")
        assert registry.acquire() is None
        time.sleep(0.08)
        assert registry.acquire() == HostSpec("h", 1)
        registry.success("h:1")
        assert registry.snapshot()[0]["state"] == "healthy"
        assert registry.snapshot()[0]["failures"] == 0

    def test_acquire_respects_caps_and_load(self):
        registry = HostRegistry([HostSpec("a", 1, cap=1), HostSpec("b", 2, cap=2)])
        leases = [registry.acquire() for _ in range(3)]
        assert sorted(spec.key for spec in leases) == ["a:1", "b:2", "b:2"]
        assert registry.acquire() is None  # all caps exhausted
        registry.release("b:2")
        assert registry.acquire().key == "b:2"


# ----------------------------------------------------------- stream merging


def _stream_bytes(sweep, tmp_path):
    """Raw shard-journal bytes (header + completions) for merger tests."""
    source = CheckpointJournal.create(str(tmp_path / "src.jsonl"), sweep)
    backend = PoolBackend()
    try:
        backend.run(sweep, list(range(sweep.size)), source)
    finally:
        source.close()
        backend.close()
    with open(tmp_path / "src.jsonl", "rb") as handle:
        return handle.read()


class TestJournalStreamMerger:
    def test_single_feed_merges_everything(self, tmp_path):
        sweep = make_sweep(seeds=2)
        raw = _stream_bytes(sweep, tmp_path)
        journal = CheckpointJournal.create(str(tmp_path / "dst.jsonl"), sweep)
        merger = JournalStreamMerger(journal, threading.Lock())
        merger.feed(0, raw)
        assert merger.merged == sweep.size
        assert merger.complete == len(raw)
        assert journal.pending_indices() == []
        journal.close()

    def test_reconnect_fuzz_at_every_byte_of_final_line(self, tmp_path):
        """Mirror of the journal torn-write fuzz, applied to the stream.

        The connection drops at every byte offset of the final completion
        line (and a sample of earlier offsets); the re-attach resumes at
        ``merger.complete`` and the merged journal is always complete,
        with no run merged twice.
        """
        sweep = make_sweep(seeds=2)
        raw = _stream_bytes(sweep, tmp_path)
        body = raw[: raw.rstrip(b"\n").rfind(b"\n") + 1]
        final_start = len(body)
        assert len(raw) - final_start > 100

        cuts = sorted(
            set(range(final_start, len(raw)))
            | set(range(0, final_start, max(1, final_start // 23)))
        )
        for cut in cuts:
            journal = CheckpointJournal.create(str(tmp_path / "dst.jsonl"), sweep)
            merger = JournalStreamMerger(journal, threading.Lock())
            merger.feed(0, raw[:cut])
            # Connection drops here; the dispatcher reconnects and the
            # agent resumes from the last fully processed byte.
            merger.reset(merger.complete)
            merger.feed(merger.complete, raw[merger.complete:])
            assert merger.merged == sweep.size, f"cut at byte {cut}"
            assert journal.pending_indices() == [], f"cut at byte {cut}"
            journal.close()

    def test_restart_from_zero_skips_already_merged(self, tmp_path):
        sweep = make_sweep(seeds=2)
        raw = _stream_bytes(sweep, tmp_path)
        journal = CheckpointJournal.create(str(tmp_path / "dst.jsonl"), sweep)
        merger = JournalStreamMerger(journal, threading.Lock())
        merger.feed(0, raw)
        first = merger.merged
        # Agent restarted: new stream token, offset 0 — every line is
        # re-fed but nothing is appended twice.
        merger.reset(0)
        merger.feed(0, raw)
        assert merger.merged == first
        assert len(dict(journal.iter_completed())) == sweep.size
        journal.close()

    def test_offset_gap_is_a_protocol_error(self, tmp_path):
        sweep = make_sweep(seeds=2)
        raw = _stream_bytes(sweep, tmp_path)
        journal = CheckpointJournal.create(str(tmp_path / "dst.jsonl"), sweep)
        merger = JournalStreamMerger(journal, threading.Lock())
        with pytest.raises(StreamProtocolError):
            merger.feed(10, raw[10:])
        journal.close()

    def test_corrupted_record_digest_is_rejected(self, tmp_path):
        sweep = make_sweep(seeds=2)
        raw = _stream_bytes(sweep, tmp_path)
        lines = raw.splitlines(keepends=True)
        data = json.loads(lines[-1])
        metric = next(iter(data["record"]["metrics"]))
        data["record"]["metrics"][metric] += 1.0  # digest now stale
        lines[-1] = json.dumps(data).encode("utf-8") + b"\n"
        tampered = b"".join(lines)
        journal = CheckpointJournal.create(str(tmp_path / "dst.jsonl"), sweep)
        merger = JournalStreamMerger(journal, threading.Lock())
        with pytest.raises(JournalError, match="digest mismatch"):
            merger.feed(0, tampered)
        journal.close()

    def test_wrong_spec_digest_header_is_rejected(self, tmp_path):
        sweep = make_sweep(seeds=2)
        raw = _stream_bytes(sweep, tmp_path)
        other = make_sweep(seeds=3)
        journal = CheckpointJournal.create(str(tmp_path / "dst.jsonl"), other)
        merger = JournalStreamMerger(journal, threading.Lock())
        with pytest.raises(JournalError, match="spec digest"):
            merger.feed(0, raw)
        journal.close()


# ------------------------------------------------- determinism matrix


class TestRemoteDeterminism:
    def test_remote_matches_shard_and_pool(self, tmp_path, agents):
        sweep = make_sweep(seeds=3)
        reference = reference_records(sweep)
        remote = run_via(RemoteBackend(agents), sweep, tmp_path, "remote.jsonl")
        shard = run_via(
            make_backend({"backend": "shard", "shards": 2}),
            sweep,
            tmp_path,
            "shard.jsonl",
        )
        pool = run_via(PoolBackend(), sweep, tmp_path, "pool.jsonl")
        assert [remote[i] for i in range(sweep.size)] == reference
        assert remote == shard == pool

    def test_remote_resumes_partial_journal(self, tmp_path, agents):
        sweep = make_sweep(seeds=3)
        journal = CheckpointJournal.create(str(tmp_path / "r.jsonl"), sweep)
        backend = RemoteBackend(agents)
        try:
            backend.run(sweep, list(range(0, sweep.size, 2)), journal)
            done = set(dict(journal.iter_completed()))
            assert done == set(range(0, sweep.size, 2))
            backend.run(sweep, journal.pending_indices(), journal)
            merged = {i: r.to_dict() for i, r in journal.iter_completed()}
        finally:
            journal.close()
            backend.close()
        assert [merged[i] for i in range(sweep.size)] == reference_records(sweep)


def _spawn_agent(tmp_path, name):
    """Subprocess agent via the CLI verb; returns (proc, 'host:port')."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "agent",
            "--port", "0", "--workdir", str(tmp_path / name), "--name", name,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+:\d+)", line)
    assert match, f"no listening line from agent: {line!r}"
    return proc, match.group(1)


class TestAgentLoss:
    def test_sigkilled_agent_slice_is_reassigned(self, tmp_path):
        sweep = make_sweep(seeds=4)
        procs = []
        try:
            victim, victim_host = _spawn_agent(tmp_path, "victim")
            survivor, survivor_host = _spawn_agent(tmp_path, "survivor")
            procs = [victim, survivor]
            journal = CheckpointJournal.create(str(tmp_path / "kill.jsonl"), sweep)
            backend = RemoteBackend(
                [victim_host, survivor_host],
                transport_attempts=2,
                host_failures=1,
                probation=60.0,
                io_timeout=10.0,
            )
            runner = threading.Thread(
                target=backend.run, args=(sweep, list(range(sweep.size)), journal)
            )
            runner.start()
            time.sleep(1.0)
            victim.send_signal(signal.SIGKILL)
            runner.join(timeout=180)
            assert not runner.is_alive()
            merged = {i: r.to_dict() for i, r in journal.iter_completed()}
            journal.close()
            backend.close()
            assert [merged[i] for i in range(sweep.size)] == reference_records(sweep)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()


# ------------------------------------------------------------ chaos matrix


class TestNetworkFaults:
    def test_drop_stream_resumes_at_byte_offset(self, tmp_path, agents):
        sweep = make_sweep(seeds=3)
        plan = FaultPlan.from_spec("drop-stream@after=2")
        merged = run_via(
            RemoteBackend(agents, fault_plan=plan), sweep, tmp_path, "drop.jsonl"
        )
        assert [merged[i] for i in range(sweep.size)] == reference_records(sweep)

    def test_partition_quarantines_host_and_heals(self, tmp_path, agents):
        sweep = make_sweep(seeds=3)
        victim = agents[0].rpartition("*")[0]
        plan = FaultPlan.from_spec(f"partition:{victim}@after=5")
        backend = RemoteBackend(
            agents, fault_plan=plan, transport_attempts=2,
            host_failures=1, probation=60.0,
        )
        merged = run_via(backend, sweep, tmp_path, "part.jsonl")
        assert [merged[i] for i in range(sweep.size)] == reference_records(sweep)
        states = {row["key"]: row["state"] for row in backend.registry.snapshot()}
        assert states[victim] == "quarantined"
        events = next(
            row for row in backend.registry.snapshot() if row["key"] == victim
        )["events"]
        assert "quarantine" in [event["kind"] for event in events]

    def test_all_hosts_partitioned_raises(self, tmp_path, agents):
        sweep = make_sweep(seeds=2)
        plan = FaultPlan.from_spec("partition@after=99")
        backend = RemoteBackend(
            agents, fault_plan=plan, transport_attempts=1,
            host_failures=1, probation=120.0,
        )
        journal = CheckpointJournal.create(str(tmp_path / "all.jsonl"), sweep)
        try:
            with pytest.raises(RemoteDispatchError, match="quarantined"):
                backend.run(sweep, list(range(sweep.size)), journal)
        finally:
            journal.close()
            backend.close()

    def test_slow_link_stalls_without_losing_runs(self, tmp_path, agents):
        sweep = make_sweep(seeds=2)
        plan = FaultPlan.from_spec("slow-link:1.0")
        merged = run_via(
            RemoteBackend(agents, fault_plan=plan), sweep, tmp_path, "slow.jsonl"
        )
        assert [merged[i] for i in range(sweep.size)] == reference_records(sweep)

    def test_agent_crash_fault_kills_box_and_run_heals(self, tmp_path):
        sweep = make_sweep(seeds=3)
        procs = []
        try:
            first, first_host = _spawn_agent(tmp_path, "doomed")
            second, second_host = _spawn_agent(tmp_path, "steady")
            procs = [first, second]
            plan = FaultPlan.from_spec("agent-crash@shard=0")
            backend = RemoteBackend(
                [first_host, second_host],
                fault_plan=plan,
                transport_attempts=2,
                host_failures=1,
                probation=60.0,
            )
            merged = run_via(backend, sweep, tmp_path, "crash.jsonl")
            assert [merged[i] for i in range(sweep.size)] == reference_records(sweep)
            # Exactly one agent died (whichever drew shard 0).
            time.sleep(0.2)
            assert sum(1 for proc in procs if proc.poll() is not None) == 1
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()


class TestSupervisionLadder:
    def test_unreachable_hosts_degrade_to_pool(self, tmp_path):
        sweep = make_sweep(seeds=2)
        events = []
        backend = make_supervised(
            {
                "backend": "remote",
                "hosts": ["127.0.0.1:9", "127.0.0.1:10"],  # discard ports
                "connect_timeout": 0.2,
                "transport_attempts": 1,
                "host_failures": 1,
                "probation": 300.0,
                "backend_attempts": 1,
                "backoff_base": 0.0,
            },
            on_event=events.append,
        )
        merged = run_via(backend, sweep, tmp_path, "ladder.jsonl")
        assert [merged[i] for i in range(sweep.size)] == reference_records(sweep)
        degrades = [event for event in events if event["kind"] == "degrade"]
        assert degrades and degrades[0]["from_backend"] == "remote"
        assert degrades[0]["to_backend"] == "pool"


class TestClientRetry:
    def test_transient_errors_are_retried(self, monkeypatch):
        client = ServiceClient("127.0.0.1", 1, retries=3)
        calls = {"n": 0}

        def flaky(method, target, payload=None):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionResetError("blip")
            return [{"ok": True}]

        monkeypatch.setattr(client, "_attempt", flaky)
        monkeypatch.setattr(time, "sleep", lambda _s: None)
        assert client.health() == {"ok": True}
        assert calls["n"] == 3

    def test_retries_one_fails_fast(self, monkeypatch):
        client = ServiceClient("127.0.0.1", 1, retries=1)
        calls = {"n": 0}

        def always_down(method, target, payload=None):
            calls["n"] += 1
            raise ConnectionRefusedError("down")

        monkeypatch.setattr(client, "_attempt", always_down)
        with pytest.raises(ConnectionRefusedError):
            client.health()
        assert calls["n"] == 1

    def test_service_errors_are_not_retried(self, monkeypatch):
        from repro.service.client import ServiceError

        client = ServiceClient("127.0.0.1", 1, retries=3)
        calls = {"n": 0}

        def answered(method, target, payload=None):
            calls["n"] += 1
            raise ServiceError(404, "unknown job")

        monkeypatch.setattr(client, "_attempt", answered)
        with pytest.raises(ServiceError):
            client.status("job-1")
        assert calls["n"] == 1
