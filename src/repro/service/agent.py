"""Campaign agent: executes shard jobs, streams journals back.

An agent is the far half of :class:`repro.service.remote.RemoteBackend`:
a small TCP server that accepts the service's shard job documents, runs
each one through the ordinary :mod:`repro.service.shard_worker`
subprocess, and streams the growing shard journal back to the dispatcher
as raw byte chunks.  It runs as its own process on a worker host
(``qma-repro agent``) or, for ``--shards N``, as N loopback servers
inside the dispatching process
(:func:`repro.service.remote.loopback_backend`).  The protocol is
the service's line-delimited JSON, one request line per connection::

    -> {"op": "run", "id": ..., "job": {...}, "offset": N, "stream": SID}
    <- {"hello": {"agent": ..., "id": ..., "stream": SID, "offset": N,
                  "size": ..., "state": "running"|"done"}}
    <- {"chunk": {"offset": N, "data": "<raw journal bytes, latin-1>"}}
    <- {"heartbeat": {"size": N}}
    <- {"done": {"exit": RC, "size": N[, "stderr": "<tail>"]}}

plus ``{"op": "ping"}`` -> ``{"pong": ...}`` and ``{"op": "cancel",
"id": ...}`` -> ``{"cancelled": ...}``.  Design decisions that make the
transport partition-safe:

* **The journal is the state.**  The agent never interprets journal
  lines; it ships file bytes from a requested offset.  A dispatcher that
  reconnects after a dropped link resumes at the byte offset it had
  fully processed — nothing is recomputed and nothing is duplicated
  (the dispatcher's merger deduplicates by run index anyway).
* **Streams are identified.**  Each job gets a random ``stream`` token;
  the hello echoes the authoritative token and start offset.  A
  dispatcher holding an offset from a *different* agent incarnation
  (the agent restarted, the job re-ran from scratch) sees the token
  mismatch and restarts its merge from offset 0 instead of splicing two
  unrelated byte streams.
* **Connections are disposable, jobs are not.**  A broken connection
  stops the streaming loop but leaves the shard worker running; the job
  stays attachable (also after completion) until the agent exits or the
  dispatcher cancels it.  A cancel stops the worker's process group and
  forgets the job, so the next ``run`` with that id starts afresh and
  resumes the shard journal on disk.
* **Heartbeats carry the journal size.**  The dispatcher only counts a
  heartbeat as *progress* when the size grew, so a slow link does not
  false-trip ``run_timeout`` watchdogs while a genuinely hung worker
  still does.

Agent-side chaos faults ride in on the job document: ``agent-crash``
kills the whole agent process before a matched shard starts (a dead-box
stand-in; so it is refused for loopback agents, which share the
dispatcher's process), ``slow-link`` stalls chunk delivery while the
worker keeps running (heartbeats still flow).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import socketserver
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["AgentServer", "CampaignAgent"]

#: Maximum raw journal bytes per ``chunk`` message.
CHUNK_BYTES = 57344

#: Seconds between ``heartbeat`` lines while the journal is not growing.
HEARTBEAT_INTERVAL = 0.5

#: Journal growth / worker liveness poll period.
POLL_INTERVAL = 0.05

#: Lines of worker stderr shipped with a failed job's ``done`` line.
STDERR_TAIL_LINES = 50

#: Seconds a cancelled worker gets to die after SIGTERM before SIGKILL.
TERM_GRACE = 5.0

Send = Callable[[Dict[str, Any]], None]


class _AgentJob:
    """One shard job owned by this agent (worker subprocess + journal)."""

    def __init__(self, job_id: str, jobdir: str) -> None:
        self.job_id = job_id
        self.dir = jobdir
        self.journal_path = os.path.join(jobdir, "journal.jsonl")
        self.stderr_path = os.path.join(jobdir, "stderr")
        #: Stream identity: a reconnecting dispatcher may only resume its
        #: byte offset against the same token (same job incarnation).
        self.stream = uuid.uuid4().hex[:16]
        self.proc: Optional[subprocess.Popen] = None
        self.stderr_handle: Optional[Any] = None
        self.plan: Optional[Any] = None

    @property
    def running(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def size(self) -> int:
        try:
            return os.path.getsize(self.journal_path)
        except OSError:
            return 0

    def stop(self, sig: int = signal.SIGTERM) -> None:
        """Signal the worker's process group (its pool children too), reap it."""
        proc = self.proc
        if proc is not None and proc.poll() is None:
            _signal_group(proc, sig)
            try:
                proc.wait(TERM_GRACE)
            except subprocess.TimeoutExpired:
                _signal_group(proc, signal.SIGKILL)
                proc.wait()
        if self.stderr_handle is not None:
            self.stderr_handle.close()
            self.stderr_handle = None


class CampaignAgent:
    """Job table + protocol logic of one agent process (transport-free).

    ``max_jobs`` bounds *running* shard workers (0 = unbounded; the
    dispatcher's per-host caps are the intended scheduling control).
    Finished jobs stay in the table so late re-attachments can still
    drain their journals.
    """

    def __init__(
        self,
        workdir: Optional[str] = None,
        max_jobs: int = 0,
        name: Optional[str] = None,
        python: Optional[str] = None,
    ) -> None:
        self._owns_workdir = workdir is None
        self.workdir = workdir or tempfile.mkdtemp(prefix="qma-agent-")
        os.makedirs(self.workdir, exist_ok=True)
        self.max_jobs = int(max_jobs)
        self.name = name or f"agent-{os.getpid()}"
        self.python = python or sys.executable
        self._lock = threading.Lock()
        self._jobs: Dict[str, _AgentJob] = {}

    # ------------------------------------------------------------- protocol
    def handle(self, request: Dict[str, Any], send: Send) -> None:
        op = request.get("op")
        if op == "ping":
            with self._lock:
                running = sum(1 for job in self._jobs.values() if job.running)
            send({"pong": {"agent": self.name, "jobs": running}})
            return
        if op == "cancel":
            self._handle_cancel(request, send)
            return
        if op == "run":
            self._handle_run(request, send)
            return
        send({"error": {"kind": "bad-request", "message": f"unknown op {op!r}"}})

    def _handle_cancel(self, request: Dict[str, Any], send: Send) -> None:
        job_id = str(request.get("id"))
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            send({"error": {"kind": "unknown-job", "message": f"no job {job_id!r}"}})
            return
        job.stop()
        # A cancelled job is forgotten: a later ``run`` with the same id
        # starts a fresh incarnation (new stream token) that resumes the
        # shard journal on disk, instead of re-attaching to a dead worker.
        with self._lock:
            if self._jobs.get(job_id) is job:
                del self._jobs[job_id]
        send({"cancelled": {"id": job_id}})

    def _handle_run(self, request: Dict[str, Any], send: Send) -> None:
        job_id = str(request.get("id"))
        offset = int(request.get("offset", 0) or 0)
        stream = request.get("stream")
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                job_doc = request.get("job")
                if not isinstance(job_doc, dict):
                    send({
                        "error": {
                            "kind": "unknown-job",
                            "message": f"no job {job_id!r} and no job document",
                        }
                    })
                    return
                if self.max_jobs > 0:
                    running = sum(1 for j in self._jobs.values() if j.running)
                    if running >= self.max_jobs:
                        send({
                            "error": {
                                "kind": "busy",
                                "message": f"agent {self.name} already runs "
                                f"{running}/{self.max_jobs} job(s)",
                            }
                        })
                        return
                try:
                    job = self._start_job(job_id, job_doc)
                except OSError as exc:  # e.g. the worker interpreter is missing
                    send({"error": {"kind": "start-failed", "message": str(exc)}})
                    return
                self._jobs[job_id] = job
        # Offset/stream reconciliation: resuming a byte offset is only
        # valid against the same stream token and within the file.
        if stream != job.stream or offset > job.size():
            offset = 0
        send({
            "hello": {
                "agent": self.name,
                "id": job_id,
                "stream": job.stream,
                "offset": offset,
                "size": job.size(),
                "state": "running" if job.running else "done",
            }
        })
        self._stream(job, offset, send)

    # ------------------------------------------------------------ job start
    def _start_job(self, job_id: str, job_doc: Dict[str, Any]) -> _AgentJob:
        jobdir = os.path.join(self.workdir, job_id)
        os.makedirs(jobdir, exist_ok=True)
        job = _AgentJob(job_id, jobdir)
        shard = (job_doc.get("shard") or {}).get("index")
        if job_doc.get("faults") is not None:
            from repro.service.faults import CRASH_EXIT_STATUS, FaultPlan

            job.plan = FaultPlan.from_dict(job_doc["faults"])
            if job.plan.take_agent_crash(shard):
                # A dead box, not a dead worker: the whole agent dies and
                # every connection to it breaks mid-stream.
                os._exit(CRASH_EXIT_STATUS)
        doc = dict(job_doc)
        doc["journal"] = job.journal_path
        job_path = os.path.join(jobdir, "job.json")
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        job.stderr_handle = open(job.stderr_path, "wb")
        try:
            job.proc = subprocess.Popen(
                [self.python, "-m", "repro.service.shard_worker", job_path],
                stdout=subprocess.DEVNULL,
                stderr=job.stderr_handle,
                env=_worker_env(),
                # Own process group, so stopping the job also stops the
                # worker's pool children (a hung run included).
                start_new_session=True,
            )
        except OSError:
            job.stop()
            raise
        return job

    # ------------------------------------------------------------ streaming
    def _stream(self, job: _AgentJob, offset: int, send: Send) -> None:
        """Ship journal bytes from ``offset`` until the worker finishes.

        The returncode poll happens *before* the size read, so bytes the
        worker wrote just before exiting are always shipped before the
        ``done`` line — no lost-tail race.
        """
        pos = offset
        last_beat = time.monotonic()
        while True:
            returncode = None if job.proc is None else job.proc.poll()
            size = job.size()
            if size > pos:
                self._maybe_stall(job, send)
                with open(job.journal_path, "rb") as handle:
                    handle.seek(pos)
                    data = handle.read(CHUNK_BYTES)
                if data:
                    send({
                        "chunk": {"offset": pos, "data": data.decode("latin-1")}
                    })
                    pos += len(data)
                    continue
            if returncode is not None:
                payload: Dict[str, Any] = {"exit": returncode, "size": size}
                if returncode != 0:
                    payload["stderr"] = _tail_lines(
                        job.stderr_path, STDERR_TAIL_LINES
                    )
                send({"done": payload})
                return
            now = time.monotonic()
            if now - last_beat >= HEARTBEAT_INTERVAL:
                send({"heartbeat": {"size": size}})
                last_beat = now
            time.sleep(POLL_INTERVAL)

    def _maybe_stall(self, job: _AgentJob, send: Send) -> None:
        """``slow-link`` fault: hold chunk delivery, keep heartbeats flowing.

        The worker keeps running during the stall, so the heartbeats
        carry a *growing* journal size — exactly the signal that lets the
        dispatcher's watchdog tell a slow link from a hung worker.
        """
        if job.plan is None:
            return
        stall = job.plan.take_slow_link()
        if stall is None:
            return
        deadline = time.monotonic() + float(stall)
        while time.monotonic() < deadline:
            send({"heartbeat": {"size": job.size()}})
            time.sleep(min(HEARTBEAT_INTERVAL, max(0.01, deadline - time.monotonic())))

    # ------------------------------------------------------------- lifecycle
    def shutdown(self) -> None:
        """Kill running workers and release file handles (jobs stay on disk)."""
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            job.stop(signal.SIGKILL)
        if self._owns_workdir:
            import shutil

            shutil.rmtree(self.workdir, ignore_errors=True)


class _AgentTCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class AgentServer:
    """Threaded TCP front end over a :class:`CampaignAgent`.

    One request line per connection; responses stream back as ndjson on
    the same socket.  A client that disappears mid-stream only ends its
    handler thread — the agent's jobs keep running.
    """

    def __init__(
        self, agent: CampaignAgent, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.agent = agent
        outer = self

        class _Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:  # noqa: A003 - socketserver API
                try:
                    line = self.rfile.readline(4 * 1024 * 1024)
                    if not line.strip():
                        return
                    try:
                        request = json.loads(line)
                    except json.JSONDecodeError:
                        self._send({
                            "error": {
                                "kind": "bad-request",
                                "message": "request is not a JSON line",
                            }
                        })
                        return
                    outer.agent.handle(request, self._send)
                except (BrokenPipeError, ConnectionError, OSError):
                    return  # client went away; the job keeps running

            def _send(self, obj: Dict[str, Any]) -> None:
                data = (
                    json.dumps(obj, separators=(",", ":")) + "\n"
                ).encode("utf-8")
                self.wfile.write(data)
                self.wfile.flush()

        self._server = _AgentTCPServer((host, port), _Handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="campaign-agent",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def wait(self) -> None:
        """Block until the server is stopped (interruptible)."""
        while self._thread is not None and self._thread.is_alive():
            self._thread.join(0.5)

    def stop(self) -> None:
        # Shutting the listening socket down wakes the accept poll at once,
        # so ``shutdown`` need not wait out the 0.1 s ``serve_forever`` tick.
        try:
            self._server.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._server.shutdown()
        self._server.server_close()
        self.agent.shutdown()


def _signal_group(proc: subprocess.Popen, sig: int) -> None:
    try:
        os.killpg(proc.pid, sig)
    except ProcessLookupError:  # the whole group has exited already
        pass


def _tail_lines(path: str, limit: int) -> str:
    """The last ``limit`` lines of a (possibly missing) text file."""
    try:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            handle.seek(max(0, size - 64 * 1024))
            data = handle.read()
    except OSError:
        return ""
    text = data.decode("utf-8", errors="replace")
    return "\n".join(text.splitlines()[-limit:])


def _worker_env() -> Dict[str, str]:
    """Subprocess environment with the repro package importable."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env
