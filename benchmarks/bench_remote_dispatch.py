"""Remote dispatch overhead: two-localhost-agent sweep vs. local shards.

The reference side is the ``shard`` backend kind (``--shards N``): N
in-process loopback agents with one slot each, built by
:func:`~repro.service.backends.make_backend`.  The measured side is a
:class:`~repro.service.remote.RemoteBackend` over two separately started
agents with two slots each — the same slot count, job documents and
stream merge, so the ratio isolates how the slots are spread over agents
(agent round-trips, concurrent streams per agent, heartbeats).  On a
loopback network that overhead must stay small, or the remote path
would be mis-measuring its own transport rather than the fleet it is
meant to scale across.

Two checks on the standard orchestration-dominated short sweep:

* **identity** — the remote-merged journal must be bit-identical
  (per-record dict equality over every index) to the local shard run;
  this is the acceptance property the chaos matrix leans on, measured
  here on the happy path at benchmark scale;
* **overhead** — remote wall-clock at most ``OVERHEAD_CEILING`` x the
  local shard wall-clock (paired rounds, median ratio; the quick CI
  workload gets a looser ceiling because fixed costs — agent connect,
  stream header — weigh more on a 5x shorter sweep).

Run directly (``python benchmarks/bench_remote_dispatch.py --quick``).
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

from bench_sweep_orchestration import short_sweep
from repro.service.agent import AgentServer, CampaignAgent
from repro.service.backends import make_backend
from repro.service.journal import CheckpointJournal
from repro.service.remote import RemoteBackend

#: Two agents x two shard slots each — matches the local shard count.
AGENTS = 2
CAP = 2
SHARDS = AGENTS * CAP

#: Full workload: the standard 500-run short sweep.
BENCH_RUNS = 500
#: Reduced workload for the CI smoke run.
SMOKE_RUNS = 100

#: Loopback transport may cost at most this factor of local shard
#: dispatch.  Generous on purpose: the gate is for pathological
#: regressions (per-chunk reconnects, heartbeat storms, lost streaming
#: overlap), not for loopback jitter.
OVERHEAD_CEILING = 2.0
SMOKE_OVERHEAD_CEILING = 3.0

#: Paired measurement rounds; the median ratio is reported.
ROUNDS = 3


def _run(backend, sweep, tmp: str, name: str) -> tuple:
    """(wall_s, {index: record_dict}) for one backend over ``sweep``."""
    journal = CheckpointJournal.create(os.path.join(tmp, name), sweep)
    try:
        start = time.perf_counter()
        backend.run(sweep, list(range(sweep.size)), journal)
        wall = time.perf_counter() - start
        merged = {i: record.to_dict() for i, record in journal.iter_completed()}
    finally:
        journal.close()
        backend.close()
    if len(merged) != sweep.size:
        raise RuntimeError(f"{name}: merged {len(merged)} of {sweep.size} runs")
    return wall, merged


def measure_remote_overhead(runs: int, rounds: int = ROUNDS) -> dict:
    """Median paired wall-clock of local shards vs. two remote agents."""
    # Seeds far away from the other orchestration benchmarks so warm
    # caches never cross-pollinate the comparison.
    sweep = short_sweep(40_000, runs)
    pairs = []
    reference = None
    for _ in range(rounds):
        # Fresh agents every round, as the shard side gets: agents keep
        # finished jobs attachable, so reused ones would only re-stream
        # the previous round's journals instead of running the sweep.
        servers = [AgentServer(CampaignAgent(name=f"bench{i}")) for i in range(AGENTS)]
        hosts = [f"{host}:{port}*{CAP}" for host, port in (s.start() for s in servers)]
        try:
            with tempfile.TemporaryDirectory() as tmp:
                shard_s, local = _run(
                    make_backend({"backend": "shard", "shards": SHARDS}),
                    sweep,
                    tmp,
                    "shard.jsonl",
                )
                remote_s, remote = _run(
                    RemoteBackend(hosts), sweep, tmp, "remote.jsonl"
                )
        finally:
            for server in servers:
                server.stop()
        if remote != local:
            raise RuntimeError(
                "remote-merged records differ from the local shard run"
            )
        reference = local
        pairs.append((shard_s, remote_s))
    assert reference is not None
    pairs.sort(key=lambda pair: pair[1] / pair[0])
    shard_s, remote_s = pairs[len(pairs) // 2]
    return {
        "runs": runs,
        "shard_s": shard_s,
        "remote_s": remote_s,
        "overhead": remote_s / shard_s,
    }


def check_ceiling(result: dict, quick: bool) -> None:
    """Raise if loopback remote dispatch costs more than the ceiling."""
    ceiling = SMOKE_OVERHEAD_CEILING if quick else OVERHEAD_CEILING
    if result["overhead"] > ceiling:
        raise RuntimeError(
            f"remote dispatch overhead {result['overhead']:.3f}x exceeds the "
            f"{ceiling}x ceiling ({result['shard_s']:.3f}s local shards vs "
            f"{result['remote_s']:.3f}s remote over {result['runs']} runs)"
        )


def main(argv: list) -> int:
    quick = "--quick" in argv
    runs = SMOKE_RUNS if quick else BENCH_RUNS
    result = measure_remote_overhead(runs)
    print(
        f"remote dispatch over {result['runs']} runs "
        f"({AGENTS} agents x {CAP} slots): local shards "
        f"{result['shard_s']:.3f}s, remote {result['remote_s']:.3f}s "
        f"-> {result['overhead']:.3f}x (records identical)"
    )
    check_ceiling(result, quick)
    print(
        f"OK: within the "
        f"{SMOKE_OVERHEAD_CEILING if quick else OVERHEAD_CEILING}x ceiling"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
