"""Shard subprocess entry point: ``python -m repro.service.shard_worker job.json``.

The job document (written by a :mod:`repro.service.agent` for each shard
it is sent) names the sweep, the expansion indices this shard owns, the
shard journal path and the runner options.  The worker executes its
slice through a regular :class:`~repro.campaign.runner.CampaignRunner` —
the same warm pool, build cache and seed batching as an in-process
campaign — and appends every record to its own checkpoint journal.  The
dispatcher merges the streamed shard journals; this process never
touches the campaign journal.

The shard journal is ``open_or_create``'d, so re-running a crashed shard
worker resumes the shard rather than restarting it.
"""

from __future__ import annotations

import json
import sys

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import Sweep
from repro.service.journal import CheckpointJournal


def run_shard(job_path: str) -> int:
    with open(job_path, "r", encoding="utf-8") as handle:
        job = json.load(handle)
    sweep = Sweep.from_dict(job["sweep"])
    indices = [int(index) for index in job["indices"]]
    options = dict(job.get("options", {}))
    fault_plan = None
    if job.get("faults") is not None:
        from repro.service import faults

        fault_plan = faults.FaultPlan.from_dict(job["faults"])
        # The shard process (and its pool workers, via the runner's
        # initializer blob) is expendable: crash faults may kill it.
        faults.mark_worker_process()
    meta = {"shard": job.get("shard", {})}
    journal = CheckpointJournal.open_or_create(job["journal"], sweep, meta=meta)
    try:
        done = journal.completed_indices()
        todo = [index for index in indices if index not in done]
        if not todo:
            return 0
        runner = CampaignRunner(
            jobs=int(options.get("jobs", 1)),
            chunksize=options.get("chunksize", "auto"),
            build_cache=bool(options.get("build_cache", True)),
            batch_seeds=int(options.get("batch_seeds", 1)),
            fault_plan=fault_plan,
        )
        try:
            for index, record in zip(todo, runner.iter_records(sweep, indices=todo)):
                journal.append(index, record)
        finally:
            runner.close()
    finally:
        journal.close()
    return 0


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python -m repro.service.shard_worker <job.json>", file=sys.stderr)
        return 2
    return run_shard(argv[0])


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main(sys.argv[1:]))
