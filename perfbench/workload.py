"""One workload process: set up, run the campaign once, report.

``run.py`` starts this script once per repetition, so every repetition
pays what a user pays: interpreter start, imports, sweep construction and
backend start (``setup_s``), then the campaign itself (``campaign_s``).
The result, including a hash of every record, goes to ``--result`` as
JSON; ``run.py`` aggregates the repetitions.

Usage (normally only through ``run.py``)::

    python3 perfbench/workload.py --workload NAME --seed N --workdir DIR \\
        --result FILE [--trace] [--inject JSON]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS, StampSink, make_workload  # noqa: E402


def record_hash(metrics: Dict[str, float]) -> str:
    """Short hash of one record's canonical metrics JSON."""
    text = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check_record(index: int, record: Any, expected: Any) -> List[str]:
    """Why one delivered record is wrong (empty when it is fine)."""
    problems = []
    if record.scenario != expected:
        problems.append(f"record {index}: scenario {record.scenario.label} != {expected.label}")
    for name, value in record.metrics.items():
        if not isinstance(value, float):
            problems.append(f"record {index}: metric {name} is {type(value).__name__}")
        elif "pdr" in name and not math.isnan(value) and not 0.0 <= value <= 1.0:
            problems.append(f"record {index}: {name}={value} outside [0, 1]")
    if not record.metrics.get("sim_time", 0.0) > 0.0:
        problems.append(f"record {index}: sim_time is not positive")
    return problems


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def file_bytes(paths: List[str]) -> int:
    return sum(os.path.getsize(path) for path in paths if os.path.exists(path))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--inject", default=None, help="JSON {span: fraction}")
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.workdir)
    trace_dir = None
    if args.trace or args.inject:
        # Installed before the backend starts, so pool workers fork with
        # the wrappers and shard workers find them through sitecustomize.
        inject = json.loads(args.inject) if args.inject else {}
        if args.trace:
            trace_dir = os.path.join(args.workdir, "trace")
            os.makedirs(trace_dir)
            layers = tracing.LAYERS
        else:
            layers = tuple({name.split(".")[0] for name in inject})
        tracer = tracing.install(trace_dir, layers, inject)
        siteinit = os.path.join(HERE, "siteinit")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (siteinit, os.environ.get("PYTHONPATH")) if p
        )
    expected = workload.sweep.scenarios()

    out = workload.open_sink()
    # Listed after ``out``, so it notes the time once ``out`` has the record.
    stamp = StampSink()
    try:
        workload.setup()
        t_call = time.monotonic()
        workload.campaign([out, stamp])
        campaign_s = stamp.last - t_call
        remote = None
        if hasattr(workload, "servers"):
            hosts = workload.backend.registry.snapshot()
            remote = {
                "slices": sum(row["shards"] for row in hosts),
                "host_failures": sum(
                    1 for row in hosts for event in row["events"] if event["kind"] == "failure"
                ),
                "stream_bytes": file_bytes(workload.agent_journals()),
            }
    finally:
        workload.teardown()
    records = workload.delivered(out)

    problems: List[str] = []
    if workload.status != "complete":
        problems.append(f"campaign status {workload.status!r}, expected 'complete'")
    if len(records) != len(expected):
        problems.append(f"{len(records)} records delivered for {len(expected)} runs")
    bad = 0
    for index, (record, scenario) in enumerate(zip(records, expected)):
        found = check_record(index, record, scenario)
        found += [f"record {index}: {problem}" for problem in workload.check(record)]
        bad += bool(found)
        problems += found
    hashes = [record_hash(record.metrics) for record in records]

    result: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "runs": len(expected),
        "t_call": t_call,
        "campaign_s": campaign_s,
        "peak_rss_mb": peak_rss_mb(),
        "status": workload.status,
        "failed_runs": bad + max(0, len(expected) - len(records)),
        "problems": problems[:20],
        "record_hashes": hashes,
        "journal_bytes": file_bytes(workload.journal_paths()),
        "remote": remote,
    }
    if trace_dir is not None:
        tracer.dump()
        result["trace"] = tracing.load_totals(trace_dir)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
