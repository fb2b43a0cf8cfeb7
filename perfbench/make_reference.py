"""Regenerate ``perfbench/reference.json``: record hashes at the reference seed.

Run from the root of a checkout, only when a change is meant to alter
simulation results::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

#: The seed whose records are pinned (``run.py``'s default ``--seed``).
SEED = 1


def main() -> int:
    out_dir = os.path.join(run.OUT, f"reference-{os.getpid()}")
    os.makedirs(out_dir)
    workloads = {}
    try:
        for index, name in enumerate(run.WORKLOAD_NAMES):
            rep = run.run_rep(name, SEED, False, out_dir, index)
            if rep["failed_runs"]:
                raise SystemExit(f"{name}: {rep['problems']}")
            hashes = rep["record_hashes"]
            workloads[name] = {"runs": len(hashes), "digest": run.digest(hashes), "hashes": hashes}
            print(f"{name}: {len(hashes)} records, digest {workloads[name]['digest']}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"seed": SEED, "workloads": workloads}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
