"""Self-test of the benchmark's bounds: an injected slowdown must show.

For each case, one layer's public function is wrapped (from the benchmark
side, through ``tracing.py``) with a busy-wait of 20 % of each call's own
duration.  The test then shows three things:

* on the workload that stresses the layer, ``campaign_s`` and the layer's
  per-layer metric get worse by more than the ``campaign_s`` bound;
* on a workload that bypasses the layer, no end-to-end metric gets worse
  by more than its bound;
* a no-op rerun of the stressing workload crosses no bound either.

Baseline and changed repetitions alternate, so a drift of the shared
machine hits both sides alike.  Run from the root of a checkout (about
fifteen minutes)::

    python3 perfbench/selftest.py [--seed 1] [--reps 5] [--case batch]

Exits 1 when any of the three expectations fails.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

#: (case, injected span, stressing workload, its per-layer metric, bypass workload)
CASES: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("batch", "batch", "star-qma-batched", "batch.s", "short-sweep-checkpointed"),
    ("engine", "run.*", "dsme-scalability", "run.qma.us_per_event", "star-qma-batched"),
    ("campaign", "campaign.run", "short-sweep-checkpointed", "campaign.run.p50_s",
     "star-qma-batched"),
    ("remote", "remote.run", "sinr-remote", "remote.run.s", "short-sweep-checkpointed"),
)
E2E = ("campaign_s", "setup_s", "cpu_s", "peak_rss_mb")
#: Injected slowdown, as a share of each wrapped call's own duration.
FRACTION = 0.2


class Measurer:
    """Runs baseline and changed repetitions alternately."""

    def __init__(self, seed: int, reps: int, out_dir: str) -> None:
        self.seed = seed
        self.reps = reps
        self.out_dir = out_dir
        self.count = 0

    def _rep(self, workload: str, traced: bool, inject: Optional[Dict[str, float]]):
        rep = run.run_rep(workload, self.seed, traced, self.out_dir, self.count, inject)
        self.count += 1
        if rep["failed_runs"]:
            raise run.BenchmarkError(f"{workload}: {rep['problems']}")
        return rep

    def paired(
        self, workload: str, inject: Optional[Dict[str, float]]
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Medians of untraced baseline and changed repetitions, alternated."""
        sides: Tuple[List[Any], List[Any]] = ([], [])
        for _ in range(self.reps):
            sides[0].append(self._rep(workload, False, None))
            sides[1].append(self._rep(workload, False, inject))
        medians = [
            {name: statistics.median(rep[name] for rep in reps) for name in E2E}
            for reps in sides
        ]
        return medians[0], medians[1]

    def layer(self, workload: str, metric: str, inject: Dict[str, float]) -> Tuple[float, float]:
        """Medians of the per-layer metric over traced baseline and changed repetitions."""
        sides: Tuple[List[float], List[float]] = ([], [])
        for _ in range(self.reps):
            for values, side in zip(sides, (None, inject)):
                rep = self._rep(workload, True, side)
                values.append(run.layer_metrics(rep, rep["campaign_s"])[metric])
        return statistics.median(sides[0]), statistics.median(sides[1])


def worse(after: float, before: float) -> float:
    return after / before - 1.0 if before else 0.0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Check that the bounds catch a slowdown.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--case", action="append", choices=[case[0] for case in CASES])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in run.load_spec()["end_to_end"]}
    out_dir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(out_dir)
    measure = Measurer(args.seed, args.reps, out_dir)
    ok = True

    def report(label: str, before: Dict[str, float], after: Dict[str, float], expect: str) -> None:
        nonlocal ok
        crossed = [n for n in E2E if worse(after[n], before[n]) > bounds[n]]
        good = ("campaign_s" in crossed) if expect == "cross" else not crossed
        ok &= good
        changes = "  ".join(f"{n} {100 * worse(after[n], before[n]):+.1f}%" for n in E2E)
        print(f"  {label:<44} {changes}  crossed {crossed or 'nothing'}  "
              f"[{'ok' if good else 'UNEXPECTED'}]", flush=True)

    try:
        for name, span, stress, metric, bypass in CASES:
            if args.case and name not in args.case:
                continue
            inject = {span: FRACTION}
            print(f"case {name}: +{100 * FRACTION:.0f}% busy-wait in {span}", flush=True)
            report(f"{stress} (stresses the layer)", *measure.paired(stress, inject), "cross")
            before, after = measure.layer(stress, metric, inject)
            good = worse(after, before) > bounds["campaign_s"]
            ok &= good
            print(f"  {stress + ' ' + metric:<44} {before:.6g} -> {after:.6g} "
                  f"({100 * worse(after, before):+.1f}%)  [{'ok' if good else 'UNEXPECTED'}]",
                  flush=True)
            report(f"{bypass} (bypasses the layer)", *measure.paired(bypass, inject), "hold")
            report(f"{stress} (no-op rerun)", *measure.paired(stress, None), "hold")
    except run.BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
