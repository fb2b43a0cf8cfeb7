"""Run the perf suite and emit a machine-readable snapshot.

Collects the numbers the repository tracks across releases — engine
micro-benchmark events/s (deep-heap and steady-state, generic and fast
path), campaign sweep throughput (warm worker pool vs. the PR 3 dispatch),
the construction-cache speedup on a build-dominated batched sweep (cache
off vs. on, plus the construction share of a short run), metric-collector
overhead, checkpoint-journaling overhead, the slotted-MAC sweep time and
the 43-node scalability wall-clock — into one JSON document::

    PYTHONPATH=src python benchmarks/run_all.py --json BENCH_<rev>.json

and optionally gates against a committed baseline snapshot::

    PYTHONPATH=src python benchmarks/run_all.py --quick \\
        --baseline BENCH_pr4.json --max-regression 0.10

The committed baseline is produced with ``--baseline-out``, which runs the
suite in *both* the full and the ``--quick`` workload and stores each
metric set — the gate then always compares like workload with like
(``--quick`` runs against the baseline's ``quick_metrics``, full runs
against ``metrics``) and refuses to gate when the baseline lacks a
matching workload, instead of producing apples-to-oranges failures.

The default gate compares only *ratio* metrics (fast-path speedup, warm
pool speedup, collector overhead).  Even ratios move with the interpreter
(bytecode specialisation differs per minor version) and with the
worker-to-core ratio, so they are gated only when the baseline was
recorded on the same Python major.minor and CPU count; on other
environments the gate falls back to the drift-tolerant percentage-point
metrics (collector overhead).  ``--strict-absolute`` gates every metric
unconditionally, which is only sound when baseline and current run on the
same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import bench_build_cache as cache_bench
import bench_checkpoint_overhead as checkpoint_bench
import bench_engine_hotpath as engine_bench
import bench_metrics_overhead as metrics_bench
import bench_seed_batch as batch_bench
import bench_sinr_hidden_node as sinr_bench
import bench_sweep_orchestration as sweep_bench

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import Sweep

#: Metric -> (kind, direction, tolerance factor).  ``ratio`` metrics are
#: machine-comparable and gated by default; ``absolute`` metrics only
#: under --strict-absolute; ``pct_points`` metrics are gated by absolute
#: percentage-point drift.  The tolerance factor scales --max-regression
#: per metric by its observed run-to-run noise: pool speedups are
#: fork/IPC-timing bound (~±10 % on a loaded machine, factor 2.5) and the
#: engine fast/generic ratio swings ~±6 % (factor 2.0) — wide enough to
#: ignore load noise, tight enough to catch the optimisation regressing
#: toward parity (speedup -> ~1).
METRIC_SPECS = {
    "engine_micro_deep_events_per_s": ("absolute", "higher", 1.0),
    "engine_steady_generic_events_per_s": ("absolute", "higher", 1.0),
    "engine_steady_fast_events_per_s": ("absolute", "higher", 1.0),
    "engine_fast_speedup": ("ratio", "higher", 2.0),
    "sweep_single_legacy_s": ("absolute", "lower", 1.0),
    "sweep_single_warm_s": ("absolute", "lower", 1.0),
    "sweep_single_speedup": ("ratio", "higher", 2.5),
    "sweep_batched_legacy_s": ("absolute", "lower", 1.0),
    "sweep_batched_warm_s": ("absolute", "lower", 1.0),
    "sweep_batched_speedup": ("ratio", "higher", 2.5),
    "sweep_cached_off_s": ("absolute", "lower", 1.0),
    "sweep_cached_on_s": ("absolute", "lower", 1.0),
    "sweep_cached_speedup": ("ratio", "higher", 2.5),
    "construction_overhead_pct": ("absolute", "lower", 1.0),
    "collector_overhead_pct": ("pct_points", "lower", 1.0),
    "seed_batch_serial_events_per_s": ("absolute", "higher", 1.0),
    "seed_batch_events_per_s": ("absolute", "higher", 1.0),
    "seed_batch_speedup": ("ratio", "higher", 2.5),
    "scalability_wall_s": ("absolute", "lower", 1.0),
    "checkpoint_plain_s": ("absolute", "lower", 1.0),
    "checkpoint_journal_s": ("absolute", "lower", 1.0),
    "checkpoint_overhead": ("ratio", "lower", 2.5),
    "sinr_events_per_s": ("absolute", "higher", 1.0),
    "sinr_collision_events_per_s": ("absolute", "higher", 1.0),
    "sinr_throughput_ratio": ("ratio", "higher", 2.0),
    "slotted_sweep_s": ("absolute", "lower", 1.0),
}

#: Seeds of the slotted-MAC sweep (``slotted_sweep_s``), quick and full.
SLOTTED_SWEEP_SEEDS = {True: 4, False: 16}

#: Collector overhead may drift this many percentage points before the
#: gate fails (relative comparison is meaningless near zero).
PCT_POINT_TOLERANCE = 3.0


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip()
    except Exception:
        return "unknown"


def measure_slotted_sweep(quick: bool) -> tuple:
    """``(runs, seconds)``: the median of three serial runs of a fixed-seed
    hidden-node sweep over slotted ALOHA and TDMA — the MAC layer's time,
    without pool dispatch."""
    sweep = Sweep(
        experiment="hidden-node",
        macs=["slotted-aloha", "tdma"],
        grid={"delta": [2.0, 10.0]},
        fixed={"packets_per_node": 40, "warmup": 10.0},
        seeds=range(SLOTTED_SWEEP_SEEDS[quick]),
    )
    rounds = []
    with CampaignRunner(jobs=1) as runner:
        for _ in range(3):
            start = time.perf_counter()
            runner.run(sweep)
            rounds.append(time.perf_counter() - start)
    return len(sweep.scenarios()), sorted(rounds)[1]


def collect(quick: bool) -> dict:
    """Run every benchmark once and return the snapshot document."""
    metrics = {}

    # Absolute micros report the best of several rounds (scheduler noise
    # only ever slows a run down); the gated fast-vs-generic ratio is the
    # *median of interleaved paired rounds* — pairing cancels machine-load
    # drift and the median resists the occasional outlier round, which a
    # max/max ratio would amplify.
    deep_n = 50_000 if quick else 200_000
    # The steady-state micro keeps its full size even in quick mode: it is
    # cheap (~0.5 s/round) and the gated fast-vs-generic ratio needs the
    # larger sample to stay within the regression tolerance run-to-run.
    steady_n = 300_000
    metrics["engine_micro_deep_events_per_s"] = round(
        max(engine_bench.engine_micro_deep(deep_n) for _ in range(3))
    )
    generic_best = fast_best = 0.0
    ratios = []
    for _ in range(5):
        generic = engine_bench.engine_micro_steady(steady_n, fast=False)
        fast = engine_bench.engine_micro_steady(steady_n, fast=True)
        generic_best = max(generic_best, generic)
        fast_best = max(fast_best, fast)
        ratios.append(fast / generic)
    ratios.sort()
    metrics["engine_steady_generic_events_per_s"] = round(generic_best)
    metrics["engine_steady_fast_events_per_s"] = round(fast_best)
    metrics["engine_fast_speedup"] = round(ratios[len(ratios) // 2], 3)

    runs = sweep_bench.SMOKE_RUNS if quick else sweep_bench.BENCH_RUNS
    batches = sweep_bench.SMOKE_BATCHES if quick else sweep_bench.BENCH_BATCHES
    singles = [sweep_bench.measure_single(runs) for _ in range(3)]
    batcheds = [sweep_bench.measure_batched(batches, runs // batches) for _ in range(3)]
    single = sorted(singles, key=lambda m: m["speedup"])[1]  # median round
    batched = sorted(batcheds, key=lambda m: m["speedup"])[1]
    metrics["sweep_runs"] = runs
    metrics["sweep_single_legacy_s"] = round(single["legacy_s"], 3)
    metrics["sweep_single_warm_s"] = round(single["warm_s"], 3)
    metrics["sweep_single_speedup"] = round(single["speedup"], 3)
    metrics["sweep_batched_legacy_s"] = round(batched["legacy_s"], 3)
    metrics["sweep_batched_warm_s"] = round(batched["warm_s"], 3)
    metrics["sweep_batched_speedup"] = round(batched["speedup"], 3)

    # Build-once/run-many: batched construction-heavy short sweep, cache
    # off vs. on (median of three rounds), plus the in-process share of a
    # run spent constructing — the cache's theoretical upper bound.
    cache_runs = cache_bench.SMOKE_RUNS if quick else cache_bench.BENCH_RUNS
    cache_batches = cache_bench.SMOKE_BATCHES if quick else cache_bench.BENCH_BATCHES
    cached_rounds = [
        cache_bench.measure_cached_sweep(cache_batches, cache_runs // cache_batches)
        for _ in range(3)
    ]
    cached = sorted(cached_rounds, key=lambda m: m["speedup"])[1]
    metrics["sweep_cached_runs"] = cache_runs
    metrics["sweep_cached_off_s"] = round(cached["off_s"], 3)
    metrics["sweep_cached_on_s"] = round(cached["on_s"], 3)
    metrics["sweep_cached_speedup"] = round(cached["speedup"], 3)
    overhead_split = cache_bench.measure_construction_overhead(
        rounds=10 if quick else 30
    )
    metrics["construction_overhead_pct"] = round(overhead_split["overhead_pct"], 1)

    packets = metrics_bench.SMOKE_PACKETS if quick else metrics_bench.BENCH_PACKETS
    _, _, overhead = metrics_bench.measure_overhead(packets)
    metrics["collector_overhead_pct"] = round(overhead * 100, 2)

    # Seed-batch engine: aggregate events/s over all seeds, per-seed serial
    # vs. lockstep batches; the measure itself raises if any batched lane's
    # scalars diverge from the serial reference.  The speedup floors fail a
    # kernel that has collapsed to serial speed (see bench_seed_batch).
    batch_seeds_n = batch_bench.SMOKE_SEEDS if quick else batch_bench.BENCH_SEEDS
    batch_sizes = batch_bench.SMOKE_SIZES if quick else batch_bench.BENCH_SIZES
    batch_duration = batch_bench.SMOKE_DURATION if quick else batch_bench.BENCH_DURATION
    batch_floor = batch_bench.SMOKE_SPEEDUP_FLOOR if quick else batch_bench.BATCH_SPEEDUP_FLOOR
    batch = batch_bench.measure_batch_throughput(batch_seeds_n, batch_sizes, batch_duration)
    if batch["batch_speedup"] < batch_floor:
        raise RuntimeError(
            f"seed-batch speedup {batch['batch_speedup']:.2f}x below the "
            f"{batch_floor}x floor"
        )
    metrics["seed_batch_seeds"] = batch_seeds_n
    metrics["seed_batch_size"] = max(batch_sizes)
    metrics["seed_batch_serial_events_per_s"] = round(batch["serial_events_per_s"])
    metrics["seed_batch_events_per_s"] = round(
        batch[f"batch{max(batch_sizes)}_events_per_s"]
    )
    metrics["seed_batch_speedup"] = round(batch["batch_speedup"], 3)

    # Checkpoint journaling overhead: the batched short sweep with and
    # without a journal, paired rounds, median ratio.  check_ceiling is
    # the PR 8 acceptance gate (≤5 % full, ≤15 % on the noisier smoke
    # workload) and raises instead of recording a bad number.
    ckpt_runs = checkpoint_bench.SMOKE_RUNS if quick else checkpoint_bench.BENCH_RUNS
    ckpt = checkpoint_bench.measure_checkpoint_overhead(ckpt_runs)
    checkpoint_bench.check_ceiling(ckpt, quick)
    metrics["checkpoint_runs"] = ckpt_runs
    metrics["checkpoint_plain_s"] = round(ckpt["plain_s"], 3)
    metrics["checkpoint_journal_s"] = round(ckpt["journal_s"], 3)
    metrics["checkpoint_overhead"] = round(ckpt["overhead"], 3)

    # SINR interference PHY: events/s on the static-table fast path vs.
    # the collision model on the same topology/traffic/seed, plus the
    # deterministic physics scalars of the hidden-node regime (the
    # measure itself raises if the hidden node ever delivers).
    sinr_packets = sinr_bench.SMOKE_PACKETS if quick else sinr_bench.BENCH_PACKETS
    sinr = sinr_bench.measure_throughput(sinr_packets)
    physics = sinr_bench.measure_physics()
    if sinr["sinr_throughput_ratio"] < sinr_bench.SINR_THROUGHPUT_FLOOR:
        raise RuntimeError(
            f"SINR throughput ratio {sinr['sinr_throughput_ratio']:.3f} below "
            f"the {sinr_bench.SINR_THROUGHPUT_FLOOR} floor"
        )
    metrics["sinr_collision_events_per_s"] = round(sinr["collision_events_per_s"])
    metrics["sinr_events_per_s"] = round(sinr["sinr_events_per_s"])
    metrics["sinr_throughput_ratio"] = round(sinr["sinr_throughput_ratio"], 3)
    metrics["sinr_hidden_delivered"] = physics["hidden_delivered"]
    metrics["sinr_delivery_asymmetry"] = round(physics["delivery_asymmetry"], 3)

    slotted_runs, slotted_s = measure_slotted_sweep(quick)
    metrics["slotted_sweep_runs"] = slotted_runs
    metrics["slotted_sweep_s"] = round(slotted_s, 3)

    rings = engine_bench.SMOKE_RINGS if quick else engine_bench.BENCH_RINGS
    duration = engine_bench.SMOKE_DURATION if quick else engine_bench.BENCH_DURATION
    warmup = engine_bench.SMOKE_WARMUP if quick else engine_bench.BENCH_WARMUP
    _, wall = engine_bench._timed_scalability(rings, duration, warmup)
    metrics["scalability_rings"] = rings
    metrics["scalability_wall_s"] = round(wall, 3)

    return {
        "schema": 1,
        "rev": _git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "metrics": metrics,
        # Pre-overhaul numbers measured on the machine that produced the
        # committed BENCH_pr4.json, for the perf-trajectory record: the
        # PR 3 engine ran the deep-heap micro at ~336k events/s and the
        # 500-run batched short sweep (fresh pool per batch, chunksize=1)
        # in ~1.15 s.
        "reference": {
            "pr3_engine_micro_deep_events_per_s": 335_643,
            "pr3_sweep_batched_s": 1.153,
            "pr2_engine_micro_events_per_s_original_machine": 210_000,
            # PR 4's committed orchestration numbers on this machine, for
            # the trajectory record: 500-run batched hidden-node sweep in
            # 0.359 s warm (2.85x over legacy dispatch); PR 4 had no
            # construction cache, so its cached-sweep equivalent is the
            # cache-off regime of sweep_cached_off_s.
            "pr4_sweep_batched_warm_s": 0.359,
            "pr4_sweep_batched_speedup": 2.848,
        },
    }


def baseline_metrics_for(current: dict, baseline: dict) -> dict:
    """The baseline metric set matching the current run's workload.

    Quick runs compare against ``quick_metrics`` (or ``metrics`` of a
    baseline that was itself recorded quick); full runs against a full
    ``metrics`` set.  Empty when the baseline has no matching workload —
    a quick-vs-full comparison would gate noise, not regressions.
    """
    baseline_quick = bool(baseline.get("quick"))
    if current["quick"]:
        if "quick_metrics" in baseline:
            return baseline["quick_metrics"]
        return baseline.get("metrics", {}) if baseline_quick else {}
    return baseline.get("metrics", {}) if not baseline_quick else {}


def check_regression(
    current: dict, baseline: dict, max_regression: float, strict_absolute: bool
) -> list:
    """Compare snapshots; return a list of failure strings (empty = pass)."""
    failures = []
    base_metrics = baseline_metrics_for(current, baseline)
    if not base_metrics:
        print(
            "regression gate skipped: baseline has no metrics for this "
            f"workload (quick={current['quick']}) — regenerate it with --baseline-out"
        )
        return []
    def _minor(version: str) -> str:
        return ".".join(str(version).split(".")[:2])

    # Ratios drift with the interpreter (per-minor-version bytecode
    # specialisation) and with the worker-to-core ratio — gating them
    # across environments would flag noise, not regressions.
    same_env = (
        baseline.get("cpu_count") == current["cpu_count"]
        and _minor(baseline.get("python", "")) == _minor(current["python"])
    )
    cur_metrics = current["metrics"]
    for name, (kind, direction, factor) in METRIC_SPECS.items():
        if name not in base_metrics or name not in cur_metrics:
            continue
        if kind == "absolute" and not strict_absolute:
            continue
        if kind == "ratio" and not same_env and not strict_absolute:
            continue
        base = float(base_metrics[name])
        cur = float(cur_metrics[name])
        if kind == "pct_points":
            drift = cur - base if direction == "lower" else base - cur
            if drift > PCT_POINT_TOLERANCE:
                failures.append(
                    f"{name}: {base:.2f} -> {cur:.2f} "
                    f"(+{drift:.2f} points, tolerance {PCT_POINT_TOLERANCE})"
                )
            continue
        if base == 0:
            continue
        limit = max_regression * factor
        regression = (base - cur) / base if direction == "higher" else (cur - base) / base
        if regression > limit:
            failures.append(
                f"{name}: {base:g} -> {cur:g} "
                f"({regression:+.1%} regression, limit {limit:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="reduced CI smoke workload")
    parser.add_argument("--json", metavar="PATH", help="write the snapshot JSON here")
    parser.add_argument(
        "--baseline-out", metavar="PATH",
        help="run BOTH the full and the quick workload and write a combined "
        "baseline snapshot (metrics + quick_metrics) for the gate",
    )
    parser.add_argument(
        "--baseline", metavar="PATH",
        help="committed snapshot to gate against (see BENCH_*.json)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.10, metavar="FRACTION",
        help="fail when a gated metric regresses by more than this (default 0.10)",
    )
    parser.add_argument(
        "--strict-absolute", action="store_true",
        help="also gate absolute events/s and wall-clock metrics "
        "(baseline and current must be the same machine)",
    )
    args = parser.parse_args(argv)

    if args.baseline_out:
        snapshot = collect(quick=False)
        # Measure the quick workload in a fresh subprocess so the stored
        # quick_metrics come from the same conditions as a CI smoke run
        # (an in-process quick pass right after the full pass measures
        # systematically warmer and would make the gate trip on noise).
        import tempfile

        with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--quick", "--json", tmp.name],
                check=True,
                env={**os.environ, "PYTHONPATH": os.environ.get("PYTHONPATH", "src")},
            )
            with open(tmp.name, "r", encoding="utf-8") as handle:
                snapshot["quick_metrics"] = json.load(handle)["metrics"]
        with open(args.baseline_out, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        for name, value in sorted(snapshot["metrics"].items()):
            print(f"{name:<40} {value}")
        print(f"wrote combined baseline to {args.baseline_out}")
        return 0

    snapshot = collect(quick=args.quick)
    for name, value in sorted(snapshot["metrics"].items()):
        print(f"{name:<40} {value}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote snapshot to {args.json}")

    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = check_regression(
            snapshot, baseline, args.max_regression, args.strict_absolute
        )
        if failures:
            print(f"\nPERF REGRESSION vs {args.baseline}:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"no regression vs {args.baseline} (limit {args.max_regression:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
