"""Seed-batch executor benchmark: lockstep lanes vs. per-seed serial runs.

The batch engine advances N same-configuration seeds in one process
over one shared frozen artifact bundle, vectorising the per-tick QMA work
(clock advance, boundary evaluation, exploration draws, policy lookups)
across the ``(lane, node)`` plane.  This benchmark measures aggregate
simulation throughput — total ``events_executed`` across all lanes over
wall-clock — for per-seed serial execution and for batch sizes 1/8/32 on
the star-testbed QMA workload under fading (the propagation model with the
most per-boundary randomness), and reports ``batch_speedup`` = batched
events/s at the largest batch size over serial events/s.

Because batched execution is bit-identical to serial by construction, the
measure doubles as a determinism guard: the headline scalars of the first
seeds must match between every variant, or the benchmark aborts.

Run directly (``python benchmarks/bench_seed_batch.py [--quick]``) or let
``run_all.py`` fold the numbers into the tracked snapshot.
"""

from __future__ import annotations

import sys
import time

from repro.experiments.testbed import prepare_star
from repro.scenario import ARTIFACT_CACHE
from repro.sim.batch import SeedBatchExecutor

#: Star-testbed QMA workload under fading; ``max_duration`` bounds the
#: simulated horizon so wall-clock scales with the seed count alone.
WORKLOAD = {"packets_per_node": 20, "warmup": 0.5, "delta": 50.0}

BENCH_SEEDS = 32
SMOKE_SEEDS = 8
BENCH_SIZES = (1, 8, 32)
SMOKE_SIZES = (1, 8)
BENCH_DURATION = 8.0
SMOKE_DURATION = 3.0

#: Floors on ``batch_speedup`` (batched over per-seed serial events/s).
#: A lockstep kernel that has collapsed to batch=1 (= serial) speed
#: measures ~1.0x and must fail; each floor sits between that and the
#: speedup measured on a 2-vCPU VM (full, batch=32: 2.97x; quick,
#: batch=8: 1.32x), far enough below the latter to absorb machine noise.
#: The absolute ``seed_batch_events_per_s`` is tracked in the snapshot.
BATCH_SPEEDUP_FLOOR = 2.0
SMOKE_SPEEDUP_FLOOR = 1.1

#: Interleaved serial/batched rounds for the gated speedup ratio: pairing
#: cancels machine-load drift and the median resists outlier rounds (the
#: same discipline as the engine fast-vs-generic ratio in run_all.py).
ROUNDS = 3


def _lanes(num_seeds: int, duration: float):
    """Prepare one lane per seed; the artifact cache makes them share one
    frozen bundle, exactly as the campaign batch tier does."""
    with ARTIFACT_CACHE.override(enabled=True):
        return [
            prepare_star(
                mac="qma",
                seed=seed,
                propagation="fading",
                max_duration=duration,
                **WORKLOAD,
            )
            for seed in range(num_seeds)
        ]


def _run_variant(num_seeds: int, duration: float, batch_size: int, serial: bool):
    """Time one full pass over all seeds; return ``(events_per_s, reports)``."""
    lanes = _lanes(num_seeds, duration)
    executor = SeedBatchExecutor(force_serial=serial)
    start = time.perf_counter()
    reports = []
    for lo in range(0, len(lanes), batch_size):
        reports.extend(executor.run(lanes[lo : lo + batch_size]))
    wall = time.perf_counter() - start
    events = sum(lane.sim.events_executed for lane in lanes)
    return events / wall, reports


def _guard_identical(reports, reference, size: int) -> None:
    for seed, report in enumerate(reports):
        if report.scalars != reference[seed]:
            raise RuntimeError(f"batch={size} diverged from serial on seed {seed}")


def measure_batch_throughput(num_seeds: int, sizes, duration: float) -> dict:
    """Serial vs. batched aggregate events/s, with a bit-identicality guard.

    Absolute rates report the best round (noise only slows a run down);
    the headline ``batch_speedup`` is the median of ``ROUNDS`` interleaved
    serial/batched ratio measurements at the largest batch size.
    """
    largest = max(sizes)
    reference = None
    serial_best = largest_best = 0.0
    ratios = []
    for _ in range(ROUNDS):
        serial_rate, serial_reports = _run_variant(
            num_seeds, duration, batch_size=1, serial=True
        )
        if reference is None:
            reference = [report.scalars for report in serial_reports]
        rate, reports = _run_variant(num_seeds, duration, largest, serial=False)
        _guard_identical(reports, reference, largest)
        serial_best = max(serial_best, serial_rate)
        largest_best = max(largest_best, rate)
        ratios.append(rate / serial_rate)
    result = {
        "seeds": num_seeds,
        "serial_events_per_s": serial_best,
        f"batch{largest}_events_per_s": largest_best,
    }
    for size in sizes:
        if size == largest:
            continue
        rate, reports = _run_variant(num_seeds, duration, size, serial=False)
        _guard_identical(reports, reference, size)
        result[f"batch{size}_events_per_s"] = rate
    ratios.sort()
    result["batch_speedup"] = ratios[len(ratios) // 2]
    return result


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    num_seeds = SMOKE_SEEDS if quick else BENCH_SEEDS
    sizes = SMOKE_SIZES if quick else BENCH_SIZES
    duration = SMOKE_DURATION if quick else BENCH_DURATION
    floor = SMOKE_SPEEDUP_FLOOR if quick else BATCH_SPEEDUP_FLOOR

    result = measure_batch_throughput(num_seeds, sizes, duration)
    print(f"seed-batch throughput ({num_seeds} seeds, {duration:g}s horizon):")
    print(f"  serial     {result['serial_events_per_s']:>12,.0f} events/s")
    for size in sizes:
        print(f"  batch={size:<3}  {result[f'batch{size}_events_per_s']:>12,.0f} events/s")
    print(f"  speedup at batch={max(sizes)}: {result['batch_speedup']:.2f}x (floor {floor}x)")
    if result["batch_speedup"] < floor:
        print("FAIL: batch speedup below the floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
