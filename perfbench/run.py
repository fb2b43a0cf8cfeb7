"""The repository benchmark: four campaign workloads, end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload short-sweep-checkpointed --seed 1 \\
        --seconds 20 --trace 0

Each repetition is a fresh workload process (``perfbench/workload.py``)
that sets up, runs one campaign and exits; repetitions continue until
``--seconds`` have passed (and at least a minimum count ran), and every
metric is the median over repetitions.  With ``--trace 0`` the result
holds the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
repetitions alternate untraced and traced, and the result holds the
per-layer metrics.  Records are checked in every repetition: against the
committed reference hashes (``perfbench/reference.json``) when the seed is
the reference seed, and against the first repetition always, traced or not.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with the
environment and every repetition, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Mapping, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOAD_NAMES = (
    "star-qma-batched",
    "short-sweep-checkpointed",
    "dsme-scalability",
    "sinr-remote",
)
MACS = ("qma", "unslotted-csma", "slotted-csma", "slotted-aloha", "tdma")
#: Workers or connections each workload uses (see workloads.WORKERS).
WORKERS = 2
#: Fewest repetitions per run, untraced and traced (pairs) respectively.
MIN_REPS = {False: 5, True: 4}
#: No repetition starts once a run has used this much time.
RUN_BUDGET_S = 150.0
#: Hard limit on one workload process.
REP_TIMEOUT_S = 120.0


class BenchmarkError(RuntimeError):
    """A workload process failed or the checkout cannot run the benchmark."""


# ------------------------------------------------------------------ env
def calibration_s() -> float:
    """Median time of a fixed pure-Python loop (machine speed reference)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> Dict[str, Any]:
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calibration_s": calibration_s(),
    }


# ---------------------------------------------------------- repetitions
def run_rep(
    workload: str,
    seed: int,
    traced: bool,
    out_dir: str,
    index: int,
    inject: Optional[Mapping[str, float]] = None,
) -> Dict[str, Any]:
    """One workload process; returns its result plus setup and CPU time."""
    workdir = os.path.join(out_dir, f"rep{index}")
    result_path = os.path.join(out_dir, f"rep{index}.json")
    stderr_path = os.path.join(out_dir, f"rep{index}.stderr")
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", workload, "--seed", str(seed),
        "--workdir", workdir, "--result", result_path,
    ]
    if traced:
        cmd.append("--trace")
    if inject:
        cmd += ["--inject", json.dumps(dict(inject))]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(stderr_path, "wb") as stderr:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True
        )
        try:
            code = proc.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The workload closes its pools and agents itself; this only
            # reaps what a crash or a timeout left behind.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if code != 0:
        with open(stderr_path, "r", encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-2000:]
        reason = "timed out" if code is None else f"exited {code}"
        raise BenchmarkError(f"{workload} repetition {index} {reason}:\n{tail}")
    with open(result_path, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = result["t_call"] - t_spawn
    result["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return result


def run_reps(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: str,
) -> List[Dict[str, Any]]:
    """Repetitions for ``seconds`` (at least ``MIN_REPS``); traced ones alternate."""
    min_reps = MIN_REPS[trace]
    reps: List[Dict[str, Any]] = []
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(workload, seed, traced, out_dir, len(reps)))
        now = time.monotonic()
        paired = not trace or len(reps) % 2 == 0
        if paired and len(reps) >= min_reps and now - start >= seconds:
            break
        if paired and now - start + 1.5 * (now - rep_start) > RUN_BUDGET_S:
            break
    return reps


# ------------------------------------------------------------ correctness
def load_reference() -> Dict[str, Any]:
    with open(REFERENCE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def digest(hashes: List[str]) -> str:
    return hashlib.sha256("".join(hashes).encode("ascii")).hexdigest()[:16]


def check_reps(workload: str, seed: int, reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Count failed runs over all repetitions and say why."""
    reference = load_reference()
    expected = None
    if seed == reference["seed"]:
        expected = reference["workloads"][workload]["hashes"]
    first = reps[0]["record_hashes"]
    failed = 0
    problems: List[str] = []
    for index, rep in enumerate(reps):
        hashes = rep["record_hashes"]
        wrong = set()
        for label, want in (("reference", expected), ("first repetition", first)):
            if want is None:
                continue
            mismatched = [i for i, h in enumerate(hashes) if i >= len(want) or h != want[i]]
            if mismatched:
                problems.append(
                    f"rep {index} ({'traced' if rep['traced'] else 'untraced'}): "
                    f"{len(mismatched)} record(s) differ from the {label}, first {mismatched[0]}"
                )
            wrong.update(mismatched)
        failed += max(rep["failed_runs"], len(wrong))
        problems += [f"rep {index}: {p}" for p in rep["problems"]]
    return {
        "attempted": sum(rep["runs"] for rep in reps),
        "failed": failed,
        "problems": problems,
        "digest": digest(first),
        "reference_digest": None if expected is None else digest(expected),
    }


# ---------------------------------------------------------------- metrics
def median_of(reps: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def end_to_end(reps: List[Dict[str, Any]], failed_share: float) -> Dict[str, float]:
    untraced = [rep for rep in reps if not rep["traced"]]
    return {
        "campaign_s": median_of(untraced, "campaign_s"),
        "setup_s": median_of(untraced, "setup_s"),
        "cpu_s": median_of(untraced, "cpu_s"),
        "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        "failed_share": failed_share,
    }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def merge_totals(processes: List[Dict[str, Any]], role: Optional[str] = None) -> Dict[str, Any]:
    """Sum spans and counters over the processes (of one role) of a traced repetition."""
    spans: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    for proc in processes:
        if role is not None and proc["role"] != role:
            continue
        for name, (calls, total, own) in proc["spans"].items():
            merged = spans.setdefault(name, [0, 0.0, 0.0])
            merged[0] += calls
            merged[1] += total
            merged[2] += own
        for name, value in proc["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, values in proc["samples"].items():
            samples.setdefault(name, []).extend(values)
    return {"spans": spans, "counts": counts, "samples": samples}


def layer_metrics(rep: Dict[str, Any], untraced_campaign_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    totals = merge_totals(rep["trace"])
    spans, counts = totals["spans"], totals["counts"]
    runs = totals["samples"].get("campaign.run", [])

    def calls(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[0]

    def seconds(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2]

    def per_event(span: str, events: float) -> float:
        return seconds(span) / events * 1e6 if events else 0.0

    m: Dict[str, float] = {}
    for mac in MACS:
        events = counts.get(f"run.{mac}.events", 0)
        m[f"run.{mac}.events"] = events
        m[f"run.{mac}.us_per_event"] = per_event(f"run.{mac}", events)
    m["batch.calls"] = counts.get("batch.calls", 0)
    m["batch.lanes"] = counts.get("batch.lanes", 0)
    m["batch.s"] = seconds("batch")
    m["batch.us_per_event"] = per_event("batch", counts.get("batch.events", 0))
    m["batch.fallbacks"] = counts.get("batch.fallbacks", 0)
    for name in ("tx", "cca"):
        m[f"phy.{name}.calls"] = calls(f"phy.{name}")
        m[f"phy.{name}.s"] = seconds(f"phy.{name}")
    m["metrics.hook.calls"] = calls("metrics.hook")
    m["metrics.hook.s"] = seconds("metrics.hook")
    m["metrics.finalize.s"] = seconds("metrics.finalize")
    hits = counts.get("scenario.cache.hits", 0)
    misses = counts.get("scenario.cache.misses", 0)
    m["scenario.artifacts.calls"] = calls("scenario.artifacts")
    m["scenario.artifacts.s"] = seconds("scenario.artifacts")
    m["scenario.build.s"] = seconds("scenario.build")
    m["scenario.cache.hits"] = hits
    m["scenario.cache.misses"] = misses
    m["scenario.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    busy = sum(runs)
    m["campaign.runs"] = len(runs)
    m["campaign.run.p50_s"] = percentile(runs, 50)
    m["campaign.run.p99_s"] = percentile(runs, 99)
    m["campaign.worker_busy_share"] = busy / (rep["campaign_s"] * WORKERS)
    m["campaign.dispatch_s"] = rep["campaign_s"] * WORKERS - busy
    m["journal.append.calls"] = calls("journal.append")
    m["journal.append.s"] = seconds("journal.append")
    m["journal.replay.s"] = seconds("journal.replay")
    m["journal.bytes"] = rep["journal_bytes"]
    remote = rep["remote"] or {}
    m["remote.run.s"] = seconds("remote.run")
    m["remote.slices"] = remote.get("slices", 0)
    m["remote.stream_bytes"] = remote.get("stream_bytes", 0)
    m["remote.host_failures"] = remote.get("host_failures", 0)
    unattributed = own("campaign.run") + own("campaign.batch")
    m["trace.overhead"] = rep["campaign_s"] / untraced_campaign_s
    m["trace.coverage"] = 1.0 - unattributed / busy if busy else 0.0
    m["trace.unattributed_s"] = unattributed
    return m


def per_layer(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Median of every per-layer metric over the traced repetitions."""
    untraced_s = median_of([rep for rep in reps if not rep["traced"]], "campaign_s")
    traced = [layer_metrics(rep, untraced_s) for rep in reps if rep["traced"]]
    metrics = {name: float(statistics.median(m[name] for m in traced)) for name in traced[0]}
    # Percentiles over the pooled run samples of all traced repetitions.
    pooled = [
        value
        for rep in reps
        if rep["traced"]
        for value in merge_totals(rep["trace"])["samples"].get("campaign.run", [])
    ]
    metrics["campaign.run.p50_s"] = percentile(pooled, 50)
    metrics["campaign.run.p99_s"] = percentile(pooled, 99)
    return metrics


def span_table(reps: List[Dict[str, Any]], role: str) -> List[List[Any]]:
    """Rows (span, calls, inclusive s, self s) of the median traced repetition."""
    traced = sorted((rep for rep in reps if rep["traced"]), key=lambda rep: rep["campaign_s"])
    spans = merge_totals(traced[len(traced) // 2]["trace"], role)["spans"]
    rows = [[name, int(c), total, own] for name, (c, total, own) in spans.items()]
    return sorted(rows, key=lambda row: -row[3])


# ---------------------------------------------------------------- output
def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def print_report(
    workload: str,
    seed: int,
    trace: bool,
    env: Dict[str, Any],
    reps: List[Dict[str, Any]],
    check: Dict[str, Any],
    e2e: Dict[str, float],
    layers: Optional[Dict[str, float]],
    spec: Dict[str, Any],
) -> None:
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  repetitions {len(reps)}")
    print(
        f"env: git {env['git_rev'][:12]}  python {env['python']}  nproc {env['nproc']}  "
        f"calibration {env['calibration_s']:.4f} s  load {env['load_before']:.2f} -> "
        f"{env['load_after']:.2f}{'  NOISY (load > nproc)' if env['noisy'] else ''}"
    )
    for problem in check["problems"][:10]:
        print(f"CHECK FAILED: {problem}")
    reference = check["reference_digest"]
    verdict = "no reference for this seed" if reference is None else (
        "matches reference" if reference == check["digest"] else f"REFERENCE IS {reference}"
    )
    print(f"records: digest {check['digest']} ({verdict})")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("end-to-end (median of untraced repetitions):")
    for name, value in e2e.items():
        unit = units.get(name, "ratio")
        extra = f"  ({check['failed']} of {check['attempted']} runs)" if name == "failed_share" else ""
        print(f"  {name:<14} {value:12.4f} {unit}{extra}")
    if layers is None:
        return
    print("per-layer (median of traced repetitions):")
    for name, value in layers.items():
        print(f"  {name:<32} {value:14.6g} {units.get(name, '')}")
    titles = {
        "worker": "worker processes: self time by layer, share of worker busy time "
                  "(campaign.* self time is unattributed)",
        "workload": "workload process (dispatch side): self time by layer",
    }
    for role, title in titles.items():
        rows = span_table(reps, role)
        if not rows:
            continue
        total_self = sum(row[3] for row in rows) or 1.0
        print(title + ":")
        for name, calls, total, own in rows:
            print(f"  {name:<22} {calls:>9} calls {total:10.3f} s incl {own:10.3f} s self "
                  f"{100 * own / total_self:6.1f} %")
    print(f"  unattributed worker time {layers['trace.unattributed_s']:.3f} s "
          f"(coverage {100 * layers['trace.coverage']:.1f} %)")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: {ROOT} holds no repro sources (src/repro)", file=sys.stderr)
        return 2
    spec = load_spec()
    trace = bool(args.trace)
    env = environment()
    env["load_before"] = os.getloadavg()[0]
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        reps = run_reps(args.workload, args.seed, args.seconds, trace, out_dir)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        env["load_after"] = os.getloadavg()[0]
        env["noisy"] = max(env["load_before"], env["load_after"]) > (env["nproc"] or 1)
    check = check_reps(args.workload, args.seed, reps)
    e2e = end_to_end(reps, check["failed"] / check["attempted"])
    layers = per_layer(reps) if trace else None
    print_report(args.workload, args.seed, trace, env, reps, check, e2e, layers, spec)

    section = "per_layer" if trace else "end_to_end"
    values = layers if trace else e2e
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
    }
    result = {
        "correct": check["failed"] == 0,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": metrics,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, env=env, check=check,
                  end_to_end=e2e, per_layer=layers,
                  repetitions=[{k: v for k, v in rep.items() if k != "record_hashes"}
                               for rep in reps])
    with open(os.path.join(OUT, "results", os.path.basename(out_dir) + ".json"), "w") as handle:
        json.dump(record, handle, indent=1)
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
