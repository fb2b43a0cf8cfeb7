"""Per-layer tracing from outside the program.

:func:`install` wraps public functions of each layer of ``repro`` in place
(class attributes and module globals), so every call records a span: the
layer name, its inclusive time, and its self time (inclusive time minus
the time covered by spans it caused on the same thread).  Counters sit at
the same boundaries.  Nothing inside ``src/`` changes, and the wrappers
draw no random numbers and schedule no events, so records stay
bit-identical to an untraced run.

Processes: wrappers installed before a worker pool forks are inherited by
the workers; shard-worker subprocesses install them at interpreter start
through ``perfbench/siteinit/sitecustomize.py``.  Each process keeps its
totals in memory and writes them to ``<trace dir>/<pid>.json`` whenever an
outermost campaign span (one run, or one seed batch) ends, and at exit,
because pool workers are terminated rather than shut down.

The same wrappers serve the bounds self-test: ``inject`` maps a span name
(or ``<layer>.*``) to a fraction, and each call of that span then
busy-waits for that fraction of its own duration.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import threading
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

#: Layer groups :func:`install` knows, in report order.
LAYERS = ("campaign", "run", "batch", "phy", "metrics", "scenario", "journal", "remote")

#: Environment variables that carry the configuration to subprocesses.
ENV_DIR = "PERFBENCH_TRACE_DIR"
ENV_LAYERS = "PERFBENCH_TRACE_LAYERS"
ENV_INJECT = "PERFBENCH_INJECT"


class Tracer:
    """Span and counter totals of one process."""

    def __init__(self, out_dir: Optional[str], inject: Mapping[str, float], role: str) -> None:
        self.out_dir = out_dir
        self.inject = dict(inject)
        self.reset()
        #: "workload" for the process that drives the campaign, "worker"
        #: for pool workers and shard workers.
        self.role = role

    def reset(self) -> None:
        """Forget all totals (a forked child starts from zero)."""
        self.role = "worker"
        from repro.scenario.artifacts import artifact_cache_stats

        self._lock = threading.Lock()
        self._local = threading.local()
        #: name -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.mac = "unknown"
        stats = artifact_cache_stats()
        self._cache_base = (stats["hits"], stats["misses"])

    # ---------------------------------------------------------------- spans
    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(frame[0] == name for frame in self._stack())

    def enter(self, name: str) -> None:
        self._stack().append([name, perf_counter(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its inclusive duration."""
        stack = self._stack()
        name, start, child = stack.pop()
        duration = perf_counter() - start
        fraction = self.inject.get(name) or self.inject.get(name.split(".")[0] + ".*")
        if fraction:
            deadline = perf_counter() + fraction * duration
            while perf_counter() < deadline:
                pass
            duration = perf_counter() - start
        with self._lock:
            total = self.spans.get(name)
            if total is None:
                total = self.spans[name] = [0, 0.0, 0.0]
            total[0] += 1
            total[1] += duration
            total[2] += duration - child
        if stack:
            stack[-1][2] += duration
        return duration

    def unit_done(self) -> None:
        """A run or seed batch ended: persist totals unless it was nested."""
        if not self._stack():
            self.dump()

    def calls(self, name: str) -> int:
        total = self.spans.get(name)
        return 0 if total is None else int(total[0])

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    # --------------------------------------------------------------- output
    def snapshot(self) -> Dict[str, Any]:
        from repro.scenario.artifacts import artifact_cache_stats

        stats = artifact_cache_stats()
        with self._lock:
            counts = dict(self.counts)
            counts["scenario.cache.hits"] = stats["hits"] - self._cache_base[0]
            counts["scenario.cache.misses"] = stats["misses"] - self._cache_base[1]
            return {
                "pid": os.getpid(),
                "role": self.role,
                "spans": {name: list(total) for name, total in self.spans.items()},
                "counts": counts,
                "samples": {name: list(values) for name, values in self.samples.items()},
            }

    def dump(self) -> None:
        """Write this process's totals (replacing the previous dump)."""
        if self.out_dir is None:
            return
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(path + ".tmp", path)


# ------------------------------------------------------------------ wrappers
def _patch(owner: Any, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, functools.wraps(original)(make(original)))


def _timed(tracer: Tracer, owner: Any, attr: str, name: str) -> None:
    """Record every call of ``owner.attr`` as span ``name``."""

    def make(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    _patch(owner, attr, make)


def _timed_generator(tracer: Tracer, owner: Any, attr: str, name: str) -> None:
    """Record the time spent inside each step of a generator method."""

    def make(original: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            iterator = original(*args, **kwargs)
            while True:
                tracer.enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                yield item

        return wrapper

    _patch(owner, attr, make)


def _timed_callable(tracer: Tracer, hook: Callable[..., Any], name: str) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.enter(name)
        try:
            return hook(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


def _install_campaign(tracer: Tracer) -> None:
    from repro.campaign import batch_runner, runner

    def make_run(original: Callable[..., Any]) -> Callable[..., Any]:
        def execute_scenario(scenario: Any, *args: Any, **kwargs: Any) -> Any:
            tracer.mac = scenario.mac
            tracer.enter("campaign.run")
            try:
                return original(scenario, *args, **kwargs)
            finally:
                tracer.sample("campaign.run", tracer.exit())
                tracer.unit_done()

        return execute_scenario

    def make_batch(original: Callable[..., Any]) -> Callable[..., Any]:
        def execute_seed_batch(scenarios: Any, *args: Any, **kwargs: Any) -> Any:
            scenarios = list(scenarios)
            if scenarios:
                tracer.mac = scenarios[0].mac
            runs_before = tracer.calls("campaign.run")
            tracer.enter("campaign.batch")
            try:
                return original(scenarios, *args, **kwargs)
            finally:
                duration = tracer.exit()
                # A group that fell back to execute_scenario sampled each run
                # already; a batched group's runs share its time equally.
                if scenarios and tracer.calls("campaign.run") == runs_before:
                    for _ in scenarios:
                        tracer.sample("campaign.run", duration / len(scenarios))
                tracer.unit_done()

        return execute_seed_batch

    _patch(runner, "execute_scenario", make_run)
    _patch(batch_runner, "execute_seed_batch", make_batch)


def _install_run(tracer: Tracer) -> None:
    from repro.sim.engine import Simulator

    def make(original: Callable[..., Any]) -> Callable[..., Any]:
        def run_until(self: Any, end_time: float) -> None:
            # The batch kernel's tail drain belongs to the batch layer.
            if tracer.inside("batch"):
                return original(self, end_time)
            name = f"run.{tracer.mac}"
            before = self.events_executed
            tracer.enter(name)
            try:
                return original(self, end_time)
            finally:
                tracer.exit()
                tracer.count(f"{name}.events", self.events_executed - before)

        return run_until

    _patch(Simulator, "run_until", make)


def _install_batch(tracer: Tracer) -> None:
    from repro.sim.batch import SeedBatchExecutor

    def make(original: Callable[..., Any]) -> Callable[..., Any]:
        def run(self: Any, prepared: Any) -> Any:
            lanes = list(prepared)
            before = sum(lane.sim.events_executed for lane in lanes)
            tracer.enter("batch")
            try:
                return original(self, lanes)
            finally:
                tracer.exit()
                tracer.count("batch.calls")
                tracer.count("batch.lanes", len(lanes))
                tracer.count(
                    "batch.events", sum(lane.sim.events_executed for lane in lanes) - before
                )
                if self.last_fallback_reason is not None:
                    tracer.count("batch.fallbacks")

        return run

    _patch(SeedBatchExecutor, "run", make)


def _install_phy(tracer: Tracer) -> None:
    from repro.phy.channel import WirelessChannel
    from repro.phy.radio import Radio

    _timed(tracer, WirelessChannel, "begin_transmission", "phy.tx")
    _timed(tracer, Radio, "cca", "phy.cca")


def _install_metrics(tracer: Tracer) -> None:
    from repro.metrics.base import MetricCollector
    from repro.net.network import Network
    from repro.sim.engine import Simulator

    def make_subscribe(original: Callable[..., Any]) -> Callable[..., Any]:
        def subscribe(self: Any, hook: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
            return original(self, _timed_callable(tracer, hook, "metrics.hook"), *args, **kwargs)

        return subscribe

    for owner, attr in (
        (Network, "add_delivery_hook"),
        (Network, "add_generate_hook"),
        (Simulator, "add_trace_hook"),
    ):
        _patch(owner, attr, make_subscribe)
    for cls in _subclasses(MetricCollector):
        if "finalize" in vars(cls):
            _timed(tracer, cls, "finalize", "metrics.finalize")


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _install_scenario(tracer: Tracer) -> None:
    from repro.scenario.builder import ScenarioBuilder

    _timed(tracer, ScenarioBuilder, "build_artifacts", "scenario.artifacts")
    _timed(tracer, ScenarioBuilder, "build", "scenario.build")
    _timed(tracer, ScenarioBuilder, "build_dsme", "scenario.build")


def _install_journal(tracer: Tracer) -> None:
    from repro.service.journal import CheckpointJournal

    _timed(tracer, CheckpointJournal, "append", "journal.append")
    _timed(tracer, CheckpointJournal, "replay", "journal.replay")
    _timed_generator(tracer, CheckpointJournal, "iter_completed", "journal.replay")


def _install_remote(tracer: Tracer) -> None:
    from repro.service.remote import RemoteBackend

    _timed(tracer, RemoteBackend, "run", "remote.run")


_INSTALLERS: Dict[str, Callable[[Tracer], None]] = {
    "campaign": _install_campaign,
    "run": _install_run,
    "batch": _install_batch,
    "phy": _install_phy,
    "metrics": _install_metrics,
    "scenario": _install_scenario,
    "journal": _install_journal,
    "remote": _install_remote,
}

_TRACER: Optional[Tracer] = None


def install(
    out_dir: Optional[str],
    layers: Iterable[str] = LAYERS,
    inject: Optional[Mapping[str, float]] = None,
    role: str = "workload",
) -> Tracer:
    """Wrap the given layers in this process (once) and return the tracer.

    ``out_dir`` receives the per-process totals; None keeps them in memory
    (the self-test's injection-only mode).  The configuration is exported
    through the environment so shard-worker subprocesses started later
    install the same wrappers.
    """
    global _TRACER
    if _TRACER is not None:
        raise RuntimeError("tracing is already installed in this process")
    layers = tuple(layers)
    unknown = set(layers) - set(_INSTALLERS)
    if unknown:
        raise ValueError(f"unknown layers {sorted(unknown)}; expected some of {LAYERS}")
    tracer = _TRACER = Tracer(out_dir, inject or {}, role)
    # The engine wrapper must know when it runs inside a seed batch.
    if "run" in layers and "batch" not in layers:
        layers += ("batch",)
    for layer in layers:
        _INSTALLERS[layer](tracer)
    os.register_at_fork(after_in_child=tracer.reset)
    if out_dir is not None:
        atexit.register(tracer.dump)
    os.environ[ENV_DIR] = out_dir or ""
    os.environ[ENV_LAYERS] = ",".join(layers)
    os.environ[ENV_INJECT] = json.dumps(tracer.inject)
    return tracer


def install_from_env() -> Optional[Tracer]:
    """Install what :func:`install` exported, in a freshly started process."""
    layers = os.environ.get(ENV_LAYERS)
    if not layers:
        return None
    return install(
        os.environ.get(ENV_DIR) or None,
        layers.split(","),
        json.loads(os.environ.get(ENV_INJECT) or "{}"),
        role="worker",
    )


def load_totals(out_dir: str) -> List[Dict[str, Any]]:
    """Every process's dumped totals."""
    totals = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".json"):
            with open(os.path.join(out_dir, name), "r", encoding="utf-8") as handle:
                totals.append(json.load(handle))
    return totals
