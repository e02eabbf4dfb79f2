"""Counter/histogram registry and the timing helpers built on it.

A :class:`MetricsRegistry` is a plain in-process accumulator: counters
are exact integers (cache hits, pool restarts, task counts) and
histograms keep the four moments we actually render (count / total /
min / max) for latency-style observations. Snapshots are plain dicts
so they cross process boundaries inside the existing picklable task
payloads, and :meth:`MetricsRegistry.merge` folds a worker's snapshot
into the parent — always in task order, so merged totals are
reproducible even though the readings themselves are wall-clock.

The pre-existing ad-hoc timing fields now route through here:
:class:`StageClock` backs ``RunArtifact.timings`` (per-stage seconds
accumulated across resumes) and :class:`Stopwatch` replaces the
hand-rolled ``perf_counter`` pairs in the harness and shard tasks.

Wall-clock use in this module is by design; see the DET003 exemption
for ``repro.obs`` in ``analysis/rules/det003_wallclock.py``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional


class Stopwatch:
    """Context manager measuring one elapsed interval.

    ``seconds`` is live while running and frozen at exit, so callers
    can read a partial elapsed time mid-flight (the pipeline's
    checkpoint-while-running path needs that).
    """

    __slots__ = ("_started", "_stopped")

    def __init__(self) -> None:
        self._started = time.perf_counter()
        self._stopped: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self._started = time.perf_counter()
        self._stopped = None
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stopped = time.perf_counter()

    @property
    def seconds(self) -> float:
        end = self._stopped
        if end is None:
            end = time.perf_counter()
        return end - self._started


class _Timer(Stopwatch):
    __slots__ = ("_registry", "_name")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        super().__init__()
        self._registry = registry
        self._name = name

    def __exit__(self, *exc: Any) -> None:
        super().__exit__(*exc)
        self._registry.observe(self._name, self.seconds)


class MetricsRegistry:
    """Named counters and min/total/max histograms.

    Single-writer by convention: the pipeline owns one registry per
    run and worker tasks each build their own, shipping snapshots back
    through the result payloads. No locking — merging happens on the
    consumer side in deterministic task order.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        # name -> [count, total, min, max]
        self._histograms: Dict[str, list] = {}

    def add(self, name: str, value: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        slot = self._histograms.get(name)
        if slot is None:
            self._histograms[name] = [1, value, value, value]
        else:
            slot[0] += 1
            slot[1] += value
            if value < slot[2]:
                slot[2] = value
            if value > slot[3]:
                slot[3] = value

    def timer(self, name: str) -> _Timer:
        """``with registry.timer("seed.seconds") as t: ...`` — observes
        the elapsed interval into the histogram at exit; ``t.seconds``
        stays readable afterwards."""
        return _Timer(self, name)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "counters": dict(sorted(self._counters.items())),
            "histograms": {
                name: {
                    "count": slot[0],
                    "total": slot[1],
                    "min": slot[2],
                    "max": slot[3],
                }
                for name, slot in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: Optional[Dict[str, Any]]) -> None:
        """Fold a snapshot (from a worker task or a prior resume leg)
        into this registry."""
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.add(name, value)
        for name, hist in snapshot.get("histograms", {}).items():
            slot = self._histograms.get(name)
            if slot is None:
                self._histograms[name] = [
                    hist["count"], hist["total"], hist["min"], hist["max"],
                ]
            else:
                slot[0] += hist["count"]
                slot[1] += hist["total"]
                if hist["min"] < slot[2]:
                    slot[2] = hist["min"]
                if hist["max"] > slot[3]:
                    slot[3] = hist["max"]


def histogram_total(snapshot: Optional[Dict[str, Any]], name: str) -> float:
    """Total of one histogram in a snapshot (0.0 when absent)."""
    if not snapshot:
        return 0.0
    hist = snapshot.get("histograms", {}).get(name)
    return float(hist["total"]) if hist else 0.0


def counters_with_prefix(
    snapshot: Optional[Dict[str, Any]], prefix: str
) -> Dict[str, int]:
    """Counters under a dotted prefix, with the prefix stripped.

    ``counters_with_prefix(snap, "oracle.fault.")`` turns the
    registry's ``oracle.fault.<name>`` counters back into the plain
    ``faults`` dict an artifact's execution record holds.
    """
    if not snapshot:
        return {}
    out: Dict[str, int] = {}
    for name, value in snapshot.get("counters", {}).items():
        if name.startswith(prefix):
            out[name[len(prefix):]] = value
    return out


class StageClock:
    """Per-stage wall-clock accumulator behind ``RunArtifact.timings``.

    Resume-aware: constructed with the artifact's prior timings as the
    base, so a stage interrupted and re-entered keeps accumulating
    instead of resetting. ``timings()`` is safe to call while a stage
    is open (checkpoints save mid-stage) — the open stage contributes
    its elapsed-so-far.
    """

    def __init__(self, base: Optional[Dict[str, float]] = None) -> None:
        self._base: Dict[str, float] = dict(base or {})
        self._closed: Dict[str, float] = {}
        self._open: Dict[str, float] = {}

    def stage(self, name: str) -> "_StageSpan":
        return _StageSpan(self, name)

    def _enter(self, name: str) -> None:
        self._open[name] = time.perf_counter()

    def _exit(self, name: str) -> None:
        started = self._open.pop(name, None)
        if started is None:
            return
        elapsed = time.perf_counter() - started
        self._closed[name] = self._closed.get(name, 0.0) + elapsed

    def timings(self) -> Dict[str, float]:
        now = time.perf_counter()
        out = dict(self._base)
        for name, seconds in self._closed.items():
            out[name] = out.get(name, 0.0) + seconds
        for name, started in self._open.items():
            out[name] = out.get(name, 0.0) + (now - started)
        return out


class _StageSpan:
    __slots__ = ("_clock", "_name")

    def __init__(self, clock: StageClock, name: str) -> None:
        self._clock = clock
        self._name = name

    def __enter__(self) -> "_StageSpan":
        self._clock._enter(self._name)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._clock._exit(self._name)
