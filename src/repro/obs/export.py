"""Telemetry sections and Chrome ``trace_event`` export.

``build_telemetry`` packages a run's spans and metrics into the
versioned JSON section stored on ``RunArtifact.telemetry`` /
``SuiteResult.telemetry``; while a traced run goes on, its artifact
holds a :class:`LiveTelemetry` that builds the section on demand. The
section lives *outside* the deterministic compared-metrics surface:
``canonical_metrics_bytes`` never sees it, and the eval-gate
comparison ignores it — timestamps and durations are wall-clock by
nature.

``chrome_trace`` converts a telemetry section to the Chrome
``trace_event`` JSON object format (the one Perfetto and
``chrome://tracing`` open directly): each shard becomes a process
(``pid``) named via an ``"M"`` metadata event, closed spans become
``"X"`` complete events with microsecond timestamps normalized to the
run's start, and zero-duration spans become ``"i"`` instants.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullTracer, Tracer, _natural_key

#: Version of the ``telemetry`` section schema. Bump on breaking
#: changes to the span/metrics layout; readers must tolerate unknown
#: newer fields within a version.
TELEMETRY_VERSION = 1

#: Span categories whose structure is deterministic across backends
#: and job counts (``span_structure`` compares only these; oracle spans
#: depend on cache state and scheduling).
DETERMINISTIC_CATS = ("pipeline", "phase1", "phase2")


def build_telemetry(
    tracer: Union[Tracer, NullTracer],
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """The versioned JSON telemetry section for an artifact."""
    section = _section_head(tracer, registry)
    section["spans"] = tracer.snapshot()
    return section


def _section_head(
    tracer: Union[Tracer, NullTracer],
    registry: Optional[MetricsRegistry],
) -> Dict[str, Any]:
    """The telemetry section without its spans."""
    section: Dict[str, Any] = {"version": TELEMETRY_VERSION}
    if tracer.dropped:
        # Never let a truncated trace read as a complete one.
        section["dropped_spans"] = tracer.dropped
    if registry is not None:
        section["metrics"] = registry.snapshot()
    return section


class LiveTelemetry:
    """The telemetry section of a traced run that is still going.

    The pipeline keeps one on its artifact until the run's last save,
    then keeps the built section. :meth:`section` builds the section in
    full. A checkpoint journal stores :meth:`head` and asks the tracer
    for the spans closed since its previous record (``Tracer.since``).
    """

    __slots__ = ("tracer", "registry")

    def __init__(self, tracer: Tracer, registry: MetricsRegistry) -> None:
        self.tracer = tracer
        self.registry = registry

    def section(self) -> Dict[str, Any]:
        return build_telemetry(self.tracer, self.registry)

    def head(self) -> Dict[str, Any]:
        """The section without its spans."""
        return _section_head(self.tracer, self.registry)


def span_structure(
    telemetry: Optional[Dict[str, Any]],
    cats: Iterable[str] = DETERMINISTIC_CATS,
) -> List[str]:
    """Timing-free skeleton of a trace: sorted ``shard|path|cat``
    lines, where ``path`` is the root-to-span chain of names.

    This is the value the determinism tests compare across
    ``--jobs`` × backend combinations: identical structure, durations
    ignored.
    """
    if not telemetry:
        return []
    spans = telemetry.get("spans", [])
    wanted = set(cats)
    by_id = {span["id"]: span for span in spans if span.get("id") is not None}
    lines = []
    for span in spans:
        if span.get("cat") not in wanted:
            continue
        names = [span["name"]]
        seen_ids = {span.get("id")}
        parent = by_id.get(span.get("parent"))
        while parent is not None:
            parent_id = parent.get("id")
            if parent_id in seen_ids:
                break  # defensive: never loop on malformed links
            seen_ids.add(parent_id)
            names.append(parent["name"])
            parent = by_id.get(parent.get("parent"))
        names.reverse()
        lines.append(
            "%s|%s|%s" % (span.get("shard", ""), "/".join(names), span["cat"])
        )
    return sorted(lines)


def chrome_trace(telemetry: Dict[str, Any]) -> Dict[str, Any]:
    """Telemetry section → Chrome ``trace_event`` JSON object."""
    spans = telemetry.get("spans", [])
    shards: List[str] = []
    seen = set()
    for span in spans:
        shard = span.get("shard", "")
        if shard not in seen:
            seen.add(shard)
            shards.append(shard)
    shards.sort(key=_natural_key)
    pids = {shard: index + 1 for index, shard in enumerate(shards)}

    events: List[Dict[str, Any]] = []
    for shard in shards:
        events.append({
            "ph": "M",
            "name": "process_name",
            "pid": pids[shard],
            "tid": 0,
            "args": {"name": shard or "main"},
        })

    base = min((span["ts"] for span in spans), default=0.0)
    for span in spans:
        ts_us = (span["ts"] - base) * 1e6
        dur_us = span.get("dur", 0.0) * 1e6
        event: Dict[str, Any] = {
            "name": span["name"],
            "cat": span.get("cat", "pipeline"),
            "pid": pids[span.get("shard", "")],
            "tid": 0,
            "ts": ts_us,
        }
        if dur_us > 0:
            event["ph"] = "X"
            event["dur"] = dur_us
        else:
            event["ph"] = "i"
            event["s"] = "t"
        if span.get("args"):
            event["args"] = span["args"]
        events.append(event)

    trace: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if telemetry.get("dropped_spans"):
        trace["otherData"] = {"dropped_spans": telemetry["dropped_spans"]}
    return trace


def write_chrome_trace(
    telemetry: Dict[str, Any], path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write the Chrome trace for ``telemetry`` to ``path``."""
    path = pathlib.Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(telemetry), handle, indent=1)
        handle.write("\n")
    return path
