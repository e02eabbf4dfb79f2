"""Span tracer: nested wall-clock spans in deterministic shard order.

A span is a closed interval with a name, a category, a parent link and
a ``time.monotonic`` timestamp/duration. Spans live in *shard*
buffers: the pipeline's own spans go to the main shard (``""``) while
each seed/pair task traces into its own tracer and ships its spans
back through the result payload, where the parent absorbs them under a
``seed:3`` / ``pair:17`` shard key — the same task-order merge
discipline the execution subsystem already uses for query accounting.
That makes the *structure* of a trace (shard → span-name paths) a
deterministic function of the run, independent of backend and job
count, even though every timestamp is wall-clock; the determinism
tests compare exactly that structure.

Beside the buffers, a tracer keeps a log of every span it holds, in
append order, and of every shard it discarded. :meth:`Tracer.since`
hands out what changed after a mark, a position in that log, so a
checkpoint journal records only the spans closed since its last
record.

``NULL_TRACER`` is the disabled mode: every operation is a no-op on a
shared singleton, so call sites pay one attribute check and an empty
``with`` block when tracing is off.
"""

from __future__ import annotations

import re
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Safety valve: one run keeps at most this many spans. Overflow is
#: counted in ``Tracer.dropped`` and surfaced by the exporters — a
#: truncated trace must never read as a complete one.
MAX_SPANS = 200_000

_NATURAL = re.compile(r"(\d+)")


def _natural_key(shard: str) -> Tuple:
    """Sort ``seed:10`` after ``seed:2`` (numeric runs compare as
    ints), with the main shard ``""`` first."""
    return tuple(
        (0, int(part), "") if part.isdigit() else (1, 0, part)
        for part in _NATURAL.split(shard)
    )


class _SpanHandle:
    """What ``with tracer.span(...) as handle`` yields: the span id,
    so children absorbed later (worker spans) can attach to it."""

    __slots__ = ("id",)

    def __init__(self, span_id: Optional[int]) -> None:
        self.id = span_id


_NULL_HANDLE = _SpanHandle(None)


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _SpanHandle:
        return _NULL_HANDLE

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """Disabled tracer: every method is a constant-time no-op."""

    enabled = False
    dropped = 0

    def span(
        self,
        name: str,
        cat: str = "pipeline",
        shard: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def event(
        self,
        name: str,
        cat: str = "pipeline",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        return None

    def absorb(
        self,
        shard: str,
        spans: Iterable[Dict[str, Any]],
        parent: Optional[int] = None,
    ) -> None:
        return None

    def graft(self, prefix: str, spans: Iterable[Dict[str, Any]]) -> None:
        return None

    def discard_shard(self, shard: str) -> int:
        return 0

    def snapshot(self) -> List[Dict[str, Any]]:
        return []


#: The shared disabled tracer. Call sites default to this and swap in
#: a live ``Tracer`` only under ``--trace``.
NULL_TRACER = NullTracer()


class _SpanContext:
    __slots__ = ("_tracer", "_record", "_handle", "_started")

    def __init__(self, tracer: "Tracer", record: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._record = record
        self._handle = _SpanHandle(record["id"])
        self._started = 0.0

    def __enter__(self) -> _SpanHandle:
        self._started = time.monotonic()
        self._record["ts"] = self._started
        return self._handle

    def __exit__(self, *exc: Any) -> bool:
        self._record["dur"] = time.monotonic() - self._started
        self._tracer._close(self._record)
        return False


class Tracer:
    """Collects spans into per-shard buffers.

    The owning thread opens/closes spans; nesting is tracked with a
    ``threading.local`` stack so a tracer shared across the pipeline's
    consumer threads keeps each thread's parent chain separate. Worker
    tasks do *not* share the parent tracer — they build their own and
    the parent :meth:`absorb`\\ s the result in task order, which is
    what keeps snapshots deterministic in structure.
    """

    enabled = True

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self._shards: Dict[str, List[Dict[str, Any]]] = {"": []}
        #: Every span appended, with its shard key, in append order.
        self._log: List[Tuple[str, Dict[str, Any]]] = []
        #: Every discarded shard, with the log length at its discard.
        self._discards: List[Tuple[str, int]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._count = 0
        self.max_spans = max_spans
        self.dropped = 0

    def __getstate__(self) -> Dict[str, Any]:
        # Tracers never ride task payloads (workers build their own and
        # ship span snapshots back), but define the protocol anyway so
        # an accidental pickle yields a working copy with fresh
        # synchronization state instead of shared handles.
        state = dict(self.__dict__)
        state.pop("_lock", None)
        state.pop("_local", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span lifecycle -------------------------------------------------

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _allocate(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def span(
        self,
        name: str,
        cat: str = "pipeline",
        shard: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> _SpanContext:
        stack = self._stack()
        if stack:
            parent_id, parent_shard = stack[-1]
        else:
            parent_id, parent_shard = None, ""
        record: Dict[str, Any] = {
            "id": self._allocate(),
            "parent": parent_id,
            "name": name,
            "cat": cat,
            "ts": 0.0,
            "dur": 0.0,
        }
        if args:
            record["args"] = dict(args)
        record["_shard"] = shard if shard is not None else parent_shard
        stack.append((record["id"], record["_shard"]))
        return _SpanContext(self, record)

    def _close(self, record: Dict[str, Any]) -> None:
        stack = self._stack()
        if stack and stack[-1][0] == record["id"]:
            stack.pop()
        shard = record.pop("_shard")
        self._append(shard, record)

    def event(
        self,
        name: str,
        cat: str = "pipeline",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Zero-duration instant span at the current nesting point."""
        stack = self._stack()
        if stack:
            parent_id, shard = stack[-1]
        else:
            parent_id, shard = None, ""
        record: Dict[str, Any] = {
            "id": self._allocate(),
            "parent": parent_id,
            "name": name,
            "cat": cat,
            "ts": time.monotonic(),
            "dur": 0.0,
        }
        if args:
            record["args"] = dict(args)
        self._append(shard, record)

    def _append(self, shard: str, record: Dict[str, Any]) -> None:
        with self._lock:
            if self._count >= self.max_spans:
                self.dropped += 1
                return
            self._count += 1
            self._shards.setdefault(shard, []).append(record)
            self._log.append((shard, record))

    # -- shard merging --------------------------------------------------

    def _remap(
        self,
        spans: Iterable[Dict[str, Any]],
        parent: Optional[int],
    ) -> List[Tuple[Optional[str], Dict[str, Any]]]:
        """Copy foreign spans with fresh ids; roots attach to
        ``parent``. Returns (foreign shard key or None, new record)."""
        mapping: Dict[int, int] = {}
        out: List[Tuple[Optional[str], Dict[str, Any]]] = []
        for span in spans:
            record = dict(span)
            foreign_shard = record.pop("shard", None)
            old_id = record.get("id")
            new_id = self._allocate()
            if old_id is not None:
                mapping[old_id] = new_id
            record["id"] = new_id
            out.append((foreign_shard, record))
        for _, record in out:
            old_parent = record.get("parent")
            if old_parent is None:
                record["parent"] = parent
            else:
                record["parent"] = mapping.get(old_parent, parent)
        return out

    def absorb(
        self,
        shard: str,
        spans: Iterable[Dict[str, Any]],
        parent: Optional[int] = None,
    ) -> None:
        """Merge a worker task's spans under one shard key, attaching
        the task's root spans to ``parent`` (usually the stage span).
        Callers invoke this in task order; the buffers preserve it."""
        for _, record in self._remap(spans, parent):
            self._append(shard, record)

    def graft(self, prefix: str, spans: Iterable[Dict[str, Any]]) -> None:
        """Re-seed spans from a prior snapshot (resume) or another
        run's telemetry (suite aggregation), preserving their shard
        layout under ``prefix``."""
        for foreign_shard, record in self._remap(spans, None):
            sub = foreign_shard or ""
            if not prefix:
                shard = sub
            elif not sub:
                shard = prefix
            else:
                shard = prefix + "/" + sub
            self._append(shard, record)

    def discard_shard(self, shard: str) -> int:
        """Drop a shard's spans (speculative work that lost the §6.1
        covered-seed race or a skipped pair): its trace must match the
        serial run, which never did that work."""
        with self._lock:
            spans = self._shards.pop(shard, None)
            if not spans:
                return 0
            self._count -= len(spans)
            self._discards.append((shard, len(self._log)))
            return len(spans)

    # -- export ---------------------------------------------------------

    def since(
        self, mark: Tuple[int, int]
    ) -> Tuple[List[Dict[str, Any]], List[str], Tuple[int, int]]:
        """What changed after ``mark``: the spans appended since that
        are still held (each annotated with its ``shard`` key, in append
        order), the shards discarded since, and the new mark. A mark is
        a position in the span log; ``(0, 0)`` is its start.

        Dropping the discarded shards from a :meth:`snapshot` taken at
        ``mark``, then appending the spans to their shards, gives the
        snapshot now: a span is left out exactly when a later discard
        dropped its shard.
        """
        with self._lock:
            start, discarded_from = mark
            discards = self._discards[discarded_from:]
            latest = {shard: at for shard, at in discards}
            spans = [
                dict(record, shard=shard)
                for position, (shard, record) in enumerate(
                    self._log[start:], start
                )
                if latest.get(shard, 0) <= position
            ]
            return (
                spans,
                [shard for shard, _at in discards],
                (len(self._log), len(self._discards)),
            )

    def snapshot(self) -> List[Dict[str, Any]]:
        """All spans, main shard first then shards in natural order,
        each span annotated with its ``shard`` key."""
        with self._lock:
            shards = {key: list(spans) for key, spans in self._shards.items()}
        out: List[Dict[str, Any]] = []
        for key in sorted(shards, key=_natural_key):
            for record in shards[key]:
                span = dict(record)
                span["shard"] = key
                out.append(span)
        return out
