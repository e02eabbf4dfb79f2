"""Seed-sharded phase 1: independent per-seed tasks, deterministic merge.

GLADE's phase 1 (§4 synthesis + §6.2 character generalization)
processes each seed independently — nothing is shared until translation
and phase-2 merging. This module packages that per-seed work as
self-contained tasks an :class:`~repro.exec.backends.Executor` can run
on any worker, in any order, with a merge that is deterministic in
*seed order* regardless of completion order:

- every task owns its own query counters and the seed's disjoint
  star-id block (:func:`~repro.core.gtree.seed_block_allocator`), so
  learned trees — including their ``R<id>`` nonterminal names — are
  identical whether the seed ran first on the main thread or last in a
  worker process. With one worker, tasks share the pipeline's caching
  layer and membership session (in-process, so one memo and one NFA
  fragment cache serve every seed, and results are unchanged); with
  several, each task builds its own;
- task payloads and results are picklable: the result carries the
  generalization tree in the artifact's JSON encoding, the seed's query
  count, its own cache's verdicts (which the pipeline folds into the
  run's cache if the seed is kept, see
  :meth:`~repro.learning.oracle.CachingOracle.record`), and worker
  wall-clock;
- :func:`run_pending` drives payloads through an executor, yielding
  decoded results in completion order; the pipeline settles them in
  seed order.

The §6.1 covered-seed *decision* stays with the pipeline (it is a
cross-seed rule applied in seed order); sharding only changes when the
speculative learning work happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator

from repro.core.chargen import generalize_characters
from repro.core.gtree import seed_block_allocator
from repro.core.phase1 import Phase1Result, synthesize_regex
from repro.exec.backends import Executor
from repro.learning.oracle import (
    CachingOracle,
    CountingOracle,
    Oracle,
    TracingOracle,
)
from repro.learning.resilience import add_fault_counters
from repro.obs.metrics import MetricsRegistry, histogram_total
from repro.obs.trace import NULL_TRACER, Tracer

#: Worker functions executor backends run as task payloads. detlint's
#: PAR001 walks the call graph from every function registered here and
#: rejects reads/writes of module-level mutable state (the global
#: ``_star_counter`` bug class) before they ship.
TASK_ENTRY_POINTS = ("run_seed_task",)


@dataclass
class SeedResult:
    """One seed's merged phase-1 outcome, decoded on the parent side.

    ``verdicts`` is the task's own cache (every distinct string it
    asked, with its verdict), empty when the task shared the parent's
    cache. ``seconds`` is a derived view of ``telemetry`` — the task's
    metrics-registry snapshot (plus its spans under ``--trace``) — kept
    as a named field because the pipeline's artifact merge reads it.
    """

    index: int
    result: Phase1Result
    queries: int
    verdicts: Dict[str, bool]
    seconds: float
    #: The task's wire telemetry: ``{"metrics": <registry snapshot>,
    #: "spans": [...]}``; spans (phase one's ``step`` events among
    #: them) are empty unless the run traces.
    telemetry: Dict[str, Any] = field(default_factory=dict)


def seed_payload(
    index: int,
    text: str,
    config: Any,
    oracle: Oracle,
    session: Any = None,
) -> Dict[str, Any]:
    """The task payload for one seed (picklable with the defaults).

    ``config`` is the run's :class:`~repro.core.glade.GladeConfig` (a
    dataclass of primitives). ``oracle`` is the base membership oracle
    for workers (each pickled copy builds its own cache); a one-worker
    run instead passes its process-local :class:`CachingOracle`, so the
    task skips its own cache layer — one memo across all seeds, no
    double caching — and returns no verdicts (the parent cache already
    holds them). ``session`` optionally shares one in-process membership
    session across tasks — only a one-worker run does this (sessions
    are neither thread-safe nor worth pickling), recovering the
    cross-seed NFA fragment reuse of the pre-sharding sequential loop.
    Results are identical with or without either kind of sharing.
    """
    return {
        "index": index,
        "text": text,
        "config": config,
        "oracle": oracle,
        "session": session,
    }


def run_seed_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Learn one seed, self-contained: phase 1 plus chargen.

    This is the worker entry point for every backend (module-level so
    process pools can pickle it by reference). The returned dict is the
    wire format: the tree in artifact JSON encoding, the query count,
    the task cache's verdicts, and timings — everything the parent
    needs to merge deterministically.
    """
    # Imported here (not at module top) to keep the worker import
    # surface explicit; artifacts.schema itself imports core modules.
    from repro.artifacts.schema import phase1_result_to_dict

    index = payload["index"]
    config = payload["config"]
    # Task-local observability: the registry always runs (it backs the
    # per-seed ``seconds`` the artifact has always recorded); spans only
    # under ``--trace``.
    registry = MetricsRegistry()
    tracer = Tracer() if getattr(config, "trace", False) else NULL_TRACER
    if isinstance(payload["oracle"], CachingOracle):
        # The payload oracle already is a (shared) caching layer — in a
        # one-worker run its stack carries the parent's tracing layer.
        cached = None
        counting = CountingOracle(payload["oracle"])
    else:
        base = payload["oracle"]
        if tracer.enabled:
            base = TracingOracle(base, registry, tracer)
        cached = CachingOracle(base)
        counting = CountingOracle(cached)
    with registry.timer("seed.seconds"):
        with tracer.span("seed", cat="phase1", args={"index": index}):
            with tracer.span("synthesize", cat="phase1"):
                result = synthesize_regex(
                    payload["text"],
                    counting,
                    tracer=tracer,
                    session=payload.get("session"),
                    allocator=seed_block_allocator(index),
                )
            if config.enable_chargen:
                with tracer.span("chargen", cat="phase1"):
                    generalize_characters(
                        result.root, counting, config.alphabet
                    )
    result.seed_index = index
    registry.add("exec.phase1.tasks")
    # Drain the oracle stack's fault counters (retries, timeouts,
    # injected faults) into this task's snapshot so they merge into the
    # parent registry; drain semantics keep shared-stack counts exact.
    add_fault_counters(payload["oracle"], registry)
    return {
        "index": index,
        "result": phase1_result_to_dict(result),
        "queries": counting.queries,
        "verdicts": cached.known_results() if cached is not None else {},
        "telemetry": {
            "metrics": registry.snapshot(),
            "spans": tracer.snapshot(),
        },
    }


def decode_task(raw: Dict[str, Any]) -> SeedResult:
    """Decode a worker's wire-format result into live objects.

    The per-seed ``seconds`` is read out of the task's metrics snapshot
    — the registry is the single source of timing truth; no parallel
    hand-rolled accumulation.
    """
    from repro.artifacts.schema import phase1_result_from_dict

    telemetry = raw.get("telemetry") or {}
    return SeedResult(
        index=raw["index"],
        result=phase1_result_from_dict(raw["result"]),
        queries=raw["queries"],
        verdicts=raw["verdicts"],
        seconds=histogram_total(telemetry.get("metrics"), "seed.seconds"),
        telemetry=telemetry,
    )


def run_pending(
    executor: Executor, payloads: Iterable[Dict[str, Any]]
) -> Iterator[SeedResult]:
    """Run payloads through the executor, yielding results as they finish.

    Completion order is arbitrary for parallel backends; the consumer
    checkpoints each result as it arrives and restores seed order by
    ``SeedResult.index``.
    """
    for _position, raw in executor.unordered(run_seed_task, payloads):
        yield decode_task(raw)
