"""Seed-sharded phase 1: independent per-seed tasks, deterministic merge.

GLADE's phase 1 (§4 synthesis + §6.2 character generalization)
processes each seed independently — nothing is shared until translation
and phase-2 merging. This module packages that per-seed work as
self-contained tasks an :class:`~repro.exec.backends.Executor` can run
on any worker, in any order, with a merge that is deterministic in
*seed order* regardless of completion order:

- every task owns its own oracle stack and query counters and the
  seed's disjoint star-id block
  (:func:`~repro.core.gtree.seed_block_allocator`), so learned trees —
  including their ``R<id>`` nonterminal names — are identical whether
  the seed ran first on the main thread or last in a worker process.
  Its cache answers from the payload's ``known`` verdicts: at one job,
  where tasks run in the pipeline's process one at a time, the run's
  verdicts so far, so the task asks only what the run has not, and it
  shares the run's membership session, so one NFA fragment cache
  serves every seed; a pooled task starts empty and builds its own
  session;
- task payloads and results are picklable: the result carries the
  generalization tree in the artifact's JSON encoding, the seed's query
  count, the verdicts it asked the oracle for (which the pipeline
  folds into the run's cache if the seed is kept, see
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
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional

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

    ``verdicts`` holds every distinct string the task asked the oracle,
    with its verdict. ``seconds`` is a derived view of ``telemetry`` —
    the task's metrics-registry snapshot (plus its spans under
    ``--trace``) — kept as a named field because the pipeline's
    artifact merge reads it.
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
    known: Optional[Mapping[str, bool]] = None,
    session: Any = None,
) -> Dict[str, Any]:
    """The task payload for one seed (picklable with the defaults).

    ``config`` is the run's :class:`~repro.core.glade.GladeConfig` (a
    dataclass of primitives). ``oracle`` is the base membership oracle;
    the task builds its own cache over it, answering from ``known``. A
    one-worker run passes the run cache's live table there
    (:meth:`CachingOracle.known_results`; the task ends before the
    run's cache changes again), so the task asks nothing the run
    already asked, and its membership ``session``, recovering the
    cross-seed NFA fragment reuse of the pre-sharding sequential loop
    (sessions are neither thread-safe nor worth pickling, so pooled
    tasks build their own). Results are identical with or without
    either.
    """
    return {
        "index": index,
        "text": text,
        "config": config,
        "oracle": oracle,
        "known": known or {},
        "session": session,
    }


def run_seed_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Learn one seed, self-contained: phase 1 plus chargen.

    This is the worker entry point for every backend (module-level so
    process pools can pickle it by reference). The returned dict is the
    wire format: the tree in artifact JSON encoding, the query count,
    the verdicts the task learned, and timings — everything the parent
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
    base = payload["oracle"]
    if tracer.enabled:
        base = TracingOracle(base, registry, tracer)
    cached = CachingOracle(base, payload["known"])
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
    # Drain the oracle's fault counters (retries, timeouts, injected
    # faults) into this task's snapshot so they merge into the parent
    # registry; drain semantics keep counts exact when tasks share one
    # oracle object (one job, or the thread backend).
    add_fault_counters(payload["oracle"], registry)
    return {
        "index": index,
        "result": phase1_result_to_dict(result),
        "queries": counting.queries,
        "verdicts": cached.known_results(),
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
