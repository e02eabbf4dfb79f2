"""Pair-sharded phase 2: speculative check tasks, in-order commits.

Phase 2 (:mod:`repro.core.phase2`) considers every unordered pair of
repetition nodes, so its oracle cost is quadratic in star count — and
after seed-sharded phase 1, it was the last serial oracle-bound stage.
With several workers, this module evaluates pairs ahead of the commits
on the same :class:`~repro.exec.backends.Executor` backends:

- each *pair task* evaluates one candidate pair's §5.3 + mixed
  -adjacency checks, self-contained and picklable: the pair's check
  strings, the base oracle, and a read-only snapshot of the *known
  -verdict table* — the cross-pair query planner's dedup structure.
  A check string any earlier task (or the parent's membership cache)
  already answered never reaches the oracle again; fresh verdicts
  travel back and widen the table for later submissions.
- a task asks its pair's checks in order and stops at the first
  rejection, exactly as the serial loop does. It hands no prefetch
  hint to the oracle: most pairs stop early, so running the whole check
  list ahead would mostly spend runs nobody asks for. Phase 2 runs
  ahead only through the executor's jobs.
- tasks run speculatively: a pair is submitted before earlier pairs
  have committed, so its stars may turn out transitively equated by
  the time its turn comes. :func:`run_merge_wavefront` commits pairs
  strictly in plan order, each through
  :meth:`~repro.core.phase2.MergeCommitter.commit_serial` on the
  parent's counting/caching stack. Before an evaluated pair commits,
  its verdicts are recorded in the parent's cache, so the commit asks
  the same checks a serial run asks, counts them, and hits the cache
  for every one. An equated pair commits as skipped and its verdicts
  are booked as speculative.

The division of labor with the pipeline: this module owns scheduling
(lazy submission through ``Executor.unordered``, the known-verdict
table, completion buffering); the committer owns ordering and
decisions; the oracle stack counts; the pipeline persists each commit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.core.phase2 import (
    PAIR_SKIPPED,
    CommitEvent,
    MergeCommitter,
    MergePair,
    MergePlan,
)
from repro.exec.backends import Executor
from repro.learning.oracle import (
    CachingOracle,
    CountingOracle,
    Oracle,
    TracingOracle,
)
from repro.learning.resilience import add_fault_counters
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

#: Worker functions executor backends run as task payloads (walked by
#: detlint's PAR001 shared-state race detector).
TASK_ENTRY_POINTS = ("run_pair_task",)


@dataclass
class PairOutcome:
    """One pair task's result, decoded on the parent side.

    ``verdicts`` parallels the pair's checks, truncated at the first
    rejection; ``learned`` holds the verdicts this task had to evaluate
    itself (its contribution to the known-verdict table);
    ``invocations`` counts base-oracle calls the task actually
    performed (the planner's work metric — *not* the counted query
    cost, which the parent's oracle stack counts at commit time).
    """

    index: int
    verdicts: Tuple[bool, ...]
    learned: Dict[str, bool]
    invocations: int
    #: The task's wire telemetry: ``{"metrics": <registry snapshot>,
    #: "spans": [...]}`` (spans empty unless the run traces).
    telemetry: Dict[str, Any] = field(default_factory=dict)


def pair_payload(
    pair: MergePair,
    oracle: Oracle,
    known: Dict[str, bool],
    trace: bool = False,
) -> Dict[str, Any]:
    """The task payload for one merge-candidate pair.

    ``known`` is the planner's verdict table view for this task.
    In-process executors are handed the live table — workers publish
    fresh verdicts into it as they are produced, so *concurrently
    running* pair tasks dedupe against each other, not just against
    completed ones. Out-of-process executors get a per-pair snapshot
    filtered to the pair's own check strings (built on the consumer
    thread — a live dict must never cross a serialization boundary,
    since process pools pickle queued payloads on an internal thread
    while the consumer keeps extending the table); their workers'
    writes stay local and reach the parent (and later submissions)
    through the returned ``learned`` dict. Entries are only ever
    added, and a racing double-evaluation of the same string yields
    the same verdict (the oracle is a pure function), so sharing is
    benign.
    """
    return {
        "index": pair.index,
        "checks": pair.checks,
        "oracle": oracle,
        "known": known,
        "trace": trace,
    }


def run_pair_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate one pair's checks against the oracle (worker entry).

    Module-level so process pools can pickle it by reference. Verdicts
    for strings in the known table are reused without touching the
    oracle, and the task stops at the first rejection exactly like
    :meth:`~repro.core.phase2.MergeCommitter.commit_serial`.
    """
    checks: Tuple[str, ...] = payload["checks"]
    known: Dict[str, bool] = payload["known"]
    oracle: Oracle = payload["oracle"]
    registry = MetricsRegistry()
    tracer = Tracer() if payload.get("trace") else NULL_TRACER
    if tracer.enabled:
        oracle = TracingOracle(oracle, registry, tracer)
    learned: Dict[str, bool] = {}
    invocations = 0
    verdicts = []
    with registry.timer("pair.seconds"):
        with tracer.span(
            "pair", cat="phase2", args={"index": payload["index"]}
        ):
            for check in checks:
                verdict = known.get(check)
                if verdict is None:
                    verdict = learned.get(check)
                if verdict is None:
                    verdict = bool(oracle(check))
                    learned[check] = verdict
                    known[check] = verdict  # publish to siblings
                    invocations += 1
                verdicts.append(verdict)
                if not verdict:
                    break
    registry.add("exec.phase2.tasks")
    # Fault counters (retries, injections) travel in the task snapshot.
    add_fault_counters(payload["oracle"], registry)
    return {
        "index": payload["index"],
        "verdicts": tuple(verdicts),
        "learned": learned,
        "invocations": invocations,
        "telemetry": {
            "metrics": registry.snapshot(),
            "spans": tracer.snapshot(),
        },
    }


def decode_pair(raw: Dict[str, Any]) -> PairOutcome:
    """Decode a worker's wire-format result (``pair.seconds`` stays in
    the task's metrics snapshot, which the run's registry merges)."""
    return PairOutcome(
        index=raw["index"],
        verdicts=tuple(raw["verdicts"]),
        learned=dict(raw["learned"]),
        invocations=raw["invocations"],
        telemetry=raw.get("telemetry") or {},
    )


@dataclass
class WavefrontStats:
    """Aggregate execution report for one wavefront run.

    Counted queries are not here: commits count through the parent's
    oracle stack (read ``counting.queries``). These metrics report work
    actually performed and therefore depend on completion timing: how
    many pairs were evaluated before the commits that made them
    redundant landed (``speculative_queries``/``pairs_discarded``), and
    how often the planner table absorbed a check (``invocations`` /
    ``table_hits``).
    """

    speculative_queries: int = 0
    invocations: int = 0
    table_hits: int = 0
    pairs_discarded: int = 0


def run_merge_wavefront(
    executor: Executor,
    plan: MergePlan,
    committer: MergeCommitter,
    oracle: Oracle,
    counting: CountingOracle,
    cache: CachingOracle,
    dedup: bool = True,
    on_commit: Optional[Callable[..., None]] = None,
    registry: Optional[MetricsRegistry] = None,
    tracer: Any = NULL_TRACER,
    span_parent: Optional[int] = None,
) -> WavefrontStats:
    """Drive phase 2's remaining pairs through an executor.

    ``oracle`` is the base oracle pair tasks ask; ``counting`` is the
    parent's counting layer over ``cache``, its caching layer, through
    which every pair commits. Submission is lazy and committed-state
    -aware: a pair whose stars are already equated when its payload
    would be pulled is never submitted (it will commit as skipped for
    free), and each submitted payload carries the verdict table as of
    submission, seeded from ``cache``. Commits happen in plan order as
    soon as the frontier pair's outcome is available: its verdicts (its
    checks up to the first rejection) are recorded in ``cache``, then
    :meth:`~repro.core.phase2.MergeCommitter.commit_serial` asks them
    through ``counting``. ``on_commit(event)`` runs for every committed
    pair — the pipeline's checkpoint hook. A pair committed as skipped
    *before* its in-flight speculative result lands produces one extra
    cost-only event on arrival (``discarded`` set, decision log
    untouched), so discarded work is always booked rather than
    depending on which side of the commit frontier the result landed.
    ``dedup=False`` disables the planner table entirely, which is the
    naive per-pair sharding baseline the benchmark compares against.

    Observability: worker metrics snapshots merge into ``registry`` in
    arrival order (work actually performed); worker *spans* absorb into
    ``tracer`` only when the pair commits with a real decision, in
    commit order under a ``pair:<index>`` shard — a pair the serial
    loop would have skipped contributes no spans, keeping the trace
    structure identical to a serial run's.
    """
    table: Dict[str, bool] = cache.known_results() if dedup else {}
    stats = WavefrontStats()
    outcomes: Dict[int, PairOutcome] = {}
    trace = tracer.enabled

    def emit(event: CommitEvent) -> None:
        stats.speculative_queries += event.discarded
        if event.discarded:
            stats.pairs_discarded += 1
        if on_commit is not None:
            on_commit(event)

    def drain() -> None:
        """Advance the commit frontier as far as outcomes allow."""
        while not committer.done:
            pair = committer.next_pair()
            outcome = outcomes.pop(pair.index, None)
            if committer.equated(pair.star_i, pair.star_j):
                # Skipped without a query; an outcome that already
                # arrived was speculation.
                event = committer.commit_serial(counting)
                if outcome is not None:
                    event.discarded = len(outcome.verdicts)
            elif outcome is None:
                break
            else:
                for check, verdict in zip(pair.checks, outcome.verdicts):
                    cache.record(check, verdict)
                event = committer.commit_serial(counting)
                if trace:
                    tracer.absorb(
                        "pair:{}".format(pair.index),
                        outcome.telemetry.get("spans", ()),
                        parent=span_parent,
                    )
            emit(event)

    def payloads() -> Iterator[Dict[str, Any]]:
        # Pulled lazily by the executor, on this thread, between
        # results — so both the skip test and the table view see
        # every commit and every completed task so far.
        for pair in plan.pairs[committer.committed:]:
            if committer.equated(pair.star_i, pair.star_j):
                continue
            if not dedup:
                view: Dict[str, bool] = {}
            elif executor.in_process:
                view = table
            else:
                # Snapshot just this pair's relevant verdicts: cheap
                # (O(checks), not O(table)) and safe to serialize.
                view = {
                    check: table[check]
                    for check in pair.checks
                    if check in table
                }
            yield pair_payload(pair, oracle, view, trace=trace)

    drain()
    for _position, raw in executor.unordered(run_pair_task, payloads()):
        outcome = decode_pair(raw)
        stats.invocations += outcome.invocations
        stats.table_hits += len(outcome.verdicts) - outcome.invocations
        if registry is not None:
            # Arrival order: metrics record work actually performed
            # (speculation included), unlike the counted accounting.
            registry.merge(outcome.telemetry.get("metrics"))
            registry.observe("phase2.queue_depth", len(outcomes))
        if dedup:
            table.update(outcome.learned)
        if outcome.index < committer.committed:
            # The pair already committed as transitively skipped while
            # this task was still in flight. Its work is speculation
            # all the same: book it (a cost-only event — the decision
            # log is untouched) instead of stranding the outcome.
            emit(
                CommitEvent(
                    pair=plan.pairs[outcome.index],
                    decision=PAIR_SKIPPED,
                    discarded=len(outcome.verdicts),
                )
            )
        else:
            outcomes[outcome.index] = outcome
        drain()
    drain()
    if not committer.done:
        raise AssertionError(
            "wavefront ended with {} of {} pairs committed".format(
                committer.committed, plan.n_pairs
            )
        )
    return stats
