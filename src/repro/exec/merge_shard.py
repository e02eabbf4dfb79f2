"""Run-sharded phase 2: runs of consecutive pairs, in-order commits.

Phase 2 (:mod:`repro.core.phase2`) considers every unordered pair of
repetition nodes, so its oracle cost is quadratic in star count. This
module is its one loop, at every job count:

- a *run task* evaluates consecutive unequated pairs in plan order,
  given each pair's ``(index, star_i, star_j)`` and its stars' contexts
  and residuals. It builds a pair's checks
  (:func:`~repro.core.phase2.pair_checks`) as it asks them, in order,
  stops at the first rejection as the serial loop does, and skips a
  pair whose stars are already equated: it carries its stars'
  committed representatives and unites the run's own merges into
  them. It hands the oracle no prefetch hint.
- a run holds ⌈remaining pairs / (4·jobs)⌉ pairs, at most
  :data:`MAX_RUN` (guided self-scheduling, Polychronopoulos & Kuck
  1987), so a task costs well above a pool round trip and a killed
  worker loses at most one run.
- a task asks the base oracle behind its own
  :class:`~repro.learning.oracle.CachingOracle`, which answers from the
  planner's *known verdicts*. At one job a run starts once every
  earlier pair has committed, and reads the run cache's live table: it
  evaluates exactly the pairs the serial loop does and asks only what
  the run's cache lacks. A pooled run gets a snapshot of what the
  parent's cache holds and finished tasks learned, for each pair's
  checks up to its first known rejection. The executor pulls a payload
  only when a worker can start it, so the snapshot holds every verdict
  returned until then; runs still in flight share nothing.
- :func:`run_merge_wavefront` commits pairs strictly in plan order,
  each through :meth:`~repro.core.phase2.MergeCommitter.commit_serial`
  on the parent's counting/caching stack, once the pair's verdicts are
  recorded in that cache: the commit asks what a serial run asks,
  counts it, and hits the cache every time. A pair a speculative run
  evaluated but that is equated by its turn commits as skipped, and
  its verdicts are booked as speculative.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.phase2 import (
    PAIR_SKIPPED,
    CommitEvent,
    MergeCommitter,
    MergePair,
    MergePlan,
    pair_checks,
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
TASK_ENTRY_POINTS = ("run_pairs_task",)

#: Most pairs one task carries.
MAX_RUN = 64


def run_length(remaining: int, jobs: int) -> int:
    """Pairs in the next run: ⌈remaining / (4·jobs)⌉, from one to
    :data:`MAX_RUN`."""
    return max(1, min(MAX_RUN, -(-remaining // (4 * jobs))))


def run_pairs_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate one run of pairs (worker entry; module-level so process
    pools pickle it by reference).

    Returns each pair's verdicts (truncated at the first rejection, or
    None for a pair skipped as equated), the verdicts it asked the base
    oracle for (``learned``), its base-oracle calls (``invocations``:
    the planner's work metric, not the counted cost) and its telemetry,
    with each evaluated pair's spans under the shard ``pair:<index>``.
    """
    oracle: Oracle = payload["oracle"]
    registry = MetricsRegistry()
    tracer = Tracer() if payload["trace"] else NULL_TRACER
    if tracer.enabled:
        oracle = TracingOracle(oracle, registry, tracer)
    cache = CachingOracle(oracle, payload["known"])
    stars, mixed_width = payload["stars"], payload["mixed_width"]
    roots = dict(payload["roots"])
    results: Dict[int, Optional[Tuple[bool, ...]]] = {}
    with registry.timer("pair_run.seconds"):
        for index, star_i, star_j in payload["pairs"]:
            root_i, root_j = roots[star_i], roots[star_j]
            if root_i == root_j:
                results[index] = None
                continue
            verdicts = []
            # Untraced runs skip building the span's shard name and args.
            with (
                tracer.span(
                    "pair", cat="phase2", shard="pair:{}".format(index),
                    args={"index": index},
                )
                if tracer.enabled else nullcontext()
            ):
                for check in pair_checks(stars, star_i, star_j, mixed_width):
                    verdicts.append(bool(cache(check)))
                    if not verdicts[-1]:
                        break
            results[index] = tuple(verdicts)
            if all(verdicts):
                for star, root in roots.items():
                    if root == root_j:
                        roots[star] = root_i
    registry.add("exec.phase2.tasks")
    # Fault counters (retries, injections) travel in the task snapshot.
    add_fault_counters(payload["oracle"], registry)
    return {
        "verdicts": results,
        "learned": cache.known_results(),
        "invocations": cache.unique_queries,
        "telemetry": {
            "metrics": registry.snapshot(),
            "spans": tracer.snapshot(),
        },
    }


@dataclass
class WavefrontStats:
    """Work one wavefront performed, which depends on completion timing.

    Counted queries are not here: commits count through the parent's
    oracle stack (read ``counting.queries``). ``speculative_queries`` /
    ``pairs_discarded`` cover pairs evaluated before the commits that
    made them redundant landed; ``invocations`` / ``table_hits`` count
    checks the base oracle answered and checks a cache or the planner
    table absorbed.
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
    on_commit: Optional[Callable[..., None]] = None,
    registry: Optional[MetricsRegistry] = None,
    tracer: Any = NULL_TRACER,
    span_parent: Optional[int] = None,
) -> WavefrontStats:
    """Drive phase 2's remaining pairs through an executor.

    ``oracle`` is the base oracle; ``counting`` is the parent's counting
    layer over ``cache``, through which every pair commits. Runs are
    built lazily, on this thread, between results, from the committed
    state: a pair already equated then is never submitted.
    ``on_commit(event)`` runs for every committed pair (the pipeline's
    checkpoint hook), and once more, as a cost-only event (``discarded``
    set, decision log untouched), for a pair that committed as skipped
    before its run landed. Worker metrics merge into ``registry`` in
    arrival order; a pair's spans absorb into ``tracer`` only when it
    commits with a real decision, so the trace has a serial run's
    structure.
    """
    # The planner's known verdicts: the run's cache (phase 1's and the
    # committed pairs') and, for pooled runs' snapshots, what finished
    # tasks learned beyond it.
    answered = cache.known_results()
    learned: Dict[str, bool] = {}
    stats = WavefrontStats()
    outcomes: Dict[int, Any] = {}
    spans: Dict[str, List[Dict[str, Any]]] = {}

    def emit(event: CommitEvent) -> None:
        stats.speculative_queries += event.discarded
        stats.pairs_discarded += bool(event.discarded)
        if on_commit is not None:
            on_commit(event)

    def drain() -> None:
        """Advance the commit frontier as far as outcomes allow."""
        while not committer.done:
            pair = committer.next_pair()
            if pair.index in outcomes:
                verdicts = outcomes.pop(pair.index)
                # An equated pair's verdicts are speculation, not asked.
                if verdicts and not committer.equated(
                    pair.star_i, pair.star_j
                ):
                    checks = islice(plan.checks(pair), len(verdicts))
                    cache.record(zip(checks, verdicts))
            elif committer.equated(pair.star_i, pair.star_j):
                verdicts = None
            else:
                break
            event = committer.commit_serial(counting)
            if not event.evaluated and verdicts is not None:
                event.discarded = len(verdicts)
            if tracer.enabled:
                shard = "pair:{}".format(pair.index)
                pair_spans = spans.pop(shard, ())
                if event.evaluated:
                    tracer.absorb(shard, pair_spans, span_parent)
            emit(event)

    def known_for(run: List[MergePair]) -> Dict[str, bool]:
        """The planner's verdicts for a run's checks, as a snapshot:
        process pools pickle payloads on an internal thread while this
        one adds verdicts. A pair's checks stop at its first known
        rejection, since the task cannot ask past it."""
        known = {}
        for pair in run:
            for check in plan.checks(pair):
                verdict = answered.get(check, learned.get(check))
                if verdict is not None:
                    known[check] = verdict
                    if not verdict:
                        break
        return known

    def payloads() -> Iterator[Dict[str, Any]]:
        pairs = plan.pairs
        position = committer.committed
        while position < len(pairs):
            size = run_length(len(pairs) - position, executor.jobs)
            run: List[MergePair] = []
            roots: Dict[int, int] = {}
            while position < len(pairs) and len(run) < size:
                pair = pairs[position]
                position += 1
                root_i = committer.representative(pair.star_i)
                root_j = committer.representative(pair.star_j)
                if root_i != root_j:
                    run.append(pair)
                    roots[pair.star_i], roots[pair.star_j] = root_i, root_j
            if not run:
                return
            yield {
                "pairs": run,
                "stars": {star: plan.stars[star] for star in roots},
                "mixed_width": plan.mixed_width,
                "roots": roots,
                "oracle": oracle,
                # One job: every earlier pair has committed, and the
                # cache does not change while the run is out.
                "known": answered if executor.jobs == 1 else known_for(run),
                "trace": tracer.enabled,
            }

    drain()
    for _position, raw in executor.unordered(run_pairs_task, payloads()):
        evaluated = [v for v in raw["verdicts"].values() if v is not None]
        stats.invocations += raw["invocations"]
        stats.table_hits += sum(map(len, evaluated)) - raw["invocations"]
        if registry is not None:
            # Arrival order: metrics record work actually performed
            # (speculation included), unlike the counted accounting.
            registry.merge(raw["telemetry"]["metrics"])
            registry.observe("phase2.queue_depth", len(outcomes))
        if executor.jobs > 1:
            learned.update(raw["learned"])
        for span in raw["telemetry"]["spans"]:
            spans.setdefault(span["shard"], []).append(span)
        committed = committer.committed
        for index, verdicts in raw["verdicts"].items():
            if index >= committed:
                outcomes[index] = verdicts
            elif verdicts is not None:
                # The pair committed as transitively skipped while its
                # run was in flight: book its work as speculation.
                spans.pop("pair:{}".format(index), None)
                emit(CommitEvent(
                    pair=plan.pairs[index],
                    decision=PAIR_SKIPPED,
                    discarded=len(verdicts),
                ))
        drain()
    if not committer.done:
        raise AssertionError(
            "wavefront ended with {} of {} pairs committed".format(
                committer.committed, plan.n_pairs
            )
        )
    return stats
