"""The staged learning pipeline with checkpointed, resumable runs.

:class:`LearningPipeline` decomposes GLADE's top level (Algorithm 1
plus the §6 extensions) into named stages:

    validate ──► phase1 (per seed: §4 synthesis + §6.2 chargen)
             ──► translate (§5.1) ──► phase2 (§5 merging) ──► finalize

Phase one is *seed-sharded* (:mod:`repro.exec`): every seed's work is a
self-contained task — its own query counters, the seed's disjoint
star-id block — executed on a pluggable backend (``GladeConfig.jobs``
/ ``backend``). Results settle in seed order regardless of completion
order, so the learned grammar is byte-identical at any worker count.
The §6.1 covered-seed rule runs in one in-order loop on every backend:
a seed whose predecessors have all settled is skipped before any
oracle query is spent on it if a kept seed's language covers it (the
paper's optimization). With several workers a seed may be submitted
while a predecessor is still in flight; if that predecessor then
covers it, the same rule discards its result, and the discarded
speculative queries are excluded from ``oracle_queries`` (and reported
as ``speculative_queries``), which keeps counted metrics identical to a
serial run. The serial backend never speculates.

Phase two runs one loop on the same backends at every job count
(:mod:`repro.exec.merge_shard`): merge-candidate pairs are planned up
front (:func:`repro.core.phase2.plan_merges` samples each star's
residuals once), tasks evaluate runs of consecutive pairs, and every
pair commits strictly in plan order through
:meth:`~repro.core.phase2.MergeCommitter.commit_serial` on the run's
counting/caching stack, which counts it. With one worker, a run asks
through the run's cache once every earlier pair has committed, so it
evaluates exactly the pairs a serial loop evaluates. With several,
runs are evaluated ahead of the commits behind a cross-pair verdict
table; a pair transitively equated by the time it commits is skipped
exactly like the serial loop's skip, with its speculative cost routed
to ``speculative_queries``. So phase 2's grammar and counted metrics
are independent of the job count. Phase 2 runs ahead only through its
runs and jobs: it hands no prefetch hint to the oracle, since a pair's
checks stop at the first rejection.

Both phases count distinct strings in one place, the run's
:class:`~repro.learning.oracle.CachingOracle`. Phase 2 asks through
it. A pooled seed task asks through its own cache and returns that
cache's verdicts; they are held apart while the seed is unsettled, and
fold into the run's cache once, when the seed settles as kept (a
discarded seed's are dropped). A checkpoint's ``unique_queries`` is
the cache's size plus the unsettled seeds' strings not yet in it, so
once phase 1 has settled, a checkpoint counts in O(1).

After every completed stage — after *every seed* inside phase one, and
after *every evaluated pair* inside phase two — the pipeline hands the
:class:`~repro.artifacts.run.RunArtifact` to its
:class:`~repro.artifacts.store.CheckpointStore`. A persisting store
writes a snapshot when the stage or status changes and otherwise
appends only what changed (:mod:`repro.artifacts.journal`), so a
checkpoint costs what changed since the previous one. In a traced run
the artifact carries a :class:`~repro.obs.export.LiveTelemetry` until
the last save, and a journal record holds only the spans closed since
the previous one. A crashed or killed run resumes from the last
checkpoint: learned trees are rehydrated from the artifact, finished
seeds are never re-learned, committed merge decisions are replayed
rather than re-checked, and no oracle query is re-issued for
checkpointed work. Because every stage is deterministic given the
oracle's answers (star ids come from per-seed blocks and phase-two
residual sampling is seeded run-locally, see
:func:`repro.core.phase2.residual_seed`), a resumed run — at any
worker count — produces a grammar byte-identical to an uninterrupted
one, with the same accumulated query count.

Query statistics accumulate across resumes: the artifact's counters are
the base, and the current process adds on top. For ``oracle_queries``
(the paper's cost metric, counted *including* cache hits) the
accumulated total equals an uninterrupted run's exactly;
``unique_queries`` may count a string once per process that queried it,
since the membership cache does not persist across restarts. It never
undercounts: a seed checkpointed as learned keeps its strings in the
base even if the resumed run then discards it.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor
from typing import Any, Dict, Iterator, Optional, Sequence

from repro.artifacts.run import (
    SEED_LEARNED,
    SEED_PENDING,
    SEED_SKIPPED,
    SEED_USED,
    SEED_VALIDATED,
    RunArtifact,
    SeedRecord,
)
from repro.artifacts.store import CheckpointStore, NullCheckpointStore
from repro.core.glade import GladeConfig
from repro.core.gtree import stars_of
from repro.core.phase2 import MergeCommitter, plan_merges
from repro.core.translate import translate_trees
from repro.exec.backends import make_executor
from repro.exec.merge_shard import run_merge_wavefront
from repro.exec.shard import SeedResult, run_pending, seed_payload
from repro.languages.engine import MembershipSession
from repro.learning.oracle import (
    CachingOracle,
    CountingOracle,
    Oracle,
    TracingOracle,
)
from repro.learning.resilience import OracleFailedError, add_fault_counters
from repro.obs.export import LiveTelemetry, build_telemetry
from repro.obs.metrics import (
    MetricsRegistry,
    StageClock,
    counters_with_prefix,
)
from repro.obs.trace import NULL_TRACER, Tracer


class SeedRejected(ValueError):
    """A seed input was rejected by the oracle (the paper requires
    E_in ⊆ L*). Carries the seed's provenance for diagnosable failures
    in ``--seed-dir`` runs."""

    def __init__(self, seed: str, source: str = ""):
        self.seed = seed
        self.source = source
        message = "seed input rejected by the oracle: {!r}".format(seed)
        if source:
            message += " (seed {})".format(source)
        super().__init__(message)


class LearningPipeline:
    """Run GLADE as an explicit stage sequence with durable checkpoints.

    ``store`` decides checkpoint durability; the default
    :class:`~repro.artifacts.store.NullCheckpointStore` persists
    nothing, which is the zero-overhead path
    :func:`~repro.core.glade.learn_grammar` uses. ``oracle_spec`` is an
    optional JSON-compatible description of how to reconstruct the
    oracle (the CLI stores its subprocess command here so ``repro
    resume`` needs no flags).
    """

    def __init__(
        self,
        oracle: Oracle,
        config: Optional[GladeConfig] = None,
        store: Optional[CheckpointStore] = None,
        oracle_spec: Optional[Dict[str, Any]] = None,
    ):
        self.oracle = oracle
        self.config = config if config is not None else GladeConfig()
        self.store = store if store is not None else NullCheckpointStore()
        self.oracle_spec = oracle_spec

    def run(
        self,
        seeds: Sequence[str],
        sources: Optional[Sequence[str]] = None,
    ) -> RunArtifact:
        """Learn from scratch; returns the completed artifact.

        ``sources`` optionally labels each seed's provenance (file
        path, ``file:line``, ...) for error messages and the artifact.
        """
        if not seeds:
            raise ValueError("learning requires at least one seed input")
        if sources is not None and len(sources) != len(seeds):
            raise ValueError("sources must parallel seeds")
        records = [
            SeedRecord(
                text=seed,
                source=sources[index] if sources is not None else "",
            )
            for index, seed in enumerate(seeds)
        ]
        artifact = RunArtifact(
            seeds=records,
            config=self.config,
            oracle_spec=self.oracle_spec,
        )
        return self._execute(artifact)

    def resume(self, artifact: RunArtifact) -> RunArtifact:
        """Continue an interrupted run from its last checkpoint.

        Completed work is rehydrated, not redone: finished seeds'
        trees re-enter the run without oracle queries, and stages the
        artifact already records are skipped outright. A complete
        artifact is returned unchanged (zero queries).
        """
        if artifact.status == "complete":
            return artifact
        return self._execute(artifact)

    # -- internals --------------------------------------------------------

    def _execute(self, artifact: RunArtifact) -> RunArtifact:
        config = artifact.config
        # Observability: the metrics registry always runs (it is the
        # single source for the artifact's timing and fault fields); the
        # span tracer is live only under ``--trace`` — otherwise every
        # call site hits the shared no-op tracer.
        registry = MetricsRegistry()
        tracer: Any = Tracer() if getattr(config, "trace", False) else (
            NULL_TRACER
        )
        if tracer.enabled and artifact.telemetry:
            # Resume of a traced run: re-seed the prior legs' telemetry
            # so the merged section covers the whole run.
            registry.merge(artifact.telemetry.get("metrics"))
            tracer.graft("", artifact.telemetry.get("spans", ()))
        # Fault/recovery counters present before this leg ran (the
        # telemetry re-seed above can reintroduce prior legs' values);
        # the execution record accumulates per-leg *deltas* against
        # this baseline.
        seeded = registry.snapshot()
        fault_baseline = counters_with_prefix(seeded, "oracle.fault.")
        exec_baseline = counters_with_prefix(seeded, "exec.")
        # Counter around cache: ``oracle_queries`` counts every query
        # including cache hits (the paper's metric); see core/glade.py.
        # The tracing layer sits *inside* the cache — it observes real
        # oracle invocations and never changes counting semantics.
        base_oracle: Any = self.oracle
        if tracer.enabled:
            base_oracle = TracingOracle(base_oracle, registry, tracer)
        cached = CachingOracle(base_oracle)
        counting = CountingOracle(cached)
        base_queries = artifact.oracle_queries
        base_unique = artifact.unique_queries
        clock = StageClock(artifact.timings)

        state = _RunAccounting(cached)
        if tracer.enabled:
            # Saves encode the section from the live tracer: a journal
            # record takes only the spans closed since the previous one.
            artifact.telemetry = LiveTelemetry(tracer, registry)

        def checkpoint(final: bool = False) -> None:
            """Bring the artifact's counters up to date and save it.

            Each call is timed into the registry's ``pipeline.checkpoint``
            histogram (its count is the number of checkpoints). A save's
            own time lands there only after the save, so the telemetry a
            save writes — the final one's too — lacks that save's time.
            After the last save of a leg (``final``) the artifact keeps
            the built telemetry section, which is what that save wrote.
            """
            with registry.timer("pipeline.checkpoint"):
                artifact.timings = clock.timings()
                artifact.oracle_queries = (
                    base_queries + counting.queries + state.queries_delta
                )
                artifact.unique_queries = base_unique + state.unique()
                self.store.save(artifact)
                if final and tracer.enabled:
                    artifact.telemetry = build_telemetry(tracer, registry)

        try:
            if not artifact.stage_done("validate"):
                with clock.stage("validate"), tracer.span(
                    "stage:validate", cat="pipeline"
                ):
                    for record in artifact.seeds:
                        if record.state != SEED_PENDING:
                            continue
                        if not counting(record.text):
                            raise SeedRejected(record.text, record.source)
                        record.state = SEED_VALIDATED
                    artifact.stage = "validate"
                checkpoint()

            if not artifact.stage_done("phase1"):
                with clock.stage("phase1"), tracer.span(
                    "stage:phase1", cat="pipeline"
                ) as stage_span:
                    self._run_phase1(
                        artifact, config, cached, state, checkpoint,
                        registry, tracer, stage_span.id,
                    )
                    artifact.stage = "phase1"
                    checkpoint()

            trees = artifact.trees()

            if not artifact.stage_done("translate"):
                with clock.stage("translate"), tracer.span(
                    "stage:translate", cat="pipeline"
                ):
                    artifact.grammar = translate_trees(trees)
                    artifact.stage = "translate"
                checkpoint()

            if not artifact.stage_done("phase2"):
                with clock.stage("phase2"), tracer.span(
                    "stage:phase2", cat="pipeline"
                ) as stage_span:
                    if config.enable_phase2:
                        self._run_phase2(
                            artifact, config, trees, cached, counting,
                            checkpoint, registry, tracer, stage_span.id,
                        )
                    artifact.stage = "phase2"
                    checkpoint()

            if not artifact.stage_done("finalize"):
                with clock.stage("finalize"), tracer.span(
                    "stage:finalize", cat="pipeline"
                ):
                    artifact.grammar = (
                        artifact.grammar.restricted_to_reachable()
                    )
                    artifact.stage = "finalize"
                    artifact.status = "complete"
                # Outside the stage block: the final save's telemetry
                # and timings include the closed finalize span.
                self._record_fault_tolerance(
                    artifact, counting, registry,
                    fault_baseline, exec_baseline,
                )
                checkpoint(final=True)
        except (OracleFailedError, BrokenExecutor):
            # Terminal infrastructure failure (retries exhausted,
            # breaker open, crash-loop past the restart budget): fail
            # fast, but leave a resumable checkpoint — nothing learned
            # so far is lost and no wrong verdict was recorded.
            self._record_fault_tolerance(
                artifact, counting, registry,
                fault_baseline, exec_baseline,
            )
            checkpoint(final=True)
            raise

        return artifact

    def _record_fault_tolerance(
        self,
        artifact: RunArtifact,
        counting: CountingOracle,
        registry: MetricsRegistry,
        fault_baseline: Dict[str, int],
        exec_baseline: Dict[str, int],
    ) -> None:
        """Record fault/recovery counters in the execution section.

        Drains the parent oracle stack's remaining fault counters into
        the registry (worker-side deltas arrived through task telemetry
        merges), then accumulates this leg's ``oracle.fault.*`` deltas
        and the executors' crash-recovery counters into
        ``artifact.execution`` — execution metadata only, never part of
        any compared metric surface.
        """
        add_fault_counters(counting, registry)
        snapshot = registry.snapshot()
        merged = dict(artifact.execution.get("faults") or {})
        for name, value in counters_with_prefix(
            snapshot, "oracle.fault."
        ).items():
            delta = value - fault_baseline.get(name, 0)
            if delta:
                merged[name] = merged.get(name, 0) + delta
        if merged:
            artifact.execution["faults"] = merged
        exec_counters = counters_with_prefix(snapshot, "exec.")
        deltas = {
            key: sum(
                value - exec_baseline.get(name, 0)
                for name, value in exec_counters.items()
                if name.endswith("." + key)
            )
            for key in ("pool_restarts", "tasks_resubmitted")
        }
        recovery = artifact.execution.get("recovery") or {}
        if any(deltas.values()) or recovery:
            artifact.execution["recovery"] = {
                key: recovery.get(key, 0) + delta
                for key, delta in deltas.items()
            }

    # -- phase 1: seed-sharded execution ----------------------------------

    def _run_phase1(
        self,
        artifact: RunArtifact,
        config: GladeConfig,
        cached: CachingOracle,
        state: "_RunAccounting",
        checkpoint,
        registry: MetricsRegistry,
        tracer,
        stage_span_id,
    ) -> None:
        """Learn every validated seed on the configured backend, settling
        seed states in seed order (the §6.1 rule) as results arrive.

        One loop serves every backend. Before the payload generator
        yields seed *i*, it settles every seed it can, in order: a USED
        seed re-enters the session, a LEARNED one is kept or discarded
        by the covered-seed rule. If every seed before *i* is settled, a
        covered *i* is skipped without a query; otherwise *i* is
        submitted, speculatively if a predecessor is still in flight.
        ``Executor.unordered`` pulls the next payload only after the
        consumer has handled every earlier result, so the serial
        executor settles every predecessor first and never speculates.
        """
        executor = make_executor(
            config.backend, max(1, config.jobs), self.oracle
        )
        # Rebuild the execution record for this leg, but carry forward
        # accumulated fault/recovery accounting — a resumed run keeps
        # the failed leg's telemetry trail.
        prior = artifact.execution or {}
        artifact.execution = {
            "backend": executor.name,
            "jobs": executor.jobs,
        }
        for key in ("faults", "recovery"):
            if prior.get(key):
                artifact.execution[key] = prior[key]
        # Parent-side session: tracks kept (USED) languages for the
        # §6.1 covered-seed test. Oracle-free.
        session = MembershipSession()
        # With one worker nothing runs speculatively, so tasks share the
        # parent's cache (one memo across seeds, every query counted)
        # and its session (one NFA fragment cache). With several, each
        # task builds its own stack over the base oracle.
        shared = executor.jobs == 1
        seeds = artifact.seeds
        frontier = 0  # every seed before it is settled
        # Seeds found uncovered when submitted with every predecessor
        # settled: nothing is kept between then and their settling.
        uncovered = set()

        def settle() -> None:
            nonlocal frontier
            while frontier < len(seeds):
                record = seeds[frontier]
                if record.state == SEED_LEARNED:
                    if (
                        config.skip_covered_seeds
                        and frontier not in uncovered
                        and session.covers(record.text)
                    ):
                        state.discard(artifact, frontier)
                        record.state = SEED_SKIPPED
                        # The discarded speculation's spans go with it:
                        # a serial run never did this work, and the
                        # trace structure must match the serial run's.
                        tracer.discard_shard("seed:{}".format(frontier))
                    else:
                        record.state = SEED_USED
                        state.keep(frontier)
                if record.state == SEED_USED:
                    session.remember(state.result_of(artifact, frontier))
                elif record.state != SEED_SKIPPED:
                    return  # in flight, or not yet submitted
                frontier += 1

        def payloads() -> Iterator[Dict[str, Any]]:
            for index, record in enumerate(seeds):
                settle()
                if record.state != SEED_VALIDATED:
                    continue
                if frontier == index and config.skip_covered_seeds:
                    if session.covers(record.text):
                        record.state = SEED_SKIPPED
                        checkpoint()
                        continue
                    uncovered.add(index)
                yield seed_payload(
                    index, record.text, config,
                    cached if shared else self.oracle,
                    session=session if shared else None,
                )

        with executor:
            for outcome in run_pending(executor, payloads()):
                state.absorb(artifact, outcome)
                # Worker telemetry merges in arrival order: metrics
                # counters into the registry, spans under the seed's
                # shard.
                registry.merge(outcome.telemetry.get("metrics"))
                if tracer.enabled:
                    tracer.absorb(
                        "seed:{}".format(outcome.index),
                        outcome.telemetry.get("spans", ()),
                        parent=stage_span_id,
                    )
                seeds[outcome.index].state = SEED_LEARNED
                settle()
                checkpoint()
        _record_executor(registry, "phase1", executor)

    # -- phase 2: run-sharded wavefront execution --------------------------

    def _run_phase2(
        self,
        artifact: RunArtifact,
        config: GladeConfig,
        trees,
        cached: CachingOracle,
        counting: CountingOracle,
        checkpoint,
        registry: MetricsRegistry,
        tracer,
        stage_span_id,
    ) -> None:
        """Merge repetitions on the configured backend, committing (and
        checkpointing) pairs in plan order.

        The plan — residuals, pair order, check strings — is a pure
        function of the learned trees, so a resumed run rebuilds it
        identically and replays the artifact's committed decisions to
        restore the union-find without a single query. Every pair
        commits through
        :meth:`~repro.core.phase2.MergeCommitter.commit_serial` on the
        parent's counting/caching stack, so ``oracle_queries`` /
        ``unique_queries`` are counted in one place on every backend.
        One loop serves every job count: run tasks evaluate runs of
        pairs ahead of the commits. With one worker, a run asks through
        the run's cache only after every earlier pair has committed;
        with several, runs ask the base oracle behind the cross-pair
        query planner, and discarded speculation lands in
        ``speculative_queries``.
        """
        stars = [star for tree in trees for star in stars_of(tree)]
        plan = plan_merges(
            stars,
            mixed=config.mixed_merge_checks,
            n_samples=2 if config.mixed_merge_checks else 0,
        )
        committer = MergeCommitter(plan)
        committer.replay(artifact.phase2_progress.get("decisions", ()))
        executor = make_executor(
            config.backend, max(1, config.jobs), self.oracle
        )
        # The committer's decision list is kept live in the artifact:
        # every mid-phase checkpoint persists the commit frontier.
        artifact.phase2_progress = {
            "backend": executor.name,
            "jobs": executor.jobs,
            "pairs": plan.n_pairs,
            "decisions": committer.decisions,
        }

        def on_commit(event) -> None:
            artifact.speculative_queries += event.discarded
            if event.evaluated or event.discarded:
                checkpoint()

        with executor:
            run_merge_wavefront(
                executor,
                plan,
                committer,
                self.oracle,
                counting,
                cached,
                on_commit=on_commit,
                registry=registry,
                tracer=tracer,
                span_parent=stage_span_id,
            )
        _record_executor(registry, "phase2", executor)
        artifact.phase2_result = committer.finish(artifact.grammar)
        artifact.grammar = artifact.phase2_result.grammar


def _record_executor(registry: MetricsRegistry, phase: str, executor) -> None:
    """Record one phase's executor counters under ``exec.<phase>.``."""
    prefix = "exec.{}.".format(phase)
    registry.add(prefix + "submitted", executor.submitted)
    registry.add(prefix + "completed", executor.completed)
    registry.add(prefix + "pool_restarts", executor.pool_restarts)
    registry.add(prefix + "tasks_resubmitted", executor.tasks_resubmitted)
    registry.observe(prefix + "peak_in_flight", executor.peak_in_flight)


class _RunAccounting:
    """Bookkeeping for phase-1 work done outside the parent oracle stack.

    ``queries_delta`` counts the queries of seed tasks completed *this
    process* (the parent's counting layer never saw them), less those
    of seeds the covered-seed rule discards. A pooled seed task's
    verdicts are held here while the seed is unsettled: a discarded
    seed's strings must not count. :meth:`keep` folds a kept seed's
    verdicts into the run's cache once, so from then on the cache alone
    counts them. A task that shared the run's cache (one worker)
    returns no verdicts: the cache already holds them.
    """

    def __init__(self, cached: CachingOracle):
        self.queries_delta = 0
        self._cached = cached
        self._unsettled: Dict[int, Dict[str, bool]] = {}

    def absorb(self, artifact: RunArtifact, outcome: SeedResult) -> None:
        """Record a freshly completed seed task (any backend)."""
        record = artifact.seeds[outcome.index]
        record.queries = outcome.queries
        record.seconds = outcome.seconds
        self.queries_delta += outcome.queries
        if outcome.verdicts:
            self._unsettled[outcome.index] = outcome.verdicts
        artifact.phase1_results.append(outcome.result)
        artifact.phase1_results.sort(key=lambda r: r.seed_index)

    def keep(self, index: int) -> None:
        """Fold a seed settled as kept into the run's cache."""
        for text, verdict in self._unsettled.pop(index, {}).items():
            self._cached.record(text, verdict)

    def discard(self, artifact: RunArtifact, index: int) -> None:
        """Drop a speculative result the covered-seed rule rejected.

        The queries it spent move to ``speculative_queries``; the
        subtraction is correct whether the seed was learned this
        process (``queries_delta`` included it) or a prior one (the
        artifact's base totals included it)."""
        record = artifact.seeds[index]
        self.queries_delta -= record.queries
        artifact.speculative_queries += record.queries
        record.queries = 0
        self._unsettled.pop(index, None)
        artifact.phase1_results = [
            r for r in artifact.phase1_results if r.seed_index != index
        ]

    def unique(self) -> int:
        """Distinct strings queried this process: the run cache's, plus
        the unsettled seeds' strings it does not hold yet. With no seed
        unsettled (all of phase 2), this is the cache's size alone."""
        seen = self._cached.seen_digests
        pending = {
            text
            for verdicts in self._unsettled.values()
            for text in verdicts
            if text not in seen
        }
        return len(seen) + len(pending)

    @staticmethod
    def result_of(artifact: RunArtifact, index: int):
        for result in artifact.phase1_results:
            if result.seed_index == index:
                return result.root.to_regex()
        raise AssertionError(
            "no phase-1 result recorded for seed {}".format(index)
        )
