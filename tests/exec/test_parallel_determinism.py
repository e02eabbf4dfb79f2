"""Parallel determinism: any backend, any job count, same grammar.

The acceptance property of the execution subsystem: serial, thread and
process backends over 1–4 seeds yield identical serialized grammars,
identical per-seed query counts and states, and equal run-level query
totals — and a run interrupted mid-phase-1 resumes under ``--jobs 4``
to exactly the uninterrupted result. The oracle is the XML target's
(module-level, hence picklable for the process backend).
"""

import json
import sys

import pytest

import repro.core.pipeline as pipeline_mod
from repro.artifacts import (
    CheckpointStore,
    MemoryCheckpointStore,
    SEED_LEARNED,
    SEED_SKIPPED,
    SEED_USED,
    SEED_VALIDATED,
    grammar_to_dict,
)
from repro.core.glade import GladeConfig
from repro.core.pipeline import LearningPipeline
from repro.exec.backends import Executor
from repro.learning.oracle import SubprocessOracle
from repro.targets import get_target


@pytest.fixture(scope="module")
def xml():
    return get_target("xml")


@pytest.fixture(scope="module")
def seeds(xml):
    return sorted(xml.sample_seeds(4, seed=0), key=len)


def learn(xml, seeds, jobs, backend, store=None):
    config = GladeConfig(alphabet=xml.alphabet, jobs=jobs, backend=backend)
    pipeline = LearningPipeline(xml.oracle, config=config, store=store)
    return pipeline.run(seeds)


@pytest.fixture(scope="module")
def serial_reference(xml, seeds):
    """Uninterrupted serial runs over 1 and 4 seeds."""
    return {n: learn(xml, seeds[:n], 1, "serial") for n in (1, 4)}


def serialized(artifact):
    return json.dumps(grammar_to_dict(artifact.grammar), sort_keys=True)


def assert_equivalent(actual, reference, resumed=False):
    assert serialized(actual) == serialized(reference)
    assert str(actual.grammar) == str(reference.grammar)
    # Per-seed query stats and lifecycle states merge identically.
    assert [s.queries for s in actual.seeds] == [
        s.queries for s in reference.seeds
    ]
    assert [s.state for s in actual.seeds] == [
        s.state for s in reference.seeds
    ]
    assert actual.oracle_queries == reference.oracle_queries
    if resumed:
        # The membership cache does not persist across restarts, so a
        # resumed run may count a string once per process that queried
        # it — an over-approximation, never an undercount.
        assert actual.unique_queries >= reference.unique_queries
    else:
        assert actual.unique_queries == reference.unique_queries


@pytest.mark.parametrize("n_seeds,backend,jobs", [
    (1, "thread", 4),
    (4, "thread", 2),
    (4, "thread", 4),
    (4, "process", 4),
], ids=["thread-1seed", "thread-j2", "thread-j4", "process-j4"])
def test_backends_match_serial(xml, seeds, serial_reference, n_seeds,
                               backend, jobs):
    reference = serial_reference[n_seeds]
    actual = learn(xml, seeds[:n_seeds], jobs, backend)
    assert actual.execution["backend"] == backend
    assert actual.execution["jobs"] == jobs
    assert_equivalent(actual, reference)


def test_interrupted_parallel_run_resumes_to_identical_result(
    xml, seeds, serial_reference
):
    """Mid-phase-1 crash under a parallel backend + ``resume`` at
    jobs=4 reproduces the uninterrupted (serial) run exactly."""
    store = MemoryCheckpointStore()
    full = learn(xml, seeds, 2, "thread", store=store)
    assert_equivalent(full, serial_reference[4])

    # A checkpoint that is genuinely mid-phase-1: some seeds done on a
    # worker (provisional "learned" state is allowed), some untouched.
    snapshot = None
    for index in range(len(store.snapshots)):
        candidate = store.snapshot(index)
        done = [
            s for s in candidate.seeds
            if s.state in (SEED_LEARNED, SEED_USED, SEED_SKIPPED)
        ]
        todo = [s for s in candidate.seeds if s.state == SEED_VALIDATED]
        if done and todo:
            snapshot = candidate
            break
    assert snapshot is not None, "no mid-phase-1 checkpoint recorded"

    snapshot.config.jobs = 4  # resume at a different worker count
    config = snapshot.config
    resumed = LearningPipeline(xml.oracle, config=config).resume(snapshot)
    assert_equivalent(resumed, serial_reference[4], resumed=True)
    assert resumed.status == "complete"


def ab_oracle(text):
    """Accepts any string over {a, b} (module-level: picklable)."""
    return set(text) <= set("ab")


def test_speculative_queries_reported_not_counted():
    """A parallel run learns covered seeds speculatively; the §6.1
    filter discards them and their cost moves to
    ``speculative_queries``, keeping counted metrics serial-equal."""
    oracle = ab_oracle
    config = GladeConfig(alphabet="ab", enable_chargen=False)
    serial = LearningPipeline(oracle, config=config).run(["ab", "abab"])
    assert serial.seeds[1].state == SEED_SKIPPED
    assert serial.speculative_queries == 0  # never learned at all

    parallel_config = GladeConfig(
        alphabet="ab", enable_chargen=False, jobs=2, backend="thread"
    )
    parallel = LearningPipeline(oracle, config=parallel_config).run(
        ["ab", "abab"]
    )
    assert parallel.seeds[1].state == SEED_SKIPPED
    assert parallel.seeds[1].queries == 0
    assert parallel.speculative_queries > 0
    assert parallel.oracle_queries == serial.oracle_queries
    assert parallel.unique_queries == serial.unique_queries
    assert str(parallel.grammar) == str(serial.grammar)


class InlinePool(Executor):
    """Two workers on paper; runs each task as it is pulled."""

    name = "inline"
    jobs = 2
    in_process = True

    def unordered(self, fn, payloads):
        for index, payload in enumerate(payloads):
            yield index, fn(payload)


class ReversedPool(InlinePool):
    """Pulls every payload, runs each, and hands the results back last
    first."""

    def unordered(self, fn, payloads):
        return iter(list(super().unordered(fn, payloads))[::-1])


def test_serial_resume_settles_seeds_learned_ahead(
    xml, seeds, serial_reference, monkeypatch
):
    """A checkpoint where later seeds are ``learned`` while seed 0 is
    not yet resumes at one job to the uninterrupted run: the resumed
    results are kept or discarded by the covered-seed rule in order."""
    store = MemoryCheckpointStore()
    with monkeypatch.context() as patch:
        patch.setattr(
            pipeline_mod, "make_executor", lambda *args: ReversedPool()
        )
        learn(xml, seeds, 2, "thread", store=store)
    ahead = [SEED_VALIDATED] + [SEED_LEARNED] * 3
    snapshot = next(
        snap for snap in map(store.snapshot, range(len(store.snapshots)))
        if [s.state for s in snap.seeds] == ahead
    )
    snapshot.config.jobs = 1
    resumed = LearningPipeline(xml.oracle, config=snapshot.config).resume(
        snapshot
    )
    assert SEED_SKIPPED in [s.state for s in resumed.seeds]
    assert_equivalent(resumed, serial_reference[4], resumed=True)


def test_pool_skips_covered_seeds_like_serial(monkeypatch):
    """A pool pulls a seed after its predecessors settled: a covered
    seed is then skipped before any query, exactly as serially."""
    config = GladeConfig(alphabet="ab", enable_chargen=False)
    serial = LearningPipeline(ab_oracle, config=config).run(["ab", "abab"])

    monkeypatch.setattr(
        pipeline_mod, "make_executor", lambda *args: InlinePool()
    )
    pooled_config = GladeConfig(
        alphabet="ab", enable_chargen=False, jobs=2, backend="thread"
    )
    pooled = LearningPipeline(ab_oracle, config=pooled_config).run(
        ["ab", "abab"]
    )
    assert pooled.execution["backend"] == "inline"
    assert pooled.seeds[1].state == SEED_SKIPPED
    assert pooled.seeds[1].queries == 0
    assert pooled.speculative_queries == 0
    assert pooled.oracle_queries == serial.oracle_queries
    assert pooled.unique_queries == serial.unique_queries
    assert str(pooled.grammar) == str(serial.grammar)


def test_phase2_progress_recorded_and_serial_equal(xml, seeds,
                                                   serial_reference):
    """Schema v3: the artifact records how phase 2 executed, and the
    committed decision log is identical at any job count."""
    reference = serial_reference[4]
    ref_progress = reference.phase2_progress
    assert ref_progress["backend"] == "serial"
    assert ref_progress["jobs"] == 1
    assert ref_progress["pairs"] == len(ref_progress["decisions"])
    assert "merged" in ref_progress["decisions"]  # xml actually merges

    actual = learn(xml, seeds, 4, "thread")
    progress = actual.phase2_progress
    assert progress["backend"] == "thread"
    assert progress["jobs"] == 4
    # The wavefront commits the same decisions in the same order.
    assert progress["decisions"] == ref_progress["decisions"]


def test_interrupted_phase2_resumes_at_other_job_count(
    xml, seeds, serial_reference
):
    """A checkpoint taken *mid-phase-2* under ``--jobs 4`` resumes at
    jobs=2 to the uninterrupted serial result: committed pairs are
    replayed (zero queries), only the rest is re-evaluated, and the
    accumulated counted totals equal the serial run's exactly."""
    store = MemoryCheckpointStore()
    full = learn(xml, seeds, 4, "thread", store=store)
    assert_equivalent(full, serial_reference[4])

    snapshot = None
    for index in range(len(store.snapshots)):
        candidate = store.snapshot(index)
        decisions = candidate.phase2_progress.get("decisions", [])
        total = candidate.phase2_progress.get("pairs", 0)
        if candidate.stage == "translate" and 0 < len(decisions) < total:
            snapshot = candidate
            break
    assert snapshot is not None, "no mid-phase-2 checkpoint recorded"

    snapshot.config.jobs = 2  # resume at a different worker count
    resumed = LearningPipeline(
        xml.oracle, config=snapshot.config
    ).resume(snapshot)
    assert_equivalent(resumed, serial_reference[4], resumed=True)
    assert resumed.status == "complete"
    assert (
        resumed.phase2_progress["decisions"]
        == serial_reference[4].phase2_progress["decisions"]
    )


def test_interrupted_serial_phase2_resumes_without_requerying(xml, seeds):
    """The serial path checkpoints per evaluated pair too: resuming a
    mid-phase-2 serial checkpoint re-issues no queries for committed
    pairs (the base-invocation count stays within the remainder)."""

    class CountingBase:
        def __init__(self, fn):
            self.fn = fn
            self.calls = 0

        def __call__(self, text):
            self.calls += 1
            return self.fn(text)

    store = MemoryCheckpointStore()
    config = GladeConfig(alphabet=xml.alphabet)
    full = LearningPipeline(
        xml.oracle, config=config, store=store
    ).run(seeds)

    snapshot = None
    for index in range(len(store.snapshots)):
        candidate = store.snapshot(index)
        decisions = candidate.phase2_progress.get("decisions", [])
        total = candidate.phase2_progress.get("pairs", 0)
        if candidate.stage == "translate" and 0 < len(decisions) < total:
            snapshot = candidate
    assert snapshot is not None, "no mid-phase-2 serial checkpoint"
    base_queries = snapshot.oracle_queries

    oracle = CountingBase(xml.oracle)
    resumed = LearningPipeline(oracle, config=config).resume(snapshot)
    assert str(resumed.grammar) == str(full.grammar)
    assert resumed.oracle_queries == full.oracle_queries
    # Only post-checkpoint pairs were evaluated.
    assert oracle.calls <= full.oracle_queries - base_queries


# Balanced parentheses over a, ( and ), checked by a real subprocess.
_BALANCED = (
    "import sys\n"
    "text = sys.stdin.read()\n"
    "depth = 0\n"
    "for char in text:\n"
    "    depth += (char == '(') - (char == ')')\n"
    "    if depth < 0:\n"
    "        break\n"
    "sys.exit(0 if text and set(text) <= set('a()') and depth == 0 "
    "else 1)\n"
)


def test_subprocess_workers_change_no_grammar_or_count():
    """Oracle workers run checks ahead; they never change what counts.

    ``max_workers=4`` prefetches phase one's candidate checks and
    character probes on the subprocess pool, serially and under a
    thread-backend sharded run, yet the learner still asks one check at
    a time with the short-circuit — so grammar, ``oracle_queries`` and
    ``unique_queries`` equal the one-worker run's.
    """

    def learn_with(max_workers, jobs=1, backend="serial"):
        oracle = SubprocessOracle(
            [sys.executable, "-S", "-c", _BALANCED], max_workers=max_workers
        )
        config = GladeConfig(alphabet="a()", jobs=jobs, backend=backend)
        artifact = LearningPipeline(oracle, config=config).run(["(a)", "a()"])
        assert (oracle._pool is not None) == (max_workers > 1)
        oracle.close()
        return (
            serialized(artifact),
            artifact.oracle_queries,
            artifact.unique_queries,
        )

    reference = learn_with(1)
    assert learn_with(4) == reference
    assert learn_with(4, jobs=2, backend="thread") == reference


def _balanced(text):
    depth = 0
    for char in text:
        depth += (char == "(") - (char == ")")
        if depth < 0:
            return False
    return bool(text) and set(text) <= set("a()") and depth == 0


class HintRecorder(SubprocessOracle):
    """A two-worker :class:`SubprocessOracle` that answers in process and
    records, per prefetch hint, the last stage the run had completed."""

    def __init__(self):
        super().__init__(["unused"], max_workers=2)
        self.artifact = None
        self.hints = []

    def _run(self, text):
        return _balanced(text)

    def prefetch(self, texts):
        self.hints.append(self.artifact.stage)
        super().prefetch(texts)


@pytest.mark.parametrize("jobs, backend", [(1, "serial"), (2, "thread")])
def test_phase2_hands_no_prefetch_hint(jobs, backend):
    """Phase 2 runs ahead only through its jobs: a pair stops at its
    first rejection, so its checks are not hinted to the oracle. Phase
    1 still hints its candidate checks and character probes."""
    oracle = HintRecorder()

    class StageOf(CheckpointStore):
        def save(self, artifact):
            oracle.artifact = artifact

        def load(self):
            return None

    config = GladeConfig(alphabet="a()", jobs=jobs, backend=backend)
    artifact = LearningPipeline(oracle, config=config, store=StageOf()).run(
        ["(a)", "a()"]
    )
    oracle.close()
    decisions = artifact.phase2_progress["decisions"]
    assert set(decisions) & {"merged", "rejected"}  # pairs were evaluated
    assert "validate" in oracle.hints  # phase 1
    assert "translate" not in oracle.hints  # phase 2
