"""Pair-sharded phase 2: tasks, the query planner, and the wavefront.

Unit-level coverage for :mod:`repro.exec.merge_shard`: worker tasks
keep sequential short-circuit semantics, the known-verdict table
dedupes check strings across pairs, and the wavefront commits in plan
order through the parent's counting/caching stack — discarding
speculatively evaluated pairs exactly as the serial loop's transitive
skip would, with counted and unique totals equal to the serial loop's
at any completion order.
"""

import threading

import pytest

from repro.core.context import Context
from repro.core.gtree import GConcat, GConst, GRoot, GStar
from repro.core.phase2 import (
    PAIR_MERGED,
    PAIR_REJECTED,
    PAIR_SKIPPED,
    MergeCommitter,
    plan_merges,
)
from repro.core.translate import translate_trees
from repro.exec.backends import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)
from repro.exec.merge_shard import (
    decode_pair,
    pair_payload,
    run_merge_wavefront,
    run_pair_task,
)
from repro.learning.oracle import CachingOracle, CountingOracle
from tests.reference_phase2 import merge_repetitions


class CountingBase:
    """Counts raw oracle invocations; thread-safe for pool backends."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, text):
        with self._lock:
            self.calls += 1
        return self.fn(text)


def make_stars(names):
    """One flat tree of sibling stars, each with a distinct context.

    Star ids are explicit (100, 101, ...) so two calls build identical
    trees — comparisons between separately built runs are then
    byte-exact, nonterminal names included.
    """
    stars = []
    for index, name in enumerate(names):
        context = Context("<{}>".format(index), "</{}>".format(index))
        stars.append(
            GStar(GConst(name, context), name, context, star_id=100 + index)
        )
    root = GRoot(GConcat(list(stars)))
    grammar = translate_trees([root])
    return grammar, stars


def parent_stack(fn=None):
    """The pipeline's parent stack: a counting layer over a cache.

    Without ``fn`` the cache's base oracle raises, so a wavefront run
    over it proves that every commit was answered from the cache.
    """

    def forbidden(text):
        raise AssertionError("the parent's base oracle was asked")

    cache = CachingOracle(fn if fn is not None else forbidden)
    return CountingOracle(cache), cache


def serial_reference(names, oracle_fn):
    """``merge_repetitions`` through a counting/caching stack."""
    grammar, stars = make_stars(names)
    counting, cache = parent_stack(oracle_fn)
    result = merge_repetitions(grammar, stars, counting)
    return result, counting.queries, cache.unique_queries


class FakePair:
    def __init__(self, index, checks):
        self.index = index
        self.checks = tuple(checks)


class TestPairTask:
    def test_sequential_short_circuits_at_first_rejection(self):
        oracle = CountingBase(lambda text: text != "no")
        payload = pair_payload(FakePair(3, ["a", "no", "later"]), oracle, {})
        outcome = decode_pair(run_pair_task(payload))
        assert outcome.index == 3
        assert outcome.verdicts == (True, False)
        assert outcome.invocations == 2
        assert oracle.calls == 2  # "later" never reached the oracle
        assert outcome.learned == {"a": True, "no": False}

    def test_known_table_answers_without_oracle(self):
        oracle = CountingBase(lambda text: True)
        known = {"a": True, "b": True, "c": True}
        payload = pair_payload(FakePair(0, ["a", "b", "c"]), oracle, known)
        outcome = decode_pair(run_pair_task(payload))
        assert outcome.verdicts == (True, True, True)
        assert outcome.invocations == 0
        assert oracle.calls == 0
        assert outcome.learned == {}

    def test_known_rejection_short_circuits_for_free(self):
        oracle = CountingBase(lambda text: True)
        payload = pair_payload(
            FakePair(0, ["bad", "x"]), oracle, {"bad": False}
        )
        outcome = decode_pair(run_pair_task(payload))
        assert outcome.verdicts == (False,)
        assert oracle.calls == 0

    def test_duplicate_checks_within_a_task_query_once(self):
        oracle = CountingBase(lambda text: True)
        payload = pair_payload(FakePair(0, ["a", "a", "b"]), oracle, {})
        outcome = decode_pair(run_pair_task(payload))
        assert outcome.verdicts == (True, True, True)
        assert outcome.invocations == 2


class ReorderingExecutor(Executor):
    """Runs every task inline, then yields results in *reverse* order.

    The adversarial completion order for an in-order committer: the
    last pair's outcome arrives first and must sit buffered until the
    whole frontier ahead of it has committed.
    """

    name = "reordering"
    jobs = 2

    def unordered(self, fn, payloads):
        results = [(i, fn(p)) for i, p in enumerate(payloads)]
        return iter(list(reversed(results)))


def test_wavefront_matches_serial_loop_counts_and_grammar():
    names = ["ab", "cd", "ab", "ef"]
    oracle_fn = lambda text: "e" not in text  # noqa: E731
    serial, queries, unique = serial_reference(names, oracle_fn)

    grammar2, stars2 = make_stars(names)
    plan = plan_merges(stars2, mixed=True, n_samples=2)
    committer = MergeCommitter(plan)
    counting, cache = parent_stack()
    with ThreadExecutor(4) as executor:
        run_merge_wavefront(
            executor, plan, committer, CountingBase(oracle_fn),
            counting, cache,
        )
    result = committer.finish(grammar2)
    assert str(result.grammar) == str(serial.grammar)
    assert result.representative == serial.representative
    # The parent stack counted the serial loop's totals.
    assert counting.queries == queries
    assert cache.unique_queries == unique
    assert committer.done


def test_reversed_completion_order_discards_transitive_pairs():
    # Three mutually mergeable stars: the serial loop merges (0,1) and
    # (0,2), then skips (1,2) transitively. Reversed completion means
    # (1,2) was fully evaluated before its commit turn — it must be
    # discarded to the speculative bucket, not applied.
    grammar, stars = make_stars(["ab", "ab", "ab"])
    plan = plan_merges(stars)
    committer = MergeCommitter(plan)
    counting, cache = parent_stack()
    with ReorderingExecutor() as executor:
        stats = run_merge_wavefront(
            executor, plan, committer, lambda text: True, counting, cache
        )
    assert committer.decisions == [PAIR_MERGED, PAIR_MERGED, PAIR_SKIPPED]
    assert stats.speculative_queries > 0
    assert stats.pairs_discarded == 1

    # Counted totals still equal a serial run's.
    serial, queries, unique = serial_reference(
        ["ab", "ab", "ab"], lambda text: True
    )
    assert counting.queries == queries
    assert cache.unique_queries == unique
    assert str(committer.finish(grammar).grammar) == str(serial.grammar)


class EagerInOrderExecutor(Executor):
    """Pulls (and runs) every payload up front, yields in plan order.

    Forces the complementary race to :class:`ReorderingExecutor`: a
    transitively skipped pair's speculative result arrives *after* the
    frontier already committed the skip.
    """

    name = "eager"
    jobs = 2

    def unordered(self, fn, payloads):
        return iter([(i, fn(p)) for i, p in enumerate(payloads)])


def test_late_speculative_result_still_booked_as_discarded():
    # Pairs (0,1) and (0,2) merge first, so (1,2) commits as skipped
    # while its (already evaluated) outcome is still "in flight". The
    # late arrival must be booked to the speculative bucket through a
    # cost-only event, not silently dropped.
    grammar, stars = make_stars(["ab", "ab", "ab"])
    plan = plan_merges(stars)
    committer = MergeCommitter(plan)
    counting, cache = parent_stack()
    events = []
    with EagerInOrderExecutor() as executor:
        stats = run_merge_wavefront(
            executor, plan, committer, lambda text: True, counting, cache,
            on_commit=events.append,
        )
    assert committer.decisions == [PAIR_MERGED, PAIR_MERGED, PAIR_SKIPPED]
    assert stats.pairs_discarded == 1
    assert stats.speculative_queries == len(plan.pairs[2].checks)
    # Three commits plus one cost-only late event for the third pair.
    assert len(events) == 4
    late = events[-1]
    assert late.pair.index == 2
    assert late.decision == PAIR_SKIPPED
    assert late.discarded == len(plan.pairs[2].checks)
    # The skipped pair's strings stay out of the counted totals.
    _serial, queries, unique = serial_reference(
        ["ab", "ab", "ab"], lambda text: True
    )
    assert counting.queries == queries
    assert cache.unique_queries == unique


def test_planner_table_dedupes_across_pairs():
    # With the serial executor the wavefront runs pairs one at a time,
    # so the invocation counts are deterministic: the shared verdict
    # table must strictly reduce base-oracle work versus naive
    # per-pair evaluation (duplicate check strings across pairs).
    def run(dedup):
        grammar, stars = make_stars(["ab", "cd", "ab", "cd"])
        plan = plan_merges(stars)
        committer = MergeCommitter(plan)
        oracle = CountingBase(lambda text: True)
        counting, cache = parent_stack()
        stats = run_merge_wavefront(
            SerialExecutor(), plan, committer, oracle, counting, cache,
            dedup=dedup,
        )
        return stats, oracle.calls, counting.queries

    with_planner, calls_with, counted_with = run(dedup=True)
    without, calls_without, counted_without = run(dedup=False)
    assert calls_with < calls_without
    assert with_planner.invocations == calls_with
    assert with_planner.table_hits > 0
    # Dedup changes execution cost only — counted totals are identical.
    assert counted_with == counted_without


def test_preseeded_table_skips_already_answered_strings():
    grammar, stars = make_stars(["ab", "cd"])
    plan = plan_merges(stars)
    # Pre-fill the parent cache with every check string, as phase 1
    # may have: the verdict table starts from it, so zero oracle
    # invocations remain.
    counting, cache = parent_stack()
    for pair in plan.pairs:
        for check in pair.checks:
            cache.record(check, True)
    committer = MergeCommitter(plan)
    oracle = CountingBase(lambda text: True)
    stats = run_merge_wavefront(
        SerialExecutor(), plan, committer, oracle, counting, cache
    )
    assert oracle.calls == 0
    assert stats.invocations == 0
    # Counted cost is unchanged: the serial loop would have paid every
    # check through its counter even on cache hits.
    assert counting.queries > 0


def test_wavefront_resumes_mid_plan():
    # Replaying a committed prefix and running the wavefront over the
    # rest must land on the same decisions as one uninterrupted run.
    names = ["ab", "cd", "ab", "cd", "ef"]
    oracle_fn = lambda text: "e" not in text  # noqa: E731
    grammar, stars = make_stars(names)
    plan = plan_merges(stars)
    reference = MergeCommitter(plan)
    with ThreadExecutor(2) as executor:
        run_merge_wavefront(
            executor, plan, reference, CountingBase(oracle_fn),
            *parent_stack(),
        )

    for cut in (1, 3, len(reference.decisions) - 1):
        grammar2, stars2 = make_stars(names)
        plan2 = plan_merges(stars2)
        resumed = MergeCommitter(plan2)
        resumed.replay(reference.decisions[:cut])
        with ThreadExecutor(2) as executor:
            stats = run_merge_wavefront(
                executor, plan2, resumed, CountingBase(oracle_fn),
                *parent_stack(),
            )
        assert resumed.decisions == reference.decisions, cut
        assert stats is not None


def no_e(text):
    """A picklable oracle for the process backend: rejects any ``e``."""
    return "e" not in text


@pytest.mark.parametrize("dedup", [True, False])
@pytest.mark.parametrize(
    "make_executor",
    [
        lambda: ThreadExecutor(2),
        lambda: ThreadExecutor(4),
        lambda: ProcessExecutor(2),
        ReorderingExecutor,
        EagerInOrderExecutor,
    ],
    ids=["thread2", "thread4", "process2", "reordering", "eager"],
)
def test_commits_never_reach_the_parents_base_oracle(make_executor, dedup):
    # The parent cache's base oracle raises on any call: every commit
    # must be answered from the verdicts the wavefront recorded, and
    # the stack must still count the serial loop's totals.
    names = ["ab", "cd", "ab", "cd", "ef"]
    _serial, queries, unique = serial_reference(names, no_e)
    grammar, stars = make_stars(names)
    plan = plan_merges(stars)
    committer = MergeCommitter(plan)
    counting, cache = parent_stack()
    with make_executor() as executor:
        run_merge_wavefront(
            executor, plan, committer, no_e, counting, cache,
            dedup=dedup,
        )
    assert committer.done
    assert PAIR_REJECTED in committer.decisions
    assert counting.queries == queries
    assert cache.unique_queries == unique
