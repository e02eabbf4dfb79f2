"""Pair-sharded phase 2: tasks, the query planner, and the wavefront.

Unit-level coverage for :mod:`repro.exec.merge_shard`: worker tasks
keep sequential short-circuit semantics, the known-verdict table
dedupes check strings across pairs, and the wavefront commits in plan
order — discarding speculatively evaluated pairs exactly as the serial
loop's transitive skip would, with counted totals equal to the serial
loop's at any completion order.
"""

import threading

from repro.core.context import Context
from repro.core.gtree import GConcat, GConst, GRoot, GStar
from repro.core.phase2 import (
    PAIR_MERGED,
    PAIR_SKIPPED,
    MergeCommitter,
    merge_repetitions,
    plan_merges,
)
from repro.core.translate import translate_trees
from repro.exec.backends import Executor, SerialExecutor, ThreadExecutor
from repro.exec.merge_shard import (
    decode_pair,
    pair_payload,
    run_merge_wavefront,
    run_pair_task,
)
from repro.learning.oracle import CachingOracle, CountingOracle


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

    grammar, stars = make_stars(names)
    serial_counting = CountingOracle(CachingOracle(oracle_fn))
    serial = merge_repetitions(grammar, stars, serial_counting)

    grammar2, stars2 = make_stars(names)
    plan = plan_merges(stars2, mixed=True, n_samples=2)
    committer = MergeCommitter(plan)
    with ThreadExecutor(4) as executor:
        stats = run_merge_wavefront(
            executor, plan, committer, CountingBase(oracle_fn)
        )
    result = committer.finish(grammar2)
    assert str(result.grammar) == str(serial.grammar)
    assert result.representative == serial.representative
    # The wavefront's counted totals equal the serial loop's counter.
    assert stats.counted_queries == serial_counting.queries
    assert committer.done


def test_reversed_completion_order_discards_transitive_pairs():
    # Three mutually mergeable stars: the serial loop merges (0,1) and
    # (0,2), then skips (1,2) transitively. Reversed completion means
    # (1,2) was fully evaluated before its commit turn — it must be
    # discarded to the speculative bucket, not applied.
    grammar, stars = make_stars(["ab", "ab", "ab"])
    plan = plan_merges(stars)
    committer = MergeCommitter(plan)
    with ReorderingExecutor() as executor:
        stats = run_merge_wavefront(
            executor, plan, committer, lambda text: True
        )
    assert committer.decisions == [PAIR_MERGED, PAIR_MERGED, PAIR_SKIPPED]
    assert stats.speculative_queries > 0
    assert stats.pairs_discarded == 1

    # Counted totals still equal a serial run's.
    grammar2, stars2 = make_stars(["ab", "ab", "ab"])
    serial_counting = CountingOracle(CachingOracle(lambda text: True))
    serial = merge_repetitions(grammar2, stars2, serial_counting)
    assert stats.counted_queries == serial_counting.queries
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
    events = []
    with EagerInOrderExecutor() as executor:
        stats = run_merge_wavefront(
            executor, plan, committer, lambda text: True,
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
    assert late.queries == 0


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
        stats = run_merge_wavefront(
            SerialExecutor(), plan, committer, oracle, dedup=dedup
        )
        return stats, oracle.calls

    with_planner, calls_with = run(dedup=True)
    without, calls_without = run(dedup=False)
    assert calls_with < calls_without
    assert with_planner.invocations == calls_with
    assert with_planner.table_hits > 0
    # Dedup changes execution cost only — counted totals are identical.
    assert with_planner.counted_queries == without.counted_queries


def test_preseeded_table_skips_already_answered_strings():
    grammar, stars = make_stars(["ab", "cd"])
    plan = plan_merges(stars)
    # Seed the table with every check string, as the pipeline does from
    # the parent membership cache: zero oracle invocations remain.
    known = {check: True for pair in plan.pairs for check in pair.checks}
    committer = MergeCommitter(plan)
    oracle = CountingBase(lambda text: True)
    stats = run_merge_wavefront(
        SerialExecutor(), plan, committer, oracle, known=known
    )
    assert oracle.calls == 0
    assert stats.invocations == 0
    # Counted cost is unchanged: the serial loop would have paid every
    # check through its counter even on cache hits.
    assert stats.counted_queries > 0


def test_wavefront_resumes_mid_plan():
    # Replaying a committed prefix and running the wavefront over the
    # rest must land on the same decisions as one uninterrupted run.
    names = ["ab", "cd", "ab", "cd", "ef"]
    oracle_fn = lambda text: "e" not in text  # noqa: E731
    grammar, stars = make_stars(names)
    plan = plan_merges(stars)
    reference = MergeCommitter(plan)
    with ThreadExecutor(2) as executor:
        run_merge_wavefront(executor, plan, reference, CountingBase(oracle_fn))

    for cut in (1, 3, len(reference.decisions) - 1):
        grammar2, stars2 = make_stars(names)
        plan2 = plan_merges(stars2)
        resumed = MergeCommitter(plan2)
        resumed.replay(reference.decisions[:cut])
        with ThreadExecutor(2) as executor:
            stats = run_merge_wavefront(
                executor, plan2, resumed, CountingBase(oracle_fn)
            )
        assert resumed.decisions == reference.decisions, cut
        assert stats is not None
