"""Run-sharded phase 2: run tasks, the query planner, and the wavefront.

Unit-level coverage for :mod:`repro.exec.merge_shard`: run tasks keep
sequential short-circuit semantics and skip pairs their stars' merges
already equate, the known-verdict table dedupes check strings across
pairs, each step builds only the checks it asks, and the wavefront
commits in plan order through the parent's counting/caching stack —
discarding speculatively evaluated pairs exactly as the serial loop's
transitive skip would, with counted and unique totals equal to the
serial loop's at any completion order.
"""

import threading
from collections.abc import Mapping

import pytest

import repro.exec.merge_shard as merge_shard_mod
from repro.artifacts import CheckpointStore
from repro.core.context import Context
from repro.core.glade import GladeConfig
from repro.core.gtree import GConcat, GConst, GRoot, GStar
from repro.core.phase2 import (
    PAIR_MERGED,
    PAIR_REJECTED,
    PAIR_SKIPPED,
    MergeCommitter,
    pair_checks,
    plan_merges,
)
from repro.core.pipeline import LearningPipeline
from repro.core.translate import translate_trees
from repro.exec.backends import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)
from repro.exec.merge_shard import (
    MAX_RUN,
    run_length,
    run_merge_wavefront,
    run_pairs_task,
)
from repro.learning.oracle import CachingOracle, CountingOracle
from repro.obs.trace import NULL_TRACER, Tracer
from repro.programs import get_subject
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


def star_material(names):
    """Star ``n``'s context and one residual, both from ``names[n]``:
    stars with equal names have equal checks."""
    return {
        index: (Context("<{}>".format(name), "</{}>".format(name)), [name])
        for index, name in enumerate(names)
    }


#: Stars 0–3 have distinct checks; star 4 is a copy of star 1.
STARS = star_material(["a", "b", "c", "d", "b"])


def checks_of(star_i, star_j):
    """The six checks of a pair of :data:`STARS` (mixed width 1)."""
    return list(pair_checks(STARS, star_i, star_j, 1))


def run_task(pairs, oracle, known=None, roots=None):
    """Run one task over ``(index, star_i, star_j)`` pairs of
    :data:`STARS`; stars start unequated unless ``roots`` says
    otherwise."""
    if roots is None:
        roots = {star: star for _, i, j in pairs for star in (i, j)}
    return run_pairs_task({
        "pairs": list(pairs),
        "stars": {star: STARS[star] for star in roots},
        "mixed_width": 1,
        "roots": roots,
        "oracle": oracle,
        "known": known or {},
        "trace": False,
    })


ALL_TRUE = (True,) * 6


class TestPairTask:
    def test_sequential_short_circuits_at_first_rejection(self):
        first, second = checks_of(0, 1)[:2]
        oracle = CountingBase(lambda text: text != second)
        outcome = run_task([(3, 0, 1)], oracle)
        assert outcome["verdicts"] == {3: (True, False)}
        assert outcome["invocations"] == 2
        assert oracle.calls == 2  # the later checks never reached it
        assert outcome["learned"] == {first: True, second: False}

    def test_known_table_answers_without_oracle(self):
        oracle = CountingBase(lambda text: True)
        known = {check: True for check in checks_of(0, 1)}
        outcome = run_task([(0, 0, 1)], oracle, known)
        assert outcome["verdicts"] == {0: ALL_TRUE}
        assert outcome["invocations"] == 0
        assert oracle.calls == 0
        assert outcome["learned"] == {}

    def test_known_rejection_short_circuits_for_free(self):
        oracle = CountingBase(lambda text: True)
        outcome = run_task(
            [(0, 0, 1)], oracle, {checks_of(0, 1)[0]: False}
        )
        assert outcome["verdicts"] == {0: (False,)}
        assert oracle.calls == 0

    def test_duplicate_checks_within_a_task_query_once(self):
        # Star 4 is a copy of star 1, so both pairs ask the same six
        # strings; the last is rejected, so neither pair equates.
        last = checks_of(0, 1)[-1]
        assert checks_of(0, 4) == checks_of(0, 1)
        oracle = CountingBase(lambda text: text != last)
        outcome = run_task([(0, 0, 1), (1, 0, 4)], oracle)
        rejected = ALL_TRUE[:5] + (False,)
        assert outcome["verdicts"] == {0: rejected, 1: rejected}
        assert outcome["invocations"] == 6


class TestRunTask:
    def test_run_skips_pairs_its_own_merges_equate(self):
        # (0,1) and (0,2) merge, so (1,2) is equated within the run
        # and asks nothing; (1,3) is still evaluated.
        oracle = CountingBase(lambda text: True)
        outcome = run_task(
            [(0, 0, 1), (1, 0, 2), (2, 1, 2), (3, 1, 3)], oracle
        )
        assert outcome["verdicts"] == {
            0: ALL_TRUE, 1: ALL_TRUE, 2: None, 3: ALL_TRUE,
        }
        assert oracle.calls == 18

    def test_rejected_pair_equates_nothing(self):
        no = checks_of(0, 1)[0]
        oracle = CountingBase(lambda text: text != no)
        outcome = run_task([(0, 0, 1), (1, 1, 2), (2, 0, 2)], oracle)
        assert outcome["verdicts"] == {
            0: (False,), 1: ALL_TRUE, 2: ALL_TRUE,
        }

    def test_run_skips_pairs_committed_merges_equate(self):
        oracle = CountingBase(lambda text: True)
        outcome = run_task(
            [(5, 1, 2), (6, 2, 3)], oracle, roots={1: 0, 2: 0, 3: 3}
        )
        assert outcome["verdicts"] == {5: None, 6: ALL_TRUE}
        assert oracle.calls == 6

    def test_one_job_task_asks_only_what_the_runs_verdicts_lack(self):
        # Handed the base oracle and the run cache's verdicts as its
        # known table, the task asks the base oracle only for the
        # strings the run lacks, and returns exactly those.
        first = checks_of(0, 1)[0]
        no = checks_of(0, 2)[1]
        base = CountingBase(lambda text: text != no)
        cache = CachingOracle(base)
        cache(first)
        outcome = run_task(
            [(0, 0, 1), (1, 0, 2)], base, known=cache.known_results()
        )
        assert outcome["verdicts"] == {0: ALL_TRUE, 1: (True, False)}
        assert outcome["invocations"] == 7
        assert base.calls == 8
        assert outcome["learned"] == {
            **{check: True for check in checks_of(0, 1)[1:]},
            checks_of(0, 2)[0]: True,
            no: False,
        }
        assert cache.known_results() == {first: True}


def test_run_length_is_guided_self_scheduling():
    assert run_length(406, 2) == 51
    assert run_length(7, 2) == 1
    assert run_length(1, 4) == 1
    assert run_length(10_000, 1) == MAX_RUN


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
    third = list(plan.checks(plan.pairs[2]))
    assert stats.speculative_queries == len(third)
    # Three commits plus one cost-only late event for the third pair.
    assert len(events) == 4
    late = events[-1]
    assert late.pair.index == 2
    assert late.decision == PAIR_SKIPPED
    assert late.discarded == len(third)
    # The skipped pair's strings stay out of the counted totals.
    _serial, queries, unique = serial_reference(
        ["ab", "ab", "ab"], lambda text: True
    )
    assert counting.queries == queries
    assert cache.unique_queries == unique


def test_planner_table_dedupes_across_pairs():
    # With the serial executor the wavefront runs one task at a time,
    # so the invocation counts are deterministic. The parent's cache
    # starts empty, so the counted queries are what per-pair evaluation
    # without the verdict table would ask: the table must strictly
    # reduce base-oracle work below them (duplicate check strings
    # across pairs).
    grammar, stars = make_stars(["ab", "cd", "ab", "cd"])
    plan = plan_merges(stars)
    committer = MergeCommitter(plan)
    oracle = CountingBase(lambda text: True)
    counting, cache = parent_stack(oracle)
    stats = run_merge_wavefront(
        SerialExecutor(), plan, committer, oracle, counting, cache
    )
    assert stats.invocations == oracle.calls < counting.queries
    assert stats.table_hits > 0


def test_preseeded_table_skips_already_answered_strings():
    grammar, stars = make_stars(["ab", "cd"])
    plan = plan_merges(stars)
    # Pre-fill the parent cache with every check string, as phase 1
    # may have: the verdict table starts from it, so zero oracle
    # invocations remain.
    counting, cache = parent_stack()
    cache.record(
        (check, True) for pair in plan.pairs for check in plan.checks(pair)
    )
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


@pytest.mark.parametrize("traced", [True, False])
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
def test_commits_never_reach_the_parents_base_oracle(make_executor, traced):
    # The parent cache's base oracle raises on any call: every commit
    # must be answered from the verdicts the wavefront recorded, and
    # the stack must still count the serial loop's totals. A traced
    # run keeps one pair span per evaluated pair, as a serial run does.
    names = ["ab", "cd", "ab", "cd", "ef"]
    _serial, queries, unique = serial_reference(names, no_e)
    grammar, stars = make_stars(names)
    plan = plan_merges(stars)
    committer = MergeCommitter(plan)
    counting, cache = parent_stack()
    tracer = Tracer() if traced else NULL_TRACER
    with make_executor() as executor:
        run_merge_wavefront(
            executor, plan, committer, no_e, counting, cache,
            tracer=tracer,
        )
    assert committer.done
    assert PAIR_REJECTED in committer.decisions
    assert counting.queries == queries
    assert cache.unique_queries == unique
    evaluated = [
        index
        for index, decision in enumerate(committer.decisions)
        if decision != PAIR_SKIPPED
    ]
    pair_spans = [
        span["args"]["index"]
        for span in tracer.snapshot()
        if span["name"] == "pair"
    ]
    assert sorted(pair_spans) == (evaluated if traced else [])


# -- the lazy plan: a check is built only when it is asked ---------------


@pytest.fixture
def wraps(monkeypatch):
    """Every ``Context.wrap`` call: each builds one check string."""
    calls = []
    original = Context.wrap

    def counting(context, inner):
        calls.append(inner)
        return original(context, inner)

    monkeypatch.setattr(Context, "wrap", counting)
    return calls


def rejected_at_first_check():
    """A one-pair plan and an oracle that rejects the pair's first check
    (six checks in all)."""
    _grammar, stars = make_stars(["ab", "cd"])
    plan = plan_merges(stars)
    first = next(plan.checks(plan.pairs[0]))
    return plan, lambda text: text != first


def capture_payloads(monkeypatch):
    """Record every run payload the wavefront hands its executor."""
    payloads = []

    def capturing(payload):
        payloads.append(payload)
        return run_pairs_task(payload)

    monkeypatch.setattr(merge_shard_mod, "run_pairs_task", capturing)
    return payloads


class TestLazyChecks:
    def test_commit_builds_only_the_rejected_check(self, wraps):
        plan, oracle = rejected_at_first_check()
        wraps.clear()
        event = MergeCommitter(plan).commit_serial(oracle)
        assert event.decision == PAIR_REJECTED
        assert len(wraps) == 1

    def test_run_task_builds_only_the_rejected_check(self, wraps):
        plan, oracle = rejected_at_first_check()
        pair = plan.pairs[0]
        wraps.clear()
        outcome = run_pairs_task({
            "pairs": [(pair.index, pair.star_i, pair.star_j)],
            "stars": plan.stars,
            "mixed_width": plan.mixed_width,
            "roots": {pair.star_i: pair.star_i, pair.star_j: pair.star_j},
            "oracle": oracle,
            "known": {},
            "trace": False,
        })
        assert outcome["verdicts"] == {0: (False,)}
        assert len(wraps) == 1

    def test_wavefront_record_builds_only_the_rejected_check(
        self, wraps, monkeypatch
    ):
        # At one job the task, the record and the commit each build the
        # rejected check once, and nothing builds a later check.
        plan, oracle = rejected_at_first_check()
        built = {}

        def measured(name, fn):
            def wrapper(*args):
                before = len(wraps)
                try:
                    return fn(*args)
                finally:
                    built[name] = len(wraps) - before

            return wrapper

        monkeypatch.setattr(
            merge_shard_mod, "run_pairs_task",
            measured("task", run_pairs_task),
        )
        monkeypatch.setattr(
            MergeCommitter, "commit_serial",
            measured("commit", MergeCommitter.commit_serial),
        )
        counting, cache = parent_stack()
        committer = MergeCommitter(plan)
        wraps.clear()
        run_merge_wavefront(
            SerialExecutor(), plan, committer, oracle, counting, cache
        )
        assert committer.decisions == [PAIR_REJECTED]
        assert built == {"task": 1, "commit": 1}
        assert len(wraps) == 3  # the record's is the third
        assert len(set(wraps)) == 1

    def test_one_job_runs_read_the_run_caches_table(self, monkeypatch):
        payloads = capture_payloads(monkeypatch)
        _grammar, stars = make_stars(["ab", "cd", "ab", "cd", "ef"])
        plan = plan_merges(stars)
        counting, cache = parent_stack(no_e)
        run_merge_wavefront(
            SerialExecutor(), plan, MergeCommitter(plan), no_e,
            counting, cache,
        )
        assert len(payloads) > 1
        assert all(
            payload["known"] is cache.known_results() for payload in payloads
        )

    def test_one_job_wavefront_leaves_learned_verdicts_unread(
        self, monkeypatch
    ):
        # Only pooled snapshots read the planner table, so at one job
        # the wavefront never reads what a run learned.
        class Unreadable(Mapping):
            def _refuse(self, *_args):
                raise AssertionError("a one-job run's verdicts were read")

            __getitem__ = __iter__ = __len__ = _refuse

        def unreadable(payload):
            raw = run_pairs_task(payload)
            raw["learned"] = Unreadable()
            return raw

        monkeypatch.setattr(merge_shard_mod, "run_pairs_task", unreadable)
        names = ["ab", "cd", "ab", "cd", "ef"]
        serial, queries, unique = serial_reference(names, no_e)
        grammar, stars = make_stars(names)
        plan = plan_merges(stars, mixed=True, n_samples=2)
        committer = MergeCommitter(plan)
        counting, cache = parent_stack(no_e)
        run_merge_wavefront(
            SerialExecutor(), plan, committer, no_e, counting, cache
        )
        assert committer.committed == plan.n_pairs
        result = committer.finish(grammar)
        assert str(result.grammar) == str(serial.grammar)
        assert (counting.queries, cache.unique_queries) == (queries, unique)

    def test_pooled_snapshot_stops_at_first_known_rejection(
        self, monkeypatch
    ):
        payloads = capture_payloads(monkeypatch)
        _grammar, stars = make_stars(["ab", "cd", "ef", "gh"])
        plan = plan_merges(stars)
        # The parent's cache knows every check of every pair, and
        # rejects each pair's second.
        counting, cache = parent_stack()
        cache.record(
            (check, position != 1)
            for pair in plan.pairs
            for position, check in enumerate(plan.checks(pair))
        )
        oracle = CountingBase(lambda text: True)
        committer = MergeCommitter(plan)
        with EagerInOrderExecutor() as executor:
            run_merge_wavefront(
                executor, plan, committer, oracle, counting, cache
            )
        assert committer.decisions == [PAIR_REJECTED] * plan.n_pairs
        assert oracle.calls == 0
        assert payloads
        for payload in payloads:
            expected = {}
            for index, _i, _j in payload["pairs"]:
                first, second = list(plan.checks(plan.pairs[index]))[:2]
                expected.update({first: True, second: False})
            assert payload["known"] == expected


# -- work-count guards: tasks and base-oracle calls, not time ------------


def learn_xml_subject(jobs, backend, oracle=None, store=None):
    subject = get_subject("xml")
    config = GladeConfig(alphabet=subject.alphabet, jobs=jobs, backend=backend)
    return LearningPipeline(
        oracle or subject.accepts, config=config, store=store
    ).run(subject.seeds)


def test_pooled_phase2_sends_runs_not_pairs(monkeypatch):
    """At two jobs, phase 2 submits at most a quarter as many tasks as
    it evaluates pairs (one task per pair would submit one each)."""
    tasks = []

    def counted(payload):
        tasks.append(len(payload["pairs"]))
        return run_pairs_task(payload)

    monkeypatch.setattr(merge_shard_mod, "run_pairs_task", counted)
    artifact = learn_xml_subject(2, "thread")
    decisions = artifact.phase2_progress["decisions"]
    evaluated = sum(decision != PAIR_SKIPPED for decision in decisions)
    assert len(decisions) == 406 and evaluated == 309
    assert 0 < 4 * len(tasks) <= evaluated


def test_one_job_phase2_asks_only_what_it_counts():
    """At one job, phase 2 sends the base oracle exactly the distinct
    strings it adds to the run's cache, and speculates on nothing."""
    accepts = get_subject("xml").accepts
    asked = []

    def recording(text):
        asked.append(text)
        return accepts(text)

    class Probe(CheckpointStore):
        at_phase2 = None

        def save(self, artifact):
            if artifact.stage == "translate" and self.at_phase2 is None:
                self.at_phase2 = (len(asked), artifact.unique_queries)

        def load(self):
            return None

    probe = Probe()
    artifact = learn_xml_subject(1, "serial", oracle=recording, store=probe)
    calls_before, unique_before = probe.at_phase2
    phase2_asked = asked[calls_before:]
    assert phase2_asked
    assert len(set(phase2_asked)) == len(phase2_asked)
    assert len(phase2_asked) == artifact.unique_queries - unique_before
    assert artifact.speculative_queries == 0
