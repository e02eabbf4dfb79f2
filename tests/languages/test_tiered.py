"""Tests for the tiered matching engine (`TieredMatcher` + promotion).

The dense tier is an execution detail: every test here pins some part
of that contract — verdict agreement across tiers (and with the
test-side reference NFA) on random ASTs, structural (version-keyed)
invalidation across splices, batched coverage tracking equivalent to
the serial §6.1 loop, and end-to-end learning runs whose grammars and
query accounting are byte-identical serial and parallel.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.artifacts import grammar_to_dict
from repro.automata.dense import DenseDFA
from repro.core.glade import GladeConfig
from repro.core.pipeline import LearningPipeline
from repro.languages import regex as rx
from repro.languages.engine import (
    _FAILED,
    Engine,
    MembershipSession,
    TieredMatcher,
)
from repro.targets import get_target

from tests.reference_nfa import compile_regex

_ALPHABET = "ab"


def regex_trees(max_leaves: int = 5):
    leaves = st.one_of(
        st.text(alphabet=_ALPHABET, min_size=1, max_size=3).map(rx.Lit),
        st.just(rx.EPSILON),
        st.sampled_from(
            [rx.CharClass(frozenset("a")), rx.CharClass(frozenset("ab"))]
        ),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(children, children).map(
                lambda pair: rx.concat(*pair)
            ),
            st.tuples(children, children).map(lambda pair: rx.alt(*pair)),
            children.map(rx.star),
        ),
        max_leaves=max_leaves,
    )


probes = st.text(alphabet=_ALPHABET + "☃", max_size=8)


def hot_engine(**kwargs):
    """An engine that promotes on the very first probe."""
    kwargs.setdefault("promote_threshold", 1)
    return Engine(**kwargs)


class TestTieredMatcher:
    @settings(max_examples=100, deadline=None)
    @given(
        expr=regex_trees(),
        texts=st.lists(probes, min_size=1, max_size=6),
    )
    def test_all_tiers_agree(self, expr, texts):
        expected = [compile_regex(expr).matches(text) for text in texts]
        lazy = Engine().compile(expr)
        assert [lazy.matches(text) for text in texts] == expected
        hot = hot_engine().matcher(expr)
        assert [hot(text) for text in texts] == expected
        assert hot_engine().matcher(expr).match_many(texts) == expected

    def test_promotion_after_threshold(self):
        engine = Engine(promote_threshold=3)
        match = engine.matcher(rx.star(rx.Lit("ab")))
        assert isinstance(match, TieredMatcher)
        assert match("ab") and match("")  # below threshold: lazy tier
        assert engine.tier_stats.fragments_promoted == 0
        assert match("abab")  # third probe crosses the threshold
        assert engine.tier_stats.fragments_promoted == 1
        assert match("aba") is False
        stats = engine.tier_summary()
        assert stats["nfa_matches"] == 2
        assert stats["dense_matches"] == 2

    def test_batches_count_as_their_size(self):
        engine = Engine(promote_threshold=4)
        match = engine.matcher(rx.Lit("a"))
        # A 2-probe batch stays lazy (2 < 4)...
        assert match.match_many(["a", "b"]) == [True, False]
        assert engine.tier_stats.fragments_promoted == 0
        # ...the next one crosses the accumulated threshold.
        assert match.match_many(["a", "aa"]) == [True, False]
        assert engine.tier_stats.fragments_promoted == 1

    def test_non_byte_string_falls_back(self):
        engine = hot_engine()
        match = engine.matcher(rx.star(rx.CharClass(frozenset("a☃"))))
        # The alphabet is not byte-compressible: lowering fails once,
        # every probe stays on the lazy tier.
        assert match("☃") and match("a☃a") and not match("b")
        assert engine.tier_stats.promotion_failures == 1
        # A byte-clean language with a non-byte *probe*: per-string
        # fallback on a promoted matcher.
        snowman = engine.matcher(rx.star(rx.Lit("a")))
        assert snowman("aaa") and not snowman("☃")
        assert engine.tier_stats.fallback_matches == 1

    def test_budget_exhaustion_is_cached(self):
        engine = Engine(promote_threshold=1, state_budget=1)
        expr = rx.concat(rx.star(rx.CharClass(frozenset("ab"))), rx.Lit("aba"))
        match = engine.matcher(expr)
        assert match("aba") and not match("ab")
        assert engine.tier_stats.promotion_failures == 1
        assert engine._dense_tables[expr] is _FAILED
        # Re-requesting the version reuses the cached failure.
        again = engine.matcher(expr)
        assert again("aaba")
        assert engine.tier_stats.promotion_failures == 1


class TestVersionInvalidation:
    def test_splice_never_reuses_a_stale_table(self):
        engine = hot_engine()
        before = rx.concat(rx.Lit("a"), rx.star(rx.Lit("b")))
        match_before = engine.matcher(before)
        assert match_before("abb") and not match_before("ab" * 2)
        assert isinstance(engine._dense_tables[before], DenseDFA)
        # Splice: the starred subtree generalizes to a char class. The
        # root is structurally different, so promotion is keyed afresh.
        after = rx.concat(rx.Lit("a"), rx.star(rx.CharClass(frozenset("ab"))))
        match_after = engine.matcher(after)
        assert match_after("abab")  # rejected by the stale language
        assert not match_before("abab")  # old version still answers old
        assert engine._dense_tables[before] is not engine._dense_tables[after]
        assert engine.tier_stats.fragments_promoted == 2

    def test_table_cache_is_bounded(self):
        engine = hot_engine()
        engine.MAX_DENSE_TABLES = 4
        exprs = [rx.Lit("a" * (n + 1)) for n in range(8)]
        for expr in exprs:
            engine.matcher(expr)("a")
        assert len(engine._dense_tables) <= 4
        # Most recent versions survive the FIFO.
        assert exprs[-1] in engine._dense_tables
        assert exprs[0] not in engine._dense_tables


class TestSessionBatching:
    @settings(max_examples=50, deadline=None)
    @given(
        exprs=st.lists(regex_trees(), min_size=1, max_size=3),
        texts=st.lists(probes, min_size=1, max_size=6),
    )
    def test_covers_many_equals_serial_covers(self, exprs, texts):
        batched = MembershipSession()
        serial = MembershipSession()
        for expr in exprs:
            batched.remember(expr)
            serial.remember(expr)
        expected = [
            any(compile_regex(expr).matches(text) for expr in exprs)
            for text in texts
        ]
        assert [serial.covers(text) for text in texts] == expected
        assert batched.covers_many(texts) == expected
        # The incremental tracker gives the same verdicts regardless of
        # the order indexes are inspected in.
        tracker = batched.track_coverage(texts)
        order = list(reversed(range(len(texts))))
        assert [tracker.covered(i) for i in order] == [
            expected[i] for i in order
        ]

    def test_tracker_sees_matchers_learned_after_creation(self):
        session = MembershipSession()
        tracker = session.track_coverage(["ab", "ba"])
        assert tracker.covered(0) is False
        session.remember(rx.Lit("ab"))
        assert tracker.covered(0) is True  # lazily caught up
        assert tracker.covered(1) is False

    @settings(max_examples=50, deadline=None)
    @given(
        expr=regex_trees(),
        texts=st.lists(probes, min_size=1, max_size=8),
    )
    def test_match_many_equals_matcher_loop(self, expr, texts):
        session = MembershipSession()
        expected = [compile_regex(expr).matches(text) for text in texts]
        assert session.match_many(expr, texts) == expected
        # Memo warm now; a second batch answers identically.
        assert session.match_many(expr, texts) == expected


class TestLearningEquivalence:
    def _learn(self, jobs):
        xml = get_target("xml")
        seeds = sorted(xml.sample_seeds(2, seed=0), key=len)
        config = GladeConfig(
            alphabet=xml.alphabet,
            jobs=jobs,
            backend="thread" if jobs > 1 else "serial",
        )
        return LearningPipeline(xml.oracle, config=config).run(seeds)

    def test_grammars_identical_across_jobs(self):
        reference = self._learn(jobs=1)
        actual = self._learn(jobs=2)
        assert json.dumps(
            grammar_to_dict(actual.grammar), sort_keys=True
        ) == json.dumps(grammar_to_dict(reference.grammar), sort_keys=True)
        assert actual.oracle_queries == reference.oracle_queries
        assert actual.unique_queries == reference.unique_queries
        # Tier telemetry is recorded but never part of the compared
        # surface — and the run actually exercised the dense tier.
        assert reference.execution["matcher_tiers"]["dense_matches"] > 0
