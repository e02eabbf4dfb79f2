"""Tests for phase two: repetition-subexpression merging (§5)."""

import random

import pytest

from repro.core.context import Context
from repro.core.glade import GladeConfig, learn_grammar
from repro.core.gtree import GConcat, GConst, GRoot, GStar
from repro.core.translate import translate_trees
from repro.languages.earley import recognize
from repro.languages.sampler import GrammarSampler

from tests.reference_phase2 import merge_checks, merge_repetitions


def _two_star_tree():
    """A tree shaped like  (x)* '-' (y)*  with distinct contexts."""
    star_x = GStar(GConst("x", Context("", "-y")), "x", Context("", "-y"))
    star_y = GStar(GConst("y", Context("x-", "")), "y", Context("x-", ""))
    root = GRoot(GConcat([star_x, GConst("-", Context()), star_y]))
    return root, star_x, star_y


def _merges(result):
    """Merges a phase-2 run made: each equates two stars not yet
    equated, so it is the count of stars that are not their own
    representative."""
    return sum(1 for i, rep in result.representative.items() if i != rep)


def test_merge_accepted_when_oracle_allows():
    root, star_x, star_y = _two_star_tree()
    grammar = translate_trees([root])
    result = merge_repetitions(grammar, [star_x, star_y], lambda s: True)
    assert result.representative == {
        star_x.star_id: star_x.star_id,
        star_y.star_id: star_x.star_id,
    }
    # After merging, y may appear where only x could, and vice versa.
    assert recognize(result.grammar, "y-x")


def test_merge_rejected_when_oracle_refuses():
    root, star_x, star_y = _two_star_tree()
    grammar = translate_trees([root])
    result = merge_repetitions(grammar, [star_x, star_y], lambda s: False)
    assert _merges(result) == 0
    assert not recognize(result.grammar, "y-x")
    assert recognize(result.grammar, "xx-yy")


def test_merge_checks_are_doubled_residual_in_context():
    root, star_x, star_y = _two_star_tree()
    grammar = translate_trees([root])
    queries = []

    def oracle(text):
        queries.append(text)
        return False

    merge_repetitions(grammar, [star_x, star_y], oracle)
    # §5.3: residual is the doubled repetition string of the *other* star,
    # wrapped in this star's context.
    assert "yy-y" in queries  # ρ' = yy in star_x's context (ε, -y)
    # The second check short-circuits only if the first passes; with an
    # always-False oracle we see exactly one check per pair.
    assert len(queries) == 1


def test_both_checks_required():
    root, star_x, star_y = _two_star_tree()
    grammar = translate_trees([root])

    def oracle(text):
        return text == "yy-y"  # only the first check passes

    result = merge_repetitions(grammar, [star_x, star_y], oracle)
    assert _merges(result) == 0


def test_transitive_merges_skip_redundant_pairs():
    stars = []
    parts = []
    for name in ["a", "b", "c"]:
        star = GStar(GConst(name, Context()), name, Context())
        stars.append(star)
        parts.append(star)
    root = GRoot(GConcat(parts))
    grammar = translate_trees([root])
    queries = []

    def oracle(text):
        queries.append(text)
        return True

    result = merge_repetitions(grammar, stars, oracle)
    # (a,b) merges, (a,c) merges; (b,c) is skipped as already equal.
    assert _merges(result) == 2
    assert set(result.representative.values()) == {stars[0].star_id}
    # Only the two merged pairs asked their checks; (b,c) asked none.
    from repro.core.phase2 import plan_merges

    pairs = plan_merges(stars).pairs
    assert len(queries) == len(pairs[0].checks) + len(pairs[1].checks)


def test_merge_monotonicity():
    """Equating nonterminals can only enlarge the language (§5.2)."""
    root, star_x, star_y = _two_star_tree()
    grammar = translate_trees([root])
    merged = merge_repetitions(
        grammar, [star_x, star_y], lambda s: True
    ).grammar
    sampler = GrammarSampler(grammar, random.Random(0))
    for _ in range(100):
        text = sampler.sample()
        assert recognize(merged, text), text


def test_matching_parentheses_learned():
    """Definition 5.2 / Proposition 5.3: a generalized matching
    parentheses language is recovered by merging."""

    def oracle(text):
        # S -> ( '[' S ']' | 'c' )*
        def parse(i):
            while i < len(text):
                if text[i] == "c":
                    i += 1
                elif text[i] == "[":
                    inner = parse(i + 1)
                    if inner is None or inner >= len(text) or \
                            text[inner] != "]":
                        return None
                    i = inner + 1
                else:
                    return i
            return i

        return parse(0) == len(text)

    config = GladeConfig(alphabet="[]c", enable_chargen=False)
    result = learn_grammar(["[cc]"], oracle, config)
    # Nested brackets beyond the seed's depth require the merge.
    for text in ["", "cc", "[[c]]", "[c][c]", "[[[c]]]c"]:
        assert recognize(result.grammar, text), text
    for text in ["[", "]", "[c", "c]c]"]:
        assert not recognize(result.grammar, text), text


def _star_row(names):
    """Sibling stars with explicit ids for run-to-run comparability."""
    stars = [
        GStar(
            GConst(name, Context("<{}>".format(i), "</{}>".format(i))),
            name,
            Context("<{}>".format(i), "</{}>".format(i)),
            star_id=500 + i,
        )
        for i, name in enumerate(names)
    ]
    root = GRoot(GConcat(list(stars)))
    return translate_trees([root]), stars


class TestMergePlan:
    def test_plan_checks_match_lazy_merge_checks(self):
        # The planner's precomputed residuals must reproduce the
        # historical per-pair sampling byte for byte (residual_seed
        # semantics: rep string ⊕ merge-order index).
        from repro.core.phase2 import plan_merges, residual_seed

        _grammar, stars = _star_row(["ab", "cd", "ef"])
        plan = plan_merges(stars)
        ids = sorted(s.star_id for s in stars)
        by_id = {s.star_id: s for s in stars}
        seed_of = {
            star_id: residual_seed(by_id[star_id], position)
            for position, star_id in enumerate(ids)
        }
        expected = []
        for position, i in enumerate(ids):
            for j in ids[position + 1:]:
                expected.append(
                    merge_checks(
                        by_id[i], by_id[j],
                        seed_i=seed_of[i], seed_j=seed_of[j],
                    )
                )
        assert [pair.checks for pair in plan.pairs] == expected

    def test_residuals_sampled_once_per_star(self, monkeypatch):
        # The satellite fix: residual sampling is hoisted out of the
        # pair loop — one sampling call per star, not one per partner.
        import repro.core.phase2 as phase2

        calls = []
        original = phase2._star_residuals

        def counting(star, n_samples, rng_seed=None):
            calls.append(star.star_id)
            return original(star, n_samples, rng_seed)

        monkeypatch.setattr(phase2, "_star_residuals", counting)
        grammar, stars = _star_row(["ab", "cd", "ef", "gh"])
        merge_repetitions(grammar, stars, lambda s: True)
        assert sorted(calls) == sorted(s.star_id for s in stars)


class TestMergeCommitter:
    def setup_plan(self, oracle=None):
        from repro.core.phase2 import MergeCommitter, plan_merges

        grammar, stars = _star_row(["ab", "ab", "ab"])
        plan = plan_merges(stars)
        return grammar, plan, MergeCommitter(plan)

    def test_commit_serial_merges_then_skips_for_free(self):
        from repro.core.phase2 import PAIR_MERGED, PAIR_SKIPPED
        from repro.learning.oracle import CountingOracle

        _grammar, plan, committer = self.setup_plan()
        counting = CountingOracle(lambda text: True)
        events = []
        while not committer.done:
            before = counting.queries
            events.append((committer.commit_serial(counting), before))
        assert committer.decisions == [
            PAIR_MERGED, PAIR_MERGED, PAIR_SKIPPED,
        ]
        # Pair (1,2) is transitively equated by its turn: it commits as
        # skipped, asks nothing and books no speculative cost.
        skipped, before = events[-1]
        assert not skipped.evaluated and skipped.discarded == 0
        assert counting.queries == before
        assert counting.queries == sum(
            len(pair.checks) for pair in plan.pairs[:2]
        )

    def test_short_circuit_counts_prefix_only(self):
        from repro.core.phase2 import PAIR_REJECTED
        from repro.learning.oracle import CountingOracle

        _grammar, plan, committer = self.setup_plan()
        second = plan.pairs[0].checks[1]
        counting = CountingOracle(lambda text: text != second)
        event = committer.commit_serial(counting)
        assert event.decision == PAIR_REJECTED
        assert counting.queries == 2

    def test_replay_reproduces_state_and_decisions(self):
        from repro.core.phase2 import MergeCommitter, plan_merges
        from repro.learning.oracle import CountingOracle

        grammar, stars = _star_row(["ab", "cd", "ab", "cd"])
        plan = plan_merges(stars)
        reference = MergeCommitter(plan)
        # Merge only equal-name stars: a check mixing both names fails.
        counting = CountingOracle(
            lambda text: not ("ab" in text and "cd" in text)
        )
        while not reference.done:
            reference.commit_serial(counting)
        assert "merged" in reference.decisions
        assert "rejected" in reference.decisions

        replayed = MergeCommitter(plan)
        replayed.replay(reference.decisions)
        assert replayed.decisions == reference.decisions
        expected, restored = reference.finish(grammar), replayed.finish(grammar)
        assert restored.representative == expected.representative
        assert str(restored.grammar) == str(expected.grammar)

    def test_replay_rejects_malformed_progress(self):
        import pytest

        _grammar, plan, committer = self.setup_plan()
        with pytest.raises(ValueError, match="decisions"):
            committer.replay(["merged"] * (plan.n_pairs + 1))
        with pytest.raises(ValueError, match="unknown phase-2 decision"):
            committer.replay(["bogus"])
