"""Tests for RPNI: state merging, consistency, in-the-limit behavior."""

import time

import pytest

from repro.languages import regex as rx
from repro.learning.oracle import LearningTimeout
from repro.learning.rpni import rpni

from tests.reference_automata import regex_to_dfa


class TestCharacteristicSamples:
    def test_learns_ab_star(self):
        positives = ["", "ab", "abab", "ababab"]
        negatives = ["a", "b", "ba", "aab", "abb", "aba", "abba", "bab"]
        result = rpni(positives, negatives, "ab")
        reference = regex_to_dfa(rx.star(rx.Lit("ab")), "ab")
        assert result.dfa.equivalent(reference)

    def test_learns_even_as(self):
        # A characteristic sample: kernel prefixes {ε, a, b, aa, ab}
        # crossed with separating suffixes {ε, a}.
        positives = ["", "b", "aa", "aba", "bb", "aab"]
        negatives = ["a", "ab", "ba", "aaa", "bab", "abb"]
        result = rpni(positives, negatives, "ab")
        reference = regex_to_dfa(
            # (b | ab*a)* — even number of a's.
            rx.star(
                rx.alt(
                    rx.Lit("b"),
                    rx.concat(
                        rx.Lit("a"), rx.star(rx.Lit("b")), rx.Lit("a")
                    ),
                )
            ),
            "ab",
        )
        assert result.dfa.equivalent(reference)


class TestConsistency:
    def test_positives_always_accepted(self):
        positives = ["x", "xy", "xyy"]
        negatives = ["y", "yx"]
        result = rpni(positives, negatives, "xy")
        for text in positives:
            assert result.dfa.accepts(text)

    def test_negatives_always_rejected(self):
        positives = ["a", "aa", "aaa", "b", "ab"]
        negatives = ["ba", "bb"]
        result = rpni(positives, negatives, "ab")
        for text in negatives:
            assert not result.dfa.accepts(text)

    def test_overlapping_samples_rejected(self):
        with pytest.raises(ValueError):
            rpni(["a"], ["a"], "a")


class TestBehavior:
    def test_no_negatives_collapses_hard(self):
        # With no negatives every merge succeeds: maximal generalization.
        result = rpni(["ab", "abab"], [], "ab")
        assert result.dfa.num_states() == 1

    def test_merge_counters(self):
        result = rpni(
            ["", "ab", "abab"], ["a", "b", "ba", "aa"], "ab"
        )
        assert result.merges_accepted + result.merges_rejected > 0

    def test_deadline_raises(self):
        positives = ["ab" * n for n in range(30)]
        negatives = ["a" + "ab" * n for n in range(30)]
        with pytest.raises(LearningTimeout):
            rpni(
                positives,
                negatives,
                "ab",
                deadline=time.monotonic() - 1.0,
            )
