"""Tests for L-Star: exact learning with a perfect equivalence oracle,
approximate learning with the §8.2 sampling oracle."""

import random

import pytest

from repro.languages import regex as rx
from repro.languages.sampler import sample_regex
from repro.learning.lstar import SamplingEquivalenceOracle, lstar

from tests.reference_automata import (
    PerfectEquivalenceOracle,
    equivalent,
    regex_to_dfa,
)


def exact_learn(expr, alphabet):
    reference = regex_to_dfa(expr, alphabet)
    result = lstar(
        reference.accepts, PerfectEquivalenceOracle(reference), alphabet
    )
    return reference, result


class TestExactLearning:
    @pytest.mark.parametrize(
        "expr,alphabet",
        [
            (rx.star(rx.Lit("ab")), "ab"),
            (rx.concat(rx.star(rx.Lit("a")), rx.star(rx.Lit("b"))), "ab"),
            (rx.alt(rx.Lit("x"), rx.Lit("yy")), "xy"),
            (rx.star(rx.alt(rx.Lit("a"), rx.Lit("bb"))), "ab"),
            (rx.EPSILON, "ab"),
        ],
    )
    def test_learns_exactly(self, expr, alphabet):
        reference, result = exact_learn(expr, alphabet)
        assert equivalent(result.dfa, reference)

    def test_learned_dfa_is_minimal(self):
        reference, result = exact_learn(rx.star(rx.Lit("ab")), "ab")
        assert result.dfa.num_states() == reference.minimize().num_states()

    def test_counterexample_rounds_bounded(self):
        _, result = exact_learn(rx.star(rx.Lit("abc")), "abc")
        # Angluin's bound: at most n equivalence queries for n states.
        assert result.equivalence_rounds <= 6


class TestSamplingOracle:
    def test_accepts_after_n_samples_without_disagreement(self):
        target = regex_to_dfa(rx.star(rx.Lit("a")), "a")
        oracle = SamplingEquivalenceOracle(
            target.accepts, "a", n_samples=10, rng=random.Random(0)
        )
        assert oracle(target) is None

    def test_seeds_checked_first(self):
        target = regex_to_dfa(rx.Lit("abc"), "abc")
        wrong = regex_to_dfa(rx.Lit("a"), "abc")
        oracle = SamplingEquivalenceOracle(
            target.accepts, "abc", seeds=["abc"], rng=random.Random(0)
        )
        assert oracle(wrong) == "abc"

    def test_positive_sampler_finds_counterexamples(self):
        expr = rx.star(rx.Lit("ab"))
        target = regex_to_dfa(expr, "ab")
        empty_language = regex_to_dfa(rx.EMPTY, "ab")
        rng = random.Random(1)
        oracle = SamplingEquivalenceOracle(
            target.accepts,
            "ab",
            positive_sampler=lambda: sample_regex(expr, rng),
            rng=rng,
        )
        counterexample = oracle(empty_language)
        assert counterexample is not None
        assert target.accepts(counterexample)

    def test_end_to_end_with_sampling(self):
        expr = rx.star(rx.alt(rx.Lit("a"), rx.Lit("b")))
        target = regex_to_dfa(expr, "ab")
        rng = random.Random(3)
        oracle = SamplingEquivalenceOracle(
            target.accepts,
            "ab",
            positive_sampler=lambda: sample_regex(expr, rng),
            n_samples=50,
            rng=rng,
        )
        result = lstar(target.accepts, oracle, "ab")
        # Σ* is a one-state language; sampling finds it reliably.
        assert equivalent(result.dfa, target)
