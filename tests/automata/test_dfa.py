"""Tests for the DFA substrate: execution, products, minimization."""

import pytest

from repro.automata.dfa import DFA
from repro.languages.earley import recognize
from repro.languages.sampler import GrammarSampler

from tests.reference_automata import (
    complement,
    dfa_from_table,
    difference_witness,
    equivalent,
    product,
)


def even_as() -> DFA:
    """Even number of 'a's over {a, b}."""
    return dfa_from_table(
        "ab",
        {
            0: {"a": 1, "b": 0},
            1: {"a": 0, "b": 1},
        },
        start=0,
        accepting=[0],
    )


def ab_star() -> DFA:
    """(ab)* over {a, b} (partial transitions: missing edges reject)."""
    return dfa_from_table(
        "ab",
        {0: {"a": 1}, 1: {"b": 0}},
        start=0,
        accepting=[0],
    )


class TestExecution:
    def test_accepts(self):
        dfa = even_as()
        assert dfa.accepts("")
        assert dfa.accepts("aa")
        assert dfa.accepts("baba")
        assert dfa.accepts("aba")  # two a's: even
        assert not dfa.accepts("a")
        assert not dfa.accepts("aaa")
        assert not dfa.accepts("ba")

    def test_partial_transitions_reject(self):
        dfa = ab_star()
        assert dfa.accepts("abab")
        assert not dfa.accepts("ba")
        assert not dfa.accepts("abx")  # off-alphabet char: dead


class TestStructuralOps:
    def test_find_accepted_string_shortest(self):
        assert ab_star().find_accepted_string() == ""
        only_ab = dfa_from_table(
            "ab", {0: {"a": 1}, 1: {"b": 2}}, 0, [2]
        )
        assert only_ab.find_accepted_string() == "ab"

    def test_is_empty(self):
        empty = DFA("ab", {0}, 0, set(), {})
        assert empty.is_empty()
        assert not ab_star().is_empty()

    def test_complement(self):
        dfa = even_as()
        complemented = complement(dfa)
        for probe in ["", "a", "ab", "aab", "baba"]:
            assert complemented.accepts(probe) == (not dfa.accepts(probe))

    def test_trim_removes_dead_states(self):
        dfa = dfa_from_table(
            "ab",
            {0: {"a": 1, "b": 2}, 1: {}, 2: {"a": 2}},
            start=0,
            accepting=[1],
        )
        trimmed = dfa.trim()
        assert trimmed.num_states() == 2  # state 2 cannot reach accept

    def test_trim_empty_language(self):
        dfa = dfa_from_table("ab", {0: {"a": 1}, 1: {}}, 0, [])
        trimmed = dfa.trim()
        assert trimmed.is_empty()

    def test_minimize_collapses_equivalent_states(self):
        # Two redundant accepting states reachable on a and on b.
        dfa = dfa_from_table(
            "ab",
            {0: {"a": 1, "b": 2}, 1: {}, 2: {}},
            start=0,
            accepting=[1, 2],
        )
        assert dfa.minimize().num_states() == 2

    def test_minimize_preserves_language(self):
        dfa = even_as()
        minimal = dfa.minimize()
        for probe in ["", "a", "aa", "ab", "bb", "abab", "aaa"]:
            assert minimal.accepts(probe) == dfa.accepts(probe)

    def test_product_intersection(self):
        even = even_as()
        starts_a = dfa_from_table(
            "ab", {0: {"a": 1}, 1: {"a": 1, "b": 1}}, 0, [1]
        )
        both = product(even, starts_a, lambda x, y: x and y)
        assert both.accepts("aa")
        assert both.accepts("aba")
        assert not both.accepts("a")  # odd count
        assert not both.accepts("bb")  # does not start with a


class TestEquivalence:
    def test_equivalent_after_minimize(self):
        dfa = even_as()
        assert equivalent(dfa, dfa.minimize())

    def test_difference_witness_found(self):
        witness = difference_witness(even_as(), ab_star())
        assert witness is not None
        assert even_as().accepts(witness) != ab_star().accepts(witness)

    def test_no_witness_for_same_language(self):
        assert difference_witness(ab_star(), ab_star()) is None


class TestToGrammar:
    def test_sampling_grammar_agrees(self):
        dfa = ab_star()
        grammar = dfa.to_grammar()
        sampler = GrammarSampler(grammar)
        for _ in range(50):
            assert dfa.accepts(sampler.sample())

    def test_grammar_membership_agrees(self):
        dfa = even_as()
        grammar = dfa.to_grammar()
        for probe in ["", "a", "aa", "abab", "baa"]:
            assert recognize(grammar, probe) == dfa.accepts(probe)

    def test_empty_language_raises(self):
        empty = DFA("ab", {0}, 0, set(), {})
        with pytest.raises(ValueError):
            empty.to_grammar()


class TestValidation:
    def test_bad_start_state(self):
        with pytest.raises(ValueError):
            DFA("ab", {0}, 5, set(), {})

    def test_bad_accepting_state(self):
        with pytest.raises(ValueError):
            DFA("ab", {0}, 0, {3}, {})
