"""Tests for the membership-oracle framework."""

import time

import pytest

from repro.languages.cfg import Grammar, Nonterminal, Production
from repro.languages.regex import Lit, star
from repro.learning.oracle import (
    CachingOracle,
    CountingOracle,
    DeadlineOracle,
    LearningTimeout,
    grammar_oracle,
    program_oracle,
    regex_oracle,
)


def base_oracle(text: str) -> bool:
    return text == "yes"


def test_counting_oracle_counts():
    oracle = CountingOracle(base_oracle)
    oracle("yes")
    oracle("no")
    oracle("yes")
    assert oracle.queries == 3


def test_caching_oracle_deduplicates():
    counting = CountingOracle(base_oracle)
    cached = CachingOracle(counting)
    for _ in range(5):
        assert cached("yes")
        assert not cached("no")
    assert counting.queries == 2
    assert cached.unique_queries == 2


def test_deadline_oracle_raises_after_deadline():
    oracle = DeadlineOracle(base_oracle, deadline=time.monotonic() - 1)
    with pytest.raises(LearningTimeout):
        oracle("x")


def test_deadline_oracle_passes_before_deadline():
    oracle = DeadlineOracle(base_oracle, deadline=time.monotonic() + 60)
    assert oracle("yes")


def test_grammar_oracle():
    s = Nonterminal("S")
    grammar = Grammar(s, [Production(s, ("ab",)), Production(s, ())])
    oracle = grammar_oracle(grammar)
    assert oracle("ab")
    assert oracle("")
    assert not oracle("a")


def test_regex_oracle():
    oracle = regex_oracle(star(Lit("ab")))
    assert oracle("abab")
    assert not oracle("aba")


def test_program_oracle():
    class FakeProgram:
        def accepts(self, text):
            return text.startswith("ok")

    oracle = program_oracle(FakeProgram())
    assert oracle("ok then")
    assert not oracle("nope")
