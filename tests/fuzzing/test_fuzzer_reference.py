"""Differential tests: the path-copying fuzzer against the reference.

``tests/reference_fuzzer.py`` keeps the mutation the package replaced:
list every nonterminal node, draw one with ``rng.choice``, copy the
whole tree with it swapped out. The package draws the node's pre-order
index from ``range(tree.size())`` instead and rebuilds only the path to
it. Both must produce the same strings and leave the generator in the
same state, on hand-written and learned grammars alike.
"""

import random

import pytest

from repro.evaluation.harness import subject_artifact
from repro.fuzzing.grammar_fuzzer import GrammarFuzzer

from tests.fuzzing.test_grammar_fuzzer import paren_grammar
from tests.reference_fuzzer import ReferenceFuzzer


def assert_same_stream(make, count):
    for rng_seed in range(4):
        fuzzer = make(GrammarFuzzer, random.Random(rng_seed))
        reference = make(ReferenceFuzzer, random.Random(rng_seed))
        assert fuzzer.generate(count) == reference.generate(count)
        assert fuzzer.rng.getstate() == reference.rng.getstate()


def test_paren_grammar_matches_reference():
    grammar = paren_grammar()
    assert_same_stream(
        lambda cls, rng: cls(grammar, ["(())", "()()", ""], rng), 40
    )


@pytest.mark.parametrize("name", ["sed", "grep"])
def test_learned_grammar_matches_reference(name):
    artifact = subject_artifact(name)
    assert_same_stream(
        lambda cls, rng: cls.from_artifact(artifact, rng), 60
    )
