"""Differential tests: the compiled sampler and fuzzer against the reference.

``tests/reference_fuzzer.py`` keeps what the package replaced: a
recursive sampler that builds :class:`ParseTree` objects, and a fuzzer
whose mutation lists every nonterminal node, draws one with
``rng.choice`` and copies the whole tree with it swapped out. The
package samples compact trees from integer tables, draws the node's
pre-order index from ``range(size)`` and rebuilds only the path to it.
For ``GrammarSampler.sample()``, ``sample_tree()`` and
``GrammarFuzzer.generate()``, both must produce the same strings and
trees and leave the generator in the same state: on the paren grammar,
on seeded random grammars and on learned grammars, at rng seeds 0–3.
"""

import random

import pytest

from repro.evaluation.harness import subject_artifact
from repro.fuzzing.grammar_fuzzer import GrammarFuzzer
from repro.languages.sampler import GrammarSampler

from tests.fuzzing.test_grammar_fuzzer import paren_grammar
from tests.languages.test_earley_reference import random_grammar
from tests.reference_fuzzer import ReferenceFuzzer, ReferenceSampler

RNG_SEEDS = range(4)


def outcome(call):
    """``call()``'s result, or ``ValueError`` if it raised one."""
    try:
        return call()
    except ValueError:
        return ValueError


def assert_same_samples(grammar, count, **limits):
    """Strings from every nonterminal, then trees from the start symbol."""
    for rng_seed in RNG_SEEDS:
        sampler = outcome(
            lambda: GrammarSampler(grammar, random.Random(rng_seed), **limits)
        )
        reference = outcome(
            lambda: ReferenceSampler(
                grammar, random.Random(rng_seed), **limits
            )
        )
        if sampler is ValueError or reference is ValueError:
            assert sampler is reference is ValueError
            continue
        for symbol in [None] + grammar.nonterminals():
            got = [
                outcome(lambda: sampler.sample(symbol)) for _ in range(count)
            ]
            want = [
                outcome(lambda: reference.sample(symbol)) for _ in range(count)
            ]
            assert got == want
        assert [sampler.sample_tree() for _ in range(count)] == [
            reference.sample_tree() for _ in range(count)
        ]
        assert sampler.rng.getstate() == reference.rng.getstate()


def assert_same_stream(grammar, seeds, count, **limits):
    for rng_seed in RNG_SEEDS:
        fuzzer = outcome(
            lambda: GrammarFuzzer(
                grammar, seeds, random.Random(rng_seed), **limits
            )
        )
        reference = outcome(
            lambda: ReferenceFuzzer(
                grammar, seeds, random.Random(rng_seed), **limits
            )
        )
        if fuzzer is ValueError or reference is ValueError:
            assert fuzzer is reference is ValueError
            continue
        assert fuzzer.generate(count) == reference.generate(count)
        assert fuzzer.rng.getstate() == reference.rng.getstate()


def test_paren_grammar_matches_reference():
    grammar = paren_grammar()
    assert_same_samples(grammar, 30)
    assert_same_samples(grammar, 30, max_depth=3, max_nodes=6)
    assert_same_stream(grammar, ["(())", "()()", ""], 40)


@pytest.mark.parametrize("grammar_seed", range(60))
def test_random_grammar_matches_reference(grammar_seed):
    grammar = random_grammar(grammar_seed)
    assert_same_samples(grammar, 8)
    assert_same_samples(grammar, 8, max_depth=2, max_nodes=5)
    try:
        seeder = ReferenceSampler(
            grammar, random.Random(grammar_seed), max_depth=4, max_nodes=20
        )
    except ValueError:
        return  # the start symbol is unproductive: nothing to fuzz
    seeds = [seeder.sample() for _ in range(3)]
    # Each mutation may hang a fresh sample below the deepest node, and
    # the reference copies trees recursively: keep them shallow.
    assert_same_stream(
        grammar, seeds, 20, max_mutations=8, max_sample_depth=4
    )


@pytest.mark.parametrize("name", ["sed", "flex", "grep", "bison"])
def test_learned_grammar_matches_reference(name):
    artifact = subject_artifact(name)
    grammar = artifact.grammar
    assert_same_samples(grammar, 5, max_depth=25)
    assert_same_stream(
        grammar, artifact.seeds_used() + artifact.seeds_skipped(), 60
    )
