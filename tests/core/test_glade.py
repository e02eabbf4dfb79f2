"""End-to-end tests for the GLADE top level (Algorithm 1 + §6)."""


import pytest

from repro.artifacts.run import RunArtifact
from repro.core.glade import GladeConfig, learn_grammar
from repro.languages.earley import recognize
from repro.languages.sampler import GrammarSampler

from tests.core.helpers import XML_ALPHABET, xml_like_oracle


def test_requires_seeds():
    with pytest.raises(ValueError):
        learn_grammar([], lambda s: True)


def test_rejected_seed_raises():
    with pytest.raises(ValueError, match="rejected"):
        learn_grammar(["bad"], lambda s: s == "good")


def test_multi_seed_skip_optimization():
    """§6.1: a seed already in the learned language is skipped."""
    config = GladeConfig(alphabet="ab", enable_chargen=False)
    result = learn_grammar(
        ["ab", "abab", "ba"], lambda s: set(s) <= set("ab"), config
    )
    # "abab" is covered by the language learned from "ab".
    assert "abab" in result.seeds_skipped()
    assert "ab" in result.seeds_used()
    assert "ba" in result.seeds_used() or recognize(result.grammar, "ba")


def test_skip_optimization_can_be_disabled():
    config = GladeConfig(
        alphabet="ab", enable_chargen=False, skip_covered_seeds=False
    )
    result = learn_grammar(
        ["ab", "abab"], lambda s: set(s) <= set("ab"), config
    )
    assert result.seeds_skipped() == []
    assert len(result.seeds_used()) == 2


def test_all_seeds_in_final_language():
    seeds = ["<a>hi</a>", "xyz", "<a><a>q</a></a>"]
    config = GladeConfig(alphabet=XML_ALPHABET)
    result = learn_grammar(seeds, xml_like_oracle, config)
    for seed in seeds:
        assert recognize(result.grammar, seed), seed


def test_phase2_disabled_stays_regular():
    config = GladeConfig(
        alphabet=XML_ALPHABET, enable_phase2=False, enable_chargen=False
    )
    result = learn_grammar(["<a>hi</a>"], xml_like_oracle, config)
    assert result.phase2_result is None
    # Without merging, nesting deeper than the seed is NOT captured...
    assert not recognize(result.grammar, "<a><a><a>h</a></a></a>")
    # ...but the regular closure is.
    assert recognize(result.grammar, "<a>hh</a><a>ii</a>")


def test_chargen_disabled_keeps_constants():
    config = GladeConfig(alphabet=XML_ALPHABET, enable_chargen=False)
    result = learn_grammar(["<a>hi</a>"], xml_like_oracle, config)
    assert recognize(result.grammar, "<a>hi</a>")
    assert not recognize(result.grammar, "<a>zz</a>")


def test_statistics_populated():
    config = GladeConfig(alphabet=XML_ALPHABET)
    result = learn_grammar(["<a>hi</a>"], xml_like_oracle, config)
    assert result.oracle_queries > 0
    assert result.unique_queries <= result.oracle_queries
    assert result.duration_seconds() >= 0
    assert isinstance(result, RunArtifact)


def test_oracle_queries_count_cache_hits():
    """Regression (ISSUE 1): the counter wraps the cache, so re-derived
    duplicate checks (e.g. the ε check of every star candidate) count as
    queries while ``unique_queries`` keeps the distinct-string count.
    With the wrappers in the old order the two were equal by
    construction."""
    config = GladeConfig(alphabet=XML_ALPHABET)
    result = learn_grammar(["<a>hi</a>"], xml_like_oracle, config)
    assert result.oracle_queries > result.unique_queries


def test_combined_regex_property():
    config = GladeConfig(alphabet="ab", enable_chargen=False)
    result = learn_grammar(
        ["aa", "b"], lambda s: set(s) <= set("ab") and (
            set(s) <= {"a"} or set(s) <= {"b"}
        ), config
    )
    combined = result.regex()
    assert combined.matches("aa")
    assert combined.matches("b")


def test_precision_on_xml(rng):
    config = GladeConfig(alphabet=XML_ALPHABET)
    result = learn_grammar(["<a>hi</a>"], xml_like_oracle, config)
    sampler = GrammarSampler(result.grammar, rng)
    samples = [sampler.sample() for _ in range(200)]
    valid = sum(1 for s in samples if xml_like_oracle(s))
    assert valid == len(samples)  # the learned grammar is precise here


def test_deterministic_output():
    config = GladeConfig(alphabet=XML_ALPHABET)
    first = learn_grammar(["<a>hi</a>"], xml_like_oracle, config)
    second = learn_grammar(["<a>hi</a>"], xml_like_oracle, config)
    assert str(first.regex()) == str(second.regex())
    # Nonterminal numbering differs across runs (global star counter),
    # so compare production counts rather than names.
    assert len(first.grammar.productions) == len(
        second.grammar.productions
    )
