"""Tests for the regex → CFG translation (§5.1)."""

import random

import pytest

from repro.core.context import Context
from repro.core.gtree import (
    GAlt,
    GConcat,
    GConst,
    GHole,
    GRoot,
    GStar,
    HoleKind,
)
from repro.core.phase1 import synthesize_regex
from repro.core.translate import star_nonterminal, translate_trees
from repro.languages.earley import recognize
from repro.languages.sampler import GrammarSampler, sample_regex

from tests.core.helpers import xml_like_oracle


def test_holes_refuse_translation():
    root = GRoot(GHole(HoleKind.REP, "x", Context()))
    with pytest.raises(ValueError):
        translate_trees([root])


def test_star_nonterminal_naming():
    star = GStar(GConst("a", Context()), "a", Context())
    grammar = translate_trees([GRoot(star)])
    assert star_nonterminal(star.star_id) in grammar.nonterminals()


def test_star_expansion_is_left_recursive():
    star = GStar(GConst("a", Context()), "a", Context())
    grammar = translate_trees([GRoot(star)])
    head = star_nonterminal(star.star_id)
    bodies = {p.body for p in grammar.productions_for(head)}
    assert () in bodies  # ε production
    assert (head, "a") in bodies  # A' -> A' a


def test_translation_preserves_language_of_phase1_tree():
    result = synthesize_regex("<a>hi</a>", xml_like_oracle)
    expr = result.regex()
    grammar = translate_trees([result.root])
    # Sampled members of the regex are members of the grammar...
    rng = random.Random(0)
    for _ in range(100):
        text = sample_regex(expr, rng)
        assert recognize(grammar, text), text
    # ... and sampled members of the grammar match the regex.
    sampler = GrammarSampler(grammar, random.Random(1))
    for _ in range(100):
        text = sampler.sample()
        assert expr.matches(text), text


def test_multi_root_translation_is_union():
    tree_a = GRoot(GConst("aa", Context()))
    tree_b = GRoot(GConst("bb", Context()))
    grammar = translate_trees([tree_a, tree_b])
    assert recognize(grammar, "aa")
    assert recognize(grammar, "bb")
    assert not recognize(grammar, "aabb")


def test_char_classes_become_charsets():
    const = GConst("ab", Context())
    const.classes[0].update("xy")
    grammar = translate_trees([GRoot(const)])
    for text in ["ab", "xb", "yb"]:
        assert recognize(grammar, text)
    assert not recognize(grammar, "aa")


def test_empty_root_yields_epsilon_language():
    grammar = translate_trees([GRoot()])
    assert recognize(grammar, "")
    assert not recognize(grammar, "x")


def test_nested_structure():
    # (a (b + c))* as a tree.
    alt = GAlt([GConst("b", Context()), GConst("c", Context())])
    star = GStar(
        GConcat([GConst("a", Context()), alt]), "ab", Context()
    )
    grammar = translate_trees([GRoot(star)])
    for text in ["", "ab", "ac", "abac"]:
        assert recognize(grammar, text), text
    assert not recognize(grammar, "a")
