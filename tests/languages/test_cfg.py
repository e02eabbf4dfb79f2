"""Tests for the CFG representation and its operations."""

import pytest

from repro.languages.cfg import (
    CharSet,
    Grammar,
    Nonterminal,
    Production,
)
from repro.languages.earley import recognize

from tests.reference_grammars import grammar_union

A, B, C = Nonterminal("A"), Nonterminal("B"), Nonterminal("C")


def test_empty_literal_rejected_in_body():
    with pytest.raises(ValueError):
        Production(A, ("",))


def test_charset_requires_nonempty():
    with pytest.raises(ValueError):
        CharSet(frozenset())


def test_start_symbol_must_have_productions():
    with pytest.raises(ValueError):
        Grammar(A, [Production(B, ("b",))])


def test_productions_for():
    grammar = Grammar(
        A, [Production(A, ("a",)), Production(A, (B,)), Production(B, ())]
    )
    assert len(grammar.productions_for(A)) == 2
    assert grammar.productions_for(Nonterminal("Z")) == []


def test_alphabet_collects_chars():
    grammar = Grammar(
        A,
        [
            Production(A, ("ab", CharSet(frozenset("cd")))),
        ],
    )
    assert grammar.alphabet() == frozenset("abcd")


def test_nullable_computation():
    grammar = Grammar(
        A,
        [
            Production(A, (B, C)),
            Production(B, ()),
            Production(C, ()),
            Production(C, ("c",)),
        ],
    )
    nullable = grammar.nullable_nonterminals()
    assert nullable == frozenset({A, B, C})


def test_nullable_excludes_terminal_only():
    grammar = Grammar(A, [Production(A, ("a",))])
    assert grammar.nullable_nonterminals() == frozenset()


def test_rename_equates_nonterminals():
    # A -> 'x' B ; B -> 'y' ; C -> 'z'; equating B and C enlarges L.
    grammar = Grammar(
        A,
        [
            Production(A, ("x", B)),
            Production(B, ("y",)),
            Production(B, (C,)),
            Production(C, ("z",)),
        ],
    )
    merged = grammar.rename_nonterminals({C: B})
    assert recognize(merged, "xy")
    assert recognize(merged, "xz")
    assert Nonterminal("C") not in merged.nonterminals()


def test_rename_drops_duplicate_productions():
    grammar = Grammar(
        A, [Production(A, (B,)), Production(A, (C,)),
            Production(B, ("b",)), Production(C, ("b",))]
    )
    merged = grammar.rename_nonterminals({C: B})
    bodies = [p for p in merged.productions if p.head == A]
    assert len(bodies) == 1  # A -> B twice collapses


def test_restricted_to_reachable():
    grammar = Grammar(
        A,
        [
            Production(A, ("a",)),
            Production(B, ("b",)),  # unreachable
        ],
    )
    trimmed = grammar.restricted_to_reachable()
    assert trimmed.nonterminals() == [A]


def test_grammar_union_combines_languages():
    g1 = Grammar(A, [Production(A, ("x",))])
    g2 = Grammar(A, [Production(A, ("y",))])
    union = grammar_union([g1, g2])
    assert recognize(union, "x")
    assert recognize(union, "y")
    assert not recognize(union, "xy")


def test_grammar_union_requires_nonempty():
    with pytest.raises(ValueError):
        grammar_union([])


def test_str_rendering():
    grammar = Grammar(
        A, [Production(A, ()), Production(A, ("a", B)),
            Production(B, ("b",))]
    )
    rendered = str(grammar)
    assert rendered.splitlines()[0].startswith("A ->")
    assert "ε" in rendered
