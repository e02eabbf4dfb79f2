"""Tests for subset construction (regex → DFA)."""

from repro.languages import regex as rx

from tests.reference_automata import regex_to_dfa
from tests.reference_nfa import compile_regex


def test_subset_construction_agrees_with_nfa():
    expr = rx.concat(
        rx.star(rx.alt(rx.Lit("ab"), rx.Lit("b"))), rx.Lit("a")
    )
    nfa = compile_regex(expr)
    dfa = regex_to_dfa(expr, "ab")
    for probe in ["a", "ba", "abba", "ababa", "", "b", "ab"]:
        assert dfa.accepts(probe) == nfa.matches(probe), probe


def test_regex_to_dfa_is_minimal():
    # (a|b)* needs exactly one state.
    expr = rx.star(rx.alt(rx.Lit("a"), rx.Lit("b")))
    assert regex_to_dfa(expr, "ab").num_states() == 1


def test_regex_to_dfa_xml_tags():
    expr = rx.star(
        rx.concat(rx.Lit("<a>"), rx.star(rx.Lit("x")), rx.Lit("</a>"))
    )
    dfa = regex_to_dfa(expr)
    assert dfa.accepts("<a>xx</a><a></a>")
    assert not dfa.accepts("<a>xx</a")


def test_explicit_alphabet_superset():
    expr = rx.Lit("a")
    dfa = regex_to_dfa(expr, "abc")
    assert dfa.accepts("a")
    assert not dfa.accepts("c")
    assert dfa.alphabet == frozenset("abc")
