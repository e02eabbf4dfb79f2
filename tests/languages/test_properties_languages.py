"""Property-based tests (hypothesis) for the language substrate.

Core invariants:

- random regex ASTs agree with Python's ``re`` on random probes;
- strings sampled from a regex are matched by it;
- strings sampled from a grammar are recognized by Earley;
- determinization preserves the language.
"""

import random
import re

from hypothesis import given, settings, strategies as st

from repro.languages import regex as rx
from repro.languages.cfg import Grammar, Nonterminal, Production
from repro.languages.earley import recognize
from repro.languages.sampler import GrammarSampler, sample_regex
from repro.languages.to_grammar import regex_to_grammar

from tests.reference_automata import regex_to_dfa
from tests.reference_walks import to_python_re

_ALPHABET = "ab"


def regex_trees(max_leaves: int = 5):
    """Strategy producing small regex ASTs over {a, b}."""
    leaves = st.one_of(
        st.text(alphabet=_ALPHABET, min_size=1, max_size=3).map(rx.Lit),
        st.just(rx.EPSILON),
        st.sampled_from(
            [rx.CharClass(frozenset("a")), rx.CharClass(frozenset("ab"))]
        ),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(children, children).map(
                lambda pair: rx.concat(*pair)
            ),
            st.tuples(children, children).map(lambda pair: rx.alt(*pair)),
            children.map(rx.star),
        ),
        max_leaves=max_leaves,
    )


probes = st.text(alphabet=_ALPHABET, max_size=8)


@given(expr=regex_trees(), probe=probes)
@settings(max_examples=150, deadline=None)
def test_nfa_agrees_with_python_re(expr, probe):
    compiled = re.compile(to_python_re(expr))
    assert bool(compiled.fullmatch(probe)) == expr.matches(probe)


@given(expr=regex_trees(), seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_regex_samples_match(expr, seed):
    text = sample_regex(expr, random.Random(seed))
    assert expr.matches(text)


@given(expr=regex_trees(), probe=probes)
@settings(max_examples=100, deadline=None)
def test_determinization_preserves_language(expr, probe):
    dfa = regex_to_dfa(expr, _ALPHABET)
    assert dfa.accepts(probe) == expr.matches(probe)


@given(expr=regex_trees(), probe=probes)
@settings(max_examples=100, deadline=None)
def test_regex_to_grammar_preserves_language(expr, probe):
    grammar = regex_to_grammar(expr)
    assert recognize(grammar, probe) == expr.matches(probe)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_grammar_samples_recognized(seed):
    s = Nonterminal("S")
    grammar = Grammar(
        s,
        [
            Production(s, ()),
            Production(s, ("a", s, "b")),
            Production(s, (s, s)),
        ],
    )
    sampler = GrammarSampler(
        grammar, random.Random(seed), max_depth=10, max_nodes=100
    )
    assert recognize(grammar, sampler.sample())
