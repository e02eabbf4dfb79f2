"""Property-based tests for the GLADE core.

Invariants checked against randomly generated *regular* target languages
(built from a restricted constructor set so membership is decidable by
the NFA engine):

- every seed sampled from the target stays in the learned language
  (monotonicity end-to-end);
- the learned grammar is consistent with every oracle answer it saw —
  the final language contains the seed regardless of oracle shape;
- phase one's checks never crash on adversarial oracles.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.glade import GladeConfig, learn_grammar
from repro.core.phase1 import synthesize_regex
from repro.languages import regex as rx
from repro.languages.earley import recognize
from repro.languages.sampler import sample_regex


def target_regexes():
    """Small star/alt/concat targets over {a, b} with nonempty language."""
    leaves = st.sampled_from(
        [rx.Lit("a"), rx.Lit("b"), rx.Lit("ab"), rx.Lit("ba")]
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda p: rx.concat(*p)),
            st.tuples(children, children).map(lambda p: rx.alt(*p)),
            children.map(rx.star),
        ),
        max_leaves=4,
    )


@given(target=target_regexes(), seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_learned_language_contains_seed(target, seed):
    oracle = target.matches
    sample = sample_regex(target, random.Random(seed))
    config = GladeConfig(alphabet="ab", enable_chargen=False)
    result = learn_grammar([sample], oracle, config)
    assert recognize(result.grammar, sample)


@given(
    token=st.sampled_from(["a", "ab", "aa", "abc", "abab", "aab"]),
    repeats=st.integers(1, 3),
)
@settings(max_examples=30, deadline=None)
def test_token_star_learned_exactly(token, repeats):
    """For targets (w)* phase one recovers the language *exactly*.

    The checks are decisive here: every proper decomposition of w
    produces a residual outside (w)*, so the only surviving
    generalization is the token star itself. Verified by DFA
    equivalence. (For richer targets precision is heuristic — §3's
    "potentially precision-preserving" — and NOT asserted; see
    test_learned_language_contains_seed for the guaranteed direction.)
    """
    from tests.reference_automata import equivalent, regex_to_dfa

    target = rx.star(rx.Lit(token))
    seed_input = token * repeats
    result = synthesize_regex(seed_input, target.matches)
    learned_dfa = regex_to_dfa(result.regex(), "abc")
    target_dfa = regex_to_dfa(target, "abc")
    assert equivalent(learned_dfa, target_dfa)


@given(target=target_regexes(), seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_learned_regex_stays_inside_seed_alphabet(target, seed):
    """Without chargen, phase one invents no new terminal characters."""
    sample = sample_regex(target, random.Random(seed))
    result = synthesize_regex(sample, target.matches)
    assert result.regex().alphabet() <= set(sample)


@given(
    seed_text=st.text(alphabet="abc", min_size=1, max_size=6),
    acceptance=st.integers(0, 7),
)
@settings(max_examples=60, deadline=None)
def test_adversarial_oracles_never_crash(seed_text, acceptance):
    """Phase one must terminate for arbitrary (even inconsistent)
    oracles, as long as the seed itself is accepted."""

    def oracle(text):
        if text == seed_text:
            return True
        return (len(text) * 31 + acceptance) % 3 == 0

    result = synthesize_regex(seed_text, oracle)
    assert result.regex().matches(seed_text)
