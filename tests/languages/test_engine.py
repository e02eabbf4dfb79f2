"""Tests for the incremental membership engine.

Covers the fragment-cached compilation (`Engine`/`ComposedNFA`), the
session façade (`MembershipSession`), agreement with the test-side
Thompson reference (``tests/reference_nfa.py``) on random ASTs, and the
fragment-reuse accounting. Random probes also hold a character on no
transition label (``x``) and a non-byte character (``☃``).
"""

import random
import re

from hypothesis import given, settings, strategies as st

from repro.languages import regex as rx
from repro.languages.engine import Engine, MembershipSession
from repro.languages.sampler import sample_regex

from tests.reference_nfa import compile_regex
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


probes = st.text(alphabet=_ALPHABET + "x☃", max_size=8)


class TestComposedNFA:
    def test_literal(self):
        match = Engine().matcher(rx.Lit("abc"))
        assert match("abc")
        assert not match("ab")
        assert not match("abcd")
        assert not match("")

    def test_epsilon_and_empty(self):
        engine = Engine()
        assert engine.matcher(rx.EPSILON)("")
        assert not engine.matcher(rx.EPSILON)("a")
        assert not engine.matcher(rx.EMPTY)("")
        assert not engine.matcher(rx.EMPTY)("a")

    def test_char_class(self):
        match = Engine().matcher(rx.CharClass(frozenset("pq")))
        assert match("p")
        assert match("q")
        assert not match("r")
        assert not match("pq")

    def test_star_repeats_shared_instance(self):
        match = Engine().matcher(rx.star(rx.Lit("ab")))
        for probe in ["", "ab", "abab", "ababab"]:
            assert match(probe), probe
        for probe in ["a", "aba", "ba"]:
            assert not match(probe), probe

    def test_alt_of_equal_literal_options(self):
        # Raw Alt with structurally equal options: one shared fragment,
        # two call sites, two instances — must not conflate returns.
        expr = rx.Alt([rx.Lit("a"), rx.Lit("a")])
        match = Engine().matcher(expr)
        assert match("a")
        assert not match("aa")

    def test_shared_subtree_across_concat(self):
        # The same (x+y) fragment is called from two sites; instances
        # must not conflate, or "x-" would return through the wrong site.
        inner = rx.alt(rx.Lit("x"), rx.Lit("y"))
        expr = rx.concat(inner, rx.Lit("-"), inner)
        match = Engine().matcher(expr)
        assert match("x-y")
        assert match("y-y")
        assert not match("x-")
        assert not match("-y")
        assert not match("x-yx")

    def test_shared_starred_subtree_across_concat(self):
        inner = rx.star(rx.alt(rx.Lit("x"), rx.Lit("y")))
        expr = rx.concat(inner, rx.Lit("-"), inner)
        match = Engine().matcher(expr)
        assert match("xy-yx")
        assert match("-")
        assert match("xy-")
        assert not match("xyyx")
        assert not match("xy--yx")

    def test_nested_stars(self):
        expr = rx.star(rx.concat(rx.Lit("a"), rx.star(rx.Lit("b"))))
        match = Engine().matcher(expr)
        for probe in ["", "a", "abb", "abab", "abbba"]:
            assert match(probe), probe
        for probe in ["b", "ba"]:
            assert not match(probe), probe


class TestFragmentCache:
    def test_unchanged_subtrees_are_reused(self):
        engine = Engine()
        big = rx.concat(rx.Lit("hello"), rx.star(rx.CharClass(frozenset("ab"))))
        engine.compile(big)
        built = engine.states_built
        # A new root over the same (structurally equal) subtree only
        # builds the new spine, not the subtree again.
        engine.compile(rx.concat(rx.Lit("hello"), rx.star(rx.CharClass(frozenset("ab"))), rx.Lit("!")))
        assert engine.states_built - built < built
        assert engine.fragment_hits > 0

    def test_identical_compile_builds_nothing(self):
        engine = Engine()
        expr = rx.alt(rx.Lit("foo"), rx.star(rx.Lit("bar")))
        engine.compile(expr)
        built = engine.states_built
        engine.compile(rx.alt(rx.Lit("foo"), rx.star(rx.Lit("bar"))))
        assert engine.states_built == built


class TestMembershipSession:
    def test_versions_share_matchers(self):
        session = MembershipSession()
        first = session.matcher(rx.Lit("ab"))
        second = session.matcher(rx.Lit("ab"))
        assert first is second

    def test_matcher_memoizes_results(self):
        session = MembershipSession()
        match = session.matcher(rx.star(rx.Lit("ab")))
        assert match("abab")
        assert match("abab")  # memo hit; same result
        assert not match("aba")

    def test_remember_and_covers(self):
        session = MembershipSession()
        session.remember(rx.star(rx.Lit("a")))
        session.remember(rx.Lit("bc"))
        assert session.covers("aaa")
        assert session.covers("bc")
        assert not session.covers("ab")


@given(expr=regex_trees(), probe=probes)
@settings(max_examples=150, deadline=None)
def test_engine_agrees_with_scratch_compilation(expr, probe):
    assert Engine().matcher(expr)(probe) == compile_regex(expr).matches(probe)


@given(expr=regex_trees(), probe=probes)
@settings(max_examples=100, deadline=None)
def test_engine_agrees_with_python_re(expr, probe):
    compiled = re.compile(to_python_re(expr))
    assert Engine().matcher(expr)(probe) == bool(compiled.fullmatch(probe))


@given(expr=regex_trees(), seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_engine_accepts_sampled_members(expr, seed):
    text = sample_regex(expr, random.Random(seed))
    assert Engine().matcher(expr)(text)


@given(
    exprs=st.lists(regex_trees(), min_size=1, max_size=3),
    texts=st.lists(probes, min_size=1, max_size=6),
)
@settings(max_examples=50, deadline=None)
def test_covers_agrees_with_reference(exprs, texts):
    """The §6.1 covered-seed test: membership in any remembered language."""
    session = MembershipSession()
    for expr in exprs:
        session.remember(expr)
    expected = [
        any(compile_regex(expr).matches(text) for expr in exprs)
        for text in texts
    ]
    assert [session.covers(text) for text in texts] == expected


@given(expr=regex_trees(), texts=st.lists(probes, min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_match_many_equals_matcher_loop(expr, texts):
    session = MembershipSession()
    expected = [compile_regex(expr).matches(text) for text in texts]
    assert session.match_many(expr, texts) == expected
    # Memo warm now; a second batch answers identically.
    assert session.match_many(expr, texts) == expected


@given(expr=regex_trees(), seed=st.integers(0, 10_000), probe=probes)
@settings(max_examples=100, deadline=None)
def test_shared_engine_stays_correct_across_compilations(expr, seed, probe):
    """One engine compiling many expressions must not cross-contaminate."""
    engine = Engine()
    other = sample_regex(expr, random.Random(seed))
    match_expr = engine.matcher(expr)
    match_star = engine.matcher(rx.star(expr))
    assert match_expr(probe) == compile_regex(expr).matches(probe)
    assert match_star(other)  # one iteration of the starred language


class TestCacheOverflowFallback:
    """The ``MAX_CACHED_SETS`` overflow path (satellite of ISSUE 4).

    Past the bound, :class:`ComposedNFA` stops interning state sets and
    falls back to plain set-of-states simulation. The fallback must
    agree with the reference NFA, and the start-state ε-closure —
    recomputed per call before the fix — is paid once and cached.
    """

    #: A language with enough lazy-DFA states to overflow a tiny bound:
    #: (a|b)* ab (a|b)* forces several distinct state sets per probe.
    EXPR = rx.concat(
        rx.star(rx.CharClass(frozenset("ab"))),
        rx.Lit("ab"),
        rx.star(rx.CharClass(frozenset("ab"))),
    )

    def overflowed(self, bound):
        nfa = Engine().compile(self.EXPR)
        nfa.MAX_CACHED_SETS = bound  # instance attr shadows the class
        return nfa

    def probe_strings(self):
        rng = random.Random(7)
        fixed = ["", "a", "b", "ab", "ba", "aab", "abab", "bbbb", "abba"]
        rand = [
            "".join(rng.choice("ab") for _ in range(rng.randrange(1, 10)))
            for _ in range(60)
        ]
        return fixed + rand

    def test_full_table_agrees_with_scratch_matching(self):
        # Bound 0: nothing interns, not even the start set — every
        # match runs entirely on the slow path.
        nfa = self.overflowed(bound=0)
        reference = compile_regex(self.EXPR).matches
        for probe in self.probe_strings():
            assert nfa.matches(probe) == reference(probe), probe
        assert nfa._start_id == -2

    def test_mid_match_overflow_agrees(self):
        # A bound of a few sets makes the overflow happen *during* a
        # match (fast path first, slow path for the rest of the text).
        reference = compile_regex(self.EXPR).matches
        for bound in (1, 2, 3, 4):
            nfa = self.overflowed(bound=bound)
            for probe in self.probe_strings():
                assert nfa.matches(probe) == reference(probe), (bound, probe)

    def test_overflowed_start_closure_computed_once(self):
        nfa = self.overflowed(bound=0)
        assert nfa.matches("ab")
        assert nfa._start_id == -2
        calls = []
        original = nfa.eps_closure

        def counting_eps_closure(states):
            calls.append(states)
            return original(states)

        nfa.eps_closure = counting_eps_closure
        # Matching the empty string from overflow mode consumes no
        # characters: with the start set cached there is nothing left
        # to ε-close, so zero closure calls happen per match. (Before
        # the cache, every call re-closed the start state.)
        for _ in range(3):
            assert not nfa.matches("")
        assert calls == []


@given(expr=regex_trees(), probe=probes, bound=st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_overflow_agrees_on_random_asts(expr, probe, bound):
    nfa = Engine().compile(expr)
    nfa.MAX_CACHED_SETS = bound
    assert nfa.matches(probe) == compile_regex(expr).matches(probe)
