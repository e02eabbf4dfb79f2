"""Tests for the dense transition-table tier (`repro.automata.dense`).

Property-based agreement across every representation of the same
language: the dense table must answer exactly like the engine's
composed NFA and like the test-side Thompson reference, on random regex
ASTs and random strings — including strings with characters the
byte-compressed table cannot map, where the contract is a None verdict
(caller falls back). Batch and single-string matching must agree, and
tables must survive pickling (process-backend task payloads).
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.automata.dense import DenseDFA, build_classmap, lower_automaton
from repro.languages import regex as rx
from repro.languages.engine import Engine, _lower_fragment

from tests.reference_nfa import compile_regex

_ALPHABET = "ab"


def regex_trees(max_leaves: int = 5):
    """Small regex ASTs over {a, b} (same shape as the engine tests)."""
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


#: Probes include byte-range-but-non-ASCII ('é') and non-byte ('☃')
#: characters: the first is class-0 dead, the second forces the None
#: fallback verdict.
probes = st.text(alphabet=_ALPHABET + "xé☃", max_size=8)


def lower_regex(expr, budget=512):
    """The DenseDFA for ``expr`` (None when lowering is refused)."""
    return _lower_fragment(Engine().fragment(expr), budget)


class TestBuildClassmap:
    def test_unlabeled_bytes_are_class_zero(self):
        classmap, n_classes, reps = build_classmap([frozenset("ab")])
        assert len(classmap) == 256
        assert n_classes == 2  # dead + {a, b}
        assert classmap[ord("a")] == classmap[ord("b")] == 1
        assert classmap[ord("c")] == 0
        assert reps[0] is None and reps[1] in "ab"

    def test_distinct_label_sets_get_distinct_classes(self):
        classmap, n_classes, _reps = build_classmap(
            [frozenset("ab"), frozenset("bc")]
        )
        # a: first label only; b: both; c: second only — three classes.
        assert n_classes == 4
        codes = {classmap[ord(c)] for c in "abc"}
        assert len(codes) == 3 and 0 not in codes

    def test_duplicate_labels_do_not_split(self):
        one = build_classmap([frozenset("a")])
        twice = build_classmap([frozenset("a"), frozenset("a")])
        assert one == twice

    def test_non_byte_character_refused(self):
        assert build_classmap([frozenset("a☃")]) is None

    def test_too_many_classes_refused(self):
        # 256 singleton labels -> 256 real classes + dead > MAX_CLASSES.
        labels = [frozenset(chr(point)) for point in range(256)]
        assert build_classmap(labels) is None


class TestAgreement:
    @settings(max_examples=150, deadline=None)
    @given(expr=regex_trees(), probe=probes)
    def test_dense_agrees_with_both_nfa_constructions(self, expr, probe):
        table = lower_regex(expr)
        assert table is not None
        expected = compile_regex(expr).matches(probe)
        assert Engine().compile(expr).matches(probe) == expected
        verdict = table.match(probe)
        if any(ord(char) >= 256 for char in probe):
            assert verdict is None  # fallback contract
        else:
            assert verdict == expected

    @settings(max_examples=50, deadline=None)
    @given(
        expr=regex_trees(),
        texts=st.lists(probes, min_size=0, max_size=12),
    )
    def test_match_many_agrees_with_match(self, expr, texts):
        table = lower_regex(expr)
        assert table.match_many(texts) == [
            table.match(text) for text in texts
        ]


class TestLowering:
    def test_budget_exceeded_returns_none(self):
        expr = rx.concat(
            rx.star(rx.CharClass(frozenset("ab"))), rx.Lit("aba")
        )
        assert lower_regex(expr, budget=1) is None
        assert lower_regex(expr, budget=512) is not None

    def test_non_byte_alphabet_returns_none(self):
        assert lower_regex(rx.Lit("a☃b")) is None

    def test_dead_state_is_zero_and_minimal(self):
        table = lower_regex(rx.Lit("ab"))
        # 'ab' needs start, after-a, accept, dead: exactly 4 states.
        assert table.n_states == 4
        assert not table.accepting[0]
        k = table.n_classes
        assert list(table.table[:k]) == [0] * k  # dead self-loops

    def test_lower_automaton_direct(self):
        # A two-state toggle automaton, bypassing the engine entirely.
        def step(states, char):
            return frozenset(1 - s for s in states) if char == "a" else frozenset()

        table = lower_automaton(
            frozenset({0}),
            step,
            lambda states: 0 in states,
            [frozenset("a")],
            state_budget=8,
        )
        assert isinstance(table, DenseDFA)
        assert table.match("") is True
        assert table.match("a") is False
        assert table.match("aa") is True
        assert table.match("b") is False


class TestPickle:
    @settings(max_examples=25, deadline=None)
    @given(
        expr=regex_trees(),
        texts=st.lists(probes, min_size=0, max_size=8),
    )
    def test_round_trip_preserves_verdicts(self, expr, texts):
        table = lower_regex(expr)
        clone = pickle.loads(pickle.dumps(table))
        assert clone.n_states == table.n_states
        assert clone.match_many(texts) == table.match_many(texts)
