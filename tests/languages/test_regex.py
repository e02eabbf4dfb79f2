"""Unit tests for the regex AST (construction, printing, matching)."""

import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.languages import regex as rx

from tests.reference_nfa import compile_regex
from tests.reference_walks import regex_size


class TestConstruction:
    def test_lit_requires_nonempty(self):
        with pytest.raises(ValueError):
            rx.Lit("")

    def test_literal_helper_maps_empty_to_epsilon(self):
        assert isinstance(rx.literal(""), rx.Epsilon)
        assert isinstance(rx.literal("ab"), rx.Lit)

    def test_charclass_requires_single_chars(self):
        with pytest.raises(ValueError):
            rx.CharClass({"ab"})
        with pytest.raises(ValueError):
            rx.CharClass(set())

    def test_concat_flattens_nested(self):
        inner = rx.concat(rx.Lit("a"), rx.Lit("b"))
        outer = rx.concat(inner, rx.Lit("c"))
        assert isinstance(outer, rx.Lit)  # adjacent literals fuse
        assert outer.text == "abc"

    def test_concat_drops_epsilon(self):
        result = rx.concat(rx.EPSILON, rx.Lit("x"), rx.EPSILON)
        assert result == rx.Lit("x")

    def test_concat_of_nothing_is_epsilon(self):
        assert isinstance(rx.concat(), rx.Epsilon)

    def test_concat_with_empty_set_is_empty(self):
        assert isinstance(rx.concat(rx.Lit("a"), rx.EMPTY), rx.EmptySet)

    def test_alt_deduplicates(self):
        result = rx.alt(rx.Lit("a"), rx.Lit("a"), rx.Lit("b"))
        assert isinstance(result, rx.Alt)
        assert len(result.options) == 2

    def test_alt_flattens(self):
        result = rx.alt(rx.alt(rx.Lit("a"), rx.Lit("b")), rx.Lit("c"))
        assert len(result.options) == 3

    def test_alt_single_option_collapses(self):
        assert rx.alt(rx.Lit("a")) == rx.Lit("a")

    def test_star_collapses_star_of_star(self):
        once = rx.star(rx.Lit("a"))
        assert rx.star(once) == once

    def test_star_of_epsilon_is_epsilon(self):
        assert isinstance(rx.star(rx.EPSILON), rx.Epsilon)

    def test_equality_and_hash(self):
        a1 = rx.concat(rx.Lit("a"), rx.star(rx.Lit("b")))
        a2 = rx.concat(rx.Lit("a"), rx.star(rx.Lit("b")))
        assert a1 == a2
        assert hash(a1) == hash(a2)
        assert a1 != rx.Lit("ab")


class TestNullable:
    def test_epsilon_nullable(self):
        assert rx.EPSILON.nullable()

    def test_literal_not_nullable(self):
        assert not rx.Lit("a").nullable()

    def test_star_nullable(self):
        assert rx.star(rx.Lit("a")).nullable()

    def test_concat_nullable_iff_all(self):
        assert rx.Concat(
            [rx.star(rx.Lit("a")), rx.star(rx.Lit("b"))]
        ).nullable()
        assert not rx.Concat([rx.star(rx.Lit("a")), rx.Lit("b")]).nullable()

    def test_alt_nullable_iff_any(self):
        assert rx.Alt([rx.Lit("a"), rx.EPSILON]).nullable()
        assert not rx.Alt([rx.Lit("a"), rx.Lit("b")]).nullable()


class TestMatching:
    def test_literal(self):
        assert rx.Lit("abc").matches("abc")
        assert not rx.Lit("abc").matches("ab")
        assert not rx.Lit("abc").matches("abcd")

    def test_epsilon(self):
        assert rx.EPSILON.matches("")
        assert not rx.EPSILON.matches("a")

    def test_empty_set(self):
        assert not rx.EMPTY.matches("")
        assert not rx.EMPTY.matches("a")

    def test_star(self):
        expr = rx.star(rx.Lit("ab"))
        for n in range(5):
            assert expr.matches("ab" * n)
        assert not expr.matches("aba")

    def test_alternation(self):
        expr = rx.alt(rx.Lit("cat"), rx.Lit("dog"))
        assert expr.matches("cat")
        assert expr.matches("dog")
        assert not expr.matches("cow")

    def test_char_class(self):
        expr = rx.CharClass(set("abc"))
        assert expr.matches("b")
        assert not expr.matches("d")
        assert not expr.matches("ab")

    def test_nested_structure(self):
        # (a|b)*c
        expr = rx.concat(
            rx.star(rx.alt(rx.Lit("a"), rx.Lit("b"))), rx.Lit("c")
        )
        assert expr.matches("c")
        assert expr.matches("abbac")
        assert not expr.matches("abba")

    def test_matcher_is_cached(self):
        expr = rx.star(rx.Lit("x"))
        assert expr.matches("xx")
        first = expr._matcher
        assert expr.matches("xxx")
        assert expr._matcher is first

    def test_matched_regex_pickles(self):
        # Process-backend payloads pickle regex-backed oracles. The
        # cached matcher, whose automata are keyed by the node itself,
        # stays behind and is rebuilt on first use.
        expr = rx.concat(rx.Lit("a"), rx.star(rx.CharClass(frozenset("bc"))))
        assert expr.matches("abc")
        clone = pickle.loads(pickle.dumps(expr.matches))
        assert clone.__self__ == expr
        assert clone("acb") and not clone("ba")

    def test_matches_is_thread_safe(self):
        # A regex-backed oracle (``regex_oracle``, the url target) is one
        # object shared by every worker thread on the thread backend,
        # while its cached matcher builds lazy-DFA states on first use;
        # their state-set interning is the check-then-act at risk.
        rng = random.Random(5)
        probes = [
            "".join(rng.choice("ab☃") for _ in range(rng.randrange(16)))
            for _ in range(300)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(3):
                expr = rx.concat(
                    rx.star(rx.CharClass(frozenset("ab☃"))),
                    rx.Lit("ab" * (trial + 1)),
                    rx.star(rx.CharClass(frozenset("ab☃"))),
                )
                expected = [compile_regex(expr).matches(p) for p in probes]
                with ThreadPoolExecutor(max_workers=8) as pool:
                    runs = pool.map(
                        lambda _: [expr.matches(p) for p in probes],
                        range(8),
                        timeout=60,
                    )
                    assert all(run == expected for run in runs)
        finally:
            sys.setswitchinterval(interval)


class TestAlphabetAndWalk:
    def test_alphabet(self):
        expr = rx.concat(
            rx.Lit("ab"), rx.star(rx.CharClass(set("cd")))
        )
        assert expr.alphabet() == frozenset("abcd")

    def test_walk_counts_nodes(self):
        expr = rx.concat(rx.Lit("a"), rx.star(rx.Lit("b")))
        kinds = [type(n).__name__ for n in expr.walk()]
        assert kinds.count("Lit") == 2
        assert kinds.count("Star") == 1

    def test_regex_size(self):
        expr = rx.alt(rx.Lit("a"), rx.star(rx.Lit("b")))
        assert regex_size(expr) == 4


class TestPrinting:
    def test_paper_notation(self):
        expr = rx.star(
            rx.concat(
                rx.Lit("<a>"),
                rx.star(rx.alt(rx.Lit("h"), rx.Lit("i"))),
                rx.Lit("</a>"),
            )
        )
        assert str(expr) == "(<a>(h + i)*</a>)*"

    def test_char_class_ranges(self):
        rendered = rx.format_char_class(frozenset("abcdxyz0"))
        assert "a-d" in rendered
        assert "x-z" in rendered
        assert "0" in rendered

    def test_quoting_metacharacters(self):
        assert str(rx.Lit("a*b")) == "a\\*b"

    def test_space_rendered_visibly(self):
        assert "␣" in str(rx.Lit("a b"))


class TestToPythonRe:
    def test_agreement_on_examples(self):
        import re

        cases = [
            (rx.star(rx.Lit("ab")), ["", "ab", "abab", "a", "ba"]),
            (
                rx.alt(rx.Lit("x"), rx.concat(rx.Lit("y"), rx.Lit("z"))),
                ["x", "yz", "", "xy"],
            ),
            (
                rx.concat(rx.CharClass(set("ab")), rx.star(rx.Lit("c"))),
                ["a", "bccc", "c", "ab"],
            ),
        ]
        for expr, probes in cases:
            compiled = re.compile(rx.to_python_re(expr))
            for probe in probes:
                assert bool(compiled.fullmatch(probe)) == expr.matches(
                    probe
                ), (expr, probe)
