"""Earley parser tests: classic grammars, ε-handling, parse trees."""

import pytest

from repro.languages import earley
from repro.languages.cfg import (
    CharSet,
    Grammar,
    Nonterminal,
    ParseTree,
    Production,
)
from repro.languages.earley import parse, recognize
from tests.reference_earley import parse as reference_parse


def balanced_parens() -> Grammar:
    s = Nonterminal("S")
    return Grammar(
        s,
        [
            Production(s, ()),
            Production(s, ("(", s, ")", s)),
        ],
    )


def arithmetic() -> Grammar:
    e, t, f = Nonterminal("E"), Nonterminal("T"), Nonterminal("F")
    digit = CharSet(frozenset("0123456789"))
    return Grammar(
        e,
        [
            Production(e, (e, "+", t)),
            Production(e, (t,)),
            Production(t, (t, "*", f)),
            Production(t, (f,)),
            Production(f, ("(", e, ")")),
            Production(f, (digit,)),
        ],
    )


class TestRecognize:
    def test_balanced_parens_accepts(self):
        grammar = balanced_parens()
        for text in ["", "()", "(())", "()()", "(()())()"]:
            assert recognize(grammar, text), text

    def test_balanced_parens_rejects(self):
        grammar = balanced_parens()
        for text in ["(", ")", ")(", "(()", "())", "x"]:
            assert not recognize(grammar, text), text

    def test_left_recursive_arithmetic(self):
        grammar = arithmetic()
        for text in ["1", "1+2", "1+2*3", "(1+2)*3", "((1))"]:
            assert recognize(grammar, text), text
        for text in ["", "+", "1+", "1**2", "(1+2", "ab"]:
            assert not recognize(grammar, text), text

    def test_multichar_literal_scanning(self):
        s = Nonterminal("S")
        grammar = Grammar(
            s, [Production(s, ("<a>", s, "</a>")), Production(s, ("hi",))]
        )
        assert recognize(grammar, "<a><a>hi</a></a>")
        assert not recognize(grammar, "<a>hi</a")
        assert not recognize(grammar, "<a><a>hi</a>")

    def test_epsilon_heavy_grammar(self):
        # S -> A A A ; A -> ε | a  (nullable completions everywhere)
        s, a = Nonterminal("S"), Nonterminal("A")
        grammar = Grammar(
            s,
            [
                Production(s, (a, a, a)),
                Production(a, ()),
                Production(a, ("a",)),
            ],
        )
        for text in ["", "a", "aa", "aaa"]:
            assert recognize(grammar, text), text
        assert not recognize(grammar, "aaaa")

    def test_unit_production_cycle(self):
        # A -> B -> A plus a terminal escape; must not loop.
        a, b = Nonterminal("A"), Nonterminal("B")
        grammar = Grammar(
            a,
            [
                Production(a, (b,)),
                Production(b, (a,)),
                Production(a, ("x",)),
            ],
        )
        assert recognize(grammar, "x")
        assert not recognize(grammar, "")
        assert not recognize(grammar, "xx")

    def test_charset_symbols(self):
        s = Nonterminal("S")
        vowels = CharSet(frozenset("aeiou"))
        grammar = Grammar(
            s, [Production(s, ()), Production(s, (vowels, s))]
        )
        assert recognize(grammar, "aeea")
        assert not recognize(grammar, "xyz")


class TestParse:
    def test_tree_text_roundtrip(self):
        grammar = arithmetic()
        for text in ["1", "1+2*3", "(1+2)*(3+4)"]:
            tree = parse(grammar, text)
            assert tree is not None
            assert tree.text() == text

    def test_parse_returns_none_on_reject(self):
        assert parse(balanced_parens(), "(((") is None

    def test_tree_structure(self):
        grammar = balanced_parens()
        tree = parse(grammar, "(())")
        assert tree is not None
        assert tree.symbol == Nonterminal("S")
        # Root used the recursive production.
        assert len(tree.production.body) == 4

    def test_tree_nodes_and_size(self):
        grammar = balanced_parens()
        tree = parse(grammar, "()()")
        nodes = tree.nodes()
        assert all(n.symbol == Nonterminal("S") for n in nodes)
        assert tree.size() == len(nodes)

    def test_ambiguous_grammar_still_parses(self):
        # S -> S S | a  is ambiguous for "aaa"; any parse is acceptable.
        s = Nonterminal("S")
        grammar = Grammar(
            s, [Production(s, (s, s)), Production(s, ("a",))]
        )
        tree = parse(grammar, "aaa")
        assert tree is not None
        assert tree.text() == "aaa"

    def test_nullable_tree(self):
        grammar = balanced_parens()
        tree = parse(grammar, "")
        assert tree is not None
        assert tree.text() == ""


class TestAgainstRegexEngine:
    def test_right_linear_grammar_matches_star(self):
        # S -> ε | 'ab' S   should equal (ab)*.
        from repro.languages.regex import Lit, star

        s = Nonterminal("S")
        grammar = Grammar(
            s, [Production(s, ()), Production(s, ("ab", s))]
        )
        expr = star(Lit("ab"))
        for probe in ["", "ab", "abab", "aba", "ba", "ababab"]:
            assert recognize(grammar, probe) == expr.matches(probe), probe


def left_recursive() -> Grammar:
    # The shape learned grammars give a star: S -> S 'a' | ε.
    s = Nonterminal("S")
    return Grammar(s, [Production(s, (s, "a")), Production(s, ())])


def preorder(tree: ParseTree) -> list:
    out = [tree]
    for child in tree.children:
        if isinstance(child, ParseTree):
            out.extend(preorder(child))
    return out


class TestCompiledTables:
    def test_tables_are_built_once_per_grammar(self):
        grammar = arithmetic()
        assert grammar._earley_tables is None
        assert recognize(grammar, "1+2")
        tables = grammar._earley_tables
        assert tables is not None
        parse(grammar, "1*2")
        assert grammar._earley_tables is tables

    def test_renamed_grammar_compiles_its_own_tables(self):
        grammar = balanced_parens()
        assert recognize(grammar, "()")
        renamed = grammar.rename_nonterminals(
            {Nonterminal("S"): Nonterminal("T")}
        )
        assert renamed._earley_tables is None
        assert recognize(renamed, "(())")

    def test_stops_once_no_item_reaches_past_a_position(self):
        tables = earley._tables(left_recursive())
        assert earley._run_earley(tables, "b" + "a" * 50) is None
        # A literal may jump over a position that holds no item.
        s = Nonterminal("S")
        jump = earley._tables(Grammar(s, [Production(s, ("abc", "d"))]))
        assert earley._run_earley(jump, "abcd") is not None
        assert earley._run_earley(jump, "abcx") is None


class TestCyclicDerivations:
    def test_cut_failure_is_not_reused_in_another_context(self):
        # S -> S X S | ε; X -> 'a' | ε: "a" is recognized, and the
        # reference builder memoizes a failure that a cycle cut caused,
        # then fails reconstruction.
        s, x = Nonterminal("S"), Nonterminal("X")
        grammar = Grammar(
            s,
            [
                Production(s, (s, x, s)),
                Production(s, ()),
                Production(x, ("a",)),
                Production(x, ()),
            ],
        )
        assert recognize(grammar, "a")
        with pytest.raises(AssertionError, match="tree reconstruction"):
            reference_parse(grammar, "a")
        tree = parse(grammar, "a")
        assert tree is not None
        assert tree.text() == "a"

    def test_unit_cycle_parses(self):
        a, b = Nonterminal("A"), Nonterminal("B")
        grammar = Grammar(
            a,
            [
                Production(a, (b,)),
                Production(b, (a,)),
                Production(a, ("x",)),
            ],
        )
        tree = parse(grammar, "x")
        assert tree is not None
        assert tree.text() == "x"


class TestLongInputs:
    def test_left_recursion_at_10k_chars(self):
        grammar = left_recursive()
        text = "a" * 10_000
        assert recognize(grammar, text)
        assert not recognize(grammar, text + "b")
        tree = parse(grammar, text)
        assert tree.text() == text
        nodes = tree.nodes()
        assert len(nodes) == 10_001
        assert nodes[0] is tree
        assert nodes[1] is tree.children[0]

    def test_deep_tree_equality_and_repr(self):
        # Both run without recursion: the dataclass defaults took one
        # frame per tree level and raised RecursionError at 5,000
        # characters.
        s = Nonterminal("S")
        grammar = Grammar(
            s,
            [
                Production(s, (s, "a")),
                Production(s, (s, "b")),
                Production(s, ()),
            ],
        )
        text = "a" * 10_000
        tree = parse(grammar, text)
        same = parse(grammar, text)
        assert tree is not same
        assert tree == same
        assert not tree != same
        # Differs only at the deepest terminal, 10,000 levels down.
        deep = parse(grammar, "b" + text[1:])
        assert tree != deep
        assert tree != parse(grammar, text[1:])
        assert tree != text
        assert len(repr(tree)) < 100
        assert "10001" in repr(tree)

    def test_right_recursion_at_1500_chars(self):
        # Quadratic (no Leo optimization), but no RecursionError.
        s = Nonterminal("S")
        grammar = Grammar(s, [Production(s, ("a", s)), Production(s, ())])
        text = "a" * 1_500
        tree = parse(grammar, text)
        assert tree.text() == text
        assert tree.size() == 1_501

    def test_nodes_are_preorder(self):
        tree = parse(arithmetic(), "(1+2)*3+4*(5)")
        assert tree.nodes() == preorder(tree)
        assert [id(n) for n in tree.nodes()] == [
            id(n) for n in preorder(tree)
        ]


class TestScaling:
    """Work counted at n and 2n characters, not time: per character it
    stays flat on the left-recursive shape learned grammars use."""

    @staticmethod
    def items_processed(make_grammar, text, monkeypatch):
        """Earley items the recognizer processes: each reads its state's
        kind once."""
        grammar = make_grammar()
        reads = [0]

        class CountingKinds(list):
            def __getitem__(self, state):
                reads[0] += 1
                return list.__getitem__(self, state)

        tables = earley._tables(grammar)
        monkeypatch.setattr(tables, "kind", CountingKinds(tables.kind))
        assert recognize(grammar, text)
        return reads[0]

    def test_left_recursion_items_per_character_stay_flat(self, monkeypatch):
        n = 2_000
        small = self.items_processed(left_recursive, "a" * n, monkeypatch)
        large = self.items_processed(
            left_recursive, "a" * (2 * n), monkeypatch
        )
        assert small / n < 10
        assert large / (2 * n) <= 1.01 * small / n
