"""Differential tests: the compiled Earley parser against the reference.

``tests/reference_earley.py`` is the uncompiled parser the package used
before :mod:`repro.languages.earley` compiled grammars into tables. On
seeded random grammars over a three-letter alphabet:

- both recognizers agree on every string of length ≤ 5;
- ``parse`` returns the reference's tree on every grammar without a
  cyclic derivation ``A ⇒+ A`` (there the reference's memo of cut
  failures can mislead it, see ``test_earley.py``);
- on every grammar, each accepted string gets a valid derivation;
- a bounded enumeration of L(G) ∩ Σ^≤k that trusts neither recognizer
  matches what both of them accept.
"""

import itertools
import random
from typing import Dict, FrozenSet, List, Set

import pytest

from repro.languages.cfg import (
    CharSet,
    Grammar,
    Nonterminal,
    ParseTree,
    Production,
)
from repro.languages.earley import parse, recognize
from tests.reference_earley import (
    parse as reference_parse,
    recognize as reference_recognize,
)

ALPHABET = "abc"
NAMES = [Nonterminal(name) for name in "SABC"]


def strings_up_to(k: int) -> List[str]:
    """Every string over ``ALPHABET`` of length ≤ ``k``."""
    return [
        "".join(chars)
        for length in range(k + 1)
        for chars in itertools.product(ALPHABET, repeat=length)
    ]


def random_symbol(rng: random.Random, nonterminals: List[Nonterminal]):
    roll = rng.random()
    if roll < 0.45:
        return rng.choice(nonterminals)
    if roll < 0.7:
        return rng.choice(ALPHABET)
    if roll < 0.8:
        return "".join(rng.choice(ALPHABET) for _ in range(2))
    chars = [c for c in ALPHABET if rng.random() < 0.5]
    return CharSet(frozenset(chars or rng.choice(ALPHABET)))


def random_grammar(seed: int) -> Grammar:
    """A small random grammar: 1–4 nonterminals, bodies of 0–3 symbols.

    A non-start nonterminal may have no productions, so undefined and
    unproductive nonterminals are covered too.
    """
    rng = random.Random(seed)
    nonterminals = NAMES[: rng.randint(1, len(NAMES))]
    productions = []
    for index, head in enumerate(nonterminals):
        low = 1 if index == 0 else 0
        for _ in range(rng.randint(low, 3)):
            body = tuple(
                random_symbol(rng, nonterminals)
                for _ in range(rng.randint(0, 3))
            )
            productions.append(Production(head, body))
    rng.shuffle(productions)
    return Grammar(nonterminals[0], productions)


def has_cyclic_derivation(grammar: Grammar) -> bool:
    """Whether some nonterminal derives itself, ``A ⇒+ A``.

    ``A ⇒ α B β ⇒* B`` when α and β are nullable, so ``A ⇒+ A`` iff the
    graph of those steps has a cycle.
    """
    nullable = grammar.nullable_nonterminals()
    steps: Dict[Nonterminal, Set[Nonterminal]] = {}
    for prod in grammar.productions:
        for index, symbol in enumerate(prod.body):
            others = prod.body[:index] + prod.body[index + 1:]
            if isinstance(symbol, Nonterminal) and all(
                other in nullable for other in others
            ):
                steps.setdefault(prod.head, set()).add(symbol)
    for head in steps:
        seen: Set[Nonterminal] = set()
        frontier = list(steps[head])
        while frontier:
            node = frontier.pop()
            if node == head:
                return True
            if node not in seen:
                seen.add(node)
                frontier.extend(steps.get(node, ()))
    return False


def assert_valid_derivation(
    grammar: Grammar, tree: ParseTree, text: str
) -> None:
    """Every node's children line up with its production's body."""
    productions = set(grammar.productions)
    stack = [tree]
    while stack:
        node = stack.pop()
        assert node.production in productions
        assert node.production.head == node.symbol
        body = node.production.body
        assert len(node.children) == len(body)
        for symbol, child in zip(body, node.children):
            if isinstance(symbol, Nonterminal):
                assert isinstance(child, ParseTree)
                assert child.symbol == symbol
                stack.append(child)
            elif isinstance(symbol, CharSet):
                assert isinstance(child, str) and child in symbol.chars
            else:
                assert child == symbol
    assert tree.symbol == grammar.start
    assert tree.text() == text


def enumerate_language(grammar: Grammar, k: int) -> FrozenSet[str]:
    """L(G) ∩ Σ^≤k, by expanding derivations bottom-up.

    ``words[A]`` grows to every string of length ≤ k that a derivation
    tree rooted at ``A`` yields: each round expands every production
    over the words found so far, pruning any partial yield longer than
    ``k``, until a round adds nothing. No recognizer is involved.
    """
    words: Dict[Nonterminal, Set[str]] = {
        nt: set() for nt in grammar.nonterminals()
    }

    def yields(symbol) -> Set[str]:
        if isinstance(symbol, Nonterminal):
            return words.get(symbol, set())
        if isinstance(symbol, CharSet):
            return set(symbol.chars)
        return {symbol}

    changed = True
    while changed:
        changed = False
        for prod in grammar.productions:
            prefixes = {""}
            for symbol in prod.body:
                prefixes = {
                    prefix + word
                    for prefix in prefixes
                    for word in yields(symbol)
                    if len(prefix) + len(word) <= k
                }
            new = prefixes - words[prod.head]
            if new:
                words[prod.head] |= new
                changed = True
    return frozenset(words[grammar.start])


GRAMMAR_SEEDS = range(160)
PROBES = strings_up_to(5)


@pytest.mark.parametrize("chunk", range(4))
def test_recognizers_agree(chunk):
    for seed in GRAMMAR_SEEDS[chunk::4]:
        grammar = random_grammar(seed)
        for text in PROBES:
            assert recognize(grammar, text) == reference_recognize(
                grammar, text
            ), (seed, text, str(grammar))


@pytest.mark.parametrize("chunk", range(4))
def test_trees_match_reference_on_acyclic_grammars(chunk):
    compared = 0
    for seed in GRAMMAR_SEEDS[chunk::4]:
        grammar = random_grammar(seed)
        if has_cyclic_derivation(grammar):
            continue
        for text in PROBES:
            tree = parse(grammar, text)
            assert tree == reference_parse(grammar, text), (seed, text)
            compared += tree is not None
    assert compared > 50


@pytest.mark.parametrize("chunk", range(4))
def test_every_accepted_string_gets_a_valid_derivation(chunk):
    for seed in GRAMMAR_SEEDS[chunk::4]:
        grammar = random_grammar(seed)
        for text in PROBES:
            tree = parse(grammar, text)
            assert (tree is not None) == recognize(grammar, text)
            if tree is not None:
                assert_valid_derivation(grammar, tree, text)


def test_bounded_enumeration_matches_both_recognizers():
    k = 4
    probes = strings_up_to(k)
    nonempty = 0
    for seed in range(120):
        grammar = random_grammar(seed)
        language = enumerate_language(grammar, k)
        nonempty += bool(language)
        for text in probes:
            expected = text in language
            assert recognize(grammar, text) == expected, (seed, text)
            assert reference_recognize(grammar, text) == expected, (
                seed,
                text,
            )
    assert nonempty > 60


def test_random_grammars_cover_the_interesting_shapes():
    grammars = [random_grammar(seed) for seed in GRAMMAR_SEEDS]
    assert sum(has_cyclic_derivation(g) for g in grammars) >= 10
    assert sum(bool(g.nullable_nonterminals()) for g in grammars) >= 40
    assert any(
        isinstance(s, str) and len(s) > 1
        for g in grammars
        for p in g.productions
        for s in p.body
    )


def test_cycle_detection():
    s, a = Nonterminal("S"), Nonterminal("A")
    # A -> S A with A nullable gives A => S, but every S adds an 'x'.
    acyclic = Grammar(
        s, [Production(s, (a, "x")), Production(a, (s, a)), Production(a, ())]
    )
    assert not has_cyclic_derivation(acyclic)
    unit = Grammar(s, [Production(s, (a,)), Production(a, (s,))])
    assert has_cyclic_derivation(unit)
    # S -> S A S with A and S nullable gives S => S.
    nullable_wrapped = Grammar(
        s,
        [
            Production(s, (s, a, s)),
            Production(s, ()),
            Production(a, ("a",)),
            Production(a, ()),
        ],
    )
    assert has_cyclic_derivation(nullable_wrapped)
