"""The recursive sampler and list-and-copy fuzzer: the test-side reference.

The package's :class:`~repro.languages.sampler.GrammarSampler` compiles
its grammar into integer tables and samples compact tuple trees, and
:class:`~repro.fuzzing.grammar_fuzzer.GrammarFuzzer` mutates those
trees by rebuilding only the path to the replaced node. This module
keeps what they replaced, as deliberately simple constructions that
``tests/fuzzing/test_fuzzer_reference.py`` compares against:

- :class:`ReferenceSampler` samples :class:`ParseTree` objects
  recursively, looking each nonterminal's options up by name;
- :class:`ReferenceFuzzer` picks a parsed seed with ``rng.choice``, and
  each mutation lists every nonterminal node in pre-order, draws one
  with ``rng.choice`` and copies the whole tree with that node (by
  identity) swapped for a fresh sample.

Neither shares code with the package beyond the grammar and parse-tree
types and the Earley parser that turns seeds into trees. The copy
recurses once per tree level, so it is only for trees of ordinary depth.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Union

from repro.languages.cfg import (
    CharSet,
    Grammar,
    Nonterminal,
    ParseTree,
    Production,
)
from repro.languages.earley import parse


class ReferenceSampler:
    """Uniform top-down sampling with the depth and node-budget rule."""

    def __init__(
        self,
        grammar: Grammar,
        rng: random.Random,
        max_depth: int = 40,
        max_nodes: int = 4000,
    ):
        self.grammar = grammar
        self.rng = rng
        self.max_depth = max_depth
        self.max_nodes = max_nodes
        self._nodes_sampled = 0
        self._height = _derivation_heights(grammar)
        if self._height[grammar.start] is None:
            raise ValueError("grammar start symbol derives no terminal string")
        # Per nonterminal, in production order: the productive options,
        # and those of minimal height (the forced-termination choice).
        self._options: Dict[Nonterminal, List[Production]] = {}
        self._shortest: Dict[Nonterminal, List[Production]] = {}
        for head in grammar.nonterminals():
            rated = [
                (prod, self._production_height(prod))
                for prod in grammar.productions_for(head)
            ]
            rated = [(p, h) for p, h in rated if h is not None]
            if rated:
                best = min(height for _prod, height in rated)
                self._options[head] = [prod for prod, _height in rated]
                self._shortest[head] = [
                    prod for prod, height in rated if height == best
                ]

    def sample(self, symbol: Optional[Nonterminal] = None) -> str:
        return self.sample_tree(symbol).text()

    def sample_tree(self, symbol: Optional[Nonterminal] = None) -> ParseTree:
        head = symbol if symbol is not None else self.grammar.start
        self._nodes_sampled = 0
        return self._sample_nonterminal(head, 0)

    def _sample_nonterminal(self, head: Nonterminal, depth: int) -> ParseTree:
        options = self._options.get(head)
        if options is None:
            raise ValueError("nonterminal {} is unproductive".format(head))
        self._nodes_sampled += 1
        if depth >= self.max_depth or self._nodes_sampled > self.max_nodes:
            options = self._shortest[head]
        production = self.rng.choice(options)
        children: List[Union[ParseTree, str]] = []
        for sym in production.body:
            if isinstance(sym, Nonterminal):
                children.append(self._sample_nonterminal(sym, depth + 1))
            elif isinstance(sym, CharSet):
                children.append(self.rng.choice(sym.sorted_chars))
            else:
                children.append(sym)
        return ParseTree(symbol=head, production=production, children=children)

    def _production_height(self, production: Production) -> Optional[int]:
        height = 0
        for sym in production.body:
            if isinstance(sym, Nonterminal):
                sub = self._height.get(sym)
                if sub is None:
                    return None
                height = max(height, sub)
        return height + 1


def _derivation_heights(grammar: Grammar) -> Dict[Nonterminal, Optional[int]]:
    """Per nonterminal, the minimal derivation height (None: unproductive)."""
    heights: Dict[Nonterminal, Optional[int]] = {
        nt: None for nt in grammar.nonterminals()
    }
    changed = True
    while changed:
        changed = False
        for prod in grammar.productions:
            subs = [
                heights.get(sym)
                for sym in prod.body
                if isinstance(sym, Nonterminal)
            ]
            if None in subs:
                continue
            candidate = max(subs, default=0) + 1
            current = heights[prod.head]
            if current is None or candidate < current:
                heights[prod.head] = candidate
                changed = True
    return heights


class ReferenceFuzzer:
    """Seed choice, then up to ``max_mutations`` list-and-copy mutations."""

    def __init__(
        self,
        grammar: Grammar,
        seeds: Sequence[str],
        rng: random.Random,
        max_mutations: int = 50,
        max_sample_depth: int = 20,
    ):
        self.rng = rng
        self.max_mutations = max_mutations
        self.sampler = ReferenceSampler(
            grammar, rng, max_depth=max_sample_depth
        )
        self.seed_trees = [
            tree
            for tree in (parse(grammar, seed) for seed in seeds)
            if tree is not None
        ]
        if not self.seed_trees:
            raise ValueError("no seed parses under the given grammar")

    def generate(self, count: int) -> List[str]:
        return [self.generate_one() for _ in range(count)]

    def generate_one(self) -> str:
        tree = self.rng.choice(self.seed_trees)
        n_mutations = self.rng.randint(0, self.max_mutations)
        for _ in range(n_mutations):
            tree = self._mutate(tree)
        return tree.text()

    def _mutate(self, tree: ParseTree) -> ParseTree:
        target = self.rng.choice(tree.nodes())
        replacement = self.sampler.sample_tree(target.symbol)
        return _splice(tree, target, replacement)


def _splice(
    tree: ParseTree, target: ParseTree, replacement: ParseTree
) -> ParseTree:
    """Return a copy of ``tree`` with ``target`` (by identity) replaced."""
    if tree is target:
        return replacement
    children = []
    for child in tree.children:
        if isinstance(child, ParseTree):
            children.append(_splice(child, target, replacement))
        else:
            children.append(child)
    return ParseTree(
        symbol=tree.symbol, production=tree.production, children=children
    )
