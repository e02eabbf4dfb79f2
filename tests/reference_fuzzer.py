"""The list-and-copy grammar fuzzer: the test-side reference for mutation.

The package's :class:`~repro.fuzzing.grammar_fuzzer.GrammarFuzzer`
mutates in time proportional to the path to the replaced node: it draws
the node's pre-order index, walks down by subtree sizes and rebuilds
only that path. This module keeps the mutation it replaced, as a
deliberately simple construction — list every nonterminal node in
pre-order, draw one with ``rng.choice``, and copy the whole tree with
that node (by identity) swapped for a fresh sample — that
``tests/fuzzing/test_fuzzer_reference.py`` compares against.

The copy recurses once per tree level, so it is only for trees of
ordinary depth.
"""

from __future__ import annotations

from repro.fuzzing.grammar_fuzzer import GrammarFuzzer
from repro.languages.cfg import ParseTree


class ReferenceFuzzer(GrammarFuzzer):
    """A :class:`GrammarFuzzer` whose mutation lists and copies the tree."""

    def _mutate(self, tree: ParseTree) -> ParseTree:
        target = self.rng.choice(tree.nodes())
        replacement = self.sampler.sample_tree(target.symbol)
        if target is tree:
            return replacement
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
