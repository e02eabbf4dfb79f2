"""Random sampling from grammars and regexes (paper §8.1).

The paper converts a context-free grammar into a probabilistic grammar by
putting the *uniform* distribution over each nonterminal's productions,
then samples top-down. That distribution can assign non-trivial mass to
unboundedly deep derivations, so — as is standard — we bound the depth:
past ``max_depth`` the sampler restricts the choice to productions of
minimal derivation height, which forces termination while perturbing the
distribution only in the far tail.

The induced distribution is what Definition 2.1's precision and recall
are measured against, and what the grammar-based fuzzer resamples from.

:class:`GrammarSampler` compiles its grammar once into integer tables
(per nonterminal id, its options: production indexes with pre-split
bodies). One kernel samples from them into compact trees, immutable
tuples ``(size, nonterminal id, production index, children)``; only
this module reads their layout.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple, Union

from repro.determinism import resolve_rng
from repro.languages import regex as rx
from repro.languages.cfg import CharSet, Grammar, Nonterminal, ParseTree

Tree = Tuple[int, int, int, Tuple[Union["Tree", str], ...]]


class GrammarSampler:
    """Sample strings (or parse trees) from a grammar, uniformly per §8.1."""

    def __init__(
        self,
        grammar: Grammar,
        rng: Optional[random.Random] = None,
        max_depth: int = 40,
        max_nodes: int = 4000,
    ):
        self.grammar = grammar
        self.rng = resolve_rng(rng)
        self.max_depth = max_depth
        self.max_nodes = max_nodes
        height = _derivation_heights(grammar)
        if height[grammar.start] is None:
            raise ValueError(
                "grammar start symbol derives no terminal string "
                "(unproductive nonterminals: {})".format(
                    [nt for nt, h in height.items() if h is None]
                )
            )
        productive = [nt for nt, h in height.items() if h is not None]
        self._ids = {nt: index for index, nt in enumerate(productive)}
        # Per id, in production order: the productive options, and those
        # of minimal height (the forced-termination choice).
        rated: List[list] = [[] for _ in productive]
        for index, prod in enumerate(grammar.productions):
            nts = [sym for sym in prod.body if isinstance(sym, Nonterminal)]
            subs = [height.get(sym) for sym in nts]
            if None in subs:
                continue
            body = tuple(
                self._ids[sym] if isinstance(sym, Nonterminal)
                else sym.sorted_chars if isinstance(sym, CharSet) else sym
                for sym in prod.body
            )
            option = (max(subs, default=0), (index, body))
            rated[self._ids[prod.head]].append(option)
        self._table = []
        for options in rated:
            best = min(options)[0]
            shortest = [option for h, option in options if h == best]
            self._table.append(([option for _h, option in options], shortest))
        self._prod_ids = {p: i for i, p in enumerate(grammar.productions)}

    def sample(self, symbol: Optional[Nonterminal] = None) -> str:
        """Sample a random string derivable from ``symbol`` (default start)."""
        return self.text(self._sample(self._id(symbol)))

    def sample_tree(self, symbol: Optional[Nonterminal] = None) -> ParseTree:
        """Sample a random parse tree rooted at ``symbol`` (default start)."""
        return self._parse_tree(self._sample(self._id(symbol)))

    def _parse_tree(self, node: Tree) -> ParseTree:
        production = self.grammar.productions[node[2]]
        return ParseTree(production.head, production, [
            c if c.__class__ is str else self._parse_tree(c) for c in node[3]
        ])

    def compact(self, tree: ParseTree) -> Tree:
        """A parse tree's compact form. Reverse pre-order builds every
        node's children before the node, with no recursion."""
        built: Dict[int, Tree] = {}
        for node in reversed(tree.nodes()):
            built[id(node)] = (
                node.size(),
                self._ids[node.symbol],
                self._prod_ids[node.production],
                tuple(
                    child if isinstance(child, str) else built[id(child)]
                    for child in node.children
                ),
            )
        return built[id(tree)]

    def resample(self, tree: Tree, index: int) -> Tree:
        """``tree`` with its ``index``-th node in pre-order replaced by a
        fresh sample of its nonterminal. Only the path to the node is
        rebuilt; every other subtree is shared with ``tree``."""
        path = []
        node = tree
        while index:
            index -= 1
            for position, child in enumerate(node[3]):
                if child.__class__ is tuple:
                    if index < child[0]:
                        path.append((node, position))
                        node = child
                        break
                    index -= child[0]
        fresh = self._sample(node[1])
        grown = fresh[0] - node[0]
        for parent, position in reversed(path):
            children = list(parent[3])
            children[position] = fresh
            fresh = (parent[0] + grown, parent[1], parent[2], tuple(children))
        return fresh

    @staticmethod
    def size(tree: Tree) -> int:
        """The number of nonterminal nodes in a compact tree."""
        return tree[0]

    @staticmethod
    def text(tree: Tree) -> str:
        """The terminal string a compact tree derives."""
        parts = []
        stack: List[Union[Tree, str]] = [tree]
        while stack:
            node = stack.pop()
            if node.__class__ is str:
                parts.append(node)
            else:
                stack.extend(node[3][::-1])
        return "".join(parts)

    def _id(self, symbol: Optional[Nonterminal]) -> int:
        head = self.grammar.start if symbol is None else symbol
        if head not in self._ids:
            raise ValueError("nonterminal {} is unproductive".format(head))
        return self._ids[head]

    def _sample(self, head: int) -> Tree:
        """The kernel: a fresh compact tree rooted at nonterminal id
        ``head``, drawing from ``self.rng`` in pre-order."""
        choice = self.rng.choice
        table = self._table
        max_depth, max_nodes = self.max_depth, self.max_nodes
        sampled = 0

        def node(head: int, depth: int) -> Tree:
            nonlocal sampled
            sampled += 1
            options, shortest = table[head]
            if depth >= max_depth or sampled > max_nodes:
                # Force termination. The node budget bounds *width* too:
                # the uniform distribution's tree-size tail is heavy.
                options = shortest
            index, body = choice(options)
            size = 1
            children = []
            for item in body:
                if item.__class__ is int:
                    child = node(item, depth + 1)
                    size += child[0]
                    children.append(child)
                elif item.__class__ is str:
                    children.append(item)
                else:
                    children.append(choice(item))
            return size, head, index, tuple(children)

        try:
            return node(head, 0)
        finally:
            del node  # a self-referencing closure: free it without the GC


def _derivation_heights(grammar: Grammar) -> Dict[Nonterminal, Optional[int]]:
    """Return, per nonterminal, the minimal derivation-tree height.

    ``None`` marks unproductive nonterminals (no terminal derivation).
    """
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


def sample_regex(
    expr: rx.Regex,
    rng: Optional[random.Random] = None,
    star_continue: float = 0.5,
    max_reps: int = 8,
) -> str:
    """Sample a random member of a regular expression's language.

    Stars draw a geometric repetition count (continue with probability
    ``star_continue``, capped at ``max_reps``); alternations choose
    uniformly. Used to sample regular target languages (e.g. the URL
    grammar of §8.2) and to drive L-Star's sampling equivalence oracle.
    """
    rng = resolve_rng(rng)

    def go(node: rx.Regex) -> str:
        if isinstance(node, rx.Epsilon):
            return ""
        if isinstance(node, rx.EmptySet):
            raise ValueError("cannot sample from the empty language")
        if isinstance(node, rx.Lit):
            return node.text
        if isinstance(node, rx.CharClass):
            return rng.choice(node.sorted_chars)
        if isinstance(node, rx.Concat):
            return "".join(go(part) for part in node.parts)
        if isinstance(node, rx.Alt):
            return go(rng.choice(node.options))
        if isinstance(node, rx.Star):
            reps = 0
            while reps < max_reps and rng.random() < star_continue:
                reps += 1
            return "".join(go(node.inner) for _ in range(reps))
        raise TypeError("unknown regex node: {!r}".format(node))

    return go(expr)
