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
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Union

from repro.determinism import resolve_rng
from repro.languages import regex as rx
from repro.languages.cfg import (
    CharSet,
    Grammar,
    Nonterminal,
    ParseTree,
    Production,
)


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
        self._nodes_sampled = 0
        self._height = _derivation_heights(grammar)
        unproductive = [
            nt for nt in grammar.nonterminals() if self._height[nt] is None
        ]
        if self._height[grammar.start] is None:
            raise ValueError(
                "grammar start symbol derives no terminal string "
                "(unproductive nonterminals: {})".format(unproductive)
            )
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
        """Sample a random string derivable from ``symbol`` (default start)."""
        return self.sample_tree(symbol).text()

    def sample_tree(self, symbol: Optional[Nonterminal] = None) -> ParseTree:
        """Sample a random parse tree rooted at ``symbol`` (default start)."""
        head = symbol if symbol is not None else self.grammar.start
        self._nodes_sampled = 0
        return self._sample_nonterminal(head, 0)

    def _sample_nonterminal(self, head: Nonterminal, depth: int) -> ParseTree:
        options = self._options.get(head)
        if options is None:
            raise ValueError("nonterminal {} is unproductive".format(head))
        self._nodes_sampled += 1
        if depth >= self.max_depth or self._nodes_sampled > self.max_nodes:
            # Force termination: keep only minimal-height productions.
            # The node budget bounds *width* too — merged grammars have
            # several recursive productions per nonterminal, so the
            # uniform distribution's tree-size tail is heavy (§8.1
            # sampling note in DESIGN.md).
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
            worst = 0
            feasible = True
            for sym in prod.body:
                if isinstance(sym, Nonterminal):
                    sub = heights.get(sym)
                    if sub is None:
                        feasible = False
                        break
                    worst = max(worst, sub)
            if not feasible:
                continue
            candidate = worst + 1
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
