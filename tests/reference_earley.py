"""The uncompiled Earley parser: the test-side reference for parsing.

The package parses with one implementation, :mod:`repro.languages.earley`
(integer-coded tables compiled once per grammar, completion through a
per-position index of waiting items, tree reconstruction on an explicit
stack). This module is the implementation it replaced, kept as an
independent, deliberately simple construction — tuple items, completion
by scanning the origin's whole item set, recursive tree reconstruction —
that the differential tests in ``tests/languages/test_earley_reference.py``
compare against.

The implementation handles ε-productions via the Aycock–Horspool fix
(predicting a nullable nonterminal immediately advances the predicting
item) and supports multi-character literal terminals by letting the scan
step jump ``len(literal)`` positions at once.

Its tree builder memoizes failures that a cycle cut caused, so on
grammars with a cyclic derivation ``A ⇒+ A`` it can pick a different
tree than the package, or fail on a string it recognizes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.languages.cfg import (
    CharSet,
    Grammar,
    Nonterminal,
    ParseTree,
    Symbol,
)

# An Earley item: (production index, dot position, origin position).
Item = Tuple[int, int, int]


class _Chart:
    """Earley chart: one item set per input position, plus completions.

    ``completed[(head, start)]`` collects every end position at which a
    constituent ``head`` spanning from ``start`` was completed; the parse
    reconstruction walks these spans.
    """

    def __init__(self, n_positions: int):
        self.sets: List[Set[Item]] = [set() for _ in range(n_positions)]
        self.completed: Dict[Tuple[Nonterminal, int], Set[int]] = {}

    def add(self, position: int, item: Item) -> bool:
        """Add ``item`` at ``position``; return True if it is new."""
        items = self.sets[position]
        if item in items:
            return False
        items.add(item)
        return True


def _run_earley(grammar: Grammar, text: str) -> Optional[_Chart]:
    """Run the Earley recognizer; return the chart, or None on failure.

    Failure here means an early exhausted item set, in which case the
    string is definitely not in the language.
    """
    productions = grammar.productions
    prods_by_head: Dict[Nonterminal, List[int]] = {}
    for index, prod in enumerate(productions):
        prods_by_head.setdefault(prod.head, []).append(index)
    nullable = grammar.nullable_nonterminals()

    n = len(text)
    chart = _Chart(n + 1)
    worklists: List[List[Item]] = [[] for _ in range(n + 1)]

    def add(position: int, item: Item) -> None:
        if chart.add(position, item):
            worklists[position].append(item)

    for prod_index in prods_by_head.get(grammar.start, ()):
        add(0, (prod_index, 0, 0))

    for position in range(n + 1):
        worklist = worklists[position]
        while worklist:
            prod_index, dot, origin = worklist.pop()
            production = productions[prod_index]
            body = production.body
            if dot == len(body):
                # Completion: advance every item waiting on this head.
                head = production.head
                chart.completed.setdefault((head, origin), set()).add(
                    position
                )
                for w_index, w_dot, w_origin in list(chart.sets[origin]):
                    w_body = productions[w_index].body
                    if (
                        w_dot < len(w_body)
                        and w_body[w_dot] == head
                    ):
                        add(position, (w_index, w_dot + 1, w_origin))
                continue
            symbol = body[dot]
            if isinstance(symbol, Nonterminal):
                # Prediction (+ Aycock–Horspool nullable advance).
                for p_index in prods_by_head.get(symbol, ()):
                    add(position, (p_index, 0, position))
                if symbol in nullable:
                    add(position, (prod_index, dot + 1, origin))
                # If this nonterminal was already completed from here
                # (possible when items arrive after the completion), catch up.
                for end in chart.completed.get((symbol, position), ()):
                    add(end, (prod_index, dot + 1, origin))
            elif isinstance(symbol, CharSet):
                if position < n and text[position] in symbol.chars:
                    add(position + 1, (prod_index, dot + 1, origin))
            else:  # literal string
                end = position + len(symbol)
                if text.startswith(symbol, position) and end <= n:
                    add(end, (prod_index, dot + 1, origin))
    return chart


def recognize(grammar: Grammar, text: str) -> bool:
    """Return True if ``text`` is in the language of ``grammar``."""
    chart = _run_earley(grammar, text)
    if chart is None:
        return False
    ends = chart.completed.get((grammar.start, 0), ())
    return len(text) in ends


def parse(grammar: Grammar, text: str) -> Optional[ParseTree]:
    """Parse ``text``; return one parse tree, or None if not in L(grammar).

    For ambiguous grammars an arbitrary (deterministically chosen) parse
    is returned.
    """
    chart = _run_earley(grammar, text)
    if chart is None:
        return None
    ends = chart.completed.get((grammar.start, 0), ())
    if len(text) not in ends:
        return None
    builder = _TreeBuilder(grammar, text, chart)
    tree = builder.build_nonterminal(grammar.start, 0, len(text))
    if tree is None:
        raise AssertionError("recognized string failed tree reconstruction")
    return tree


class _TreeBuilder:
    """Reconstruct a parse tree from a completed Earley chart.

    Works by recursive descent over completed spans with memoized
    failures, which keeps reconstruction near-linear for the grammars we
    synthesize (their ambiguity is mild).
    """

    def __init__(self, grammar: Grammar, text: str, chart: _Chart):
        self.grammar = grammar
        self.text = text
        self.chart = chart
        self._failed: Set[Tuple[int, int, int, int]] = set()
        self._building: Set[Tuple[Nonterminal, int, int]] = set()

    def build_nonterminal(
        self, head: Nonterminal, start: int, end: int
    ) -> Optional[ParseTree]:
        ends = self.chart.completed.get((head, start), ())
        if end not in ends:
            return None
        key = (head, start, end)
        if key in self._building:
            # Cyclic derivation (e.g. A -> A via unit productions on an
            # empty span); refuse this path and let another production win.
            return None
        self._building.add(key)
        try:
            for prod_index, production in enumerate(
                self.grammar.productions
            ):
                if production.head != head:
                    continue
                children = self._build_body(
                    prod_index, production.body, 0, start, end
                )
                if children is not None:
                    return ParseTree(
                        symbol=head,
                        production=production,
                        children=children,
                    )
            return None
        finally:
            self._building.discard(key)

    def _build_body(
        self,
        prod_index: int,
        body: Tuple[Symbol, ...],
        dot: int,
        start: int,
        end: int,
    ) -> Optional[List]:
        """Try to derive ``text[start:end]`` from ``body[dot:]``."""
        key = (prod_index, dot, start, end)
        if key in self._failed:
            return None
        if dot == len(body):
            return [] if start == end else None
        symbol = body[dot]
        if isinstance(symbol, CharSet):
            if start < end and self.text[start] in symbol.chars:
                rest = self._build_body(
                    prod_index, body, dot + 1, start + 1, end
                )
                if rest is not None:
                    return [self.text[start]] + rest
        elif isinstance(symbol, str):
            mid = start + len(symbol)
            if mid <= end and self.text.startswith(symbol, start):
                rest = self._build_body(prod_index, body, dot + 1, mid, end)
                if rest is not None:
                    return [symbol] + rest
        else:  # Nonterminal
            spans = self.chart.completed.get((symbol, start), ())
            # Prefer longer spans first: learned grammars are
            # repetition-heavy and this converges faster.
            for mid in sorted((m for m in spans if m <= end), reverse=True):
                rest = self._build_body(prod_index, body, dot + 1, mid, end)
                if rest is None:
                    continue
                child = self.build_nonterminal(symbol, start, mid)
                if child is not None:
                    return [child] + rest
        self._failed.add(key)
        return None
