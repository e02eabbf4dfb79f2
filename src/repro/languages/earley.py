"""Earley parsing for :class:`repro.languages.cfg.Grammar`.

Two entry points:

- :func:`recognize` — membership only (used for the recall metric and for
  deciding whether a string is in a learned grammar's language);
- :func:`parse` — build a :class:`~repro.languages.cfg.ParseTree` (used by
  the grammar-based fuzzer of §8.3, which mutates seed-input parse trees).

Each grammar is compiled once into integer-coded tables
(:class:`_Tables`, cached on the grammar object). Nonterminals are
numbered, and every (production, dot) position is one *state* that
records the kind and value of the symbol after the dot. An Earley item
is one int, ``state * (n + 1) + origin`` for an input of length ``n``,
so advancing an item over a symbol adds ``n + 1``. Each position keeps,
per nonterminal, the advanced items waiting on it: completion visits
only those items instead of the origin's whole item set. ε-productions
are handled by the Aycock–Horspool fix (predicting a nullable
nonterminal immediately advances the predicting item), multi-character
literal terminals let the scan step jump ``len(literal)`` positions at
once, and the recognizer stops as soon as no item reaches past the
current position.

The learned grammars expand stars left-recursively, which this parses
in linear time. Right recursion (``S → 'a' S | ε``) stays quadratic:
there is no Leo optimization.

:func:`parse` reconstructs one tree from the completed spans, searching
the head's productions in grammar order and each nonterminal child's
spans longest first, so the choice among ambiguous parses is
deterministic. The search runs on an explicit stack, so tree depth is
bounded by memory rather than the recursion limit. The uncompiled
implementation this replaced is kept test-side as the differential
reference (``tests/reference_earley.py``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.languages.cfg import CharSet, Grammar, Nonterminal, ParseTree

# The kind of a state's next symbol. A _DONE state has its dot at the
# end of the body; its value is the production's head.
_NONTERMINAL, _CHARSET, _LITERAL, _DONE = range(4)


class _Tables:
    """One grammar compiled for Earley parsing.

    States are numbered so that a production's dot positions are
    consecutive: advancing the dot adds one to the state. ``kind[s]``
    and ``value[s]`` describe the symbol after state ``s``'s dot: a
    nonterminal number, a character set, a literal string, or (for
    ``_DONE``) the head's number. ``production[s]`` is the index of
    the state's production in ``grammar.productions``. Per nonterminal
    number, ``starts`` lists its productions' first states in grammar
    order and ``nullable`` says whether it derives ε.
    """

    def __init__(self, grammar: Grammar):
        numbers: Dict[Nonterminal, int] = {grammar.start: 0}
        for prod in grammar.productions:
            for symbol in (prod.head,) + prod.body:
                if isinstance(symbol, Nonterminal):
                    numbers.setdefault(symbol, len(numbers))
        self.start = 0
        self.kind: List[int] = []
        self.value: List[object] = []
        self.production: List[int] = []
        self.starts: List[List[int]] = [[] for _ in numbers]
        for index, prod in enumerate(grammar.productions):
            self.starts[numbers[prod.head]].append(len(self.kind))
            for symbol in prod.body:
                if isinstance(symbol, Nonterminal):
                    self.kind.append(_NONTERMINAL)
                    self.value.append(numbers[symbol])
                elif isinstance(symbol, CharSet):
                    self.kind.append(_CHARSET)
                    self.value.append(symbol.chars)
                else:
                    self.kind.append(_LITERAL)
                    self.value.append(symbol)
            self.kind.append(_DONE)
            self.value.append(numbers[prod.head])
            self.production.extend([index] * (len(prod.body) + 1))
        nullable = grammar.nullable_nonterminals()
        self.nullable = [nt in nullable for nt in numbers]


def _tables(grammar: Grammar) -> _Tables:
    """The grammar's tables, compiled on first use and cached on it."""
    tables = grammar._earley_tables
    if tables is None:
        tables = grammar._earley_tables = _Tables(grammar)
    return tables


def _run_earley(
    tables: _Tables, text: str
) -> Optional[Dict[int, List[int]]]:
    """Run the recognizer; return the completed spans, or None on failure.

    The result maps ``head * (n + 1) + start`` to the ascending list of
    every end position at which nonterminal ``head`` was completed from
    ``start``; the tree builder walks these spans. Failure means that
    no item reached past some position before the end of ``text``, in
    which case the string is definitely not in the language.
    """
    kind, value = tables.kind, tables.value
    starts, nullable = tables.starts, tables.nullable
    n = len(text)
    n1 = n + 1
    sets: List[Optional[Set[int]]] = [None] * n1
    waiting: List[Optional[Dict[int, List[int]]]] = [None] * n1
    completed: Dict[int, List[int]] = {}
    sets[0] = {state * n1 for state in starts[tables.start]}
    furthest = 0

    for position in range(n1):
        if position > furthest:
            return None
        items = sets[position]
        if items is None:
            continue  # a literal jumped over this position
        here = waiting[position] = {}
        worklist = list(items)
        while worklist:
            item = worklist.pop()
            state = item // n1
            symbol_kind = kind[state]
            if symbol_kind == _NONTERMINAL:
                # Prediction, once per (nonterminal, position); the
                # advanced item waits here for the nonterminal.
                symbol = value[state]
                advanced = item + n1
                waiters = here.get(symbol)
                if waiters is None:
                    here[symbol] = [advanced]
                    for start_state in starts[symbol]:
                        new = start_state * n1 + position
                        if new not in items:
                            items.add(new)
                            worklist.append(new)
                else:
                    waiters.append(advanced)
                # Aycock–Horspool nullable advance. It is also the
                # catch-up for items that arrive after ``symbol`` was
                # completed at this position: a completion from here to
                # here means ``symbol`` derives ε.
                if nullable[symbol] and advanced not in items:
                    items.add(advanced)
                    worklist.append(advanced)
            elif symbol_kind == _DONE:
                # Completion: advance only the items waiting on the head.
                origin = item - state * n1
                head = value[state]
                key = head * n1 + origin
                ends = completed.get(key)
                if ends is None:
                    completed[key] = [position]
                elif ends[-1] != position:
                    ends.append(position)
                for advanced in waiting[origin].get(head, ()):
                    if advanced not in items:
                        items.add(advanced)
                        worklist.append(advanced)
            elif symbol_kind == _CHARSET:
                if position < n and text[position] in value[state]:
                    _add(sets, position + 1, item + n1)
                    if position >= furthest:
                        furthest = position + 1
            elif text.startswith(value[state], position):
                end = position + len(value[state])
                _add(sets, end, item + n1)
                if end > furthest:
                    furthest = end
    return completed


def _add(sets: List[Optional[Set[int]]], position: int, item: int) -> None:
    items = sets[position]
    if items is None:
        sets[position] = {item}
    else:
        items.add(item)


def _root_spans(
    tables: _Tables, text: str
) -> Optional[Dict[int, List[int]]]:
    """The completed spans if the start symbol derives all of ``text``."""
    completed = _run_earley(tables, text)
    if completed is None:
        return None
    ends = completed.get(tables.start * (len(text) + 1))
    if not ends or ends[-1] != len(text):
        return None
    return completed


def recognize(grammar: Grammar, text: str) -> bool:
    """Return True if ``text`` is in the language of ``grammar``."""
    return _root_spans(_tables(grammar), text) is not None


def parse(grammar: Grammar, text: str) -> Optional[ParseTree]:
    """Parse ``text``; return one parse tree, or None if not in L(grammar).

    For ambiguous grammars an arbitrary (deterministically chosen) parse
    is returned.
    """
    tables = _tables(grammar)
    completed = _root_spans(tables, text)
    if completed is None:
        return None
    builder = _TreeBuilder(grammar, tables, text, completed)
    tree = builder.build(tables.start, 0, len(text))
    if tree is None:
        raise AssertionError("recognized string failed tree reconstruction")
    return tree


# A search frame: a generator that yields the frames of its sub-searches
# and receives their results, returning its own.
_Frame = Iterator


class _TreeBuilder:
    """Reconstruct a parse tree from the completed spans of a recognition.

    A depth-first search over completed spans: the head's productions in
    grammar order, each nonterminal child's spans longest first (learned
    grammars are repetition-heavy, and this converges faster), the body
    derived right to left. A (head, start, end) already on the search
    path is a cyclic derivation (e.g. ``A -> A`` via unit productions on
    an empty span) and is cut. Failed (state, start, end) searches are
    memoized, but only when no cut happened beneath them: a cut depends
    on the path that led to it, so a failure it caused does not hold in
    another context.

    The search's frames are generators run by :meth:`build` on an
    explicit stack, so a tree as deep as the input is long needs no
    recursion.
    """

    def __init__(
        self,
        grammar: Grammar,
        tables: _Tables,
        text: str,
        completed: Dict[int, List[int]],
    ):
        self.productions = grammar.productions
        self.tables = tables
        self.text = text
        self.completed = completed
        self.n1 = len(text) + 1
        self._failed: Set[Tuple[int, int, int]] = set()
        self._building: Set[Tuple[int, int, int]] = set()
        self._cuts = 0

    def build(self, head: int, start: int, end: int) -> Optional[ParseTree]:
        """Derive ``text[start:end]`` from nonterminal number ``head``."""
        stack: List[_Frame] = [self._nonterminal(head, start, end)]
        result = None
        while stack:
            try:
                call = stack[-1].send(result)
            except StopIteration as returned:
                stack.pop()
                result = returned.value
            else:
                stack.append(call)
                result = None
        return result

    def _nonterminal(self, head: int, start: int, end: int) -> _Frame:
        key = (head, start, end)
        if key in self._building:
            self._cuts += 1
            return None
        self._building.add(key)
        for state in self.tables.starts[head]:
            children = yield self._body(state, start, end)
            if children is not None:
                self._building.discard(key)
                production = self.productions[self.tables.production[state]]
                return ParseTree(
                    symbol=production.head,
                    production=production,
                    children=children,
                )
        self._building.discard(key)
        return None

    def _body(self, state: int, start: int, end: int) -> _Frame:
        """Derive ``text[start:end]`` from the body after ``state``'s dot."""
        kind = self.tables.kind[state]
        if kind == _DONE:
            return [] if start == end else None
        key = (state, start, end)
        if key in self._failed:
            return None
        cuts = self._cuts
        symbol = self.tables.value[state]
        if kind == _CHARSET:
            if start < end and self.text[start] in symbol:
                rest = yield self._body(state + 1, start + 1, end)
                if rest is not None:
                    return [self.text[start]] + rest
        elif kind == _LITERAL:
            mid = start + len(symbol)
            if mid <= end and self.text.startswith(symbol, start):
                rest = yield self._body(state + 1, mid, end)
                if rest is not None:
                    return [symbol] + rest
        else:
            spans = self.completed.get(symbol * self.n1 + start, ())
            for index in range(bisect_right(spans, end) - 1, -1, -1):
                mid = spans[index]
                rest = yield self._body(state + 1, mid, end)
                if rest is None:
                    continue
                child = yield self._nonterminal(symbol, start, mid)
                if child is not None:
                    return [child] + rest
        if self._cuts == cuts:
            self._failed.add(key)
        return None
