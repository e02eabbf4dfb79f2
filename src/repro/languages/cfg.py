"""Context-free grammar representation.

Grammars synthesized by GLADE, the handwritten target grammars of §8.2,
and the grammar-based fuzzer of §8.3 all share this representation.

A production body is a tuple of symbols; a symbol is one of:

- :class:`Nonterminal` — a named nonterminal;
- ``str`` — a nonempty literal terminal string (matched verbatim);
- :class:`CharSet` — a terminal matching any single character in a set
  (the ``[...]`` character classes produced by character generalization).

Multi-character literals keep synthesized grammars small and readable;
the Earley parser and the sampler both understand them natively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple, Union


@dataclass(frozen=True)
class Nonterminal:
    """A grammar nonterminal, identified by name."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class CharSet:
    """A terminal symbol matching any one character from ``chars``.

    ``sorted_chars`` is precomputed (it is not a comparison field) so
    the sampler's per-draw character choice need not re-sort the set.
    """

    chars: FrozenSet[str]
    sorted_chars: Tuple[str, ...] = field(
        init=False, compare=False, repr=False, default=()
    )

    def __post_init__(self):
        if not self.chars:
            raise ValueError("CharSet requires at least one character")
        object.__setattr__(self, "sorted_chars", tuple(sorted(self.chars)))

    def __str__(self) -> str:
        from repro.languages.regex import format_char_class

        if len(self.chars) == 1:
            return _render_literal(next(iter(self.chars)))
        return format_char_class(self.chars)


Symbol = Union[Nonterminal, str, CharSet]


@dataclass(frozen=True)
class Production:
    """A production ``head -> body``; an empty body derives ε."""

    head: Nonterminal
    body: Tuple[Symbol, ...]

    def __post_init__(self):
        for symbol in self.body:
            if isinstance(symbol, str) and not symbol:
                raise ValueError("empty literal in production body; omit it")

    def __str__(self) -> str:
        if not self.body:
            return "{} -> ε".format(self.head)
        rendered = " ".join(_render_symbol(s) for s in self.body)
        return "{} -> {}".format(self.head, rendered)


class Grammar:
    """A context-free grammar: a start symbol plus a production list.

    A grammar is immutable once built: no code mutates ``productions``
    after construction, and every transformation (renaming, restriction,
    union) returns a new grammar. The Earley parser relies on this. It
    compiles a grammar into integer tables on first use and caches them
    on the instance (``_earley_tables``), so they cannot go stale.
    """

    def __init__(self, start: Nonterminal, productions: Iterable[Production]):
        self.start = start
        self.productions: List[Production] = list(productions)
        self._earley_tables = None
        self._by_head: Dict[Nonterminal, List[Production]] = {}
        for prod in self.productions:
            self._by_head.setdefault(prod.head, []).append(prod)
        if start not in self._by_head:
            raise ValueError(
                "start symbol {} has no productions".format(start)
            )

    def productions_for(self, head: Nonterminal) -> List[Production]:
        """Return the productions whose head is ``head`` (possibly empty)."""
        return self._by_head.get(head, [])

    def nonterminals(self) -> List[Nonterminal]:
        """Return all nonterminals with at least one production."""
        return list(self._by_head)

    def alphabet(self) -> FrozenSet[str]:
        """Return the terminal characters appearing anywhere in the grammar."""
        chars = set()
        for prod in self.productions:
            for symbol in prod.body:
                if isinstance(symbol, str):
                    chars.update(symbol)
                elif isinstance(symbol, CharSet):
                    chars.update(symbol.chars)
        return frozenset(chars)

    def nullable_nonterminals(self) -> FrozenSet[Nonterminal]:
        """Return the nonterminals that can derive the empty string."""
        nullable = set()
        changed = True
        while changed:
            changed = False
            for prod in self.productions:
                if prod.head in nullable:
                    continue
                if all(
                    isinstance(s, Nonterminal) and s in nullable
                    for s in prod.body
                ):
                    nullable.add(prod.head)
                    changed = True
        return frozenset(nullable)

    def rename_nonterminals(
        self, mapping: Mapping[Nonterminal, Nonterminal]
    ) -> "Grammar":
        """Return a copy with nonterminals renamed per ``mapping``.

        Renaming several nonterminals to the same target *equates* them —
        this is exactly the merge operation of phase two (§5.2).
        Duplicate productions created by the merge are dropped.
        """

        def rename(symbol: Symbol) -> Symbol:
            if isinstance(symbol, Nonterminal):
                return mapping.get(symbol, symbol)
            return symbol

        seen = set()
        productions = []
        for prod in self.productions:
            renamed = Production(
                head=rename(prod.head),
                body=tuple(rename(s) for s in prod.body),
            )
            if renamed not in seen:
                seen.add(renamed)
                productions.append(renamed)
        return Grammar(rename(self.start), productions)

    def restricted_to_reachable(self) -> "Grammar":
        """Return a copy with productions unreachable from the start removed."""
        reachable = {self.start}
        worklist = [self.start]
        while worklist:
            head = worklist.pop()
            for prod in self._by_head.get(head, ()):
                for symbol in prod.body:
                    if isinstance(symbol, Nonterminal) and symbol not in reachable:
                        reachable.add(symbol)
                        worklist.append(symbol)
        productions = [p for p in self.productions if p.head in reachable]
        return Grammar(self.start, productions)

    def __str__(self) -> str:
        lines = []
        heads = [self.start] + [
            h for h in self._by_head if h != self.start
        ]
        for head in heads:
            bodies = []
            for prod in self._by_head[head]:
                if not prod.body:
                    bodies.append("ε")
                else:
                    bodies.append(
                        " ".join(_render_symbol(s) for s in prod.body)
                    )
            lines.append("{} -> {}".format(head, " | ".join(bodies)))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "Grammar(start={}, productions={})".format(
            self.start, len(self.productions)
        )


def _render_literal(text: str) -> str:
    out = []
    for c in text:
        if c == " ":
            out.append("␣")
        elif c == "\n":
            out.append("\\n")
        elif c == "\t":
            out.append("\\t")
        else:
            out.append(c)
    return "".join(out)


def _render_symbol(symbol: Symbol) -> str:
    if isinstance(symbol, Nonterminal):
        return symbol.name
    if isinstance(symbol, CharSet):
        return str(symbol)
    return "'" + _render_literal(symbol) + "'"


@dataclass
class ParseTree:
    """A parse tree over a :class:`Grammar`.

    Children are either nested :class:`ParseTree` nodes (for nonterminal
    symbols) or plain strings (for terminals, with a CharSet symbol
    contributing the single character that was matched or sampled).

    A tree is immutable once built: every builder (the Earley parser,
    the sampler's ``sample_tree``) constructs the children first,
    and no code changes ``children`` afterwards, so trees may share
    subtrees. Construction counts the nonterminal nodes from the
    children's counts, so :meth:`size` is O(1).
    """

    symbol: Nonterminal
    production: Production
    children: List[Union["ParseTree", str]] = field(default_factory=list)
    _size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = 1
        for child in self.children:
            if isinstance(child, ParseTree):
                size += child._size
        self._size = size

    # text() and nodes() walk the tree on an explicit stack: a tree can
    # be as deep as its text is long.

    def text(self) -> str:
        """Return the terminal string this tree derives."""
        parts = []
        stack: List[Union[ParseTree, str]] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
            else:
                stack.extend(node.children[::-1])
        return "".join(parts)

    def nodes(self) -> List["ParseTree"]:
        """Return all nonterminal nodes in the tree, pre-order."""
        out = [self]
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                if isinstance(child, ParseTree):
                    out.append(child)
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()
        return out

    def size(self) -> int:
        """Return the number of nonterminal nodes in the tree."""
        return self._size

    # Equality and repr replace the dataclass-generated ones, which
    # recurse once per tree level.

    def __eq__(self, other: object) -> bool:
        """Same symbol, production and children, compared node by node
        on an explicit stack."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            left, right = stack.pop()
            if left is right:
                continue
            if (
                left.symbol != right.symbol
                or left.production != right.production
                or len(left.children) != len(right.children)
            ):
                return False
            for a, b in zip(left.children, right.children):
                if isinstance(a, ParseTree) and isinstance(b, ParseTree):
                    stack.append((a, b))
                elif a != b:
                    return False
        return True

    def __repr__(self) -> str:
        return "ParseTree({}, {} children, size {})".format(
            self.production, len(self.children), self._size
        )
