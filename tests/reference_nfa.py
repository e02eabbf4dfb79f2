"""A plain Thompson NFA: the test-side reference for regex membership.

The package decides membership in a regular language through one
implementation, the membership engine (:mod:`repro.languages.engine`:
shared fragments and a lazy DFA). This module is an independent,
deliberately simple construction — one flat automaton per expression,
set-of-states simulation, no caching across expressions — that the
engine's property tests and ``benchmarks/bench_engine.py`` compare
against.
"""

from typing import Dict, FrozenSet, List, Tuple

from repro.languages import regex as rx


class NFA:
    """A nondeterministic finite automaton with ε-moves.

    States are integers. ``char_edges[state]`` lists ``(chars,
    target)`` pairs, ``chars`` being the frozenset of characters the
    edge accepts; ``eps_edges[state]`` lists ε-successors.
    """

    def __init__(self):
        self.n_states = 0
        self.start = 0
        self.accept = 0
        self.eps_edges: Dict[int, List[int]] = {}
        self.char_edges: Dict[int, List[Tuple[FrozenSet[str], int]]] = {}

    def new_state(self) -> int:
        state = self.n_states
        self.n_states += 1
        return state

    def add_eps(self, src: int, dst: int) -> None:
        self.eps_edges.setdefault(src, []).append(dst)

    def add_char(self, src: int, chars: FrozenSet[str], dst: int) -> None:
        self.char_edges.setdefault(src, []).append((chars, dst))

    def eps_closure(self, states: FrozenSet[int]) -> FrozenSet[int]:
        """Return all states reachable from ``states`` via ε-edges."""
        closure = set(states)
        stack = list(states)
        while stack:
            state = stack.pop()
            for nxt in self.eps_edges.get(state, ()):
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        return frozenset(closure)

    def step(self, states: FrozenSet[int], char: str) -> FrozenSet[int]:
        """Advance the state set over one input character."""
        moved = set()
        for state in states:
            for chars, dst in self.char_edges.get(state, ()):
                if char in chars:
                    moved.add(dst)
        return self.eps_closure(frozenset(moved))

    def matches(self, text: str) -> bool:
        """Return True if the automaton accepts ``text``."""
        current = self.eps_closure(frozenset((self.start,)))
        for char in text:
            current = self.step(current, char)
            if not current:
                return False
        return self.accept in current


def compile_regex(expr: rx.Regex) -> NFA:
    """Compile a regex AST into a Thompson NFA."""
    nfa = NFA()

    def build(node: rx.Regex) -> Tuple[int, int]:
        """Return (entry, exit) states for ``node``'s fragment."""
        if isinstance(node, rx.Epsilon):
            s, t = nfa.new_state(), nfa.new_state()
            nfa.add_eps(s, t)
            return s, t
        if isinstance(node, rx.EmptySet):
            # Two fresh states with no path between them.
            return nfa.new_state(), nfa.new_state()
        if isinstance(node, rx.Lit):
            entry = nfa.new_state()
            current = entry
            for char in node.text:
                nxt = nfa.new_state()
                nfa.add_char(current, frozenset((char,)), nxt)
                current = nxt
            return entry, current
        if isinstance(node, rx.CharClass):
            s, t = nfa.new_state(), nfa.new_state()
            nfa.add_char(s, node.chars, t)
            return s, t
        if isinstance(node, rx.Concat):
            entry, current = build(node.parts[0])
            for part in node.parts[1:]:
                nxt_entry, nxt_exit = build(part)
                nfa.add_eps(current, nxt_entry)
                current = nxt_exit
            return entry, current
        if isinstance(node, rx.Alt):
            s, t = nfa.new_state(), nfa.new_state()
            for option in node.options:
                entry, exit_ = build(option)
                nfa.add_eps(s, entry)
                nfa.add_eps(exit_, t)
            return s, t
        if isinstance(node, rx.Star):
            s, t = nfa.new_state(), nfa.new_state()
            entry, exit_ = build(node.inner)
            nfa.add_eps(s, t)
            nfa.add_eps(s, entry)
            nfa.add_eps(exit_, entry)
            nfa.add_eps(exit_, t)
            return s, t
        raise TypeError("unknown regex node: {!r}".format(node))

    nfa.start, nfa.accept = build(expr)
    return nfa
