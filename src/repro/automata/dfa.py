"""Deterministic finite automata.

Substrate for the two baseline learners of §8.2: L-Star hypothesizes
DFAs from an observation table, and RPNI merges states of a prefix-tree
acceptor. Missing transitions are an implicit dead (rejecting) state, so
partial automata over large alphabets (printable ASCII) stay small.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.languages.cfg import Grammar, Nonterminal, Production


class DFA:
    """A DFA with integer states and an implicit dead state.

    ``transitions[(state, char)]`` gives the successor; absent entries
    reject. ``start`` may be None for the empty-language automaton.
    """

    def __init__(
        self,
        alphabet: Iterable[str],
        states: Iterable[int],
        start: Optional[int],
        accepting: Iterable[int],
        transitions: Dict[Tuple[int, str], int],
    ):
        self.alphabet = frozenset(alphabet)
        self.states = frozenset(states)
        self.start = start
        self.accepting = frozenset(accepting)
        self.transitions = dict(transitions)
        if start is not None and start not in self.states:
            raise ValueError("start state not in state set")
        if not self.accepting <= self.states:
            raise ValueError("accepting states not a subset of states")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self, state: Optional[int], char: str) -> Optional[int]:
        """Advance one character; None represents the dead state."""
        if state is None:
            return None
        return self.transitions.get((state, char))

    def run(self, text: str) -> Optional[int]:
        """Run the automaton; return the final state (None if dead)."""
        state = self.start
        for char in text:
            state = self.step(state, char)
            if state is None:
                return None
        return state

    def accepts(self, text: str) -> bool:
        """Return True if the automaton accepts ``text``."""
        state = self.run(text)
        return state is not None and state in self.accepting

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------

    def num_states(self) -> int:
        return len(self.states)

    def is_empty(self) -> bool:
        """Return True if the accepted language is empty."""
        return self.find_accepted_string() is None

    def find_accepted_string(self) -> Optional[str]:
        """Return a shortest accepted string, or None if L(A) = ∅."""
        if self.start is None:
            return None
        seen = {self.start}
        queue = deque([(self.start, "")])
        while queue:
            state, prefix = queue.popleft()
            if state in self.accepting:
                return prefix
            for char in sorted(self.alphabet):
                nxt = self.step(state, char)
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, prefix + char))
        return None

    def reachable_states(self) -> Set[int]:
        if self.start is None:
            return set()
        seen = {self.start}
        queue = deque([self.start])
        while queue:
            state = queue.popleft()
            for char in self.alphabet:
                nxt = self.step(state, char)
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    def trim(self) -> "DFA":
        """Drop states that are unreachable or cannot reach acceptance."""
        reachable = self.reachable_states()
        # Co-reachable: reverse BFS from accepting states.
        reverse: Dict[int, Set[int]] = {}
        for (src, _char), dst in self.transitions.items():
            reverse.setdefault(dst, set()).add(src)
        co = set(self.accepting)
        queue = deque(co)
        while queue:
            state = queue.popleft()
            for prev in reverse.get(state, ()):
                if prev not in co:
                    co.add(prev)
                    queue.append(prev)
        useful = reachable & co
        if self.start not in useful:
            return DFA(self.alphabet, {0}, None, set(), {})
        transitions = {
            (s, c): d
            for (s, c), d in self.transitions.items()
            if s in useful and d in useful
        }
        return DFA(
            self.alphabet,
            useful,
            self.start,
            self.accepting & useful,
            transitions,
        )

    def completed(self) -> "DFA":
        """Return an equivalent DFA with a total transition function."""
        dead = max(self.states, default=-1) + 1
        states = set(self.states) | {dead}
        start = self.start if self.start is not None else dead
        transitions = dict(self.transitions)
        for state in states:
            for char in self.alphabet:
                transitions.setdefault((state, char), dead)
        return DFA(self.alphabet, states, start, self.accepting, transitions)

    def complement(self) -> "DFA":
        """Return a DFA accepting the complement language (over alphabet*)."""
        total = self.completed()
        return DFA(
            total.alphabet,
            total.states,
            total.start,
            total.states - total.accepting,
            total.transitions,
        )

    def minimize(self) -> "DFA":
        """Return the minimal equivalent DFA (Hopcroft refinement).

        Delegates to :func:`repro.automata.minimize.minimize_dfa`.
        """
        from repro.automata.minimize import minimize_dfa

        return minimize_dfa(self)

    def product(self, other: "DFA", accept_op) -> "DFA":
        """Lazy product construction over reachable state pairs.

        ``accept_op(a, b)`` decides acceptance from the two components'
        acceptance bits; pairs may include None (the dead state).
        """
        alphabet = self.alphabet | other.alphabet
        index: Dict[Tuple, int] = {}
        transitions: Dict[Tuple[int, str], int] = {}
        accepting: Set[int] = set()

        def intern(pair: Tuple) -> int:
            if pair not in index:
                index[pair] = len(index)
            return index[pair]

        start_pair = (self.start, other.start)
        start = intern(start_pair)
        queue = deque([start_pair])
        seen = {start_pair}
        while queue:
            a, b = queue.popleft()
            state = intern((a, b))
            a_ok = a is not None and a in self.accepting
            b_ok = b is not None and b in other.accepting
            if accept_op(a_ok, b_ok):
                accepting.add(state)
            for char in alphabet:
                na, nb = self.step(a, char), other.step(b, char)
                if na is None and nb is None:
                    continue
                transitions[(state, char)] = intern((na, nb))
                if (na, nb) not in seen:
                    seen.add((na, nb))
                    queue.append((na, nb))
        return DFA(alphabet, set(index.values()), start, accepting, transitions)

    def difference_witness(self, other: "DFA") -> Optional[str]:
        """Return a string on which the two automata disagree, or None.

        A None result proves language equivalence (this is the perfect
        equivalence oracle used in unit tests; the paper's experiments
        replace it with random sampling, cf. §8.2).
        """
        sym_diff = self.product(other, lambda a, b: a != b)
        return sym_diff.find_accepted_string()

    def equivalent(self, other: "DFA") -> bool:
        return self.difference_witness(other) is None

    def to_grammar(self, name_prefix: str = "Q") -> Grammar:
        """Convert to a right-linear grammar (for uniform sampling, §8.1).

        The automaton is trimmed first so every nonterminal is productive.
        An empty language raises ValueError (nothing to sample).
        """
        trimmed = self.trim()
        if trimmed.start is None:
            raise ValueError("cannot convert the empty language to a grammar")

        def nt(state: int) -> Nonterminal:
            return Nonterminal("{}{}".format(name_prefix, state))

        productions = []
        for state in sorted(trimmed.states):
            if state in trimmed.accepting:
                productions.append(Production(nt(state), ()))
            for char in sorted(trimmed.alphabet):
                nxt = trimmed.step(state, char)
                if nxt is not None:
                    productions.append(
                        Production(nt(state), (char, nt(nxt)))
                    )
        return Grammar(nt(trimmed.start), productions)
