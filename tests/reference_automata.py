"""Exact DFA construction: the test-side reference for regular languages.

The package learns DFAs (L-Star, RPNI) but never needs an exact DFA
for a known language. The unit tests do: an exact reference DFA is a
*perfect* equivalence oracle for L-Star, where its exact-learning
guarantee must hold (the paper's experiments use the sampling
approximation instead, §8.2), and a language to compare learned
regexes, RPNI's output and the precision metric against.

:func:`regex_to_dfa` determinizes the membership engine's composed
automaton with :func:`bounded_subset_construction` and minimizes the
result; :func:`dfa_from_table` builds a DFA from a transition table.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.automata.dfa import DFA
from repro.languages import regex as rx
from repro.languages.engine import Engine

StateSet = TypeVar("StateSet")


def bounded_subset_construction(
    start: StateSet,
    step: Callable[[StateSet, str], StateSet],
    is_accepting: Callable[[StateSet], bool],
    symbols: Sequence[str],
) -> Tuple[int, Dict[Tuple[int, int], int], List[bool]]:
    """Generic subset construction over opaque ε-closed state sets.

    ``start`` is the ε-closed start set (any hashable); ``step(current,
    symbol)`` returns the ε-closed successor set (falsy means dead);
    ``symbols`` is the ordered symbol sequence. Subset states are
    numbered in discovery order — BFS over symbols in the given order —
    so the result is deterministic given the inputs.

    Returns ``(n_states, transitions, accepting)`` with ``transitions``
    keyed by ``(state, symbol_index)`` (missing entries are dead).
    """
    index: Dict[StateSet, int] = {start: 0}
    transitions: Dict[Tuple[int, int], int] = {}
    accepting: List[bool] = [bool(is_accepting(start))]
    queue = deque([start])
    while queue:
        current = queue.popleft()
        state = index[current]
        for sym_index, symbol in enumerate(symbols):
            moved = step(current, symbol)
            if not moved:
                continue
            target = index.get(moved)
            if target is None:
                target = len(index)
                index[moved] = target
                accepting.append(bool(is_accepting(moved)))
                queue.append(moved)
            transitions[(state, sym_index)] = target
    return len(index), transitions, accepting


def regex_to_dfa(
    expr: rx.Regex, alphabet: Optional[Iterable[str]] = None
) -> DFA:
    """Compile a regex to a minimal DFA.

    Determinizes the membership engine's composed automaton for
    ``expr``, then minimizes. ``alphabet`` defaults to the characters
    appearing in the expression; pass a larger alphabet if membership
    of other characters matters (they are rejected either way, but the
    DFA records the alphabet).
    """
    chars = frozenset(alphabet) if alphabet is not None else expr.alphabet()
    symbols = sorted(chars)
    nfa = Engine().compile(expr)
    exit_state = (0, nfa.root.exit)
    n_states, moves, accepting = bounded_subset_construction(
        nfa.eps_closure(frozenset(((0, nfa.root.entry),))),
        nfa.step,
        lambda states: exit_state in states,
        symbols,
    )
    transitions = {
        (state, symbols[sym_index]): target
        for (state, sym_index), target in moves.items()
    }
    final = [state for state in range(n_states) if accepting[state]]
    return DFA(chars, range(n_states), 0, final, transitions).minimize()


def dfa_from_table(
    alphabet: Iterable[str],
    table: Dict[int, Dict[str, int]],
    start: int,
    accepting: Iterable[int],
) -> DFA:
    """Convenience constructor from ``{state: {char: next_state}}``."""
    transitions = {
        (state, char): dst
        for state, row in table.items()
        for char, dst in row.items()
    }
    states = set(table) | {d for d in transitions.values()}
    return DFA(alphabet, states, start, accepting, transitions)


class PerfectEquivalenceOracle:
    """Exact equivalence against a reference DFA: L-Star's equivalence
    query answered with a shortest counterexample, or None."""

    def __init__(self, reference: DFA):
        self.reference = reference

    def __call__(self, hypothesis: DFA) -> Optional[str]:
        return self.reference.difference_witness(hypothesis)
