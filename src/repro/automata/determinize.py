"""Subset construction: regex → DFA.

One walk, :func:`bounded_subset_construction`, serves two callers: the
determinization step of the dense matching tier
(:mod:`repro.automata.dense`), which needs it over an opaque automaton
with a state budget, and :func:`regex_to_dfa`, which builds exact
reference DFAs for regular target languages — a *perfect* equivalence
oracle for L-Star in the unit tests (the paper's experiments use the
sampling approximation instead, §8.2).
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

StateSet = TypeVar("StateSet")


def bounded_subset_construction(
    start: StateSet,
    step: Callable[[StateSet, str], StateSet],
    is_accepting: Callable[[StateSet], bool],
    symbols: Sequence[str],
    max_states: Optional[int] = None,
) -> Optional[Tuple[int, Dict[Tuple[int, int], int], List[bool]]]:
    """Generic subset construction over opaque ε-closed state sets.

    ``start`` is the ε-closed start set (any hashable); ``step(current,
    symbol)`` returns the ε-closed successor set (falsy means dead);
    ``symbols`` is the ordered symbol sequence (the dense tier passes
    one representative character per equivalence class). Subset states
    are numbered in discovery order — BFS over symbols in the given
    order — so the result is deterministic given the inputs.

    Returns ``(n_states, transitions, accepting)`` with ``transitions``
    keyed by ``(state, symbol_index)`` (missing entries are dead), or
    None as soon as more than ``max_states`` subset states would be
    created — the caller's budget signal for "this region is too big to
    lower; keep the lazy tier".
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
                if max_states is not None and len(index) >= max_states:
                    return None
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
    ``expr`` — the same walk the dense tier lowers through, without a
    budget — then minimizes. ``alphabet`` defaults to the characters
    appearing in the expression; pass a larger alphabet if membership
    of other characters matters (they are rejected either way, but the
    DFA records the alphabet).
    """
    # Imported here: the engine imports this module (via the dense tier).
    from repro.languages.engine import Engine

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
