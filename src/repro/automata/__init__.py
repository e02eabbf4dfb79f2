"""Finite automata: DFAs and minimization."""

from repro.automata.dfa import DFA
from repro.automata.minimize import hopcroft_blocks, minimize_dfa

__all__ = [
    "DFA",
    "hopcroft_blocks",
    "minimize_dfa",
]
