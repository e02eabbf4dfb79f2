"""Finite automata: DFAs, determinization, minimization."""

from repro.automata.determinize import (
    bounded_subset_construction,
    regex_to_dfa,
)
from repro.automata.dfa import DFA, dfa_from_table
from repro.automata.minimize import hopcroft_blocks, minimize_dfa

__all__ = [
    "DFA",
    "bounded_subset_construction",
    "dfa_from_table",
    "hopcroft_blocks",
    "minimize_dfa",
    "regex_to_dfa",
]
