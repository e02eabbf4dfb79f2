"""Finite automata: DFAs, determinization, minimization, dense tables."""

from repro.automata.dense import DenseDFA, build_classmap, lower_automaton
from repro.automata.determinize import (
    bounded_subset_construction,
    regex_to_dfa,
)
from repro.automata.dfa import DFA, dfa_from_table
from repro.automata.minimize import hopcroft_blocks, minimize_dfa

__all__ = [
    "DFA",
    "DenseDFA",
    "bounded_subset_construction",
    "build_classmap",
    "dfa_from_table",
    "hopcroft_blocks",
    "lower_automaton",
    "minimize_dfa",
    "regex_to_dfa",
]
