"""Language representations: regexes, NFAs, CFGs, parsing, and sampling.

This subpackage is the substrate every other part of the reproduction
builds on — GLADE's phase one manipulates :mod:`~repro.languages.regex`
trees, phase two produces :mod:`~repro.languages.cfg` grammars, precision
and recall are measured by sampling (:mod:`~repro.languages.sampler`) and
parsing (:mod:`~repro.languages.earley`).
"""

from repro.languages.cfg import (
    CharSet,
    Grammar,
    Nonterminal,
    ParseTree,
    Production,
    grammar_union,
)
from repro.languages.earley import parse, recognize
from repro.languages.engine import (
    ComposedNFA,
    Engine,
    Fragment,
    MembershipSession,
)
from repro.languages.regex import (
    EMPTY,
    EPSILON,
    Alt,
    CharClass,
    Concat,
    EmptySet,
    Epsilon,
    Lit,
    Regex,
    Star,
    alt,
    concat,
    literal,
    star,
    to_python_re,
)
from repro.languages.sampler import GrammarSampler, sample_regex

__all__ = [
    "Alt",
    "CharClass",
    "CharSet",
    "ComposedNFA",
    "Concat",
    "EMPTY",
    "EPSILON",
    "EmptySet",
    "Engine",
    "Epsilon",
    "Fragment",
    "Grammar",
    "GrammarSampler",
    "Lit",
    "MembershipSession",
    "Nonterminal",
    "ParseTree",
    "Production",
    "Regex",
    "Star",
    "alt",
    "concat",
    "grammar_union",
    "literal",
    "parse",
    "recognize",
    "sample_regex",
    "star",
    "to_python_re",
]
