"""GLADE's grammar-synthesis algorithm (the paper's core contribution)."""

from repro.core.chargen import generalize_characters
from repro.core.context import Context
from repro.core.glade import (
    DEFAULT_ALPHABET,
    GladeConfig,
    learn_grammar,
)
from repro.core.gtree import (
    GAlt,
    GConcat,
    GConst,
    GHole,
    GNode,
    GRoot,
    GStar,
    HoleKind,
    constants_of,
    stars_of,
)
from repro.core.phase1 import Phase1Result, synthesize_regex
from repro.core.phase2 import Phase2Result
from repro.core.translate import star_nonterminal, translate_trees

__all__ = [
    "Context",
    "DEFAULT_ALPHABET",
    "GAlt",
    "GConcat",
    "GConst",
    "GHole",
    "GNode",
    "GRoot",
    "GStar",
    "GladeConfig",
    "HoleKind",
    "Phase1Result",
    "Phase2Result",
    "constants_of",
    "generalize_characters",
    "learn_grammar",
    "star_nonterminal",
    "stars_of",
    "synthesize_regex",
    "translate_trees",
]
