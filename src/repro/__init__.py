"""GLADE reproduction: synthesizing program input grammars (PLDI 2017).

Public API
----------

The canonical workflow mirrors the paper's Figure 1 example::

    from repro import learn_grammar, GrammarSampler

    def oracle(text: str) -> bool:      # blackbox program access
        return my_program_accepts(text)

    result = learn_grammar(["<a>hi</a>"], oracle)
    print(result.grammar)               # synthesized CFG
    sampler = GrammarSampler(result.grammar)
    print(sampler.sample())             # random valid-ish input

For fuzzing (§8.3), combine the learned grammar with
:class:`repro.fuzzing.GrammarFuzzer`.
"""

from repro.artifacts import (
    FileCheckpointStore,
    MemoryCheckpointStore,
    NullCheckpointStore,
    RunArtifact,
    SCHEMA_VERSION,
    load_artifact,
    save_artifact,
)
from repro.core.glade import (
    DEFAULT_ALPHABET,
    GladeConfig,
    learn_grammar,
)
from repro.core.pipeline import LearningPipeline, SeedRejected
from repro.languages.cfg import (
    CharSet,
    Grammar,
    Nonterminal,
    ParseTree,
    Production,
)
from repro.languages.earley import parse, recognize
from repro.languages.engine import Engine, MembershipSession
from repro.languages.sampler import GrammarSampler, sample_regex
from repro.learning.oracle import (
    CachingOracle,
    CountingOracle,
    Oracle,
    SubprocessOracle,
    grammar_oracle,
    program_oracle,
    regex_oracle,
)

__version__ = "1.0.0"

__all__ = [
    "CachingOracle",
    "CharSet",
    "CountingOracle",
    "DEFAULT_ALPHABET",
    "Engine",
    "FileCheckpointStore",
    "GladeConfig",
    "Grammar",
    "GrammarSampler",
    "LearningPipeline",
    "MembershipSession",
    "MemoryCheckpointStore",
    "Nonterminal",
    "NullCheckpointStore",
    "RunArtifact",
    "SCHEMA_VERSION",
    "SeedRejected",
    "Oracle",
    "ParseTree",
    "Production",
    "SubprocessOracle",
    "grammar_oracle",
    "learn_grammar",
    "load_artifact",
    "parse",
    "program_oracle",
    "recognize",
    "regex_oracle",
    "sample_regex",
    "save_artifact",
    "__version__",
]
