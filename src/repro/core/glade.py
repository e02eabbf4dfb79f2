"""GLADE's top level: Algorithm 1 plus the extensions of §6.

:func:`learn_grammar` is the convenience entry point of this
reproduction. It takes seed inputs and a membership oracle and returns
the completed :class:`~repro.artifacts.run.RunArtifact`: the
synthesized context-free grammar together with per-seed regexes, merge
information, and query statistics. The actual work runs in the staged
:class:`~repro.core.pipeline.LearningPipeline` (which additionally
supports durable checkpoints and resumable runs); this module keeps the
configuration type.

Pipeline (matching §7's discussion of phase ordering):

1. **Seed validation** — the paper requires E_in ⊆ L*.
2. **Phase one** per seed — regular-expression synthesis (§4) plus
   character generalization (§6.2); a seed already in the language of
   the previously learned regexes is skipped (the §6.1 optimization).
3. **Translation** of all per-seed trees into one grammar with a
   top-level alternation (§5.1, §6.1).
4. **Phase two** — repetition-subexpression merging across seeds (§5).
5. **Finalize** — restrict to productions reachable from the start.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.learning.oracle import Oracle

if TYPE_CHECKING:
    from repro.artifacts.run import RunArtifact

#: Default input alphabet Σ for character generalization: printable
#: ASCII (the paper's setting: programs take ASCII inputs, §2).
DEFAULT_ALPHABET = (
    string.ascii_letters + string.digits + string.punctuation + " "
)


@dataclass
class GladeConfig:
    """Tunable knobs; the defaults reproduce the paper's algorithm.

    ``enable_phase2=False`` gives the "P1" ablation of Figure 4 (GLADE
    restricted to regular languages); ``enable_chargen=False`` gives the
    character-generalization ablation discussed in §8.2.

    Membership in the learner's own languages (phase one's
    current-language tests, the §6.1 covered-seed tests) always runs
    through the incremental membership engine
    (:mod:`repro.languages.engine`): cached NFA fragments of unchanged
    subtrees, a lazy DFA per language version, and memoized results per
    (language version, string). It is oracle-free and has no knob.

    Oracle checks are always asked one at a time, stopping at the first
    rejection. A :class:`~repro.learning.oracle.SubprocessOracle` with
    ``max_workers > 1`` runs independent ones ahead on its thread pool,
    so counted queries are the same at any ``max_workers``.
    """

    enable_phase2: bool = True
    enable_chargen: bool = True
    alphabet: str = DEFAULT_ALPHABET
    skip_covered_seeds: bool = True
    #: Extended merge checks (see repro.core.phase2); False gives the
    #: paper's literal two checks — exposed for the ablation bench.
    mixed_merge_checks: bool = True
    #: Worker count for seed-sharded phase 1 and pair-sharded phase 2
    #: (see :mod:`repro.exec`). Learned grammars and counted query
    #: totals are identical at any worker count; jobs > 1 trades
    #: speculative oracle work (seeds the §6.1 skip would have avoided,
    #: merge pairs the transitive skip would have avoided — both
    #: evaluated anyway and discarded) for wall-clock.
    jobs: int = 1
    #: Execution backend: "auto", "serial", "thread", or "process".
    #: "auto" picks serial for one job, else process when the oracle is
    #: picklable and threads otherwise.
    backend: str = "auto"
    #: Structured tracing (:mod:`repro.obs`): record spans, metrics and
    #: phase one's per-step ``step`` events (Figure 2's R1…R9) into the
    #: artifact's ``telemetry`` section; phase two's decisions are the
    #: artifact's ``phase2_progress`` log either way. Observation-only —
    #: grammars and counted query totals are byte-identical with it on
    #: or off (gated in ``tests/obs/``); off by default, and the
    #: disabled path is a shared no-op tracer.
    trace: bool = False


def learn_grammar(
    seeds: Sequence[str],
    oracle: Oracle,
    config: Optional[GladeConfig] = None,
) -> RunArtifact:
    """Synthesize a context-free grammar from seeds and a membership oracle.

    Runs :class:`~repro.core.pipeline.LearningPipeline`, the staged
    version of Algorithm 1 (validate → per-seed phase 1 + chargen →
    translate → phase 2 → finalize), without persisting anything, and
    returns its completed :class:`~repro.artifacts.run.RunArtifact` —
    the same record ``repro learn --out`` writes. Construct the
    pipeline directly for checkpoint stores or seed provenance.

    Raises ValueError when no seed is given or a seed is rejected by
    the oracle (the paper requires E_in ⊆ L*).
    """
    from repro.core.pipeline import LearningPipeline

    return LearningPipeline(oracle, config=config).run(seeds)
