"""Serializable run artifacts: the durable product of a learning run.

The paper treats a synthesized grammar as a *reusable artifact* — §7
hands learned grammars to fuzzers — and this package makes that real
for the reproduction: a versioned JSON schema for everything GLADE
learns (:mod:`repro.artifacts.schema`), a top-level
:class:`~repro.artifacts.run.RunArtifact` carrying seeds, config,
query statistics and per-stage timings, the checkpoint file format
(:mod:`repro.artifacts.journal`: a snapshot plus an append-only
journal), and pluggable :mod:`checkpoint stores <repro.artifacts.store>`
that let an interrupted multi-hour oracle run resume where it left off.
"""

from repro.artifacts.journal import load_artifact, save_artifact
from repro.artifacts.run import (
    SEED_LEARNED,
    SEED_PENDING,
    SEED_SKIPPED,
    SEED_USED,
    SEED_VALIDATED,
    STAGES,
    RunArtifact,
    SeedRecord,
)
from repro.artifacts.schema import (
    SCHEMA_VERSION,
    ArtifactError,
    grammar_from_dict,
    grammar_to_dict,
    gtree_from_dict,
    gtree_to_dict,
    phase1_result_from_dict,
    phase1_result_to_dict,
    phase2_result_from_dict,
    phase2_result_to_dict,
)
from repro.artifacts.store import (
    CheckpointStore,
    FileCheckpointStore,
    NullCheckpointStore,
)

__all__ = [
    "ArtifactError",
    "CheckpointStore",
    "FileCheckpointStore",
    "NullCheckpointStore",
    "RunArtifact",
    "SCHEMA_VERSION",
    "SEED_LEARNED",
    "SEED_PENDING",
    "SEED_SKIPPED",
    "SEED_USED",
    "SEED_VALIDATED",
    "STAGES",
    "SeedRecord",
    "grammar_from_dict",
    "grammar_to_dict",
    "gtree_from_dict",
    "gtree_to_dict",
    "load_artifact",
    "phase1_result_from_dict",
    "phase1_result_to_dict",
    "phase2_result_from_dict",
    "phase2_result_to_dict",
    "save_artifact",
]
