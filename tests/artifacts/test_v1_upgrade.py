"""Older-schema artifacts load (and resume) under the current build.

Checkpoints are the one thing the artifact subsystem exists to
preserve, so schema bumps upgrade known older documents in place
instead of refusing them: v1 → v2 re-indexes phase-1 results, v2 → v3
merely lacks the optional ``phase2_progress`` record. Old documents
are simulated by downgrading a real current one: stripping every
newer-than-X field, exactly what the PR-2 / PR-3 builds wrote. Config
keys of retired ``GladeConfig`` fields are ignored on load.
"""

import json

import pytest

from repro.artifacts import (
    SCHEMA_VERSION,
    ArtifactError,
    MemoryCheckpointStore,
    RunArtifact,
    SEED_USED,
    SEED_VALIDATED,
    grammar_to_dict,
    load_artifact,
)
from repro.artifacts.run import artifact_digest
from repro.core.glade import GladeConfig
from repro.core.pipeline import LearningPipeline

from tests.core.helpers import XML_ALPHABET, xml_like_oracle

SEEDS = ["<a>ab</a>", "xy"]


def downgrade_to_v2(data):
    """Strip every v3-only field, producing what a PR-3 build wrote."""
    v2 = json.loads(json.dumps(data))
    v2["schema_version"] = 2
    v2.pop("phase2_progress", None)
    return v2


def downgrade_to_v1(data):
    """Strip every v2-only field, producing what a PR-2 build wrote."""
    v1 = downgrade_to_v2(data)
    v1["schema_version"] = 1
    v1.pop("speculative_queries", None)
    v1.pop("execution", None)
    for seed in v1["seeds"]:
        seed.pop("seconds", None)
    for result in v1["phase1_results"]:
        result.pop("seed_index", None)
    for key in ("jobs", "backend"):
        v1["config"].pop(key, None)
    return v1


@pytest.fixture(scope="module")
def finished():
    config = GladeConfig(alphabet=XML_ALPHABET)
    store = MemoryCheckpointStore()
    pipeline = LearningPipeline(xml_like_oracle, config=config, store=store)
    return pipeline.run(SEEDS), store


def mid_phase1_snapshot(store):
    """The first checkpoint with both learned and unlearned seeds."""
    for index in range(len(store.snapshots)):
        candidate = store.snapshot(index)
        if any(s.state == SEED_USED for s in candidate.seeds) and any(
            s.state == SEED_VALIDATED for s in candidate.seeds
        ):
            return candidate
    raise AssertionError("no mid-phase-1 checkpoint")


def test_complete_v1_artifact_loads(finished):
    artifact, _store = finished
    v1 = downgrade_to_v1(artifact.to_dict())
    restored = RunArtifact.from_dict(v1)
    # Results are re-indexed against the used seeds, in order.
    used = [
        i for i, s in enumerate(restored.seeds) if s.state == SEED_USED
    ]
    assert [r.seed_index for r in restored.phase1_results] == used
    assert str(restored.grammar) == str(artifact.grammar)
    assert restored.schema_version == artifact.schema_version
    # Re-saving writes the current schema.
    assert restored.to_dict()["schema_version"] == SCHEMA_VERSION


def test_complete_v2_artifact_loads(finished):
    artifact, _store = finished
    v2 = downgrade_to_v2(artifact.to_dict())
    restored = RunArtifact.from_dict(v2)
    assert str(restored.grammar) == str(artifact.grammar)
    assert restored.phase2_progress == {}
    assert restored.to_dict()["schema_version"] == SCHEMA_VERSION


def test_in_progress_v2_artifact_resumes(finished):
    """A v2 checkpoint (no phase-2 progress record) resumes: phase 2
    re-runs from its start, ending in the same grammar and totals."""
    artifact, store = finished
    snapshot = None
    for index in range(len(store.snapshots)):
        candidate = store.snapshot(index)
        if candidate.stage == "translate":
            snapshot = candidate
            break
    assert snapshot is not None
    restored = RunArtifact.from_dict(downgrade_to_v2(snapshot.to_dict()))
    resumed = LearningPipeline(
        xml_like_oracle, config=restored.config
    ).resume(restored)
    assert resumed.status == "complete"
    assert str(resumed.grammar) == str(artifact.grammar)
    assert resumed.oracle_queries == artifact.oracle_queries


def test_in_progress_v1_artifact_resumes(finished):
    artifact, store = finished
    v1 = downgrade_to_v1(mid_phase1_snapshot(store).to_dict())
    restored = RunArtifact.from_dict(v1)
    resumed = LearningPipeline(
        xml_like_oracle, config=restored.config
    ).resume(restored)
    assert resumed.status == "complete"
    assert str(resumed.grammar) == str(artifact.grammar)


@pytest.mark.parametrize("value", [True, False])
def test_retired_config_keys_ignored_on_load(finished, tmp_path, value):
    """A checkpoint whose config still holds the retired ``use_engine``
    and ``use_dense`` keys — as every build before their removal wrote,
    integrity digest included — loads and resumes to the uninterrupted
    run's grammar and accumulated query count."""
    artifact, store = finished
    data = mid_phase1_snapshot(store).to_dict()
    data["config"].update(use_engine=value, use_dense=value)
    data["integrity"] = artifact_digest(data)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True))
    restored = load_artifact(path)
    assert restored.config == artifact.config
    resumed = LearningPipeline(
        xml_like_oracle, config=restored.config
    ).resume(restored)
    assert resumed.status == "complete"
    assert json.dumps(grammar_to_dict(resumed.grammar)) == json.dumps(
        grammar_to_dict(artifact.grammar)
    )
    assert resumed.oracle_queries == artifact.oracle_queries


def test_v1_with_mismatched_results_rejected(finished):
    artifact, _store = finished
    v1 = downgrade_to_v1(artifact.to_dict())
    v1["phase1_results"].append(v1["phase1_results"][0])
    with pytest.raises(ArtifactError, match="cannot upgrade"):
        RunArtifact.from_dict(v1)


def test_unknown_version_still_rejected(finished):
    artifact, _store = finished
    data = artifact.to_dict()
    data["schema_version"] = 999
    with pytest.raises(ArtifactError, match="schema version"):
        RunArtifact.from_dict(data)
