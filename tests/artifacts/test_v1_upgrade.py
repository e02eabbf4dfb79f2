"""Older-schema artifacts load (and resume) under the current build.

Checkpoints are the one thing the artifact subsystem exists to
preserve, so schema bumps upgrade known older documents in place
instead of refusing them: v1 → v2 re-indexes phase-1 results, v2 → v3
merely lacks the optional ``phase2_progress`` record, and v4 → v5 only
dropped keys. Old documents are simulated from a real current one:
stripping every newer-than-X field, or adding back the keys a later
version dropped, exactly what the older builds wrote. Config keys of
retired ``GladeConfig`` fields are ignored on load.
"""

import json

import pytest

from repro.artifacts import (
    SCHEMA_VERSION,
    ArtifactError,
    RunArtifact,
    SEED_USED,
    SEED_VALIDATED,
    grammar_to_dict,
    load_artifact,
    save_artifact,
)
from repro.artifacts.journal import artifact_digest
from repro.cli import main as cli_main
from repro.core.glade import GladeConfig
from repro.core.gtree import stars_of
from repro.core.phase1 import synthesize_regex
from repro.core.phase2 import PAIR_MERGED, PAIR_SKIPPED, plan_merges
from repro.core.pipeline import LearningPipeline
from repro.obs.trace import Tracer

from tests.core.helpers import XML_ALPHABET, xml_like_oracle
from tests.memory_store import MemoryCheckpointStore

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


def v4_document(artifact):
    """What a v4 build wrote for ``artifact`` under ``record_trace``.

    v4 kept a per-seed list of generalization steps on every phase-1
    result (``trace``), the evaluated merge pairs on the phase-2 result
    (``records``) and the ``record_trace`` config key; the document
    carries the integrity digest ``save_artifact`` embeds.
    """
    data = json.loads(json.dumps(artifact.to_dict()))
    data["schema_version"] = 4
    data["config"]["record_trace"] = True
    for result in data["phase1_results"]:
        tracer = Tracer()
        seed = data["seeds"][result["seed_index"]]["text"]
        synthesize_regex(seed, xml_like_oracle, tracer=tracer)
        result["trace"] = [
            {
                "kind": step["kind"],
                "alpha": step["alpha"],
                "context": step["context"],
                "chosen": step["chosen"],
                "checks": step["checks"],
                "candidates_tried": step["tried"],
            }
            for step in (span["args"] for span in tracer.snapshot())
        ]
        assert result["trace"]
    if data["phase2_result"] is not None:
        plan = plan_merges(
            [star for tree in artifact.trees() for star in stars_of(tree)]
        )
        data["phase2_result"]["records"] = [
            {
                "star_i": pair.star_i,
                "star_j": pair.star_j,
                "checks": list(plan.checks(pair)),
                "merged": decision == PAIR_MERGED,
            }
            for pair, decision in zip(
                plan.pairs, artifact.phase2_progress["decisions"]
            )
            if decision != PAIR_SKIPPED
        ]
        assert data["phase2_result"]["records"]
    data["integrity"] = artifact_digest(data)
    return data


def assert_saves_v5(artifact, path):
    """Re-saving writes the current schema without the retired keys."""
    save_artifact(artifact, path)
    data = json.loads(path.read_text())
    assert data["schema_version"] == SCHEMA_VERSION == 5
    assert "record_trace" not in data["config"]
    assert all("trace" not in r for r in data["phase1_results"])
    if data["phase2_result"] is not None:
        assert "records" not in data["phase2_result"]


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
def test_retired_config_keys_ignored_on_load(
    finished, tmp_path, capsys, value
):
    """A checkpoint whose config still holds the retired ``use_engine``
    and ``use_dense`` keys, and whose execution record still holds the
    retired ``matcher_tiers`` telemetry — as every build before their
    removal wrote, integrity digest included — loads, prints under
    ``repro show``, and resumes to the uninterrupted run's grammar and
    accumulated query count."""
    artifact, store = finished
    data = mid_phase1_snapshot(store).to_dict()
    data["config"].update(use_engine=value, use_dense=value)
    data["execution"]["matcher_tiers"] = {
        "dense_matches": 12, "nfa_matches": 40, "fragments_promoted": 1,
    }
    data["integrity"] = artifact_digest(data)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True))
    assert cli_main(["show", str(path)]) == 0
    assert "execution:" in capsys.readouterr().out
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


def test_complete_v4_artifact_loads(finished, tmp_path):
    artifact, _store = finished
    path = tmp_path / "v4.json"
    path.write_text(json.dumps(v4_document(artifact), indent=1))
    restored = load_artifact(path)
    assert restored.config == artifact.config
    assert str(restored.grammar) == str(artifact.grammar)
    assert (
        restored.phase2_result.representative
        == artifact.phase2_result.representative
    )
    assert restored.phase2_progress == artifact.phase2_progress
    assert restored.oracle_queries == artifact.oracle_queries
    assert_saves_v5(restored, tmp_path / "v5.json")


def test_mid_phase2_v4_checkpoint_resumes(finished, tmp_path):
    """A v4 checkpoint written mid-phase-2 under ``record_trace`` loads
    and resumes to the uninterrupted run's grammar and query count."""
    artifact, store = finished
    pairs = artifact.phase2_progress["pairs"]
    snapshot = next(
        candidate
        for candidate in map(store.snapshot, range(len(store.snapshots)))
        if 0 < len(candidate.phase2_progress.get("decisions", ())) < pairs
    )
    path = tmp_path / "v4.json"
    path.write_text(json.dumps(v4_document(snapshot), indent=1))
    restored = load_artifact(path)
    assert restored.stage == "translate"
    resumed = LearningPipeline(
        xml_like_oracle, config=restored.config
    ).resume(restored)
    assert resumed.status == "complete"
    assert json.dumps(grammar_to_dict(resumed.grammar)) == json.dumps(
        grammar_to_dict(artifact.grammar)
    )
    assert resumed.oracle_queries == artifact.oracle_queries
    assert_saves_v5(resumed, tmp_path / "v5.json")


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
