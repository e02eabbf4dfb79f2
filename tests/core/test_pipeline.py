"""The staged learning pipeline: checkpoints, resume, determinism.

The acceptance-criterion tests live here: a resumed run produces a
byte-identical grammar to an uninterrupted run, re-issues no oracle
queries for already-checkpointed seeds, and accumulates the same total
query count. Interruption is simulated by deserializing a mid-run
checkpoint from a :class:`MemoryCheckpointStore` — every snapshot went
through the full JSON encoding, exactly like a crash-and-reload.
"""

import pytest

from repro.artifacts import (
    MemoryCheckpointStore,
    RunArtifact,
    SEED_SKIPPED,
    SEED_USED,
    SEED_VALIDATED,
)
from repro.core.glade import GladeConfig, learn_grammar
from repro.core.pipeline import LearningPipeline, SeedRejected

from tests.core.helpers import XML_ALPHABET, xml_like_oracle

SEEDS = ["<a>ab</a>", "xy", "<a><a>q</a></a>"]

# Star ids are run-local (per-seed block allocators) and phase-2
# residual sampling is seeded run-locally, so two runs of the same
# problem are byte-identical with no global state to reset — the
# counter-restoring fixtures this module used to need are gone.


class CountingBase:
    """Counts raw oracle invocations (below any cache)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, text):
        self.calls += 1
        return self.fn(text)


def run_uninterrupted(config):
    store = MemoryCheckpointStore()
    oracle = CountingBase(xml_like_oracle)
    artifact = LearningPipeline(oracle, config=config, store=store).run(SEEDS)
    return artifact, store, oracle


def test_pipeline_matches_learn_grammar():
    # learn_grammar returns the pipeline's artifact: the same record,
    # apart from its wall-clock fields.
    config = GladeConfig(alphabet=XML_ALPHABET)
    direct = learn_grammar(SEEDS, xml_like_oracle, config)
    artifact = LearningPipeline(xml_like_oracle, config=config).run(SEEDS)
    assert isinstance(direct, RunArtifact)

    def without_wall_clock(run):
        data = run.to_dict()
        del data["timings"]
        for seed in data["seeds"]:
            del seed["seconds"]
        return data

    assert without_wall_clock(direct) == without_wall_clock(artifact)


def test_pipeline_checkpoints_every_stage_and_seed():
    config = GladeConfig(alphabet=XML_ALPHABET)
    artifact, store, _oracle = run_uninterrupted(config)
    stages = [snap.stage for snap in map(store.snapshot, range(len(store.snapshots)))]
    # validate, one per seed, phase1, translate, phase2, finalize.
    assert stages[0] == "validate"
    assert stages.count("validate") == 1 + len(SEEDS)  # per-seed saves
    for name in ("phase1", "translate", "phase2", "finalize"):
        assert name in stages
    assert artifact.status == "complete"
    assert artifact.stage == "finalize"
    assert set(artifact.timings) == {
        "validate", "phase1", "translate", "phase2", "finalize",
    }


def find_snapshot(store, n_results):
    """The first checkpoint with exactly ``n_results`` seeds finished."""
    for index in range(len(store.snapshots)):
        snap = store.snapshot(index)
        done = sum(1 for s in snap.seeds if s.state in (SEED_USED, SEED_SKIPPED))
        if done == n_results and any(
            s.state == SEED_VALIDATED for s in snap.seeds
        ):
            return index
    raise AssertionError("no mid-phase1 snapshot found")


@pytest.mark.parametrize("n_done", [1, 2])
def test_resume_mid_phase1_is_byte_identical(n_done):
    config = GladeConfig(alphabet=XML_ALPHABET)
    full, store, _oracle = run_uninterrupted(config)

    index = find_snapshot(store, n_done)
    base = store.snapshot(index)
    base_queries = base.oracle_queries

    resumed_oracle = CountingBase(xml_like_oracle)
    resumed = LearningPipeline(resumed_oracle, config=config).resume(
        store.snapshot(index)
    )

    # Byte-identical grammar and regexes.
    assert str(resumed.grammar) == str(full.grammar)
    assert [str(r) for r in resumed.regexes()] == [
        str(r) for r in full.regexes()
    ]
    # Accumulated totals equal the uninterrupted run's.
    assert resumed.oracle_queries == full.oracle_queries
    # The resumed process issued only the post-checkpoint queries: no
    # query was re-issued for already-checkpointed seeds.
    assert resumed.oracle_queries - base_queries <= full.oracle_queries
    assert resumed_oracle.calls <= full.oracle_queries - base_queries
    # Seed bookkeeping survives.
    assert resumed.seeds_used() == full.seeds_used()
    assert resumed.seeds_skipped() == full.seeds_skipped()


def test_resume_after_translate_reissues_no_phase1_queries():
    config = GladeConfig(alphabet=XML_ALPHABET)
    full, store, _oracle = run_uninterrupted(config)
    for index in range(len(store.snapshots)):
        snap = store.snapshot(index)
        if snap.stage == "translate":
            break
    assert snap.grammar is not None

    oracle = CountingBase(xml_like_oracle)
    resumed = LearningPipeline(oracle, config=config).resume(snap)
    assert str(resumed.grammar) == str(full.grammar)
    # Only phase-2 checks run on resume; phase 1 is rehydrated.
    assert resumed.oracle_queries == full.oracle_queries


def test_resume_complete_artifact_is_noop():
    config = GladeConfig(alphabet=XML_ALPHABET)
    full, store, _oracle = run_uninterrupted(config)
    oracle = CountingBase(xml_like_oracle)
    resumed = LearningPipeline(oracle, config=config).resume(
        store.snapshot(-1)
    )
    assert oracle.calls == 0
    assert str(resumed.grammar) == str(full.grammar)


def test_skipped_seed_state_checkpointed():
    config = GladeConfig(alphabet="ab", enable_chargen=False)
    artifact = LearningPipeline(
        lambda s: set(s) <= set("ab"), config=config
    ).run(["ab", "abab"])  # "abab" is covered by the first seed's regex
    states = [s.state for s in artifact.seeds]
    assert states == [SEED_USED, SEED_SKIPPED]
    assert artifact.seeds_skipped() == ["abab"]
    # A skipped seed costs zero learning queries.
    assert artifact.seeds[1].queries == 0


def test_seed_rejection_carries_provenance():
    with pytest.raises(SeedRejected, match=r"corpus/bad\.xml"):
        LearningPipeline(xml_like_oracle).run(
            ["<a>hi</a>", "<a>broken"],
            sources=["corpus/good.xml", "corpus/bad.xml"],
        )
    # Without sources the message matches the historical wording.
    with pytest.raises(ValueError, match="rejected by the oracle"):
        LearningPipeline(xml_like_oracle).run(["<a>broken"])


def test_rejection_happens_before_any_learning():
    class Oracle:
        def __init__(self):
            self.calls = []

        def __call__(self, text):
            self.calls.append(text)
            return xml_like_oracle(text)

    oracle = Oracle()
    with pytest.raises(SeedRejected):
        LearningPipeline(oracle).run(["<a>hi</a>", "<a>broken"])
    # Upfront validation: only the seeds themselves were queried.
    assert oracle.calls == ["<a>hi</a>", "<a>broken"]


def test_empty_seed_list_rejected():
    with pytest.raises(ValueError, match="at least one seed"):
        LearningPipeline(xml_like_oracle).run([])
    with pytest.raises(ValueError, match="sources must parallel seeds"):
        LearningPipeline(xml_like_oracle).run(["a"], sources=["x", "y"])


def test_run_artifact_roundtrips_through_store():
    config = GladeConfig(alphabet=XML_ALPHABET)
    full, store, _oracle = run_uninterrupted(config)
    restored = store.snapshot(-1)
    assert isinstance(restored, RunArtifact)
    assert str(restored.grammar) == str(full.grammar)
    assert restored.config == full.config
    assert restored.timings == pytest.approx(full.timings)
    assert restored.oracle_queries == full.oracle_queries
    assert [str(t.to_regex()) for t in restored.trees()] == [
        str(t.to_regex()) for t in full.trees()
    ]
