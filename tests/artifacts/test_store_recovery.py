"""Checkpoint hardening: content digests and generation fallback.

Acceptance criteria for the durable-store layer: a truncated or
bit-flipped snapshot is *detected* on load (never deserialized into a
half-wrong artifact), the store falls back to the last-good generation,
and resuming from that generation re-issues zero oracle queries for
stages it already records. Most saves append only what changed to the
file, so every save is also checked against a fresh encoding of the
whole artifact. The journal's own crash tests are in
``test_journal.py``.
"""

import hashlib
import json
import pathlib
import random

import pytest

import repro.artifacts.journal as journal_mod
import repro.artifacts.run as run_mod
import repro.artifacts.schema as schema_mod
import repro.core.pipeline as pipeline_mod
from repro.artifacts import RunArtifact
from repro.artifacts.journal import artifact_digest, load_artifact
from repro.artifacts.run import SeedRecord
from repro.artifacts.schema import ArtifactCorrupt, ArtifactError
from repro.artifacts.store import (
    CheckpointStore,
    FileCheckpointStore,
    MemoryCheckpointStore,
)
from repro.core.glade import GladeConfig
from repro.core.gtree import GRoot
from repro.core.phase1 import Phase1Result
from repro.core.pipeline import LearningPipeline, _RunAccounting
from repro.exec.backends import Executor
from repro.exec.shard import SeedResult
from repro.learning.oracle import CachingOracle

from tests.core.helpers import (
    XML_ALPHABET,
    SingleLetterRuns,
    xml_like_oracle,
)

SEEDS = ["<a>ab</a>", "xy"]


class CountingBase:
    """Counts raw oracle invocations (below any cache)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, text):
        self.calls += 1
        return self.fn(text)


def learn_to(path, oracle=xml_like_oracle):
    store = FileCheckpointStore(path)
    config = GladeConfig(alphabet=XML_ALPHABET)
    artifact = LearningPipeline(
        oracle, config=config, store=store
    ).run(SEEDS)
    return artifact, store


class TestArtifactDigest:
    def test_save_embeds_digest_and_load_verifies(self, tmp_path):
        path = tmp_path / "run.json"
        artifact, _store = learn_to(path)
        data = json.loads(path.read_text())
        assert data["integrity"] == artifact_digest(data)
        loaded = load_artifact(path)
        assert str(loaded.grammar) == str(artifact.grammar)

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "run.json"
        learn_to(path)
        text = path.read_text()
        # Truncate *inside* the JSON so the damage is a parse error.
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ArtifactError):
            load_artifact(path)

    def test_bitflip_detected(self, tmp_path):
        # A corruption that keeps the JSON well-formed is exactly what
        # the digest exists for.
        path = tmp_path / "run.json"
        learn_to(path)
        data = json.loads(path.read_text())
        data["oracle_queries"] += 1
        path.write_text(json.dumps(data))
        with pytest.raises(ArtifactCorrupt):
            load_artifact(path)

    def test_pre_digest_artifact_still_loads(self, tmp_path):
        # Artifacts written before the integrity field existed carry no
        # digest; they load unverified rather than being rejected.
        path = tmp_path / "run.json"
        artifact, _store = learn_to(path)
        data = json.loads(path.read_text())
        del data["integrity"]
        path.write_text(json.dumps(data))
        loaded = load_artifact(path)
        assert str(loaded.grammar) == str(artifact.grammar)


class TestGenerationFallback:
    def test_saves_rotate_previous_generation(self, tmp_path):
        path = tmp_path / "run.json"
        _artifact, store = learn_to(path)
        assert (tmp_path / "run.json.prev").exists()
        # The previous generation is the checkpoint just before the
        # final save: an earlier, still-verifiable snapshot.
        previous = load_artifact(store.previous_path)
        assert isinstance(previous, RunArtifact)
        assert previous.status != "complete"

    def test_corrupt_current_falls_back_to_previous(self, tmp_path):
        path = tmp_path / "run.json"
        learn_to(path)
        path.write_text(path.read_text()[:40])
        store = FileCheckpointStore(path)
        recovered = store.load()
        assert recovered is not None
        assert store.recovered_from == store.previous_path

    def test_missing_current_serves_previous(self, tmp_path):
        path = tmp_path / "run.json"
        learn_to(path)
        path.unlink()
        store = FileCheckpointStore(path)
        assert store.load() is not None
        assert store.recovered_from == store.previous_path

    def test_both_generations_bad_raises_current_error(self, tmp_path):
        path = tmp_path / "run.json"
        learn_to(path)
        data = json.loads(path.read_text())
        data["oracle_queries"] += 1
        path.write_text(json.dumps(data))
        (tmp_path / "run.json.prev").write_text("{not json")
        store = FileCheckpointStore(path)
        with pytest.raises(ArtifactCorrupt):
            store.load()

    def test_load_without_any_generation_returns_none(self, tmp_path):
        store = FileCheckpointStore(tmp_path / "missing.json")
        assert store.load() is None

    def test_corrupt_file_without_previous_generation_raises(
        self, tmp_path
    ):
        path = tmp_path / "run.json"
        learn_to(path)
        (tmp_path / "run.json.prev").unlink()
        path.write_text(path.read_text()[:40])
        with pytest.raises(ArtifactError):
            FileCheckpointStore(path).load()

    def test_journal_saves_leave_previous_generation_alone(self, tmp_path):
        # Only snapshots rotate: inside a stage, .prev keeps the
        # generation before the stage's snapshot, and the file grows.
        path = tmp_path / "run.json"
        seen = []

        class Watching(FileCheckpointStore):
            def save(self, artifact):
                super().save(artifact)
                prev = tmp_path / "run.json.prev"
                seen.append((
                    artifact.stage,
                    prev.read_text() if prev.exists() else None,
                    path.read_text(),
                ))

        LearningPipeline(
            xml_like_oracle,
            config=GladeConfig(alphabet=XML_ALPHABET),
            store=Watching(path),
        ).run(SEEDS)
        within = [
            (before, after)
            for before, after in zip(seen, seen[1:])
            if before[0] == after[0]
        ]
        assert len(within) > 3
        for (_stage, prev, text), (_same, prev_after, text_after) in within:
            assert prev_after == prev
            assert text_after.startswith(text) and text_after != text


class TestResumeAfterCorruption:
    def test_resume_from_last_good_reissues_zero_queries(self, tmp_path):
        path = tmp_path / "run.json"
        reference, _store = learn_to(path)
        # Corrupt the final checkpoint; the last-good generation is the
        # pre-finalize save, whose recorded stages are all intact.
        path.write_text(path.read_text()[: 40])
        store = FileCheckpointStore(path)
        recovered = store.load()
        assert store.recovered_from is not None
        assert recovered.status != "complete"

        oracle = CountingBase(xml_like_oracle)
        config = GladeConfig(alphabet=XML_ALPHABET)
        resumed = LearningPipeline(
            oracle, config=config, store=store
        ).resume(recovered)
        assert resumed.status == "complete"
        # Every oracle-bearing stage was checkpointed before the lost
        # save: the resume replays no queries at all.
        assert oracle.calls == 0
        assert str(resumed.grammar) == str(reference.grammar)
        assert resumed.oracle_queries == reference.oracle_queries


def ab_oracle(text):
    """Accepts any string over {a, b}."""
    return set(text) <= set("ab")


class FreshEncodingStore(FileCheckpointStore):
    """Checks at every save that the file decodes to exactly what a
    fresh encoding of the whole artifact would be: its snapshot's
    ``integrity`` digest verifies, every journal record chains, and the
    replayed data equals ``artifact.to_dict()``."""

    def __init__(self, path):
        super().__init__(path)
        self.saves = 0
        #: Per save, the seed indices of the saved phase-1 results.
        self.phase1_seeds = []

    def save(self, artifact):
        super().save(artifact)
        text = pathlib.Path(self.path).read_text()
        data, cut = journal_mod.read_checkpoint(text, "checkpoint")
        assert cut == 0
        assert data == json.loads(json.dumps(artifact.to_dict()))
        snapshot = json.JSONDecoder().raw_decode(text)[0]
        assert snapshot.pop("integrity") == artifact_digest(snapshot)
        self.saves += 1
        self.phase1_seeds.append(
            {result["seed_index"] for result in data["phase1_results"]}
        )


class ReversedArrivals(Executor):
    """Two workers on paper: pulls every payload, runs each, and hands
    the results back last first."""

    name = "reversed"
    jobs = 2

    def unordered(self, fn, payloads):
        results = [(i, fn(payload)) for i, payload in enumerate(payloads)]
        return iter(results[::-1])


class TestEverySaveEqualsFreshEncoding:
    def test_serial_run_through_phase2(self, tmp_path):
        store = FreshEncodingStore(tmp_path / "run.json")
        artifact = LearningPipeline(
            xml_like_oracle,
            config=GladeConfig(alphabet=XML_ALPHABET),
            store=store,
        ).run(SEEDS)
        assert artifact.status == "complete"
        assert artifact.phase2_progress["decisions"]
        assert store.saves > len(artifact.phase2_progress["decisions"])

    def test_thread_run_drops_a_discarded_result(
        self, tmp_path, monkeypatch
    ):
        # Both seeds are learned speculatively, and the covered seed's
        # result arrives first: one save holds it, and once seed 0
        # settles and covers it, a later save drops it again.
        monkeypatch.setattr(
            pipeline_mod, "make_executor", lambda *args: ReversedArrivals()
        )
        store = FreshEncodingStore(tmp_path / "run.json")
        config = GladeConfig(
            alphabet="ab", enable_chargen=False, jobs=2, backend="thread"
        )
        artifact = LearningPipeline(
            ab_oracle, config=config, store=store
        ).run(["ab", "abab"])
        assert artifact.seeds[1].state == "skipped"
        assert [r.seed_index for r in artifact.phase1_results] == [0]
        held = [1 in seeds for seeds in store.phase1_seeds]
        assert True in held
        assert False in held[held.index(True):]

    def test_traced_thread_run_drops_a_discarded_shard(
        self, tmp_path, monkeypatch
    ):
        # As above, traced: the journal records the covered seed's spans
        # as they arrive, then the discard of its shard.
        monkeypatch.setattr(
            pipeline_mod, "make_executor", lambda *args: ReversedArrivals()
        )
        store = FreshEncodingStore(tmp_path / "run.json")
        config = GladeConfig(
            alphabet="ab", enable_chargen=False, jobs=2, backend="thread",
            trace=True,
        )
        artifact = LearningPipeline(
            ab_oracle, config=config, store=store
        ).run(["ab", "abab"])
        assert artifact.seeds[1].state == "skipped"
        shards = {span["shard"] for span in artifact.telemetry["spans"]}
        assert "seed:0" in shards and "seed:1" not in shards
        held = [1 in seeds for seeds in store.phase1_seeds]
        assert True in held and False in held[held.index(True):]

    def test_resume_from_mid_phase2_checkpoint(self, tmp_path):
        reference, mid = mid_phase2_checkpoint()
        # A new store: its encoder starts with nothing cached.
        store = FreshEncodingStore(tmp_path / "resumed.json")
        resumed = LearningPipeline(
            xml_like_oracle,
            config=GladeConfig(alphabet=XML_ALPHABET),
            store=store,
        ).resume(mid)
        assert store.saves > 1
        assert str(resumed.grammar) == str(reference.grammar)
        assert resumed.oracle_queries == reference.oracle_queries


def mid_phase2_checkpoint():
    """A complete run, and a checkpoint it wrote halfway through phase 2
    (decoded through the memory store's digest-checking loader)."""
    memory = MemoryCheckpointStore()
    reference = LearningPipeline(
        xml_like_oracle,
        config=GladeConfig(alphabet=XML_ALPHABET),
        store=memory,
    ).run(SEEDS)
    snapshots = map(memory.snapshot, range(len(memory.snapshots)))
    mid = next(
        snap for snap in snapshots
        if snap.stage == "translate"
        and 0 < len(snap.phase2_progress.get("decisions", ()))
        < snap.phase2_progress["pairs"]
    )
    return reference, mid


class TestFileFormat:
    def test_canonical_members_one_key_per_line(self, tmp_path):
        path = tmp_path / "run.json"
        learn_to(path)
        text = path.read_text()
        data = json.loads(text)
        lines = text.splitlines()
        assert lines[0] == "{" and lines[-1] == "}"
        members = [line.rstrip(",") for line in lines[1:-1]]
        assert [next(iter(json.loads("{" + m + "}"))) for m in members] == (
            sorted(data)
        )
        # Without the integrity line, the members joined are the
        # canonical encoding the digest is defined over.
        canonical = "{" + ",".join(
            m for m in members if not m.startswith('"integrity":')
        ) + "}"
        body = {k: v for k, v in data.items() if k != "integrity"}
        assert canonical == json.dumps(
            body, sort_keys=True, separators=(",", ":")
        )
        assert data["integrity"] == (
            "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()
        )

    def test_indented_artifact_of_earlier_builds_resumes(self, tmp_path):
        # Earlier builds wrote ``json.dumps(data, indent=1,
        # sort_keys=True)`` around the same digest.
        reference, mid = mid_phase2_checkpoint()
        data = mid.to_dict()
        data["integrity"] = artifact_digest(data)
        path = tmp_path / "indented.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True))
        resumed = LearningPipeline(
            xml_like_oracle,
            config=GladeConfig(alphabet=XML_ALPHABET),
            store=FileCheckpointStore(path),
        ).resume(load_artifact(path))
        assert str(resumed.grammar) == str(reference.grammar)
        assert resumed.oracle_queries == reference.oracle_queries
        assert json.loads(path.read_text())["status"] == "complete"

    def test_memory_snapshot_is_the_file_text_and_verified(self, tmp_path):
        memory = MemoryCheckpointStore()
        path = tmp_path / "run.json"
        artifact, _store = learn_to(path)
        memory.save(artifact)
        assert memory.snapshots[0] == path.read_text()
        memory.snapshots[0] = memory.snapshots[0].replace(
            '"status":"complete"', '"status":"in_progress"'
        )
        with pytest.raises(ArtifactCorrupt):
            memory.snapshot(0)


def test_results_and_grammars_are_encoded_per_snapshot(
    tmp_path, monkeypatch
):
    """Over one file-backed learn, Phase1Result and grammar encodings are
    bounded by the stage snapshots, not by the saves: a result is
    encoded once when a journal record adds it and once per later
    snapshot, and a grammar once per snapshot that holds it."""
    encoded = {"phase1": [], "grammar": []}

    def counting(kind, codec):
        def wrapper(obj, *args, **kwargs):
            encoded[kind].append(obj)
            return codec(obj, *args, **kwargs)
        return wrapper

    # The artifact's codecs only: seed tasks encode their results for
    # the trip back to the parent through the schema module itself.
    monkeypatch.setattr(
        run_mod, "phase1_result_to_dict",
        counting("phase1", schema_mod.phase1_result_to_dict),
    )
    for module in (run_mod, schema_mod):
        monkeypatch.setattr(
            module, "grammar_to_dict",
            counting("grammar", schema_mod.grammar_to_dict),
        )
    saved = []

    class CountingStore(FileCheckpointStore):
        def save(self, artifact):
            super().save(artifact)
            saved.append(artifact.stage)

    store = CountingStore(tmp_path / "run.json")
    oracle = SingleLetterRuns(6)
    artifact = LearningPipeline(
        oracle,
        config=GladeConfig(alphabet=oracle.alphabet),
        store=store,
    ).run(oracle.seeds)
    assert artifact.status == "complete"
    snapshots = 1 + sum(
        before != after for before, after in zip(saved, saved[1:])
    )
    # validate, phase1, translate, phase2 and finalize.
    assert snapshots == 5
    assert len(saved) > 10 * snapshots
    results = artifact.phase1_results
    assert results
    per_result = {}
    for obj in encoded["phase1"]:
        per_result[id(obj)] = per_result.get(id(obj), 0) + 1
    assert set(per_result) == {id(result) for result in results}
    # Added by a journal record in phase 1, then in the phase1,
    # translate, phase2 and finalize snapshots.
    assert max(per_result.values()) <= 1 + 4
    assert len(encoded["phase1"]) < len(saved)
    # Grammars are encoded by the translate, phase2 and finalize
    # snapshots alone, at most twice each (the grammar section and the
    # phase-2 result's merged grammar), never by a journal record.
    assert len(encoded["grammar"]) <= 2 * 3
    assert load_artifact(store.path).grammar is not None


class TestUniqueQueryAccounting:
    @pytest.mark.parametrize("seed", range(8))
    def test_incremental_union_matches_brute_force(self, seed):
        """Random absorb, keep, discard and parent-growth sequences: the
        count is the union of the parent's strings and every kept or
        unsettled shard, and a kept shard's verdicts are in the cache."""
        rng = random.Random(seed)
        n_seeds = 6
        artifact = RunArtifact(
            seeds=[SeedRecord(text=str(i)) for i in range(n_seeds)]
        )

        def oracle(text):
            return int(text) % 3 == 0

        cached = CachingOracle(oracle)
        state = _RunAccounting(cached)
        parent = set()
        kept = set()
        unsettled = {}
        settled = set()

        def strings():
            return {str(rng.randrange(60)) for _ in range(rng.randrange(12))}

        for _step in range(120):
            move = rng.choice(("absorb", "keep", "discard", "parent"))
            index = rng.randrange(n_seeds)
            if move == "absorb":
                if index in unsettled or index in settled:
                    continue
                unsettled[index] = strings()
                state.absorb(artifact, SeedResult(
                    index=index,
                    result=Phase1Result(root=GRoot(), seed_index=index),
                    queries=rng.randrange(1, 9),
                    verdicts={text: oracle(text) for text in unsettled[index]},
                    seconds=0.0,
                ))
            elif move == "keep":
                if index not in unsettled:
                    continue
                state.keep(index)
                kept |= unsettled.pop(index)
                settled.add(index)
            elif move == "discard":
                if index in settled:
                    continue
                state.discard(artifact, index)
                unsettled.pop(index, None)
                settled.add(index)
            else:
                for text in strings():
                    cached(text)
                    parent.add(text)
            union = parent | kept
            for shard in unsettled.values():
                union |= shard
            assert state.unique() == len(union)
            known = cached.known_results()
            assert all(known[text] == oracle(text) for text in kept)

    def test_phase2_checkpoints_count_in_constant_time(self, monkeypatch):
        """After pooled phase 1, a phase-2 checkpoint touches the run
        cache's key view (``seen_digests``) a fixed number of times,
        however many strings the run has asked."""
        from repro.targets import get_target

        ops = []

        class CountingView:
            def __init__(self, view):
                self._view = view

            def __len__(self):
                ops.append("len")
                return len(self._view)

            def __contains__(self, text):
                ops.append("in")
                return text in self._view

            def __iter__(self):
                for text in self._view:
                    ops.append("iter")
                    yield text

        seen = pipeline_mod.CachingOracle.seen_digests
        monkeypatch.setattr(
            pipeline_mod.CachingOracle,
            "seen_digests",
            property(lambda cache: CountingView(seen.fget(cache))),
        )
        per_checkpoint = []

        class Probe(CheckpointStore):
            def save(self, artifact):
                if artifact.stage == "translate":  # inside phase 2
                    per_checkpoint.append(len(ops))
                ops.clear()

            def load(self):
                return None

        xml = get_target("xml")
        seeds = sorted(xml.sample_seeds(4, seed=0), key=len)
        config = GladeConfig(alphabet=xml.alphabet, jobs=2, backend="thread")
        artifact = LearningPipeline(
            xml.oracle, config=config, store=Probe()
        ).run(seeds)
        assert artifact.unique_queries > 500
        assert len(per_checkpoint) > 20
        assert max(per_checkpoint) <= 2

    def test_every_serial_save_counts_distinct_strings_asked(self):
        asked = set()

        def recording(text):
            asked.add(text)
            return xml_like_oracle(text)

        class Probe(CheckpointStore):
            saves = 0

            def save(self, artifact):
                assert artifact.unique_queries == len(asked)
                Probe.saves += 1

            def load(self):
                return None

        artifact = LearningPipeline(
            recording, config=GladeConfig(alphabet=XML_ALPHABET),
            store=Probe(),
        ).run(SEEDS)
        assert Probe.saves > 5
        assert artifact.unique_queries == len(asked)
