"""The checkpoint journal: crash tests and the scaling guard.

A file-backed run writes a snapshot when the stage changes and appends
one journal record per save in between (``repro.artifacts.journal``).
The crash tests take the file as it stood halfway through phase 2 and
damage it as a crash or a failing disk would: cut at every record
boundary and inside the last record, a flipped byte in a middle record,
and a record chained to another run's snapshot. Every load must return
the artifact as the last good record left it, equal to the memory
store's checkpoint of that save; ``repro resume`` must say what it cut;
and resuming must reproduce the uninterrupted run. The scaling guard
runs one learn at two sizes and checks that a save inside a stage
writes what changed, not the whole file.
"""

import json
import pathlib
import sys

import pytest

from repro.artifacts.journal import read_checkpoint
from repro.artifacts.store import FileCheckpointStore
from repro.cli import main as cli_main
from repro.core.glade import GladeConfig
from repro.core.pipeline import LearningPipeline
from repro.obs.export import span_structure

from tests.core.helpers import SingleLetterRuns
from tests.memory_store import MemoryCheckpointStore

LETTERS = 6


class Recording(FileCheckpointStore):
    """A file store that also saves every checkpoint to a memory store,
    notes the file's length after each save, and keeps the file's text
    at the first save with half of phase 2's pairs committed."""

    def __init__(self, path):
        super().__init__(path)
        self.memory = MemoryCheckpointStore()
        self.lengths = []
        self.stages = []
        self.kill_text = None
        self.kill_save = None

    def save(self, artifact):
        super().save(artifact)
        self.memory.save(artifact)
        text = pathlib.Path(self.path).read_text()
        self.lengths.append(len(text))
        self.stages.append(artifact.stage)
        progress = artifact.phase2_progress
        if (
            self.kill_text is None
            and artifact.stage == "translate"
            and progress.get("pairs")
            and 2 * len(progress["decisions"]) >= progress["pairs"]
        ):
            self.kill_text = text
            self.kill_save = len(self.lengths) - 1


class CountingBase:
    """Counts raw oracle invocations (below any cache)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, text):
        self.calls += 1
        return self.fn(text)


def learn(path, trace=False, letters=LETTERS, oracle_spec=None):
    oracle = SingleLetterRuns(letters)
    store = Recording(path)
    artifact = LearningPipeline(
        oracle,
        config=GladeConfig(alphabet=oracle.alphabet, trace=trace),
        store=store,
        oracle_spec=oracle_spec,
    ).run(oracle.seeds)
    return artifact, store


@pytest.fixture(scope="module", params=[False, True], ids=["plain", "traced"])
def run(request, tmp_path_factory):
    """A learn through a :class:`Recording` store; the mid-phase-2 file
    and the index of its translate snapshot's save."""
    path = tmp_path_factory.mktemp("journal") / "run.json"
    reference, store = learn(path, trace=request.param)
    assert store.kill_text is not None
    # The translate snapshot is the first save of its stage.
    first = store.stages.index("translate")
    assert store.kill_save - first > 4
    return reference, store, first


def load_text(tmp_path, text):
    path = tmp_path / "damaged.json"
    path.write_text(text)
    store = FileCheckpointStore(path)
    return store.load(), store


def as_data(artifact):
    return json.loads(json.dumps(artifact.to_dict()))


def expect_save(store, index):
    return as_data(store.memory.snapshot(index))


def test_memory_store_holds_the_file_text(run):
    _reference, store, _first = run
    assert store.memory.snapshots[store.kill_save] == store.kill_text


def test_cut_at_every_record_boundary_loads_that_record(run, tmp_path):
    _reference, store, first = run
    for index in range(first, store.kill_save + 1):
        loaded, damaged = load_text(
            tmp_path, store.kill_text[: store.lengths[index]]
        )
        assert damaged.cut_records == 0
        assert damaged.recovered_from is None
        assert as_data(loaded) == expect_save(store, index)


def test_cut_inside_the_last_record_loads_the_one_before(run, tmp_path):
    _reference, store, _first = run
    end = store.lengths[store.kill_save]
    start = store.lengths[store.kill_save - 1]
    # Without its final newline a record is torn, however much of it
    # was written.
    for length in (end - 1, (start + end) // 2, start + 1):
        loaded, damaged = load_text(tmp_path, store.kill_text[:length])
        assert damaged.cut_records == 1
        assert as_data(loaded) == expect_save(store, store.kill_save - 1)


def test_flipped_byte_in_a_middle_record_cuts_from_there(run, tmp_path):
    _reference, store, first = run
    middle = (first + 1 + store.kill_save) // 2
    start, end = store.lengths[middle - 1], store.lengths[middle]
    for offset in (start, (start + end) // 2, end - 2):
        text = store.kill_text
        flipped = chr(ord(text[offset]) ^ 1)
        loaded, damaged = load_text(
            tmp_path, text[:offset] + flipped + text[offset + 1:]
        )
        assert damaged.cut_records == store.kill_save - middle + 1
        assert as_data(loaded) == expect_save(store, middle - 1)


def test_record_chained_to_another_snapshot_is_cut(run, tmp_path):
    reference, store, _first = run
    # Another problem: its snapshots differ from the run's in content.
    _other, other = learn(
        tmp_path / "other.json",
        trace=reference.telemetry is not None,
        letters=LETTERS - 1,
    )
    other_first = other.stages.index("translate")
    line = other.kill_text[
        other.lengths[other_first]:other.lengths[other_first + 1]
    ]
    assert line.endswith("\n") and line.count("\n") == 1
    loaded, damaged = load_text(tmp_path, store.kill_text + line)
    assert damaged.cut_records == 1
    assert as_data(loaded) == expect_save(store, store.kill_save)


@pytest.mark.parametrize("run", [True], ids=["traced"], indirect=True)
def test_traced_span_structure_is_the_checkpoint_one(run, tmp_path):
    _reference, store, first = run
    for index in (first + 1, store.kill_save):
        loaded, _damaged = load_text(
            tmp_path, store.kill_text[: store.lengths[index]]
        )
        expected = store.memory.snapshot(index).telemetry
        assert span_structure(loaded.telemetry) == span_structure(expected)
        assert loaded.telemetry["spans"]


@pytest.mark.parametrize("damage", ["boundary", "torn", "flipped"])
def test_resume_after_damage_reproduces_the_run(run, tmp_path, damage):
    reference, store, first = run
    middle = (first + 1 + store.kill_save) // 2
    end = store.lengths[middle]
    text = {
        "boundary": store.kill_text[:end],
        "torn": store.kill_text[: end + 5],
        "flipped": (
            store.kill_text[: end + 3] + "#" + store.kill_text[end + 4:]
        ),
    }[damage]
    loaded, damaged = load_text(tmp_path, text)
    assert as_data(loaded) == expect_save(store, middle)
    assert damaged.cut_records == (0 if damage == "boundary" else (
        1 if damage == "torn" else store.kill_save - middle
    ))
    checkpointed = loaded.oracle_queries
    base = CountingBase(SingleLetterRuns(LETTERS))
    resumed = LearningPipeline(
        base, config=loaded.config, store=damaged
    ).resume(loaded)
    assert resumed.status == "complete"
    assert str(resumed.grammar) == str(reference.grammar)
    assert (
        resumed.phase2_progress["decisions"]
        == reference.phase2_progress["decisions"]
    )
    assert resumed.oracle_queries == reference.oracle_queries
    # Journaled work is never asked again: the resumed process asks at
    # most the counted queries left after the loaded save.
    assert 0 < base.calls <= reference.oracle_queries - checkpointed
    # The resumed run's file is whole: a snapshot, decoding to the
    # returned artifact.
    data, cut = read_checkpoint(pathlib.Path(damaged.path).read_text(), "")
    assert cut == 0
    assert data == as_data(resumed)


def test_cli_resume_warns_about_cut_records(tmp_path, capsys):
    validator = (
        "import sys; t = sys.stdin.read(); "
        "sys.exit(0 if t and len(set(t)) == 1 and t[0] in {!r} else 1)"
    ).format(SingleLetterRuns(4).alphabet)
    spec = {"command": [sys.executable, "-c", validator], "retries": 0}
    reference, store = learn(
        tmp_path / "run.json", letters=4, oracle_spec=spec
    )
    damaged = tmp_path / "damaged.json"
    # Tear the last record of the mid-phase-2 file.
    damaged.write_text(store.kill_text[:-3])
    code = cli_main(["resume", str(damaged), "--samples", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cut 1 torn or corrupt journal record(s)" in out
    grammar = [line for line in out.splitlines() if not line.startswith("#")]
    assert grammar == str(reference.grammar).splitlines()
    final = json.loads(damaged.read_text())
    assert final["status"] == "complete"
    assert final["oracle_queries"] == reference.oracle_queries


class ByteCounting(FileCheckpointStore):
    """Counts what each save writes: the bytes it appended when the file
    it leaves starts with the file it found, the whole file otherwise."""

    def __init__(self, path):
        super().__init__(path)
        self.writes = []  # (stage, bytes written, file size after)

    def save(self, artifact):
        path = pathlib.Path(self.path)
        before = path.read_text() if path.exists() else ""
        super().save(artifact)
        after = path.read_text()
        written = (
            len(after) - len(before) if after.startswith(before)
            else len(after)
        )
        self.writes.append((artifact.stage, written, len(after)))

    def mid_stage(self):
        """(bytes written, file size) of every save that kept the stage
        of the save before it."""
        return [
            (written, size)
            for (stage, _w, _s), (same, written, size) in zip(
                self.writes, self.writes[1:]
            )
            if stage == same
        ]


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
def test_mid_stage_saves_write_what_changed(tmp_path, trace):
    """Scaling guard: at n and 2n letters (15 and 66 merge pairs), a
    save inside a stage writes about as many bytes on average, far
    below the size of the file; saves that rewrote the file would grow
    with n. The mean, not the largest save: a phase-2 run task asks a
    run of pairs at once, so the first save after it carries the run's
    query spans. Without character generalization a seed's work does
    not grow with the alphabet."""
    mean = {}
    for letters in (6, 12):
        oracle = SingleLetterRuns(letters)
        store = ByteCounting(tmp_path / "run{}.json".format(letters))
        LearningPipeline(
            oracle,
            config=GladeConfig(
                alphabet=oracle.alphabet, enable_chargen=False, trace=trace
            ),
            store=store,
        ).run(oracle.seeds)
        mid = store.mid_stage()
        assert len(mid) > 5 * letters
        mean[letters] = sum(written for written, _size in mid) / len(mid)
        assert mean[letters] * 10 < store.writes[-1][2]
    assert mean[12] <= 1.25 * mean[6]


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
def test_memory_store_holds_each_text_once(trace):
    """Scaling guard: at n and 2n letters (77 and 293 saves), the memory
    store holds a small constant times the final file's characters,
    each snapshot and journal line once. A copy of the file per save
    would hold hundreds of files, more with every doubling."""
    ratio = {}
    for letters in (6, 12):
        oracle = SingleLetterRuns(letters)
        store = MemoryCheckpointStore()
        LearningPipeline(
            oracle,
            config=GladeConfig(alphabet=oracle.alphabet, trace=trace),
            store=store,
        ).run(oracle.seeds)
        held = sum(map(len, store.snapshots.parts))
        ratio[letters] = held / len(store.snapshots[-1])
        assert ratio[letters] <= 12
    assert ratio[12] <= 1.5 * ratio[6]
