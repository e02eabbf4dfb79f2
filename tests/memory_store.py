"""A checkpoint store that keeps its file's text in memory.

:class:`MemoryCheckpointStore` writes what
:class:`~repro.artifacts.store.FileCheckpointStore` would write, through
the same :class:`~repro.artifacts.journal.JournalWriter`, and decodes
it through the same loader, so a test that resumes from a mid-run
checkpoint exercises exactly what a crash-and-reload would.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.artifacts.journal import JournalWriter, decode_artifact
from repro.artifacts.run import RunArtifact
from repro.artifacts.store import CheckpointStore


class _SaveTexts:
    """The text of a checkpoint file after each save, built on demand.

    ``parts`` holds every snapshot's text and every journal line once,
    in save order; item ``i`` joins save ``i``'s snapshot with the
    journal lines written since it, up to save ``i``.
    """

    def __init__(self) -> None:
        self.parts: List[str] = []
        #: Each save's slice of ``parts``: (its snapshot, end).
        self._bounds: List[Tuple[int, int]] = []

    def append(self, snapshot: bool, text: str) -> None:
        start = len(self.parts) if snapshot else self._bounds[-1][0]
        self.parts.append(text)
        self._bounds.append((start, len(self.parts)))

    def __len__(self) -> int:
        return len(self._bounds)

    def __getitem__(self, index: int) -> str:
        start, end = self._bounds[index]
        return "".join(self.parts[start:end])


class MemoryCheckpointStore(CheckpointStore):
    """Keep the checkpoint file's text after every save in memory.

    ``snapshots[i]`` is the whole text :class:`FileCheckpointStore`
    would hold after save ``i``, a snapshot and the journal lines
    written since it, joined when asked for: the store keeps each
    snapshot and journal line once, not a copy of the file per save.
    ``snapshot(i)`` decodes that text through the loader
    :func:`~repro.artifacts.journal.load_artifact` uses, digests and
    journal replay included, into a fresh :class:`RunArtifact` —
    resuming from it reproduces a crash that lost everything after that
    save.
    """

    def __init__(self):
        self.snapshots = _SaveTexts()
        self._writer = JournalWriter()

    def save(self, artifact: RunArtifact) -> None:
        self.snapshots.append(*self._writer.encode(artifact))

    def load(self) -> Optional[RunArtifact]:
        if not self.snapshots:
            return None
        return self.snapshot(-1)

    def snapshot(self, index: int) -> RunArtifact:
        return decode_artifact(
            self.snapshots[index], "checkpoint snapshot {}".format(index)
        )
