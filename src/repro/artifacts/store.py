"""Pluggable checkpoint stores for the learning pipeline.

The pipeline calls :meth:`CheckpointStore.save` after every completed
stage, every seed during phase one and every committed pair during
phase two. A store decides what durability means:
:class:`FileCheckpointStore` keeps one checkpoint file on disk (the
CLI's ``learn --out`` / ``resume`` path);
:class:`NullCheckpointStore` does nothing (the default for in-process
:func:`~repro.core.glade.learn_grammar` calls, which then pay zero
serialization overhead). The file store writes through a
:class:`~repro.artifacts.journal.JournalWriter`: a snapshot at its
first save and whenever the stage or status changes, and one journal
line holding what changed at every other save, so a save costs what
changed rather than the whole run so far.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.artifacts.journal import (
    JournalWriter,
    decode_checkpoint,
    replace_file,
)
from repro.artifacts.run import RunArtifact
from repro.artifacts.schema import ArtifactError


def _append(path: Union[str, os.PathLike], data: bytes) -> None:
    """Append ``data`` to ``path`` and hand it to the OS (no fsync)."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


class CheckpointStore:
    """Interface: persist run artifacts and load the latest one back."""

    def save(self, artifact: RunArtifact) -> None:
        raise NotImplementedError

    def load(self) -> Optional[RunArtifact]:
        """Return the most recently saved artifact, or None if none exists."""
        raise NotImplementedError


class NullCheckpointStore(CheckpointStore):
    """A store that never persists anything."""

    def save(self, artifact: RunArtifact) -> None:
        pass

    def load(self) -> Optional[RunArtifact]:
        return None


class FileCheckpointStore(CheckpointStore):
    """Persist checkpoints to one file: a snapshot plus a journal.

    A snapshot replaces the file atomically (write-to-temp +
    ``os.replace``), so a crash mid-write leaves the previous checkpoint
    intact rather than a truncated file, and first rotates the file it
    replaces to ``<path>.prev``, the *last-good generation*. Every other
    save appends one journal line and flushes it to the OS before it
    returns, so the file alone holds the whole checkpoint.

    :meth:`load` replays the journal onto the snapshot. A torn or
    corrupt journal tail is cut at the last good record, and
    :attr:`cut_records` counts what was cut. A snapshot that fails
    verification — truncated by a dying disk, bit-flipped, hand-edited
    — makes the load fall back to the previous generation instead of
    refusing to resume, recording the fallback in
    :attr:`recovered_from` so the CLI can tell the user. Resuming from
    an earlier checkpoint merely re-runs whatever the lost saves had
    added; completed stages re-issue zero queries.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = path
        #: Set by :meth:`load` when the current checkpoint was corrupt
        #: and the previous generation was loaded instead.
        self.recovered_from: Optional[str] = None
        #: Set by :meth:`load`: journal records cut from the tail of
        #: the file it loaded.
        self.cut_records = 0
        self._writer = JournalWriter()

    @property
    def previous_path(self) -> str:
        return str(self.path) + ".prev"

    def save(self, artifact: RunArtifact) -> None:
        snapshot, text = self._writer.encode(artifact)
        if not snapshot:
            _append(self.path, text.encode("ascii"))
            return
        if os.path.exists(self.path):
            # The rotation is itself atomic; a crash between it and the
            # replace leaves .prev as the newest complete checkpoint,
            # which load() then serves.
            os.replace(self.path, self.previous_path)
        replace_file(self.path, text)

    def load(self) -> Optional[RunArtifact]:
        self.recovered_from = None
        self.cut_records = 0
        if os.path.exists(self.path):
            try:
                return self._load(self.path)
            except ArtifactError as current_error:
                if not os.path.exists(self.previous_path):
                    raise
                try:
                    artifact = self._load(self.previous_path)
                except ArtifactError:
                    # Both generations bad: report the current file's
                    # failure, which is the actionable one.
                    raise current_error from None
        elif os.path.exists(self.previous_path):
            # The current file vanished (crash between rotation and
            # replace): the previous generation is the newest checkpoint.
            artifact = self._load(self.previous_path)
        else:
            return None
        self.recovered_from = self.previous_path
        return artifact

    def _load(self, path: Union[str, os.PathLike]) -> RunArtifact:
        with open(path) as handle:
            text = handle.read()
        artifact, self.cut_records = decode_checkpoint(
            text, "artifact {}".format(path)
        )
        return artifact
