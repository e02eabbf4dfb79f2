"""Pluggable checkpoint stores for the learning pipeline.

The pipeline calls :meth:`CheckpointStore.save` after every completed
stage (per seed during phase one). A store decides what durability
means: :class:`FileCheckpointStore` writes the JSON artifact atomically
to disk (the CLI's ``learn --out`` / ``resume`` path);
:class:`MemoryCheckpointStore` keeps the same file text in memory —
integrity digest included — and decodes snapshots through the same
digest-checking loader, so tests that resume from a mid-run snapshot
exercise exactly what a crash-and-reload would;
:class:`NullCheckpointStore` does nothing (the default for in-process
:func:`~repro.core.glade.learn_grammar` calls, which then pay zero
serialization overhead). Both persisting stores encode through one
:class:`~repro.artifacts.run.ArtifactEncoder` per store, so a save
re-encodes only what changed since the previous one.
"""

from __future__ import annotations

import os
from typing import List, Optional, Union

from repro.artifacts.run import (
    ArtifactEncoder,
    RunArtifact,
    decode_artifact,
    load_artifact,
    save_artifact,
)
from repro.artifacts.schema import ArtifactError


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


class MemoryCheckpointStore(CheckpointStore):
    """Keep every checkpoint's file text in memory, for tests.

    ``snapshots`` grows by one entry per save: the text
    :class:`FileCheckpointStore` would have written, ``integrity``
    digest included. ``snapshot(i)`` decodes entry ``i`` through the
    loader :func:`~repro.artifacts.run.load_artifact` uses, digest check
    included, into a fresh :class:`RunArtifact` — resuming from it
    reproduces a crash that lost everything after that save.
    """

    def __init__(self):
        self.snapshots: List[str] = []
        self._encoder = ArtifactEncoder()

    def save(self, artifact: RunArtifact) -> None:
        self.snapshots.append(self._encoder.encode(artifact))

    def load(self) -> Optional[RunArtifact]:
        if not self.snapshots:
            return None
        return self.snapshot(-1)

    def snapshot(self, index: int) -> RunArtifact:
        return decode_artifact(
            self.snapshots[index], "checkpoint snapshot {}".format(index)
        )


class FileCheckpointStore(CheckpointStore):
    """Persist checkpoints to one JSON file, atomically, with a spare.

    Each save overwrites the file via write-to-temp + ``os.replace``,
    so a crash mid-write leaves the previous checkpoint intact rather
    than a truncated file. The save also rotates the previous
    checkpoint to ``<path>.prev`` (the *last-good generation*): every
    artifact embeds a content digest (see
    :func:`~repro.artifacts.run.save_artifact`), and when the current
    file fails verification on load — truncated by a dying disk,
    bit-flipped, hand-edited — :meth:`load` falls back to the previous
    generation instead of refusing to resume, recording the fallback in
    :attr:`recovered_from` so the CLI can tell the user. Resuming from
    the previous generation merely re-runs whatever the lost save had
    added; completed stages re-issue zero queries.

    Its :class:`~repro.artifacts.run.ArtifactEncoder` encodes each
    recorded phase-1 result, grammar and phase-2 result once, and
    reuses that text while the object stays in the artifact.
    """

    def __init__(
        self, path: Union[str, os.PathLike], keep_previous: bool = True
    ):
        self.path = path
        self.keep_previous = keep_previous
        #: Set by :meth:`load` when the current checkpoint was corrupt
        #: and the previous generation was loaded instead.
        self.recovered_from: Optional[str] = None
        self._encoder = ArtifactEncoder()

    @property
    def previous_path(self) -> str:
        return str(self.path) + ".prev"

    def save(self, artifact: RunArtifact) -> None:
        if self.keep_previous and os.path.exists(self.path):
            # The rotation is itself atomic; a crash between the two
            # renames leaves .prev as the newest complete checkpoint,
            # which load() then serves.
            os.replace(self.path, self.previous_path)
        save_artifact(artifact, self.path, self._encoder)

    def load(self) -> Optional[RunArtifact]:
        self.recovered_from = None
        if os.path.exists(self.path):
            try:
                return load_artifact(self.path)
            except ArtifactError as current_error:
                if not (
                    self.keep_previous
                    and os.path.exists(self.previous_path)
                ):
                    raise
                try:
                    artifact = load_artifact(self.previous_path)
                except ArtifactError:
                    # Both generations bad: report the current file's
                    # failure, which is the actionable one.
                    raise current_error from None
                self.recovered_from = self.previous_path
                return artifact
        if self.keep_previous and os.path.exists(self.previous_path):
            # The current file vanished (crash between rotation and
            # write): the previous generation is the newest checkpoint.
            artifact = load_artifact(self.previous_path)
            self.recovered_from = self.previous_path
            return artifact
        return None
