"""The checkpoint file: a snapshot, then an append-only journal.

A checkpoint store turns every save of a run's artifact into file text
through a :class:`JournalWriter`. A store's first save, and every save
that changes the artifact's ``stage`` or ``status``, writes a
*snapshot*: the artifact's canonical JSON encoding, one top-level key
per line, with an ``integrity`` digest of the rest (see
:func:`artifact_digest`). A completed run's file is one snapshot, a
plain artifact. Every other save appends one *journal record*: a JSON
line that holds only what changed since the previous save, so a save
costs what changed, not what the run holds. A record's keys:

- ``set``: sections replaced whole, such as the counters,
  ``execution`` and ``timings``, or any section that changed in a way
  the keys below cannot say;
- ``seeds``: ``[index, record]`` pairs, one per changed seed record;
- ``phase1_results``: the seed indices of the dropped results
  (``drop``) and the added results (``add``); the list stays ordered
  by seed index;
- ``decisions``: phase-2 decisions appended to
  ``phase2_progress["decisions"]``;
- ``telemetry``: in traced runs, the spans closed since the previous
  save (``spans``, each with its ``shard``), the shards discarded since
  (``discarded``), and the rest of the section as it is now
  (``version``, ``metrics``, ``dropped_spans``).

Each record carries a ``digest``: the SHA-256 of the previous record's
digest followed by the record's canonical encoding without it. The
first record chains to the snapshot's ``integrity`` digest. A load
verifies the snapshot, then replays the records onto it until one is
torn (no final newline), unreadable or off the chain, and cuts the tail
there: it returns the artifact as the last good record left it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import operator
import os
import pathlib
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.artifacts.run import RunArtifact, section_data
from repro.artifacts.schema import ArtifactCorrupt, ArtifactError
from repro.obs.export import LiveTelemetry
from repro.obs.trace import _natural_key

#: The canonical JSON encoding every digest is defined over: sorted
#: keys, no whitespace, ASCII output. Without ``indent`` CPython runs
#: it on the C encoder.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODER = json.JSONDecoder()

_BY_SEED_INDEX = operator.itemgetter("seed_index")


def _sha256(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def artifact_digest(data: Dict[str, Any]) -> str:
    """Content digest of an artifact dict (integrity key excluded).

    Computed over the canonical compact JSON encoding with sorted keys,
    so the digest is byte-stable across writers; the ``integrity`` key
    itself is excluded to avoid self-reference. A mismatch on load
    means the snapshot was truncated or bit-flipped after the atomic
    rename — the checkpoint store then falls back to the previous
    generation rather than resuming from corrupted state.
    """
    return _sha256(
        _CANONICAL.encode({k: v for k, v in data.items() if k != "integrity"})
    )


class _Text(str):
    """Canonical JSON text, used verbatim by :func:`_text`."""


class _Members(dict):
    """A JSON object whose member values may be :class:`_Text` or
    :class:`_Members`; :func:`_text` encodes it member by member."""


def _member_texts(members: Dict[str, Any]) -> List[str]:
    """An object's ``"key":value`` texts in canonical (key) order."""
    return [
        _CANONICAL.encode(key) + ":" + _text(members[key])
        for key in sorted(members)
    ]


def _text(value: Any) -> str:
    """The canonical JSON text of ``value``."""
    if isinstance(value, _Text):
        return value
    if isinstance(value, _Members):
        return "{" + ",".join(_member_texts(value)) + "}"
    return _CANONICAL.encode(value)


def _members(data: Dict[str, Any]) -> Dict[str, Any]:
    """``data``, as :class:`_Members` if a member value is already text;
    a plain dict is encoded in one call."""
    if any(isinstance(value, (_Text, _Members)) for value in data.values()):
        return _Members(data)
    return data


def _snapshot_text(members: Dict[str, Any]) -> Tuple[str, str]:
    """A snapshot's file text and digest: the members one per line, with
    the ``integrity`` digest of the canonical encoding the other
    members joined make."""
    texts = {key: _text(value) for key, value in members.items()}

    def joined(separator: str) -> str:
        return separator.join(
            _CANONICAL.encode(key) + ":" + texts[key] for key in sorted(texts)
        )

    digest = _sha256("{" + joined(",") + "}")
    texts["integrity"] = _CANONICAL.encode(digest)
    return "{\n" + joined(",\n") + "\n}\n", digest


class JournalWriter:
    """Encode one store's successive saves of a run's artifact.

    :meth:`encode` returns ``(snapshot, text)``: a snapshot's whole file
    text, or one journal line to append. To say what changed, the
    writer keeps what the previous save wrote: a copy of each small
    section's value, each seed record's fields, the phase-1 result
    list, the identity of the grammar, the phase-2 result and the
    telemetry, the decision list and its length, and in a traced run
    the tracer's mark and the canonical text of every span it holds, so
    that each span is encoded once however many snapshots hold it. It
    relies on the pipeline's contract for recorded results: a grammar
    or phase-2 result that stays the same object is unchanged, a
    phase-1 result is never edited once recorded, and a decision list
    that stays the same object only grows.
    """

    def __init__(self) -> None:
        #: The digest the next record chains to; None before any save.
        self._digest: Optional[str] = None
        self._telemetry: Any = None

    def encode(self, artifact: RunArtifact) -> Tuple[bool, str]:
        if self._digest is None or (artifact.stage, artifact.status) != (
            self._stage, self._status
        ):
            return True, self._snapshot(artifact)
        record: Dict[str, Any] = {}
        replaced: Dict[str, Any] = {}
        for key, value, codec in artifact.sections():
            track = self._TRACK.get(key)
            if track is not None:
                track(self, key, value, codec, record, replaced)
            elif key not in ("stage", "status") and value != self._small[key]:
                self._small[key] = _copy(value)
                replaced[key] = section_data(value, codec)
        if replaced:
            record["set"] = _members(replaced)
        body = _text(_members(record))
        self._digest = _sha256(self._digest + body)
        rest = "," + body[1:] if body != "{}" else "}"
        return False, '{"digest":"' + self._digest + '"' + rest + "\n"

    def _snapshot(self, artifact: RunArtifact) -> str:
        self._stage, self._status = artifact.stage, artifact.status
        members: Dict[str, Any] = {}
        self._small = {}
        for key, value, codec in artifact.sections():
            if key == "telemetry":
                members[key] = self._telemetry_section(value, codec)
            else:
                members[key] = section_data(value, codec)
            if key not in self._TRACK:
                self._small[key] = _copy(value)
        text, self._digest = _snapshot_text(members)
        self._seeds = _seed_rows(artifact.seeds)
        self._results = list(artifact.phase1_results)
        self._objects = {
            "grammar": artifact.grammar,
            "phase2_result": artifact.phase2_result,
        }
        self._remember_progress(artifact.phase2_progress)
        return text

    # -- what changed, section by section --------------------------------

    def _seeds_changed(self, _key, seeds, codec, record, replaced):
        rows = _seed_rows(seeds)
        if len(rows) != len(self._seeds):
            replaced["seeds"] = [codec(seed) for seed in seeds]
        else:
            changed = [
                [index, codec(seeds[index])]
                for index, (now, before) in enumerate(zip(rows, self._seeds))
                if now != before
            ]
            if changed:
                record["seeds"] = changed
        self._seeds = rows

    def _results_changed(self, _key, results, codec, record, replaced):
        """A changed phase-1 result list, as drops and adds when
        replaying those onto the previous list rebuilds it exactly, and
        whole otherwise."""
        before = self._results
        if len(results) == len(before) and all(
            map(operator.is_, results, before)
        ):
            return
        self._results = list(results)
        now = {id(result) for result in results}
        kept = {id(result) for result in before}
        added = [result for result in results if id(result) not in kept]
        dropped = {r.seed_index for r in before if id(r) not in now}
        replayed = sorted(
            [r for r in before if r.seed_index not in dropped] + added,
            key=operator.attrgetter("seed_index"),
        )
        if len(replayed) == len(results) and all(
            map(operator.is_, replayed, results)
        ):
            record["phase1_results"] = {
                "drop": sorted(dropped),
                "add": [codec(result) for result in added],
            }
        else:
            replaced["phase1_results"] = [codec(result) for result in results]

    def _result_changed(self, key, result, codec, record, replaced):
        """The grammar or the phase-2 result: replaced, never edited."""
        if result is not self._objects[key]:
            self._objects[key] = result
            replaced[key] = section_data(result, codec)

    def _progress_changed(self, _key, progress, codec, record, replaced):
        decisions = progress.get("decisions")
        count = len(decisions or ())
        if (
            _progress_head(progress) == self._progress
            and decisions is self._decisions
            and count >= self._n_decisions
        ):
            if count > self._n_decisions:
                record["decisions"] = decisions[self._n_decisions:]
                self._n_decisions = count
        else:
            replaced["phase2_progress"] = codec(progress)
            self._remember_progress(progress)

    def _remember_progress(self, progress: Dict[str, Any]) -> None:
        self._progress = copy.deepcopy(_progress_head(progress))
        self._decisions = progress.get("decisions")
        self._n_decisions = len(self._decisions or ())

    def _telemetry_changed(self, _key, telemetry, codec, record, replaced):
        if telemetry is not self._telemetry:
            replaced["telemetry"] = self._telemetry_section(telemetry, codec)
        elif isinstance(telemetry, LiveTelemetry):
            texts, discarded = self._follow(telemetry)
            change = _Members(telemetry.head())
            if texts:
                change["spans"] = _Text("[" + ",".join(texts) + "]")
            if discarded:
                change["discarded"] = discarded
            record["telemetry"] = change

    def _telemetry_section(self, telemetry, codec) -> Any:
        """The whole telemetry section, with a live one's spans from the
        texts the writer holds, and the writer following it from now."""
        if telemetry is not self._telemetry:
            # Follow a new telemetry source from the start of its log.
            self._telemetry = telemetry
            self._mark = (0, 0)
            self._shards: Dict[str, List[str]] = {}
        if not isinstance(telemetry, LiveTelemetry):
            return section_data(telemetry, codec)
        self._follow(telemetry)
        spans = ",".join(
            text
            for shard in sorted(self._shards, key=_natural_key)
            for text in self._shards[shard]
        )
        return _Members(telemetry.head(), spans=_Text("[" + spans + "]"))

    def _follow(self, telemetry: LiveTelemetry) -> Tuple[List[str], List[str]]:
        """Take the tracer's changes since the writer's mark into the
        held span texts; the new spans' texts, one comma-joined run per
        shard, and the discarded shards. Replaying them, discards first,
        onto the held texts gives the tracer's snapshot, shard by
        shard."""
        spans, discarded, self._mark = telemetry.tracer.since(self._mark)
        for shard in discarded:
            self._shards.pop(shard, None)
        runs: Dict[str, List[Dict[str, Any]]] = {}
        for span in spans:
            runs.setdefault(span["shard"], []).append(span)
        texts = []
        for shard, run in runs.items():
            text = _CANONICAL.encode(run)[1:-1]
            self._shards.setdefault(shard, []).append(text)
            texts.append(text)
        return texts, discarded

    #: Sections tracked by their own rule; every other section but the
    #: stage and status (whose change makes a snapshot) is compared by
    #: value and replaced whole.
    _TRACK = {
        "seeds": _seeds_changed,
        "phase1_results": _results_changed,
        "grammar": _result_changed,
        "phase2_result": _result_changed,
        "phase2_progress": _progress_changed,
        "telemetry": _telemetry_changed,
    }


_SCALARS = (int, float, str, bool, type(None))


def _copy(value: Any) -> Any:
    """A copy of a small section's value that no later edit of the
    artifact reaches: scalars and flat dicts of them (the counters and
    ``timings`` at every save) without ``deepcopy``'s walk."""
    if isinstance(value, _SCALARS):
        return value
    if type(value) is dict and all(
        isinstance(item, _SCALARS) for item in value.values()
    ):
        return dict(value)
    return copy.deepcopy(value)


def _seed_rows(seeds) -> List[tuple]:
    return [tuple(vars(seed).values()) for seed in seeds]


def _progress_head(progress: Dict[str, Any]) -> Dict[str, Any]:
    return {key: val for key, val in progress.items() if key != "decisions"}


class _Replay:
    """Applies journal records to a snapshot's data, in order.

    A traced run's spans are regrouped by shard once, on the first
    record that changes them, and flattened back into the snapshot's
    order (main shard first, then shards in natural order) at the end.
    """

    def __init__(self, data: Dict[str, Any]) -> None:
        self.data = data
        self.shards: Optional[Dict[str, List[Dict[str, Any]]]] = None

    def apply(self, record: Dict[str, Any]) -> None:
        data = self.data
        for key, value in record.get("set", {}).items():
            data[key] = value
            if key == "telemetry":
                self.shards = None
        for index, seed in record.get("seeds", ()):
            data["seeds"][index] = seed
        results = record.get("phase1_results")
        if results is not None:
            drop = set(results["drop"])
            kept = [
                result for result in data["phase1_results"]
                if result["seed_index"] not in drop
            ]
            data["phase1_results"] = sorted(
                kept + results["add"], key=_BY_SEED_INDEX
            )
        if "decisions" in record:
            data["phase2_progress"]["decisions"].extend(record["decisions"])
        change = record.get("telemetry")
        if change is not None:
            section = data["telemetry"]
            if self.shards is None:
                self.shards = {}
                for span in section["spans"]:
                    self.shards.setdefault(span["shard"], []).append(span)
            for shard in change.get("discarded", ()):
                self.shards.pop(shard, None)
            for span in change.get("spans", ()):
                self.shards.setdefault(span["shard"], []).append(span)
            for key, value in change.items():
                if key not in ("spans", "discarded"):
                    section[key] = value

    def finish(self) -> Dict[str, Any]:
        if self.shards is not None:
            self.data["telemetry"]["spans"] = [
                span
                for shard in sorted(self.shards, key=_natural_key)
                for span in self.shards[shard]
            ]
        return self.data


def _chained(line: str, head: str) -> Optional[Tuple[Dict[str, Any], str]]:
    """A journal line's record and digest, or None unless it parses and
    its digest chains to ``head``."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    digest = record.pop("digest", None)
    if digest != _sha256(head + _CANONICAL.encode(record)):
        return None
    return record, digest


def read_checkpoint(text: str, source: str) -> Tuple[Any, int]:
    """The data a checkpoint file's text holds, and how many journal
    records were cut from its tail.

    The snapshot must verify against its ``integrity`` digest
    (:class:`~repro.artifacts.schema.ArtifactCorrupt` otherwise; plain
    :class:`~repro.artifacts.schema.ArtifactError` for undecodable
    JSON). Snapshots written before the digest existed load unverified,
    and without a digest to chain to, any record after them is cut.
    """
    start = len(text) - len(text.lstrip())
    try:
        data, end = _DECODER.raw_decode(text, start)
    except json.JSONDecodeError as exc:
        raise ArtifactError("{} is not valid JSON: {}".format(source, exc))
    if not isinstance(data, dict):
        return data, 0
    head = data.pop("integrity", None)
    if head is not None and head != artifact_digest(data):
        raise ArtifactCorrupt(
            "{} failed its integrity check (stored digest does not "
            "match content): the file was truncated or corrupted "
            "after writing".format(source)
        )
    rest = text[end:]
    if rest.startswith("\n"):
        rest = rest[1:]
    # Each record ends with a newline, so the last piece is empty
    # unless the last record was torn.
    *lines, torn = rest.split("\n")
    lines = [line for line in lines if line.strip()]
    replay = _Replay(data)
    good = 0
    try:
        for line in lines:
            chained = None if head is None else _chained(line, head)
            if chained is None:
                break
            record, head = chained
            replay.apply(record)
            good += 1
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise ArtifactError(
            "{} holds a malformed journal record: {!r}".format(source, exc)
        )
    return replay.finish(), len(lines) - good + bool(torn.strip())


def decode_checkpoint(text: str, source: str) -> Tuple[RunArtifact, int]:
    """Decode a checkpoint file's text into an artifact, with the number
    of journal records cut from its tail; ``source`` names the text in
    error messages."""
    data, cut = read_checkpoint(text, source)
    return RunArtifact.from_dict(data), cut


def decode_artifact(text: str, source: str) -> RunArtifact:
    """:func:`decode_checkpoint` without the cut count: the one loader
    behind :func:`load_artifact` and in-memory checkpoints."""
    return decode_checkpoint(text, source)[0]


def load_artifact(path: Union[str, os.PathLike]) -> RunArtifact:
    """Load an artifact or checkpoint file (see :func:`read_checkpoint`)."""
    return decode_artifact(
        pathlib.Path(path).read_text(), "artifact {}".format(path)
    )


def replace_file(path: Union[str, os.PathLike], text: str) -> None:
    """Write ``text`` to ``path`` atomically: write a temp file beside
    it, then rename it over ``path``."""
    path = pathlib.Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    tmp_path.write_text(text)
    os.replace(tmp_path, path)


def save_artifact(
    artifact: RunArtifact, path: Union[str, os.PathLike]
) -> None:
    """Write an artifact as one snapshot, atomically.

    The file holds the canonical encoding's members (sorted keys,
    compact, ASCII), one top-level key per line, plus the ``integrity``
    digest :func:`load_artifact` verifies.
    """
    replace_file(path, _snapshot_text(artifact.to_dict())[0])
