"""The top-level run artifact: everything one learning run produces.

A :class:`RunArtifact` is the durable record of a
:class:`~repro.core.pipeline.LearningPipeline` run — seeds with
provenance and per-seed state, the configuration, the oracle command
(so ``repro resume`` can reconstruct the oracle), per-seed phase-one
results, the translated/merged grammar, accumulated query statistics,
and per-stage wall-clock timings. It holds *live* objects (``Regex``,
``GRoot``, ``Grammar``); :meth:`to_dict`/:meth:`from_dict` convert to
and from the versioned JSON encoding of
:mod:`repro.artifacts.schema`.

The same object doubles as the checkpoint format: the pipeline saves it
after every completed stage (per seed during phase one), and
:meth:`~repro.core.pipeline.LearningPipeline.resume` picks up from
whatever the last save recorded.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.artifacts.schema import (
    SCHEMA_VERSION,
    ArtifactCorrupt,
    ArtifactError,
    from_known_fields,
    grammar_from_dict,
    grammar_to_dict,
    phase1_result_from_dict,
    phase1_result_to_dict,
    phase2_result_from_dict,
    phase2_result_to_dict,
)
from repro.core.glade import GladeConfig
from repro.core.phase1 import Phase1Result
from repro.core.phase2 import Phase2Result
from repro.languages import regex as rx
from repro.languages.cfg import Grammar

#: Pipeline stages in execution order; ``RunArtifact.stage`` names the
#: last *completed* one ("init" before any stage has finished).
STAGES = ("validate", "phase1", "translate", "phase2", "finalize")

#: Seed lifecycle states.
SEED_PENDING = "pending"  # not yet validated against the oracle
SEED_VALIDATED = "validated"  # accepted by the oracle, not yet learned
SEED_LEARNED = "learned"  # phase 1 done on a worker; §6.1 filter pending
SEED_USED = "used"  # phase 1 + chargen completed, kept
SEED_SKIPPED = "skipped"  # covered by an earlier seed's regex (§6.1)


@dataclass
class SeedRecord:
    """One seed input with provenance and lifecycle state.

    ``source`` says where the seed came from (``seeds.txt:3``,
    ``--seed[0]``, a file path, ...) so oracle rejections in large
    ``--seed-dir`` runs are diagnosable. ``queries`` counts the oracle
    queries spent learning this seed (phase 1 + chargen), recorded when
    the seed's checkpoint is written; ``seconds`` is the seed's worker
    wall-clock for the same work.
    """

    text: str
    source: str = ""
    state: str = SEED_PENDING
    queries: int = 0
    seconds: float = 0.0


@dataclass
class RunArtifact:
    """Serializable record of a (possibly in-progress) learning run."""

    seeds: List[SeedRecord]
    config: GladeConfig = field(default_factory=GladeConfig)
    #: Oracle reconstruction info for ``repro resume`` (None when the
    #: oracle was an in-process callable that cannot be persisted).
    oracle_spec: Optional[Dict[str, Any]] = None
    #: Last completed stage; see :data:`STAGES`.
    stage: str = "init"
    status: str = "in_progress"  # "in_progress" | "complete"
    phase1_results: List[Phase1Result] = field(default_factory=list)
    grammar: Optional[Grammar] = None
    phase2_result: Optional[Phase2Result] = None
    oracle_queries: int = 0
    unique_queries: int = 0
    #: Oracle queries spent on speculative work that was discarded:
    #: seeds the §6.1 covered-seed filter dropped after a parallel run
    #: learned them ahead of a covering predecessor, and phase-2 pairs
    #: a worker evaluated that were transitively equated by their turn.
    #: Excluded from ``oracle_queries`` so reported metrics match a
    #: serial run exactly.
    speculative_queries: int = 0
    #: Resolved execution backend + worker count of the (last) phase-1
    #: run, e.g. ``{"backend": "process", "jobs": 4}``.
    execution: Dict[str, Any] = field(default_factory=dict)
    #: Phase-2 execution record and committed-pair progress (schema
    #: v3): ``backend``/``jobs`` of the (last) phase-2 run, ``pairs``
    #: (the plan's total), and ``decisions`` — one ``merged`` /
    #: ``rejected`` / ``skipped`` entry per committed pair, in plan
    #: order. Replaying the decisions against the (deterministic) plan
    #: resumes phase 2 from the last committed pair with zero queries.
    phase2_progress: Dict[str, Any] = field(default_factory=dict)
    #: Per-stage wall-clock seconds, accumulated across resumes.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Versioned observability section (schema v4, ``--trace`` runs
    #: only): spans and the metrics-registry snapshot, see
    #: :mod:`repro.obs.export`. Wall-clock telemetry by nature — never
    #: part of any deterministic comparison surface.
    telemetry: Optional[Dict[str, Any]] = None
    schema_version: int = SCHEMA_VERSION

    # -- derived views ----------------------------------------------------

    def stage_done(self, stage: str) -> bool:
        """True if ``stage`` (and every earlier stage) has completed."""
        if self.stage == "init":
            return False
        return STAGES.index(self.stage) >= STAGES.index(stage)

    def trees(self):
        """Kept trees in seed order (results may arrive out of order
        under parallel execution; the sort is stable for ad-hoc results
        without a ``seed_index``)."""
        ordered = sorted(self.phase1_results, key=lambda r: r.seed_index)
        return [result.root for result in ordered]

    def regexes(self):
        return [root.to_regex() for root in self.trees()]

    def regex(self) -> rx.Regex:
        """The combined phase-one regex R̂ = R̂₁ + ... + R̂ₙ."""
        regexes = self.regexes()
        if not regexes:
            return rx.EPSILON
        if len(regexes) == 1:
            return regexes[0]
        return rx.alt(*regexes)

    def seeds_used(self) -> List[str]:
        return [s.text for s in self.seeds if s.state == SEED_USED]

    def seeds_skipped(self) -> List[str]:
        return [s.text for s in self.seeds if s.state == SEED_SKIPPED]

    def duration_seconds(self) -> float:
        return sum(self.timings.values())

    def require_grammar(self) -> Grammar:
        """The learned grammar, or :class:`ArtifactError` if the run has
        not reached translation yet (resume the run first)."""
        if self.grammar is None:
            raise ArtifactError(
                "artifact has no grammar yet (stage: {}); resume the "
                "run first".format(self.stage)
            )
        return self.grammar

    # -- serialization ----------------------------------------------------

    def sections(self) -> List[Tuple[str, Any, Optional[Callable]]]:
        """The encoding's top-level sections, as ``(key, value, codec)``.

        ``codec`` is None when ``value`` already is JSON data. Otherwise
        ``value`` holds recorded learning results — the
        ``Phase1Result`` list, the ``Grammar``, the ``Phase2Result``,
        each possibly None — and ``codec`` encodes one result. Both
        :meth:`to_dict` and :class:`ArtifactEncoder` read this list, so
        the two encodings cannot drift apart.
        """
        return [
            ("schema_version", self.schema_version, None),
            ("kind", "glade-run", None),
            ("status", self.status, None),
            ("stage", self.stage, None),
            ("seeds", [asdict(record) for record in self.seeds], None),
            ("config", asdict(self.config), None),
            ("oracle", self.oracle_spec, None),
            ("phase1_results", self.phase1_results, phase1_result_to_dict),
            ("grammar", self.grammar, grammar_to_dict),
            ("phase2_result", self.phase2_result, phase2_result_to_dict),
            ("oracle_queries", self.oracle_queries, None),
            ("unique_queries", self.unique_queries, None),
            ("speculative_queries", self.speculative_queries, None),
            ("execution", dict(self.execution), None),
            ("phase2_progress", _copy_progress(self.phase2_progress), None),
            ("timings", dict(self.timings), None),
            ("telemetry", self.telemetry, None),
        ]

    def to_dict(self) -> Dict[str, Any]:
        data = {}
        for key, value, codec in self.sections():
            if codec is not None and isinstance(value, list):
                value = [codec(item) for item in value]
            elif codec is not None and value is not None:
                value = codec(value)
            data[key] = value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunArtifact":
        if not isinstance(data, dict) or data.get("kind") != "glade-run":
            raise ArtifactError(
                "not a glade-run artifact (kind: {!r})".format(
                    data.get("kind") if isinstance(data, dict) else None
                )
            )
        version = data.get("schema_version")
        if version == 1:
            # v1 artifacts upgrade in place: the only structural gap is
            # that phase-1 results carry no seed_index. v1 runs were
            # strictly sequential, so results parallel the "used"
            # seeds in order.
            data = _upgrade_v1(data)
            version = 2
        if version == 2:
            # v2 → v3 adds only the optional ``phase2_progress`` record.
            # A v2 checkpoint either finished phase 2 (stage beyond it)
            # or never started it (v2 builds checkpointed phase 2 only
            # on stage completion), so an empty progress record is
            # exactly right: resume re-runs the stage from its start.
            data = dict(data, schema_version=3)
            version = 3
        if version in (3, 4):
            # v3 → v4 adds only the optional ``telemetry`` section
            # (absent: the run was not traced); v4 → v5 only drops keys
            # the loader ignores (phase-1 ``trace``, phase-2 ``records``
            # and their config switch).
            data = dict(data, schema_version=SCHEMA_VERSION)
            version = SCHEMA_VERSION
        if version != SCHEMA_VERSION:
            raise ArtifactError(
                "artifact schema version {!r} is not supported by this "
                "build (expected {}); re-learn or convert the artifact".format(
                    version, SCHEMA_VERSION
                )
            )
        try:
            stage = data["stage"]
            if stage != "init" and stage not in STAGES:
                raise ArtifactError(
                    "unknown pipeline stage: {!r}".format(stage)
                )
            return cls(
                seeds=[SeedRecord(**record) for record in data["seeds"]],
                config=from_known_fields(GladeConfig, data["config"]),
                oracle_spec=data.get("oracle"),
                stage=stage,
                status=data["status"],
                phase1_results=[
                    phase1_result_from_dict(r) for r in data["phase1_results"]
                ],
                grammar=(
                    grammar_from_dict(data["grammar"])
                    if data["grammar"] is not None
                    else None
                ),
                phase2_result=(
                    phase2_result_from_dict(data["phase2_result"])
                    if data["phase2_result"] is not None
                    else None
                ),
                oracle_queries=data["oracle_queries"],
                unique_queries=data["unique_queries"],
                speculative_queries=data.get("speculative_queries", 0),
                execution=dict(data.get("execution") or {}),
                phase2_progress=_copy_progress(
                    data.get("phase2_progress") or {}
                ),
                timings=dict(data["timings"]),
                telemetry=data.get("telemetry"),
                schema_version=version,
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ArtifactError(
                "malformed run artifact: {!r}".format(exc)
            )


def _upgrade_v1(data: Dict[str, Any]) -> Dict[str, Any]:
    """Upgrade a schema-v1 artifact dict to the current encoding.

    Checkpoints are the one thing the artifact subsystem exists to
    preserve, so a schema bump must not strand in-progress v1 runs.
    Input is not mutated; the added fields (``speculative_queries``,
    ``execution``, per-seed ``seconds``) fall back to the loader's
    defaults."""
    upgraded = dict(data)
    try:
        seeds = data["seeds"]
        results = data["phase1_results"]
    except KeyError as exc:
        raise ArtifactError("malformed run artifact: {!r}".format(exc))
    used = [
        index for index, seed in enumerate(seeds)
        if isinstance(seed, dict) and seed.get("state") == SEED_USED
    ]
    if len(used) != len(results):
        raise ArtifactError(
            "v1 artifact has {} phase-1 results for {} used seeds; "
            "cannot upgrade".format(len(results), len(used))
        )
    upgraded["schema_version"] = 2
    upgraded["phase1_results"] = [
        dict(result, seed_index=seed_index)
        for seed_index, result in zip(used, results)
    ]
    return upgraded


def _copy_progress(progress: Dict[str, Any]) -> Dict[str, Any]:
    """Copy a phase-2 progress record, snapshotting the decision list.

    The pipeline keeps the committer's live decision list in the
    artifact while the stage runs; serialization must not alias it.
    """
    copied = dict(progress)
    if "decisions" in copied:
        copied["decisions"] = list(copied["decisions"])
    return copied


#: The canonical JSON encoding the integrity digest is defined over:
#: sorted keys, no whitespace, ASCII output. Without ``indent`` CPython
#: runs it on the C encoder.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _sha256(canonical: str) -> str:
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def artifact_digest(data: Dict[str, Any]) -> str:
    """Content digest of an artifact dict (integrity key excluded).

    Computed over the canonical compact JSON encoding with sorted keys,
    so the digest is byte-stable across writers; the ``integrity`` key
    itself is excluded to avoid self-reference. A mismatch on load
    means the file was truncated or bit-flipped after the atomic
    rename — the checkpoint store then falls back to the previous
    generation rather than resuming from corrupted state.
    """
    return _sha256(
        _CANONICAL.encode({k: v for k, v in data.items() if k != "integrity"})
    )


class _Encoded(str):
    """Canonical JSON text, joined into an object verbatim."""


def _members(data: Dict[str, Any]) -> List[str]:
    """A JSON object's ``"key":value`` members in canonical (key) order;
    :class:`_Encoded` values are already canonical text."""
    return [
        _CANONICAL.encode(key) + ":" + (
            value if isinstance(value, _Encoded) else _CANONICAL.encode(value)
        )
        for key, value in sorted(data.items())
    ]


class ArtifactEncoder:
    """Encode artifacts to file text, reusing the text of unchanged results.

    Recorded learning results — each ``Phase1Result``, the ``Grammar``
    and the ``Phase2Result`` — are never changed once recorded: trees
    are edited only while their seed is learned, and translation, phase
    two and finalize build new grammars. So the encoder keeps each one's
    canonical text from the previous call, keyed by identity and
    holding a reference to the object (an id cannot be reused while it
    is cached), and drops it once the object has left the artifact (a
    discarded speculative seed takes its result with it). Each call
    encodes only the small sections that do change — seeds, config,
    counters, ``execution``, ``phase2_progress``, ``timings`` and
    ``telemetry`` — so a checkpoint costs what changed, plus the hash and
    the write.
    """

    def __init__(self) -> None:
        self._texts: Dict[int, Tuple[Any, str]] = {}

    def encode(self, artifact: RunArtifact) -> str:
        """The artifact's file text: its canonical encoding with the
        ``integrity`` digest added, one top-level key per line."""
        previous, self._texts = self._texts, {}
        data: Dict[str, Any] = {}
        for key, value, codec in artifact.sections():
            if codec is not None and isinstance(value, list):
                text = "[" + ",".join(
                    self._recorded(item, codec, previous) for item in value
                ) + "]"
            elif codec is not None and value is not None:
                text = self._recorded(value, codec, previous)
            else:
                text = _CANONICAL.encode(value)
            data[key] = _Encoded(text)
        data["integrity"] = _sha256("{" + ",".join(_members(data)) + "}")
        return "{\n" + ",\n".join(_members(data)) + "\n}\n"

    def _recorded(self, obj: Any, codec: Callable, previous) -> _Encoded:
        entry = self._texts.get(id(obj)) or previous.get(id(obj))
        if entry is None:
            if isinstance(obj, Phase2Result):
                # The merged grammar is also the artifact's grammar
                # section until finalize: encode it once, through here.
                data = codec(obj, encode_grammar=lambda grammar: (
                    self._recorded(grammar, grammar_to_dict, previous)
                ))
                text = "{" + ",".join(_members(data)) + "}"
            else:
                text = _CANONICAL.encode(codec(obj))
            entry = (obj, _Encoded(text))
        self._texts[id(obj)] = entry
        return entry[1]


def save_artifact(
    artifact: RunArtifact,
    path: Union[str, os.PathLike],
    encoder: Optional[ArtifactEncoder] = None,
) -> None:
    """Write an artifact as JSON, atomically (write-temp + rename).

    The artifact is encoded once, canonically (sorted keys, compact,
    ASCII — the encoding :func:`artifact_digest` is defined over); the
    digest of those bytes becomes the ``integrity`` key that
    :func:`load_artifact` verifies, and the file holds the same
    members, one top-level key per line. ``encoder`` carries reusable
    section text from one save to the next (a checkpoint store keeps
    one); without it everything is encoded afresh. Pre-digest artifacts
    stay loadable.
    """
    path = pathlib.Path(path)
    if encoder is None:
        encoder = ArtifactEncoder()
    tmp_path = path.with_name(path.name + ".tmp")
    tmp_path.write_text(encoder.encode(artifact))
    os.replace(tmp_path, path)


def load_artifact(path: Union[str, os.PathLike]) -> RunArtifact:
    """Load an artifact written by :func:`save_artifact`.

    Raises :class:`~repro.artifacts.schema.ArtifactCorrupt` when the
    file's embedded content digest does not match its payload (plain
    :class:`~repro.artifacts.schema.ArtifactError` for undecodable
    JSON — also a corruption signal for a file this module wrote).
    """
    return decode_artifact(
        pathlib.Path(path).read_text(), "artifact {}".format(path)
    )


def decode_artifact(text: str, source: str) -> RunArtifact:
    """Decode an artifact's JSON text, verifying its integrity digest.

    The one loader behind :func:`load_artifact` and in-memory
    checkpoints; ``source`` names the text in error messages.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(
            "{} is not valid JSON: {}".format(source, exc)
        )
    if isinstance(data, dict):
        stored = data.pop("integrity", None)
        if stored is not None and stored != artifact_digest(data):
            raise ArtifactCorrupt(
                "{} failed its integrity check (stored digest does not "
                "match content): the file was truncated or corrupted "
                "after writing".format(source)
            )
    return RunArtifact.from_dict(data)
