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
after every completed stage, every seed during phase one and every
committed pair during phase two, and
:meth:`~repro.core.pipeline.LearningPipeline.resume` picks up from
whatever the last save recorded. :meth:`RunArtifact.sections` lists the
encoding's top-level sections once for both :meth:`to_dict` and the
checkpoint file of :mod:`repro.artifacts.journal`, which stores a
snapshot of :meth:`to_dict` and then only what each save changed.
While a traced run goes on, ``telemetry`` holds a
:class:`~repro.obs.export.LiveTelemetry`, which the encoding builds
into the section.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.artifacts.schema import (
    SCHEMA_VERSION,
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
from repro.obs.export import LiveTelemetry

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
    #: :mod:`repro.obs.export`; a ``LiveTelemetry`` while the pipeline
    #: runs. Wall-clock telemetry by nature — never part of any
    #: deterministic comparison surface.
    telemetry: Optional[Any] = None
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
        it encodes ``value`` (each item of a list value) into JSON data;
        a None value stays None. Both :meth:`to_dict` and the checkpoint
        journal (:mod:`repro.artifacts.journal`) read this list, so the
        two encodings cannot drift apart.
        """
        return [
            ("schema_version", self.schema_version, None),
            ("kind", "glade-run", None),
            ("status", self.status, None),
            ("stage", self.stage, None),
            ("seeds", self.seeds, _fields),
            ("config", self.config, _fields),
            ("oracle", self.oracle_spec, None),
            ("phase1_results", self.phase1_results, phase1_result_to_dict),
            ("grammar", self.grammar, grammar_to_dict),
            ("phase2_result", self.phase2_result, phase2_result_to_dict),
            ("oracle_queries", self.oracle_queries, None),
            ("unique_queries", self.unique_queries, None),
            ("speculative_queries", self.speculative_queries, None),
            ("execution", self.execution, copy.deepcopy),
            ("phase2_progress", self.phase2_progress, _copy_progress),
            ("timings", self.timings, dict),
            ("telemetry", self.telemetry, _telemetry_section),
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            key: section_data(value, codec)
            for key, value, codec in self.sections()
        }

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


def section_data(value: Any, codec: Optional[Callable]) -> Any:
    """One :meth:`RunArtifact.sections` entry's JSON data."""
    if codec is not None and isinstance(value, list):
        return [codec(item) for item in value]
    if codec is not None and value is not None:
        return codec(value)
    return value


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


def _fields(record: Any) -> Dict[str, Any]:
    """A flat dataclass's fields as a new dict: ``asdict`` without its
    deep copy, which the scalar fields of seed records and the config
    do not need."""
    return {item.name: getattr(record, item.name) for item in fields(record)}


def _telemetry_section(telemetry: Any) -> Dict[str, Any]:
    """A telemetry section, built in full from a live one."""
    if isinstance(telemetry, LiveTelemetry):
        return telemetry.section()
    return telemetry


def _copy_progress(progress: Dict[str, Any]) -> Dict[str, Any]:
    """Copy a phase-2 progress record, snapshotting the decision list.

    The pipeline keeps the committer's live decision list in the
    artifact while the stage runs; serialization must not alias it.
    """
    copied = dict(progress)
    if "decisions" in copied:
        copied["decisions"] = list(copied["decisions"])
    return copied
