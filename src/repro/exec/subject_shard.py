"""Subject-sharded learning: one task per program under test.

The unified evaluation harness (:mod:`repro.evaluation.harness`) learns
each of the §8.3 subjects' grammars independently — there is no shared
state between subjects at all, which makes the fan-out simpler than the
seed/run shards: a task is just the subject's *name* plus the learning
configuration, and the worker reconstructs everything else from the
program registry. That keeps payloads trivially picklable for the
process backend (the subject's ``accepts`` is a module-level function,
so the oracle never crosses the wire at all).

Results come back as the run artifact's JSON encoding plus the worker's
wall-clock, so the parent can persist them straight into the harness's
artifact cache and derive every figure's metrics without re-learning.
Determinism is inherited from the pipeline: a subject's artifact is
byte-identical whether it was learned inline, on a thread, or in a
worker process (per-seed star-id blocks, run-local residual seeds).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, Sequence

from repro.artifacts.run import RunArtifact
from repro.core.glade import GladeConfig
from repro.core.pipeline import LearningPipeline
from repro.exec.backends import Executor
from repro.obs.metrics import MetricsRegistry, histogram_total

#: Worker functions executor backends run as task payloads (walked by
#: detlint's PAR001 shared-state race detector).
TASK_ENTRY_POINTS = ("learn_subject_task",)


@dataclass
class SubjectResult:
    """One subject's learning outcome, decoded on the parent side.

    ``seconds`` is a derived view of ``telemetry`` (the worker's
    metrics-registry snapshot) — the registry is the single timing
    source; no hand-rolled perf-counter pairs ride the wire.
    """

    name: str
    artifact: RunArtifact
    seconds: float
    #: The worker's wire telemetry: ``{"metrics": <registry snapshot>}``.
    telemetry: Dict[str, Any] = field(default_factory=dict)


def subject_payload(name: str, config: GladeConfig) -> Dict[str, Any]:
    """Package one subject's learning work as a picklable task."""
    return {"name": name, "config": asdict(config)}


def learn_subject_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: learn one subject's grammar from its name.

    Runs the full staged pipeline (no checkpoint store — the harness's
    artifact cache is the durability layer) and returns the artifact in
    its JSON encoding so the result crosses process boundaries without
    custom pickling.
    """
    from repro.programs import get_subject

    name = payload["name"]
    config = GladeConfig(**payload["config"])
    subject = get_subject(name)
    registry = MetricsRegistry()
    registry.add("exec.subject.tasks")
    with registry.timer("subject.seconds"):
        pipeline = LearningPipeline(subject.accepts, config=config)
        artifact = pipeline.run(subject.seeds)
    return {
        "name": name,
        "artifact": artifact.to_dict(),
        "telemetry": {"metrics": registry.snapshot()},
    }


def run_subjects(
    executor: Executor, payloads: Sequence[Dict[str, Any]]
) -> Iterator[SubjectResult]:
    """Drive subject tasks through an executor, decoding results.

    Yields in completion order; callers key results by ``name`` (every
    subject appears at most once per batch), so ordering is free.
    """
    for _index, raw in executor.unordered(learn_subject_task, payloads):
        telemetry = raw.get("telemetry") or {}
        yield SubjectResult(
            name=raw["name"],
            artifact=RunArtifact.from_dict(raw["artifact"]),
            seconds=histogram_total(
                telemetry.get("metrics"), "subject.seconds"
            ),
            telemetry=telemetry,
        )
