"""Subject-sharded evaluation: one task per program under test.

The unified evaluation harness (:mod:`repro.evaluation.harness`)
evaluates each of the §8.3 subjects independently — there is no shared
state between subjects at all, which makes the fan-out simpler than the
seed/run shards: a task is the subject's *name*, its learning
configuration and the suite parameters, plus its artifact when the
harness's cache holds one. The worker rebuilds the subject from the
program registry, which keeps payloads picklable for the process
backend (the oracle never crosses the wire at all).

A task learns the subject only when no artifact came with it, then
derives the subject's metrics. Artifacts travel in their JSON encoding,
so they cross process boundaries without custom pickling. Determinism
is inherited from the pipeline and the fixed-seed derivation: artifact
and metrics are byte-identical whether the task ran inline, on a
thread, or in a worker process.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from typing import Any, Dict, Optional

from repro.artifacts.run import RunArtifact
from repro.artifacts.suite import SuiteParams
from repro.core.glade import GladeConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

#: Worker functions executor backends run as task payloads (walked by
#: detlint's PAR001 shared-state race detector).
TASK_ENTRY_POINTS = ("evaluate_subject_task",)


def subject_payload(
    name: str,
    config: GladeConfig,
    params: SuiteParams,
    artifact: Optional[RunArtifact],
) -> Dict[str, Any]:
    """Package one subject's evaluation as a picklable task. A cached
    artifact travels without its telemetry, which derivation never
    reads and which holds megabytes of spans on a traced run."""
    return {
        "name": name,
        "config": asdict(config),
        "params": asdict(params),
        "artifact": (
            None if artifact is None
            else replace(artifact, telemetry=None).to_dict()
        ),
    }


def evaluate_subject_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: learn one subject unless its artifact came
    with the payload (no checkpoint store — the harness's artifact cache
    is the durability layer), then derive its metrics.

    Returns the learned artifact's encoding (``None`` for a cached
    subject), the ``SubjectMetrics`` and ``SubjectPerf``, and the
    telemetry: the registry snapshot (``subject.seconds`` times the
    learning) and, when traced, the derivation's ``subject:<name>``
    span.
    """
    # Imported here: the harness imports this module.
    from repro.evaluation.harness import derive_subject_metrics, learn_subject
    from repro.programs import get_subject

    name = payload["name"]
    config = GladeConfig(**payload["config"])
    registry = MetricsRegistry()
    registry.add("exec.subject.tasks")
    tracer = Tracer() if config.trace else NULL_TRACER
    cached = payload["artifact"]
    if cached is None:
        with registry.timer("subject.seconds"):
            artifact = learn_subject(get_subject(name), config)
    else:
        artifact = RunArtifact.from_dict(cached)
    with tracer.span("subject:" + name, cat="suite"):
        metrics, perf = derive_subject_metrics(
            name, artifact, SuiteParams(**payload["params"])
        )
    return {
        "name": name,
        "artifact": artifact.to_dict() if cached is None else None,
        "metrics": metrics,
        "perf": perf,
        "telemetry": {
            "metrics": registry.snapshot(),
            "spans": tracer.snapshot(),
        },
    }
