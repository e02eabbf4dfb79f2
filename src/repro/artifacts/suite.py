"""The suite metrics artifact: one JSON record for the whole evaluation.

``BENCH_suite.json`` is the durable product of ``repro eval`` (the
unified evaluation harness, :mod:`repro.evaluation.harness`): for every
subject it records the figure-derived quality metrics, the
query-accounting totals, and the performance numbers of one learning
run, plus an environment record so trajectories across machines stay
interpretable.

The file is split by determinism contract:

- ``metrics`` — per-subject values that are a pure function of the
  subject and the harness parameters: grammar digest, counted oracle
  queries, recall/precision on fixed corpora and fixed-seed samplers,
  fuzzing yield, sample validity. These must be *byte-identical* across
  ``--jobs`` counts and re-runs (:func:`canonical_metrics_bytes` is the
  normal form CI and the determinism tests compare).
- ``perf`` — wall-clock and speculative-work numbers that legitimately
  vary run to run; the comparator only warns about these.
- ``execution`` / ``environment`` — provenance: jobs, backend, cache
  hits, Python version, platform. Never compared.
- ``telemetry`` — optional structured tracing section
  (:mod:`repro.obs`): suite-level spans and the merged metrics
  registry, present only for ``--trace`` runs. Observation-only and
  never compared; an absent section simply means an untraced run, so
  adding it needs no schema bump (the canonical metrics bytes are
  unchanged either way).

Versioning follows the run-artifact policy: ``SUITE_SCHEMA_VERSION`` is
bumped on incompatible changes and the loader refuses mismatches with a
clear error instead of misreading them.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Union

from repro.artifacts.journal import replace_file
from repro.artifacts.schema import ArtifactError, from_known_fields

SUITE_SCHEMA_VERSION = 1

#: The dict key identifying a suite artifact (mirrors "glade-run").
SUITE_KIND = "glade-eval-suite"


@dataclass
class SuiteParams:
    """Harness parameters that the deterministic metrics depend on.

    Recorded in the artifact and checked by the comparator: two suites
    measured with different parameters are not comparable, and the
    mismatch is reported as a blocking difference rather than silently
    producing nonsense deltas.
    """

    #: Samples drawn from the learned grammar for precision (fig 4).
    eval_samples: int = 120
    #: Samples drawn from the grammar fuzzer for yield/coverage (fig 7).
    fuzz_samples: int = 120
    #: Candidates searched for a large valid sample (fig 8).
    sample_candidates: int = 60
    #: Minimum length for the fig-8 sample search to stop early.
    sample_min_length: int = 40
    #: Base PRNG seed for every sampling path above.
    rng_seed: int = 0


@dataclass
class SubjectMetrics:
    """Deterministic per-subject results (the compared section).

    Every field is exactly reproducible given the subject, the harness
    parameters, and the code — verified byte-identical across job
    counts by the harness determinism tests.
    """

    #: SHA-256 of the learned grammar's canonical string rendering.
    grammar_digest: str = ""
    grammar_productions: int = 0
    #: Counted oracle queries (§6.1/§8.3 metric, cache hits included).
    oracle_queries: int = 0
    #: Distinct query strings across the learning run.
    unique_queries: int = 0
    seeds_used: int = 0
    seeds_skipped: int = 0
    #: Fig 4: Pr[sample from learned grammar ∈ L*], fixed-seed sampler.
    precision: float = 0.0
    #: Fig 4: fraction of the fixed evaluation corpus the grammar
    #: recognizes (exact — the corpus is committed, not sampled).
    recall: float = 0.0
    #: Fig 7: fraction of grammar-fuzzed samples the subject accepts.
    fuzz_valid_fraction: float = 0.0
    #: Fig 7: executable lines covered by valid fuzzed samples beyond
    #: what the seeds already cover (incremental coverage, absolute).
    fuzz_new_lines: int = 0
    #: Fig 8: a valid sample of the requested length was found.
    sample_valid: bool = False
    sample_length: int = 0


@dataclass
class SubjectPerf:
    """Per-subject numbers that vary run to run (warn-only section)."""

    #: Grammar synthesis wall-clock (sum of recorded stage timings).
    synthesis_seconds: float = 0.0
    #: Wall-clock spent deriving the metrics from the artifact.
    metrics_seconds: float = 0.0
    #: Oracle queries spent on speculation that in-order filters
    #: discarded (zero for serial learning; varies with job count).
    speculative_queries: int = 0


@dataclass
class SuiteResult:
    """Everything one ``repro eval`` run measured."""

    subjects: List[str]
    params: SuiteParams = field(default_factory=SuiteParams)
    metrics: Dict[str, SubjectMetrics] = field(default_factory=dict)
    perf: Dict[str, SubjectPerf] = field(default_factory=dict)
    execution: Dict[str, Any] = field(default_factory=dict)
    environment: Dict[str, Any] = field(default_factory=dict)
    #: Optional tracing section (``repro eval --trace``): suite spans
    #: plus the merged metrics snapshot, in the :mod:`repro.obs.export`
    #: telemetry encoding. ``None`` means the run was untraced. Outside
    #: every compared surface (see :func:`canonical_metrics_bytes`).
    telemetry: Any = None
    schema_version: int = SUITE_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": SUITE_KIND,
            "subjects": list(self.subjects),
            "params": asdict(self.params),
            "metrics": {
                name: asdict(m) for name, m in sorted(self.metrics.items())
            },
            "perf": {
                name: asdict(p) for name, p in sorted(self.perf.items())
            },
            "execution": dict(self.execution),
            "environment": dict(self.environment),
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SuiteResult":
        if not isinstance(data, dict) or data.get("kind") != SUITE_KIND:
            raise ArtifactError(
                "not a {} artifact (kind: {!r})".format(
                    SUITE_KIND,
                    data.get("kind") if isinstance(data, dict) else None,
                )
            )
        version = data.get("schema_version")
        if version != SUITE_SCHEMA_VERSION:
            raise ArtifactError(
                "suite schema version {!r} is not supported by this "
                "build (expected {}); regenerate the baseline".format(
                    version, SUITE_SCHEMA_VERSION
                )
            )
        try:
            return cls(
                subjects=list(data["subjects"]),
                params=SuiteParams(**data["params"]),
                metrics={
                    name: SubjectMetrics(**m)
                    for name, m in data["metrics"].items()
                },
                perf={
                    name: from_known_fields(SubjectPerf, p)
                    for name, p in data["perf"].items()
                },
                execution=dict(data.get("execution") or {}),
                environment=dict(data.get("environment") or {}),
                telemetry=data.get("telemetry"),
                schema_version=version,
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ArtifactError(
                "malformed suite artifact: {!r}".format(exc)
            )


def environment_record() -> Dict[str, Any]:
    """Provenance for the trajectory: where this suite was measured."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def canonical_metrics_bytes(suite: SuiteResult) -> bytes:
    """The deterministic sections of a suite in a canonical byte form.

    Includes schema version, parameters, subject list and the
    ``metrics`` section — everything that must be identical across job
    counts and re-runs — and nothing that may vary (perf, execution,
    environment). Two runs are "byte-identical" iff these bytes match.
    """
    payload = {
        "schema_version": suite.schema_version,
        "subjects": list(suite.subjects),
        "params": asdict(suite.params),
        "metrics": {
            name: asdict(m) for name, m in sorted(suite.metrics.items())
        },
    }
    return json.dumps(
        payload, sort_keys=True, ensure_ascii=True, separators=(",", ":")
    ).encode("ascii")


def save_suite(
    suite: SuiteResult, path: Union[str, os.PathLike]
) -> None:
    """Write a suite artifact as JSON, atomically (temp + rename)."""
    replace_file(
        path, json.dumps(suite.to_dict(), indent=1, sort_keys=True) + "\n"
    )


def load_suite(path: Union[str, os.PathLike]) -> SuiteResult:
    """Load a suite artifact written by :func:`save_suite`."""
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(
            "suite artifact {} is not valid JSON: {}".format(path, exc)
        )
    return SuiteResult.from_dict(data)
