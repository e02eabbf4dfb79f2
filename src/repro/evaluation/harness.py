"""Unified evaluation harness: learn once, derive every figure (§7–8).

The paper's evaluation measures one set of learned grammars many ways —
recall/precision (Fig 4), fuzzing yield (Fig 5/7), synthesis time and
query counts (Fig 6), sample validity (Fig 8). This module makes that
structure explicit for the reproduction:

- :class:`SubjectArtifactCache` — per-subject
  :class:`~repro.artifacts.run.RunArtifact` reuse, in memory and
  optionally on disk. Every figure path routes through a cache, so a
  combined run (``run_fig6`` then ``run_fig8``, or the full suite)
  learns each subject **exactly once**; re-runs against a cache
  directory pay zero oracle queries for already-learned subjects.
- :func:`run_suite` — the suite runner behind ``repro eval``: one task
  per requested subject on the pluggable :mod:`exec <repro.exec>`
  backends learns the subject's grammar (unless cached) and derives its
  full metric set; the results form one versioned
  :class:`~repro.artifacts.suite.SuiteResult` (``BENCH_suite.json``).
  The ``metrics`` section is byte-identical at any ``jobs`` count (the
  learning pipeline's determinism guarantee plus fixed-seed,
  corpus-based metric derivation).
- :func:`compare` — the tolerance-aware comparator for CI regression
  gating: deterministic metrics (grammar digests, counted queries,
  recall on fixed corpora, ...) compare exactly and block on drift;
  wall-clock compares within a percentage band and only warns.

See EXPERIMENTS.md for the methodology and the baseline-update
workflow.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.artifacts.journal import load_artifact, save_artifact
from repro.artifacts.run import RunArtifact
from repro.artifacts.schema import ArtifactError
from repro.artifacts.suite import (
    SubjectMetrics,
    SubjectPerf,
    SuiteParams,
    SuiteResult,
    environment_record,
)
from repro.core.glade import GladeConfig
from repro.core.pipeline import LearningPipeline
from repro.evaluation.corpora import eval_corpus
from repro.evaluation.metrics import GrammarView, estimate_precision
from repro.evaluation.reporting import format_table
from repro.exec.backends import make_executor
from repro.exec.subject_shard import evaluate_subject_task, subject_payload
from repro.obs.export import build_telemetry
from repro.obs.metrics import MetricsRegistry, Stopwatch, histogram_total
from repro.obs.trace import NULL_TRACER, Tracer
from repro.fuzzing.grammar_fuzzer import GrammarFuzzer
from repro.programs import (
    SUBJECT_NAMES,
    Subject,
    coverable_lines,
    get_subject,
    measure_coverage,
)
from repro.programs.coverage import CoverageReport, Line

__all__ = [
    "SubjectArtifactCache",
    "MetricDelta",
    "SeedCoverage",
    "SuiteComparison",
    "compare",
    "default_subject_config",
    "derive_subject_metrics",
    "format_comparison",
    "format_suite",
    "learn_subject",
    "resolve_subjects",
    "run_suite",
    "search_valid_sample",
    "stable_seed",
    "subject_artifact",
]


# -- deterministic seeding -------------------------------------------------


def stable_seed(*parts: Union[str, int]) -> int:
    """A PRNG seed that is a pure function of its parts.

    ``hash(str)`` is salted per process (PYTHONHASHSEED), so every
    sampling path that must reproduce across processes — and across the
    job counts of a parallel suite run — derives its seed here instead.
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(str(part).encode("utf-8", "backslashreplace"))
        digest.update(b"\x00")
    return int.from_bytes(digest.digest(), "big")


# -- the per-subject artifact cache ----------------------------------------


def default_subject_config(subject: Subject) -> GladeConfig:
    """The configuration every figure uses for a program under test."""
    return GladeConfig(alphabet=subject.alphabet)


#: GladeConfig fields that change *what* is learned. Execution knobs
#: (jobs, backend) and the observation knob (trace) are excluded: the
#: learned grammar and counted query totals are identical at any worker
#: count and with tracing on or off, so artifacts are shared across
#: them.
_SEMANTIC_CONFIG_FIELDS = (
    "enable_phase2",
    "enable_chargen",
    "alphabet",
    "skip_covered_seeds",
    "mixed_merge_checks",
)


def _cache_key(subject: Subject, config: GladeConfig) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(subject.name.encode())
    for seed in subject.seeds:
        digest.update(b"\x00s\x00")
        digest.update(seed.encode("utf-8", "backslashreplace"))
    for name in _SEMANTIC_CONFIG_FIELDS:
        digest.update(b"\x00c\x00")
        digest.update(name.encode())
        digest.update(str(getattr(config, name)).encode())
    return digest.hexdigest()


def learn_subject(
    subject: Subject, config: Optional[GladeConfig] = None
) -> RunArtifact:
    """Learn one subject's grammar from scratch (uncached)."""
    if config is None:
        config = default_subject_config(subject)
    pipeline = LearningPipeline(subject.accepts, config=config)
    return pipeline.run(subject.seeds)


class SubjectArtifactCache:
    """Learn-once storage for per-subject run artifacts.

    Lookups go memory first, then — when ``cache_dir`` is set — disk
    (files named ``<subject>-<key>.json`` in the standard run-artifact
    encoding, so ``repro show``/``repro sample`` work on them
    directly). A disk entry is trusted only if it is complete and its
    seeds match the subject's current seeds; anything else is treated
    as a miss and re-learned.

    ``hits``/``misses``/``queries_spent`` make the learn-once guarantee
    testable: after any combination of figure runs over one cache,
    ``queries_spent`` equals one learning run's oracle queries per
    distinct (subject, config).
    """

    def __init__(
        self, cache_dir: Optional[Union[str, pathlib.Path]] = None
    ):
        self.cache_dir = (
            pathlib.Path(cache_dir) if cache_dir is not None else None
        )
        self._memory: Dict[str, RunArtifact] = {}
        self.hits = 0
        self.misses = 0
        #: Oracle queries spent learning (cache misses only).
        self.queries_spent = 0

    def _path(self, subject: Subject, key: str) -> Optional[pathlib.Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / "{}-{}.json".format(subject.name, key[:12])

    def lookup(
        self, subject: Subject, config: Optional[GladeConfig] = None
    ) -> Optional[RunArtifact]:
        """Return the cached artifact or None; counts a hit when found."""
        if config is None:
            config = default_subject_config(subject)
        key = _cache_key(subject, config)
        artifact = self._memory.get(key)
        if artifact is None:
            artifact = self._load_from_disk(subject, key)
            if artifact is not None:
                self._memory[key] = artifact
        if artifact is None:
            return None
        self.hits += 1
        return artifact

    def _load_from_disk(
        self, subject: Subject, key: str
    ) -> Optional[RunArtifact]:
        path = self._path(subject, key)
        if path is None or not path.exists():
            return None
        try:
            artifact = load_artifact(path)
        except ArtifactError:
            return None
        if artifact.status != "complete":
            return None
        if [s.text for s in artifact.seeds] != list(subject.seeds):
            return None
        return artifact

    def absorb(
        self,
        subject: Subject,
        config: Optional[GladeConfig],
        artifact: RunArtifact,
    ) -> RunArtifact:
        """Store a freshly learned artifact, accounting it as a miss,
        and return what was stored.

        The cache keeps it without its telemetry, in memory and on disk:
        nothing reads a cached artifact's telemetry, and a traced run's
        holds megabytes of spans.
        """
        if config is None:
            config = default_subject_config(subject)
        key = _cache_key(subject, config)
        artifact = replace(artifact, telemetry=None)
        self._memory[key] = artifact
        self.misses += 1
        self.queries_spent += artifact.oracle_queries
        path = self._path(subject, key)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            save_artifact(artifact, path)
        return artifact

    def get(
        self, subject: Subject, config: Optional[GladeConfig] = None
    ) -> RunArtifact:
        """The cached artifact, learning (and storing) it on a miss."""
        artifact = self.lookup(subject, config)
        if artifact is not None:
            return artifact
        return self.absorb(subject, config, learn_subject(subject, config))


#: Process-wide default cache: figure modules share it so a combined
#: run (fig6 + fig7 + fig8, or the suite) learns each subject once.
_SHARED_CACHE = SubjectArtifactCache()


def subject_artifact(
    subject: Union[Subject, str],
    cache: Optional[SubjectArtifactCache] = None,
) -> RunArtifact:
    """The learned artifact for a subject at its default configuration,
    through a cache.

    The single entry point every figure path uses; ``cache=None`` means
    the process-wide shared cache.
    """
    if isinstance(subject, str):
        subject = get_subject(subject)
    if cache is None:
        cache = _SHARED_CACHE
    return cache.get(subject)


# -- metric derivation (the figures' measurements, from one artifact) ------


class SeedCoverage:
    """A subject's coverable lines and its seeds' coverage: the base of
    every §8.3 coverage report (Figure 7 and the suite's
    ``fuzz_new_lines``).

    It calls this module's ``measure_coverage``: perfbench's traced
    eval probe times coverage by replacing that name.
    """

    def __init__(self, subject: Subject):
        self.subject = subject
        self.coverable: Set[Line] = set()
        for module in subject.modules:
            self.coverable |= coverable_lines(module)
        self.seed_lines = measure_coverage(subject, subject.seeds).lines

    def report(self, samples: Sequence[str]) -> Tuple[CoverageReport, float]:
        """The coverage of ``samples`` over the seeds', and the share of
        ``samples`` the subject accepts."""
        covered, accepted = measure_coverage(self.subject, samples)
        report = CoverageReport(
            self.coverable, self.seed_lines, covered | self.seed_lines
        )
        return report, accepted / max(1, len(samples))


def search_valid_sample(
    artifact: RunArtifact,
    accepts,
    n_candidates: int = 200,
    seed: int = 7,
    min_length: int = 40,
) -> Tuple[str, bool, int]:
    """Figure 8's search: a large valid sample from a learned grammar.

    Returns ``(sample, valid, n_tried)`` — the first valid candidate of
    at least ``min_length`` characters, else the longest valid one seen.
    Deterministic given the artifact and ``seed``: candidates are
    generated and tested one at a time, so the search stops at the
    first long-enough valid one.
    """
    fuzzer = GrammarFuzzer.from_artifact(artifact, random.Random(seed))
    return _first_valid_sample(fuzzer, accepts, n_candidates, min_length)


def _first_valid_sample(
    fuzzer: GrammarFuzzer, accepts, n_candidates: int, min_length: int
) -> Tuple[str, bool, int]:
    """:func:`search_valid_sample`'s loop over a ready fuzzer."""
    best, found = "", False
    for tried in range(1, n_candidates + 1):
        candidate = fuzzer.generate_one()
        if not accepts(candidate):
            continue
        if len(candidate) >= min_length:
            return candidate, True, tried
        if not found or len(candidate) > len(best):
            best, found = candidate, True
    return best, found, n_candidates


def derive_subject_metrics(
    name: str,
    artifact: RunArtifact,
    params: Optional[SuiteParams] = None,
) -> Tuple[SubjectMetrics, SubjectPerf]:
    """Measure one subject every way the figures do, from its artifact.

    No oracle-learning queries are issued here — the artifact is the
    learned state; the subject's ``accepts`` runs only as the ground
    truth for precision/validity, exactly as §8's evaluation does.
    """
    if params is None:
        params = SuiteParams()
    subject = get_subject(name)
    grammar = artifact.require_grammar()
    watch = Stopwatch()

    view = GrammarView(grammar)
    # Fig 4: precision from fixed-seed grammar samples...
    precision = estimate_precision(
        view,
        subject.accepts,
        n_samples=params.eval_samples,
        seed=stable_seed("precision", name, params.rng_seed),
    )
    # ...and exact recall on the committed corpus (no sampling).
    corpus = eval_corpus(name)
    recall = sum(
        1 for text in corpus if view.contains(text)
    ) / max(1, len(corpus))

    # Fig 7: fuzzing yield — validity rate and incremental coverage.
    fuzzer = GrammarFuzzer.from_artifact(
        artifact, random.Random(stable_seed("fuzz", name, params.rng_seed))
    )
    if fuzzer.unparsed_seeds:
        # GLADE guarantees E_in ⊆ L(Ĉ): a retained seed outside the
        # learned language is a learner bug, not something to fuzz around.
        raise ArtifactError(
            "{}: the learned grammar does not parse {} retained seed(s), "
            "first {!r}".format(
                name, len(fuzzer.unparsed_seeds), fuzzer.unparsed_seeds[0]
            )
        )
    samples = fuzzer.generate(params.fuzz_samples)
    report, valid_fraction = SeedCoverage(subject).report(samples)
    fuzz_new_lines = len(report.incremental_lines())

    # Fig 8: a large valid sample exists. The search draws from its own
    # RNG, as search_valid_sample does, over the seed trees parsed above.
    sample, sample_valid, _tried = _first_valid_sample(
        fuzzer.with_rng(
            random.Random(stable_seed("sample", name, params.rng_seed))
        ),
        subject.accepts,
        params.sample_candidates,
        params.sample_min_length,
    )

    metrics = SubjectMetrics(
        grammar_digest=hashlib.sha256(
            str(grammar).encode("utf-8", "backslashreplace")
        ).hexdigest(),
        grammar_productions=len(grammar.productions),
        oracle_queries=artifact.oracle_queries,
        unique_queries=artifact.unique_queries,
        seeds_used=len(artifact.seeds_used()),
        seeds_skipped=len(artifact.seeds_skipped()),
        precision=precision,
        recall=recall,
        fuzz_valid_fraction=valid_fraction,
        fuzz_new_lines=fuzz_new_lines,
        sample_valid=sample_valid,
        sample_length=len(sample),
    )
    perf = SubjectPerf(
        synthesis_seconds=artifact.duration_seconds(),
        metrics_seconds=watch.seconds,
        speculative_queries=artifact.speculative_queries,
    )
    return metrics, perf


# -- the suite runner ------------------------------------------------------


def resolve_subjects(spec: Union[str, Sequence[str], None]) -> List[str]:
    """Expand a subject spec (``"all"``, ``"xml,grep"``, list) to names."""
    if spec is None or spec == "all":
        return list(SUBJECT_NAMES)
    if isinstance(spec, str):
        names = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        names = list(spec)
    seen = set()
    deduped = []
    for name in names:
        if name not in SUBJECT_NAMES:
            raise ValueError(
                "unknown subject {!r}; choose from {} (or 'all')".format(
                    name, ", ".join(SUBJECT_NAMES)
                )
            )
        if name not in seen:
            seen.add(name)
            deduped.append(name)
    if not deduped:
        raise ValueError("no subjects requested")
    return deduped


def run_suite(
    subjects: Union[str, Sequence[str], None] = None,
    jobs: int = 1,
    backend: str = "auto",
    cache: Optional[SubjectArtifactCache] = None,
    params: Optional[SuiteParams] = None,
    trace: bool = False,
) -> SuiteResult:
    """Learn every requested subject once and derive all suite metrics.

    Each subject is one task on the configured backend
    (:mod:`repro.exec.subject_shard`) that learns it, unless the cache
    holds its artifact, and derives its metrics. Tasks are submitted
    longest first, by total seed characters (a fixed property of the
    inputs, never a timing); fresh artifacts join the cache, and results
    are assembled in subject order. A single-subject suite spends the
    jobs inside its learning pipeline instead. Metric derivation is a
    pure function of the artifacts and ``params``, so the ``metrics``
    section is byte-identical at any job count
    (:func:`repro.artifacts.suite.canonical_metrics_bytes`).

    ``trace=True`` turns on structured tracing (:mod:`repro.obs`):
    subjects learn with ``GladeConfig.trace`` set, the spans of those
    learned in this run are grafted under ``subject:<name>`` shard
    prefixes, each derivation is a ``subject:<name>`` span in the main
    shard, and the result carries a ``telemetry`` section. Observation
    only — grammars, counted queries, and the canonical metrics bytes
    are identical with tracing on or off.
    """
    names = resolve_subjects(subjects)
    if cache is None:
        cache = _SHARED_CACHE
    if params is None:
        params = SuiteParams()
    if jobs < 1:
        raise ValueError("jobs must be at least 1")

    registry = MetricsRegistry()
    tracer: Any = Tracer() if trace else NULL_TRACER

    # Snapshot the cache counters: the execution record reports *this
    # run's* hits/misses, not the cache's lifetime totals.
    hits_before, misses_before = cache.hits, cache.misses

    payloads = []
    for name in sorted(
        names,
        key=lambda name: sum(map(len, get_subject(name).seeds)),
        reverse=True,
    ):
        subject = get_subject(name)
        # jobs, backend and trace are outside _SEMANTIC_CONFIG_FIELDS:
        # they never change the learned artifact or its cache entry.
        config = replace(default_subject_config(subject), trace=trace)
        if len(names) == 1:
            # Seed/run sharding: same grammar and counted queries by the
            # exec-subsystem determinism guarantee.
            config = replace(config, jobs=jobs, backend=backend)
        cached = cache.lookup(subject, config)
        payloads.append(subject_payload(name, config, params, cached))

    results: Dict[str, Dict[str, Any]] = {}
    learned: Dict[str, RunArtifact] = {}
    with make_executor(backend, min(jobs, len(names))) as executor:
        for _index, raw in executor.unordered(evaluate_subject_task, payloads):
            name = raw["name"]
            results[name] = raw
            if raw["artifact"] is not None:
                learned[name] = RunArtifact.from_dict(raw["artifact"])
                cache.absorb(get_subject(name), None, learned[name])

    suite = SuiteResult(
        subjects=names,
        params=params,
        execution={
            "jobs": jobs,
            "backend": executor.name,
            "cache_hits": cache.hits - hits_before,
            "cache_misses": cache.misses - misses_before,
            # Workers' learning wall-clock: provenance, never compared.
            "worker_seconds": {
                name: histogram_total(
                    results[name]["telemetry"]["metrics"], "subject.seconds"
                )
                for name in sorted(learned)
            },
        },
        environment=environment_record(),
    )
    for name in names:
        raw = results[name]
        suite.metrics[name], suite.perf[name] = raw["metrics"], raw["perf"]
        registry.merge(raw["telemetry"]["metrics"])
        telemetry = learned[name].telemetry if name in learned else None
        if telemetry:
            registry.merge(telemetry.get("metrics"))
            tracer.graft("subject:" + name, telemetry.get("spans", ()))
        tracer.graft("", raw["telemetry"]["spans"])
    if tracer.enabled:
        suite.telemetry = build_telemetry(tracer, registry)
    return suite


def format_suite(suite: SuiteResult) -> str:
    """Render a suite result as the paper-style summary table."""
    headers = [
        "subject", "precision", "recall", "valid%", "new lines",
        "queries", "unique", "time (s)", "digest",
    ]
    rows = []
    for name in suite.subjects:
        m = suite.metrics[name]
        p = suite.perf[name]
        rows.append([
            name,
            m.precision,
            m.recall,
            100.0 * m.fuzz_valid_fraction,
            m.fuzz_new_lines,
            m.oracle_queries,
            m.unique_queries,
            p.synthesis_seconds,
            m.grammar_digest[:12],
        ])
    return (
        "Evaluation suite: per-subject quality, yield, and cost\n"
        + format_table(headers, rows)
    )


# -- the regression comparator ---------------------------------------------

#: Deterministic metrics where larger is better.
_EXACT_HIGHER = (
    "precision",
    "recall",
    "fuzz_valid_fraction",
    "fuzz_new_lines",
    "sample_valid",
    "sample_length",
)
#: Deterministic metrics where smaller is better.
_EXACT_LOWER = ("oracle_queries", "unique_queries")
#: Deterministic metrics with no direction: any change is drift.
_EXACT_NEUTRAL = (
    "grammar_digest",
    "grammar_productions",
    "seeds_used",
    "seeds_skipped",
)
#: Run-varying perf metrics, compared within a percentage band
#: (warn-only): wall-clock and speculative oracle work.
_BANDED = ("synthesis_seconds", "metrics_seconds", "speculative_queries")

IMPROVED = "improved"
STABLE = "stable"
REGRESSED = "regressed"


@dataclass
class MetricDelta:
    """One (subject, metric) comparison outcome."""

    subject: str
    metric: str
    kind: str  # "exact" | "banded"
    baseline: object
    current: object
    classification: str  # IMPROVED | STABLE | REGRESSED
    #: True when this delta must fail a gated build: deterministic
    #: regressions and structural mismatches. Banded (wall-clock)
    #: deltas and deterministic improvements never block.
    blocking: bool


@dataclass
class SuiteComparison:
    """All per-metric deltas between a current suite and a baseline."""

    deltas: List[MetricDelta] = field(default_factory=list)

    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.blocking]

    def warnings(self) -> List[MetricDelta]:
        return [
            d for d in self.deltas
            if not d.blocking and d.classification != STABLE
        ]

    def ok(self) -> bool:
        """True when no deterministic metric regressed."""
        return not self.regressions()


def _classify_exact(metric: str, base, cur) -> str:
    if base == cur:
        return STABLE
    if metric in _EXACT_NEUTRAL:
        return REGRESSED  # undirected drift: force a baseline decision
    if metric in _EXACT_LOWER:
        return IMPROVED if cur < base else REGRESSED
    return IMPROVED if cur > base else REGRESSED


def compare(
    current: SuiteResult,
    baseline: SuiteResult,
    wallclock_band: float = 0.30,
) -> SuiteComparison:
    """Classify every metric of ``current`` against ``baseline``.

    Deterministic metrics use exact equality — ``stable`` on equality,
    ``improved``/``regressed`` by direction otherwise (undirected
    metrics such as grammar digests regress on *any* change, forcing an
    explicit baseline update). Wall-clock metrics are ``stable`` within
    ``±wallclock_band`` (relative), and classified but never blocking
    outside it. A parameter mismatch or a baseline subject missing from
    the current run is a blocking structural delta.
    """
    comparison = SuiteComparison()
    if current.params != baseline.params:
        comparison.deltas.append(MetricDelta(
            subject="*",
            metric="params",
            kind="exact",
            baseline=baseline.params,
            current=current.params,
            classification=REGRESSED,
            blocking=True,
        ))
        return comparison

    for name in baseline.subjects:
        if name in current.metrics:
            continue
        comparison.deltas.append(MetricDelta(
            subject=name,
            metric="present",
            kind="exact",
            baseline=True,
            current=False,
            classification=REGRESSED,
            blocking=True,
        ))
    for name in current.subjects:
        if name in baseline.metrics:
            continue
        comparison.deltas.append(MetricDelta(
            subject=name,
            metric="present",
            kind="exact",
            baseline=False,
            current=True,
            classification=IMPROVED,
            blocking=False,
        ))

    for name in current.subjects:
        if name not in baseline.metrics:
            continue
        base_m = baseline.metrics[name]
        cur_m = current.metrics[name]
        for metric in _EXACT_NEUTRAL + _EXACT_LOWER + _EXACT_HIGHER:
            base = getattr(base_m, metric)
            cur = getattr(cur_m, metric)
            classification = _classify_exact(metric, base, cur)
            comparison.deltas.append(MetricDelta(
                subject=name,
                metric=metric,
                kind="exact",
                baseline=base,
                current=cur,
                classification=classification,
                blocking=classification == REGRESSED,
            ))
        base_p = baseline.perf.get(name)
        cur_p = current.perf.get(name)
        if base_p is None or cur_p is None:
            continue
        for metric in _BANDED:
            base = getattr(base_p, metric)
            cur = getattr(cur_p, metric)
            if base <= 0:
                # No meaningful ratio; flag material growth from zero.
                classification = STABLE if cur <= 0 else REGRESSED
            elif cur <= base * (1.0 - wallclock_band):
                classification = IMPROVED
            elif cur >= base * (1.0 + wallclock_band):
                classification = REGRESSED
            else:
                classification = STABLE
            comparison.deltas.append(MetricDelta(
                subject=name,
                metric=metric,
                kind="banded",
                baseline=base,
                current=cur,
                classification=classification,
                blocking=False,
            ))
    return comparison


def format_comparison(comparison: SuiteComparison) -> str:
    """Render a comparison: changed metrics first, then two verdicts.

    The deterministic verdict always has a line of its own
    (``deterministic metrics: ...``), apart from the warn-only
    wall-clock verdict that machine load can flip.
    """
    changed = [
        d for d in comparison.deltas if d.classification != STABLE
    ]
    lines = []
    if changed:
        headers = ["subject", "metric", "kind", "baseline", "current",
                   "class", "gates"]
        rows = [
            [
                d.subject,
                d.metric,
                d.kind,
                str(d.baseline),
                str(d.current),
                d.classification,
                "FAIL" if d.blocking else "warn",
            ]
            for d in changed
        ]
        lines.append(format_table(headers, rows))
    regressions = comparison.regressions()
    if regressions:
        verdict = "{} regression(s) against the baseline".format(
            len(regressions)
        )
    elif any(d.kind == "exact" for d in changed):
        verdict = "improved; refresh the baseline to adopt them"
    else:
        verdict = "stable"
    lines.append("deterministic metrics: " + verdict)
    if any(d.kind == "banded" for d in changed):
        lines.append("wall-clock metrics: drifted (warn only; not gated)")
    else:
        lines.append("wall-clock metrics: stable")
    return "\n".join(lines)
