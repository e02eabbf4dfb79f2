"""Telemetry sections: schema round-trip, Chrome export, stats report.

The trace section is observation-only data riding the v4 run artifact;
these tests pin its wire shape (version/spans/metrics), its survival
through save/load, and the validity of the Chrome ``trace_event``
export that ``repro trace`` produces.
"""

import json

import pytest

from repro.artifacts import load_artifact, save_artifact
from repro.core.glade import GladeConfig
from repro.core.pipeline import LearningPipeline
from repro.obs.export import (
    TELEMETRY_VERSION,
    build_telemetry,
    chrome_trace,
    span_structure,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.targets import get_target


@pytest.fixture(scope="module")
def xml():
    return get_target("xml")


@pytest.fixture(scope="module")
def seeds(xml):
    return sorted(xml.sample_seeds(3, seed=0), key=len)


@pytest.fixture(scope="module")
def traced(xml, seeds):
    config = GladeConfig(alphabet=xml.alphabet, trace=True)
    return LearningPipeline(xml.oracle, config=config).run(seeds)


def test_telemetry_wire_shape(traced):
    telemetry = traced.telemetry
    assert telemetry is not None
    assert telemetry["version"] == TELEMETRY_VERSION
    assert telemetry["spans"], "a traced run records spans"
    for span in telemetry["spans"]:
        assert set(span) >= {"id", "parent", "name", "cat", "ts", "dur",
                             "shard"}
    metrics = telemetry["metrics"]
    assert metrics["counters"]["oracle.calls"] > 0
    assert metrics["histograms"]["oracle.seconds"]["count"] > 0


def test_telemetry_round_trips_through_artifact_store(tmp_path, traced):
    path = tmp_path / "run.json"
    save_artifact(traced, path)
    loaded = load_artifact(path)
    assert loaded.schema_version == traced.schema_version
    assert loaded.telemetry == traced.telemetry
    # The telemetry is JSON all the way down (no live objects).
    assert json.loads(json.dumps(traced.telemetry)) == traced.telemetry


def test_spans_cover_pipeline_stages_and_shards(traced):
    spans = traced.telemetry["spans"]
    names = {span["name"] for span in spans}
    assert {"stage:validate", "stage:phase1", "stage:translate",
            "stage:finalize"} <= names
    shards = {span["shard"] for span in spans}
    assert "seed:0" in shards
    cats = {span["cat"] for span in spans}
    assert {"pipeline", "phase1", "oracle"} <= cats


def test_chrome_trace_is_valid(tmp_path, traced):
    out = tmp_path / "run.trace.json"
    write_chrome_trace(traced.telemetry, out)
    data = json.loads(out.read_text())
    assert data["displayTimeUnit"] == "ms"
    events = data["traceEvents"]
    assert events
    for event in events:
        assert event["ph"] in ("X", "M", "i")
        assert "pid" in event
        if event["ph"] != "M":
            assert event["ts"] >= 0
    # Every shard maps to a named process row.
    metadata = [e for e in events if e["ph"] == "M"]
    shards = {span["shard"] for span in traced.telemetry["spans"]}
    assert len(metadata) == len(shards)


def test_chrome_trace_reports_dropped_spans():
    tracer = Tracer(max_spans=1)
    with tracer.span("kept"):
        pass
    with tracer.span("dropped"):
        pass
    telemetry = build_telemetry(tracer, MetricsRegistry())
    assert telemetry["dropped_spans"] == 1
    assert chrome_trace(telemetry)["otherData"]["dropped_spans"] == 1


def test_span_structure_ignores_durations(traced):
    structure = span_structure(traced.telemetry)
    assert structure == sorted(structure)
    assert any(line.startswith("seed:0|") for line in structure)
    # Rebuilding from the same spans with zeroed durations is identical:
    # structure is names/nesting/shards only.
    stripped = {
        "version": TELEMETRY_VERSION,
        "spans": [
            dict(span, ts=0.0, dur=0.0)
            for span in traced.telemetry["spans"]
        ],
    }
    assert span_structure(stripped) == structure


def test_show_and_stats_render_traced_artifact(traced):
    from repro.evaluation.reporting import format_stats, summarize_artifact

    summary = summarize_artifact(traced)
    assert "telemetry:" in summary
    stats = format_stats(traced)
    assert "spans by shard" in stats
    assert "counters" in stats
    assert "oracle.calls" in stats


def test_stats_degrade_without_telemetry(xml, seeds):
    from repro.evaluation.reporting import format_stats, summarize_artifact

    config = GladeConfig(alphabet=xml.alphabet)
    artifact = LearningPipeline(xml.oracle, config=config).run(seeds[:1])
    assert artifact.telemetry is None
    assert "--trace" in format_stats(artifact)
    assert "telemetry:" not in summarize_artifact(artifact)


def test_checkpoints_timed_in_registry_not_spans(xml, seeds):
    """``pipeline.checkpoint`` counts and times every checkpoint in the
    registry. A save's own time is observed after that save, so the
    final telemetry holds every checkpoint but the final one; no span
    records them, so the compared span structure is unchanged."""
    from repro.artifacts.store import NullCheckpointStore
    from repro.evaluation.reporting import format_stats

    class CountingStore(NullCheckpointStore):
        saves = 0

        def save(self, artifact):
            CountingStore.saves += 1

    config = GladeConfig(alphabet=xml.alphabet, trace=True)
    artifact = LearningPipeline(
        xml.oracle, config=config, store=CountingStore()
    ).run(seeds[:2])
    timer = artifact.telemetry["metrics"]["histograms"]["pipeline.checkpoint"]
    assert timer["count"] == CountingStore.saves - 1 > 0
    assert timer["total"] > 0
    assert not any(
        "checkpoint" in span["name"] for span in artifact.telemetry["spans"]
    )
    assert "pipeline.checkpoint" in format_stats(artifact)
