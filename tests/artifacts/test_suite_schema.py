"""Round-trip and canonical-form tests for the suite metrics artifact."""

import json

import pytest

from repro.artifacts.schema import ArtifactError
from repro.artifacts.suite import (
    SUITE_KIND,
    SUITE_SCHEMA_VERSION,
    SubjectMetrics,
    SubjectPerf,
    SuiteParams,
    SuiteResult,
    canonical_metrics_bytes,
    load_suite,
    save_suite,
)


def make_suite() -> SuiteResult:
    return SuiteResult(
        subjects=["sed", "grep"],
        params=SuiteParams(eval_samples=10, fuzz_samples=12, rng_seed=3),
        metrics={
            "sed": SubjectMetrics(
                grammar_digest="ab" * 32,
                grammar_productions=7,
                oracle_queries=100,
                unique_queries=90,
                seeds_used=5,
                seeds_skipped=2,
                precision=0.75,
                recall=1.0,
                fuzz_valid_fraction=0.5,
                fuzz_new_lines=13,
                sample_valid=True,
                sample_length=41,
            ),
            "grep": SubjectMetrics(grammar_digest="cd" * 32),
        },
        perf={
            "sed": SubjectPerf(
                synthesis_seconds=1.5,
                metrics_seconds=0.2,
                speculative_queries=4,
            ),
            "grep": SubjectPerf(synthesis_seconds=0.3),
        },
        execution={"jobs": 2, "backend": "process"},
        environment={"python": "3.11.0", "platform": "linux"},
    )


class TestRoundTrip:
    def test_to_from_dict_is_identity(self):
        suite = make_suite()
        again = SuiteResult.from_dict(suite.to_dict())
        assert again == suite

    def test_dict_is_json_compatible(self):
        payload = json.dumps(make_suite().to_dict(), sort_keys=True)
        again = SuiteResult.from_dict(json.loads(payload))
        assert again == make_suite()

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_suite.json"
        save_suite(make_suite(), path)
        assert load_suite(path) == make_suite()

    def test_kind_recorded(self):
        data = make_suite().to_dict()
        assert data["kind"] == SUITE_KIND
        assert data["schema_version"] == SUITE_SCHEMA_VERSION


class TestValidation:
    def test_rejects_wrong_kind(self):
        data = make_suite().to_dict()
        data["kind"] = "glade-run"
        with pytest.raises(ArtifactError, match="kind"):
            SuiteResult.from_dict(data)

    def test_rejects_unknown_schema_version(self):
        data = make_suite().to_dict()
        data["schema_version"] = SUITE_SCHEMA_VERSION + 1
        with pytest.raises(ArtifactError, match="schema version"):
            SuiteResult.from_dict(data)

    def test_rejects_malformed_metrics(self):
        data = make_suite().to_dict()
        data["metrics"]["sed"]["no_such_field"] = 1
        with pytest.raises(ArtifactError, match="malformed"):
            SuiteResult.from_dict(data)

    def test_retired_perf_keys_ignored_on_load(self):
        # Suites written before ``matcher_tiers`` was retired carry it
        # under every subject's perf; perf is never compared, so they
        # still load (metrics stay strict, see above).
        data = make_suite().to_dict()
        data["perf"]["sed"]["matcher_tiers"] = {"dense_matches": 3}
        assert SuiteResult.from_dict(data) == make_suite()

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_suite(path)


class TestCanonicalBytes:
    def test_covers_deterministic_sections_only(self):
        """Perf/execution/environment must not leak into the bytes CI
        compares across job counts — those legitimately vary."""
        one = make_suite()
        two = make_suite()
        two.perf["sed"].synthesis_seconds = 99.0
        two.execution["jobs"] = 8
        two.environment["python"] = "3.12.1"
        assert canonical_metrics_bytes(one) == canonical_metrics_bytes(two)

    def test_detects_metric_changes(self):
        one = make_suite()
        two = make_suite()
        two.metrics["sed"].oracle_queries += 1
        assert canonical_metrics_bytes(one) != canonical_metrics_bytes(two)

    def test_detects_param_changes(self):
        one = make_suite()
        two = make_suite()
        two.params.rng_seed += 1
        assert canonical_metrics_bytes(one) != canonical_metrics_bytes(two)
