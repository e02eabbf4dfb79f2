"""Tracing must observe without perturbing, at any parallelism.

Three gated properties:

- zero drift: with tracing *on*, the learned grammar and the counted
  query totals are byte-identical to the untraced run, at jobs 1 and 4
  (the acceptance criterion for the whole observability layer);
- structural determinism: the *shape* of the trace — shard layout,
  span nesting, names, categories for the deterministic span classes —
  is identical across jobs {1, 2, 4} and the serial/thread/process
  backends; only timestamps and durations may differ;
- query placement: every task traces its own oracle stack at any job
  count, so an oracle span sits under the seed step or merge pair that
  asked it, at one job as at two.
"""

import json
from collections import Counter

import pytest

from repro.artifacts import grammar_to_dict
from repro.core.glade import GladeConfig
from repro.core.pipeline import LearningPipeline
from repro.obs.export import span_structure
from repro.targets import get_target


@pytest.fixture(scope="module")
def xml():
    return get_target("xml")


@pytest.fixture(scope="module")
def seeds(xml):
    return sorted(xml.sample_seeds(4, seed=0), key=len)


def learn(xml, seeds, jobs, backend, trace):
    config = GladeConfig(
        alphabet=xml.alphabet, jobs=jobs, backend=backend, trace=trace
    )
    return LearningPipeline(xml.oracle, config=config).run(seeds)


@pytest.fixture(scope="module")
def untraced_reference(xml, seeds):
    return learn(xml, seeds, 1, "serial", trace=False)


@pytest.fixture(scope="module")
def traced_reference(xml, seeds):
    return learn(xml, seeds, 1, "serial", trace=True)


def serialized(artifact):
    return json.dumps(grammar_to_dict(artifact.grammar), sort_keys=True)


@pytest.mark.parametrize("jobs,backend", [
    (1, "serial"),
    (4, "thread"),
], ids=["serial-j1", "thread-j4"])
def test_tracing_causes_zero_drift(
    xml, seeds, untraced_reference, jobs, backend
):
    traced = learn(xml, seeds, jobs, backend, trace=True)
    assert serialized(traced) == serialized(untraced_reference)
    assert str(traced.grammar) == str(untraced_reference.grammar)
    assert traced.oracle_queries == untraced_reference.oracle_queries
    assert traced.unique_queries == untraced_reference.unique_queries
    assert [s.queries for s in traced.seeds] == [
        s.queries for s in untraced_reference.seeds
    ]


def test_disabled_tracer_leaves_artifact_untouched(untraced_reference):
    assert untraced_reference.telemetry is None


@pytest.mark.slow
@pytest.mark.parametrize("jobs,backend", [
    (2, "thread"),
    (4, "thread"),
    (2, "process"),
    (4, "process"),
], ids=["thread-j2", "thread-j4", "process-j2", "process-j4"])
def test_span_structure_is_jobs_invariant(
    xml, seeds, traced_reference, jobs, backend
):
    traced = learn(xml, seeds, jobs, backend, trace=True)
    assert span_structure(traced.telemetry) == span_structure(
        traced_reference.telemetry
    )


@pytest.fixture(scope="module")
def traced_thread_j2(xml, seeds):
    return learn(xml, seeds, 2, "thread", trace=True)


def test_span_structure_thread_j2_matches_serial(
    traced_thread_j2, traced_reference
):
    # The tier-1 (not slow) representative of the invariance matrix.
    assert span_structure(traced_thread_j2.telemetry) == span_structure(
        traced_reference.telemetry
    )


def oracle_parents(artifact):
    """Count oracle spans by (shard kind, name of the parent span)."""
    spans = artifact.telemetry["spans"]
    names = {span["id"]: span["name"] for span in spans}
    return Counter(
        (span["shard"].split(":")[0], names.get(span["parent"]))
        for span in spans
        if span["cat"] == "oracle"
    )


def test_one_job_oracle_spans_sit_under_the_work_that_asked(
    seeds, traced_reference, traced_thread_j2
):
    """Every task asks through its own traced stack at any job count,
    so a one-job trace puts each query under its seed step or merge
    pair, as a two-job trace does; only validation asks in the main
    shard."""
    parents = oracle_parents(traced_reference)
    assert set(parents) == set(oracle_parents(traced_thread_j2))
    assert set(parents) <= {
        ("", "stage:validate"),
        ("seed", "synthesize"),
        ("seed", "chargen"),
        ("pair", "pair"),
    }
    assert parents[("", "stage:validate")] <= len(seeds)
