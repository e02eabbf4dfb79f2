"""Pipeline-level fault injection: faults change telemetry, not results.

The determinism contract extended to a faulty world: a run whose oracle
suffers injected transient errors and timeouts (absorbed by the
resilient layer) produces a byte-identical grammar and identical
counted query totals to a healthy run — injected-fault counts surface
in the execution record only. And when faults exceed the retry budget,
the run fails *resumably*: a later `resume` with a healthy oracle
completes to exactly the healthy result.
"""

import json

import pytest

from repro.artifacts import MemoryCheckpointStore, grammar_to_dict
from repro.core.glade import GladeConfig
from repro.core.pipeline import LearningPipeline
from repro.learning.resilience import (
    ChaosOracle,
    FaultPlan,
    OracleFailedError,
    ResilientOracle,
    RetryPolicy,
    parse_fault_spec,
)
from repro.targets import get_target


@pytest.fixture(scope="module")
def xml():
    return get_target("xml")


@pytest.fixture(scope="module")
def seeds(xml):
    return sorted(xml.sample_seeds(2, seed=0), key=len)


def learn(xml, seeds, jobs=1, backend="serial", plan=None, store=None,
          policy=None):
    oracle = xml.oracle
    if plan is not None:
        oracle = ChaosOracle(oracle, plan)  # timeout_verdict="retry"
    if plan is not None or policy is not None:
        oracle = ResilientOracle(
            oracle,
            policy or RetryPolicy(base_delay=0.0),
        )
    config = GladeConfig(alphabet=xml.alphabet, jobs=jobs, backend=backend)
    pipeline = LearningPipeline(oracle, config=config, store=store)
    return pipeline.run(seeds)


def serialized(artifact):
    return json.dumps(grammar_to_dict(artifact.grammar), sort_keys=True)


@pytest.fixture(scope="module")
def reference(xml, seeds):
    return learn(xml, seeds)


class TestFaultsPreserveDeterminism:
    def test_serial_run_with_injected_faults_matches_reference(
        self, xml, seeds, reference
    ):
        plan = FaultPlan.sampled(
            n_transient=6, n_timeout=3, window=200, seed=11
        )
        faulty = learn(xml, seeds, plan=plan)
        assert serialized(faulty) == serialized(reference)
        assert faulty.oracle_queries == reference.oracle_queries
        assert faulty.unique_queries == reference.unique_queries
        # Injections are visible in the execution record...
        faults = faulty.execution["faults"]
        assert faults["injected.transient"] == 6
        assert faults["injected.timeout"] == 3
        assert faults["retries"] == 9
        # ...and nowhere else.
        assert "faults" not in (reference.execution or {})

    def test_thread_run_with_injected_faults_matches_reference(
        self, xml, seeds, reference
    ):
        plan = FaultPlan.sampled(
            n_transient=4, n_timeout=2, window=200, seed=5
        )
        faulty = learn(xml, seeds, jobs=2, backend="thread", plan=plan)
        assert serialized(faulty) == serialized(reference)
        assert faulty.oracle_queries == reference.oracle_queries
        faults = faulty.execution["faults"]
        assert faults["injected.transient"] == 4
        assert faults["injected.timeout"] == 2

    def test_healthy_resilient_wrapper_is_transparent(
        self, xml, seeds, reference
    ):
        wrapped = learn(
            xml, seeds, policy=RetryPolicy(base_delay=0.0)
        )
        assert serialized(wrapped) == serialized(reference)
        assert wrapped.oracle_queries == reference.oracle_queries
        assert wrapped.unique_queries == reference.unique_queries
        assert "faults" not in (wrapped.execution or {})


class TestTerminalFailureIsResumable:
    def test_exhausted_retries_checkpoint_then_resume(
        self, xml, seeds, reference
    ):
        # Two consecutive invocation indices fail; with max_attempts=2
        # the retry of index 40 lands on index 41 and also dies, so the
        # run aborts terminally — after checkpointing.
        store = MemoryCheckpointStore()
        with pytest.raises(OracleFailedError) as excinfo:
            learn(
                xml, seeds,
                plan=parse_fault_spec("transient@40,41"),
                policy=RetryPolicy(max_attempts=2, base_delay=0.0),
                store=store,
            )
        assert excinfo.value.attempts == 2
        checkpointed = store.load()
        assert checkpointed is not None
        assert checkpointed.status != "complete"
        assert checkpointed.execution["faults"]["gave_up"] == 1

        # Resume against a healthy oracle: completes to the healthy
        # run's exact grammar.
        config = GladeConfig(alphabet=xml.alphabet)
        pipeline = LearningPipeline(
            xml.oracle, config=config, store=store
        )
        resumed = pipeline.resume(checkpointed)
        assert resumed.status == "complete"
        assert serialized(resumed) == serialized(reference)
        # The failure telemetry survives the resume.
        assert resumed.execution["faults"]["gave_up"] == 1


def test_worker_death_inside_a_phase2_run_recovers(xml, seeds, tmp_path):
    """A process worker dies inside a phase-2 run task: the pool
    restarts, the run is resubmitted, and the resumed run lands on the
    serial run's grammar, decision log and counted queries."""
    store = MemoryCheckpointStore()
    serial = learn(xml, seeds, store=store)
    translated = next(
        snapshot for snapshot in map(
            store.snapshot, range(len(store.snapshots))
        )
        if snapshot.stage == "translate"
    )
    assert not translated.phase2_progress.get("decisions")
    translated.config.jobs = 2
    translated.config.backend = "process"
    plan = FaultPlan(kill=frozenset({3}), marker_dir=str(tmp_path))
    resumed = LearningPipeline(
        ChaosOracle(xml.oracle, plan), config=translated.config
    ).resume(translated)
    assert resumed.execution["recovery"]["pool_restarts"] >= 1
    assert (tmp_path / "kill-3").exists()
    assert serialized(resumed) == serialized(serial)
    assert (
        resumed.phase2_progress["decisions"]
        == serial.phase2_progress["decisions"]
    )
    assert resumed.oracle_queries == serial.oracle_queries
