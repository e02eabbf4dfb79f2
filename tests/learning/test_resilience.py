"""Tests for the fault-tolerance layer: retries, breaker, chaos."""

import pickle

import pytest

from repro.learning.oracle import CountingOracle
from repro.learning.resilience import (
    ChaosOracle,
    FaultPlan,
    OracleFailedError,
    OracleTransientError,
    ResilientOracle,
    RetryPolicy,
    drain_fault_counters,
    format_fault_spec,
    parse_fault_spec,
)


class FlakyOracle:
    """Accepts 'a'* but raises a transient error on planned calls."""

    def __init__(self, fail_calls=(), cause="spawn"):
        self.fail_calls = set(fail_calls)
        self.cause = cause
        self.calls = 0

    def __call__(self, text):
        call = self.calls
        self.calls += 1
        if call in self.fail_calls:
            raise OracleTransientError(
                self.cause, "planned failure at call {}".format(call)
            )
        return bool(text) and set(text) <= {"a"}


def fast_policy(**kwargs):
    kwargs.setdefault("base_delay", 0.0)
    return RetryPolicy(**kwargs)


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(base_delay=0.1, seed=3)
        assert policy.delay(0, "x") == policy.delay(0, "x")
        assert policy.delay(0, "x") != policy.delay(1, "x")
        assert policy.delay(0, "x") != policy.delay(0, "y")

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, max_delay=0.4, jitter=0.0
        )
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(5) == pytest.approx(0.4)

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.25)
        for attempt in range(4):
            base = min(0.1 * 2 ** attempt, policy.max_delay)
            assert base <= policy.delay(attempt, "q") <= base * 1.25

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(breaker_threshold=-1)


class TestResilientOracle:
    def test_transparent_on_healthy_oracle(self):
        resilient = ResilientOracle(FlakyOracle(), fast_policy())
        assert resilient("aaa")
        assert not resilient("ab")
        assert resilient.drain_faults() == {}

    def test_retries_through_transient_failures(self):
        flaky = FlakyOracle(fail_calls={0, 1})
        resilient = ResilientOracle(
            flaky, fast_policy(max_attempts=3)
        )
        assert resilient("aa")
        assert flaky.calls == 3
        faults = resilient.drain_faults()
        assert faults == {"transient.spawn": 2, "retries": 2}

    def test_exhausted_retries_fail_terminally(self):
        flaky = FlakyOracle(fail_calls={0, 1, 2})
        resilient = ResilientOracle(
            flaky, fast_policy(max_attempts=3)
        )
        with pytest.raises(OracleFailedError) as excinfo:
            resilient("aa")
        assert excinfo.value.attempts == 3
        assert excinfo.value.cause == "spawn"
        assert resilient.drain_faults()["gave_up"] == 1

    def test_retry_is_invisible_to_counting_layer(self):
        # Stack order: counting wraps resilience, so a retried query
        # still counts once — the determinism contract's requirement.
        flaky = FlakyOracle(fail_calls={1})
        counting = CountingOracle(
            ResilientOracle(flaky, fast_policy(max_attempts=3))
        )
        assert counting("aa")
        assert not counting("b")
        assert counting.queries == 2
        assert flaky.calls == 3

    def test_breaker_opens_after_consecutive_failures(self):
        flaky = FlakyOracle(fail_calls=set(range(100)))
        resilient = ResilientOracle(
            flaky,
            fast_policy(max_attempts=2, breaker_threshold=4),
        )
        for _ in range(2):  # 2 attempts each = 4 consecutive failures
            with pytest.raises(OracleFailedError):
                resilient("aa")
        assert resilient.breaker_open
        calls_before = flaky.calls
        with pytest.raises(OracleFailedError) as excinfo:
            resilient("aa")
        assert excinfo.value.cause == "breaker"
        assert flaky.calls == calls_before  # fast fail: no new attempt
        assert resilient.drain_faults()["breaker_fastfail"] == 1

    def test_success_resets_consecutive_count(self):
        flaky = FlakyOracle(fail_calls={0, 2, 4})
        resilient = ResilientOracle(
            flaky,
            fast_policy(max_attempts=2, breaker_threshold=3),
        )
        for _ in range(3):
            assert resilient("aa")
        assert not resilient.breaker_open

    def test_breaker_disabled_at_zero(self):
        flaky = FlakyOracle(fail_calls=set(range(50)))
        resilient = ResilientOracle(
            flaky,
            fast_policy(max_attempts=2, breaker_threshold=0),
        )
        for _ in range(10):
            with pytest.raises(OracleFailedError):
                resilient("aa")
        assert not resilient.breaker_open

    def test_pickle_roundtrip(self):
        resilient = ResilientOracle(FlakyOracle(), fast_policy())
        resilient._count_fault("retries")
        clone = pickle.loads(pickle.dumps(resilient))
        assert clone("aaa")
        assert clone.drain_faults() == {}  # counters do not travel


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = parse_fault_spec("transient@3,9;timeout@5;kill@120")
        assert plan.transient == frozenset({3, 9})
        assert plan.timeout == frozenset({5})
        assert plan.kill == frozenset({120})
        assert parse_fault_spec(format_fault_spec(plan)) == plan

    def test_parse_rejects_garbage(self):
        for bad in ("bogus@1", "transient", "transient@x", "timeout@-1"):
            with pytest.raises(ValueError):
                parse_fault_spec(bad)

    def test_empty(self):
        assert FaultPlan().empty()
        assert not parse_fault_spec("transient@0").empty()
        assert parse_fault_spec("").empty()

    def test_sampled_is_deterministic(self):
        a = FaultPlan.sampled(n_transient=4, n_timeout=2, seed=7)
        b = FaultPlan.sampled(n_transient=4, n_timeout=2, seed=7)
        assert a == b
        assert a != FaultPlan.sampled(n_transient=4, n_timeout=2, seed=8)
        assert len(a.transient) == 4
        assert all(0 <= i < 256 for i in a.transient | a.timeout)


class TestChaosOracle:
    def test_injects_transient_at_planned_indices(self):
        chaos = ChaosOracle(
            FlakyOracle(), parse_fault_spec("transient@1")
        )
        assert chaos("aa")  # invocation 0: healthy
        with pytest.raises(OracleTransientError) as excinfo:
            chaos("aa")  # invocation 1: injected
        assert excinfo.value.cause == "injected"
        assert chaos("aa")  # invocation 2: healthy again
        assert chaos.drain_faults() == {"injected.transient": 1}

    def test_injected_faults_absorbed_by_resilient_layer(self):
        # The full stack: injected faults are retried away, verdicts
        # unchanged versus a chaos-free run.
        flaky = FlakyOracle()
        chaos = ChaosOracle(
            flaky, parse_fault_spec("transient@1;timeout@3")
        )
        resilient = ResilientOracle(chaos, fast_policy(max_attempts=3))
        assert [resilient(t) for t in ("aa", "b", "a", "aa")] == [
            True, False, True, True,
        ]
        faults = drain_fault_counters(resilient)
        assert faults["injected.transient"] == 1
        assert faults["injected.timeout"] == 1
        assert faults["retries"] == 2

    def test_timeout_verdict_reject_returns_false(self):
        chaos = ChaosOracle(
            FlakyOracle(),
            parse_fault_spec("timeout@0"),
            timeout_verdict="reject",
        )
        assert not chaos("aa")  # forced reject, oracle never asked
        assert chaos.drain_faults() == {
            "injected.timeout": 1, "timeout_reject": 1,
        }

    def test_timeout_verdict_error_fails_fast(self):
        chaos = ChaosOracle(
            FlakyOracle(),
            parse_fault_spec("timeout@0"),
            timeout_verdict="error",
        )
        with pytest.raises(OracleFailedError):
            chaos("aa")

    def test_bad_timeout_verdict_rejected(self):
        with pytest.raises(ValueError):
            ChaosOracle(
                FlakyOracle(), FaultPlan(), timeout_verdict="maybe"
            )

    def test_kill_indices_inert_in_main_process(self):
        # Kill entries only fire inside pool workers; in the main
        # process the call passes through to the real oracle.
        chaos = ChaosOracle(
            FlakyOracle(),
            parse_fault_spec("kill@0", marker_dir="/tmp"),
        )
        assert chaos("aa")

    def test_drain_walks_the_whole_stack(self):
        chaos = ChaosOracle(
            FlakyOracle(), parse_fault_spec("transient@0")
        )
        resilient = ResilientOracle(chaos, fast_policy(max_attempts=2))
        assert resilient("aa")
        totals = drain_fault_counters(resilient)
        assert totals["injected.transient"] == 1
        assert totals["transient.injected"] == 1
        assert totals["retries"] == 1
        assert drain_fault_counters(resilient) == {}
