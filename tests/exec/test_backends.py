"""Unit tests for the execution backends (serial / thread / process)."""

import threading
import time

import pytest

from repro.exec import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
    resolve_backend,
)


def square(x):
    return x * x


def explode(x):
    raise ValueError("boom on {}".format(x))


def slow_identity(x):
    time.sleep(0.15)
    return x


def all_executors():
    return [SerialExecutor(), ThreadExecutor(2), ProcessExecutor(2)]


@pytest.mark.parametrize(
    "make", [SerialExecutor, lambda: ThreadExecutor(2),
             lambda: ProcessExecutor(2)],
    ids=["serial", "thread", "process"],
)
def test_unordered_returns_every_result_with_its_index(make):
    with make() as executor:
        results = dict(executor.unordered(square, [3, 1, 4, 1, 5]))
    assert results == {0: 9, 1: 1, 2: 16, 3: 1, 4: 25}


@pytest.mark.parametrize(
    "make", [SerialExecutor, lambda: ThreadExecutor(2),
             lambda: ProcessExecutor(2)],
    ids=["serial", "thread", "process"],
)
def test_worker_exception_propagates_unwrapped(make):
    # Executors are exception-transparent: callers catch the oracle
    # stack's control-flow exceptions (LearningTimeout,
    # OracleFailedError) by their original type, exactly as they would
    # around an inline call.
    with make() as executor:
        with pytest.raises(ValueError, match="boom on 7"):
            list(executor.unordered(explode, [7]))


def test_budget_exception_propagates_through_sharded_run():
    # The time budget (a DeadlineOracle) runs out inside a phase-1
    # worker thread; its LearningTimeout reaches the caller unwrapped.
    import time

    from repro.core.glade import GladeConfig
    from repro.core.pipeline import LearningPipeline
    from repro.learning.oracle import DeadlineOracle, LearningTimeout

    calls = []

    def ab(text):
        calls.append(text)
        if len(calls) >= 3:
            # Both seeds are validated; every later query is late.
            oracle.deadline = time.monotonic() - 1
        return set(text) <= set("ab")

    config = GladeConfig(alphabet="ab", enable_chargen=False,
                         jobs=2, backend="thread")
    oracle = DeadlineOracle(ab, deadline=time.monotonic() + 3600)
    with pytest.raises(LearningTimeout):
        LearningPipeline(oracle, config=config).run(["abab", "ab"])


def test_serial_runs_lazily_and_in_order():
    # The sequential pipeline relies on laziness: it decides whether to
    # submit task i+1 only after consuming task i's result (the §6.1
    # covered-seed skip). The payload generator must therefore be
    # pulled one element at a time, interleaved with execution.
    events = []

    def payloads():
        for value in range(3):
            events.append(("pulled", value))
            yield value

    executor = SerialExecutor()
    for index, result in executor.unordered(square, payloads()):
        events.append(("done", index, result))
    assert events == [
        ("pulled", 0), ("done", 0, 0),
        ("pulled", 1), ("done", 1, 1),
        ("pulled", 2), ("done", 2, 4),
    ]


def test_thread_executor_overlaps_blocking_tasks():
    started = time.perf_counter()
    with ThreadExecutor(4) as executor:
        results = dict(executor.unordered(slow_identity, list(range(4))))
    elapsed = time.perf_counter() - started
    assert results == {i: i for i in range(4)}
    # Four 150ms sleeps overlapped on four threads: sequential would
    # take 600ms, overlapped ~150ms; the generous 450ms bound leaves
    # ~300ms of scheduler-jitter headroom on loaded CI runners.
    assert elapsed < 0.45


def test_thread_executor_shares_objects_with_tasks():
    # Thread tasks see the same object graph (no pickling).
    box = {"hits": 0}
    lock = threading.Lock()

    def bump(_payload):
        with lock:
            box["hits"] += 1
        return box

    with ThreadExecutor(2) as executor:
        results = [r for _i, r in executor.unordered(bump, [1, 2, 3])]
    assert box["hits"] == 3
    assert all(r is box for r in results)


def test_resolve_backend_auto():
    assert resolve_backend("auto", 1) == "serial"
    assert resolve_backend("auto", 4, square) == "process"  # picklable
    unpicklable = lambda s: True  # noqa: E731
    assert resolve_backend("auto", 4, unpicklable) == "thread"
    assert resolve_backend("auto", 4, None) == "process"


def test_resolve_backend_one_job_is_always_serial():
    # A single-worker pool adds overhead and trades away the §6.1
    # pre-skip for speculation with nothing to overlap.
    for name in ("auto", "thread", "process"):
        assert resolve_backend(name, 1, square) == "serial"


def test_resolve_backend_explicit_names_pass_through():
    for name in ("thread", "process"):
        assert resolve_backend(name, 2, square) == name
    with pytest.raises(ValueError, match="unknown execution backend"):
        resolve_backend("gpu", 2)
    # serial with several jobs is a contradiction, not a silent noop.
    with pytest.raises(ValueError, match="single-worker"):
        resolve_backend("serial", 4)


def test_process_backend_rejects_unpicklable_oracle():
    with pytest.raises(ValueError, match="picklable oracle"):
        resolve_backend("process", 2, lambda s: True)


def test_make_executor_resolves_auto():
    executor = make_executor("auto", 1)
    assert executor.name == "serial"
    with make_executor("auto", 3, square) as executor:
        assert executor.name == "process"
        assert executor.jobs == 3


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        ThreadExecutor(0)
    with pytest.raises(ValueError):
        ProcessExecutor(-1)


class TestUnorderedStream:
    """``unordered`` over a payload stream: lazy submission bounded at
    ``jobs`` in flight — the wavefront scheduler's substrate."""

    @pytest.mark.parametrize(
        "make", [SerialExecutor, lambda: ThreadExecutor(2),
                 lambda: ProcessExecutor(2)],
        ids=["serial", "thread", "process"],
    )
    def test_stream_returns_every_result_with_its_index(self, make):
        with make() as executor:
            results = dict(
                executor.unordered(square, iter([3, 1, 4, 1, 5]))
            )
        assert results == {0: 9, 1: 1, 2: 16, 3: 1, 4: 25}

    @pytest.mark.parametrize(
        "make", [lambda: ThreadExecutor(2), lambda: ProcessExecutor(2)],
        ids=["thread", "process"],
    )
    def test_stream_exception_propagates_unwrapped(self, make):
        with make() as executor:
            with pytest.raises(ValueError, match="boom on 7"):
                list(executor.unordered(explode, iter([7])))

    def test_window_bounds_in_flight_submissions(self):
        # One worker gives a window of 1: at most 1 payload may ever
        # have been pulled beyond the number of results already yielded.
        pulls = []

        def payloads():
            for value in range(6):
                pulls.append(value)
                yield value

        with ThreadExecutor(1) as executor:
            seen = 0
            for _index, _result in executor.unordered(square, payloads()):
                assert len(pulls) <= seen + 1
                seen += 1
        assert seen == 6
        assert executor.peak_in_flight == 1

    def test_pulls_happen_on_consumer_thread_after_each_result(self):
        # The payload generator must observe state the consumer updated
        # while processing earlier results — the property the phase-2
        # wavefront's skip test and verdict table rely on.
        committed = []
        main_thread = threading.current_thread()

        def payloads():
            for value in range(6):
                assert threading.current_thread() is main_thread
                yield (value, tuple(committed))

        def task(payload):
            return payload

        with ThreadExecutor(1) as executor:
            for _index, (value, snapshot) in executor.unordered(
                task, payloads()
            ):
                # With a window of 1, payload k was generated after
                # exactly k earlier results were consumed and recorded.
                assert len(snapshot) == value
                committed.append(value)
        assert len(committed) == 6
