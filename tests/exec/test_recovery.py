"""Worker-crash recovery tests: pool rebuild, resubmission, abort."""

import os

import pytest

from concurrent.futures import BrokenExecutor

from repro.exec import ProcessExecutor, ThreadExecutor
from repro.learning.resilience import KILL_EXIT_CODE


def square(x):
    return x * x


def die_once(payload):
    """Kill this worker process the first time the marker is free.

    Mirrors :meth:`ChaosOracle._maybe_kill`: the first worker to create
    the one-shot marker file dies with :data:`KILL_EXIT_CODE`; the
    resubmitted task finds the marker and completes normally.
    """
    value, marker = payload
    if marker is not None:
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            os._exit(KILL_EXIT_CODE)
    return value * value


def die_always(payload):
    os._exit(KILL_EXIT_CODE)


def explode(x):
    raise ValueError("boom on {}".format(x))


class TestProcessRecovery:
    def test_unordered_survives_one_worker_death(self, tmp_path):
        marker = str(tmp_path / "kill-once")
        payloads = [(i, marker if i == 2 else None) for i in range(6)]
        with ProcessExecutor(2) as executor:
            results = dict(executor.unordered(die_once, payloads))
        # Every task delivered its result at its original index — the
        # crash is invisible to the index-merging consumer.
        assert results == {i: i * i for i in range(6)}
        assert executor.pool_restarts == 1
        assert executor.tasks_resubmitted >= 1
        assert os.path.exists(marker)

    def test_unordered_survives_one_worker_death_on_a_generator(
        self, tmp_path
    ):
        marker = str(tmp_path / "kill-once")
        payloads = ((i, marker if i == 1 else None) for i in range(5))
        with ProcessExecutor(2) as executor:
            results = dict(executor.unordered(die_once, payloads))
        assert results == {i: i * i for i in range(5)}
        assert executor.pool_restarts == 1

    def test_crash_loop_exhausts_restart_budget(self):
        with ProcessExecutor(2) as executor:
            with pytest.raises(BrokenExecutor):
                list(executor.unordered(die_always, [(i, None) for i in range(4)]))
        assert executor.pool_restarts == executor.max_pool_restarts

    def test_real_task_exception_still_propagates(self, tmp_path):
        # Exception-transparency survives recovery: a worker-raised
        # error is a genuine outcome, not a lost task.
        with ProcessExecutor(2) as executor:
            with pytest.raises(ValueError, match="boom on 7"):
                list(executor.unordered(explode, [7]))
        assert executor.pool_restarts == 0

    def test_recovery_counters_start_zero(self):
        with ProcessExecutor(2) as executor:
            assert dict(executor.unordered(square, [2, 3])) == {0: 4, 1: 9}
        assert executor.pool_restarts == 0
        assert executor.tasks_resubmitted == 0


class TestAbort:
    def test_abort_cancels_queued_tasks(self):
        executor = ThreadExecutor(1)
        # Submit more work than one worker can start; abort must return
        # without draining the queue.
        futures = [
            executor._pool.submit(square, i) for i in range(64)
        ]
        executor.abort()
        assert any(f.cancelled() for f in futures)

    def test_context_manager_aborts_on_exception(self):
        executor = ThreadExecutor(1)
        with pytest.raises(RuntimeError):
            with executor:
                raise RuntimeError("run failed")
        # The pool is shut down; new submissions are refused.
        with pytest.raises(RuntimeError):
            executor._pool.submit(square, 1)


class _SubmitBreaksAfter:
    """A thread pool whose submits fail after ``ok`` successful ones.

    Past that count ``submit`` raises ``BrokenExecutor``, as a process
    pool's does once a worker died before any of its futures was seen.
    """

    def __init__(self, pool, ok):
        self._pool = pool
        self._ok = ok

    def submit(self, fn, *args):
        if self._ok == 0:
            raise BrokenExecutor("a worker died before this submit")
        self._ok -= 1
        return self._pool.submit(fn, *args)

    def shutdown(self, *args, **kwargs):
        self._pool.shutdown(*args, **kwargs)


class _BreaksAtSubmit(ThreadExecutor):
    """A thread executor whose first pools break at submit time.

    ``oks`` gives, pool by pool, how many submits each accepts before
    it breaks; the pools after those are healthy.
    """

    def __init__(self, jobs, *oks):
        self._oks = list(oks)
        super().__init__(jobs)

    def _make_pool(self, jobs):
        pool = super()._make_pool(jobs)
        if not self._oks:
            return pool
        return _SubmitBreaksAfter(pool, self._oks.pop(0))


class TestSubmitTimeBreakage:
    def test_breakage_at_submit_restarts_the_pool(self):
        # No worker dies here and nothing depends on timing: the pool
        # refuses the fourth submit, after two results came back,
        # which must route through a restart instead of raising to the
        # caller.
        payloads = list(range(6))
        expected = {i: i * i for i in payloads}
        with _BreaksAtSubmit(2, 3) as executor:
            assert dict(executor.unordered(square, payloads)) == expected
        assert executor.pool_restarts == 1

    def test_breakage_while_resubmitting_spends_another_restart(self):
        # The replacement pool refuses its first submit, as a fresh
        # process pool does once a resubmitted task killed one of its
        # workers before every lost task was back in. The restart
        # budget must absorb it: a third pool takes every lost task.
        payloads = list(range(6))
        expected = {i: i * i for i in payloads}
        with _BreaksAtSubmit(2, 3, 0) as executor:
            assert dict(executor.unordered(square, payloads)) == expected
        assert executor.pool_restarts == 2
