"""Pluggable execution backends for embarrassingly parallel work.

An :class:`Executor` runs independent task payloads through one worker
function and yields ``(index, result)`` pairs as tasks complete — in
arbitrary order for the parallel backends, which is fine because the
consumers (:mod:`repro.exec.shard`, the pipeline) merge results back
into deterministic seed order.

Three implementations:

- :class:`SerialExecutor` — runs tasks inline, lazily, in submission
  order. The zero-overhead default; laziness matters because the
  sequential pipeline can decide to *not* submit later tasks based on
  earlier results (the §6.1 covered-seed skip).
- :class:`ThreadExecutor` — a ``ThreadPoolExecutor``. The right choice
  when task time is dominated by releasing the GIL (subprocess oracles,
  I/O); shares the oracle object across tasks.
- :class:`ProcessExecutor` — a ``ProcessPoolExecutor``. True CPU
  parallelism for in-process oracles; the worker function and every
  payload must be picklable (the shard module's task payloads are plain
  dicts of primitives plus the oracle).

``resolve_backend`` maps the user-facing ``--backend auto`` setting to
a concrete backend for a given job count and oracle.
"""

from __future__ import annotations

import pickle
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Any, Callable, Iterable, Iterator, Tuple

#: Backend names accepted by :func:`make_executor` / the CLI.
BACKENDS = ("serial", "thread", "process")


class Executor:
    """Interface: run independent payloads, yield results as they finish."""

    #: Concrete backend name, recorded in the run artifact.
    name: str = "?"
    #: Worker count, recorded in the run artifact.
    jobs: int = 1
    #: True when workers share the parent's address space (tasks may
    #: then be handed live objects; otherwise payloads are serialized,
    #: possibly on a pool-internal thread, so they must be immutable
    #: snapshots). The conservative default is False.
    in_process: bool = False

    #: Lifetime utilization counters (read by the observability layer
    #: after a stage finishes; purely informational). ``peak_in_flight``
    #: is the largest number of simultaneously submitted-but-unfinished
    #: tasks — ``peak_in_flight / jobs`` approximates worker
    #: utilization for saturating workloads.
    submitted: int = 0
    completed: int = 0
    peak_in_flight: int = 0
    #: Crash-recovery counters: pools rebuilt after a worker death and
    #: in-flight tasks resubmitted to the rebuilt pool. Always zero for
    #: the serial backend.
    pool_restarts: int = 0
    tasks_resubmitted: int = 0

    def unordered(
        self, fn: Callable[[Any], Any], payloads: Iterable[Any]
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, fn(payload))`` in completion order.

        ``index`` is the payload's position in ``payloads`` (submission
        order). Payloads are pulled lazily, at most ``2 * jobs`` tasks
        are in flight at once, and the iterator is advanced only when a
        submission slot frees up, on the *consumer's* thread — after
        the consumer has processed every previously yielded result. So
        ``payloads`` may be a generator whose elements depend on results
        the consumer has already received: a scheduler can make
        submission decisions (skip a task, enrich its payload) from
        state that earlier completions updated — the phase-2 merge
        wavefront's reason for existing.

        A worker exception propagates to the consumer *unwrapped* —
        running through an executor is exception-transparent, exactly
        like calling ``fn`` inline. This matters for the oracle stack's
        control-flow exceptions (``LearningTimeout``,
        ``OracleFailedError``), which callers catch by type.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources; the executor is done after this."""

    def abort(self) -> None:
        """Stop without draining queued work (the failed-run path).

        Queued-but-unstarted tasks are cancelled so a run that is
        already dead (oracle failed terminally, budget exhausted) does
        not block behind work whose results nobody will read. The
        default is :meth:`close`; pool backends override.
        """
        self.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        # A with-block unwinding on an exception is a failed run:
        # cancel queued tasks instead of draining them.
        if exc_type is not None:
            self.abort()
        else:
            self.close()


class SerialExecutor(Executor):
    """Run tasks inline, lazily, in submission order."""

    name = "serial"
    jobs = 1
    in_process = True

    def unordered(
        self, fn: Callable[[Any], Any], payloads: Iterable[Any]
    ) -> Iterator[Tuple[int, Any]]:
        for index, payload in enumerate(payloads):
            self.submitted += 1
            self.peak_in_flight = max(self.peak_in_flight, 1)
            result = fn(payload)
            self.completed += 1
            yield index, result


class _PoolExecutor(Executor):
    """Shared future-driving logic for the concurrent.futures backends.

    :meth:`unordered` recovers from a dead worker: when a future
    surfaces ``BrokenProcessPool``/``BrokenThreadPool`` (their common
    base is ``BrokenExecutor``), or ``submit`` raises it because a
    worker died before any of its futures was seen, the broken pool is
    replaced and every task it lost — in-flight, queued or not yet
    submitted — is resubmitted to the fresh pool, bounded by
    :attr:`max_pool_restarts`. Tasks that already finished keep their
    results, resubmitted tasks keep their original indices, and the
    consumer merges by index as always — so a mid-phase worker death
    changes *nothing* about the merged output (grammars stay
    byte-identical; see ``benchmarks/bench_faults.py``).
    """

    #: Bounded pool rebuilds per executor: a crash loop (e.g. a task
    #: that kills every worker it lands on) re-raises the original
    #: ``BrokenExecutor`` instead of restarting forever.
    max_pool_restarts: int = 2

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self._pool = self._make_pool(jobs)

    def _make_pool(self, jobs: int):
        raise NotImplementedError

    def _restart(
        self,
        fn: Callable[[Any], Any],
        entries: dict,
        first_lost: Tuple[int, Any],
    ) -> bool:
        """Rebuild a broken pool and resubmit its lost tasks.

        ``entries`` maps live futures to ``(index, payload)``; it is
        rewritten in place — futures whose task died (or never started)
        are replaced by fresh submissions to the new pool, futures that
        already hold a real result (or a real task exception) are kept
        so their outcome is delivered exactly once. Returns False when
        the restart budget is exhausted (caller re-raises).
        """
        if self.pool_restarts >= self.max_pool_restarts:
            return False
        self.pool_restarts += 1
        lost = [first_lost]
        for future in list(entries):
            salvageable = False
            if future.done() and not future.cancelled():
                exc = future.exception()
                # A worker-raised exception that is *not* the pool
                # breakage is a genuine task outcome: keep it and let
                # result() re-raise it for exception-transparency.
                salvageable = not isinstance(exc, BrokenExecutor)
            if not salvageable:
                lost.append(entries.pop(future))
        broken, self._pool = self._pool, self._make_pool(self.jobs)
        broken.shutdown(wait=False)
        for index, payload in lost:
            entries[self._pool.submit(fn, payload)] = (index, payload)
        self.tasks_resubmitted += len(lost)
        return True

    def _submit(
        self,
        fn: Callable[[Any], Any],
        entries: dict,
        index: int,
        payload: Any,
    ) -> None:
        """Submit one task into ``entries``, restarting a broken pool.

        The unsubmitted payload is the restart's first lost task, as a
        future that surfaced the breakage would be.
        """
        try:
            future = self._pool.submit(fn, payload)
        except BrokenExecutor:
            if not self._restart(fn, entries, (index, payload)):
                raise
            return
        entries[future] = (index, payload)

    def unordered(
        self, fn: Callable[[Any], Any], payloads: Iterable[Any]
    ) -> Iterator[Tuple[int, Any]]:
        # Twice the worker count keeps every worker busy while the
        # consumer processes a result, without racing far ahead of the
        # consumer (each in-flight task past an in-order commit
        # frontier is potential speculative waste).
        window = 2 * self.jobs
        iterator = iter(payloads)
        entries = {}
        position = 0
        exhausted = False

        def top_up() -> None:
            nonlocal position, exhausted
            while not exhausted and len(entries) < window:
                try:
                    payload = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                self._submit(fn, entries, position, payload)
                position += 1
                self.submitted += 1
                if len(entries) > self.peak_in_flight:
                    self.peak_in_flight = len(entries)

        try:
            while True:
                top_up()
                if not entries:
                    break
                done, _pending = wait(
                    entries, return_when=FIRST_COMPLETED
                )
                # One result per iteration: the consumer's state must
                # be able to influence the next submission, so already
                # -done futures are re-drawn from ``wait`` (free) after
                # the consumer has seen each predecessor.
                future = done.pop()
                index, payload = entries.pop(future)
                try:
                    # .result() re-raises the worker's exception as-is
                    # (the process backend reconstructs it by pickle),
                    # preserving exception-transparency.
                    result = future.result()
                except BrokenExecutor:
                    if not self._restart(fn, entries, (index, payload)):
                        raise
                    continue
                self.completed += 1
                yield index, result
        finally:
            for future in entries:
                future.cancel()

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def abort(self) -> None:
        # cancel_futures drops queued-but-unstarted tasks; wait=False
        # returns without blocking on tasks already running (they
        # finish into discarded futures).
        self._pool.shutdown(wait=False, cancel_futures=True)


class ThreadExecutor(_PoolExecutor):
    """Run tasks on a thread pool (oracle object shared across tasks)."""

    name = "thread"
    in_process = True

    def _make_pool(self, jobs: int):
        return ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="repro-exec"
        )


class ProcessExecutor(_PoolExecutor):
    """Run tasks on a process pool (payloads shipped by pickle)."""

    name = "process"

    def _make_pool(self, jobs: int):
        return ProcessPoolExecutor(max_workers=jobs)


def resolve_backend(backend: str, jobs: int, oracle: Any = None) -> str:
    """Map a requested backend (possibly ``auto``) to a concrete one.

    One job always resolves to serial — a single-worker pool would
    only add overhead *and* trade away the §6.1 pre-skip for
    speculation with nothing to overlap. With several jobs, ``auto``
    picks the process backend when the oracle can be pickled (true CPU
    parallelism), falling back to threads for in-process closures that
    cannot cross a process boundary (still a win for GIL-releasing
    oracles); asking for ``serial`` with several jobs is a
    contradiction and rejected.
    """
    if backend not in BACKENDS and backend != "auto":
        raise ValueError(
            "unknown execution backend {!r} (expected one of {})".format(
                backend, ", ".join(BACKENDS + ("auto",))
            )
        )
    if jobs <= 1:
        return "serial"
    if backend == "serial":
        raise ValueError(
            "the serial backend is single-worker; use jobs=1 with it, "
            "or pick thread/process (or auto) for {} jobs".format(jobs)
        )
    if backend == "process":
        if oracle is not None:
            _require_picklable(oracle)
        return "process"
    if backend == "thread":
        return "thread"
    if oracle is not None:
        try:
            pickle.dumps(oracle)
        except Exception:
            return "thread"
    return "process"


def _require_picklable(oracle: Any) -> None:
    try:
        pickle.dumps(oracle)
    except Exception as exc:
        raise ValueError(
            "the process backend requires a picklable oracle "
            "(got {!r}: {}); use backend='thread' for in-process "
            "closures".format(type(oracle).__name__, exc)
        ) from exc


def make_executor(backend: str, jobs: int, oracle: Any = None) -> Executor:
    """Build the executor for a resolved or ``auto`` backend name."""
    resolved = resolve_backend(backend, jobs, oracle)
    if resolved == "serial":
        return SerialExecutor()
    if resolved == "thread":
        return ThreadExecutor(jobs)
    return ProcessExecutor(jobs)
