"""Membership oracles: blackbox access to the target language.

The paper models blackbox program access as an oracle
``O(α) = I[α ∈ L*]`` (§2): run the program on α and report whether it was
accepted. Everything in this reproduction that needs membership — GLADE's
checks, L-Star's queries, RPNI's negatives, the precision metric — goes
through the callables defined here, so oracles compose (caching, counting,
deadlines) uniformly.

Every layer answers one query at a time, and the learner asks its checks
one at a time, stopping at the first rejection, so counted queries are
the paper's. In phase one, a set of independent checks (a candidate's
residuals, one position's character probes) may additionally be passed
ahead as a hint (:func:`prefetcher`): a multi-worker
:class:`SubprocessOracle` runs them in parallel, and the calls that
follow take the finished runs instead of spawning. Phase two hints
nothing; it runs ahead only through its run tasks.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import AbstractSet, Callable, Dict, Iterable, Optional

Oracle = Callable[[str], bool]


class LearningTimeout(Exception):
    """Raised when a learner exceeds its wall-clock deadline (§8.2)."""


class DeadlineOracle:
    """Wrap an oracle and raise once a wall-clock deadline passes.

    ``deadline`` is an absolute :func:`time.monotonic` instant. This is
    how the §8.2 experiments impose the paper's 300-second timeout on
    learners whose cost is dominated by membership queries (L-Star,
    GLADE).
    """

    def __init__(self, oracle: Oracle, deadline: float):
        self._oracle = oracle
        self.deadline = deadline

    def __call__(self, text: str) -> bool:
        if time.monotonic() > self.deadline:
            raise LearningTimeout("oracle deadline exceeded")
        return self._oracle(text)


class CountingOracle:
    """Wrap an oracle and count queries (the paper's main cost metric)."""

    def __init__(self, oracle: Oracle):
        self._oracle = oracle
        self.queries = 0

    def __call__(self, text: str) -> bool:
        self.queries += 1
        return self._oracle(text)


class TracingOracle:
    """Pass-through observability wrapper for the oracle stack.

    Records every *base* oracle invocation — count and wall-clock
    latency — into a :class:`~repro.obs.metrics.MetricsRegistry` and
    (when a live tracer is supplied) as ``cat="oracle"`` spans; the
    prefetch hint (:func:`prefetcher`) records its time here too, as
    ``oracle.prefetch_seconds``. Strictly transparent otherwise:
    verdicts are forwarded unchanged, so inserting this layer between a
    cache and its base oracle changes no query accounting. The pipeline
    only builds it under ``--trace``.
    """

    def __init__(self, oracle: Oracle, registry, tracer=None):
        from repro.obs.trace import NULL_TRACER

        self._oracle = oracle
        self._registry = registry
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def __call__(self, text: str) -> bool:
        self._registry.add("oracle.calls")
        with self._tracer.span("query", cat="oracle"):
            with self._registry.timer("oracle.seconds"):
                return self._oracle(text)


class CachingOracle:
    """Wrap an oracle with a memo table.

    GLADE's candidate enumeration re-derives the same check strings many
    times (e.g. the ε check of every star candidate); caching keeps the
    *distinct*-query count equal to what the algorithm fundamentally
    needs. ``unique_queries`` reports that count: the number of distinct
    strings ever forwarded to the wrapped oracle or recorded, which is
    the size of the (unbounded) cache.
    """

    def __init__(self, oracle: Oracle):
        self._oracle = oracle
        self._cache: Dict[str, bool] = {}

    @property
    def unique_queries(self) -> int:
        return len(self._cache)

    @property
    def seen_digests(self) -> AbstractSet[str]:
        """Every distinct string forwarded to the oracle or recorded
        (:meth:`record`): the cache's live, read-only key view.

        It grows with later queries, so callers read it at once; taking
        it costs O(1). The pipeline's checkpoint tests an unsettled
        seed's strings against it. The name is from when the cache kept
        a digest of each string beside it; it stays because the
        repository benchmark's ``pipeline.digest`` probe wraps this
        property by name.
        """
        return self._cache.keys()

    def known_results(self) -> Dict[str, bool]:
        """A snapshot of every cached (string, verdict) pair.

        A pooled seed task returns its own cache's snapshot, which the
        pipeline folds into the run's cache (:meth:`record`) if the
        seed is kept. The phase-2 query planner pre-seeds its
        cross-pair verdict table from the run's cache the same way, so
        check strings phase 1 already answered — on any job count —
        never reach the oracle again, even from worker processes that
        do not share the cache object.
        """
        return dict(self._cache)

    def record(self, text: str, verdict: bool) -> None:
        """Cache ``verdict`` for ``text`` as if the oracle answered it,
        so the string counts toward ``unique_queries``. The pipeline
        records a kept seed task's verdicts this way, and the phase-2
        wavefront a run task's verdicts for a pair, before committing
        the pair through this cache.
        """
        self._cache[text] = verdict

    def __call__(self, text: str) -> bool:
        if text in self._cache:
            return self._cache[text]
        result = self._oracle(text)
        self._cache[text] = result
        return result


def grammar_oracle(grammar) -> Oracle:
    """Membership oracle for a CFG, decided by Earley parsing."""
    from repro.languages.earley import recognize

    def oracle(text: str) -> bool:
        return recognize(grammar, text)

    return oracle


def regex_oracle(expr) -> Oracle:
    """Membership oracle for a regular expression (``Regex.matches``)."""
    return expr.matches


def program_oracle(program) -> Oracle:
    """Membership oracle for a program under test.

    ``program`` is anything with an ``accepts(text) -> bool`` method —
    the paper's "run the executable and look for an error message".
    """

    def oracle(text: str) -> bool:
        return program.accepts(text)

    return oracle


class _FaultCounters:
    """Mixin: thread-safe per-cause fault counters with drain semantics.

    ``drain_faults`` returns the counts accumulated since the last
    drain and resets them — so a worker task can ship its own deltas
    through its telemetry snapshot while the parent (sharing the same
    oracle object on the serial/thread paths) still accounts exactly
    once for whatever no task drained.
    """

    def _init_faults(self) -> None:
        self._fault_lock = threading.Lock()
        self._faults: Dict[str, int] = {}

    def _count_fault(self, name: str, value: int = 1) -> None:
        with self._fault_lock:
            self._faults[name] = self._faults.get(name, 0) + value

    def drain_faults(self) -> Dict[str, int]:
        """Return and reset the per-cause fault counters (telemetry)."""
        with self._fault_lock:
            drained, self._faults = self._faults, {}
        return drained

    def __getstate__(self) -> dict:
        # The counter lock is process-local (detlint PAR002); a pickled
        # copy shipped to a pool worker starts with a fresh lock and
        # zeroed counters — its counts travel back via telemetry.
        state = self.__dict__.copy()
        del state["_fault_lock"]
        state["_faults"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._fault_lock = threading.Lock()


class SubprocessOracle(_FaultCounters):
    """Run a real executable per query — the paper's §2 oracle, literally.

    The candidate input is passed on stdin (default) or as a file
    argument (``input_mode="file"``, substituting ``{input}`` in the
    command). Acceptance is a zero exit status, optionally refined by an
    ``error_marker`` searched for in stderr (the paper: "we conclude
    that α is a valid input if the program does not print an error
    message").

    With ``max_workers > 1``, :meth:`prefetch` runs independent inputs
    ahead on that many threads, and a later call for one of them takes
    the finished run instead of spawning. The learner still asks one
    check at a time, so verdicts and counted queries are the same at
    any ``max_workers``; only wall-clock changes.

    Failure classification (see :mod:`repro.learning.resilience`): an
    ``OSError`` spawning the subprocess means the query was *never
    answered* — it raises :class:`~repro.learning.resilience
    .OracleTransientError` rather than masquerading as a rejection
    (a cached false verdict would silently corrupt the learned
    grammar). A timeout is genuinely ambiguous — a hung program did
    not accept, but the machine may also just be overloaded — so its
    interpretation is configurable via ``timeout_verdict``: ``reject``
    (the paper's semantics, default), ``retry`` (classify transient)
    or ``error`` (fail fast). Timeouts are counted separately either
    way.
    """

    def __init__(
        self,
        command,
        input_mode: str = "stdin",
        timeout_seconds: float = 5.0,
        error_marker: Optional[str] = None,
        max_workers: int = 1,
        timeout_verdict: str = "reject",
    ):
        from repro.learning.resilience import TIMEOUT_VERDICTS

        if input_mode not in ("stdin", "file"):
            raise ValueError("input_mode must be 'stdin' or 'file'")
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if timeout_verdict not in TIMEOUT_VERDICTS:
            raise ValueError(
                "timeout_verdict must be one of {}".format(
                    ", ".join(TIMEOUT_VERDICTS)
                )
            )
        self.command = list(command)
        self.input_mode = input_mode
        self.timeout_seconds = timeout_seconds
        self.error_marker = error_marker
        self.max_workers = max_workers
        self.timeout_verdict = timeout_verdict
        self._pool: Optional[ThreadPoolExecutor] = None
        # Prefetched runs not yet taken by a call: True (accepted),
        # False (rejected) or None (timed out).
        self._kept: Dict[str, Optional[bool]] = {}
        # Guards the lazy pool and the kept runs: the thread execution
        # backend shares one oracle object across worker threads.
        self._lock = threading.Lock()
        # Per-cause fault counters (timeouts, spawn failures), drained
        # into telemetry by the resilience helpers.
        self._init_faults()

    def __call__(self, text: str) -> bool:
        with self._lock:
            kept = text in self._kept
            outcome = self._kept.pop(text, None)
        return self._verdict(outcome if kept else self._run(text))

    def _run(self, text: str):
        """Run the command once on ``text``.

        Returns True (accepted), False (rejected), None (timed out) or
        the ``OSError`` that kept the process from starting. Counts no
        fault: :meth:`_verdict` does, for the call that uses the run.
        """
        command = self.command
        stdin_data: Optional[str] = text
        tmp_path: Optional[str] = None
        try:
            if self.input_mode == "file":
                fd, tmp_path = tempfile.mkstemp(prefix="repro-oracle-")
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                command = [
                    part.replace("{input}", tmp_path) for part in command
                ]
                stdin_data = None
            try:
                completed = subprocess.run(
                    command,
                    input=stdin_data,
                    capture_output=True,
                    text=True,
                    timeout=self.timeout_seconds,
                )
            except subprocess.TimeoutExpired:
                return None
            except OSError as exc:
                return exc
            if completed.returncode != 0:
                return False
            return self.error_marker is None or (
                self.error_marker not in completed.stderr
            )
        finally:
            if tmp_path is not None:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass

    def _verdict(self, outcome) -> bool:
        """Turn one run's outcome into a verdict, counting its faults."""
        if isinstance(outcome, bool):
            return outcome
        from repro.learning.resilience import (
            OracleFailedError,
            OracleTransientError,
        )

        if isinstance(outcome, OSError):
            # The subprocess never ran: no verdict exists. Raising
            # (instead of the historical silent `return False`) keeps a
            # fork/exec failure from being cached as a rejection and
            # corrupting the learned grammar.
            self._count_fault("spawn")
            raise OracleTransientError(
                "spawn",
                "failed to run oracle command {!r}: {}".format(
                    self.command[0], outcome
                ),
            ) from outcome
        self._count_fault("timeout")
        if self.timeout_verdict == "reject":
            # The paper's semantics: a hung program did not accept the
            # input. Counted separately above so a timeout-heavy run is
            # diagnosable from telemetry.
            self._count_fault("timeout_reject")
            return False
        if self.timeout_verdict == "error":
            raise OracleFailedError(
                "oracle command {!r} timed out after {}s "
                "(timeout_verdict=error)".format(
                    self.command[0], self.timeout_seconds
                ),
                cause="timeout",
            )
        raise OracleTransientError(
            "timeout",
            "oracle command {!r} timed out after {}s".format(
                self.command[0], self.timeout_seconds
            ),
        )

    def prefetch(self, texts: Iterable[str]) -> None:
        """Run independent inputs ahead on the worker pool.

        Keeps per text only what the verdict needs — accepted, rejected
        or timed out — never process output; a later call takes the
        run, counting its faults then. A run that could not start keeps
        nothing, so its call spawns and fails exactly as an unprefetched
        one. Does nothing with one worker or for fewer than two new
        texts.
        """
        if self.max_workers < 2:
            return
        with self._lock:
            fresh = [
                text for text in dict.fromkeys(texts)
                if text not in self._kept
            ]
            if len(fresh) < 2:
                return
            if self._pool is None:
                # Kept for the oracle's lifetime (the learner hints
                # thousands of small sets); close() releases it.
                self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
            pool = self._pool
        runs = [(text, pool.submit(self._run, text)) for text in fresh]
        for text, run in runs:
            try:
                outcome = run.result()
            except Exception:
                # A hint must not fail a run the learner may never ask
                # for: keep nothing, and the call that runs the text
                # again raises this itself.
                continue
            if not isinstance(outcome, OSError):
                with self._lock:
                    self._kept[text] = outcome

    def close(self) -> None:
        """Shut down the prefetch pool and drop the kept runs (a later
        prefetch recreates the pool)."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._kept = {}
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "SubprocessOracle":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __getstate__(self) -> dict:
        # Beyond the mixin's lock/counter reset: the pool, its lock and
        # the kept runs are process-local; a pickled copy (say, in a
        # ProcessExecutor worker) starts without them.
        state = super().__getstate__()
        state["_pool"] = None
        state["_kept"] = {}
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._lock = threading.Lock()


def prefetcher(oracle: Oracle) -> Optional[Callable[[Iterable[str]], None]]:
    """The stack's prefetch hint, or None when nothing would use it.

    Walks ``_oracle`` links (as ``drain_fault_counters`` does) to a
    :class:`SubprocessOracle` with more than one worker. The hint hands
    it independent checks to :meth:`~SubprocessOracle.prefetch`, minus
    those a :class:`CachingOracle` on the way holds; a
    :class:`TracingOracle` on the way times it. Phase one's learner
    sites resolve it once per seed or constant set; phase two hands no
    hint.
    """
    caches = []
    tracing: Optional[TracingOracle] = None
    layer = oracle
    while layer is not None:
        if isinstance(layer, SubprocessOracle):
            if layer.max_workers < 2:
                return None
            return partial(_prefetch, layer, tuple(caches), tracing)
        if isinstance(layer, CachingOracle):
            caches.append(layer)
        elif isinstance(layer, TracingOracle) and tracing is None:
            tracing = layer
        layer = getattr(layer, "_oracle", None)
    return None


def _prefetch(target, caches, tracing, texts: Iterable[str]) -> None:
    fresh = [t for t in texts if not any(t in c._cache for c in caches)]
    if tracing is None:
        target.prefetch(fresh)
        return
    with tracing._tracer.span("prefetch", cat="oracle"):
        with tracing._registry.timer("oracle.prefetch_seconds"):
            target.prefetch(fresh)
