"""Membership oracles: blackbox access to the target language.

The paper models blackbox program access as an oracle
``O(α) = I[α ∈ L*]`` (§2): run the program on α and report whether it was
accepted. Everything in this reproduction that needs membership — GLADE's
checks, L-Star's queries, RPNI's negatives, the precision metric — goes
through the callables defined here, so oracles compose (caching, counting,
budget enforcement) uniformly.

Besides single queries, the stack supports *batched* queries via
:func:`query_many`: GLADE's candidate checks, character-generalization
probes, and merge checks are mutually independent, so an oracle that can
answer them concurrently (notably :class:`SubprocessOracle`) is handed
the whole batch at once. Wrappers forward batches inward, preserving
their counting/caching/deadline semantics.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set

Oracle = Callable[[str], bool]


def text_digest(text: str) -> int:
    """A deterministic 64-bit fingerprint of a query string.

    Used to count *distinct* queried strings without retaining them —
    including across worker processes, where sets of digests from
    independent shards are unioned. Python's builtin ``hash`` is salted
    per process, so it cannot be merged across workers; a truncated
    blake2b can. A collision undercounting the metric is astronomically
    unlikely.
    """
    digest = hashlib.blake2b(
        text.encode("utf-8", "surrogatepass"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class OracleBudgetExceeded(Exception):
    """Raised when an oracle exceeds its query budget (timeout analog)."""


class LearningTimeout(Exception):
    """Raised when a learner exceeds its wall-clock deadline (§8.2)."""


def supports_concurrency(oracle: Oracle) -> bool:
    """True if the oracle stack answers batches genuinely in parallel.

    Wrappers expose a ``concurrent`` property delegating inward, so the
    flag propagates through counting/caching/deadline layers down to the
    base oracle (:class:`SubprocessOracle` with more than one worker).
    """
    return bool(getattr(oracle, "concurrent", False))


def query_many(oracle: Oracle, texts: Sequence[str]) -> List[bool]:
    """Evaluate a batch of *independent* membership queries.

    A concurrent oracle stack is handed the batch through its own
    ``query_many`` method (every wrapper below forwards batches inward;
    :class:`SubprocessOracle` answers them from a thread pool). A
    sequential stack is queried one string at a time — identical
    results and counting, without the batch bookkeeping. Results are
    returned in input order.
    """
    if supports_concurrency(oracle):
        batched = getattr(oracle, "query_many", None)
        if batched is not None:
            return batched(texts)
    return [oracle(text) for text in texts]


def query_all(oracle: Oracle, texts: Sequence[str]) -> bool:
    """True iff every text is accepted (a conjunctive check batch).

    Sequential oracles keep the paper's short-circuit semantics — stop
    at the first rejection, issuing no further queries — so query counts
    are unchanged. A concurrent stack is handed the whole batch at once:
    it may issue more queries than strict short-circuiting, but answers
    them in parallel, trading queries for wall-clock.
    """
    texts = list(texts)
    if not texts:
        return True
    if supports_concurrency(oracle):
        return all(query_many(oracle, texts))
    for text in texts:
        if not oracle(text):
            return False
    return True


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

    @property
    def concurrent(self) -> bool:
        return supports_concurrency(self._oracle)

    def __call__(self, text: str) -> bool:
        if time.monotonic() > self.deadline:
            raise LearningTimeout("oracle deadline exceeded")
        return self._oracle(text)

    def query_many(self, texts: Sequence[str]) -> List[bool]:
        if not supports_concurrency(self._oracle):
            # Sequential: keep the per-query deadline check of __call__.
            return [self(text) for text in texts]
        # Concurrent: the deadline is checked once up front — an
        # in-flight batch cannot be interrupted, so a batch may overrun
        # the deadline by up to its own duration before the next check
        # fires.
        if time.monotonic() > self.deadline:
            raise LearningTimeout("oracle deadline exceeded")
        return query_many(self._oracle, texts)


class CountingOracle:
    """Wrap an oracle and count queries (the paper's main cost metric)."""

    def __init__(self, oracle: Oracle):
        self._oracle = oracle
        self.queries = 0

    @property
    def concurrent(self) -> bool:
        return supports_concurrency(self._oracle)

    def __call__(self, text: str) -> bool:
        self.queries += 1
        return self._oracle(text)

    def query_many(self, texts: Sequence[str]) -> List[bool]:
        self.queries += len(texts)
        return query_many(self._oracle, texts)


class TracingOracle:
    """Pass-through observability wrapper for the oracle stack.

    Records every *base* oracle invocation — count, batch size and
    wall-clock latency — into a :class:`~repro.obs.metrics
    .MetricsRegistry` and (when a live tracer is supplied) as
    ``cat="oracle"`` spans. Strictly transparent otherwise: verdicts,
    concurrency and batching are forwarded unchanged, so inserting this
    layer between a cache and its base oracle changes no query
    accounting. The pipeline only builds it under ``--trace``.
    """

    def __init__(self, oracle: Oracle, registry, tracer=None):
        from repro.obs.trace import NULL_TRACER

        self._oracle = oracle
        self._registry = registry
        self._tracer = tracer if tracer is not None else NULL_TRACER

    @property
    def concurrent(self) -> bool:
        return supports_concurrency(self._oracle)

    def __call__(self, text: str) -> bool:
        self._registry.add("oracle.calls")
        with self._tracer.span("query", cat="oracle"):
            with self._registry.timer("oracle.seconds"):
                return self._oracle(text)

    def query_many(self, texts: Sequence[str]) -> List[bool]:
        self._registry.add("oracle.calls", len(texts))
        self._registry.add("oracle.batches")
        span = self._tracer.span(
            "batch", cat="oracle", args={"n": len(texts)}
        )
        with span:
            with self._registry.timer("oracle.seconds"):
                return query_many(self._oracle, texts)


class CachingOracle:
    """Wrap an oracle with a memo table.

    GLADE's candidate enumeration re-derives the same check strings many
    times (e.g. the ε check of every star candidate); caching keeps the
    *distinct*-query count equal to what the algorithm fundamentally
    needs. ``unique_queries`` reports that count: the number of distinct
    strings ever forwarded to the wrapped oracle. A separate seen-set
    keeps the count exact even when ``max_size`` bounds the result
    cache (results for overflow strings are recomputed, but a string is
    never counted twice).
    """

    def __init__(self, oracle: Oracle, max_size: Optional[int] = None):
        self._oracle = oracle
        self._cache: Dict[str, bool] = {}
        # Distinct strings are tracked by deterministic digest, not by
        # value, so a bounded cache stays memory-bounded per distinct
        # string (O(1) instead of retaining every evicted string), and
        # the sets can be unioned across worker processes for global
        # unique-query accounting (see :func:`text_digest`).
        self._seen: Set[int] = set()
        self._max_size = max_size
        self.unique_queries = 0

    @property
    def seen_digests(self) -> FrozenSet[int]:
        """Digests of every distinct string forwarded to the oracle."""
        return frozenset(self._seen)

    def known_results(self) -> Dict[str, bool]:
        """A snapshot of every cached (string, verdict) pair.

        This is how the phase-2 query planner pre-seeds its cross-pair
        verdict table: check strings phase 1 already answered through
        this cache never reach the oracle again, even from worker
        processes that do not share the cache object.
        """
        return dict(self._cache)

    @property
    def concurrent(self) -> bool:
        return supports_concurrency(self._oracle)

    def _record(self, text: str, result: bool) -> None:
        fingerprint = text_digest(text)
        if fingerprint not in self._seen:
            self._seen.add(fingerprint)
            self.unique_queries += 1
        if self._max_size is None or len(self._cache) < self._max_size:
            self._cache[text] = result

    def __call__(self, text: str) -> bool:
        if text in self._cache:
            return self._cache[text]
        result = self._oracle(text)
        self._record(text, result)
        return result

    def query_many(self, texts: Sequence[str]) -> List[bool]:
        results: Dict[int, bool] = {}
        misses: List[str] = []
        miss_positions: Dict[str, List[int]] = {}
        for index, text in enumerate(texts):
            if text in self._cache:
                results[index] = self._cache[text]
            else:
                positions = miss_positions.get(text)
                if positions is None:
                    miss_positions[text] = positions = []
                    misses.append(text)
                positions.append(index)
        if misses:
            answers = query_many(self._oracle, misses)
            for text, answer in zip(misses, answers):
                self._record(text, answer)
                for index in miss_positions[text]:
                    results[index] = answer
        return [results[index] for index in range(len(texts))]


class BudgetOracle:
    """Wrap an oracle and raise once ``budget`` queries have been made.

    This is the deterministic analog of the paper's 300-second timeout:
    baselines that issue pathologically many membership queries (§8.2
    observes this for L-Star) are cut off reproducibly. A batch that
    would overrun the budget raises before any of it is dispatched.
    """

    def __init__(self, oracle: Oracle, budget: int):
        self._oracle = oracle
        self.budget = budget
        self.queries = 0
        # The thread execution backend shares one oracle object across
        # worker threads; the check-then-increment must be atomic or
        # the budget can be overshot (`+=` on an attribute is not).
        self._lock = threading.Lock()

    @property
    def concurrent(self) -> bool:
        return supports_concurrency(self._oracle)

    def _charge(self, count: int) -> None:
        with self._lock:
            if self.queries + count > self.budget:
                raise OracleBudgetExceeded(
                    "membership-query budget of {} exhausted".format(
                        self.budget
                    )
                )
            self.queries += count

    def __call__(self, text: str) -> bool:
        self._charge(1)
        return self._oracle(text)

    def query_many(self, texts: Sequence[str]) -> List[bool]:
        self._charge(len(texts))
        return query_many(self._oracle, texts)

    def __getstate__(self) -> dict:
        # The budget guard lock is process-local (detlint PAR002): a
        # pickled copy shipped to a process-pool worker starts with a
        # fresh lock and its own snapshot of the count. Cross-process
        # budget accounting is the parent's job — workers only ever
        # see per-task slices of the budget.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


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

    Batches (:func:`query_many`) run up to ``max_workers`` subprocesses
    concurrently; each query is an independent process, so no ordering
    or state is shared between them. The default ``max_workers=1``
    keeps the stack sequential — and with it the paper's short-circuit
    query accounting; concurrency is an explicit opt-in that trades
    extra queries for wall-clock.

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
        # Guards lazy pool creation: the thread execution backend
        # shares one oracle object across worker threads, so two first
        # batches may race to create the pool.
        self._pool_lock = threading.Lock()
        # Per-cause fault counters (timeouts, spawn failures), drained
        # into telemetry by the resilience helpers.
        self._init_faults()

    @property
    def concurrent(self) -> bool:
        return self.max_workers > 1

    def __call__(self, text: str) -> bool:
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
                from repro.learning.resilience import (
                    OracleFailedError,
                    OracleTransientError,
                )

                self._count_fault("timeout")
                if self.timeout_verdict == "reject":
                    # The paper's semantics: a hung program did not
                    # accept the input. Counted separately above so a
                    # timeout-heavy run is diagnosable from telemetry.
                    self._count_fault("timeout_reject")
                    return False
                if self.timeout_verdict == "error":
                    raise OracleFailedError(
                        "oracle command {!r} timed out after {}s "
                        "(timeout_verdict=error)".format(
                            self.command[0], self.timeout_seconds
                        ),
                        cause="timeout",
                    ) from None
                raise OracleTransientError(
                    "timeout",
                    "oracle command {!r} timed out after {}s".format(
                        self.command[0], self.timeout_seconds
                    ),
                ) from None
            except OSError as exc:
                from repro.learning.resilience import OracleTransientError

                # The subprocess never ran: no verdict exists. Raising
                # (instead of the historical silent `return False`)
                # keeps a fork/exec failure from being cached as a
                # rejection and corrupting the learned grammar.
                self._count_fault("spawn")
                raise OracleTransientError(
                    "spawn",
                    "failed to run oracle command {!r}: {}".format(
                        self.command[0], exc
                    ),
                ) from exc
            if completed.returncode != 0:
                return False
            if self.error_marker is not None and (
                self.error_marker in completed.stderr
            ):
                return False
            return True
        finally:
            if tmp_path is not None:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass

    def query_many(self, texts: Sequence[str]) -> List[bool]:
        texts = list(texts)
        if len(texts) <= 1:
            return [self(text) for text in texts]
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                if self._pool is None:
                    # Created lazily and kept for the oracle's
                    # lifetime: the learner issues thousands of small
                    # batches, so per-batch pool setup/teardown would
                    # dominate. Release with close() (or a with-block)
                    # in long-lived processes; otherwise the
                    # interpreter joins the idle workers at exit.
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.max_workers
                    )
                pool = self._pool
        return list(pool.map(self, texts))

    def close(self) -> None:
        """Shut down the batch thread pool (a later batch recreates it)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "SubprocessOracle":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __getstate__(self) -> dict:
        # Beyond the mixin's lock/counter reset: the lazily created
        # thread pool (and its lock) are process-local state; a pickled
        # copy (e.g. one shipped to a ProcessExecutor worker) starts
        # without them and creates its own on first batch.
        state = super().__getstate__()
        state["_pool"] = None
        del state["_pool_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._pool_lock = threading.Lock()
