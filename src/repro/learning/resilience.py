"""Fault-tolerant oracle execution: classified errors, retries, chaos.

The paper's oracle model (§2) assumes every membership answer is a
*program verdict*: run the target on α and observe acceptance. On a
real machine the observation itself can fail — a fork bomb exhausts
pids, the OOM killer takes the subprocess, a file descriptor limit
trips — and a learner that maps such failures to ``False`` silently
corrupts the grammar it is synthesizing (worse, a caching layer then
*persists* the corruption). This module separates the two worlds:

- :class:`OracleTransientError` — the query was never answered; the
  infrastructure failed. Classified by ``cause`` (``spawn``,
  ``timeout``, ``injected``, ...). Retryable.
- :class:`OracleFailedError` — terminal: retries were exhausted, the
  circuit breaker opened, or policy says fail fast. The learning run
  aborts with a resumable checkpoint instead of learning garbage.
- Verdicts (``True``/``False``) remain exactly the paper's semantics.

:class:`ResilientOracle` wraps any oracle with a bounded, fully
deterministic retry schedule (attempt-indexed exponential backoff with
seeded jitter — no wall-clock randomness) and a consecutive-failure
circuit breaker. :class:`ChaosOracle` + :class:`FaultPlan` provide the
deterministic fault-injection harness the tests and
``benchmarks/bench_faults.py`` use to prove that injected transient
faults, timeouts and worker kills leave grammars and counted query
totals byte-identical to a healthy run.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Optional

from repro.learning.oracle import Oracle, _FaultCounters

#: How a query timeout is interpreted (``SubprocessOracle`` /
#: :class:`ChaosOracle` ``timeout_verdict``):
#:
#: - ``reject`` — the paper's semantics: a hung program did not accept
#:   the input, so the verdict is ``False`` (counted separately so a
#:   timeout-heavy run is diagnosable);
#: - ``retry`` — the timeout is classified transient and raised as
#:   :class:`OracleTransientError` for the resilient layer to retry;
#: - ``error`` — fail fast with :class:`OracleFailedError` (a timeout
#:   is treated as an infrastructure bug, not a verdict).
TIMEOUT_VERDICTS = ("reject", "retry", "error")

#: Exit code chaos-killed pool workers die with (diagnosable in logs).
KILL_EXIT_CODE = 43


class OracleTransientError(Exception):
    """The oracle *invocation* failed; no verdict was produced.

    Never convert this into a membership verdict: a cached ``False``
    born from a fork failure is indistinguishable from a genuine
    rejection and corrupts every later consumer. ``cause`` is a short
    machine-readable classification (``spawn``, ``timeout``,
    ``injected``) used for per-cause fault counters.
    """

    def __init__(self, cause: str, message: str):
        self.cause = cause
        super().__init__(message)


class OracleFailedError(Exception):
    """Terminal oracle failure: the run must stop, not guess.

    Raised when retries are exhausted, the circuit breaker opens, or a
    timeout policy says to fail fast. The pipeline checkpoints before
    letting this propagate, so ``repro resume`` continues the run once
    the infrastructure recovers — no completed work is lost and no
    wrong verdict was recorded.
    """

    def __init__(self, message: str, cause: str = "", attempts: int = 0):
        self.cause = cause
        self.attempts = attempts
        super().__init__(message)


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic bounded-retry schedule for transient oracle errors.

    ``delay(attempt, key)`` is a pure function of the policy, the
    attempt index and the query key: exponential backoff capped at
    ``max_delay``, stretched by seeded jitter derived from a blake2b
    hash (never from wall-clock or ambient RNG — the schedule is
    byte-identical across runs, which keeps retrying detlint-clean and
    reproducible in tests). ``breaker_threshold`` consecutive transient
    failures with no intervening success open the circuit breaker:
    every later query fails fast with :class:`OracleFailedError`
    instead of burning its own full retry schedule — the important
    case is thread-backend workers sharing one oracle, which would
    otherwise each rediscover that the machine is down. ``0`` disables
    the breaker.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    breaker_threshold: int = 8

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0")

    def delay(self, attempt: int, key: str = "") -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        delay = self.base_delay * (2.0 ** attempt)
        if delay > self.max_delay:
            delay = self.max_delay
        if self.jitter > 0.0 and delay > 0.0:
            digest = hashlib.blake2b(
                "{}|{}|{}".format(self.seed, key, attempt).encode(
                    "utf-8", "surrogatepass"
                ),
                digest_size=8,
            ).digest()
            fraction = int.from_bytes(digest, "big") / 2.0 ** 64
            delay *= 1.0 + self.jitter * fraction
        return delay


class ResilientOracle(_FaultCounters):
    """Wrap an oracle with deterministic retries and a circuit breaker.

    Placement matters: this layer belongs *inside* the counting and
    caching wrappers (closest to the base oracle), so a retried query
    is still counted once and only real verdicts are ever cached.
    Transparent to healthy queries — verdicts forward unchanged, so
    counted metrics are byte-identical with the wrapper present or
    absent.
    """

    def __init__(
        self, oracle: Oracle, policy: Optional[RetryPolicy] = None
    ):
        self._oracle = oracle
        self.policy = policy if policy is not None else RetryPolicy()
        self._init_faults()
        # Consecutive transient attempt-failures (any success resets);
        # guarded by the fault lock, shared across worker threads.
        self._consecutive = 0
        self._breaker_open = False

    @property
    def breaker_open(self) -> bool:
        return self._breaker_open

    def _check_breaker(self) -> None:
        if self._breaker_open:
            self._count_fault("breaker_fastfail")
            raise OracleFailedError(
                "oracle circuit breaker is open ({} consecutive "
                "transient failures); the run checkpoint is resumable "
                "once the oracle infrastructure recovers".format(
                    self.policy.breaker_threshold
                ),
                cause="breaker",
            )

    def _record_transient(self, exc: OracleTransientError) -> None:
        self._count_fault("transient." + (exc.cause or "unknown"))
        with self._fault_lock:
            self._consecutive += 1
            threshold = self.policy.breaker_threshold
            if threshold and self._consecutive >= threshold:
                self._breaker_open = True

    def _record_success(self) -> None:
        if self._consecutive:
            with self._fault_lock:
                self._consecutive = 0

    def __call__(self, text: str) -> bool:
        attempt = 0
        while True:
            self._check_breaker()
            try:
                result = self._oracle(text)
            except OracleTransientError as exc:
                self._record_transient(exc)
                attempt += 1
                if attempt >= self.policy.max_attempts:
                    self._count_fault("gave_up")
                    raise OracleFailedError(
                        "oracle query failed after {} attempt(s) "
                        "({}): {}".format(attempt, exc.cause, exc),
                        cause=exc.cause,
                        attempts=attempt,
                    ) from exc
                self._count_fault("retries")
                delay = self.policy.delay(attempt - 1, text)
                if delay > 0.0:
                    time.sleep(delay)
                continue
            self._record_success()
            return result


# -- deterministic fault injection ----------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """Which oracle invocations / tasks fail, decided up front.

    Indices are positions in an oracle stack's own invocation counter
    (each pickled worker copy counts from zero, so a plan is
    deterministic *per task* on the process backend and global on the
    shared serial/thread stacks). Every index fires at most once, and
    retried queries advance the counter — so a plan that does not mark
    ``max_attempts`` consecutive indices is always absorbed by the
    resilient layer, leaving verdicts (and therefore grammars and
    counted queries) untouched.

    ``kill`` indices terminate the *worker process* (never the main
    process) with :data:`KILL_EXIT_CODE`; ``marker_dir`` must name a
    directory where one-shot kill markers are created so a resubmitted
    task does not die forever.
    """

    transient: FrozenSet[int] = frozenset()
    timeout: FrozenSet[int] = frozenset()
    kill: FrozenSet[int] = frozenset()
    marker_dir: str = ""

    def empty(self) -> bool:
        return not (self.transient or self.timeout or self.kill)

    @classmethod
    def sampled(
        cls,
        n_transient: int = 0,
        n_timeout: int = 0,
        window: int = 256,
        seed: int = 0,
        kill: Iterable[int] = (),
        marker_dir: str = "",
    ) -> "FaultPlan":
        """Draw fault indices deterministically from a seed.

        Indices come from counter-mode blake2b over ``seed`` — a pure
        function of the arguments, so a seeded plan is identical on
        every machine and run (the "seeded from run config" form the
        benchmarks use).
        """

        def draw(kind: str, count: int) -> FrozenSet[int]:
            picked: set = set()
            counter = 0
            while len(picked) < min(count, window):
                digest = hashlib.blake2b(
                    "{}|{}|{}".format(seed, kind, counter).encode(),
                    digest_size=8,
                ).digest()
                picked.add(int.from_bytes(digest, "big") % window)
                counter += 1
            return frozenset(picked)

        return cls(
            transient=draw("transient", n_transient),
            timeout=draw("timeout", n_timeout),
            kill=frozenset(kill),
            marker_dir=marker_dir,
        )


def parse_fault_spec(spec: str, marker_dir: str = "") -> FaultPlan:
    """Parse a CLI ``--inject-faults`` spec into a :class:`FaultPlan`.

    Grammar: semicolon-separated ``kind@i,j,k`` groups with kinds
    ``transient``, ``timeout`` and ``kill`` — e.g.
    ``"transient@3,9;timeout@5;kill@120"``.
    """
    kinds: Dict[str, set] = {"transient": set(), "timeout": set(), "kill": set()}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        kind, separator, indices = part.partition("@")
        kind = kind.strip()
        if not separator or kind not in kinds:
            raise ValueError(
                "bad fault spec component {!r} (expected "
                "transient@..., timeout@... or kill@...)".format(part)
            )
        for token in indices.split(","):
            token = token.strip()
            try:
                index = int(token)
            except ValueError:
                raise ValueError(
                    "bad fault index {!r} in {!r}".format(token, part)
                ) from None
            if index < 0:
                raise ValueError("fault indices must be >= 0")
            kinds[kind].add(index)
    return FaultPlan(
        transient=frozenset(kinds["transient"]),
        timeout=frozenset(kinds["timeout"]),
        kill=frozenset(kinds["kill"]),
        marker_dir=marker_dir,
    )


def format_fault_spec(plan: FaultPlan) -> str:
    """Inverse of :func:`parse_fault_spec` (for the oracle spec record)."""
    parts = []
    for kind, indices in (
        ("transient", plan.transient),
        ("timeout", plan.timeout),
        ("kill", plan.kill),
    ):
        if indices:
            parts.append(
                "{}@{}".format(
                    kind, ",".join(str(i) for i in sorted(indices))
                )
            )
    return ";".join(parts)


class ChaosOracle(_FaultCounters):
    """Inject planned faults in front of a real oracle.

    Deterministic by construction: the plan fixes *which* invocation
    indices fail, the invocation counter is advanced under a lock, and
    every injected failure is either retried (transient/timeout under
    ``retry``) or policy-identical to the real event it simulates — so
    a run with chaos on produces byte-identical grammars and counted
    query totals to a run with chaos off (gated by
    ``benchmarks/bench_faults.py``). Injection counts land in fault
    counters (telemetry) only.
    """

    def __init__(
        self,
        oracle: Oracle,
        plan: FaultPlan,
        timeout_verdict: str = "retry",
    ):
        if timeout_verdict not in TIMEOUT_VERDICTS:
            raise ValueError(
                "timeout_verdict must be one of {}".format(
                    ", ".join(TIMEOUT_VERDICTS)
                )
            )
        self._oracle = oracle
        self.plan = plan
        self.timeout_verdict = timeout_verdict
        self._init_faults()
        self._invocations = 0

    def __getstate__(self) -> dict:
        # Beyond the mixin's lock/counter reset: the invocation counter
        # restarts at zero in every pickled copy, keeping the documented
        # per-task plan semantics — a worker task's injection indices
        # never depend on how many queries the parent happened to issue
        # before pickling the payload.
        state = super().__getstate__()
        state["_invocations"] = 0
        return state

    def _maybe_kill(self, index: int) -> None:
        """Die as a crashed pool worker would (process backend only).

        One-shot per kill index: the first worker to create the marker
        file owns the kill; a resubmitted task finds the marker and
        proceeds, so crash recovery converges. The main process never
        dies — kill entries are inert on the serial/thread backends.
        """
        if index not in self.plan.kill or not self.plan.marker_dir:
            return
        import multiprocessing

        if multiprocessing.current_process().name == "MainProcess":
            return
        marker = os.path.join(
            self.plan.marker_dir, "kill-{}".format(index)
        )
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
        os._exit(KILL_EXIT_CODE)

    def _inject(self, index: int) -> Optional[bool]:
        """Fire the fault planned for ``index``; None means healthy.

        Returns a verdict only for ``timeout`` under ``reject`` (the
        paper's semantics for a hung program); everything else raises.
        """
        self._maybe_kill(index)
        if index in self.plan.timeout:
            self._count_fault("injected.timeout")
            if self.timeout_verdict == "reject":
                self._count_fault("timeout_reject")
                return False
            if self.timeout_verdict == "error":
                raise OracleFailedError(
                    "injected oracle timeout at invocation {} "
                    "(timeout_verdict=error)".format(index),
                    cause="timeout",
                )
            raise OracleTransientError(
                "timeout",
                "injected oracle timeout at invocation {}".format(index),
            )
        if index in self.plan.transient:
            self._count_fault("injected.transient")
            raise OracleTransientError(
                "injected",
                "injected transient oracle error at invocation "
                "{}".format(index),
            )
        return None

    def __call__(self, text: str) -> bool:
        with self._fault_lock:
            index = self._invocations
            self._invocations += 1
        injected = self._inject(index)
        if injected is not None:
            return injected
        return self._oracle(text)


# -- stack-walking helpers -------------------------------------------------


def drain_fault_counters(oracle: Any) -> Dict[str, int]:
    """Drain per-cause fault counters from every layer of a stack.

    Walks inward through ``_oracle`` links (the convention every
    wrapper in :mod:`repro.learning.oracle` follows), draining any
    layer that exposes ``drain_faults()``. Drain-and-reset semantics
    make the call safe from both worker tasks and the parent without
    double counting — see :class:`~repro.learning.oracle._FaultCounters`.
    """
    totals: Dict[str, int] = {}
    layer = oracle
    seen = set()
    while layer is not None and id(layer) not in seen:
        seen.add(id(layer))
        drain = getattr(layer, "drain_faults", None)
        if callable(drain):
            for name, value in drain().items():
                totals[name] = totals.get(name, 0) + value
        layer = getattr(layer, "_oracle", None)
    return totals


def add_fault_counters(oracle: Any, registry: Any) -> None:
    """Drain a stack's fault counters into a metrics registry.

    Counters land under the ``oracle.fault.`` prefix — the telemetry
    namespace the execution record and ``repro show`` read them from.
    Fault accounting is observability only: it never touches counted
    query totals or any compared metric surface.
    """
    for name, value in sorted(drain_fault_counters(oracle).items()):
        if value:
            registry.add("oracle.fault." + name, value)


__all__ = [
    "TIMEOUT_VERDICTS",
    "KILL_EXIT_CODE",
    "OracleTransientError",
    "OracleFailedError",
    "RetryPolicy",
    "ResilientOracle",
    "FaultPlan",
    "parse_fault_spec",
    "format_fault_spec",
    "ChaosOracle",
    "drain_fault_counters",
    "add_fault_counters",
]
