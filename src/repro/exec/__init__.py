"""Parallel execution subsystem: pluggable backends + work sharding.

The learning pipeline partitions its oracle-bound stages into
independent tasks and runs them on a pluggable
:class:`~repro.exec.backends.Executor` — serial, thread pool, or
process pool — selected by ``GladeConfig.jobs`` / ``backend`` (CLI
``--jobs`` / ``--backend``):

- phase 1 is *seed-sharded* (:mod:`repro.exec.shard`): one task per
  seed, settled deterministically in seed order;
- phase 2 is *run-sharded* (:mod:`repro.exec.merge_shard`): one task
  per run of consecutive merge-candidate pairs, evaluated behind a
  cross-pair query planner (speculatively at several jobs); every pair
  commits in plan order through the run's counting stack.

The evaluation suite (``repro eval``) is *subject-sharded*
(:mod:`repro.exec.subject_shard`): one task per subject learns its
grammar, unless the suite's artifact cache holds it, and derives its
metrics.

Determinism is preserved at any worker count: star ids come from
disjoint per-seed blocks, phase-2 residual sampling is seeded
run-locally, and both stages discard speculative work exactly where
the sequential algorithm would never have spent it — so ``--jobs 1``
and ``--jobs 4`` produce byte-identical grammars with equal counted
query totals.
"""

from repro.exec.backends import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
    resolve_backend,
)
from repro.exec.merge_shard import (
    WavefrontStats,
    run_merge_wavefront,
    run_pairs_task,
)
from repro.exec.shard import (
    SeedResult,
    decode_task,
    run_pending,
    run_seed_task,
    seed_payload,
)

__all__ = [
    "BACKENDS",
    "Executor",
    "ProcessExecutor",
    "SeedResult",
    "SerialExecutor",
    "ThreadExecutor",
    "WavefrontStats",
    "decode_task",
    "make_executor",
    "resolve_backend",
    "run_merge_wavefront",
    "run_pairs_task",
    "run_pending",
    "run_seed_task",
    "seed_payload",
]
