"""Phase two as a plain loop: the test-side reference for merging.

The package runs phase two through one path, the pipeline: the query
planner (:func:`~repro.core.phase2.plan_merges`) materializes every
pair's checks, and each pair commits in plan order through
:meth:`~repro.core.phase2.MergeCommitter.commit_serial`. This module
keeps two direct forms the tests compare against: the serial loop over
the plan without a pipeline (:func:`merge_repetitions`), and one pair's
checks computed on their own, residuals sampled per pair
(:func:`merge_checks`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.gtree import GStar
from repro.core.phase2 import (
    MergeCommitter,
    Phase2Result,
    _checks_from_residuals,
    _star_residuals,
    plan_merges,
    residual_seed,
)
from repro.languages.cfg import Grammar
from repro.learning.oracle import Oracle


def merge_checks(
    star_i: GStar,
    star_j: GStar,
    mixed: bool = True,
    n_samples: int = 2,
    seed_i: Optional[int] = None,
    seed_j: Optional[int] = None,
) -> Tuple[str, ...]:
    """The §5.3 substitution checks, plus mixed-adjacency residuals.

    ``mixed=False`` with ``n_samples=0`` gives the paper's literal two
    checks. ``seed_i`` / ``seed_j`` are the stars' run-local
    residual-sampling seeds; :func:`~repro.core.phase2.plan_merges`
    uses each star's :func:`~repro.core.phase2.residual_seed` at its
    merge-order index, and omitted seeds default to index 0.
    """
    if seed_i is None:
        seed_i = residual_seed(star_i, 0)
    if seed_j is None:
        seed_j = residual_seed(star_j, 0)
    return _checks_from_residuals(
        star_i,
        star_j,
        _star_residuals(star_i, n_samples, seed_i),
        _star_residuals(star_j, n_samples, seed_j),
        mixed=mixed,
        n_samples=n_samples,
    )


def merge_repetitions(
    grammar: Grammar,
    stars: Sequence[GStar],
    oracle: Oracle,
    mixed_checks: bool = True,
) -> Phase2Result:
    """Run phase two serially: try every pair, equate those that check out."""
    plan = plan_merges(
        stars,
        mixed=mixed_checks,
        n_samples=2 if mixed_checks else 0,
    )
    committer = MergeCommitter(plan)
    while not committer.done:
        committer.commit_serial(oracle)
    return committer.finish(grammar)
