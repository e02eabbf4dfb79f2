"""Phase two as a plain loop: the test-side reference for merging.

The package runs phase two through one path, the pipeline: the query
planner (:func:`~repro.core.phase2.plan_merges`) lists the pairs and
each star's residuals, run tasks ask each pair's checks as
:func:`~repro.core.phase2.pair_checks` builds them, and each pair
commits in plan order through
:meth:`~repro.core.phase2.MergeCommitter.commit_serial` on the verdicts
its run returned. This module keeps two direct forms the tests compare
against: the serial loop over the plan that asks each pair's checks
itself and keeps its own union-find (:func:`merge_repetitions`), which
shares no code with the committer, and one pair's checks built all at
once and then de-duplicated, residuals sampled per pair
(:func:`merge_checks`), which shares no check-building code with the
package.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.gtree import GStar
from repro.core.phase2 import (
    Phase2Result,
    _star_residuals,
    plan_merges,
    residual_seed,
)
from repro.core.translate import star_nonterminal
from repro.languages.cfg import Grammar
from repro.learning.oracle import Oracle


def checks_from_residuals(
    star_i: GStar,
    star_j: GStar,
    res_i: Sequence[str],
    res_j: Sequence[str],
    mixed: bool,
    n_samples: int,
) -> Tuple[str, ...]:
    """Build every check of one pair, then drop repeats in order."""
    checks = []
    # Paper checks: the other star's doubled residuals in each context.
    for r in res_j:
        checks.append(star_i.context.wrap(r + r))
    for r in res_i:
        checks.append(star_j.context.wrap(r + r))
    if mixed:
        # Interleavings the merged star newly generates.
        for ri in res_i[: 1 + n_samples]:
            for rj in res_j[: 1 + n_samples]:
                checks.append(star_i.context.wrap(ri + rj))
                checks.append(star_i.context.wrap(rj + ri))
                checks.append(star_j.context.wrap(ri + rj))
                checks.append(star_j.context.wrap(rj + ri))
    seen = set()
    unique = []
    for check in checks:
        if check not in seen:
            seen.add(check)
            unique.append(check)
    return tuple(unique)


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
    return checks_from_residuals(
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
    """Run phase two serially: try every pair not yet equated, asking its
    checks in order up to the first rejection, and equate those that
    check out. A class is named by its smallest star id."""
    plan = plan_merges(
        stars,
        mixed=mixed_checks,
        n_samples=2 if mixed_checks else 0,
    )
    root = {star: star for star in plan.stars}
    for pair in plan.pairs:
        root_i, root_j = root[pair.star_i], root[pair.star_j]
        if root_i == root_j:
            continue
        if all(oracle(check) for check in plan.checks(pair)):
            low, high = min(root_i, root_j), max(root_i, root_j)
            for star, star_root in root.items():
                if star_root == high:
                    root[star] = low
    mapping = {
        star_nonterminal(star): star_nonterminal(star_root)
        for star, star_root in root.items()
        if star_root != star
    }
    return Phase2Result(
        grammar=grammar.rename_nonterminals(mapping) if mapping else grammar,
        representative=root,
    )
