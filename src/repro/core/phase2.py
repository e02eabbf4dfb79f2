"""Phase two: merging repetition subexpressions (paper §5).

Every unordered pair of repetition subexpressions (GStar nodes — across
*all* seeds, per §6.1) is a merge candidate. For the pair (i, j), phase
two constructs the §5.3 checks:

- γᵢ·(α₂ⱼ α₂ⱼ)·δᵢ — the residual of star j's repetition string, wrapped
  in star i's context: "can R′ be substituted for R?";
- γⱼ·(α₂ᵢ α₂ᵢ)·δⱼ — symmetrically.

**Reproduction note (documented deviation, DESIGN.md §6).** We extend
these with *mixed-adjacency* residuals — α₂ᵢα₂ⱼ and α₂ⱼα₂ᵢ in both
contexts. A merged star generates interleavings of the two units that
the paper's two checks never probe; empirically (see
``benchmarks/bench_ablations.py``) the two-check rule makes phase two
*reduce* precision on the §8.2 targets, inverting the paper's
GLADE ≥ P1 ordering, while the mixed checks restore it. The extension
is conservative in the paper's own sense: every check lies in
L̃ \\ L̂ (Proposition 5.1 gives L(PRR′Q) ⊆ L(C̃) by the same argument),
so it only *rejects more* candidates — monotonicity and expressiveness
(Proposition 5.3) are unaffected, since matching-parentheses merges
pass mixed checks (their interleavings are valid by construction).

If all checks pass, the two stars' nonterminals are equated
(union-find; equating can only enlarge the language, so candidates are
monotone). Each pair is considered exactly once. Merging is what lets
GLADE express the generalized matching-parentheses grammars of
Definition 5.2 — e.g. turning the XML example's
``(<a>(h+i)*</a>)*`` into ``A → (<a>A</a>)* | (h+i)*``.

Execution is split into a *plan* and a *commit* so the phase can run
serially or sharded across workers with identical results:

- :func:`plan_merges` is the oracle-free query planner. It lists every
  pair in the deterministic merge order and keeps each star's context
  and residuals, sampled exactly once; it builds no check string.
  :func:`pair_checks` yields one pair's checks from them in order, each
  once, so whoever asks a pair's checks builds only those it asks.
- :class:`MergeCommitter` commits pairs strictly in plan order (the
  *wavefront*), each through :meth:`~MergeCommitter.commit_serial`, a
  decision over the verdicts a run task (:mod:`repro.exec.merge_shard`)
  asked for the pair: merged when every check passed, rejected at the
  first that failed. The commit asks no oracle. A pair whose stars are
  already transitively equated at commit time is skipped and counts
  nothing, exactly like the serial loop's ``uf.find`` skip, so the
  merge outcome — and the counted query cost — is identical at any
  worker count.

The committer's per-pair decisions (``merged`` / ``rejected`` /
``skipped``) double as the phase's checkpoint format: replaying them
against the same plan restores the union-find mid-phase, so an
interrupted run resumes from the last committed pair (see
:mod:`repro.core.pipeline` and artifact schema v3).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import combinations
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.context import Context
from repro.core.gtree import GStar
from repro.core.translate import star_nonterminal
from repro.languages import regex as rx
from repro.languages.cfg import Grammar, Nonterminal
from repro.languages.sampler import sample_regex

#: Committed-pair decision codes (artifact schema v3 stores these).
PAIR_MERGED = "merged"
PAIR_REJECTED = "rejected"
PAIR_SKIPPED = "skipped"


@dataclass
class Phase2Result:
    """Outcome of the merging phase.

    ``representative`` maps every star id to its union-find root; each
    merge equates two stars not yet equated, so the stars that are not
    their own representative count the merges. Which pairs merged is
    the committer's decision log (``phase2_progress["decisions"]``).
    """

    grammar: Grammar
    representative: Dict[int, int]


class _UnionFind:
    def __init__(self, items: Sequence[int]):
        self.parent = {item: item for item in items}

    def find(self, item: int) -> int:
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # Keep the smaller id as representative for deterministic naming.
        lo, hi = min(ra, rb), max(ra, rb)
        self.parent[hi] = lo


def _boundary_string(node: rx.Regex, pick) -> str:
    """A deterministic member of L(node) choosing extreme characters.

    ``pick`` selects from a character set (min or max); stars contribute
    one iteration; alternations take their first/last option. Character
    classes are where character generalization widened the language, so
    their extremes (e.g. space vs letters) are the residuals most likely
    to expose an unsound merge.
    """
    if isinstance(node, (rx.Epsilon, rx.EmptySet)):
        return ""
    if isinstance(node, rx.Lit):
        return node.text
    if isinstance(node, rx.CharClass):
        return pick(node.chars)
    if isinstance(node, rx.Concat):
        return "".join(_boundary_string(p, pick) for p in node.parts)
    if isinstance(node, rx.Alt):
        options = node.options
        option = options[0] if pick is min else options[-1]
        return _boundary_string(option, pick)
    if isinstance(node, rx.Star):
        return _boundary_string(node.inner, pick)
    raise TypeError("unknown regex node: {!r}".format(node))


def residual_seed(star: GStar, run_index: int) -> int:
    """The run-local PRNG seed for a star's residual samples.

    Derived from the star's representative (repetition) string plus its
    index within the run's merge order — never from the raw ``star_id``
    or any process-global counter — so two runs of the same learning
    problem sample identical residuals no matter how many stars the
    process created before, which worker learned the seed, or at what
    id offset the star's block starts. The hash is a truncated blake2b
    (Python's builtin ``hash`` of strings is salted per process and
    would break cross-process determinism).
    """
    digest = hashlib.blake2b(
        star.rep_string.encode("utf-8", "surrogatepass"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") ^ (run_index * 7919 + 13)


def _star_residuals(star: GStar, n_samples: int, rng_seed: int) -> List[str]:
    """Residual strings ρ ∈ L(R) for a repetition subexpression.

    §5.3 requires residuals from the *generalized* language L(R′) — the
    creation-time repetition string α₂ is one member, but by merge time
    character generalization may have widened R′ well beyond it (e.g. a
    comment-body star admits spaces that α₂ never showed). We therefore
    add the min/max boundary members of the current inner language plus
    a few random samples (seeded run-locally, see :func:`residual_seed`),
    so the checks see what the merge would actually inject.
    """
    residuals = [star.rep_string]

    def add(candidate: str) -> None:
        if candidate and candidate not in residuals:
            residuals.append(candidate)

    if n_samples > 0:
        inner = star.inner.to_regex()
        add(_boundary_string(inner, min))
        add(_boundary_string(inner, max))
        rng = random.Random(rng_seed)
        for _ in range(n_samples):
            add(sample_regex(inner, rng, max_reps=2))
    return residuals


def pair_checks(
    stars: Mapping[int, Tuple[Context, List[str]]],
    star_i: int,
    star_j: int,
    mixed_width: int,
) -> Iterator[str]:
    """Yield the pair's check strings in order, each once, building
    each only when it is asked for.

    First the paper's checks: the other star's doubled residuals in each
    star's context. Then the interleavings a merged star newly
    generates: each star's first ``mixed_width`` residuals (0 without
    mixed checks) joined with the other's, both ways, in both contexts.
    """
    context_i, res_i = stars[star_i]
    context_j, res_j = stars[star_j]
    seen = set()
    for context, residuals in ((context_i, res_j), (context_j, res_i)):
        for r in residuals:
            check = context.wrap(r + r)
            if check not in seen:
                seen.add(check)
                yield check
    for ri in res_i[:mixed_width]:
        for rj in res_j[:mixed_width]:
            for context, left, right in (
                (context_i, ri, rj), (context_i, rj, ri),
                (context_j, ri, rj), (context_j, rj, ri),
            ):
                check = context.wrap(left + right)
                if check not in seen:
                    seen.add(check)
                    yield check


class MergePair(NamedTuple):
    """One merge candidate in plan order."""

    index: int
    star_i: int
    star_j: int


@dataclass
class MergePlan:
    """The oracle-free plan for one phase-2 run.

    ``pairs`` is every unordered candidate pair in the deterministic
    merge order, and ``stars`` each star's context and residuals, keyed
    by star id in that order (sorted ids). :meth:`checks` builds a
    pair's check strings from them on demand. The plan is a pure
    function of the stars, so a resumed run rebuilds the identical plan
    and can replay committed decisions against it.
    """

    pairs: List[MergePair]
    stars: Dict[int, Tuple[Context, List[str]]]
    mixed_width: int

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def checks(self, pair: MergePair) -> Iterator[str]:
        """The pair's checks, built as they are asked for."""
        return pair_checks(
            self.stars, pair.star_i, pair.star_j, self.mixed_width
        )


def plan_merges(
    stars: Sequence[GStar],
    mixed: bool = True,
    n_samples: int = 2,
) -> MergePlan:
    """Plan every candidate pair, sampling each star's residuals once.

    Residual seeds keep :func:`residual_seed` semantics (star rep
    string ⊕ merge-order index). With ``mixed``, each star's first
    ``1 + n_samples`` residuals also enter the mixed checks.
    """
    ids = sorted(star.star_id for star in stars)
    by_id = {star.star_id: star for star in stars}
    material = {}
    for position, star_id in enumerate(ids):
        star = by_id[star_id]
        residuals = _star_residuals(
            star, n_samples, residual_seed(star, position)
        )
        material[star_id] = (star.context, residuals)
    pairs = [
        MergePair(index, i, j)
        for index, (i, j) in enumerate(combinations(ids, 2))
    ]
    return MergePlan(pairs, material, 1 + n_samples if mixed else 0)


@dataclass
class CommitEvent:
    """What committing one pair did, for accounting and checkpoints.

    ``queries`` is the pair's counted cost: the checks a serial run asks
    for it, up to the first rejection (0 for a skipped pair).
    ``discarded`` is the speculative cost of a pair a run task evaluated
    but the wavefront skipped: its verdict count, which a serial run
    never spends.
    """

    pair: MergePair
    decision: str
    queries: int = 0
    discarded: int = 0

    @property
    def evaluated(self) -> bool:
        return self.decision != PAIR_SKIPPED


class MergeCommitter:
    """Commit pairs strictly in plan order (the wavefront).

    The committer owns the union-find and the decision log, and
    :meth:`commit_serial` is the one way a pair commits. A pair already
    transitively equated when its turn comes is committed as
    ``skipped`` — the serial loop's ``uf.find`` skip. Any other pair is
    decided by the verdicts its run task asked, in order, up to the
    first rejection; they are also its counted cost. The committer asks
    no oracle, so the merge outcome and the counted cost are independent
    of how (and how speculatively) checks were evaluated.

    ``decisions`` is the durable progress record; :meth:`replay`
    restores a committer from it without re-issuing a single query.
    """

    def __init__(self, plan: MergePlan):
        self.plan = plan
        self.decisions: List[str] = []
        self._uf = _UnionFind(plan.stars)

    @property
    def committed(self) -> int:
        """Pairs committed so far; also the next pair's plan index."""
        return len(self.decisions)

    @property
    def done(self) -> bool:
        return self.committed >= self.plan.n_pairs

    def representative(self, star: int) -> int:
        """The star's union-find root after the pairs committed so far."""
        return self._uf.find(star)

    def equated(self, star_i: int, star_j: int) -> bool:
        """True if the two stars are already transitively merged."""
        return self._uf.find(star_i) == self._uf.find(star_j)

    def next_pair(self) -> MergePair:
        return self.plan.pairs[self.committed]

    def _apply(self, pair: MergePair, decision: str) -> None:
        if decision == PAIR_MERGED:
            self._uf.union(pair.star_i, pair.star_j)
        self.decisions.append(decision)

    def replay(self, decisions: Sequence[str]) -> None:
        """Restore committed progress from a checkpoint's decision log.

        Replay is oracle-free: merges re-apply to the union-find in
        (deterministic) plan order, and the replayed decisions become
        this committer's decision log.
        """
        if len(decisions) > self.plan.n_pairs - self.committed:
            raise ValueError(
                "phase-2 progress records {} decisions for {} pairs".format(
                    len(decisions), self.plan.n_pairs
                )
            )
        for decision in decisions:
            if decision not in (PAIR_MERGED, PAIR_REJECTED, PAIR_SKIPPED):
                raise ValueError(
                    "unknown phase-2 decision: {!r}".format(decision)
                )
            self._apply(self.next_pair(), decision)

    def commit_serial(
        self, verdicts: Optional[Sequence[bool]]
    ) -> CommitEvent:
        """Commit the next pair on the verdicts a run task asked for it.

        ``verdicts`` are the pair's checks' answers in plan order, up to
        and including the first rejection, or None when no run evaluated
        the pair (which then must be equated). A pair already equated is
        skipped, and its verdicts, if any, are booked as discarded
        speculation; any other pair merges when every verdict passed and
        is rejected otherwise, counting one query per verdict. This is
        the only way a pair commits, on every backend.
        """
        pair = self.next_pair()
        if self.equated(pair.star_i, pair.star_j):
            event = CommitEvent(
                pair, PAIR_SKIPPED, discarded=len(verdicts or ())
            )
        else:
            decision = PAIR_MERGED if all(verdicts) else PAIR_REJECTED
            event = CommitEvent(pair, decision, queries=len(verdicts))
        self._apply(pair, event.decision)
        return event

    def finish(self, grammar: Grammar) -> Phase2Result:
        """Equate merged nonterminals and wrap up the phase."""
        representative = {i: self._uf.find(i) for i in self.plan.stars}
        mapping: Dict[Nonterminal, Nonterminal] = {
            star_nonterminal(i): star_nonterminal(rep)
            for i, rep in representative.items()
            if rep != i
        }
        merged_grammar = (
            grammar.rename_nonterminals(mapping) if mapping else grammar
        )
        return Phase2Result(
            grammar=merged_grammar, representative=representative
        )
