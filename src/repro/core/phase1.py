"""Phase one: regular-expression synthesis (paper §4).

Starting from the language ``{α_in}`` — the seed input bracketed as
``[α_in]_rep`` — phase one repeatedly selects a bracketed substring and
generalizes it, choosing the first candidate (in the paper's preference
order) whose checks all pass the membership oracle:

- ``[α]_rep`` proposes, for every decomposition α = α₁α₂α₃ with α₂ ≠ ε,
  the candidate ``α₁([α₂]_alt)*[α₃]_rep`` — ordered by shorter α₁ first,
  then longer α₂ (§4.2) — with the constant α as the last resort.
  Residuals: α₁α₃ (zero repetitions) and α₁α₂α₂α₃ (two repetitions).

- ``[α]_alt`` proposes, for every decomposition α = α₁α₂ (both nonempty),
  the candidate ``([α₁]_rep + [α₂]_alt)`` — shorter α₁ first — with
  ``[α]_rep`` (the meta-grammar production ``T_alt ::= T_rep``, cf. step
  R2 of Figure 2) as the last resort. Residuals: α₁ and α₂.

Each check is the residual wrapped in the bracketed substring's context
(γ, δ); checks already inside the current language are discarded (§4.3).
Holes are processed LIFO with a step's new holes pushed left-to-right,
which reproduces the R1…R9 ordering of Figure 2 exactly (verified by
``tests/core/test_figure2.py``).

Membership in the current language L̂ᵢ is decided through a
:class:`~repro.languages.engine.MembershipSession`: the incremental
engine reuses the NFA fragments of every subtree a generalization step
left unchanged, instead of recompiling the full regex from scratch after
each splice. The checks that survive the discard rule are independent;
they are asked one at a time and stop at the first rejection, and a
stack that can run them ahead (a multi-worker subprocess oracle, see
:func:`~repro.learning.oracle.prefetcher`) is handed them first as a
hint.

Under ``--trace`` every generalization step — one line of Figure 2 —
is an instant ``step`` event (category ``phase1``) on the seed task's
tracer, nested under its ``synthesize`` span. Its args are the hole's
``kind``, ``alpha`` and ``context`` (``[left, right]``), the ``chosen``
candidate, that candidate's ``checks``, and the number of candidates
``tried``; ``repro trace`` exports them with the rest of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.context import Context
from repro.core.gtree import (
    GAlt,
    GConcat,
    GConst,
    GHole,
    GNode,
    GRoot,
    GStar,
    HoleKind,
    Slot,
    StarIdAllocator,
)
from repro.languages.engine import MembershipSession
from repro.learning.oracle import Oracle, prefetcher
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

#: A generalization step's (chosen candidate, its checks, tried count).
Step = Tuple[str, Sequence[str], int]


@dataclass
class Phase1Result:
    """Outcome of phase one on a single seed.

    ``seed_index`` is the seed's position in the run's seed list; under
    parallel execution results arrive in completion order and are
    merged back into seed order by this key (-1 for ad-hoc calls
    outside a pipeline run).
    """

    root: GRoot
    seed_index: int = -1

    def regex(self):
        return self.root.to_regex()


def synthesize_regex(
    seed: str,
    oracle: Oracle,
    tracer: Union[Tracer, NullTracer] = NULL_TRACER,
    session: Optional[MembershipSession] = None,
    allocator: Optional[StarIdAllocator] = None,
) -> Phase1Result:
    """Run phase one on one seed input, returning the generalization tree.

    ``session`` carries the incremental membership engine; callers that
    learn several seeds (or run character generalization afterwards)
    pass one session so NFA fragments are shared across the whole run.
    ``allocator`` is the star-id source for every repetition this seed
    introduces; sharded runs pass the seed's disjoint block allocator
    (:func:`repro.core.gtree.seed_block_allocator`) so ids are
    deterministic regardless of which worker learns the seed when.
    ``tracer`` receives one ``step`` event per generalization step (see
    the module docstring); the default records nothing.
    """
    if session is None:
        session = MembershipSession()
    prefetch = prefetcher(oracle)
    root = GRoot()
    root.children = [GHole(HoleKind.REP, seed, Context("", ""))]
    result = Phase1Result(root=root)
    stack: List[Slot] = [Slot(root, 0)]
    while stack:
        slot = stack.pop()
        hole = slot.get()
        if not isinstance(hole, GHole):
            raise AssertionError("phase-1 stack slot does not hold a hole")
        # Membership test for the current language L̂ᵢ (holes read as
        # literals), used by the §4.3 discard rule below. The session
        # reuses fragments of unchanged subtrees and memoizes results.
        in_current = session.matcher(root.to_regex())
        if hole.kind is HoleKind.REP:
            chosen, checks, tried = _generalize_rep(
                hole, slot, stack, oracle, in_current, prefetch, allocator
            )
        else:
            chosen, checks, tried = _generalize_alt(
                hole, slot, stack, oracle, in_current, prefetch
            )
        if tracer.enabled:
            tracer.event("step", cat="phase1", args={
                "kind": hole.kind.value,
                "alpha": hole.alpha,
                "context": [hole.context.left, hole.context.right],
                "chosen": chosen,
                "checks": list(checks),
                "tried": tried,
            })
    return result


def _passes(checks: List[str], oracle: Oracle, in_current, prefetch) -> bool:
    """CheckCandidate of Algorithm 1, with the §4.3 discard rule.

    Checks α ∈ L̂ᵢ are discarded so every check exercises the newly
    added strings L̃ \\ L̂ᵢ. The rest are asked in order, stopping at
    the first oracle rejection. Without a ``prefetch`` hint the
    membership test is interleaved too (none runs for checks after the
    first rejection); with one, the surviving checks are hinted first.
    """
    if prefetch is not None:
        pending = [check for check in checks if not in_current(check)]
        prefetch(pending)
        return all(oracle(check) for check in pending)
    for check in checks:
        if in_current(check):
            continue
        if not oracle(check):
            return False
    return True


def _rep_decompositions(
    alpha: str, allow_full_star: bool
) -> Iterator[Tuple[str, str, str]]:
    """Yield decompositions α = α₁α₂α₃ (α₂ ≠ ε) in preference order.

    Shorter α₁ first; for equal α₁, longer α₂ first (§4.2). The
    full-string decomposition (ε, α, ε) is suppressed for
    alternation-born holes (see :class:`~repro.core.gtree.GHole`).
    """
    n = len(alpha)
    for a1_len in range(n):
        for a2_len in range(n - a1_len, 0, -1):
            if a1_len == 0 and a2_len == n and not allow_full_star:
                continue
            a1 = alpha[:a1_len]
            a2 = alpha[a1_len : a1_len + a2_len]
            a3 = alpha[a1_len + a2_len :]
            yield a1, a2, a3


def _alt_decompositions(alpha: str) -> Iterator[Tuple[str, str]]:
    """Yield decompositions α = α₁α₂ (both nonempty), shorter α₁ first."""
    for a1_len in range(1, len(alpha)):
        yield alpha[:a1_len], alpha[a1_len:]


def _generalize_rep(
    hole: GHole,
    slot: Slot,
    stack: List[Slot],
    oracle: Oracle,
    in_current,
    prefetch,
    allocator: Optional[StarIdAllocator] = None,
) -> Step:
    """Generalize ``[α]_rep``: try repetition candidates, else constant."""
    alpha, context = hole.alpha, hole.context
    tried = 0
    for a1, a2, a3 in _rep_decompositions(alpha, hole.allow_full_star):
        tried += 1
        residuals = [a1 + a3, a1 + a2 + a2 + a3]
        checks = [context.wrap(r) for r in residuals]
        if not _passes(checks, oracle, in_current, prefetch):
            continue
        # Accepted: splice  α₁ ([α₂]_alt)* [α₃]_rep  into the tree.
        star_context = context.extend(a1, a3)
        star = GStar(
            inner=GHole(HoleKind.ALT, a2, star_context),
            rep_string=a2,
            context=star_context,
            allocator=allocator,
        )
        parts: List[GNode] = []
        if a1:
            # α₁ is a constant from here on; its chargen context keeps the
            # α₃ suffix per §6.2 (the star contributes zero iterations).
            parts.append(GConst(a1, context.extend("", a3)))
        parts.append(star)
        rest_hole: Optional[GHole] = None
        if a3:
            rest_hole = GHole(HoleKind.REP, a3, context.extend(a1 + a2, ""))
            parts.append(rest_hole)
        replacement = parts[0] if len(parts) == 1 else GConcat(parts)
        slot.set(replacement)
        # Push new holes left-to-right so LIFO pops the rightmost first
        # (the R3 -> R4 -> R5 order of Figure 2).
        if isinstance(replacement, GConcat):
            for index, part in enumerate(replacement.children):
                if isinstance(part, GStar):
                    stack.append(Slot(part, 0))
                elif isinstance(part, GHole):
                    stack.append(Slot(replacement, index))
        else:
            stack.append(Slot(star, 0))
        return "{}([{}]alt)*[{}]rep".format(a1, a2, a3), checks, tried
    # Last candidate: α as a constant (the meta-grammar leaf β).
    slot.set(GConst(alpha, context))
    return "const", (), tried + 1


def _generalize_alt(
    hole: GHole,
    slot: Slot,
    stack: List[Slot],
    oracle: Oracle,
    in_current,
    prefetch,
) -> Step:
    """Generalize ``[α]_alt``: try alternations, else fall back to rep."""
    alpha, context = hole.alpha, hole.context
    tried = 0
    for a1, a2 in _alt_decompositions(alpha):
        tried += 1
        checks = [context.wrap(a1), context.wrap(a2)]
        if not _passes(checks, oracle, in_current, prefetch):
            continue
        # Accepted: splice  ([α₁]_rep + [α₂]_alt)  into the tree.
        left = GHole(
            HoleKind.REP, a1, context.extend("", a2), allow_full_star=False
        )
        right = GHole(HoleKind.ALT, a2, context.extend(a1, ""))
        replacement = GAlt([left, right])
        slot.set(replacement)
        stack.append(Slot(replacement, 0))  # [α₁]_rep
        stack.append(Slot(replacement, 1))  # [α₂]_alt — popped first
        return "[{}]rep + [{}]alt".format(a1, a2), checks, tried
    # Last candidate: T_alt ::= T_rep — continue generalizing as [α]_rep.
    replacement = GHole(HoleKind.REP, alpha, context, allow_full_star=False)
    slot.set(replacement)
    stack.append(slot)
    return "to-rep", (), tried + 1
