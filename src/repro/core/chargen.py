"""Character generalization (paper §6.2).

After phase one, every constant terminal string in the synthesized
regular expression is probed character by character: position ``i`` of a
constant generalizes from σᵢ to the class {σᵢ, σ} whenever the check
γ·σ₁…σᵢ₋₁·σ·σᵢ₊₁…σₖ·δ passes the oracle, where (γ, δ) is the constant's
stored context (which already carries the α₃δ suffix per §6.2). Each
(position, σ) pair is considered exactly once.

This is how the ``[...]`` character classes of Figure 5 arise — e.g. the
XML example's ``h`` widening to ``a + ... + z``.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.gtree import GNode, constants_of
from repro.learning.oracle import Oracle, prefetcher


def generalize_characters(
    root: GNode,
    oracle: Oracle,
    alphabet: Iterable[str],
) -> int:
    """Widen constants in the tree in place; return #generalizations made.

    ``alphabet`` is the program's input alphabet Σ (§2); each constant
    position is offered every other σ ∈ Σ once. All probes of one
    position are independent (they substitute into the same base text),
    so a stack that can run them ahead is handed them first as a hint
    (:func:`~repro.learning.oracle.prefetcher`); each is then asked in
    order.
    """
    alphabet = sorted(set(alphabet))
    prefetch = prefetcher(oracle)
    accepted = 0
    for const in constants_of(root):
        text = const.base_text
        for position, original in enumerate(text):
            prefix = text[:position]
            suffix = text[position + 1 :]
            candidates = [s for s in alphabet if s != original]
            checks = [
                const.context.wrap(prefix + sigma + suffix)
                for sigma in candidates
            ]
            if prefetch is not None:
                prefetch(checks)
            for sigma, check in zip(candidates, checks):
                if oracle(check):
                    const.classes[position].add(sigma)
                    accepted += 1
    return accepted
