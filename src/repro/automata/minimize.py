"""DFA minimization: Hopcroft's partition refinement.

The minimization path behind :meth:`repro.automata.dfa.DFA.minimize`
(the normal form the L*/RPNI baselines and their tests compare
hypotheses in). The core works on the flat-table form — states
``0..n-1``, symbols ``0..k-1``, a total transition function
``delta[state * k + symbol]`` — which :func:`minimize_dfa` builds from
a :class:`~repro.automata.dfa.DFA`.

Block numbering is canonical: blocks are numbered by the smallest state
they contain, in state order, so the output is a pure function of the
input table (no set-iteration order leaks into it, detlint DET004).
"""

from __future__ import annotations

from collections import deque
from typing import List, Sequence

__all__ = ["hopcroft_blocks", "minimize_dfa"]


def hopcroft_blocks(
    n_states: int,
    n_symbols: int,
    delta: Sequence[int],
    accepting: Sequence[bool],
) -> List[int]:
    """Partition a *total* DFA's states into equivalence blocks.

    ``delta[s * n_symbols + a]`` is the successor of state ``s`` on
    symbol ``a``; every entry must be a valid state. Returns
    ``block_of`` with ``block_of[s]`` the block index of state ``s``,
    blocks numbered by first occurrence in state order. Two states get
    the same block iff they accept exactly the same suffix language —
    Hopcroft's algorithm, O(k·n·log n), versus the Moore refinement this
    module replaced which is O(k·n²) in the worst case.
    """
    if n_states == 0:
        return []
    # Reverse transition lists per symbol: rev[a][t] = sources s with
    # delta(s, a) = t. Preimages of a splitter come from here.
    rev = [[[] for _ in range(n_states)] for _ in range(n_symbols)]
    for s in range(n_states):
        base = s * n_symbols
        for a in range(n_symbols):
            rev[a][delta[base + a]].append(s)
    acc = frozenset(s for s in range(n_states) if accepting[s])
    rest = frozenset(range(n_states)) - acc
    partition = [set(block) for block in (acc, rest) if block]
    # Worklist of (block, symbol) splitters. Classic replace rule: when
    # a block that is still queued splits, both halves replace it;
    # otherwise only the smaller half is queued. ``wset`` carries the
    # live membership so stale deque entries are skipped on pop.
    worklist = deque()
    wset = set()
    if acc and rest:
        seed = acc if len(acc) <= len(rest) else rest
    else:
        seed = acc or rest
    for a in range(n_symbols):
        worklist.append((seed, a))
        wset.add((seed, a))
    while worklist:
        splitter, a = worklist.popleft()
        if (splitter, a) not in wset:
            continue
        wset.discard((splitter, a))
        preimage = set()
        targets = rev[a]
        for t in splitter:
            preimage.update(targets[t])
        if not preimage:
            continue
        # Newly appended halves never re-split against this preimage
        # (inter ⊆ preimage, diff ∩ preimage = ∅), so growing the list
        # while indexing over it is safe.
        for index in range(len(partition)):
            block = partition[index]
            inter = block & preimage
            if not inter or len(inter) == len(block):
                continue
            diff = block - preimage
            partition[index] = inter
            partition.append(diff)
            fblock = frozenset(block)
            finter = frozenset(inter)
            fdiff = frozenset(diff)
            for b in range(n_symbols):
                if (fblock, b) in wset:
                    wset.discard((fblock, b))
                    wset.add((finter, b))
                    worklist.append((finter, b))
                    wset.add((fdiff, b))
                    worklist.append((fdiff, b))
                else:
                    smaller = finter if len(inter) <= len(diff) else fdiff
                    wset.add((smaller, b))
                    worklist.append((smaller, b))
    owner = [0] * n_states
    for index, block in enumerate(partition):
        for s in block:
            owner[s] = index
    # Canonical renumbering: blocks in order of their smallest state.
    remap = {}
    block_of = []
    for s in range(n_states):
        block = owner[s]
        if block not in remap:
            remap[block] = len(remap)
        block_of.append(remap[block])
    return block_of


def minimize_dfa(dfa):
    """Return the minimal :class:`~repro.automata.dfa.DFA` for ``dfa``.

    Trims, completes, runs :func:`hopcroft_blocks` on the flat table,
    and rebuilds the quotient automaton — then trims again so the
    explicit dead state introduced by completion disappears from the
    result (matching the DFA class's implicit-dead-state convention).
    """
    from repro.automata.dfa import DFA

    trimmed = dfa.trim()
    if trimmed.start is None:
        return trimmed
    total = trimmed.completed()
    states = sorted(total.states)
    state_index = {s: i for i, s in enumerate(states)}
    symbols = sorted(total.alphabet)
    k = len(symbols)
    delta = [0] * (len(states) * k)
    accepting = [False] * len(states)
    for i, s in enumerate(states):
        base = i * k
        for j, char in enumerate(symbols):
            delta[base + j] = state_index[total.transitions[(s, char)]]
        accepting[i] = s in total.accepting
    block_of = hopcroft_blocks(len(states), k, delta, accepting)
    n_blocks = max(block_of) + 1
    transitions = {}
    for i in range(len(states)):
        base = i * k
        for j, char in enumerate(symbols):
            transitions[(block_of[i], char)] = block_of[delta[base + j]]
    accepting_blocks = set()
    for i in range(len(states)):
        if accepting[i]:
            accepting_blocks.add(block_of[i])
    return DFA(
        total.alphabet,
        range(n_blocks),
        block_of[state_index[total.start]],
        accepting_blocks,
        transitions,
    ).trim()
