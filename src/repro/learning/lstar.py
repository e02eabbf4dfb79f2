"""Angluin's L-Star algorithm (baseline of §8.2).

L-Star learns a DFA from a membership oracle and an equivalence oracle
via an observation table. The paper's experiments cannot consult a true
equivalence oracle (the target is a blackbox program), so — following
§8.2 — equivalence is approximated by random sampling: the hypothesis is
accepted if no counterexample is found among 50 sampled strings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.automata.dfa import DFA
from repro.determinism import resolve_rng
from repro.learning.oracle import Oracle

# An equivalence oracle returns a counterexample string, or None to accept.
EquivalenceOracle = Callable[[DFA], Optional[str]]


class SamplingEquivalenceOracle:
    """The paper's §8.2 approximation: search for counterexamples by sampling.

    Candidate strings come from three sources, mirroring the experimental
    setup: the seed inputs E_in (known positives), samples drawn from the
    target distribution (``positive_sampler``), and uniformly random
    strings over the alphabet. The hypothesis is accepted after
    ``n_samples`` candidates with no disagreement.
    """

    def __init__(
        self,
        oracle: Oracle,
        alphabet: Sequence[str],
        seeds: Sequence[str] = (),
        positive_sampler: Optional[Callable[[], str]] = None,
        n_samples: int = 50,
        max_random_length: int = 12,
        rng: Optional[random.Random] = None,
    ):
        self.oracle = oracle
        self.alphabet = list(alphabet)
        self.seeds = list(seeds)
        self.positive_sampler = positive_sampler
        self.n_samples = n_samples
        self.max_random_length = max_random_length
        self.rng = resolve_rng(rng)

    def __call__(self, hypothesis: DFA) -> Optional[str]:
        for seed in self.seeds:
            if hypothesis.accepts(seed) != self.oracle(seed):
                return seed
        for index in range(self.n_samples):
            if self.positive_sampler is not None and index % 2 == 0:
                candidate = self.positive_sampler()
            else:
                length = self.rng.randint(0, self.max_random_length)
                candidate = "".join(
                    self.rng.choice(self.alphabet) for _ in range(length)
                )
            if hypothesis.accepts(candidate) != self.oracle(candidate):
                return candidate
        return None


@dataclass
class LStarResult:
    """The learned DFA plus bookkeeping."""

    dfa: DFA
    equivalence_rounds: int
    table_size: Tuple[int, int]  # (|S|, |E|)


class _ObservationTable:
    """Angluin's (S, E, T) observation table."""

    def __init__(self, alphabet: Sequence[str], oracle: Oracle):
        self.alphabet = list(alphabet)
        self.oracle = oracle
        self.prefixes: List[str] = [""]  # S, closed under prefixes
        self.suffixes: List[str] = [""]  # E
        self.table: Dict[str, bool] = {}

    def membership(self, text: str) -> bool:
        if text not in self.table:
            self.table[text] = self.oracle(text)
        return self.table[text]

    def row(self, prefix: str) -> Tuple[bool, ...]:
        return tuple(
            self.membership(prefix + suffix) for suffix in self.suffixes
        )

    def close_and_make_consistent(self) -> None:
        """Repeat closure/consistency repairs until the table is stable."""
        while True:
            if self._fix_closure():
                continue
            if self._fix_consistency():
                continue
            return

    def _fix_closure(self) -> bool:
        rows = {self.row(s) for s in self.prefixes}
        for prefix in list(self.prefixes):
            for char in self.alphabet:
                extended = prefix + char
                if self.row(extended) not in rows:
                    self.prefixes.append(extended)
                    return True
        return False

    def _fix_consistency(self) -> bool:
        by_row: Dict[Tuple[bool, ...], List[str]] = {}
        for prefix in self.prefixes:
            by_row.setdefault(self.row(prefix), []).append(prefix)
        for twins in by_row.values():
            if len(twins) < 2:
                continue
            for i, s1 in enumerate(twins):
                for s2 in twins[i + 1 :]:
                    for char in self.alphabet:
                        row1 = self.row(s1 + char)
                        row2 = self.row(s2 + char)
                        if row1 == row2:
                            continue
                        # Find the separating suffix and add it to E.
                        for position, suffix in enumerate(self.suffixes):
                            if row1[position] != row2[position]:
                                new_suffix = char + suffix
                                if new_suffix not in self.suffixes:
                                    self.suffixes.append(new_suffix)
                                return True
        return False

    def hypothesis(self) -> DFA:
        """Build the conjectured DFA from the closed, consistent table."""
        row_index: Dict[Tuple[bool, ...], int] = {}
        for prefix in self.prefixes:
            row = self.row(prefix)
            if row not in row_index:
                row_index[row] = len(row_index)
        transitions: Dict[Tuple[int, str], int] = {}
        accepting = set()
        for prefix in self.prefixes:
            row = self.row(prefix)
            state = row_index[row]
            if self.membership(prefix):
                accepting.add(state)
            for char in self.alphabet:
                target_row = self.row(prefix + char)
                # Closure guarantees target_row is a known state row.
                transitions[(state, char)] = row_index[target_row]
        start = row_index[self.row("")]
        return DFA(
            alphabet=self.alphabet,
            states=set(row_index.values()),
            start=start,
            accepting=accepting,
            transitions=transitions,
        )

    def add_counterexample(self, counterexample: str) -> None:
        """Add every prefix of the counterexample to S (Angluin 1987)."""
        for end in range(1, len(counterexample) + 1):
            prefix = counterexample[:end]
            if prefix not in self.prefixes:
                self.prefixes.append(prefix)


def lstar(
    oracle: Oracle,
    equivalence: EquivalenceOracle,
    alphabet: Sequence[str],
    max_rounds: int = 100,
) -> LStarResult:
    """Run L-Star; return the first hypothesis the equivalence oracle accepts.

    Membership queries may raise
    :class:`~repro.learning.oracle.LearningTimeout` through a
    :class:`~repro.learning.oracle.DeadlineOracle`; callers that emulate
    the paper's timeout catch it (see ``repro.evaluation.fig4``).
    """
    table = _ObservationTable(alphabet, oracle)
    rounds = 0
    while True:
        table.close_and_make_consistent()
        hypothesis = table.hypothesis()
        rounds += 1
        counterexample = equivalence(hypothesis)
        if counterexample is None or rounds >= max_rounds:
            return LStarResult(
                dfa=hypothesis.minimize(),
                equivalence_rounds=rounds,
                table_size=(len(table.prefixes), len(table.suffixes)),
            )
        table.add_counterexample(counterexample)
