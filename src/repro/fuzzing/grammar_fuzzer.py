"""The grammar-based fuzzer of §8.3.

Given the synthesized grammar Ĉ and the seed inputs E_in, each generated
input is produced by:

1. uniformly selecting a seed α ∈ E_in and taking its parse tree under Ĉ
   (trees are parsed once and cached — every retained seed is in L(Ĉ) by
   construction, since phase one only generalizes the seed's language);
2. applying n mutations, n uniform in [0, 50]; one mutation picks a
   random node N of the parse tree with nonterminal label A, resamples
   α' ~ P_{L(Ĉ,A)}, and splices it in place of N's subtree.

This matches the "standard techniques [28]" fuzzer the paper builds.
§7 evaluates GLADE by handing *learned grammars* to fuzzers, so the
fuzzer also loads persisted run artifacts directly
(:meth:`GrammarFuzzer.from_artifact`) — fuzzing is decoupled from the
learning run that produced the grammar.

Each parsed seed is converted once into the sampler's compact tree
(:mod:`repro.languages.sampler`). A mutation draws the node's pre-order
index with ``rng.choice(range(size))``, and
:meth:`~repro.languages.sampler.GrammarSampler.resample` rebuilds only
the path to it. The draws come in the order, and over sequences of the
lengths, of a mutation that lists a :class:`ParseTree`'s nodes and
copies the tree, so the strings and the generator state afterwards are
that mutation's.
"""

from __future__ import annotations

import copy
import os
import random
from typing import Iterator, List, Optional, Sequence, Union

from repro.determinism import resolve_rng
from repro.languages.cfg import Grammar, ParseTree
from repro.languages.earley import parse
from repro.languages.sampler import GrammarSampler


class GrammarFuzzer:
    """Generate inputs by mutating seed parse trees under a grammar."""

    def __init__(
        self,
        grammar: Grammar,
        seeds: Sequence[str],
        rng: Optional[random.Random] = None,
        max_mutations: int = 50,
        max_sample_depth: int = 20,
    ):
        if not seeds:
            raise ValueError("GrammarFuzzer requires at least one seed")
        self.grammar = grammar
        self.rng = resolve_rng(rng)
        self.max_mutations = max_mutations
        self.sampler = GrammarSampler(
            grammar, rng=self.rng, max_depth=max_sample_depth
        )
        self.seed_trees: List[ParseTree] = []
        self.unparsed_seeds: List[str] = []
        for seed in seeds:
            tree = parse(grammar, seed)
            if tree is None:
                # Should not happen for GLADE-learned grammars; tolerate
                # user-provided grammars that miss a seed.
                self.unparsed_seeds.append(seed)
            else:
                self.seed_trees.append(tree)
        if not self.seed_trees:
            raise ValueError("no seed parses under the given grammar")
        self._compact_seeds = [
            self.sampler.compact(tree) for tree in self.seed_trees
        ]

    @classmethod
    def from_artifact(
        cls,
        artifact: Union[str, os.PathLike, "RunArtifact"],
        rng: Optional[random.Random] = None,
        **kwargs,
    ) -> "GrammarFuzzer":
        """Build a fuzzer from a persisted run artifact (or its path).

        The artifact's learned grammar and its retained seeds (used and
        §6.1-skipped — both lie in the learned language) become the
        fuzzer's inputs, so ``learn --out run.json`` once and fuzz from
        ``run.json`` forever after.
        """
        from repro.artifacts import RunArtifact, load_artifact

        if not isinstance(artifact, RunArtifact):
            artifact = load_artifact(artifact)
        grammar = artifact.require_grammar()
        seeds = artifact.seeds_used() + artifact.seeds_skipped()
        return cls(grammar, seeds, rng=rng, **kwargs)

    def with_rng(self, rng: random.Random) -> "GrammarFuzzer":
        """A fuzzer over this one's grammar and parsed seeds that draws
        from ``rng``.

        Parsing the seeds is the costly part of construction, and
        neither it nor the sampler's set-up draws from the RNG, so the
        copy generates exactly what a fuzzer built afresh with ``rng``
        would. Parse trees are immutable, so the two share them.
        """
        twin = copy.copy(self)
        twin.rng = rng
        twin.sampler = copy.copy(self.sampler)
        twin.sampler.rng = rng
        return twin

    def generate_one(self) -> str:
        """Generate a single fuzzed input."""
        rng, sampler = self.rng, self.sampler
        tree = rng.choice(self._compact_seeds)
        for _ in range(rng.randint(0, self.max_mutations)):
            index = rng.choice(range(sampler.size(tree)))
            tree = sampler.resample(tree, index)
        return sampler.text(tree)

    def generate(self, count: int) -> List[str]:
        """Generate ``count`` fuzzed inputs."""
        return [self.generate_one() for _ in range(count)]

    def __iter__(self) -> Iterator[str]:
        while True:
            yield self.generate_one()
