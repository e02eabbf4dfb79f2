"""Tests for the grammar-based fuzzer (§8.3)."""

import random

import pytest

from repro.fuzzing.grammar_fuzzer import GrammarFuzzer
from repro.languages.cfg import Grammar, Nonterminal, ParseTree, Production
from repro.languages.earley import recognize

S = Nonterminal("S")


def paren_grammar() -> Grammar:
    return Grammar(
        S,
        [
            Production(S, ()),
            Production(S, ("(", S, ")", S)),
        ],
    )


class TestConstruction:
    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            GrammarFuzzer(paren_grammar(), [])

    def test_requires_parseable_seed(self):
        with pytest.raises(ValueError):
            GrammarFuzzer(paren_grammar(), ["((("])

    def test_unparseable_seeds_recorded(self):
        fuzzer = GrammarFuzzer(paren_grammar(), ["()", ")("])
        assert fuzzer.unparsed_seeds == [")("]
        assert len(fuzzer.seed_trees) == 1


class TestGeneration:
    def test_outputs_stay_in_grammar_language(self):
        grammar = paren_grammar()
        fuzzer = GrammarFuzzer(
            grammar, ["(())", "()()"], random.Random(0)
        )
        for text in fuzzer.generate(150):
            assert recognize(grammar, text), text

    def test_deterministic_with_seeded_rng(self):
        grammar = paren_grammar()
        first = GrammarFuzzer(grammar, ["()"], random.Random(5))
        second = GrammarFuzzer(grammar, ["()"], random.Random(5))
        assert first.generate(25) == second.generate(25)

    def test_produces_inputs_beyond_seeds(self):
        grammar = paren_grammar()
        fuzzer = GrammarFuzzer(grammar, ["()"], random.Random(1))
        outputs = set(fuzzer.generate(200))
        assert outputs - {"()"}  # mutation does generalize

    def test_zero_mutation_budget_reproduces_seeds(self):
        grammar = paren_grammar()
        fuzzer = GrammarFuzzer(
            grammar, ["(())"], random.Random(2), max_mutations=0
        )
        assert set(fuzzer.generate(10)) == {"(())"}

    def test_iterator_protocol(self):
        fuzzer = GrammarFuzzer(paren_grammar(), ["()"], random.Random(3))
        stream = iter(fuzzer)
        values = [next(stream) for _ in range(5)]
        assert len(values) == 5


def compact_nodes(tree):
    """Every node of a compact tree in pre-order. The sampler's trees
    are ``(size, nonterminal id, production index, children)`` tuples;
    only the package's sampler and these tests read that layout."""
    nodes, stack = [], [tree]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(
            child for child in reversed(node[3]) if isinstance(child, tuple)
        )
    return nodes


def mutate(fuzzer, tree):
    """One mutation, drawn as ``generate_one`` draws it."""
    sampler = fuzzer.sampler
    index = fuzzer.rng.choice(range(sampler.size(tree)))
    return sampler.resample(tree, index)


class TestMutation:
    """Mutants rebuild the path to the replaced node and share the rest."""

    def test_size_counts_nodes_of_parsed_sampled_and_mutated_trees(self):
        fuzzer = GrammarFuzzer(
            paren_grammar(), ["(())()", "()"], random.Random(4)
        )
        for tree in fuzzer.seed_trees:
            for node in tree.nodes():
                assert node.size() == len(node.nodes())
        trees = list(fuzzer._compact_seeds)
        # Resampling the root is a fresh sample of the start symbol.
        trees += [fuzzer.sampler.resample(trees[0], 0) for _ in range(20)]
        tree = fuzzer._compact_seeds[0]
        for _ in range(50):
            tree = mutate(fuzzer, tree)
            trees.append(tree)
        for tree in trees:
            for node in compact_nodes(tree):
                assert node[0] == len(compact_nodes(node))

    def test_generation_leaves_seed_trees_unchanged(self):
        fuzzer = GrammarFuzzer(
            paren_grammar(), ["(()())", "()(())"], random.Random(6)
        )

        def snapshot(tree):
            return tree.text(), [
                (node, tuple(node.children)) for node in tree.nodes()
            ]

        def compact_snapshot(tree):
            return fuzzer.sampler.text(tree), [
                (node, node[3]) for node in compact_nodes(tree)
            ]

        def assert_same(before, after):
            for (text, nodes), (text_after, nodes_after) in zip(before, after):
                assert text_after == text
                assert len(nodes_after) == len(nodes)
                for (node, children), (node_after, children_after) in zip(
                    nodes, nodes_after
                ):
                    assert node_after is node
                    assert len(children_after) == len(children)
                    assert all(
                        a is b for a, b in zip(children, children_after)
                    )

        before = [snapshot(tree) for tree in fuzzer.seed_trees]
        compact = list(fuzzer._compact_seeds)
        compact_before = [compact_snapshot(tree) for tree in compact]
        fuzzer.generate(200)
        assert_same(before, [snapshot(tree) for tree in fuzzer.seed_trees])
        assert all(a is b for a, b in zip(compact, fuzzer._compact_seeds))
        assert_same(
            compact_before,
            [compact_snapshot(tree) for tree in fuzzer._compact_seeds],
        )

    def test_mutant_shares_untouched_subtrees_with_seed(self):
        fuzzer = GrammarFuzzer(paren_grammar(), ["(())(())"], random.Random(8))
        seed = fuzzer._compact_seeds[0]
        seed_nodes = {id(node) for node in compact_nodes(seed)}
        mutants = [mutate(fuzzer, seed) for _ in range(20)]
        shared = [
            mutant for mutant in mutants
            if any(id(node) in seed_nodes for node in compact_nodes(mutant))
        ]
        assert shared

    def test_generation_builds_no_parse_tree(self, monkeypatch):
        fuzzer = GrammarFuzzer(
            paren_grammar(), ["(())()", "()"], random.Random(9)
        )
        built = [0]
        post_init = ParseTree.__post_init__

        def counting(tree):
            built[0] += 1
            post_init(tree)

        monkeypatch.setattr(ParseTree, "__post_init__", counting)
        texts = fuzzer.generate(100)
        monkeypatch.undo()
        assert built[0] == 0
        assert len(set(texts)) > 1


class TestWithRng:
    def test_copy_draws_like_a_fresh_fuzzer_without_parsing(
        self, monkeypatch
    ):
        import repro.fuzzing.grammar_fuzzer as fuzzer_mod

        seeds = ["(())()", "()"]
        fuzzer = GrammarFuzzer(paren_grammar(), seeds, random.Random(1))
        first = fuzzer.generate(5)
        monkeypatch.setattr(fuzzer_mod, "parse", None)  # no parse allowed
        twin = fuzzer.with_rng(random.Random(2))
        monkeypatch.undo()
        assert twin.seed_trees is fuzzer.seed_trees
        fresh = GrammarFuzzer(paren_grammar(), seeds, random.Random(2))
        assert twin.generate(30) == fresh.generate(30)
        # The original keeps its own stream.
        again = GrammarFuzzer(paren_grammar(), seeds, random.Random(1))
        assert first + fuzzer.generate(5) == again.generate(10)


class TestLargeInput:
    def test_deep_seed_tree_fuzzes_without_recursion(self, tmp_path):
        from repro.artifacts import RunArtifact, SeedRecord, save_artifact
        from repro.artifacts.run import SEED_USED

        # S -> S 'a' | ε parses a^n into a left spine n + 1 nodes deep.
        grammar = Grammar(S, [Production(S, (S, "a")), Production(S, ())])
        seed = "a" * 10_000
        artifact = RunArtifact(
            seeds=[SeedRecord(text=seed, state=SEED_USED)], grammar=grammar
        )
        path = tmp_path / "run.json"
        save_artifact(artifact, path)
        fuzzer = GrammarFuzzer.from_artifact(path, rng=random.Random(0))
        assert fuzzer.seed_trees[0].text() == seed
        assert fuzzer.seed_trees[0].size() == 10_001
        for text in fuzzer.generate(20):
            assert set(text) <= {"a"}


class TestScaling:
    """Nodes built per mutation, counted at n and 2n nodes, not timed: a
    mutation rebuilds only the path to the node it replaces."""

    @staticmethod
    def balanced(depth):
        """A text whose parse is a complete binary tree of that depth."""
        text = "x"
        for _ in range(depth):
            text = "(" + text + text + ")"
        return text

    @staticmethod
    def preorder_depths(tree):
        depths = []
        stack = [(tree, 0)]
        while stack:
            node, depth = stack.pop()
            depths.append(depth)
            for child in reversed(node[3]):
                if isinstance(child, tuple):
                    stack.append((child, depth + 1))
        return depths

    def rebuilt_and_paths(self, depth, monkeypatch):
        """Over 200 mutations of one seed tree: nodes the mutations built
        outside their sampled replacements, and their path lengths.

        Trees are immutable tuples, so a node the mutation built is one
        of the mutant's nodes that is neither the seed's nor the fresh
        sample's; below a node of either, every node is theirs too."""
        grammar = Grammar(
            S, [Production(S, ("(", S, S, ")")), Production(S, ("x",))]
        )
        rng = random.Random(depth)
        fuzzer = GrammarFuzzer(grammar, [self.balanced(depth)], rng)
        sampler = fuzzer.sampler
        seed = fuzzer._compact_seeds[0]
        depths = self.preorder_depths(seed)
        seed_nodes = {id(node) for node in compact_nodes(seed)}
        fresh = []
        sample = sampler._sample

        def recorded(head):
            fresh.append(sample(head))
            return fresh[-1]

        monkeypatch.setattr(sampler, "_sample", recorded)
        built = path = 0
        for _ in range(200):
            index = rng.choice(range(sampler.size(seed)))
            mutant = sampler.resample(seed, index)
            path += depths[index]
            old = {id(node) for node in compact_nodes(fresh[-1])} | seed_nodes
            stack = [mutant]
            while stack:
                node = stack.pop()
                if id(node) not in old:
                    built += 1
                    stack.extend(c for c in node[3] if isinstance(c, tuple))
        monkeypatch.undo()
        assert seed[0] == len(depths) == 2 ** (depth + 1) - 1
        return built, path

    def test_nodes_built_per_mutation_follow_the_path(self, monkeypatch):
        small_built, small_path = self.rebuilt_and_paths(9, monkeypatch)
        large_built, large_path = self.rebuilt_and_paths(10, monkeypatch)
        # 1,023 and 2,047 nodes; paths of about 8 and 9 nodes.
        assert small_built == small_path > 0
        assert large_built == large_path > 0


class TestFromArtifact:
    """§7: fuzzing consumes the persisted learning artifact directly."""

    def make_artifact(self, tmp_path):
        from repro.artifacts import save_artifact
        from repro.core.glade import GladeConfig
        from repro.core.pipeline import LearningPipeline

        config = GladeConfig(alphabet="ab", enable_chargen=False)
        artifact = LearningPipeline(
            lambda s: set(s) <= set("ab"), config=config
        ).run(["ab", "abab", "ba"])
        path = tmp_path / "run.json"
        save_artifact(artifact, path)
        return artifact, path

    def test_from_artifact_object_and_path(self, tmp_path):
        artifact, path = self.make_artifact(tmp_path)
        for source in (artifact, path, str(path)):
            fuzzer = GrammarFuzzer.from_artifact(
                source, rng=random.Random(3)
            )
            for text in fuzzer.generate(20):
                assert recognize(artifact.grammar, text)

    def test_from_artifact_includes_skipped_seeds(self, tmp_path):
        artifact, _path = self.make_artifact(tmp_path)
        assert artifact.seeds_skipped()  # "abab" is covered by "ab"
        fuzzer = GrammarFuzzer.from_artifact(artifact)
        expected = len(artifact.seeds_used()) + len(artifact.seeds_skipped())
        assert len(fuzzer.seed_trees) + len(fuzzer.unparsed_seeds) == expected

    def test_from_artifact_requires_grammar(self):
        from repro.artifacts import ArtifactError, RunArtifact, SeedRecord

        incomplete = RunArtifact(seeds=[SeedRecord(text="ab")])
        with pytest.raises(ArtifactError, match="no grammar"):
            GrammarFuzzer.from_artifact(incomplete)

    def test_from_artifact_deterministic_under_seeded_rng(self, tmp_path):
        _artifact, path = self.make_artifact(tmp_path)
        first = GrammarFuzzer.from_artifact(path, rng=random.Random(9))
        second = GrammarFuzzer.from_artifact(path, rng=random.Random(9))
        assert first.generate(10) == second.generate(10)
