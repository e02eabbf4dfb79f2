"""Tests for Hopcroft minimization (`repro.automata.minimize`).

The flat-table core is checked against a reference Moore refinement on
random total DFAs, plus canonical-numbering and shape properties; the
`minimize_dfa` wrapper (and the `DFA.minimize` entry point that
delegates to it) is checked for language equivalence and minimality.
"""

from hypothesis import given, strategies as st

from repro.automata.dfa import DFA
from repro.automata.minimize import hopcroft_blocks, minimize_dfa

from tests.reference_automata import dfa_from_table, equivalent


def moore_blocks(n_states, n_symbols, delta, accepting):
    """Reference partition: naive Moore refinement to a fixed point."""
    block_of = [1 if accepting[s] else 0 for s in range(n_states)]
    while True:
        signatures = {}
        renumbered = []
        for s in range(n_states):
            signature = (
                block_of[s],
                tuple(
                    block_of[delta[s * n_symbols + a]]
                    for a in range(n_symbols)
                ),
            )
            if signature not in signatures:
                signatures[signature] = len(signatures)
            renumbered.append(signatures[signature])
        if renumbered == block_of:
            return block_of
        block_of = renumbered


def canonicalize(block_of):
    """Renumber blocks by first occurrence (the hopcroft convention)."""
    remap = {}
    result = []
    for block in block_of:
        if block not in remap:
            remap[block] = len(remap)
        result.append(remap[block])
    return result


@st.composite
def total_dfas(draw, max_states=8, max_symbols=3):
    n_states = draw(st.integers(1, max_states))
    n_symbols = draw(st.integers(1, max_symbols))
    delta = draw(
        st.lists(
            st.integers(0, n_states - 1),
            min_size=n_states * n_symbols,
            max_size=n_states * n_symbols,
        )
    )
    accepting = draw(
        st.lists(st.booleans(), min_size=n_states, max_size=n_states)
    )
    return n_states, n_symbols, delta, accepting


class TestHopcroftBlocks:
    def test_empty(self):
        assert hopcroft_blocks(0, 2, [], []) == []

    def test_all_equivalent(self):
        # Two states, both accepting, same successors: one block.
        assert hopcroft_blocks(2, 1, [0, 0], [True, True]) == [0, 0]

    def test_parity(self):
        # Even-a's automaton: both states distinguishable.
        delta = [1, 0, 0, 1]  # s0: a->1 b->0; s1: a->0 b->1
        assert hopcroft_blocks(2, 2, delta, [True, False]) == [0, 1]

    @given(case=total_dfas())
    def test_agrees_with_moore(self, case):
        n_states, n_symbols, delta, accepting = case
        hopcroft = hopcroft_blocks(n_states, n_symbols, delta, accepting)
        moore = canonicalize(moore_blocks(n_states, n_symbols, delta, accepting))
        assert hopcroft == moore

    @given(case=total_dfas())
    def test_canonical_numbering(self, case):
        n_states, n_symbols, delta, accepting = case
        block_of = hopcroft_blocks(n_states, n_symbols, delta, accepting)
        # Blocks appear in first-occurrence order: the sequence of first
        # sightings is 0, 1, 2, ...
        seen = []
        for block in block_of:
            if block not in seen:
                seen.append(block)
        assert seen == list(range(len(seen)))

    @given(case=total_dfas())
    def test_accepting_never_merges_with_rejecting(self, case):
        n_states, n_symbols, delta, accepting = case
        block_of = hopcroft_blocks(n_states, n_symbols, delta, accepting)
        verdict_of_block = {}
        for s in range(n_states):
            block = block_of[s]
            assert verdict_of_block.setdefault(block, accepting[s]) == (
                accepting[s]
            )


def dfas(max_states=6):
    """Strategy producing (possibly partial) DFAs over {a, b}."""

    @st.composite
    def build(draw):
        n_states = draw(st.integers(1, max_states))
        table = {}
        for s in range(n_states):
            row = {}
            for char in "ab":
                target = draw(
                    st.one_of(st.none(), st.integers(0, n_states - 1))
                )
                if target is not None:
                    row[char] = target
            table[s] = row
        accepting = [
            s for s in range(n_states) if draw(st.booleans())
        ]
        return dfa_from_table("ab", table, 0, accepting)

    return build()


class TestMinimizeDfa:
    @given(dfa=dfas())
    def test_equivalent_and_minimal(self, dfa):
        minimal = minimize_dfa(dfa)
        assert equivalent(minimal, dfa)
        # Idempotence: minimizing again cannot shrink it further.
        assert minimize_dfa(minimal).num_states() == minimal.num_states()
        # Minimality against the completed trim: no smaller equivalent
        # DFA exists, so the Moore partition of the completed form has
        # exactly as many live blocks.
        assert minimal.num_states() <= max(
            1, dfa.trim().completed().num_states()
        )

    def test_method_delegates(self):
        bloated = dfa_from_table(
            "ab",
            # Two interchangeable accepting states.
            {0: {"a": 1, "b": 2}, 1: {"a": 1}, 2: {"a": 2}},
            0,
            [1, 2],
        )
        minimal = bloated.minimize()
        assert equivalent(minimal, bloated)
        assert minimal.num_states() < bloated.num_states()
        assert isinstance(minimal, DFA)
