"""Round-trip tests for the artifact schema.

Acceptance criterion: ``from_dict(to_dict(x))`` is semantically
identical for regexes, generalization trees, and grammars. For regexes
and grammars we prove the stronger structural property (structural
equality implies semantic identity); for trees we verify shape,
contexts, character classes, star ids, and the derived regex.

Every round trip is pushed through ``json.dumps``/``json.loads`` so the
encoding is known to survive an actual file write, not just a dict
copy.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.artifacts.schema import (
    ArtifactError,
    grammar_from_dict,
    grammar_to_dict,
    gtree_from_dict,
    gtree_to_dict,
    phase1_result_from_dict,
    phase1_result_to_dict,
    phase2_result_from_dict,
    phase2_result_to_dict,
)
from repro.core.context import Context
from repro.core.glade import GladeConfig, learn_grammar
from repro.core.gtree import GAlt, GConcat, GConst, GRoot, GStar, stars_of
from repro.languages import regex as rx
from repro.languages.cfg import CharSet, Grammar, Nonterminal, Production

from tests.core.helpers import xml_like_oracle
from tests.reference_codecs import regex_from_dict, regex_to_dict


def json_roundtrip(data):
    return json.loads(json.dumps(data))


# --------------------------------------------------------------------------
# Regexes

_ALPHABET = "ab<>/"


def regex_trees(max_leaves: int = 6):
    leaves = st.one_of(
        st.text(alphabet=_ALPHABET, min_size=1, max_size=3).map(rx.Lit),
        st.just(rx.EPSILON),
        st.just(rx.EMPTY),
        st.sets(
            st.sampled_from(list(_ALPHABET)), min_size=1, max_size=4
        ).map(lambda chars: rx.CharClass(frozenset(chars))),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=3).map(rx.Concat),
            st.lists(children, min_size=2, max_size=3).map(rx.Alt),
            children.map(rx.Star),
        ),
        max_leaves=max_leaves,
    )


@given(expr=regex_trees())
@settings(max_examples=200, deadline=None)
def test_regex_roundtrip_structurally_identical(expr):
    restored = regex_from_dict(json_roundtrip(regex_to_dict(expr)))
    # Structural equality (Regex.__eq__) implies semantic identity.
    assert restored == expr
    assert str(restored) == str(expr)
    # And the encoding itself is stable (canonical).
    assert regex_to_dict(restored) == regex_to_dict(expr)


@given(expr=regex_trees(), probe=st.text(alphabet=_ALPHABET, max_size=8))
@settings(max_examples=100, deadline=None)
def test_regex_roundtrip_semantically_identical(expr, probe):
    restored = regex_from_dict(json_roundtrip(regex_to_dict(expr)))
    assert restored.matches(probe) == expr.matches(probe)


def test_regex_unknown_tag_rejected():
    with pytest.raises(ArtifactError, match="unknown regex tag"):
        regex_from_dict({"t": "nope"})
    with pytest.raises(ArtifactError, match="malformed"):
        regex_from_dict(["not", "a", "node"])


# --------------------------------------------------------------------------
# Generalization trees


def sample_tree() -> GRoot:
    const = GConst("ab", Context("<", ">"))
    const.classes[1] = {"b", "c", "d"}
    star = GStar(
        inner=GAlt([GConst("x", Context("<", ">")), const]),
        rep_string="xab",
        context=Context("", "tail"),
    )
    return GRoot(GConcat([GConst("pre", Context("", "")), star]))


def assert_trees_equal(a, b):
    assert type(a) is type(b)
    if isinstance(a, GConst):
        assert a.base_text == b.base_text
        assert a.context == b.context
        assert a.classes == b.classes
    if isinstance(a, GStar):
        assert a.star_id == b.star_id
        assert a.rep_string == b.rep_string
        assert a.context == b.context
    assert len(a.children) == len(b.children)
    for ca, cb in zip(a.children, b.children):
        assert_trees_equal(ca, cb)


def test_gtree_roundtrip_manual_tree():
    tree = sample_tree()
    restored = gtree_from_dict(json_roundtrip(gtree_to_dict(tree)))
    assert_trees_equal(tree, restored)
    assert restored.to_regex() == tree.to_regex()


def test_gtree_roundtrip_learned_trees():
    config = GladeConfig(alphabet="ab<>/")
    result = learn_grammar(["<a>ab</a>"], xml_like_oracle, config)
    for p1 in result.phase1_results:
        data = json_roundtrip(phase1_result_to_dict(p1))
        restored = phase1_result_from_dict(data)
        assert_trees_equal(p1.root, restored.root)
        assert restored.root.to_regex() == p1.root.to_regex()
        assert restored.seed_index == p1.seed_index


def test_gtree_roundtrip_restores_star_ids_verbatim():
    # Ids come from disjoint per-seed blocks, so deserialization keeps
    # them verbatim and needs no global reservation: a block allocator
    # for a different seed can never collide with restored ids.
    from repro.core.gtree import seed_block_allocator

    tree = sample_tree()
    restored = gtree_from_dict(json_roundtrip(gtree_to_dict(tree)))
    assert [s.star_id for s in stars_of(restored)] == [
        s.star_id for s in stars_of(tree)
    ]
    allocator = seed_block_allocator(3)
    fresh = GStar(
        GConst("z", Context("", "")), "z", Context("", ""),
        allocator=allocator,
    )
    assert fresh.star_id == 3 << 20
    assert fresh.star_id not in {s.star_id for s in stars_of(restored)}


def test_gtree_empty_root_roundtrip():
    restored = gtree_from_dict(json_roundtrip(gtree_to_dict(GRoot())))
    assert isinstance(restored, GRoot)
    assert restored.children == []
    assert restored.to_regex() == rx.EPSILON


# --------------------------------------------------------------------------
# Grammars


def grammar_cases():
    g1 = Grammar(
        Nonterminal("S"),
        [
            Production(Nonterminal("S"), ()),
            Production(
                Nonterminal("S"),
                (Nonterminal("S"), "lit", CharSet(frozenset("abc"))),
            ),
        ],
    )
    config = GladeConfig(alphabet="ab<>/")
    learned = learn_grammar(
        ["<a>ab</a>", "zz"],
        lambda s: xml_like_oracle(s),
        config,
    ).grammar
    return [g1, learned]


@pytest.mark.parametrize("index", [0, 1])
def test_grammar_roundtrip(index):
    grammar = grammar_cases()[index]
    restored = grammar_from_dict(json_roundtrip(grammar_to_dict(grammar)))
    assert restored.start == grammar.start
    assert restored.productions == grammar.productions
    # Identical production order means the rendering is byte-identical.
    assert str(restored) == str(grammar)


def test_grammar_malformed_rejected():
    with pytest.raises(ArtifactError, match="malformed grammar"):
        grammar_from_dict({"start": "S"})
    with pytest.raises(ArtifactError, match="unknown symbol tag"):
        grammar_from_dict(
            {
                "start": "S",
                "productions": [{"head": "S", "body": [{"t": "wat"}]}],
            }
        )


# --------------------------------------------------------------------------
# Phase-2 results


def test_phase2_result_roundtrip():
    config = GladeConfig(alphabet="ab<>/")
    result = learn_grammar(["<a>ab</a>"], xml_like_oracle, config)
    assert result.phase2_result is not None
    data = json_roundtrip(phase2_result_to_dict(result.phase2_result))
    restored = phase2_result_from_dict(data)
    assert restored.representative == result.phase2_result.representative
    assert str(restored.grammar) == str(result.phase2_result.grammar)
