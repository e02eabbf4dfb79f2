"""Tests for the generalization tree node types."""


from repro.core.context import Context
from repro.core.gtree import (
    GAlt,
    GConcat,
    GConst,
    GHole,
    GRoot,
    GStar,
    HoleKind,
    Slot,
    constants_of,
    stars_of,
)
from repro.languages import regex as rx

from tests.reference_walks import holes_of


def test_const_to_regex_plain():
    const = GConst("abc", Context())
    assert const.to_regex() == rx.Lit("abc")


def test_const_to_regex_with_classes():
    const = GConst("abc", Context())
    const.classes[1].add("x")
    expr = const.to_regex()
    assert expr.matches("abc")
    assert expr.matches("axc")
    assert not expr.matches("ayc")


def test_empty_const_is_epsilon():
    assert isinstance(GConst("", Context()).to_regex(), rx.Epsilon)


def test_star_regex_and_identity():
    star = GStar(GConst("ab", Context()), "ab", Context())
    assert str(star.to_regex()) == "(ab)*"
    other = GStar(GConst("ab", Context()), "ab", Context())
    assert star.star_id != other.star_id  # unique ids


def test_alt_and_concat_to_regex():
    node = GConcat(
        [
            GConst("x", Context()),
            GAlt([GConst("a", Context()), GConst("b", Context())]),
        ]
    )
    expr = node.to_regex()
    assert expr.matches("xa")
    assert expr.matches("xb")
    assert not expr.matches("x")


def test_hole_reads_as_literal():
    hole = GHole(HoleKind.REP, "raw", Context())
    assert hole.to_regex() == rx.Lit("raw")


def test_root_without_child_is_epsilon():
    assert isinstance(GRoot().to_regex(), rx.Epsilon)


def test_slot_get_set():
    root = GRoot(GConst("a", Context()))
    slot = Slot(root, 0)
    assert isinstance(slot.get(), GConst)
    slot.set(GConst("b", Context()))
    assert root.to_regex() == rx.Lit("b")


def test_walk_helpers():
    star_inner = GStar(GConst("i", Context()), "i", Context())
    tree = GRoot(
        GConcat(
            [
                GConst("c", Context()),
                star_inner,
                GHole(HoleKind.ALT, "h", Context()),
            ]
        )
    )
    assert len(constants_of(tree)) == 2  # "c" and the star's inner "i"
    assert stars_of(tree) == [star_inner]
    assert len(holes_of(tree)) == 1
