"""Tree walks only the tests need: counting regex nodes and finding
the holes phase one leaves (none, once it ends)."""

from __future__ import annotations

from typing import List

from repro.core.gtree import GHole, GNode
from repro.languages.regex import Regex


def regex_size(expr: Regex) -> int:
    """Return the number of AST nodes in the expression."""
    return sum(1 for _ in expr.walk())


def holes_of(root: GNode) -> List[GHole]:
    """Return every unexpanded :class:`GHole` (empty once phase 1 ends)."""
    return [node for node in root.walk() if isinstance(node, GHole)]
