"""Tree walks only the tests need: counting regex nodes, translating a
regex to Python :mod:`re` syntax (an independent matcher to check the
membership engine against), and finding the holes phase one leaves
(none, once it ends)."""

from __future__ import annotations

import re
from typing import List

from repro.core.gtree import GHole, GNode
from repro.languages.regex import (
    Alt,
    CharClass,
    Concat,
    EmptySet,
    Epsilon,
    Lit,
    Regex,
    Star,
)


def regex_size(expr: Regex) -> int:
    """Return the number of AST nodes in the expression."""
    return sum(1 for _ in expr.walk())


def to_python_re(expr: Regex) -> str:
    """Translate the AST to Python :mod:`re` syntax."""
    if isinstance(expr, Epsilon):
        return ""
    if isinstance(expr, EmptySet):
        # A pattern that matches nothing.
        return r"(?!)"
    if isinstance(expr, Lit):
        return re.escape(expr.text)
    if isinstance(expr, CharClass):
        if len(expr.chars) == 1:
            return re.escape(next(iter(expr.chars)))
        body = "".join(
            "\\" + c if c in r"\^]-" else c for c in sorted(expr.chars)
        )
        return "[" + body + "]"
    if isinstance(expr, Concat):
        return "".join(_wrap_re(p) for p in expr.parts)
    if isinstance(expr, Alt):
        return "|".join(
            "(?:" + to_python_re(o) + ")" for o in expr.options
        )
    if isinstance(expr, Star):
        return _wrap_re(expr.inner) + "*"
    raise TypeError("unknown regex node: {!r}".format(expr))


def _wrap_re(expr: Regex) -> str:
    body = to_python_re(expr)
    if isinstance(expr, (Alt, Concat, Star)) or (
        isinstance(expr, Lit) and len(expr.text) > 1
    ):
        return "(?:" + body + ")"
    return body


def holes_of(root: GNode) -> List[GHole]:
    """Return every unexpanded :class:`GHole` (empty once phase 1 ends)."""
    return [node for node in root.walk() if isinstance(node, GHole)]
