"""Regular-expression abstract syntax trees.

Phase one of GLADE synthesizes a regular expression; this module provides
the AST those expressions are represented with, together with pretty
printing in the paper's notation (``+`` for alternation, ``*`` for the
Kleene star) and structural helpers.

Matching is delegated to the membership engine
(:mod:`repro.languages.engine`); ``Regex.matches`` builds the engine's
lazy-DFA matcher on first use and caches it on the node, so repeated
membership queries against the same expression are cheap.
"""

from __future__ import annotations

import threading
from typing import FrozenSet, Iterator, Sequence, Tuple

#: Serializes :meth:`Regex.matches`. The cached matcher fills its lazy
#: DFA as it matches (check-then-act on shared tables),
#: and a regex-backed oracle is one object shared by every worker thread
#: on the thread execution backend.
_MATCH_LOCK = threading.Lock()


class Regex:
    """Base class for regular-expression AST nodes.

    Nodes are immutable; structural equality and hashing are defined so
    expressions can be deduplicated and used as dictionary keys. Hashes
    are cached per node: the membership engine's fragment cache keys on
    subtrees, so repeated structural hashing must be O(1) amortized.
    """

    _matcher = None  # lazily-built engine matcher, shared per node
    _hash = None  # cached structural hash, shared per node

    def matches(self, text: str) -> bool:
        """Return True if ``text`` is in the language of this expression."""
        with _MATCH_LOCK:
            if self._matcher is None:
                from repro.languages.engine import Engine

                self._matcher = Engine().matcher(self)
            return self._matcher(text)

    def children(self) -> Tuple["Regex", ...]:
        """Return the direct subexpressions of this node."""
        return ()

    def walk(self) -> Iterator["Regex"]:
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def alphabet(self) -> FrozenSet[str]:
        """Return the set of terminal characters appearing in the regex."""
        chars = set()
        for node in self.walk():
            if isinstance(node, Lit):
                chars.update(node.text)
            elif isinstance(node, CharClass):
                chars.update(node.chars)
        return frozenset(chars)

    def nullable(self) -> bool:
        """Return True if the empty string is in the language."""
        raise NotImplementedError

    # Subclasses define _key(): their constructor arguments, which fix
    # the structure that equality, hashing and pickling go by.
    def _key(self) -> tuple:
        raise NotImplementedError

    def __reduce__(self):
        # Pickled as a constructor call, so the per-node caches stay
        # behind: the matcher's automata are keyed by this very node,
        # and the structural hash is salted per process.
        return type(self), self._key()

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((type(self).__name__, self._key()))
            self._hash = cached
        return cached

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__name__, str(self))


class Epsilon(Regex):
    """The expression matching exactly the empty string."""

    def nullable(self) -> bool:
        return True

    def _key(self) -> tuple:
        return ()

    def __str__(self) -> str:
        return "ε"


class EmptySet(Regex):
    """The expression matching nothing (the empty language)."""

    def nullable(self) -> bool:
        return False

    def _key(self) -> tuple:
        return ()

    def __str__(self) -> str:
        return "∅"


class Lit(Regex):
    """A literal string; matches exactly ``text`` (must be nonempty)."""

    __slots__ = ("text", "_matcher", "_hash")

    def __init__(self, text: str):
        if not text:
            raise ValueError("Lit requires a nonempty string; use Epsilon")
        self.text = text
        self._matcher = None
        self._hash = None

    def nullable(self) -> bool:
        return False

    def _key(self) -> tuple:
        return (self.text,)

    def __str__(self) -> str:
        return _quote(self.text)


class CharClass(Regex):
    """A single character drawn from a set, e.g. ``[a-z]``.

    ``sorted_chars`` is precomputed so samplers drawing from the class
    (every repetition unit after character generalization) need not
    re-sort the set on every draw.
    """

    __slots__ = ("chars", "sorted_chars", "_matcher", "_hash")

    def __init__(self, chars):
        chars = frozenset(chars)
        if not chars:
            raise ValueError("CharClass requires at least one character")
        for c in chars:
            if len(c) != 1:
                raise ValueError("CharClass members must be single characters")
        self.chars = chars
        self.sorted_chars = tuple(sorted(chars))
        self._matcher = None
        self._hash = None

    def nullable(self) -> bool:
        return False

    def _key(self) -> tuple:
        return (self.chars,)

    def __str__(self) -> str:
        if len(self.chars) == 1:
            return _quote(next(iter(self.chars)))
        return format_char_class(self.chars)


class Concat(Regex):
    """Sequencing of two or more subexpressions."""

    __slots__ = ("parts", "_matcher", "_hash")

    def __init__(self, parts: Sequence[Regex]):
        self.parts = tuple(parts)
        if len(self.parts) < 2:
            raise ValueError("Concat requires at least two parts; use concat()")
        self._matcher = None
        self._hash = None

    def children(self) -> Tuple[Regex, ...]:
        return self.parts

    def nullable(self) -> bool:
        return all(p.nullable() for p in self.parts)

    def _key(self) -> tuple:
        return (self.parts,)

    def __str__(self) -> str:
        rendered = []
        for part in self.parts:
            text = str(part)
            if isinstance(part, Alt):
                text = "(" + text + ")"
            rendered.append(text)
        return "".join(rendered)


class Alt(Regex):
    """Alternation of two or more subexpressions (the paper's ``+``)."""

    __slots__ = ("options", "_matcher", "_hash")

    def __init__(self, options: Sequence[Regex]):
        self.options = tuple(options)
        if len(self.options) < 2:
            raise ValueError("Alt requires at least two options; use alt()")
        self._matcher = None
        self._hash = None

    def children(self) -> Tuple[Regex, ...]:
        return self.options

    def nullable(self) -> bool:
        return any(o.nullable() for o in self.options)

    def _key(self) -> tuple:
        return (self.options,)

    def __str__(self) -> str:
        return " + ".join(str(o) for o in self.options)


class Star(Regex):
    """Kleene star of a subexpression."""

    __slots__ = ("inner", "_matcher", "_hash")

    def __init__(self, inner: Regex):
        self.inner = inner
        self._matcher = None
        self._hash = None

    def children(self) -> Tuple[Regex, ...]:
        return (self.inner,)

    def nullable(self) -> bool:
        return True

    def _key(self) -> tuple:
        return (self.inner,)

    def __str__(self) -> str:
        text = str(self.inner)
        if isinstance(self.inner, (Lit, CharClass)) and len(text) <= 3:
            if isinstance(self.inner, Lit) and len(self.inner.text) > 1:
                return "(" + text + ")*"
            return text + "*"
        return "(" + text + ")*"


EPSILON = Epsilon()
EMPTY = EmptySet()


def concat(*parts: Regex) -> Regex:
    """Build a concatenation, flattening nested Concats and dropping ε."""
    flat = []
    for part in parts:
        if isinstance(part, Epsilon):
            continue
        if isinstance(part, EmptySet):
            return EMPTY
        if isinstance(part, Concat):
            flat.extend(part.parts)
        else:
            flat.append(part)
    # Fuse adjacent literals so pretty-printing matches the paper.
    fused = []
    for part in flat:
        if fused and isinstance(part, Lit) and isinstance(fused[-1], Lit):
            fused[-1] = Lit(fused[-1].text + part.text)
        else:
            fused.append(part)
    if not fused:
        return EPSILON
    if len(fused) == 1:
        return fused[0]
    return Concat(fused)


def alt(*options: Regex) -> Regex:
    """Build an alternation, flattening nested Alts and deduplicating."""
    flat = []
    seen = set()
    for option in options:
        parts = option.options if isinstance(option, Alt) else (option,)
        for part in parts:
            if isinstance(part, EmptySet):
                continue
            if part not in seen:
                seen.add(part)
                flat.append(part)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    return Alt(flat)


def star(inner: Regex) -> Regex:
    """Build a Kleene star, collapsing ``(R*)*`` to ``R*`` and ``ε*`` to ε."""
    if isinstance(inner, (Epsilon, EmptySet)):
        return EPSILON
    if isinstance(inner, Star):
        return inner
    return Star(inner)


def literal(text: str) -> Regex:
    """Build a literal expression, mapping the empty string to ε."""
    if not text:
        return EPSILON
    return Lit(text)


def _quote(text: str) -> str:
    """Render a literal, escaping the regex metacharacters we print."""
    out = []
    for c in text:
        if c in "()*+":
            out.append("\\" + c)
        elif c == " ":
            out.append("␣")
        elif c == "\n":
            out.append("\\n")
        elif c == "\t":
            out.append("\\t")
        else:
            out.append(c)
    return "".join(out)


def format_char_class(chars: FrozenSet[str]) -> str:
    """Render a character set compactly, collapsing contiguous runs.

    Example: ``{a..z, 0, 1, 2}`` renders as ``[0-2a-z]``.
    """
    points = sorted(ord(c) for c in chars)
    ranges = []
    lo = hi = points[0]
    for p in points[1:]:
        if p == hi + 1:
            hi = p
        else:
            ranges.append((lo, hi))
            lo = hi = p
    ranges.append((lo, hi))
    pieces = []
    for lo, hi in ranges:
        a, b = chr(lo), chr(hi)
        a = _quote(a) if a != "-" else "\\-"
        b = _quote(b) if b != "-" else "\\-"
        if lo == hi:
            pieces.append(a)
        elif hi == lo + 1:
            pieces.append(a + b)
        else:
            pieces.append(a + "-" + b)
    return "[" + "".join(pieces) + "]"


def to_python_re(expr: Regex) -> str:
    """Translate the AST to Python :mod:`re` syntax (for oracle testing)."""
    import re as _re

    if isinstance(expr, Epsilon):
        return ""
    if isinstance(expr, EmptySet):
        # A pattern that matches nothing.
        return r"(?!)"
    if isinstance(expr, Lit):
        return _re.escape(expr.text)
    if isinstance(expr, CharClass):
        if len(expr.chars) == 1:
            return _re.escape(next(iter(expr.chars)))
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
