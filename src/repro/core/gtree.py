"""The generalization tree manipulated by GLADE's phase one.

Phase one (§4) represents the current language as a regular expression
annotated with *bracketed substrings* ``[α]_τ`` that remain to be
generalized. We realize that annotated expression as a mutable tree:

- :class:`GHole` — a bracketed substring ``[α]_τ`` with its context;
- :class:`GConst` — a constant string (a ``β`` leaf of the paper's
  meta-grammar ``C_regex``), which character generalization (§6.2) may
  later widen into per-position character classes;
- :class:`GStar` — a repetition ``(inner)*``, remembering the repetition
  string α₂ and context it was created with (phase two's merge checks,
  §5.3, need exactly these);
- :class:`GAlt` / :class:`GConcat` — alternation and sequencing;
- :class:`GRoot` — a single-child holder so that every node lives in some
  parent's ``children`` list and replacement is uniform.

Generalization steps replace a hole in place via its :class:`Slot`
(parent, index). When phase one finishes, no holes remain and the tree
converts to a clean :class:`~repro.languages.regex.Regex` or translates
to a CFG (§5.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.core.context import Context
from repro.languages import regex as rx


class HoleKind(enum.Enum):
    """Annotation τ of a bracketed substring: repetition or alternation."""

    REP = "rep"
    ALT = "alt"


#: Bits reserved per seed for star ids: seed ``i`` allocates ids from
#: the half-open block ``[i << STAR_BLOCK_BITS, (i+1) << STAR_BLOCK_BITS)``.
#: Blocks are disjoint by construction, so per-seed phase-1 work can run
#: on any worker, in any order, and still produce the ids — and hence
#: the grammar nonterminal names ``R<id>`` — of a sequential run.
STAR_BLOCK_BITS = 20


class StarIdAllocator:
    """Explicit, run-local id source for :class:`GStar` nodes.

    Each unit of independent work (one seed's phase 1) owns its own
    allocator over a disjoint id block, replacing the process-global
    counter that made star ids — and everything derived from them —
    depend on how much learning the process had already done. ``limit``
    guards against a block overflowing into its neighbor's id space.
    """

    def __init__(self, base: int = 0, limit: Optional[int] = None):
        self.next_id = base
        self.limit = limit

    def take(self) -> int:
        value = self.next_id
        if self.limit is not None and value >= self.limit:
            raise OverflowError(
                "star-id block exhausted at {} (limit {})".format(
                    value, self.limit
                )
            )
        self.next_id += 1
        return value


def seed_block_allocator(seed_index: int) -> StarIdAllocator:
    """The allocator for seed ``seed_index``'s disjoint star-id block."""
    if seed_index < 0:
        raise ValueError("seed_index must be non-negative")
    return StarIdAllocator(
        base=seed_index << STAR_BLOCK_BITS,
        limit=(seed_index + 1) << STAR_BLOCK_BITS,
    )


#: Fallback for ad-hoc :class:`GStar` construction (tests, REPL,
#: direct ``synthesize_regex`` calls) where no allocator is threaded
#: through. It owns its own reserved block far above any realistic
#: seed block, so ad-hoc stars can never collide with pipeline-learned
#: ones even when trees from both worlds are translated or merged
#: together. Nothing downstream depends on its trajectory — phase-2
#: residual sampling is seeded run-locally (see
#: :mod:`repro.core.phase2`) and pipeline runs always pass explicit
#: per-seed allocators.
AD_HOC_STAR_BASE = 1 << 48
_DEFAULT_ALLOCATOR = StarIdAllocator(base=AD_HOC_STAR_BASE)


def reserve_ad_hoc_star_ids(min_next: int) -> None:
    """Keep future ad-hoc star ids at least ``min_next``.

    Called by tree deserialization when a restored star's id falls in
    the ad-hoc block: a tree built without an allocator in one process
    and restored in another must not collide with stars the restoring
    process creates ad hoc afterwards. Pipeline blocks are untouched —
    their disjointness is positional, not reserved."""
    if min_next > _DEFAULT_ALLOCATOR.next_id:
        _DEFAULT_ALLOCATOR.next_id = min_next


class GNode:
    """Base class for generalization-tree nodes."""

    children: List["GNode"]

    def walk(self) -> Iterator["GNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_regex(self) -> rx.Regex:
        """Convert to a regex AST; holes contribute their literal string
        (the current language treats an unexpanded ``[α]_τ`` as just α)."""
        raise NotImplementedError


class GRoot(GNode):
    """Root holder with exactly one child."""

    def __init__(self, child: Optional[GNode] = None):
        self.children = [child] if child is not None else []

    def to_regex(self) -> rx.Regex:
        if not self.children:
            return rx.EPSILON
        return self.children[0].to_regex()


class GConst(GNode):
    """A constant string; possibly widened to character classes by §6.2.

    ``classes[i]`` is the set of characters admitted at position ``i``
    (initially the singleton of ``base_text[i]``). ``context`` is the
    (γ, δ) such that replacing this constant by ρ yields the sentence
    γ·ρ·δ of the surrounding language — chargen's checks wrap single
    character substitutions in exactly this context.
    """

    def __init__(self, base_text: str, context: Context):
        self.children: List[GNode] = []
        self.base_text = base_text
        self.context = context
        self.classes: List[set] = [{c} for c in base_text]

    def to_regex(self) -> rx.Regex:
        parts: List[rx.Regex] = []
        run: List[str] = []
        for chars in self.classes:
            if len(chars) == 1:
                run.append(next(iter(chars)))
            else:
                if run:
                    parts.append(rx.Lit("".join(run)))
                    run = []
                parts.append(rx.CharClass(frozenset(chars)))
        if run:
            parts.append(rx.Lit("".join(run)))
        if not parts:
            return rx.EPSILON
        return rx.concat(*parts)


class GStar(GNode):
    """A repetition node ``(inner)*``.

    ``rep_string`` is the string α₂ that was bracketed when the star was
    introduced, and ``context`` is the context of ``[α₂]_alt`` — together
    they provide the residual (α₂α₂) and wrapping used by phase two's
    merge checks (§5.3). ``star_id`` identifies the star across the
    translated grammar for merging.

    Ids come from, in order of precedence: an explicit ``star_id``
    (deserialization restores stars verbatim), the caller's
    ``allocator`` (phase one threads a per-seed block allocator through
    every construction), or the module default allocator.
    """

    def __init__(
        self,
        inner: GNode,
        rep_string: str,
        context: Context,
        star_id: Optional[int] = None,
        allocator: Optional[StarIdAllocator] = None,
    ):
        self.children = [inner]
        self.rep_string = rep_string
        self.context = context
        if star_id is None:
            # Benign shared state (hence the suppression): pipeline and
            # sharded runs always thread an explicit per-seed allocator
            # through, so task-reachable code never takes this branch;
            # the module default only serves ad-hoc single-threaded
            # construction (tests, REPL) in its reserved id block.
            star_id = (allocator or _DEFAULT_ALLOCATOR).take()  # detlint: disable=PAR001
        self.star_id = star_id

    @property
    def inner(self) -> GNode:
        return self.children[0]

    def to_regex(self) -> rx.Regex:
        return rx.star(self.inner.to_regex())


class GAlt(GNode):
    """An alternation node ``child₀ + child₁ + ...``."""

    def __init__(self, children: List[GNode]):
        self.children = list(children)

    def to_regex(self) -> rx.Regex:
        return rx.alt(*(c.to_regex() for c in self.children))


class GConcat(GNode):
    """A sequencing node ``child₀ child₁ ...``."""

    def __init__(self, children: List[GNode]):
        self.children = list(children)

    def to_regex(self) -> rx.Regex:
        return rx.concat(*(c.to_regex() for c in self.children))


class GHole(GNode):
    """An unexpanded bracketed substring ``[alpha]_kind`` with context.

    ``allow_full_star`` implements the paper's disambiguation of the
    meta-grammar ``C_regex`` ("this disambiguation allows our algorithm
    to avoid considering candidate regular expressions multiple times",
    §4.1): a repetition hole that was produced *by an alternation* —
    either the ``[α₁]_rep`` of a split or the ``T_alt ::= T_rep``
    fallback — must not propose the full-string star ``([α]_alt)*``,
    since that candidate adds no strings (its checks all fall inside the
    current language and are discarded) and would recurse forever.
    Figure 2 confirms the rule: the full star appears in the candidate
    lists of R1 and R4 (seed and α₃-continuation holes) but is absent
    from R3, R7 and R8 (alternation-born holes).
    """

    def __init__(
        self,
        kind: HoleKind,
        alpha: str,
        context: Context,
        allow_full_star: bool = True,
    ):
        self.children: List[GNode] = []
        self.kind = kind
        self.alpha = alpha
        self.context = context
        self.allow_full_star = allow_full_star

    def to_regex(self) -> rx.Regex:
        return rx.literal(self.alpha)

    def __repr__(self) -> str:
        return "[{}]_{}".format(self.alpha, self.kind.value)


@dataclass(frozen=True)
class Slot:
    """A position in the tree: ``parent.children[index]``."""

    parent: GNode
    index: int

    def get(self) -> GNode:
        return self.parent.children[self.index]

    def set(self, node: GNode) -> None:
        self.parent.children[self.index] = node


def stars_of(root: GNode) -> List[GStar]:
    """Return every :class:`GStar` in the tree, in pre-order."""
    return [node for node in root.walk() if isinstance(node, GStar)]


def constants_of(root: GNode) -> List[GConst]:
    """Return every :class:`GConst` in the tree, in pre-order."""
    return [node for node in root.walk() if isinstance(node, GConst)]
