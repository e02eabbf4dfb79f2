"""Dense byte-transition-table DFAs: the hardware-fast matching tier.

The membership engine's :class:`~repro.languages.engine.ComposedNFA`
pays a dictionary lookup (plus tuple hashing) per input character even
on its warm lazy-DFA path. This module lowers a hot automaton to the
classic dense representation instead:

- the byte alphabet is **class-compressed**: two bytes are equivalent
  iff they appear in exactly the same set of transition labels, so a
  printable-ASCII automaton typically needs a handful of classes, not
  256 columns. ``classmap`` is a 256-entry ``bytes`` table from byte
  value to class id; class 0 is reserved for bytes on no label (always
  dead).
- the minimized transition function is a **flat row-major table**
  (``rows[state][class] -> state``) with the dead state pinned at index
  0, so the scalar matcher is two list indexes and a truth test per
  character — no hashing, no allocation.
- :meth:`DenseDFA.match_many` batches many strings with the same
  scalar loop: on the learner's short, ragged, reject-heavy probe mixes
  it measures 2.8-3.8x over the warm lazy-DFA tier, where a vectorized
  column walker stalls at ~1.6x (per-column dispatch never amortizes
  and rejects cannot exit early).

Characters outside the byte range cannot be class-mapped; ``match``
returns None for such strings and the caller falls back to the composed
NFA (which rejects them — no label can contain them — so agreement is
by construction; the property tests check it anyway).

Tables are immutable and picklable (``bytes``/``array`` state only; the
row lists are rebuilt after unpickling), so promoted tables can cross
the process-backend boundary with a task payload.

Minimization reuses :func:`repro.automata.minimize.hopcroft_blocks` and
determinization reuses
:func:`repro.automata.determinize.bounded_subset_construction` — the
same verified paths the DFA baselines use.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.automata.determinize import bounded_subset_construction
from repro.automata.minimize import hopcroft_blocks

__all__ = ["DenseDFA", "build_classmap", "lower_automaton"]

#: Class-compressed alphabets wider than this cannot be encoded in the
#: one-byte classmap (class 0 is reserved); such automata stay lazy.
MAX_CLASSES = 255


def build_classmap(
    labels: Iterable[frozenset],
) -> Optional[Tuple[bytes, int, List[Optional[str]]]]:
    """Compress the byte alphabet into character equivalence classes.

    ``labels`` are the automaton's transition labels (frozensets of
    single characters). Two bytes land in the same class iff they are
    members of exactly the same labels — such bytes are
    indistinguishable to every transition, so one table column serves
    them all. Returns ``(classmap, n_classes, representatives)`` where
    ``classmap[byte]`` is the class id, class 0 is the "on no label"
    dead class, and ``representatives[c]`` is one character of class
    ``c`` (None for class 0). Returns None when a labelled character is
    outside the byte range or the class count exceeds
    :data:`MAX_CLASSES` — the caller keeps the lazy tier then.
    """
    masks = [0] * 256
    bit = 1
    seen = set()
    for label in labels:
        if label in seen:
            continue
        seen.add(label)
        for char in label:
            point = ord(char)
            if point >= 256:
                return None
            masks[point] |= bit
        bit <<= 1
    class_of_mask = {0: 0}
    classmap = bytearray(256)
    representatives: List[Optional[str]] = [None]
    for point in range(256):
        mask = masks[point]
        cls = class_of_mask.get(mask)
        if cls is None:
            cls = len(representatives)
            if cls > MAX_CLASSES:
                return None
            class_of_mask[mask] = cls
            representatives.append(chr(point))
        classmap[point] = cls
    return bytes(classmap), len(representatives), representatives


class DenseDFA:
    """A minimized, class-compressed, dense-table DFA over bytes.

    State 0 is the dead state (all transitions self-loop, rejecting);
    ``rows[state][cls]`` is the successor. ``table`` keeps the same
    data flat (row-major ``array('i')``) as the canonical picklable
    form; ``rows`` is derived from it for the scalar hot loop.
    """

    __slots__ = (
        "classmap",
        "n_classes",
        "n_states",
        "table",
        "accepting",
        "start",
        "rows",
    )

    def __init__(
        self,
        classmap: bytes,
        n_classes: int,
        n_states: int,
        table: array,
        accepting: bytes,
        start: int,
    ):
        self.classmap = classmap
        self.n_classes = n_classes
        self.n_states = n_states
        self.table = table
        self.accepting = accepting
        self.start = start
        self._derive()

    def _derive(self) -> None:
        k = self.n_classes
        self.rows = [
            list(self.table[state * k : (state + 1) * k])
            for state in range(self.n_states)
        ]

    # -- pickling (process-backend shards) -----------------------------

    def __getstate__(self):
        return (
            self.classmap,
            self.n_classes,
            self.n_states,
            self.table,
            self.accepting,
            self.start,
        )

    def __setstate__(self, state) -> None:
        (
            self.classmap,
            self.n_classes,
            self.n_states,
            self.table,
            self.accepting,
            self.start,
        ) = state
        self._derive()

    # -- matching ------------------------------------------------------

    def match(self, text: str) -> Optional[bool]:
        """Membership verdict, or None when the table cannot decide.

        None means the string contains a character outside the byte
        range; the caller falls back to the composed NFA for it.
        """
        try:
            codes = text.encode("latin-1").translate(self.classmap)
        except UnicodeEncodeError:
            return None
        rows = self.rows
        row = rows[self.start]
        state = self.start
        for cls in codes:
            state = row[cls]
            if not state:
                return False
            row = rows[state]
        return bool(self.accepting[state])

    def match_many(self, texts: Sequence[str]) -> List[Optional[bool]]:
        """Batch :meth:`match`: one verdict (or None) per input string."""
        match = self.match
        return [match(text) for text in texts]


def lower_automaton(
    start,
    step: Callable,
    is_accepting: Callable,
    labels: Iterable[frozenset],
    state_budget: int,
) -> Optional[DenseDFA]:
    """Lower an ε-closed automaton to a minimized :class:`DenseDFA`.

    ``start``/``step``/``is_accepting`` describe the automaton exactly
    as :func:`~repro.automata.determinize.bounded_subset_construction`
    expects; ``labels`` are its transition labels (for alphabet
    compression). Returns None when the alphabet cannot be
    class-compressed into bytes or determinization exceeds
    ``state_budget`` subset states — the caller keeps the lazy tier.
    """
    classes = build_classmap(labels)
    if classes is None:
        return None
    classmap, n_classes, representatives = classes
    # One subset-construction probe per real class (class 0 is the
    # dead class: no label contains its bytes, so no transition fires).
    symbols = representatives[1:]
    built = bounded_subset_construction(
        start, step, is_accepting, symbols, max_states=state_budget
    )
    if built is None:
        return None
    n_subset, transitions, accepting = built
    # Flat total table with the dead state made explicit at index 0
    # (subset state i becomes i + 1); column 0 — the dead class — stays
    # all-dead.
    n_total = n_subset + 1
    delta = [0] * (n_total * n_classes)
    acc = [False] * n_total
    for i in range(n_subset):
        acc[i + 1] = accepting[i]
    for (state, sym_index), target in transitions.items():
        delta[(state + 1) * n_classes + sym_index + 1] = target + 1
    block_of = hopcroft_blocks(n_total, n_classes, delta, acc)
    # State 0 is scanned first, so the dead block is renumbered 0 and
    # the pinned-dead-state invariant carries over to the quotient.
    n_blocks = max(block_of) + 1
    packed = [0] * (n_blocks * n_classes)
    packed_accepting = bytearray(n_blocks)
    for state in range(n_total):
        block = block_of[state]
        if acc[state]:
            packed_accepting[block] = 1
        src = state * n_classes
        dst = block * n_classes
        for cls in range(n_classes):
            packed[dst + cls] = block_of[delta[src + cls]]
    return DenseDFA(
        classmap=classmap,
        n_classes=n_classes,
        n_states=n_blocks,
        table=array("i", packed),
        accepting=bytes(packed_accepting),
        start=block_of[1],
    )
