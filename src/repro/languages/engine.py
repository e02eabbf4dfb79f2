"""The membership engine: incremental Thompson compilation + memoization.

Phase one needs the current language L̂ᵢ after *every* generalization
step to implement the §4.3 discard rule, and the §6.1 covered-seed test
matches every new seed against every learned regex. Rebuilding a Thompson
NFA from scratch each time costs O(steps × tree-size) construction work —
the dominant non-oracle cost of the learner. This module avoids it, and
is the only regex-membership implementation in the package
(``Regex.matches`` runs through it too):

- :class:`Engine` compiles regex subtrees into :class:`Fragment` objects
  and caches them under the subtree's *structural* hash (regex ASTs
  already define structural equality). After a splice, every unchanged
  subtree's fragment is reused by reference; only the spine from the
  changed node to the root is built fresh.

- Fragments never inline their children. A fragment owns a handful of
  local glue states plus *call edges* into child fragments; a
  :class:`ComposedNFA` simulates the whole tree with runtime states
  ``(instance, local_state)``, materializing child instances lazily the
  first time ε-closure crosses a call edge. "Compiling" a regex whose
  subtrees are all cached is therefore O(1), and matching never pays for
  subtrees the input does not reach.

- Matching runs on-the-fly subset construction over the composed
  automaton (a lazy DFA, see :class:`ComposedNFA`): after the first few
  probes against a language version, each input character costs one
  dictionary lookup.

- :class:`MembershipSession` is the façade the learner uses: it hands
  out memoizing matchers keyed per (regex-version, string) and tracks
  the union of learned per-seed languages for the covered-seed test.

Correctness relies on the call/return discipline being equivalent to
inlining: instances are interned per (parent instance, call site), so
every runtime path entering a child instance came through exactly one
call site and the child's exit returns to exactly that site's return
state. The property tests in ``tests/languages/test_engine.py`` check
agreement with a plain Thompson construction kept test-side
(``tests/reference_nfa.py``) on random ASTs.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.languages import regex as rx


class Fragment:
    """An immutable Thompson fragment for one regex subtree.

    States are local integers ``0..n_states-1`` with distinguished
    ``entry`` and ``exit``. ``eps`` and ``chars`` are intra-fragment
    edges: ``eps[state]`` lists ε-successors, ``chars[state]`` lists
    ``(label, target)`` pairs whose label is the frozenset of accepted
    characters. ``calls`` maps a local state to ``(call_index, child,
    return_state)`` triples: the automaton may ε-enter ``child`` (in
    its own instance) from that state and, upon reaching the child's
    exit, ε-continue at ``return_state``. ``call_index`` is unique
    within the fragment so distinct call sites of the same child get
    distinct instances.
    """

    __slots__ = ("n_states", "entry", "exit", "eps", "chars", "calls")

    def __init__(
        self,
        n_states: int,
        entry: int,
        exit_: int,
        eps: Dict[int, Tuple[int, ...]],
        chars: Dict[int, Tuple[Tuple[FrozenSet[str], int], ...]],
        calls: Dict[int, Tuple[Tuple[int, "Fragment", int], ...]],
    ):
        self.n_states = n_states
        self.entry = entry
        self.exit = exit_
        self.eps = eps
        self.chars = chars
        self.calls = calls


class Engine:
    """Structurally-hashed fragment cache shared across compilations.

    ``states_built`` counts states allocated for *freshly built*
    fragments only — cache hits contribute nothing — so it measures the
    construction work actually done.
    """

    def __init__(self):
        self._fragments: Dict[rx.Regex, Fragment] = {}
        self.states_built = 0
        self.fragment_hits = 0
        self.fragment_misses = 0

    def fragment(self, expr: rx.Regex) -> Fragment:
        """Return the (cached) fragment for ``expr``."""
        frag = self._fragments.get(expr)
        if frag is not None:
            self.fragment_hits += 1
            return frag
        self.fragment_misses += 1
        frag = self._build(expr)
        self.states_built += frag.n_states
        self._fragments[expr] = frag
        return frag

    def compile(self, expr: rx.Regex) -> "ComposedNFA":
        """Compile ``expr`` into a matchable automaton, reusing fragments."""
        return ComposedNFA(self.fragment(expr))

    def matcher(self, expr: rx.Regex) -> Callable[[str], bool]:
        """A membership predicate for ``expr`` (its lazy-DFA matcher)."""
        return self.compile(expr).matches

    def _build(self, expr: rx.Regex) -> Fragment:
        if isinstance(expr, rx.Epsilon):
            return Fragment(2, 0, 1, {0: (1,)}, {}, {})
        if isinstance(expr, rx.EmptySet):
            # Two states with no path between them.
            return Fragment(2, 0, 1, {}, {}, {})
        if isinstance(expr, rx.Lit):
            chars = {
                i: ((frozenset((c,)), i + 1),)
                for i, c in enumerate(expr.text)
            }
            return Fragment(len(expr.text) + 1, 0, len(expr.text), {}, chars, {})
        if isinstance(expr, rx.CharClass):
            return Fragment(2, 0, 1, {}, {0: ((expr.chars, 1),)}, {})
        if isinstance(expr, rx.Concat):
            children = [self.fragment(part) for part in expr.parts]
            calls = {
                i: ((i, child, i + 1),) for i, child in enumerate(children)
            }
            return Fragment(len(children) + 1, 0, len(children), {}, {}, calls)
        if isinstance(expr, rx.Alt):
            children = [self.fragment(option) for option in expr.options]
            calls = {0: tuple((i, child, 1) for i, child in enumerate(children))}
            return Fragment(2, 0, 1, {}, {}, calls)
        if isinstance(expr, rx.Star):
            inner = self.fragment(expr.inner)
            # 0 = entry, 1 = exit, 2 = loop state the inner fragment
            # returns to; 2 → 0 re-enters the (same) inner instance.
            return Fragment(
                3, 0, 1, {0: (1,), 2: (1, 0)}, {}, {0: ((0, inner, 2),)}
            )
        raise TypeError("unknown regex node: {!r}".format(expr))


class ComposedNFA:
    """Set-of-states simulation over a tree of shared fragments.

    Runtime states are ``(instance, local_state)`` pairs. Instance 0 is
    the root fragment; child instances are created lazily (interned per
    (parent instance, call site)) when ε-closure first crosses the call
    edge, and live in ``_frames`` as (fragment, parent, return_state).

    Matching memoizes determinized transitions lazily (the classic
    on-the-fly subset construction): state *sets* are interned to small
    integers and ``(set id, char) → set id`` moves are cached, so after
    the first few probes against a language version each input
    character costs one dictionary lookup. The cache is bounded; past
    the bound, matching falls back to plain set-of-states simulation.
    """

    #: Bound on interned state sets per automaton (DFA-state analog);
    #: also bounds the ε-closure memo, the same cache-sizing knob.
    MAX_CACHED_SETS = 4096

    def __init__(self, root: Fragment):
        self.root = root
        self._frames: List[Tuple[Fragment, int, int]] = [(root, -1, -1)]
        self._instances: Dict[Tuple[int, int], int] = {}
        self._closure_cache: Dict[
            FrozenSet[Tuple[int, int]], FrozenSet[Tuple[int, int]]
        ] = {}
        # Lazy-DFA structures: interned state sets and cached moves.
        self._set_ids: Dict[FrozenSet[Tuple[int, int]], int] = {}
        self._sets: List[FrozenSet[Tuple[int, int]]] = []
        self._accepting: List[bool] = []
        self._moves: Dict[Tuple[int, str], int] = {}
        self._start_id: Optional[int] = None
        # The start closure is kept even when set-interning overflows
        # (``_start_id == -2``): overflow-mode matches then start from
        # the cached set instead of recomputing the ε-closure per call.
        self._start_set: Optional[FrozenSet[Tuple[int, int]]] = None

    def _enter(self, inst: int, call_index: int, child: Fragment, ret: int) -> int:
        key = (inst, call_index)
        child_inst = self._instances.get(key)
        if child_inst is None:
            child_inst = len(self._frames)
            self._frames.append((child, inst, ret))
            self._instances[key] = child_inst
        return child_inst

    def eps_closure(
        self, states: FrozenSet[Tuple[int, int]]
    ) -> FrozenSet[Tuple[int, int]]:
        """All states reachable via ε-edges, call entries, and returns."""
        cached = self._closure_cache.get(states)
        if cached is not None:
            return cached
        frames = self._frames
        closure = set(states)
        stack = list(states)
        while stack:
            inst, s = stack.pop()
            frag, parent, ret = frames[inst]
            for t in frag.eps.get(s, ()):
                nxt = (inst, t)
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
            for call_index, child, return_state in frag.calls.get(s, ()):
                child_inst = self._enter(inst, call_index, child, return_state)
                nxt = (child_inst, child.entry)
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
            if s == frag.exit and parent >= 0:
                nxt = (parent, ret)
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        result = frozenset(closure)
        if len(self._closure_cache) < self.MAX_CACHED_SETS:
            self._closure_cache[states] = result
        return result

    def step(
        self, states: FrozenSet[Tuple[int, int]], char: str
    ) -> FrozenSet[Tuple[int, int]]:
        """Advance the state set over one input character."""
        frames = self._frames
        moved = set()
        for inst, s in states:
            for chars, dst in frames[inst][0].chars.get(s, ()):
                if char in chars:
                    moved.add((inst, dst))
        if not moved:
            return frozenset()
        return self.eps_closure(frozenset(moved))

    def _intern(self, states: FrozenSet[Tuple[int, int]]) -> int:
        """Intern a state set; -1 is the dead set, -2 means cache full."""
        if not states:
            return -1
        set_id = self._set_ids.get(states)
        if set_id is None:
            if len(self._sets) >= self.MAX_CACHED_SETS:
                return -2
            set_id = len(self._sets)
            self._set_ids[states] = set_id
            self._sets.append(states)
            self._accepting.append((0, self.root.exit) in states)
        return set_id

    def matches(self, text: str) -> bool:
        """Return True if the composed automaton accepts ``text``."""
        if self._start_id is None:
            self._start_set = self.eps_closure(
                frozenset(((0, self.root.entry),))
            )
            self._start_id = self._intern(self._start_set)
        current_id = self._start_id
        if current_id == -2:
            return self._matches_slow(self._start_set, text, 0)
        moves = self._moves
        for index, char in enumerate(text):
            if current_id == -2:
                # Cache overflowed: finish with plain NFA simulation.
                return self._matches_slow(current, text, index)
            key = (current_id, char)
            next_id = moves.get(key)
            if next_id is None:
                next_states = self.step(self._sets[current_id], char)
                next_id = self._intern(next_states)
                if next_id != -2:
                    moves[key] = next_id
                else:
                    current = next_states
            if next_id == -1:
                return False
            current_id = next_id
        if current_id == -2:
            return (0, self.root.exit) in current
        return self._accepting[current_id]

    def _matches_slow(
        self, current: FrozenSet[Tuple[int, int]], text: str, index: int
    ) -> bool:
        for char in text[index:]:
            current = self.step(current, char)
            if not current:
                return False
        return (0, self.root.exit) in current


class _MemoMatcher:
    """A membership predicate with a per-version result memo."""

    __slots__ = ("_match", "_memo")

    def __init__(self, match: Callable[[str], bool]):
        self._match = match
        self._memo: Dict[str, bool] = {}

    def __call__(self, text: str) -> bool:
        result = self._memo.get(text)
        if result is None:
            result = self._match(text)
            self._memo[text] = result
        return result


class MembershipSession:
    """Per-learning-run façade over the engine.

    ``matcher(expr)`` returns a memoizing membership predicate for one
    version of the evolving language; match results are cached per
    (regex-version, string), and structurally equal versions share one
    matcher (a splice that replaces a hole by its literal constant
    leaves the language unchanged, so the previous version's memo is
    reused wholesale). The session builds its own :class:`Engine`
    unless one is passed in.

    ``remember``/``covers`` maintain the union of learned per-seed
    languages for the §6.1 covered-seed test.
    """

    #: Language versions retained for memo reuse. Version reuse is
    #: overwhelmingly "the splice left the language unchanged", i.e.
    #: the most recent versions; a small LRU captures that sharing
    #: without holding every intermediate version's memo and interned
    #: state sets alive for the whole learning run.
    MAX_VERSIONS = 8

    def __init__(self, engine: Optional[Engine] = None):
        self.engine = engine if engine is not None else Engine()
        self._versions: Dict[rx.Regex, _MemoMatcher] = {}
        self._learned: List[_MemoMatcher] = []

    def matcher(self, expr: rx.Regex) -> _MemoMatcher:
        """A memoizing membership predicate for the language of ``expr``."""
        matcher = self._versions.pop(expr, None)
        if matcher is None:
            matcher = _MemoMatcher(self.engine.matcher(expr))
            while len(self._versions) >= self.MAX_VERSIONS:
                self._versions.pop(next(iter(self._versions)))
        self._versions[expr] = matcher  # (re)insert as most recent
        return matcher

    def match_many(self, expr: rx.Regex, texts: Sequence[str]) -> List[bool]:
        """Membership of each string in one language version."""
        match = self.matcher(expr)
        return [match(text) for text in texts]

    def remember(self, expr: rx.Regex) -> None:
        """Record a learned per-seed regex for subsequent ``covers`` tests."""
        self._learned.append(self.matcher(expr))

    def covers(self, text: str) -> bool:
        """True if any remembered (learned) language contains ``text``."""
        return any(match(text) for match in self._learned)
