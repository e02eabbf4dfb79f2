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

- Hot language versions are *promoted* to a third tier: once a
  :class:`TieredMatcher` has answered enough probes for one version,
  the engine lowers the composed automaton to a minimized dense
  byte-transition table (:mod:`repro.automata.dense`) under a bounded
  subset-construction budget, and subsequent probes walk the flat
  table. Lowering that would exceed the state budget (or an alphabet
  that cannot be byte-class-compressed) is remembered as failed and the
  lazy tier stays authoritative; strings with characters outside the
  byte range always fall back to the composed NFA. Promotion is keyed
  by the root regex's *structural* identity, so a splice — which
  produces a structurally different root — can never be served by a
  stale table (version-keyed invalidation for free).

- :class:`MembershipSession` is the façade the learner uses: it hands
  out memoizing matchers keyed per (regex-version, string) — with a
  ``match_many`` batch path feeding the dense tier — and tracks the
  union of learned per-seed languages for the covered-seed test
  (batched incrementally by :class:`CoverageTracker`).

Correctness relies on the call/return discipline being equivalent to
inlining: instances are interned per (parent instance, call site), so
every runtime path entering a child instance came through exactly one
call site and the child's exit returns to exactly that site's return
state. The property tests in ``tests/languages/test_engine.py`` and
``tests/languages/test_tiered.py`` check agreement with a plain
Thompson construction kept test-side (``tests/reference_nfa.py``) — and
across all three tiers — on random ASTs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.automata.dense import DenseDFA, lower_automaton
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


class TierStats:
    """Counters describing matcher-tier activity for one engine.

    Pure execution telemetry: none of these feed back into learning
    decisions (every tier returns the same verdicts), so they may
    differ across runs — e.g. serial vs sharded — while the learned
    grammars and oracle accounting stay byte-identical.
    """

    __slots__ = (
        "fragments_promoted",
        "promotion_failures",
        "dense_states",
        "dense_matches",
        "fallback_matches",
        "nfa_matches",
    )

    def __init__(self):
        self.fragments_promoted = 0
        self.promotion_failures = 0
        self.dense_states = 0
        self.dense_matches = 0
        self.fallback_matches = 0
        self.nfa_matches = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


#: Sentinel cached for language versions whose lowering exceeded the
#: state budget (or whose alphabet cannot be byte-compressed), so the
#: failed attempt is paid at most once per version.
_FAILED = object()


class Engine:
    """Structurally-hashed fragment cache shared across compilations.

    ``states_built`` counts states allocated for *freshly built*
    fragments only — cache hits contribute nothing — so it measures the
    construction work actually done.

    :meth:`matcher` hands out :class:`TieredMatcher` objects that
    promote hot language versions to dense transition tables after
    ``promote_threshold`` probed strings (a batch counts as its size);
    ``state_budget`` bounds the subset construction per lowering. Dense
    tables are cached per root regex (FIFO-bounded) so re-requested
    versions reuse their table.
    """

    #: Dense tables retained per engine (FIFO eviction). Tables are a
    #: few KB each; learning revisits only recent versions, like the
    #: session's memo LRU.
    MAX_DENSE_TABLES = 64

    #: Default probe count before a version is lowered. Calibrated
    #: against the lowering cost: one subset-construction+Hopcroft pass
    #: costs a few ms — thousands of lazy-DFA probes — so promoting the
    #: many short-lived versions phase-1 splices through is a net loss,
    #: while versions that survive this many probes (remembered §6.1
    #: matchers, the final grammar's regexes under sampling) repay the
    #: lowering many times over.
    PROMOTE_THRESHOLD = 64

    #: Optional tier-transition hook: ``observer(kind, detail)`` called
    #: on dense promotions/failures (``--trace`` wires this to instant
    #: trace events). Observation-only — it must never influence
    #: matching.
    observer = None

    def __init__(
        self,
        promote_threshold: int = PROMOTE_THRESHOLD,
        state_budget: int = 256,
    ):
        self._fragments: Dict[rx.Regex, Fragment] = {}
        self.states_built = 0
        self.fragment_hits = 0
        self.fragment_misses = 0
        self.promote_threshold = promote_threshold
        self.state_budget = state_budget
        self.tier_stats = TierStats()
        # Root regex -> DenseDFA or _FAILED. Keyed structurally, like
        # the fragment cache: a splice yields a new root, never a stale
        # table.
        self._dense_tables: Dict[rx.Regex, object] = {}

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

    def matcher(self, expr: rx.Regex) -> "TieredMatcher":
        """A tiered membership predicate for ``expr``."""
        return TieredMatcher(self, expr, self.compile(expr))

    def _promote(self, expr: rx.Regex, root: Fragment):
        """Lower ``expr``'s automaton to a dense table (cached per root).

        Returns the :class:`~repro.automata.dense.DenseDFA`, or
        :data:`_FAILED` when the version cannot be lowered within
        budget — remembered so the attempt is made once per version.
        """
        cached = self._dense_tables.get(expr)
        if cached is None:
            table = _lower_fragment(root, self.state_budget)
            if table is None:
                self.tier_stats.promotion_failures += 1
                cached = _FAILED
                if self.observer is not None:
                    self.observer("promotion_failed", {})
            else:
                self.tier_stats.fragments_promoted += 1
                self.tier_stats.dense_states += table.n_states
                cached = table
                if self.observer is not None:
                    self.observer("promoted", {"states": table.n_states})
            while len(self._dense_tables) >= self.MAX_DENSE_TABLES:
                self._dense_tables.pop(next(iter(self._dense_tables)))
            self._dense_tables[expr] = cached
        return cached

    def tier_summary(self) -> Dict[str, int]:
        """The tier counters as a plain dict (for artifact execution)."""
        return self.tier_stats.as_dict()

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


def _lower_fragment(root: Fragment, budget: int) -> Optional[DenseDFA]:
    """Lower ``root``'s composed automaton to a dense table, or None.

    Collects the transition labels of the whole fragment DAG (for
    alphabet compression) in a deterministic traversal order, then runs
    the bounded subset construction against a *private*
    :class:`ComposedNFA` — the exhaustive walk must not pollute or
    overflow the live matcher's lazy-DFA caches, especially when the
    lowering fails and the live matcher stays authoritative.
    """
    labels: List[FrozenSet[str]] = []
    seen_labels = set()
    seen_fragments = set()
    stack = [root]
    while stack:
        frag = stack.pop()
        if id(frag) in seen_fragments:
            continue
        seen_fragments.add(id(frag))
        for state in range(frag.n_states):
            for chars, _dst in frag.chars.get(state, ()):
                if chars not in seen_labels:
                    seen_labels.add(chars)
                    labels.append(chars)
            for _index, child, _ret in frag.calls.get(state, ()):
                stack.append(child)
    probe = ComposedNFA(root)
    start = probe.eps_closure(frozenset(((0, root.entry),)))
    exit_state = (0, root.exit)
    return lower_automaton(
        start,
        probe.step,
        lambda states: exit_state in states,
        labels,
        state_budget=budget,
    )


class TieredMatcher:
    """Membership predicate that promotes its language version to dense.

    Tier policy: probes are answered by the composed NFA while a hit
    counter warms up (a batch counts as its size in hits); crossing
    ``promote_threshold`` triggers lowering via
    :meth:`Engine._promote`. A
    version that fails to lower (budget / alphabet) stays on the
    composed tier permanently; a promoted version answers from the
    dense table except for strings with non-byte characters, which fall
    back to the composed NFA per string. All tiers are
    verdict-equivalent, so the choice is invisible to the learner.
    """

    __slots__ = ("_engine", "_expr", "_composed", "_dense", "_hits")

    def __init__(self, engine: Engine, expr: rx.Regex, composed: ComposedNFA):
        self._engine = engine
        self._expr = expr
        self._composed = composed
        self._dense = None  # None = undecided; _FAILED = stay composed
        self._hits = 0

    def _table(self) -> Optional[DenseDFA]:
        if self._dense is None:
            self._dense = self._engine._promote(self._expr, self._composed.root)
        table = self._dense
        return None if table is _FAILED else table

    def __call__(self, text: str) -> bool:
        stats = self._engine.tier_stats
        if self._dense is None:
            self._hits += 1
            if self._hits < self._engine.promote_threshold:
                stats.nfa_matches += 1
                return self._composed.matches(text)
        table = self._table()
        if table is None:
            stats.nfa_matches += 1
            return self._composed.matches(text)
        verdict = table.match(text)
        if verdict is None:
            stats.fallback_matches += 1
            return self._composed.matches(text)
        stats.dense_matches += 1
        return verdict

    def match_many(self, texts: Sequence[str]) -> List[bool]:
        """Batch membership; one verdict per input string."""
        stats = self._engine.tier_stats
        if self._dense is None:
            # A batch is worth its size in hits: a large batch promotes
            # at once, but the handful-sized batches a *fresh* language
            # version sees (phase-1 discard checks probe each candidate
            # version a few strings at a time, then splice to a new
            # version) stay on the lazy tier rather than paying a
            # lowering per short-lived version.
            self._hits += len(texts)
            if self._hits < self._engine.promote_threshold:
                stats.nfa_matches += len(texts)
                return [self._composed.matches(text) for text in texts]
        table = self._table()
        if table is None:
            stats.nfa_matches += len(texts)
            return [self._composed.matches(text) for text in texts]
        verdicts = table.match_many(texts)
        # Stats in bulk and no per-string work in the common all-decided
        # case: the wrapper must not give back the table's speedup.
        fallbacks = verdicts.count(None)
        stats.dense_matches += len(verdicts) - fallbacks
        if not fallbacks:
            return verdicts
        stats.fallback_matches += fallbacks
        return [
            self._composed.matches(text) if verdict is None else verdict
            for text, verdict in zip(texts, verdicts)
        ]


class _MemoMatcher:
    """A membership predicate with a per-version result memo."""

    __slots__ = ("_match", "_memo")

    def __init__(self, match: TieredMatcher):
        self._match = match
        self._memo: Dict[str, bool] = {}

    def __call__(self, text: str) -> bool:
        result = self._memo.get(text)
        if result is None:
            result = self._match(text)
            self._memo[text] = result
        return result

    def match_many(self, texts: Sequence[str]) -> List[bool]:
        """Batch :meth:`__call__`: memo-aware, dense-tier friendly.

        Unmemoized strings are deduplicated and answered in one batch
        through the tiered matcher's ``match_many``, then every verdict
        is served from the memo — identical results to calling the
        predicate per string.
        """
        memo = self._memo
        pending = [
            text for text in dict.fromkeys(texts) if text not in memo
        ]
        if pending:
            memo.update(zip(pending, self._match.match_many(pending)))
        return [memo[text] for text in texts]


class CoverageTracker:
    """Incrementally batched §6.1 covered-seed evaluation.

    Created by :meth:`MembershipSession.track_coverage` over a fixed
    text list. :meth:`covered` lazily catches up on matchers the
    session has learned since the last call, batch-matching only the
    still-uncovered texts against each newly learned matcher — the
    verdict for text *i* is exactly what
    :meth:`MembershipSession.covers` would return for it at the same
    point in the learning run, but the probes arrive in dense-tier
    sized batches instead of one string at a time.
    """

    __slots__ = ("_session", "_texts", "_results", "_pending", "_consumed")

    def __init__(self, session: "MembershipSession", texts: Sequence[str]):
        self._session = session
        self._texts = list(texts)
        self._results = [False] * len(self._texts)
        self._pending = list(range(len(self._texts)))
        self._consumed = 0  # prefix of session._learned already applied

    def covered(self, index: int) -> bool:
        """Whether text ``index`` is covered by the languages learned so far."""
        learned = self._session._learned
        while self._consumed < len(learned) and self._pending:
            match = learned[self._consumed]
            self._consumed += 1
            pending = [self._texts[i] for i in self._pending]
            verdicts = match.match_many(pending)
            still_pending = []
            for i, verdict in zip(self._pending, verdicts):
                if verdict:
                    self._results[i] = True
                else:
                    still_pending.append(i)
            self._pending = still_pending
        return self._results[index]


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
    languages for the §6.1 covered-seed test; ``track_coverage`` is the
    batched incremental form and ``match_many``/``covers_many`` the
    batched one-shot forms.
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
        """Batch membership for one language version.

        Verdict-identical to probing ``matcher(expr)`` per string, but
        routes unmemoized strings through the dense tier in one batch.
        """
        return self.matcher(expr).match_many(texts)

    def remember(self, expr: rx.Regex) -> None:
        """Record a learned per-seed regex for subsequent ``covers`` tests."""
        self._learned.append(self.matcher(expr))

    def covers(self, text: str) -> bool:
        """True if any remembered (learned) language contains ``text``."""
        return any(match(text) for match in self._learned)

    def covers_many(self, texts: Sequence[str]) -> List[bool]:
        """Batch :meth:`covers` over the languages learned so far."""
        tracker = CoverageTracker(self, texts)
        return [tracker.covered(i) for i in range(len(texts))]

    def track_coverage(self, texts: Sequence[str]) -> CoverageTracker:
        """An incremental, batch-matching view of :meth:`covers`."""
        return CoverageTracker(self, texts)

    def tier_summary(self) -> Dict[str, int]:
        """Matcher-tier counters of the session's engine."""
        return self.engine.tier_summary()
