"""Per-layer attribution for the traced run, from outside the program.

A :class:`LayerProbe` replaces public names with timing wrappers at the
place their callers look them up (a module global or a class
attribute), so nothing under ``src/`` changes. Each wrapped call records
its self time -- its duration minus the time spent in nested calls into
other layers -- under a ``<layer><<parent layer>`` histogram of a
:class:`~repro.obs.metrics.MetricsRegistry`; the histogram's count is
the call count. A call into a layer from inside the same layer passes
straight through, so a layer's time is counted once. Aggregates rather
than spans, because a learn-null pass calls the subject parsers ~10^5
times and ``repro.obs`` caps a tracer at 200k spans; only the ops
themselves (the roots) become spans.

Every op runs under a root frame (``pipeline`` for learn and resume,
``eval`` for metric derivation) whose self time is the op's
unattributed time, so the self times of all layers plus the roots'
unattributed time add up to the traced end-to-end time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import os
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

import repro.core.pipeline as pipeline_mod
import repro.evaluation.harness as harness_mod
import repro.evaluation.metrics as metrics_mod
import repro.exec.shard as shard_mod
import repro.fuzzing.grammar_fuzzer as fuzzer_mod
from repro.artifacts.store import FileCheckpointStore, NullCheckpointStore
from repro.core.phase2 import MergeCommitter
from repro.fuzzing.grammar_fuzzer import GrammarFuzzer
from repro.languages.engine import MembershipSession
from repro.languages.sampler import GrammarSampler
from repro.learning.oracle import CachingOracle
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

#: Layers a probe times, in report order. ``pipeline`` and ``eval`` are
#: the op roots; the rest are wrapped calls.
LAYERS = (
    "programs",
    "engine",
    "learner.phase1",
    "learner.phase2",
    "learner.translate",
    "learner.replay",
    "pipeline.digest",
    "store.save",
    "store.load",
    "earley.recognize",
    "earley.parse",
    "sampler",
    "fuzzer",
    "coverage",
    "pipeline",
    "eval",
)

_NO_LAYER = "-"


class CountingNullStore(NullCheckpointStore):
    """The default null store, counting the checkpoints it is handed.

    A subclass, so the pipeline still sees a non-persistent store and
    skips per-checkpoint telemetry assembly exactly as by default.
    """

    def __init__(self, probe: "LayerProbe"):
        self._probe = probe

    def save(self, artifact) -> None:
        self._probe.registry.add("pipeline.checkpoints")


class _TimedPredicate:
    """A membership predicate from ``MembershipSession.matcher`` whose
    single and batch calls are both timed as the engine layer."""

    __slots__ = ("_call", "match_many")

    def __init__(self, probe: "LayerProbe", predicate):
        self._call = probe.timed("engine", predicate)
        self.match_many = probe.timed("engine", predicate.match_many)

    def __call__(self, text: str) -> bool:
        return self._call(text)


class LayerProbe:
    """Timing wrappers for one traced pass, plus what they recorded."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        #: The open frames, innermost last: ``[layer, child seconds]``.
        self._stack: List[list] = [[_NO_LAYER, 0.0]]
        self._patches: List[tuple] = []
        #: Durations of every ``FileCheckpointStore.save``, in ms.
        self.save_ms: List[float] = []

    # -- timing ------------------------------------------------------------

    def timed(
        self,
        layer: str,
        fn: Callable,
        note: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` timed as ``layer``; ``note(elapsed, *args)`` runs after
        each outermost call, outside the measured interval."""
        stack = self._stack
        observe = self.registry.observe
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                observe(layer + "<" + parent[0], elapsed - frame[1])
                if note is not None:
                    note(elapsed, *args)

        return wrapper

    @contextlib.contextmanager
    def root(self, layer: str, label: str) -> Iterator[None]:
        """Run one op as a root frame and a trace span named ``label``."""
        if len(self._stack) != 1:
            raise RuntimeError("ops must not nest")
        frame = [layer, 0.0]
        self._stack.append(frame)
        started = time.perf_counter()
        try:
            with self.tracer.span(label, cat="op"):
                yield
        finally:
            elapsed = time.perf_counter() - started
            self._stack.pop()
            self.registry.observe(layer + "<" + _NO_LAYER, elapsed - frame[1])
            self.registry.observe("op:" + label, elapsed)

    # -- installation --------------------------------------------------------

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, owner: Any, name: str, layer: str, note=None) -> None:
        self._patch(owner, name, self.timed(layer, getattr(owner, name), note))

    def timed_accepts(self, accepts: Callable[[str], bool]) -> Callable:
        """A subject's ``accepts`` timed as the programs layer."""
        return self.timed("programs", accepts)

    def install(self) -> None:
        """Put every wrapper in place (undo with :meth:`uninstall`)."""
        add = self.registry.add

        def count_chars(_elapsed, _grammar, text, *_rest):
            add("earley.chars", len(text))

        def count_save(elapsed, store, *_rest):
            add("pipeline.checkpoints")
            self.save_ms.append(elapsed * 1e3)
            add("store.bytes_written", os.path.getsize(store.path))

        def count_inputs(_elapsed, _subject, inputs, *_rest):
            add("coverage.inputs", len(inputs))

        self._wrap(shard_mod, "synthesize_regex", "learner.phase1")
        self._wrap(shard_mod, "generalize_characters", "learner.phase1")
        self._wrap(pipeline_mod, "translate_trees", "learner.translate")
        self._wrap(pipeline_mod, "plan_merges", "learner.phase2")
        self._wrap(MergeCommitter, "commit_serial", "learner.phase2")
        self._wrap(MergeCommitter, "finish", "learner.phase2")
        self._wrap(MergeCommitter, "replay", "learner.replay")
        self._wrap(FileCheckpointStore, "save", "store.save", count_save)
        self._wrap(FileCheckpointStore, "load", "store.load")
        self._wrap(metrics_mod, "recognize", "earley.recognize", count_chars)
        self._wrap(fuzzer_mod, "parse", "earley.parse", count_chars)
        self._wrap(GrammarSampler, "sample", "sampler")
        self._wrap(GrammarSampler, "sample_tree", "sampler")
        self._wrap(GrammarFuzzer, "generate_one", "fuzzer")
        self._wrap(MembershipSession, "match_many", "engine")

        matcher = self.timed("engine", MembershipSession.matcher)

        def timed_matcher(session, expr):
            predicate = matcher(session, expr)
            if hasattr(predicate, "match_many"):
                return _TimedPredicate(self, predicate)
            return self.timed("engine", predicate)

        self._patch(MembershipSession, "matcher", timed_matcher)

        seen = CachingOracle.__dict__["seen_digests"]
        self._patch(
            CachingOracle,
            "seen_digests",
            property(self.timed("pipeline.digest", seen.fget)),
        )

        get_subject = harness_mod.get_subject

        def timed_subject(name):
            subject = get_subject(name)
            return dataclasses.replace(
                subject, accepts=self.timed_accepts(subject.accepts)
            )

        self._patch(harness_mod, "get_subject", timed_subject)

        coverage = self.timed(
            "coverage", harness_mod.measure_coverage, count_inputs
        )

        def measure_coverage(subject, inputs, *args, **kwargs):
            # A program run under the line tracer is coverage work: the
            # trace callbacks run inside the parser's frames, so timing
            # those runs as the programs layer would hide the tracing
            # cost. Coverage therefore runs the unwrapped ``accepts``.
            plain = dataclasses.replace(
                subject,
                accepts=getattr(subject.accepts, "__wrapped__", subject.accepts),
            )
            return coverage(plain, list(inputs), *args, **kwargs)

        self._patch(harness_mod, "measure_coverage", measure_coverage)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: outermost calls and self seconds, over all parents."""
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        histograms = self.registry.snapshot()["histograms"]
        for key, hist in histograms.items():
            if key.startswith("op:"):
                continue
            layer = key.split("<", 1)[0]
            totals[layer]["calls"] += hist["count"]
            totals[layer]["self_s"] += hist["total"]
        return totals

    def counter(self, name: str) -> int:
        return self.registry.snapshot()["counters"].get(name, 0)


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]
