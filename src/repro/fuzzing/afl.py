"""An afl-style coverage-guided fuzzer (the paper's second baseline, §8.3).

Substitution note (DESIGN.md §2): afl-fuzz instruments a binary and
mutates byte buffers, keeping inputs that light up new branch tuples. We
reproduce the algorithm in-process:

- **feedback**: line-to-line edges within one frame, recorded by
  :class:`EdgeTracer`, the analog of afl's branch bitmap;
- **queue**: seeds first, then every input that produced a new edge;
- **stages** per queue entry: a bounded deterministic stage (single-bit
  flips of each character's code point, afl's ``bitflip 1/1``), then a
  havoc stage of stacked random mutations (char flips, random overwrite,
  block delete/clone/insert, interesting values), plus occasional
  splicing with another queue entry.

Like afl, the fuzzer has no notion of grammar or validity — that is
exactly what GLADE's comparison in Figure 7 exercises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import FrameType
from typing import Callable, List, Optional, Set, Tuple

from repro.determinism import resolve_rng
from repro.programs.coverage import CoverageTracer

# An edge is (filename, previous lineno, lineno) within one frame.
Edge = Tuple[str, int, int]

_INTERESTING = ["0", "1", "9", "255", "-1", " ", "\n", "a", "<", "(", '"']


class EdgeTracer(CoverageTracer):
    """Record executed lines and line-to-line edges in selected files.

    Each fresh frame activation gets its own local trace function,
    which remembers that frame's last line, so an edge never joins two
    activations — not even when a new frame reuses a finished one's
    address. A generator resuming fires another ``call`` event on the
    frame it had; that frame still holds its local trace function
    (``f_trace``), which is handed back, so the generator's edges carry
    on across each ``yield``.
    """

    def __init__(self, modules):
        super().__init__(modules)
        self.edges: Set[Edge] = set()

    def reset(self) -> None:
        super().reset()
        self.edges.clear()

    def _trace_function(self) -> Callable:
        files = self.files
        record_line = self.lines.add
        record_edge = self.edges.add

        def global_trace(frame: FrameType, event: str, arg):
            if frame.f_trace is not None:
                return frame.f_trace
            filename = frame.f_code.co_filename
            if filename not in files:
                return None
            previous = None

            def local_trace(frame: FrameType, event: str, arg):
                nonlocal previous
                if event == "line":
                    lineno = frame.f_lineno
                    record_line((filename, lineno))
                    if previous is not None:
                        record_edge((filename, previous, lineno))
                    previous = lineno
                return local_trace

            return local_trace

        return global_trace


@dataclass
class AFLStats:
    """Counters mirroring afl's UI metrics."""

    executions: int = 0
    queue_size: int = 0
    new_edge_inputs: int = 0
    total_edges: int = 0


class AFLFuzzer:
    """Coverage-guided mutation fuzzing over a subject program."""

    def __init__(
        self,
        subject,
        rng: Optional[random.Random] = None,
        max_input_length: int = 4096,
        havoc_per_entry: int = 64,
        det_flip_limit: int = 128,
    ):
        self.subject = subject
        self.rng = resolve_rng(rng)
        self.max_input_length = max_input_length
        self.havoc_per_entry = havoc_per_entry
        self.det_flip_limit = det_flip_limit
        self.tracer = EdgeTracer(subject.modules)
        self.queue: List[str] = []
        self.seen_edges: Set[Edge] = set()
        self.stats = AFLStats()

    # ------------------------------------------------------------------
    # Execution and feedback
    # ------------------------------------------------------------------

    def _execute(self, text: str) -> bool:
        """Run the subject traced; enqueue on new coverage; return verdict."""
        self.tracer.reset()
        verdict = self.tracer.run(self.subject.accepts, text)
        self.stats.executions += 1
        new_edges = self.tracer.edges - self.seen_edges
        if new_edges:
            self.seen_edges |= new_edges
            self.queue.append(text)
            self.stats.new_edge_inputs += 1
        self.stats.queue_size = len(self.queue)
        self.stats.total_edges = len(self.seen_edges)
        return bool(verdict)

    def run(self, budget: int) -> List[str]:
        """Fuzz until ``budget`` executions; return every input executed.

        The returned list is the sample set E of §8.3 (the evaluation
        then restricts it to valid inputs and measures coverage).
        """
        executed: List[str] = []

        def execute(text: str) -> None:
            if len(text) > self.max_input_length:
                text = text[: self.max_input_length]
            self._execute(text)
            executed.append(text)

        for seed in self.subject.seeds:
            if self.stats.executions >= budget:
                return executed
            execute(seed)
        cursor = 0
        while self.stats.executions < budget:
            if not self.queue:
                # Degenerate case: no seeds; fuzz the empty string.
                self.queue.append("")
            entry = self.queue[cursor % len(self.queue)]
            cursor += 1
            for mutant in self._deterministic_stage(entry):
                if self.stats.executions >= budget:
                    return executed
                execute(mutant)
            for _ in range(self.havoc_per_entry):
                if self.stats.executions >= budget:
                    return executed
                execute(self._havoc(entry))
        return executed

    # ------------------------------------------------------------------
    # Mutation stages
    # ------------------------------------------------------------------

    def _deterministic_stage(self, entry: str):
        """Single-bit flips of each character code (afl's bitflip 1/1).

        Bounded to ``det_flip_limit`` flips so long entries don't starve
        the havoc stage (afl has a similar effector-map optimization).
        """
        flips = 0
        for index in range(len(entry)):
            for bit in range(7):
                if flips >= self.det_flip_limit:
                    return
                code = ord(entry[index]) ^ (1 << bit)
                if 1 <= code <= 0x10FFFF:
                    yield entry[:index] + chr(code) + entry[index + 1 :]
                    flips += 1

    def _havoc(self, entry: str) -> str:
        text = entry
        stacking = 1 << self.rng.randint(1, 5)  # 2..32 stacked mutations
        for _ in range(stacking):
            text = self._havoc_one(text)
        return text

    def _havoc_one(self, text: str) -> str:
        choice = self.rng.randrange(7)
        if choice == 0 and text:  # flip a random bit
            index = self.rng.randrange(len(text))
            code = ord(text[index]) ^ (1 << self.rng.randrange(7))
            if code < 1:
                code = 1
            return text[:index] + chr(code) + text[index + 1 :]
        if choice == 1 and text:  # overwrite with a random alphabet char
            index = self.rng.randrange(len(text))
            char = self.rng.choice(self.subject.alphabet)
            return text[:index] + char + text[index + 1 :]
        if choice == 2 and text:  # delete a block
            start = self.rng.randrange(len(text))
            length = min(len(text) - start, 1 + self.rng.randrange(8))
            return text[:start] + text[start + length :]
        if choice == 3:  # insert a random char
            index = self.rng.randint(0, len(text))
            char = self.rng.choice(self.subject.alphabet)
            return text[:index] + char + text[index:]
        if choice == 4 and text:  # clone a block
            start = self.rng.randrange(len(text))
            length = min(len(text) - start, 1 + self.rng.randrange(8))
            block = text[start : start + length]
            index = self.rng.randint(0, len(text))
            return text[:index] + block + text[index:]
        if choice == 5:  # insert an interesting value
            index = self.rng.randint(0, len(text))
            value = self.rng.choice(_INTERESTING)
            return text[:index] + value + text[index:]
        # choice == 6: splice with another queue entry
        if len(self.queue) >= 2 and text:
            other = self.rng.choice(self.queue)
            cut_a = self.rng.randint(0, len(text))
            cut_b = self.rng.randint(0, len(other))
            return text[:cut_a] + other[cut_b:]
        return text
