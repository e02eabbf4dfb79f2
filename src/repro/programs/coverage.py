"""Line coverage for pure-Python programs under test.

The paper measures gcov line coverage of C programs (§8.3). Our subjects
are pure-Python parsers, so we reproduce the same metric with
``sys.settrace``: a tracer restricted to the subject's module files
records executed source lines. Edge coverage — pairs of consecutive
lines in one frame — feeds only the afl-like fuzzer's novelty bitmap,
so its tracer lives with that fuzzer (:mod:`repro.fuzzing.afl`) and the
line tracer here pays for nothing but lines.

``coverable_lines`` plays the role of gcov's "lines that can execute":
the line numbers of executable statements found by walking the module's
AST (imports and docstrings excluded, matching what gcov would count for
code rather than data).
"""

from __future__ import annotations

import ast
import inspect
import sys
from types import FrameType, ModuleType
from typing import Callable, Dict, Iterable, NamedTuple, Set, Tuple

# A covered line is (filename, lineno).
Line = Tuple[str, int]


class CoverageTracer:
    """Record executed lines in selected files: one set of line numbers
    per file (:attr:`linenos`), which that file's own local trace
    function fills, so a line event builds no ``(file, line)`` pair."""

    def __init__(self, modules: Iterable[ModuleType]):
        self.linenos: Dict[str, Set[int]] = {
            module.__file__: set() for module in modules
        }

    @property
    def lines(self) -> Set[Line]:
        return {(f, n) for f, numbers in self.linenos.items() for n in numbers}

    def reset(self) -> None:
        for linenos in self.linenos.values():
            linenos.clear()

    def _trace_function(self) -> Callable:
        """The global trace function for one run: it hands each frame in
        a selected file that file's local trace function."""
        local = {
            name: _line_recorder(linenos.add)
            for name, linenos in self.linenos.items()
        }

        def global_trace(frame: FrameType, event: str, arg):
            return local.get(frame.f_code.co_filename)

        return global_trace

    def run(self, fn, *args, **kwargs):
        """Run ``fn`` under tracing, accumulating coverage; return its result."""
        old = sys.gettrace()
        sys.settrace(self._trace_function())
        try:
            return fn(*args, **kwargs)
        finally:
            sys.settrace(old)


def _line_recorder(record: Callable[[int], None]) -> Callable:
    def local_trace(frame: FrameType, event: str, arg):
        if event == "line":
            record(frame.f_lineno)
        return local_trace

    return local_trace


def coverable_lines(module: ModuleType) -> Set[Line]:
    """Return the executable-statement lines of a module (gcov analog).

    Module-level imports, the module docstring, and class/function
    *signatures'* docstrings are excluded; every other statement line
    counts as coverable.
    """
    source = inspect.getsource(module)
    tree = ast.parse(source)
    filename = module.__file__
    lines: Set[Line] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Expr) and isinstance(
            node.value, ast.Constant
        ):
            continue  # docstring / bare literal
        # Every node with a position contributes its start line: a
        # multi-line statement executes (and is traced) on the lines
        # where its subexpressions begin, so statement linenos alone
        # would undercount what the tracer can legitimately report.
        lineno = getattr(node, "lineno", None)
        if lineno is not None and isinstance(
            node, (ast.stmt, ast.expr)
        ):
            lines.add((filename, lineno))
    return lines


def loc_of_module(module: ModuleType) -> int:
    """Count non-blank, non-comment source lines (Figure 6's LoC analog)."""
    source = inspect.getsource(module)
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            count += 1
    return count


class CoverageReport:
    """Aggregate coverage of a set of inputs over a subject.

    Provides the three §8.3 metrics: valid coverage, valid incremental
    coverage (ignoring lines the seeds already cover), and — relative to
    a baseline report — valid normalized incremental coverage.
    """

    def __init__(
        self,
        coverable: Set[Line],
        seed_lines: Set[Line],
        covered: Set[Line],
    ):
        self.coverable = coverable
        self.seed_lines = seed_lines & coverable
        self.covered = covered & coverable

    def valid_coverage(self) -> float:
        if not self.coverable:
            return 0.0
        return len(self.covered) / len(self.coverable)

    def incremental_lines(self) -> Set[Line]:
        return self.covered - self.seed_lines

    def valid_incremental_coverage(self) -> float:
        denominator = len(self.coverable - self.seed_lines)
        if denominator == 0:
            return 0.0
        return len(self.incremental_lines()) / denominator

    def normalized_against(self, baseline: "CoverageReport") -> float:
        base = baseline.valid_incremental_coverage()
        if base == 0.0:
            return float("inf") if self.valid_incremental_coverage() else 1.0
        return self.valid_incremental_coverage() / base


class Coverage(NamedTuple):
    """What :func:`measure_coverage` saw: the counted lines, and how
    many inputs the subject accepted."""

    lines: Set[Line]
    accepted: int


def measure_coverage(
    subject,
    inputs: Iterable[str],
    valid_only: bool = True,
) -> Coverage:
    """Run ``subject.accepts`` on each input under tracing.

    With ``valid_only`` (the §8.3 restriction to E ∩ L*), an input's
    coverage only counts if the subject accepted it. Each input runs
    once, traced; its lines join the total when it counts. The traced
    run's verdict is the subject's verdict (every subject's budget
    counts steps, not time), so callers take validity from
    ``accepted`` instead of running the inputs again.
    """
    tracer, counted = (CoverageTracer(subject.modules) for _ in range(2))
    accepted = 0
    for text in inputs:
        tracer.reset()
        ok = tracer.run(subject.accepts, text)
        if ok:
            accepted += 1
        if ok or not valid_only:
            for name, linenos in tracer.linenos.items():
                counted.linenos[name] |= linenos
    return Coverage(counted.lines, accepted)
