"""Tests for the afl-like coverage-guided fuzzer."""

import importlib.util
import random

import pytest

from repro.fuzzing.afl import AFLFuzzer, EdgeTracer
from repro.programs import SUBJECT_NAMES, get_subject
from repro.programs.coverage import CoverageTracer


def test_budget_respected():
    subject = get_subject("sed")
    fuzzer = AFLFuzzer(subject, random.Random(0))
    executed = fuzzer.run(120)
    assert len(executed) == 120
    assert fuzzer.stats.executions == 120


def test_seeds_executed_first():
    subject = get_subject("grep")
    fuzzer = AFLFuzzer(subject, random.Random(1))
    executed = fuzzer.run(60)
    assert executed[: len(subject.seeds)] == subject.seeds


def test_queue_grows_beyond_seeds():
    subject = get_subject("xml")
    fuzzer = AFLFuzzer(subject, random.Random(2))
    fuzzer.run(250)
    # Coverage feedback must have promoted at least the seeds plus some
    # mutants into the queue.
    assert fuzzer.stats.queue_size > len(subject.seeds)
    assert fuzzer.stats.total_edges > 0


def test_deterministic_stage_flips_bits():
    subject = get_subject("sed")
    fuzzer = AFLFuzzer(subject, random.Random(3))
    mutants = list(fuzzer._deterministic_stage("ab"))
    assert len(mutants) == 14  # 2 chars x 7 bits
    assert all(len(m) == 2 for m in mutants)
    # Flipping bit 1 of 'a' (0x61) gives 'c' (0x63); bit 0 gives '`'.
    assert "cb" in mutants
    assert "`b" in mutants


def test_havoc_respects_max_length():
    subject = get_subject("sed")
    fuzzer = AFLFuzzer(
        subject, random.Random(4), max_input_length=64
    )
    executed = fuzzer.run(150)
    assert all(len(text) <= 64 for text in executed)


def test_deterministic_given_seeded_rng():
    subject = get_subject("grep")
    first = AFLFuzzer(subject, random.Random(7)).run(100)
    second = AFLFuzzer(subject, random.Random(7)).run(100)
    assert first == second


# -- edge feedback ----------------------------------------------------------


class FrameKeyedEdgeTracer(CoverageTracer):
    """The reference edge tracer: the previous line is keyed by the frame
    object itself, which the map holds alive for the run, so no two
    activations can share a key."""

    def __init__(self, modules):
        super().__init__(modules)
        self.edges = set()
        self._previous = {}

    def _trace_function(self):
        def local_trace(frame, event, arg):
            if event == "line":
                filename = frame.f_code.co_filename
                lineno = frame.f_lineno
                self.lines.add((filename, lineno))
                previous = self._previous.get(frame)
                if previous is not None:
                    self.edges.add((filename, previous, lineno))
                self._previous[frame] = lineno
            return local_trace

        def global_trace(frame, event, arg):
            if frame.f_code.co_filename in self.files:
                return local_trace
            return None

        return global_trace

    def run(self, fn, *args, **kwargs):
        try:
            return super().run(fn, *args, **kwargs)
        finally:
            self._previous.clear()


def seed_coverage(tracer, subject):
    """Lines, edges and verdicts of every seed, one traced run each."""
    lines, edges, verdicts = set(), set(), []
    for seed in subject.seeds:
        tracer.reset()
        verdicts.append(tracer.run(subject.accepts, seed))
        lines |= tracer.lines
        edges |= tracer.edges
    return lines, edges, verdicts


def test_edges_recorded():
    subject = get_subject("grep")
    tracer = EdgeTracer(subject.modules)
    tracer.run(subject.accepts, "a*b")
    assert tracer.edges


@pytest.mark.parametrize("name", SUBJECT_NAMES)
def test_edges_match_frame_keyed_reference_on_seeds(name):
    subject = get_subject(name)
    got = seed_coverage(EdgeTracer(subject.modules), subject)
    want = seed_coverage(FrameKeyedEdgeTracer(subject.modules), subject)
    assert got == want


TRACED_SOURCE = '''\
def step():
    first = 1
    return first


def twice():
    step()
    step()


def counter():
    x = 1
    yield x
    y = 2
    yield y
'''


@pytest.fixture
def traced_module(tmp_path):
    path = tmp_path / "traced_mod.py"
    path.write_text(TRACED_SOURCE)
    spec = importlib.util.spec_from_file_location("traced_mod", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_edge_joins_two_activations(traced_module):
    tracer = EdgeTracer([traced_module])
    tracer.run(traced_module.twice)
    name = traced_module.__file__
    # step's last line never flows into its own first line: each call
    # is a fresh activation, whatever address its frame reuses.
    assert (name, 3, 2) not in tracer.edges
    assert (name, 2, 3) in tracer.edges
    assert (name, 7, 8) in tracer.edges


def test_generator_edges_continue_across_yields(traced_module):
    tracer = EdgeTracer([traced_module])
    tracer.run(lambda: list(traced_module.counter()))
    name = traced_module.__file__
    assert {(name, 12, 13), (name, 13, 14), (name, 14, 15)} <= tracer.edges
