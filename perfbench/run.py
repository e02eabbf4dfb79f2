"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload learn-null --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Every run first sets the workload up several times (``setup_s`` is the
median). With ``--trace 0`` it then measures whole passes over the
workload's ops while they fit in ``--seconds`` (always at least one)
and reports the end-to-end metrics: median pass time, peak RSS and
set-up time, both times scaled to a fixed machine speed by the
``Reference`` loop timed around every op and set-up (raw times are in
the run record). With ``--trace 1`` it runs a warm-up pass, one
untraced pass, then one pass under the layer wrappers of ``layers.py``,
and reports the per-layer metrics, after checking that the wrappers
changed no output, that each layer was or was not called as the
workload predicts, and that the layers' self times add up to the
traced time.

Every op's output is checked against the committed baseline; a
mismatch or an exception is printed to stderr and counted as a failed
op. The last line of stdout is the JSON result; metric names and units
come from ``BENCHMARK.json``. A run record (environment, the workload's
reason and predictions, every figure) is written to ``perfbench/out/``
and, for traced runs, a Chrome trace of the ops beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: A run sets up at least ``MIN_SETUPS`` times, and again while all its
#: set-ups together took under ``SETUP_BUDGET_S``; ``setup_s`` is their
#: median. Cheap set-ups thus get more samples on a noisy machine.
MIN_SETUPS = 3
SETUP_BUDGET_S = 2.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Tally:
    """Ops attempted and failed; failures are reported as they happen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        self.problem("{}: {}".format(label, message))

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print("perfbench: " + message, file=sys.stderr)


class Reference:
    """Times a fixed interpreter-bound loop that the program never runs.

    On a shared machine the host's load can slow this whole process by
    1.5-2x for tens of seconds at a time, which no number of passes in
    one run averages away. The loop slows with it, so a time scaled by
    the loop's time taken just before and after it varies far less
    across those swings: :meth:`normalize` reports it at the speed where
    the loop takes ``NOMINAL_S``. The end-to-end times are normalized
    this way; raw times stay in the run record.
    """

    ITERATIONS = 100_000
    REPEATS = 3
    NOMINAL_S = 0.008

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        """The loop's median time over ``REPEATS`` rounds."""
        times = []
        for _ in range(self.REPEATS):
            started = time.perf_counter()
            x = 0
            for i in range(self.ITERATIONS):
                x = (x * 31 + i) & 0xFFFF
            times.append(time.perf_counter() - started)
        value = statistics.median(times)
        self.samples.append(value)
        return value

    def normalize(self, seconds: float, before: float, after: float) -> float:
        return seconds * self.NOMINAL_S * 2 / (before + after)


class PassResult:
    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}  # op label -> wall seconds
        #: op label -> seconds at the reference speed (see Reference).
        self.normalized: Dict[str, float] = {}
        self.outputs: Dict[str, Dict[str, Any]] = {}
        self.kinds: Dict[str, str] = {}

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def by_kind(self, kind: str) -> float:
        return sum(
            seconds for label, seconds in self.seconds.items()
            if self.kinds[label] == kind
        )


def run_pass(
    workload,
    tally: Tally,
    probe=None,
    reference: Optional[Reference] = None,
) -> PassResult:
    """Run every op of one pass, one at a time, checking each output;
    with a ``reference``, sample it around every op."""
    result = PassResult()
    with workload.pass_ops() as ops:
        before = reference.sample() if reference is not None else 0.0
        for op in ops:
            tally.attempted += 1
            result.kinds[op.label] = op.kind
            root = (
                probe.root(op.root, op.label) if probe is not None
                else contextlib.nullcontext()
            )
            error = None
            started = time.perf_counter()
            try:
                with root:
                    raw = op.run(probe)
            except Exception:
                error = traceback.format_exc()
            seconds = result.seconds[op.label] = time.perf_counter() - started
            if reference is not None:
                after = reference.sample()
                result.normalized[op.label] = reference.normalize(
                    seconds, before, after
                )
                before = after
            if error is None:
                try:
                    outputs = op.outputs(raw)
                except Exception:
                    error = traceback.format_exc()
                del raw
            if error is not None:
                tally.fail(op.label, error)
                continue
            result.outputs[op.label] = outputs
            differ = {
                key: {"expected": want, "got": outputs.get(key)}
                for key, want in op.expected.items()
                if outputs.get(key) != want
            }
            if differ:
                tally.fail(
                    op.label,
                    "output differs from the baseline: "
                    + json.dumps(differ, sort_keys=True),
                )
    return result


class GcClock:
    """Wall time spent in the cyclic garbage collector, via gc.callbacks."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started: Optional[float] = None

    def _callback(self, phase: str, _info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self._started = None

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


def measure(
    workload, seconds: float, tally: Tally, reference: Reference
) -> Dict[str, Any]:
    """Untraced whole passes while they fit in ``seconds``."""
    passes: List[PassResult] = []
    cpu: List[float] = []
    measured = 0.0
    while True:
        started, cpu_started = time.perf_counter(), time.process_time()
        passes.append(run_pass(workload, tally, reference=reference))
        cpu.append(time.process_time() - cpu_started)
        wall = time.perf_counter() - started
        measured += wall
        if measured + wall > seconds:
            break
    metrics = {
        "pass_s": statistics.median(
            sum(p.normalized.values()) for p in passes
        ),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "passes": [p.seconds for p in passes],
        "passes_normalized": [p.normalized for p in passes],
        "process.cpu_s": cpu,
    }
    return {"metrics": metrics, "detail": detail}


def per_layer(
    workload, tally: Tally, reference: Reference
) -> Dict[str, Any]:
    """A warm-up pass, one untraced pass, one traced pass, then the
    layer split and the checks."""
    from layers import LayerProbe, percentile
    from repro.obs.export import build_telemetry, write_chrome_trace

    # The first pass of a process runs up to 30% slower (first-call
    # costs of the subjects not in the set-up's warm-up), which would
    # fall on the untraced pass alone and skew the comparison.
    run_pass(workload, tally)
    before = reference.sample()
    with GcClock() as gc_clock:
        cpu_started = time.process_time()
        plain = run_pass(workload, tally)
        cpu = time.process_time() - cpu_started
    between = reference.sample()

    probe = LayerProbe()
    probe.install()
    try:
        traced = run_pass(workload, tally, probe)
    finally:
        probe.uninstall()
    after = reference.sample()
    # Tracing overhead compares the two passes at the reference speed.
    overhead = reference.normalize(
        traced.total, between, after
    ) / reference.normalize(plain.total, before, between) - 1.0

    totals = probe.layer_totals()

    def calls(layer: str) -> int:
        return totals[layer]["calls"]

    def self_s(layer: str) -> float:
        return totals[layer]["self_s"]

    # Self-checks: the wrappers are transparent, each layer is (not)
    # called as predicted, and the split adds up.
    for label, outputs in plain.outputs.items():
        if traced.outputs.get(label, outputs) != outputs:
            tally.problem(
                "{}: traced output differs from untraced: {} vs {}".format(
                    label, traced.outputs[label], outputs
                )
            )
    for layer in workload.exercises:
        if calls(layer) == 0:
            tally.problem("layer {} predicted present, not called".format(layer))
    for layer in workload.bypasses:
        if calls(layer) != 0:
            tally.problem(
                "layer {} predicted absent, called {} times".format(
                    layer, calls(layer)
                )
            )
    attributed = sum(entry["self_s"] for entry in totals.values())
    if abs(attributed - traced.total) > 0.005 * traced.total:
        tally.problem(
            "layer self times add up to {:.6f} s, traced ops took "
            "{:.6f} s".format(attributed, traced.total)
        )
    learn_outputs = [
        outputs for label, outputs in traced.outputs.items()
        if traced.kinds[label] != "eval"
    ]
    issued = sum(outputs["issued_queries"] for outputs in learn_outputs)
    distinct = sum(outputs["issued_unique"] for outputs in learn_outputs)
    if learn_outputs and calls("programs") != distinct:
        tally.problem(
            "subject calls {} differ from distinct queries {}".format(
                calls("programs"), distinct
            )
        )
    dense = sum(outputs["dense_matches"] for outputs in learn_outputs)
    matched = sum(outputs["tier_matches"] for outputs in learn_outputs)
    earley_s = self_s("earley.recognize") + self_s("earley.parse")

    metrics = {
        "programs.calls": calls("programs"),
        "programs.self_s": self_s("programs"),
        "oracle.cache_hit_ratio": (
            1.0 - calls("programs") / issued if issued else 0.0
        ),
        "engine.calls": calls("engine"),
        "engine.self_s": self_s("engine"),
        "engine.dense_share": dense / matched if matched else 0.0,
        "learner.phase1_self_s": self_s("learner.phase1"),
        "learner.phase2_self_s": self_s("learner.phase2"),
        "learner.translate_s": self_s("learner.translate"),
        "learner.replay_s": self_s("learner.replay"),
        "pipeline.checkpoints": probe.counter("pipeline.checkpoints"),
        "pipeline.digest_copy_s": self_s("pipeline.digest"),
        "pipeline.unattributed_s": self_s("pipeline"),
        "store.saves": calls("store.save"),
        "store.save_s": self_s("store.save"),
        "store.save_ms_p50": percentile(probe.save_ms, 0.5),
        "store.save_ms_p90": percentile(probe.save_ms, 0.9),
        "store.bytes_written": probe.counter("store.bytes_written"),
        "store.load_s": self_s("store.load"),
        "earley.recognize_calls": calls("earley.recognize"),
        "earley.recognize_s": self_s("earley.recognize"),
        "earley.parse_calls": calls("earley.parse"),
        "earley.parse_s": self_s("earley.parse"),
        "earley.chars_per_s": (
            probe.counter("earley.chars") / earley_s if earley_s else 0.0
        ),
        "sampler.calls": calls("sampler"),
        "sampler.self_s": self_s("sampler"),
        "fuzzer.samples": calls("fuzzer"),
        "fuzzer.self_s": self_s("fuzzer"),
        "coverage.inputs": probe.counter("coverage.inputs"),
        "coverage.self_s": self_s("coverage"),
        "eval.unattributed_s": self_s("eval"),
        "gc.s": gc_clock.seconds,
        "process.cpu_s": cpu,
        "machine.ref_ms": statistics.median(reference.samples) * 1e3,
        "trace.pass_s": traced.total,
        "trace.overhead_frac": overhead,
        "learn_s": plain.by_kind("learn"),
        "resume_s": plain.by_kind("resume"),
        "eval_s": plain.by_kind("eval"),
    }
    # Per-subject split of each end-to-end time (0 where the workload
    # has no such op), named for every op any workload runs.
    from workloads import WORKLOADS

    for other in WORKLOADS.values():
        for kind, names in other.plan.items():
            for name in names:
                metrics["{}_s.{}".format(kind, name)] = plain.seconds.get(
                    "{}:{}".format(kind, name), 0.0
                )

    telemetry = build_telemetry(probe.tracer, probe.registry)
    trace_path = os.path.join(
        OUT_DIR, "{}-seed{}-chrome.json".format(workload.name, workload.seed)
    )
    write_chrome_trace(telemetry, trace_path)
    detail = {
        "untraced_ops": plain.seconds,
        "traced_ops": traced.seconds,
        "layers": totals,
        "registry": telemetry["metrics"],
        "chrome_trace": os.path.relpath(trace_path, ROOT),
    }
    return {"metrics": metrics, "detail": detail}


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            "perfbench: no program sources at src/repro; run from the "
            "root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            "perfbench: unknown workload {!r}; choose from {}".format(
                args.workload, ", ".join(sorted(WORKLOADS))
            ),
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](
        seed=args.seed, root=ROOT, workdir=OUT_DIR
    )
    reference = Reference()
    setups: List[float] = []
    normalized_setups: List[float] = []
    before = reference.sample()
    while len(setups) < MIN_SETUPS or sum(setups) < SETUP_BUDGET_S:
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
        after = reference.sample()
        normalized_setups.append(
            reference.normalize(setups[-1], before, after)
        )
        before = after

    tally = Tally()
    if args.trace:
        result = per_layer(workload, tally, reference)
    else:
        result = measure(workload, args.seconds, tally, reference)
        result["metrics"]["setup_s"] = statistics.median(normalized_setups)

    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(
            "perfbench: measured metrics do not match BENCHMARK.json: "
            "missing {}, undeclared {}".format(
                sorted(set(units) - set(metrics)),
                sorted(set(metrics) - set(units)),
            ),
            file=sys.stderr,
        )
        return 3

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "why": why.get(workload.name, ""),
        "exercises": list(workload.exercises),
        "bypasses": list(workload.bypasses),
        "setup_s": setups,
        "setup_s_normalized": normalized_setups,
        "reference_s": reference.samples,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / max(1, tally.attempted),
        "problems": tally.problems,
        "metrics": metrics,
        "detail": result["detail"],
    }
    record_path = os.path.join(
        OUT_DIR,
        "{}-seed{}-trace{}.json".format(workload.name, args.seed, args.trace),
    )
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for name in sorted(metrics):
        print("{:<28} {:>16.6f} {}".format(name, metrics[name], units[name]))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in sorted(metrics)
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
