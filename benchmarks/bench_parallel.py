"""Benchmark: seed-sharded phase-1 wall-clock at jobs ∈ {1, 2, 4}.

ISSUE 3 acceptance criterion: on the XML target, phase 1 at 4 jobs must
show at least a 1.5x wall-clock speedup over 1 job, with byte-identical
learned grammars and equal counted query totals at every job count.

The benchmarked workload mirrors the paper's deployment: GLADE's oracle
is a *program invocation* (§2), so each membership query carries
process-spawn/IO latency that parallel seeds overlap even on a single
core. The oracle here is the XML target's recognizer wrapped with a
configurable per-query latency (default 2 ms — far below a real
``subprocess`` exec); ``--latency 0`` measures pure-CPU scaling
instead, which requires as many free cores as jobs to show wins.

Run standalone (the CI benchmark smoke job does, with
``--json BENCH_parallel.json``)::

    PYTHONPATH=src python benchmarks/bench_parallel.py
"""

import time

from repro.core.glade import GladeConfig
from repro.core.pipeline import LearningPipeline
from repro.targets import get_target

#: Job counts compared; 1 is the serial baseline.
JOBS = (1, 2, 4)

#: Seeds drawn from the §8.2 XML target's sampler.
N_SEEDS = 8

#: Default modeled per-query oracle latency (seconds). Real subprocess
#: oracles cost 1–10+ ms per invocation; 2 ms is conservative.
DEFAULT_LATENCY = 0.002


class LatencyOracle:
    """The XML oracle plus a fixed per-query latency.

    A module-level class (not a closure) so the process backend can
    pickle it; ``time.sleep`` releases the GIL, so the thread backend
    overlaps queries exactly as real subprocess oracles do.
    """

    def __init__(self, latency: float):
        self.latency = latency

    def __call__(self, text: str) -> bool:
        from repro.targets.xmllang import xml_oracle

        if self.latency > 0.0:
            time.sleep(self.latency)
        return xml_oracle(text)


def run_parallel_comparison(latency: float = DEFAULT_LATENCY,
                            backend: str = "thread"):
    target = get_target("xml")
    seeds = sorted(target.sample_seeds(N_SEEDS, seed=0), key=len)
    oracle = LatencyOracle(latency)
    rows = []
    for jobs in JOBS:
        # The §6.1 covered-seed skip is disabled so every job count
        # performs the *same* phase-1 work and the comparison measures
        # execution scaling, not work avoidance: with the skip on, a
        # serial run never learns covered seeds while a parallel run
        # learns them speculatively and discards them (reported as
        # ``speculative_queries``) — a deliberate trade, but a
        # different workload per mode.
        config = GladeConfig(
            alphabet=target.alphabet,
            jobs=jobs,
            backend="serial" if jobs == 1 else backend,
            skip_covered_seeds=False,
        )
        pipeline = LearningPipeline(oracle, config=config)
        started = time.perf_counter()
        artifact = pipeline.run(seeds)
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "jobs": jobs,
                "backend": artifact.execution["backend"],
                "seconds": elapsed,
                "phase1_seconds": artifact.timings["phase1"],
                "oracle_queries": artifact.oracle_queries,
                "unique_queries": artifact.unique_queries,
                "speculative_queries": artifact.speculative_queries,
                "grammar": str(artifact.grammar),
            }
        )
    return rows


def run_trace_comparison(latency: float = DEFAULT_LATENCY):
    """Tracer-off vs tracer-on at jobs=1: drift check plus overhead.

    The observability acceptance criterion: tracing is observation
    only, so the learned grammar and the counted query totals must be
    byte-identical with the tracer on; the wall-clock delta is the
    (reported, ungated) tracing overhead.
    """
    target = get_target("xml")
    seeds = sorted(target.sample_seeds(N_SEEDS, seed=0), key=len)
    rows = []
    for trace in (False, True):
        config = GladeConfig(
            alphabet=target.alphabet,
            skip_covered_seeds=False,
            trace=trace,
        )
        pipeline = LearningPipeline(LatencyOracle(latency), config=config)
        started = time.perf_counter()
        artifact = pipeline.run(seeds)
        rows.append(
            {
                "trace": trace,
                "seconds": time.perf_counter() - started,
                "oracle_queries": artifact.oracle_queries,
                "unique_queries": artifact.unique_queries,
                "spans": len(
                    (artifact.telemetry or {}).get("spans") or ()
                ),
                "grammar": str(artifact.grammar),
            }
        )
    return rows


def trace_drift_failures(rows):
    """Human-readable tracer-on-vs-off drift descriptions (ideally [])."""
    off, on = rows
    failures = []
    if on["grammar"] != off["grammar"]:
        failures.append("grammar differs with tracing on")
    for key in ("oracle_queries", "unique_queries"):
        if on[key] != off[key]:
            failures.append("{} differ with tracing on".format(key))
    return failures


def format_trace_comparison(rows):
    off, on = rows
    return (
        "tracing overhead: {:.3f}s off -> {:.3f}s on "
        "({} spans recorded), grammars {}".format(
            off["seconds"],
            on["seconds"],
            on["spans"],
            "identical" if not trace_drift_failures(rows)
            else "DIFFERENT",
        )
    )


def format_comparison(rows):
    lines = [
        "{:<6} {:<8} {:>10} {:>10} {:>9} {:>8}".format(
            "jobs", "backend", "phase1 s", "total s", "queries", "spec"
        )
    ]
    base = rows[0]
    for row in rows:
        lines.append(
            "{:<6} {:<8} {:>10.3f} {:>10.3f} {:>9} {:>8}".format(
                row["jobs"],
                row["backend"],
                row["phase1_seconds"],
                row["seconds"],
                row["oracle_queries"],
                row["speculative_queries"],
            )
        )
    top = rows[-1]
    lines.append(
        "phase-1 speedup at {} jobs: {:.2f}x".format(
            top["jobs"], base["phase1_seconds"] / top["phase1_seconds"]
        )
    )
    return "\n".join(lines)


def test_parallel_speedup_and_determinism(once):
    rows = once(run_parallel_comparison)
    print()
    print(format_comparison(rows))
    base = rows[0]
    for row in rows[1:]:
        # The determinism guarantee: identical grammars, equal counted
        # queries, at every job count.
        assert row["grammar"] == base["grammar"]
        assert row["oracle_queries"] == base["oracle_queries"]
        assert row["unique_queries"] == base["unique_queries"]
    top = rows[-1]
    assert base["phase1_seconds"] >= 1.5 * top["phase1_seconds"], (
        "expected >= 1.5x phase-1 speedup at {} jobs".format(top["jobs"])
    )


def test_tracing_is_byte_identical(once):
    rows = once(run_trace_comparison)
    print()
    print(format_trace_comparison(rows))
    assert trace_drift_failures(rows) == []
    assert rows[1]["spans"] > 0


def main(argv=None):
    """CLI: print the comparison; ``--json PATH`` also writes the rows.

    The CI benchmark smoke job runs this with ``--json
    BENCH_parallel.json`` (next to ``bench_engine.py``) and uploads the
    result, so the scaling trajectory is recorded per commit.
    """
    import argparse
    import json
    import platform

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the benchmark rows as JSON to this path",
    )
    parser.add_argument(
        "--latency", type=float, default=DEFAULT_LATENCY,
        help="modeled per-query oracle latency in seconds "
        "(default {}; 0 measures pure-CPU scaling)".format(DEFAULT_LATENCY),
    )
    parser.add_argument(
        "--backend", default="thread",
        choices=["thread", "process"],
        help="parallel backend for jobs > 1 (default thread)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="exit non-zero unless phase-1 speedup at max jobs reaches "
        "this factor (CI passes 1.5, the acceptance floor; default 0 "
        "reports without gating)",
    )
    args = parser.parse_args(argv)
    rows = run_parallel_comparison(args.latency, args.backend)
    print(format_comparison(rows))
    trace_rows = run_trace_comparison(args.latency)
    print(format_trace_comparison(trace_rows))
    base, top = rows[0], rows[-1]
    speedup = base["phase1_seconds"] / top["phase1_seconds"]
    failures = []
    for row in rows[1:]:
        # Determinism is gated unconditionally: same grammar and equal
        # counted queries at every job count, or the bench fails.
        if row["grammar"] != base["grammar"]:
            failures.append("grammar differs at {} jobs".format(row["jobs"]))
        for key in ("oracle_queries", "unique_queries"):
            if row[key] != base[key]:
                failures.append(
                    "{} differ at {} jobs".format(key, row["jobs"])
                )
    # Tracer on vs off is gated the same way: observation only.
    failures.extend(trace_drift_failures(trace_rows))
    if args.min_speedup and speedup < args.min_speedup:
        failures.append(
            "phase-1 speedup {:.2f}x below the {:.2f}x floor".format(
                speedup, args.min_speedup
            )
        )
    if args.json:
        payload = {
            "benchmark": "bench_parallel",
            "python": platform.python_version(),
            "latency": args.latency,
            "rows": [
                {k: v for k, v in row.items() if k != "grammar"}
                for row in rows
            ],
            "deterministic": all(
                row["grammar"] == base["grammar"]
                and row["oracle_queries"] == base["oracle_queries"]
                and row["unique_queries"] == base["unique_queries"]
                for row in rows
            ),
            "phase1_speedup": speedup,
            "trace_rows": [
                {k: v for k, v in row.items() if k != "grammar"}
                for row in trace_rows
            ],
            "trace_byte_identical": not trace_drift_failures(trace_rows),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        print("wrote {}".format(args.json))
    for failure in failures:
        print("FAIL: {}".format(failure))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
