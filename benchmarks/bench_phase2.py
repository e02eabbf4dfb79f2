"""Benchmark: run-sharded phase-2 wall-clock at jobs ∈ {1, 2, 4}.

Acceptance criteria: on the XML target, phase 2 at 4 jobs must show at
least a 2x wall-clock speedup over one job under a latency-modeled
oracle, with byte-identical merge outcomes and equal counted query
totals at every job count; at one job the base oracle must see no more
strings than the run counts as unique (one job never speculates); and
the cross-pair query planner must measurably reduce base-oracle
invocations versus naive per-pair evaluation (one pair per task, where
every task re-queries duplicate check strings itself).

Every row runs the pipeline's phase-2 loop, ``run_merge_wavefront``:
the serial executor at one job, the chosen pool backend at more.

The workload isolates phase 2: phase 1 runs once, latency-free, to
produce the repetition stars; each job count then merges the same star
set against the XML recognizer wrapped with a configurable per-query
latency (default 2 ms — far below a real ``subprocess`` exec).

Run standalone (the CI benchmark smoke job does, with
``--json BENCH_phase2.json``)::

    PYTHONPATH=src python benchmarks/bench_phase2.py
"""

import time

from repro.core.glade import GladeConfig
from repro.core.gtree import stars_of
from repro.core.phase2 import MergeCommitter, plan_merges
from repro.core.pipeline import LearningPipeline
from repro.exec.backends import make_executor
from repro.exec.merge_shard import run_merge_wavefront
from repro.learning.oracle import CachingOracle, CountingOracle
from repro.targets import get_target

#: Job counts compared; 1 is the serial baseline.
JOBS = (1, 2, 4)

#: Seeds drawn from the §8.2 XML target's sampler.
N_SEEDS = 8

#: Default modeled per-query oracle latency (seconds).
DEFAULT_LATENCY = 0.002


class LatencyOracle:
    """The XML oracle plus a fixed per-query latency.

    A module-level class (not a closure) so the process backend can
    pickle it; ``time.sleep`` releases the GIL, so the thread backend
    overlaps queries exactly as real subprocess oracles do. ``calls``
    counts this object's own invocations: exact at one job, where
    tasks run inline, but not thread-safe-exact, and pickled copies in
    worker processes count apart. The pooled rows' invocation metric is
    taken from the wavefront's own stats.
    """

    def __init__(self, latency: float):
        self.latency = latency
        self.calls = 0

    def __call__(self, text: str) -> bool:
        from repro.targets.xmllang import xml_oracle

        self.calls += 1
        if self.latency > 0.0:
            time.sleep(self.latency)
        return xml_oracle(text)


def learn_stars():
    """Phase 1 once, latency-free: the star set every row merges."""
    target = get_target("xml")
    seeds = sorted(target.sample_seeds(N_SEEDS, seed=0), key=len)
    config = GladeConfig(alphabet=target.alphabet, enable_phase2=False)
    artifact = LearningPipeline(target.oracle, config=config).run(seeds)
    trees = artifact.trees()
    stars = [star for tree in trees for star in stars_of(tree)]
    return artifact.grammar, stars


def run_phase2_comparison(latency: float = DEFAULT_LATENCY,
                          backend: str = "thread"):
    grammar, stars = learn_stars()
    rows = []
    for jobs in JOBS:
        oracle = LatencyOracle(latency)
        plan = plan_merges(stars)
        started = time.perf_counter()
        # Every row commits through the pipeline's counting/caching
        # stack, which counts the pairs.
        cached = CachingOracle(oracle)
        counting = CountingOracle(cached)
        committer = MergeCommitter(plan)
        with make_executor(backend, jobs, oracle) as executor:
            stats = run_merge_wavefront(
                executor, plan, committer, oracle, counting, cached
            )
        result = committer.finish(grammar)
        counted = counting.queries
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "jobs": jobs,
                "backend": executor.name,
                "seconds": elapsed,
                "oracle_queries": counted,
                "unique_queries": cached.unique_queries,
                "speculative_queries": stats.speculative_queries,
                "invocations": stats.invocations,
                "base_calls": oracle.calls,
                "pairs": plan.n_pairs,
                "decisions": list(committer.decisions),
                "grammar": str(result.grammar),
            }
        )
    return rows


def run_planner_ablation(latency: float = DEFAULT_LATENCY,
                         backend: str = "thread", jobs: int = 4):
    """Base-oracle invocations at ``jobs`` with and without the planner.

    ``dedup=False`` is the naive sharding baseline: one pair per task,
    each evaluating its own checks in isolation, re-querying check
    strings that other pairs already answered.
    """
    grammar, stars = learn_stars()
    out = {}
    for dedup in (True, False):
        oracle = LatencyOracle(latency)
        plan = plan_merges(stars)
        committer = MergeCommitter(plan)
        cached = CachingOracle(oracle)
        counting = CountingOracle(cached)
        with make_executor(backend, jobs, oracle) as executor:
            stats = run_merge_wavefront(
                executor, plan, committer, oracle, counting, cached,
                dedup=dedup,
            )
        out["planner" if dedup else "naive"] = {
            "invocations": stats.invocations,
            "table_hits": stats.table_hits,
            "counted_queries": counting.queries,
            "grammar": str(committer.finish(grammar).grammar),
        }
    return out


def format_comparison(rows, ablation):
    lines = [
        "{:<6} {:<8} {:>10} {:>9} {:>8} {:>12}".format(
            "jobs", "backend", "phase2 s", "queries", "spec", "invocations"
        )
    ]
    for row in rows:
        lines.append(
            "{:<6} {:<8} {:>10.3f} {:>9} {:>8} {:>12}".format(
                row["jobs"],
                row["backend"],
                row["seconds"],
                row["oracle_queries"],
                row["speculative_queries"],
                row["invocations"],
            )
        )
    base, top = rows[0], rows[-1]
    lines.append(
        "phase-2 speedup at {} jobs: {:.2f}x over serial".format(
            top["jobs"], base["seconds"] / top["seconds"]
        )
    )
    lines.append(
        "planner dedup at {} jobs: {} invocations vs {} naive "
        "({:.1%} fewer)".format(
            top["jobs"],
            ablation["planner"]["invocations"],
            ablation["naive"]["invocations"],
            1 - ablation["planner"]["invocations"]
            / max(1, ablation["naive"]["invocations"]),
        )
    )
    return "\n".join(lines)


def check_determinism(rows, ablation):
    """Gate failures: non-identical outcomes across job counts, a
    speculating one-job row, or a planner that saves nothing."""
    failures = []
    base = rows[0]
    if (
        base["base_calls"] > base["unique_queries"]
        or base["speculative_queries"]
    ):
        failures.append(
            "one job speculated: {} base-oracle calls for {} unique "
            "queries, {} speculative".format(
                base["base_calls"], base["unique_queries"],
                base["speculative_queries"],
            )
        )
    for row in rows[1:]:
        if row["grammar"] != base["grammar"]:
            failures.append("grammar differs at {} jobs".format(row["jobs"]))
        if row["oracle_queries"] != base["oracle_queries"]:
            failures.append(
                "oracle_queries differ at {} jobs".format(row["jobs"])
            )
        if row["decisions"] != base["decisions"]:
            failures.append(
                "merge decisions differ at {} jobs".format(row["jobs"])
            )
    if ablation["planner"]["grammar"] != base["grammar"]:
        failures.append("planner-run grammar differs from serial")
    if ablation["planner"]["counted_queries"] != base["oracle_queries"]:
        failures.append("planner-run counted queries differ from serial")
    if (
        ablation["planner"]["invocations"]
        >= ablation["naive"]["invocations"]
    ):
        failures.append(
            "planner did not reduce oracle invocations "
            "({} vs {} naive)".format(
                ablation["planner"]["invocations"],
                ablation["naive"]["invocations"],
            )
        )
    return failures


def test_phase2_speedup_and_determinism(once):
    rows, ablation = once(
        lambda: (run_phase2_comparison(), run_planner_ablation())
    )
    print()
    print(format_comparison(rows, ablation))
    assert check_determinism(rows, ablation) == []
    base, top = rows[0], rows[-1]
    assert base["seconds"] >= 2.0 * top["seconds"], (
        "expected >= 2x phase-2 speedup at {} jobs".format(top["jobs"])
    )


def main(argv=None):
    """CLI: print the comparison; ``--json PATH`` also writes the rows.

    The CI benchmark smoke job runs this with ``--json
    BENCH_phase2.json`` and uploads the result, so the phase-2 scaling
    trajectory is recorded per commit.
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
        help="exit non-zero unless phase-2 speedup at max jobs reaches "
        "this factor (the acceptance floor is 2.0; CI passes a lower "
        "bar to absorb shared-runner jitter; default 0 reports without "
        "gating)",
    )
    args = parser.parse_args(argv)
    rows = run_phase2_comparison(args.latency, args.backend)
    ablation = run_planner_ablation(args.latency, args.backend)
    print(format_comparison(rows, ablation))
    base, top = rows[0], rows[-1]
    speedup = base["seconds"] / top["seconds"]
    # Determinism and planner effectiveness gate unconditionally; the
    # wall-clock floor is opt-in.
    failures = check_determinism(rows, ablation)
    if args.min_speedup and speedup < args.min_speedup:
        failures.append(
            "phase-2 speedup {:.2f}x below the {:.2f}x floor".format(
                speedup, args.min_speedup
            )
        )
    if args.json:
        payload = {
            "benchmark": "bench_phase2",
            "python": platform.python_version(),
            "latency": args.latency,
            "rows": [
                {
                    k: v for k, v in row.items()
                    if k not in ("grammar", "decisions")
                }
                for row in rows
            ],
            "planner": {
                kind: {k: v for k, v in data.items() if k != "grammar"}
                for kind, data in ablation.items()
            },
            "deterministic": not check_determinism(rows, ablation),
            "phase2_speedup": speedup,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        print("wrote {}".format(args.json))
    for failure in failures:
        print("FAIL: {}".format(failure))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
