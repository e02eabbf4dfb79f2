"""Command-line interface: ``python -m repro``.

The CLI is artifact-centric: learning produces a durable run artifact
(a versioned JSON file, see README.md) that later subcommands — and
interrupted runs — pick up from.

Synthesize a grammar for a real executable, GLADE-style::

    python -m repro learn --seed-file seeds.txt \\
        --command "python validate.py" --out run.json --samples 5

``--seed-file`` holds one seed input per line (use ``--seed-dir`` for a
directory of whole-file seeds, e.g. multi-line programs). The command is
run once per membership query with the candidate on stdin; exit status 0
means "accepted" (§2 of the paper). With ``--out``, a checkpoint is
written after every completed pipeline stage, every seed during phase
one and every merge pair during phase two (a snapshot, then one
appended journal line per save), so a killed run loses nothing::

    python -m repro resume run.json        # continue where it died
    python -m repro sample run.json -n 10  # draw fresh samples
    python -m repro show run.json          # stages, timings, grammar
"""

from __future__ import annotations

import argparse
import pathlib
import random
import shlex
import sys
import tempfile
from concurrent.futures import BrokenExecutor
from typing import List, Tuple

from repro.analysis.cli import add_lint_arguments, run_lint
from repro.artifacts import (
    ArtifactError,
    FileCheckpointStore,
    RunArtifact,
    load_artifact,
)
from repro.core.glade import DEFAULT_ALPHABET, GladeConfig
from repro.core.pipeline import LearningPipeline, SeedRejected
from repro.languages.sampler import GrammarSampler
from repro.learning.oracle import SubprocessOracle
from repro.learning.resilience import (
    TIMEOUT_VERDICTS,
    ChaosOracle,
    OracleFailedError,
    ResilientOracle,
    RetryPolicy,
    parse_fault_spec,
)


def _load_seeds(args) -> List[Tuple[str, str]]:
    """Return (text, source) pairs; source is the seed's provenance."""
    seeds: List[Tuple[str, str]] = []
    if args.seed_file:
        content = pathlib.Path(args.seed_file).read_text()
        for lineno, line in enumerate(content.splitlines(), start=1):
            if line:
                seeds.append((line, "{}:{}".format(args.seed_file, lineno)))
    if args.seed_dir:
        for path in sorted(pathlib.Path(args.seed_dir).iterdir()):
            if path.is_file():
                seeds.append((path.read_text(), str(path)))
    if args.seed:
        for index, seed in enumerate(args.seed):
            seeds.append((seed, "--seed[{}]".format(index)))
    return seeds


def _oracle_from_spec(spec: dict) -> ResilientOracle:
    """Build the CLI's oracle stack from a (persisted) oracle spec.

    Stack, innermost first: the subprocess oracle, an optional chaos
    layer (``--inject-faults``), and the resilient retry/breaker layer.
    The pipeline adds its cache and counter *outside* this stack, so
    retries and injected faults never change counted query totals and
    only real verdicts are cached.
    """
    oracle = SubprocessOracle(
        spec["command"],
        input_mode=spec.get("input_mode", "stdin"),
        timeout_seconds=spec.get("timeout_seconds", 5.0),
        error_marker=spec.get("error_marker"),
        max_workers=spec.get("max_workers", 1),
        timeout_verdict=spec.get("timeout_verdict", "reject"),
    )
    inject = spec.get("inject_faults")
    if inject:
        plan = parse_fault_spec(inject)
        if plan.kill:
            # Kill markers are per-run-process scratch state (one-shot
            # semantics for crash recovery), not part of the artifact.
            plan = parse_fault_spec(
                inject,
                marker_dir=tempfile.mkdtemp(prefix="repro-chaos-"),
            )
        oracle = ChaosOracle(
            oracle,
            plan,
            timeout_verdict=spec.get("timeout_verdict", "reject"),
        )
    retries = spec.get("retries", 2)
    return ResilientOracle(
        oracle,
        RetryPolicy(
            max_attempts=retries + 1,
            base_delay=spec.get("retry_delay", 0.05),
            breaker_threshold=spec.get("breaker", 8),
        ),
    )


def _print_artifact_result(artifact: RunArtifact) -> None:
    grammar = artifact.require_grammar()
    print("# phase-one regex: {}".format(artifact.regex()))
    print(
        "# {} oracle queries ({} unique), {:.1f}s".format(
            artifact.oracle_queries,
            artifact.unique_queries,
            artifact.duration_seconds(),
        )
    )
    print(grammar)


def _print_samples(artifact: RunArtifact, count: int, rng_seed: int) -> None:
    if count <= 0:
        return
    print()
    sampler = GrammarSampler(artifact.grammar, random.Random(rng_seed))
    for _ in range(count):
        print("# sample: {!r}".format(sampler.sample()))


def _add_sampling_options(parser, default_count: int) -> None:
    parser.add_argument(
        "--samples", type=int, default=default_count,
        help="number of samples to draw from the learned grammar",
    )
    parser.add_argument(
        "--rng-seed", type=int, default=0,
        help="PRNG seed for grammar sampling (default 0, deterministic)",
    )


def _check_jobs(parser, jobs: int, backend: str, fix: str) -> None:
    """Reject a job count below one, and several jobs on the serial
    backend (``fix`` says how to mend that)."""
    if jobs < 1:
        parser.error("--jobs must be at least 1")
    if backend == "serial" and jobs > 1:
        parser.error(
            "--backend serial is single-worker; {} or pick "
            "thread/process (or auto)".format(fix)
        )


def _cmd_learn(args, parser) -> int:
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    _check_jobs(parser, args.jobs, args.backend, "drop --jobs")
    pairs = _load_seeds(args)
    if not pairs:
        parser.error("no seeds given (use --seed/--seed-file/--seed-dir)")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.breaker < 0:
        parser.error("--breaker must be >= 0 (0 disables the breaker)")
    if args.inject_faults:
        try:
            parse_fault_spec(args.inject_faults)
        except ValueError as exc:
            parser.error(str(exc))
    seeds = [text for text, _source in pairs]
    sources = [source for _text, source in pairs]
    command = shlex.split(args.command)
    oracle_spec = {
        "command": command,
        "input_mode": "stdin",
        "timeout_seconds": args.timeout,
        "max_workers": args.workers,
        "timeout_verdict": args.timeout_verdict,
        "retries": args.retries,
        "retry_delay": args.retry_delay,
        "breaker": args.breaker,
    }
    if args.inject_faults:
        oracle_spec["inject_faults"] = args.inject_faults
    oracle = _oracle_from_spec(oracle_spec)
    config = GladeConfig(
        alphabet=args.alphabet,
        enable_phase2=not args.no_phase2,
        enable_chargen=not args.no_chargen,
        jobs=args.jobs,
        backend=args.backend,
        trace=args.trace,
    )
    store = None
    if args.out:
        store = FileCheckpointStore(args.out)
        if not args.force:
            # Never silently clobber checkpointed work — that is the
            # one thing the artifact exists to preserve. The store loads
            # what `repro resume` would: a damaged file's previous
            # generation too, and a lone previous generation.
            try:
                existing = store.load()
            except ArtifactError:
                existing = None
            if existing is not None and existing.status == "in_progress":
                parser.error(
                    "{} holds an in-progress run; `repro resume {}` "
                    "continues it, or pass --force to start over".format(
                        args.out, args.out
                    )
                )
    pipeline = LearningPipeline(
        oracle, config=config, store=store, oracle_spec=oracle_spec
    )
    artifact = pipeline.run(seeds, sources=sources)
    _print_artifact_result(artifact)
    if args.out:
        print("# artifact written to {}".format(args.out))
    _print_samples(artifact, args.samples, args.rng_seed)
    return 0


def _cmd_resume(args, parser) -> int:
    # Loading through the store (not load_artifact directly) gets the
    # corruption fallback: a truncated/bit-flipped snapshot resumes
    # from the rotated last-good generation instead of dying.
    store = FileCheckpointStore(args.artifact)
    artifact = store.load()
    if artifact is None:
        raise ArtifactError(
            "no checkpoint found at {}".format(args.artifact)
        )
    if store.recovered_from:
        print(
            "# warning: {} failed its integrity check; resumed from "
            "the last-good checkpoint {} (work after that save will "
            "be redone)".format(args.artifact, store.recovered_from)
        )
    if store.cut_records:
        print(
            "# warning: cut {} torn or corrupt journal record(s) from "
            "the end of {}; resumed from the last good record (work "
            "after it will be redone)".format(
                store.cut_records, store.recovered_from or args.artifact
            )
        )
    if artifact.status == "complete":
        print("# run already complete; nothing to resume")
        _print_artifact_result(artifact)
        _print_samples(artifact, args.samples, args.rng_seed)
        return 0
    if artifact.oracle_spec is None:
        parser.error(
            "artifact records no oracle command; it was produced by an "
            "in-process run and cannot be resumed from the CLI"
        )
    spec = dict(artifact.oracle_spec)
    if args.workers is not None:
        if args.workers < 1:
            parser.error("--workers must be at least 1")
        spec["max_workers"] = args.workers
    if args.timeout is not None:
        spec["timeout_seconds"] = args.timeout
    if args.jobs is not None:
        artifact.config.jobs = args.jobs
    if args.backend is not None:
        artifact.config.backend = args.backend
    if args.trace:
        artifact.config.trace = True
    _check_jobs(
        parser, artifact.config.jobs, artifact.config.backend,
        "use --jobs 1",
    )
    oracle = _oracle_from_spec(spec)
    pipeline = LearningPipeline(
        oracle,
        config=artifact.config,
        store=store,
        oracle_spec=artifact.oracle_spec,
    )
    artifact = pipeline.resume(artifact)
    _print_artifact_result(artifact)
    print("# artifact written to {}".format(args.artifact))
    _print_samples(artifact, args.samples, args.rng_seed)
    return 0


def _cmd_sample(args, parser) -> int:
    artifact = load_artifact(args.artifact)
    grammar = artifact.require_grammar()
    sampler = GrammarSampler(grammar, random.Random(args.rng_seed))
    for _ in range(args.count):
        print("{!r}".format(sampler.sample()))
    return 0


def _cmd_show(args, parser) -> int:
    from repro.evaluation.reporting import format_stats, summarize_artifact

    artifact = load_artifact(args.artifact)
    if args.stats:
        print(format_stats(artifact))
    else:
        print(summarize_artifact(artifact))
    return 0


def _cmd_trace(args, parser) -> int:
    from repro.obs.export import write_chrome_trace

    artifact = load_artifact(args.artifact)
    if not artifact.telemetry:
        raise ArtifactError(
            "{} records no telemetry; re-run learning with --trace to "
            "collect spans".format(args.artifact)
        )
    write_chrome_trace(artifact.telemetry, args.out)
    print(
        "# {} span(s) exported to {} (open in Perfetto or "
        "chrome://tracing)".format(
            len(artifact.telemetry.get("spans") or ()), args.out
        )
    )
    return 0


def _cmd_lint(args, parser) -> int:
    return run_lint(args)


def _cmd_eval(args, parser) -> int:
    # Heavy imports stay local: the evaluation stack (subjects, earley,
    # coverage tracing) is only paid for by `repro eval`.
    from repro.artifacts.suite import SuiteParams, load_suite, save_suite
    from repro.evaluation import harness

    _check_jobs(parser, args.jobs, args.backend, "drop --jobs")
    if args.check and args.baseline is None:
        parser.error("--check requires --baseline")
    try:
        subjects = harness.resolve_subjects(args.subjects)
    except ValueError as exc:
        parser.error(str(exc))
    params = SuiteParams(
        eval_samples=args.eval_samples,
        fuzz_samples=args.fuzz_samples,
        sample_candidates=args.sample_candidates,
        rng_seed=args.rng_seed,
    )
    cache = harness.SubjectArtifactCache(cache_dir=args.cache_dir)
    suite = harness.run_suite(
        subjects=subjects,
        jobs=args.jobs,
        backend=args.backend,
        cache=cache,
        params=params,
        trace=args.trace,
    )
    print(harness.format_suite(suite))
    if args.out:
        save_suite(suite, args.out)
        print("# suite metrics written to {}".format(args.out))
    if args.trace and args.trace_out:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(suite.telemetry or {}, args.trace_out)
        print("# suite trace written to {}".format(args.trace_out))
    if args.baseline is None:
        return 0
    baseline = load_suite(args.baseline)
    comparison = harness.compare(
        suite, baseline, wallclock_band=args.wallclock_band
    )
    print()
    print(harness.format_comparison(comparison))
    if args.check and not comparison.ok():
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    learn = sub.add_parser(
        "learn", help="synthesize a grammar for an executable"
    )
    learn.add_argument(
        "--command", required=True,
        help="oracle command; receives the candidate input on stdin",
    )
    learn.add_argument("--seed-file", help="file with one seed per line")
    learn.add_argument("--seed-dir", help="directory of whole-file seeds")
    learn.add_argument(
        "--seed", action="append", help="inline seed (repeatable)"
    )
    learn.add_argument(
        "--out",
        help="write the run artifact here; checkpointed per stage so an "
        "interrupted run can be continued with `repro resume`",
    )
    learn.add_argument(
        "--force", action="store_true",
        help="overwrite an existing in-progress artifact at --out "
        "instead of refusing",
    )
    learn.add_argument(
        "--alphabet", default=DEFAULT_ALPHABET,
        help="input alphabet for character generalization",
    )
    learn.add_argument(
        "--no-phase2", action="store_true",
        help="disable repetition merging (regular-language mode)",
    )
    learn.add_argument(
        "--no-chargen", action="store_true",
        help="disable character generalization",
    )
    _add_sampling_options(learn, default_count=5)
    learn.add_argument(
        "--timeout", type=float, default=5.0,
        help="per-query subprocess timeout in seconds",
    )
    learn.add_argument(
        "--workers", type=int, default=1,
        help="oracle subprocesses to run at once: independent checks "
        "run ahead on this many threads; counted queries are the same "
        "at any value",
    )
    learn.add_argument(
        "--timeout-verdict", default="reject",
        choices=list(TIMEOUT_VERDICTS),
        help="how a per-query timeout is interpreted: 'reject' (the "
        "paper's semantics — a hung program did not accept; default), "
        "'retry' (classify it transient and retry with backoff), or "
        "'error' (fail the run fast, checkpoint intact)",
    )
    learn.add_argument(
        "--retries", type=int, default=2,
        help="bounded retries per query for transient oracle errors "
        "(spawn failures, and timeouts under --timeout-verdict retry); "
        "deterministic attempt-indexed backoff (default 2)",
    )
    learn.add_argument(
        "--retry-delay", type=float, default=0.05,
        help="base backoff delay in seconds between retries "
        "(exponential per attempt, capped; default 0.05)",
    )
    learn.add_argument(
        "--breaker", type=int, default=8,
        help="consecutive transient failures that open the circuit "
        "breaker and fail the run fast with a resumable checkpoint "
        "(default 8; 0 disables)",
    )
    learn.add_argument(
        "--inject-faults", metavar="SPEC",
        help="deterministic fault injection for testing the fault "
        "model: semicolon-separated kind@indices groups, e.g. "
        "'transient@3,9;timeout@5;kill@120' (kill terminates a pool "
        "worker process at that oracle invocation; recovery resubmits "
        "its tasks). Injected counts land in telemetry only",
    )
    learn.add_argument(
        "--jobs", type=int, default=1,
        help="parallel workers for seed-sharded phase 1 and "
        "run-sharded phase 2; the learned grammar and counted query "
        "totals are identical at any job count (jobs > 1 trades "
        "speculative oracle work for wall-clock)",
    )
    learn.add_argument(
        "--backend", default="auto",
        choices=["auto", "serial", "thread", "process"],
        help="execution backend for --jobs (default auto: serial for "
        "one job, else process when the oracle is picklable, thread "
        "otherwise)",
    )
    learn.add_argument(
        "--trace", action="store_true",
        help="record structured spans and counters into the artifact's "
        "telemetry section (export with `repro trace`; observation "
        "only — the learned grammar and counted queries are identical "
        "with tracing on or off)",
    )
    learn.set_defaults(handler=_cmd_learn)

    resume = sub.add_parser(
        "resume", help="continue an interrupted run from its artifact"
    )
    resume.add_argument("artifact", help="run artifact written by learn --out")
    resume.add_argument(
        "--workers", type=int, default=None,
        help="override the artifact's oracle worker count",
    )
    resume.add_argument(
        "--timeout", type=float, default=None,
        help="override the artifact's per-query timeout",
    )
    resume.add_argument(
        "--jobs", type=int, default=None,
        help="override the artifact's worker count for phase 1 and "
        "phase 2 (safe: the grammar is byte-identical at any job "
        "count, and mid-phase-2 checkpoints resume from the last "
        "committed pair)",
    )
    resume.add_argument(
        "--backend", default=None,
        choices=["auto", "serial", "thread", "process"],
        help="override the artifact's execution backend",
    )
    resume.add_argument(
        "--trace", action="store_true",
        help="turn on structured tracing for the resumed legs (prior "
        "traced legs' telemetry is carried forward)",
    )
    _add_sampling_options(resume, default_count=0)
    resume.set_defaults(handler=_cmd_resume)

    sample = sub.add_parser(
        "sample", help="draw samples from a learned grammar artifact"
    )
    sample.add_argument("artifact", help="run artifact written by learn --out")
    sample.add_argument(
        "-n", "--count", type=int, default=5,
        help="number of samples to draw",
    )
    sample.add_argument(
        "--rng-seed", type=int, default=0,
        help="PRNG seed for sampling (default 0, deterministic)",
    )
    sample.set_defaults(handler=_cmd_sample)

    show = sub.add_parser(
        "show", help="summarize a run artifact (stages, timings, grammar)"
    )
    show.add_argument("artifact", help="run artifact written by learn --out")
    show.add_argument(
        "--stats", action="store_true",
        help="report the telemetry instead: stage timings with "
        "percentages, per-shard span totals, counters and histograms",
    )
    show.set_defaults(handler=_cmd_show)

    trace = sub.add_parser(
        "trace",
        help="export a traced artifact's spans as a Chrome trace",
        description=(
            "Convert the telemetry section of a --trace run artifact "
            "into Chrome trace_event JSON, viewable in Perfetto "
            "(ui.perfetto.dev) or chrome://tracing. Shards (main run, "
            "per-seed, per-pair) map to process rows; span nesting "
            "maps to the flame layout."
        ),
    )
    trace.add_argument(
        "artifact", help="run artifact written by learn --trace --out"
    )
    trace.add_argument(
        "--out", default="run.trace.json",
        help="path for the Chrome trace JSON (default run.trace.json)",
    )
    trace.set_defaults(handler=_cmd_trace)

    evaluate = sub.add_parser(
        "eval",
        help="run the unified evaluation suite over the §8.3 subjects",
        description=(
            "Learn each requested subject's grammar once (fanned out "
            "across subjects with --jobs; reused from --cache-dir when "
            "already learned) and derive every figure's metrics into "
            "one BENCH_suite.json. With --baseline, classify each "
            "metric as improved/stable/regressed; --check turns "
            "deterministic regressions into exit status 1 (wall-clock "
            "drift only warns). See EXPERIMENTS.md."
        ),
    )
    evaluate.add_argument(
        "--subjects", default="all",
        help="comma-separated subject names, or 'all' (default)",
    )
    evaluate.add_argument(
        "--jobs", type=int, default=1,
        help="parallel workers for the per-subject learning fan-out "
        "(suite metrics are byte-identical at any job count)",
    )
    evaluate.add_argument(
        "--backend", default="auto",
        choices=["auto", "serial", "thread", "process"],
        help="execution backend for --jobs",
    )
    evaluate.add_argument(
        "--cache-dir",
        help="directory of per-subject run artifacts; already-learned "
        "subjects are reused with zero oracle queries",
    )
    evaluate.add_argument(
        "--out", default="BENCH_suite.json",
        help="write the suite metrics artifact here (default "
        "BENCH_suite.json; use '' to skip writing)",
    )
    evaluate.add_argument(
        "--baseline",
        help="compare against this committed suite artifact "
        "(e.g. benchmarks/baselines/BENCH_suite_xml_grep.json)",
    )
    evaluate.add_argument(
        "--check", action="store_true",
        help="exit 1 when a deterministic metric regressed against "
        "--baseline (the CI gate)",
    )
    evaluate.add_argument(
        "--wallclock-band", type=float, default=0.30,
        help="relative tolerance for wall-clock metrics (warn-only)",
    )
    evaluate.add_argument(
        "--eval-samples", type=int, default=120,
        help="grammar samples for the precision estimate",
    )
    evaluate.add_argument(
        "--fuzz-samples", type=int, default=120,
        help="fuzzer samples for validity/coverage",
    )
    evaluate.add_argument(
        "--sample-candidates", type=int, default=60,
        help="candidates for the Figure-8 valid-sample search",
    )
    evaluate.add_argument(
        "--rng-seed", type=int, default=0,
        help="base PRNG seed for every sampling path (default 0)",
    )
    evaluate.add_argument(
        "--trace", action="store_true",
        help="record a suite-level telemetry section (per-subject "
        "learning spans merged into one timeline; observation only, "
        "the canonical metrics bytes are unchanged)",
    )
    evaluate.add_argument(
        "--trace-out",
        help="with --trace: also write the suite timeline as Chrome "
        "trace_event JSON to this path",
    )
    evaluate.set_defaults(handler=_cmd_eval)

    lint = sub.add_parser(
        "lint",
        help="run the determinism & parallel-safety static analyzer",
        description=(
            "detlint: AST-based checks for the hazard classes that "
            "have historically broken the byte-identical-at-any-jobs "
            "guarantee (salted hash() seeding, ambient RNG, wall-clock "
            "in deterministic metrics, unordered set iteration, "
            "executor tasks touching shared state, unpicklable "
            "resource holders). See EXPERIMENTS.md for the invariant "
            "each rule encodes and how to suppress or extend rules."
        ),
    )
    add_lint_arguments(lint)
    lint.set_defaults(handler=_cmd_lint)

    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except (
        ArtifactError,
        SeedRejected,
        OracleFailedError,
        BrokenExecutor,
        OSError,
    ) as exc:
        # OracleFailedError / BrokenExecutor mean the infrastructure
        # (not the input) failed terminally; with --out the run left a
        # resumable checkpoint behind.
        print("error: {}".format(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
