"""Figure 7: fuzzing comparison (§8.3).

- **Fig 7(a)**: valid normalized incremental coverage of the naive
  fuzzer (the 1.0 baseline), afl, and GLADE on the eight programs.
- **Fig 7(b)**: the same metric against a proxy upper bound — a
  handwritten grammar for grep and xml, a large test-suite corpus for
  python, ruby and javascript.
- **Fig 7(c)**: coverage versus number of samples on the Python subject.

The paper draws 50 000 samples per fuzzer; the default here is scaled
down (``n_samples``), with the full scale available via CLI flags.
Coverage restricted to valid inputs, incremental over the seeds, and
normalized by the naive fuzzer, exactly per the §8.3 definitions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.evaluation.corpora import CORPORA
from repro.evaluation.harness import (
    SubjectArtifactCache,
    stable_seed,
    subject_artifact,
)
from repro.evaluation.reporting import format_series, format_table
from repro.fuzzing import AFLFuzzer, GrammarFuzzer, NaiveFuzzer
from repro.languages.sampler import GrammarSampler
from repro.programs import (
    SUBJECT_NAMES,
    Subject,
    coverable_lines,
    get_subject,
    measure_coverage,
)
from repro.programs.coverage import CoverageReport, Line
from repro.targets import get_target

FUZZERS = ["naive", "afl", "glade"]

#: Subjects with a Figure 7(b) upper-bound proxy, and which kind.
UPPER_BOUND_PROXIES = {
    "grep": "handwritten-grammar",
    "xml": "handwritten-grammar",
    "python": "test-suite",
    "ruby": "test-suite",
    "javascript": "test-suite",
}


@dataclass
class Fig7Row:
    program: str
    fuzzer: str
    valid_fraction: float
    incremental_coverage: float
    normalized: float


class SubjectHarness:
    """Shared state for fuzzing one subject: grammar, seeds, coverage.

    The GLADE fuzzer's artifact comes from the per-subject artifact
    cache, so several harnesses — and the other figures — in one
    process share a single learning run per subject.
    """

    def __init__(
        self,
        name: str,
        seed: int = 0,
        cache: Optional[SubjectArtifactCache] = None,
    ):
        self.name = name
        self.subject: Subject = get_subject(name)
        self.seed = seed
        self.cache = cache
        self.coverable: Set[Line] = set()
        for module in self.subject.modules:
            self.coverable |= coverable_lines(module)
        self.seed_lines = measure_coverage(
            self.subject, self.subject.seeds
        ).lines

    def generate(self, fuzzer: str, n_samples: int) -> List[str]:
        # stable_seed, not hash(): str hashes are salted per process,
        # which would make the sample streams irreproducible.
        rng = random.Random(stable_seed("fig7", fuzzer, self.seed))
        if fuzzer == "naive":
            return NaiveFuzzer(
                self.subject.seeds, self.subject.alphabet, rng
            ).generate(n_samples)
        if fuzzer == "afl":
            return AFLFuzzer(self.subject, rng).run(n_samples)
        if fuzzer == "glade":
            artifact = subject_artifact(self.subject, cache=self.cache)
            return GrammarFuzzer.from_artifact(artifact, rng).generate(
                n_samples
            )
        if fuzzer == "handwritten-grammar":
            target = get_target(self.name)
            sampler = GrammarSampler(target.grammar, rng=rng, max_depth=20)
            return [sampler.sample() for _ in range(n_samples)]
        if fuzzer == "test-suite":
            corpus = CORPORA[self.name]
            # A test suite is a fixed corpus; sample with replacement up
            # to n_samples to keep the execution budget comparable.
            return [rng.choice(corpus) for _ in range(n_samples)]
        raise ValueError("unknown fuzzer {!r}".format(fuzzer))

    def report(self, samples: Sequence[str]) -> Tuple[CoverageReport, float]:
        covered, accepted = measure_coverage(self.subject, samples)
        report = CoverageReport(
            self.coverable, self.seed_lines, covered | self.seed_lines
        )
        return report, accepted / max(1, len(samples))


def run_fig7a(
    subjects: Sequence[str] = tuple(SUBJECT_NAMES),
    n_samples: int = 1000,
    seed: int = 0,
    cache: Optional[SubjectArtifactCache] = None,
) -> List[Fig7Row]:
    rows: List[Fig7Row] = []
    for name in subjects:
        harness = SubjectHarness(name, seed=seed, cache=cache)
        baseline_report: Optional[CoverageReport] = None
        for fuzzer in FUZZERS:
            samples = harness.generate(fuzzer, n_samples)
            report, valid = harness.report(samples)
            if fuzzer == "naive":
                baseline_report = report
            rows.append(
                Fig7Row(
                    program=name,
                    fuzzer=fuzzer,
                    valid_fraction=valid,
                    incremental_coverage=report.valid_incremental_coverage(),
                    normalized=report.normalized_against(baseline_report),
                )
            )
    return rows


def run_fig7b(
    subjects: Sequence[str] = tuple(UPPER_BOUND_PROXIES),
    n_samples: int = 1000,
    seed: int = 0,
    cache: Optional[SubjectArtifactCache] = None,
) -> List[Fig7Row]:
    rows: List[Fig7Row] = []
    for name in subjects:
        harness = SubjectHarness(name, seed=seed, cache=cache)
        baseline_report: Optional[CoverageReport] = None
        for fuzzer in ["naive", "glade", UPPER_BOUND_PROXIES[name]]:
            samples = harness.generate(fuzzer, n_samples)
            report, valid = harness.report(samples)
            if fuzzer == "naive":
                baseline_report = report
            rows.append(
                Fig7Row(
                    program=name,
                    fuzzer=fuzzer,
                    valid_fraction=valid,
                    incremental_coverage=report.valid_incremental_coverage(),
                    normalized=report.normalized_against(baseline_report),
                )
            )
    return rows


def run_fig7c(
    subject_name: str = "python",
    checkpoints: Sequence[int] = (100, 250, 500, 1000, 2000),
    seed: int = 0,
    cache: Optional[SubjectArtifactCache] = None,
) -> Dict[str, List[float]]:
    """Coverage growth with sample count (normalized by naive's final)."""
    harness = SubjectHarness(subject_name, seed=seed, cache=cache)
    total = max(checkpoints)
    streams = {
        fuzzer: harness.generate(fuzzer, total) for fuzzer in FUZZERS
    }
    naive_final, _ = harness.report(streams["naive"])
    denominator = naive_final.valid_incremental_coverage() or 1.0
    series: Dict[str, List[float]] = {fuzzer: [] for fuzzer in FUZZERS}
    for count in checkpoints:
        for fuzzer in FUZZERS:
            report, _valid = harness.report(streams[fuzzer][:count])
            series[fuzzer].append(
                report.valid_incremental_coverage() / denominator
            )
    series["checkpoints"] = list(checkpoints)
    return series


def format_fig7(rows: Sequence[Fig7Row], title: str) -> str:
    headers = ["program", "fuzzer", "valid%", "incr. coverage", "normalized"]
    table_rows = [
        [
            r.program,
            r.fuzzer,
            100.0 * r.valid_fraction,
            r.incremental_coverage,
            r.normalized,
        ]
        for r in rows
    ]
    return title + "\n" + format_table(headers, table_rows)


def format_fig7c(series: Dict[str, List[float]]) -> str:
    return format_series(
        "Figure 7(c): valid normalized incremental coverage vs #samples "
        "(python)",
        series["checkpoints"],
        [(fuzzer, series[fuzzer]) for fuzzer in FUZZERS],
    )


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=600)
    parser.add_argument(
        "--paper-scale", action="store_true",
        help="use the paper's 50000 samples per fuzzer",
    )
    parser.add_argument("--skip-7b", action="store_true")
    parser.add_argument("--skip-7c", action="store_true")
    args = parser.parse_args()
    if args.paper_scale:
        args.samples = 50000
    print(format_fig7(
        run_fig7a(n_samples=args.samples),
        "Figure 7(a): valid normalized incremental coverage",
    ))
    if not args.skip_7b:
        print()
        print(format_fig7(
            run_fig7b(n_samples=args.samples),
            "Figure 7(b): comparison to proxy upper bounds",
        ))
    if not args.skip_7c:
        print()
        print(format_fig7c(run_fig7c()))


if __name__ == "__main__":
    main()
