"""The §8.3 workflow: synthesize a grammar for the XML parser and fuzz.

Learns a grammar from the XML subject's seed inputs, then compares the
grammar-based fuzzer against the naive fuzzer and the afl-like fuzzer
on valid-input rate and valid incremental line coverage.

Run:  python examples/fuzz_xml_parser.py
"""

import random

from repro import GladeConfig, learn_grammar
from repro.fuzzing import AFLFuzzer, GrammarFuzzer, NaiveFuzzer
from repro.programs import get_subject, coverable_lines, measure_coverage
from repro.programs.coverage import CoverageReport

N_SAMPLES = 400


def main() -> None:
    subject = get_subject("xml")
    print("subject: {} ({} LoC)".format(subject.name, subject.loc()))
    print("seeds:")
    for seed in subject.seeds:
        print("   ", repr(seed[:60]))

    result = learn_grammar(
        subject.seeds,
        subject.accepts,
        GladeConfig(alphabet=subject.alphabet),
    )
    print(
        "\nGLADE synthesized {} productions with {} oracle "
        "queries".format(
            len(result.grammar.productions), result.oracle_queries
        )
    )

    coverable = coverable_lines(subject.modules[0])
    seed_lines = measure_coverage(subject, subject.seeds).lines

    fuzzers = {
        "naive": NaiveFuzzer(
            subject.seeds, subject.alphabet, random.Random(1)
        ).generate(N_SAMPLES),
        "afl": AFLFuzzer(subject, random.Random(2)).run(N_SAMPLES),
        "glade": GrammarFuzzer.from_artifact(
            result, random.Random(3)
        ).generate(N_SAMPLES),
    }

    print("\nfuzzer  valid%   incremental-coverage")
    baseline = None
    for name, samples in fuzzers.items():
        # One traced run per sample gives both its lines and its verdict.
        covered, accepted = measure_coverage(subject, samples)
        report = CoverageReport(
            coverable, seed_lines, covered | seed_lines
        )
        if name == "naive":
            baseline = report
        valid = accepted / len(samples)
        print(
            "{:6s}  {:5.1f}%   {:.3f}  (x{:.2f} vs naive)".format(
                name,
                100 * valid,
                report.valid_incremental_coverage(),
                report.normalized_against(baseline),
            )
        )

    print("\nexample valid fuzzed documents:")
    shown = 0
    for text in fuzzers["glade"]:
        if subject.accepts(text) and len(text) > 30:
            print("   ", repr(text[:90]))
            shown += 1
            if shown == 3:
                break


if __name__ == "__main__":
    main()
