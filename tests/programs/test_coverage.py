"""Tests for the coverage tracer and the §8.3 coverage metrics."""

import pytest

from repro.programs import get_subject
from repro.programs.coverage import (
    CoverageReport,
    CoverageTracer,
    coverable_lines,
    loc_of_module,
    measure_coverage,
)


class TestTracer:
    def test_lines_recorded_for_subject_module(self):
        subject = get_subject("sed")
        tracer = CoverageTracer(subject.modules)
        tracer.run(subject.accepts, "p")
        filename = subject.modules[0].__file__
        assert any(f == filename for f, _ in tracer.lines)

    def test_different_inputs_cover_different_lines(self):
        subject = get_subject("sed")
        tracer = CoverageTracer(subject.modules)
        tracer.run(subject.accepts, "s/a/b/")
        substitute_lines = set(tracer.lines)
        tracer.reset()
        tracer.run(subject.accepts, "y/ab/cd/")
        transliterate_lines = set(tracer.lines)
        assert substitute_lines != transliterate_lines

    def test_non_subject_code_not_traced(self):
        subject = get_subject("xml")
        tracer = CoverageTracer(subject.modules)
        tracer.run(lambda text: len(text), "hello")
        assert not tracer.lines

    def test_return_value_passed_through(self):
        subject = get_subject("xml")
        tracer = CoverageTracer(subject.modules)
        assert tracer.run(subject.accepts, "<r/>") is True
        assert tracer.run(subject.accepts, "<r") is False


class TestCoverableLines:
    def test_subset_relationship(self):
        subject = get_subject("bison")
        coverable = coverable_lines(subject.modules[0])
        tracer = CoverageTracer(subject.modules)
        tracer.run(subject.accepts, subject.seeds[0])
        # Executed lines of the module are coverable lines (module-level
        # statements already ran at import, so compare parser runs only).
        assert tracer.lines <= coverable | set()

    def test_loc_counts_code_lines(self):
        subject = get_subject("sed")
        assert loc_of_module(subject.modules[0]) > 100


class TestCoverageReport:
    def _report(self, coverable, seeds, covered):
        to_lines = lambda xs: {("f", x) for x in xs}
        return CoverageReport(
            to_lines(coverable), to_lines(seeds), to_lines(covered)
        )

    def test_valid_coverage(self):
        report = self._report(range(10), [0, 1], [0, 1, 2, 3])
        assert report.valid_coverage() == 0.4

    def test_incremental_ignores_seed_lines(self):
        report = self._report(range(10), [0, 1], [0, 1, 2, 3])
        # 2 new lines out of 8 non-seed coverable lines.
        assert report.valid_incremental_coverage() == 0.25

    def test_normalization(self):
        baseline = self._report(range(10), [0], [0, 1])
        better = self._report(range(10), [0], [0, 1, 2, 3])
        assert better.normalized_against(baseline) == pytest.approx(3.0)

    def test_normalization_zero_baseline(self):
        baseline = self._report(range(10), [0], [0])
        some = self._report(range(10), [0], [0, 1])
        assert some.normalized_against(baseline) == float("inf")
        none = self._report(range(10), [0], [0])
        assert none.normalized_against(baseline) == 1.0


class TestMeasureCoverage:
    def test_valid_only_excludes_invalid_runs(self):
        subject = get_subject("xml")
        valid_cov = measure_coverage(subject, ["<r/>"], valid_only=True)
        mixed_cov = measure_coverage(
            subject, ["<r/>", "<<<broken"], valid_only=True
        )
        # The invalid input contributes nothing under valid-only.
        assert valid_cov.lines == mixed_cov.lines

    def test_invalid_runs_counted_when_asked(self):
        subject = get_subject("xml")
        strict = measure_coverage(subject, ["<<<broken"], valid_only=True)
        loose = measure_coverage(subject, ["<<<broken"], valid_only=False)
        assert strict.lines == set()
        assert loose.lines

    @pytest.mark.parametrize("valid_only", [True, False])
    def test_accepted_count_matches_untraced_verdicts(self, valid_only):
        subject = get_subject("sed")
        inputs = list(subject.seeds) + ["s/a", "y/ab/c/", "", "p;p"]
        coverage = measure_coverage(subject, inputs, valid_only=valid_only)
        assert coverage.accepted == sum(
            1 for text in inputs if subject.accepts(text)
        )
        assert 0 < coverage.accepted < len(inputs)
