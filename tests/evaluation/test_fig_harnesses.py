"""Smoke tests for every figure harness, at tiny scale.

These are the integration tests that keep the benchmark entry points
honest: each harness must run end-to-end and report the paper's shape
(GLADE ≥ baselines where the paper says so).
"""

import random

import pytest

from repro.evaluation.fig4 import (
    format_fig4ab,
    format_fig4c,
    run_cell,
    run_fig4c,
)
from repro.evaluation.fig5 import format_fig5, run_fig5
from repro.evaluation.fig6 import format_fig6, run_fig6
from repro.evaluation.fig7 import (
    SubjectHarness,
    format_fig7,
    format_fig7c,
    run_fig7a,
    run_fig7c,
)
from repro.evaluation.fig8 import format_fig8, run_fig8
from repro.evaluation.harness import stable_seed, subject_artifact
from repro.fuzzing import GrammarFuzzer


class TestFig4:
    def test_glade_cell_on_url(self):
        cell = run_cell(
            "url", "glade", n_seeds=6, time_limit=60, eval_samples=60
        )
        # The paper reports F1 near 1.0; our reproduction lands lower on
        # URL because phase one degenerates to per-character stars on
        # unstructured host blobs (documented in EXPERIMENTS.md). Recall
        # stays near-perfect; precision carries the gap.
        assert cell.recall > 0.9
        assert cell.f1 > 0.45

    def test_rpni_cell_runs(self):
        cell = run_cell(
            "url", "rpni", n_seeds=4, time_limit=15, eval_samples=40
        )
        assert 0.0 <= cell.f1 <= 1.0

    def test_lstar_cell_runs(self):
        cell = run_cell(
            "url", "lstar", n_seeds=4, time_limit=15, eval_samples=40
        )
        assert 0.0 <= cell.f1 <= 1.0

    def test_fig4c_series(self):
        data = run_fig4c(
            seed_counts=(2, 4), eval_samples=40, time_limit=60
        )
        assert len(data["precision"]) == 2
        rendered = format_fig4c(data)
        assert "precision" in rendered

    def test_format(self):
        cell = run_cell(
            "url", "glade", n_seeds=3, time_limit=30, eval_samples=30
        )
        rendered = format_fig4ab([cell])
        assert "url" in rendered and "glade" in rendered


class TestFig5:
    def test_rows_and_format(self):
        rows = run_fig5()
        assert [r.name for r in rows] == ["URL", "Grep", "Lisp", "XML"]
        rendered = format_fig5(rows)
        assert "synthesized grammar" in rendered
        # The XML example must have learned a recursive (merged) grammar.
        representative = rows[-1].result.phase2_result.representative
        assert any(i != rep for i, rep in representative.items())


class TestFig6:
    def test_subset_run(self):
        rows = run_fig6(subjects=["sed", "grep"])
        assert len(rows) == 2
        assert all(r.synthesis_seconds >= 0 for r in rows)
        assert all(r.loc > 100 for r in rows)
        rendered = format_fig6(rows)
        assert "sed" in rendered


class TestFig7:
    def test_harness_generates_all_fuzzers(self):
        harness = SubjectHarness("xml", seed=1)
        for fuzzer in ["naive", "afl", "glade"]:
            samples = harness.generate(fuzzer, 40)
            assert len(samples) == 40

    def test_glade_fuzzer_starts_from_every_retained_seed(self):
        # grep keeps §6.1-skipped seeds besides its used ones; both lie
        # in the learned language, and the suite's fuzzer starts from
        # both, so Figure 7's must too.
        artifact = subject_artifact("grep")
        assert artifact.seeds_skipped()
        expected = GrammarFuzzer.from_artifact(
            artifact, random.Random(stable_seed("fig7", "glade", 0))
        ).generate(30)
        harness = SubjectHarness("grep", seed=0)
        assert harness.generate("glade", 30) == expected

    @pytest.mark.slow
    def test_fig7a_subset(self):
        rows = run_fig7a(subjects=["xml"], n_samples=120)
        by_fuzzer = {r.fuzzer: r for r in rows}
        assert by_fuzzer["naive"].normalized == pytest.approx(1.0)
        # GLADE's validity rate must dominate the naive fuzzer's (the
        # coverage ordering needs larger sample counts to stabilize).
        assert (
            by_fuzzer["glade"].valid_fraction
            > by_fuzzer["naive"].valid_fraction
        )
        rendered = format_fig7(rows, "t")
        assert "glade" in rendered

    @pytest.mark.slow
    def test_fig7c_series(self):
        series = run_fig7c(
            subject_name="xml", checkpoints=(40, 80)
        )
        assert len(series["glade"]) == 2
        assert format_fig7c(series)


class TestFig8:
    @pytest.mark.slow
    def test_sample_is_valid_xml(self):
        result = run_fig8(n_candidates=150)
        assert result.valid
        assert result.sample
        rendered = format_fig8(result)
        assert "Figure 8" in rendered
