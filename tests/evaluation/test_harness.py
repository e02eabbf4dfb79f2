"""The unified evaluation harness: learn-once caching, suite
determinism across job counts, and the regression comparator."""

import copy

import pytest

from repro.artifacts.suite import (
    SubjectMetrics,
    SubjectPerf,
    SuiteParams,
    SuiteResult,
    canonical_metrics_bytes,
)
from repro.evaluation import harness
from repro.evaluation.fig6 import run_fig6
from repro.evaluation.fig8 import run_fig8
from repro.programs import get_subject

#: The two cheapest subjects; everything here stays tier-1 fast.
TINY = ["sed", "grep"]


class TestSubjectArtifactCache:
    def test_learns_once_per_subject(self):
        cache = harness.SubjectArtifactCache()
        subject = get_subject("sed")
        first = cache.get(subject)
        second = cache.get(subject)
        assert second is first
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.queries_spent == first.oracle_queries

    def test_disk_cache_survives_new_instance(self, tmp_path, monkeypatch):
        subject = get_subject("sed")
        writer = harness.SubjectArtifactCache(cache_dir=tmp_path)
        learned = writer.get(subject)

        # A fresh cache over the same directory must reuse the artifact
        # without any learning at all.
        def no_learning(*_args, **_kwargs):
            raise AssertionError("cache miss should not re-learn")

        monkeypatch.setattr(harness, "learn_subject", no_learning)
        reader = harness.SubjectArtifactCache(cache_dir=tmp_path)
        reloaded = reader.get(subject)
        assert reader.misses == 0
        assert reader.queries_spent == 0
        assert reloaded.oracle_queries == learned.oracle_queries
        assert str(reloaded.require_grammar()) == str(
            learned.require_grammar()
        )

    def test_ignores_stale_disk_entry(self, tmp_path):
        """A disk artifact whose seeds no longer match is a miss."""
        subject = get_subject("sed")
        cache = harness.SubjectArtifactCache(cache_dir=tmp_path)
        cache.get(subject)
        # Corrupt every cached file's seed list.
        for path in tmp_path.glob("sed-*.json"):
            text = path.read_text().replace("s/cat/dog/g", "s/cat/dogs/g")
            path.write_text(text)
        fresh = harness.SubjectArtifactCache(cache_dir=tmp_path)
        assert fresh.lookup(subject) is None

    def test_distinct_configs_are_distinct_entries(self):
        from dataclasses import replace

        cache = harness.SubjectArtifactCache()
        subject = get_subject("sed")
        base = harness.default_subject_config(subject)
        cache.get(subject, base)
        cache.get(subject, replace(base, enable_phase2=False))
        assert cache.misses == 2

    def test_execution_knobs_share_one_entry(self):
        """jobs/backend don't change what is learned — same cache key."""
        from dataclasses import replace

        cache = harness.SubjectArtifactCache()
        subject = get_subject("sed")
        base = harness.default_subject_config(subject)
        first = cache.get(subject, base)
        again = cache.get(subject, replace(base, jobs=4, backend="thread"))
        assert again is first
        assert cache.misses == 1


class TestLearnOnceAcrossFigures:
    def test_fig6_then_fig8_learn_xml_exactly_once(self, monkeypatch):
        """The satellite regression: a combined figure run must not
        silently re-learn the XML grammar — zero extra oracle queries
        beyond the single learning run."""
        learns = []
        real_learn = harness.learn_subject

        def counting_learn(subject, config=None):
            learns.append(subject.name)
            return real_learn(subject, config)

        monkeypatch.setattr(harness, "learn_subject", counting_learn)
        cache = harness.SubjectArtifactCache()
        rows = run_fig6(subjects=["xml"], cache=cache)
        result = run_fig8(n_candidates=40, cache=cache)
        assert learns == ["xml"]
        assert cache.misses == 1
        # Query accounting: the cache spent exactly one learning run's
        # oracle queries, no matter how many figures consumed it.
        assert cache.queries_spent == rows[0].oracle_queries
        assert result.n_tried > 0

    def test_suite_reuses_figure_cache(self):
        cache = harness.SubjectArtifactCache()
        run_fig6(subjects=["sed"], cache=cache)
        assert cache.misses == 1
        suite = harness.run_suite(subjects=["sed"], cache=cache)
        assert cache.misses == 1  # no second learning run
        assert "sed" in suite.metrics


class TestSuiteDeterminism:
    def test_metrics_byte_identical_across_jobs(self):
        """The acceptance gate at tier-1 scale: two tiny subjects at
        jobs {1,2} produce byte-identical deterministic metrics."""
        serial = harness.run_suite(
            subjects=TINY, jobs=1, cache=harness.SubjectArtifactCache()
        )
        parallel = harness.run_suite(
            subjects=TINY, jobs=2, cache=harness.SubjectArtifactCache()
        )
        assert canonical_metrics_bytes(serial) == canonical_metrics_bytes(
            parallel
        )

    def test_one_subject_spends_the_jobs_inside_its_pipeline(self):
        """One uncached subject learns on a one-worker executor, and
        its pipeline gets the jobs instead; metrics do not change."""
        cache = harness.SubjectArtifactCache()
        pooled = harness.run_suite(subjects=["sed"], jobs=2, cache=cache)
        assert pooled.execution["backend"] == "serial"
        assert pooled.execution["jobs"] == 2
        artifact = harness.subject_artifact("sed", cache=cache)
        assert artifact.execution["jobs"] == 2
        serial = harness.run_suite(
            subjects=["sed"], jobs=1, cache=harness.SubjectArtifactCache()
        )
        assert canonical_metrics_bytes(serial) == canonical_metrics_bytes(
            pooled
        )

    def test_suite_covers_every_figure_metric(self):
        suite = harness.run_suite(
            subjects=["sed"], cache=harness.SubjectArtifactCache()
        )
        m = suite.metrics["sed"]
        assert len(m.grammar_digest) == 64  # fig 6: the learned grammar
        assert m.oracle_queries > m.unique_queries > 0  # fig 6 cost
        assert 0.0 <= m.precision <= 1.0  # fig 4
        assert 0.5 < m.recall <= 1.0  # fig 4, exact corpus recall
        assert 0.0 < m.fuzz_valid_fraction <= 1.0  # fig 7
        assert m.sample_length > 0  # fig 8
        p = suite.perf["sed"]
        assert p.synthesis_seconds > 0.0
        assert suite.environment["python"]
        rendered = harness.format_suite(suite)
        assert "sed" in rendered

    def test_retained_seed_outside_the_grammar_fails_derivation(self):
        """GLADE guarantees E_in ⊆ L(Ĉ), so metric derivation refuses an
        artifact whose grammar misses a retained seed instead of
        fuzzing from the seeds that do parse."""
        from repro.artifacts import ArtifactError, SeedRecord
        from repro.artifacts.run import SEED_SKIPPED
        from repro.languages.earley import recognize

        artifact = copy.deepcopy(harness.subject_artifact("sed"))
        params = SuiteParams(
            eval_samples=4, fuzz_samples=4, sample_candidates=4
        )
        harness.derive_subject_metrics("sed", artifact, params)
        stray = "\x00"
        assert not recognize(artifact.grammar, stray)
        artifact.seeds.append(SeedRecord(text=stray, state=SEED_SKIPPED))
        with pytest.raises(ArtifactError, match="1 retained seed"):
            harness.derive_subject_metrics("sed", artifact, params)

    def test_derivation_parses_each_retained_seed_once(self, monkeypatch):
        """Figure 7's fuzzer and Figure 8's search share one parse per
        retained seed. The search still draws from its own RNG, so it
        finds search_valid_sample's sample."""
        import repro.fuzzing.grammar_fuzzer as fuzzer_mod

        artifact = harness.subject_artifact("sed")
        params = SuiteParams(
            eval_samples=4, fuzz_samples=4, sample_candidates=20
        )
        parsed = []
        parse = fuzzer_mod.parse

        def counting(grammar, text):
            parsed.append(text)
            return parse(grammar, text)

        monkeypatch.setattr(fuzzer_mod, "parse", counting)
        metrics, _perf = harness.derive_subject_metrics(
            "sed", artifact, params
        )
        monkeypatch.undo()
        retained = artifact.seeds_used() + artifact.seeds_skipped()
        assert sorted(parsed) == sorted(retained)
        sample, valid, _tried = harness.search_valid_sample(
            artifact,
            get_subject("sed").accepts,
            n_candidates=params.sample_candidates,
            seed=harness.stable_seed("sample", "sed", params.rng_seed),
            min_length=params.sample_min_length,
        )
        assert (len(sample), valid) == (
            metrics.sample_length, metrics.sample_valid
        )

    @pytest.mark.slow
    def test_all_subjects_learn_once_and_match_across_jobs(self):
        """Acceptance criterion at full scale: all eight subjects,
        learning invoked exactly once per subject, metrics
        byte-identical across job counts."""
        caches = {
            jobs: harness.SubjectArtifactCache() for jobs in (1, 4)
        }
        suites = {
            jobs: harness.run_suite(subjects="all", jobs=jobs, cache=cache)
            for jobs, cache in caches.items()
        }
        for jobs, cache in caches.items():
            assert cache.misses == 8, jobs
        blobs = {
            jobs: canonical_metrics_bytes(suite)
            for jobs, suite in suites.items()
        }
        assert blobs[1] == blobs[4]
        assert len(suites[1].metrics) == 8


def tiny_suite() -> SuiteResult:
    return SuiteResult(
        subjects=["sed"],
        params=SuiteParams(eval_samples=10),
        metrics={
            "sed": SubjectMetrics(
                grammar_digest="aa",
                grammar_productions=3,
                oracle_queries=100,
                unique_queries=90,
                seeds_used=4,
                seeds_skipped=1,
                precision=0.8,
                recall=0.9,
                fuzz_valid_fraction=0.7,
                fuzz_new_lines=10,
                sample_valid=True,
                sample_length=50,
            )
        },
        perf={"sed": SubjectPerf(synthesis_seconds=10.0)},
    )


class TestComparator:
    def classify(self, mutate, band=0.30):
        baseline = tiny_suite()
        current = copy.deepcopy(baseline)
        mutate(current)
        comparison = harness.compare(
            current, baseline, wallclock_band=band
        )
        return comparison

    def one_delta(self, comparison, metric):
        deltas = [d for d in comparison.deltas if d.metric == metric]
        assert len(deltas) == 1
        return deltas[0]

    def test_identical_suites_are_stable(self):
        comparison = self.classify(lambda s: None)
        assert comparison.ok()
        assert not comparison.warnings()
        assert all(d.classification == "stable" for d in comparison.deltas)

    def test_digest_drift_is_blocking_either_way(self):
        comparison = self.classify(
            lambda s: setattr(s.metrics["sed"], "grammar_digest", "bb")
        )
        delta = self.one_delta(comparison, "grammar_digest")
        assert delta.classification == "regressed"
        assert delta.blocking
        assert not comparison.ok()

    def test_fewer_queries_is_nonblocking_improvement(self):
        comparison = self.classify(
            lambda s: setattr(s.metrics["sed"], "oracle_queries", 80)
        )
        delta = self.one_delta(comparison, "oracle_queries")
        assert delta.classification == "improved"
        assert not delta.blocking
        assert comparison.ok()
        assert comparison.warnings()

    def test_more_queries_regresses(self):
        comparison = self.classify(
            lambda s: setattr(s.metrics["sed"], "oracle_queries", 120)
        )
        delta = self.one_delta(comparison, "oracle_queries")
        assert delta.classification == "regressed"
        assert delta.blocking

    def test_recall_drop_regresses_exactly(self):
        """Deterministic quality metrics gate on exact equality — even
        a tiny drop blocks."""
        comparison = self.classify(
            lambda s: setattr(s.metrics["sed"], "recall", 0.8999)
        )
        delta = self.one_delta(comparison, "recall")
        assert delta.classification == "regressed"
        assert delta.blocking

    def test_precision_gain_improves(self):
        comparison = self.classify(
            lambda s: setattr(s.metrics["sed"], "precision", 0.9)
        )
        delta = self.one_delta(comparison, "precision")
        assert delta.classification == "improved"
        assert not delta.blocking

    def test_wallclock_within_band_is_stable(self):
        comparison = self.classify(
            lambda s: setattr(s.perf["sed"], "synthesis_seconds", 12.0)
        )
        delta = self.one_delta(comparison, "synthesis_seconds")
        assert delta.classification == "stable"

    def test_wallclock_beyond_band_warns_but_never_blocks(self):
        comparison = self.classify(
            lambda s: setattr(s.perf["sed"], "synthesis_seconds", 20.0)
        )
        delta = self.one_delta(comparison, "synthesis_seconds")
        assert delta.classification == "regressed"
        assert not delta.blocking
        assert comparison.ok()
        # Load-driven drift never reaches the deterministic verdict.
        lines = harness.format_comparison(comparison).splitlines()
        assert "deterministic metrics: stable" in lines
        assert "wall-clock metrics: drifted (warn only; not gated)" in lines

    def test_speculative_growth_from_zero_warns_but_never_blocks(self):
        """Every perf field is compared (warn-only) — including integer
        speculation counters whose baseline is zero."""
        comparison = self.classify(
            lambda s: setattr(s.perf["sed"], "speculative_queries", 500)
        )
        delta = self.one_delta(comparison, "speculative_queries")
        assert delta.classification == "regressed"
        assert not delta.blocking
        assert comparison.ok()

    def test_wallclock_speedup_beyond_band_improves(self):
        comparison = self.classify(
            lambda s: setattr(s.perf["sed"], "synthesis_seconds", 1.0)
        )
        delta = self.one_delta(comparison, "synthesis_seconds")
        assert delta.classification == "improved"
        assert not delta.blocking

    def test_param_mismatch_blocks(self):
        comparison = self.classify(
            lambda s: setattr(s.params, "eval_samples", 99)
        )
        assert not comparison.ok()
        assert comparison.deltas[0].metric == "params"

    def test_missing_subject_blocks(self):
        def drop(s):
            s.subjects = []
            s.metrics = {}
            s.perf = {}

        comparison = self.classify(drop)
        delta = self.one_delta(comparison, "present")
        assert delta.blocking

    def test_new_subject_does_not_block(self):
        def add(s):
            s.subjects = ["sed", "grep"]
            s.metrics["grep"] = SubjectMetrics(grammar_digest="cc")
            s.perf["grep"] = SubjectPerf()

        comparison = self.classify(add)
        assert comparison.ok()
        delta = self.one_delta(comparison, "present")
        assert delta.classification == "improved"

    def test_format_comparison_mentions_failures(self):
        comparison = self.classify(
            lambda s: setattr(s.metrics["sed"], "grammar_digest", "bb")
        )
        rendered = harness.format_comparison(comparison)
        assert "FAIL" in rendered
        assert "regression" in rendered

    def test_format_comparison_stable(self):
        rendered = harness.format_comparison(self.classify(lambda s: None))
        assert rendered.splitlines() == [
            "deterministic metrics: stable",
            "wall-clock metrics: stable",
        ]


class TestResolveSubjects:
    def test_all_and_none(self):
        assert harness.resolve_subjects("all") == harness.resolve_subjects(
            None
        )
        assert len(harness.resolve_subjects("all")) == 8

    def test_comma_list(self):
        assert harness.resolve_subjects("xml, grep") == ["xml", "grep"]

    def test_duplicates_collapse(self):
        """A duplicated name must not trigger a second learning run."""
        assert harness.resolve_subjects("sed,sed,grep") == ["sed", "grep"]

    def test_unknown_subject(self):
        with pytest.raises(ValueError, match="unknown subject"):
            harness.resolve_subjects("xml,nope")

    def test_empty(self):
        with pytest.raises(ValueError, match="no subjects"):
            harness.resolve_subjects("")


class TestStableSeed:
    def test_deterministic_and_distinct(self):
        assert harness.stable_seed("a", 1) == harness.stable_seed("a", 1)
        assert harness.stable_seed("a", 1) != harness.stable_seed("a", 2)
        assert harness.stable_seed("a") != harness.stable_seed("b")
