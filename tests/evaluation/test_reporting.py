"""Tests for the table/series formatters."""


from repro.evaluation.reporting import format_series, format_table


def test_table_alignment():
    rendered = format_table(
        ["name", "value"], [["a", 1], ["longer", 2.5]]
    )
    lines = rendered.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert "2.500" in lines[3]


def test_table_column_width_from_data():
    rendered = format_table(["x"], [["wide-cell-content"]])
    header, rule, row = rendered.splitlines()
    assert len(rule) == len("wide-cell-content")


def test_series_layout():
    rendered = format_series(
        "title", [1, 2], [("p", [0.5, 0.6]), ("r", [0.7, 0.8])]
    )
    lines = rendered.splitlines()
    assert lines[0] == "title"
    assert "0.600" in rendered
    assert "0.800" in rendered


class TestSummarizeArtifact:
    """`repro show`: reports are produced from the persisted artifact."""

    def make_artifact(self):
        from repro.core.glade import GladeConfig
        from repro.core.pipeline import LearningPipeline

        config = GladeConfig(alphabet="ab", enable_chargen=False)
        return LearningPipeline(
            lambda s: set(s) <= set("ab"), config=config
        ).run(["ab", "ba"], sources=["corpus/a.txt", "corpus/b.txt"])

    def test_complete_artifact_summary(self):
        from repro.evaluation.reporting import summarize_artifact

        artifact = self.make_artifact()
        rendered = summarize_artifact(artifact)
        assert "status: complete" in rendered
        assert "corpus/a.txt" in rendered
        assert "phase-one regex [0]" in rendered
        assert str(artifact.grammar) in rendered
        assert "oracle queries: {}".format(artifact.oracle_queries) in rendered

    def test_merge_count_comes_from_the_decision_log(self):
        # The report counts Figure 2's one merge (C1) from the
        # committed decision log.
        from repro.core.pipeline import LearningPipeline
        from repro.evaluation.reporting import summarize_artifact
        from tests.core.helpers import xml_like_oracle

        artifact = LearningPipeline(xml_like_oracle).run(["<a>hi</a>"])
        assert artifact.phase2_progress["decisions"] == ["merged"]
        rendered = summarize_artifact(artifact)
        assert "(1 merged, 0 rejected, 0 skipped)" in rendered
        assert "phase-two merges: 1" in rendered

    def test_in_progress_artifact_summary(self):
        from repro.artifacts import RunArtifact, SeedRecord
        from repro.evaluation.reporting import summarize_artifact

        artifact = RunArtifact(seeds=[SeedRecord(text="ab", source="s:1")])
        rendered = summarize_artifact(artifact)
        assert "status: in_progress" in rendered
        assert "grammar: not yet translated" in rendered
        assert "pending" in rendered

    def test_summary_survives_serialization(self):
        import json

        from repro.artifacts import RunArtifact
        from repro.evaluation.reporting import summarize_artifact

        artifact = self.make_artifact()
        restored = RunArtifact.from_dict(
            json.loads(json.dumps(artifact.to_dict()))
        )
        assert summarize_artifact(restored) == summarize_artifact(artifact)
