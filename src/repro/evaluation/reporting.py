"""Plain-text tables and series for the experiment harnesses.

Every figure generator prints its results through these helpers so the
benchmark output reads like the paper's tables: one row per
(program, algorithm) cell, aligned columns, and simple ASCII series for
the line plots (Figures 4c and 7c).

:func:`summarize_artifact` renders a persisted learning-run artifact
(`repro show`): evaluation consumes the durable artifact rather than an
in-memory learning result, so reports can be produced long after — and
on a different machine than — the learning run.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[Cell]]
) -> str:
    """Render an aligned ASCII table."""
    materialized: List[List[str]] = [
        [_format_cell(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in materialized:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_series(
    title: str,
    xs: Sequence[Cell],
    series: Sequence[tuple],
) -> str:
    """Render named y-series against a shared x-axis, one row per x."""
    headers = ["x"] + [name for name, _ys in series]
    rows = []
    for index, x in enumerate(xs):
        rows.append([x] + [ys[index] for _name, ys in series])
    return title + "\n" + format_table(headers, rows)


def _format_cell(cell: Cell) -> str:
    if isinstance(cell, float):
        return "{:.3f}".format(cell)
    return str(cell)


def _elide(text: str, width: int = 60) -> str:
    return text if len(text) <= width else text[: width - 1] + "…"


def summarize_artifact(artifact) -> str:
    """Render a :class:`~repro.artifacts.run.RunArtifact` as a report.

    Works on in-progress artifacts too (`repro show` on a checkpoint of
    a killed run reports how far it got). The report is a list of
    sections joined by blank lines; sections with nothing to say are
    replaced by an explicit "not recorded" note (older artifacts and
    interrupted runs legitimately lack execution or timing records)
    rather than printed empty.
    """
    from repro.artifacts.run import STAGES
    from repro.core.phase2 import PAIR_MERGED, PAIR_REJECTED, PAIR_SKIPPED

    lines = [
        "status: {} (last completed stage: {})".format(
            artifact.status, artifact.stage
        ),
        "schema version: {}".format(artifact.schema_version),
        "oracle queries: {} ({} unique), {:.1f}s total".format(
            artifact.oracle_queries,
            artifact.unique_queries,
            artifact.duration_seconds(),
        ),
    ]
    if artifact.oracle_spec is not None:
        lines.append(
            "oracle command: {}".format(
                " ".join(artifact.oracle_spec.get("command", []))
            )
        )
    if artifact.execution:
        line = "execution: {} backend, {} job(s)".format(
            artifact.execution.get("backend", "?"),
            artifact.execution.get("jobs", "?"),
        )
        if artifact.speculative_queries:
            line += ", {} speculative queries discarded".format(
                artifact.speculative_queries
            )
        lines.append(line)
        faults = artifact.execution.get("faults") or {}
        if faults:
            lines.append(
                "fault tolerance: "
                + ", ".join(
                    "{} {}".format(value, name)
                    for name, value in sorted(faults.items())
                )
            )
        recovery = artifact.execution.get("recovery") or {}
        if recovery:
            lines.append(
                "crash recovery: {} pool restart(s), {} task(s) "
                "resubmitted".format(
                    recovery.get("pool_restarts", 0),
                    recovery.get("tasks_resubmitted", 0),
                )
            )
    else:
        lines.append("execution: not recorded")
    telemetry = getattr(artifact, "telemetry", None)
    if telemetry:
        lines.append(
            "telemetry: {} span(s) recorded (see repro show "
            "--stats / repro trace)".format(
                len(telemetry.get("spans") or ())
            )
        )
    if artifact.phase2_progress:
        progress = artifact.phase2_progress
        decisions = progress.get("decisions", [])
        lines.append(
            "phase-2 execution: {} backend, {} job(s), {}/{} pairs "
            "committed ({} merged, {} rejected, {} skipped)".format(
                progress.get("backend", "?"),
                progress.get("jobs", "?"),
                len(decisions),
                progress.get("pairs", "?"),
                decisions.count(PAIR_MERGED),
                decisions.count(PAIR_REJECTED),
                decisions.count(PAIR_SKIPPED),
            )
        )
    sections = ["\n".join(lines)]

    if artifact.seeds:
        sections.append(
            format_table(
                ["seed", "source", "state", "queries"],
                [
                    [
                        _elide(repr(s.text), 32),
                        s.source or "-",
                        s.state,
                        s.queries,
                    ]
                    for s in artifact.seeds
                ],
            )
        )
    else:
        sections.append("seeds: none recorded")

    timed = [
        [stage, artifact.timings[stage]]
        for stage in STAGES
        if stage in artifact.timings
    ]
    if timed:
        sections.append(format_table(["stage", "seconds"], timed))
    else:
        sections.append("stage timings: not recorded")

    tail = []
    for index, regex in enumerate(artifact.regexes()):
        tail.append(
            "phase-one regex [{}]: {}".format(index, _elide(str(regex)))
        )
    if artifact.phase2_result is not None:
        decisions = artifact.phase2_progress.get("decisions", [])
        tail.append(
            "phase-two merges: {}".format(decisions.count(PAIR_MERGED))
        )
    if artifact.grammar is not None:
        tail.append(
            "grammar: {} nonterminals, {} productions".format(
                len(artifact.grammar.nonterminals()),
                len(artifact.grammar.productions),
            )
        )
        tail.append("")
        tail.append(str(artifact.grammar))
    else:
        tail.append("grammar: not yet translated")
    sections.append("\n".join(tail))
    return "\n\n".join(section for section in sections if section)


def format_stats(artifact) -> str:
    """Render an artifact's telemetry (`repro show --stats`).

    Stage timings with percentages, the per-shard span breakdown, and
    the counter/histogram tables — everything the metrics registry and
    tracer recorded. Degrades to a pointer at ``--trace`` when the
    artifact has no telemetry section (untraced or pre-v4 run).
    """
    from repro.artifacts.run import STAGES

    sections = []
    timed = [
        (stage, artifact.timings[stage])
        for stage in STAGES
        if stage in artifact.timings
    ]
    if timed:
        total = sum(seconds for _stage, seconds in timed)
        sections.append(
            "stage timings\n"
            + format_table(
                ["stage", "seconds", "% of run"],
                [
                    [
                        stage,
                        seconds,
                        100.0 * seconds / total if total else 0.0,
                    ]
                    for stage, seconds in timed
                ],
            )
        )
    else:
        sections.append("stage timings: not recorded")

    telemetry = getattr(artifact, "telemetry", None)
    if not telemetry:
        sections.append(
            "telemetry: not recorded — learn with --trace to collect "
            "spans and counters"
        )
        return "\n\n".join(sections)

    spans = telemetry.get("spans") or []
    if spans:
        by_shard = {}
        for span in spans:
            slot = by_shard.setdefault(span.get("shard", ""), [0, 0.0])
            slot[0] += 1
            slot[1] += float(span.get("dur") or 0.0)
        title = "spans by shard ({} total".format(len(spans))
        dropped = telemetry.get("dropped_spans", 0)
        if dropped:
            title += ", {} dropped at the cap".format(dropped)
        title += ")"
        sections.append(
            title
            + "\n"
            + format_table(
                ["shard", "spans", "seconds"],
                [
                    [shard or "(main)", count, seconds]
                    for shard, (count, seconds) in sorted(by_shard.items())
                ],
            )
        )

    metrics = telemetry.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        sections.append(
            "counters\n"
            + format_table(
                ["counter", "value"], sorted(counters.items())
            )
        )
    histograms = metrics.get("histograms") or {}
    if histograms:
        sections.append(
            "histograms\n"
            + format_table(
                ["histogram", "count", "total", "min", "max"],
                [
                    [name, h["count"], h["total"], h["min"], h["max"]]
                    for name, h in sorted(histograms.items())
                ],
            )
        )
    return "\n\n".join(sections)
