"""Figure 6: per-program statistics (§8.3).

For each of the eight programs: lines of (parser) code, lines across the
seed inputs E_in, and GLADE's grammar-synthesis time. The paper reports
minutes on real binaries; ours are seconds on the mini-subjects — the
table's *shape* (larger/more seeds → longer synthesis; front-ends are
the expensive subjects) is the reproduction target (EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.evaluation.harness import SubjectArtifactCache, subject_artifact
from repro.evaluation.reporting import format_table
from repro.programs import SUBJECT_NAMES, get_subject


@dataclass
class Fig6Row:
    program: str
    loc: int
    seed_lines: int
    synthesis_seconds: float
    oracle_queries: int


def run_fig6(
    subjects: Sequence[str] = tuple(SUBJECT_NAMES),
    cache: Optional[SubjectArtifactCache] = None,
) -> List[Fig6Row]:
    """Build the Figure 6 table from learned artifacts.

    Each subject's artifact comes from ``cache`` (learned at most once
    per cache). Synthesis time is the artifact's recorded stage
    wall-clock, so a cache hit reports the time the learning run
    actually took rather than ~0.
    """
    rows = []
    for name in subjects:
        subject = get_subject(name)
        artifact = subject_artifact(subject, cache=cache)
        rows.append(
            Fig6Row(
                program=name,
                loc=subject.loc(),
                seed_lines=subject.seed_line_count(),
                synthesis_seconds=artifact.duration_seconds(),
                oracle_queries=artifact.oracle_queries,
            )
        )
    return rows


def format_fig6(rows: Sequence[Fig6Row]) -> str:
    headers = ["program", "LoC", "lines in E_in", "time (s)", "queries"]
    table_rows = [
        [r.program, r.loc, r.seed_lines, r.synthesis_seconds,
         r.oracle_queries]
        for r in rows
    ]
    return "Figure 6: program statistics and GLADE synthesis time\n" + (
        format_table(headers, table_rows)
    )


def main() -> None:
    print(format_fig6(run_fig6()))


if __name__ == "__main__":
    main()
