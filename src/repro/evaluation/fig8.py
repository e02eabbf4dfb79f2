"""Figure 8: a valid sample from GLADE's synthesized XML grammar (§8.3).

The paper prints one representative sample from the grammar learned for
the XML parser, showing nested tags, attributes, comments, and
processing instructions surviving into generated inputs. This module
learns the grammar from the XML subject's seeds and prints samples
(preferring a large valid one, as the paper's figure does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.evaluation.harness import (
    SubjectArtifactCache,
    search_valid_sample,
    subject_artifact,
)
from repro.programs import get_subject


@dataclass
class Fig8Result:
    sample: str
    valid: bool
    n_tried: int


def run_fig8(
    n_candidates: int = 200,
    seed: int = 7,
    min_length: int = 40,
    cache: Optional[SubjectArtifactCache] = None,
) -> Fig8Result:
    """Generate Figure 8's sample: a large valid fuzzed XML document.

    The harness's artifact cache supplies the XML run artifact (shared
    with Figure 6/7 runs in the same process, so the XML grammar is
    learned once).
    """
    subject = get_subject("xml")
    sample, valid, tried = search_valid_sample(
        subject_artifact(subject, cache=cache),
        subject.accepts,
        n_candidates=n_candidates,
        seed=seed,
        min_length=min_length,
    )
    return Fig8Result(sample=sample, valid=valid, n_tried=tried)


def format_fig8(result: Fig8Result) -> str:
    return (
        "Figure 8: a valid sample from the synthesized XML grammar\n"
        "(tried {} candidates; valid={})\n{}".format(
            result.n_tried, result.valid, result.sample
        )
    )


def main() -> None:
    print(format_fig8(run_fig8()))


if __name__ == "__main__":
    main()
