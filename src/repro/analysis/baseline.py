"""The committed findings baseline: known hazards CI tolerates.

``repro lint --check`` fails on any finding *not* in the baseline, so
the gate only ever ratchets: new hazards are rejected, and fixing a
baselined one lets the baseline shrink (``--write-baseline`` rewrites
it from the current tree). The shipped tree's baseline is empty — every
historical finding was fixed or suppressed-with-rationale — but the
mechanism is what lets the gate land on a tree with open findings
without blocking unrelated work.

A finding's **fingerprint** is a blake2b digest of its relative path,
rule id, stripped line text, and occurrence index (disambiguating
identical lines in one file). Line *numbers* are deliberately excluded:
edits above a finding must not invalidate the baseline.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Iterable, List, Sequence, Set, Union

from repro.analysis.findings import Finding

BASELINE_KIND = "detlint-baseline"
BASELINE_VERSION = 1

#: Default baseline location, relative to the working directory.
DEFAULT_BASELINE_NAME = "detlint-baseline.json"


class BaselineError(ValueError):
    """A baseline file is unreadable or structurally wrong."""


def _occurrence_key(finding: Finding) -> tuple:
    return (finding.path, finding.rule, finding.line_text.strip())


def assign_fingerprints(findings: Sequence[Finding]) -> None:
    """Set every finding's fingerprint, in place.

    Findings must be the complete per-run list so occurrence indices
    (the tiebreak for identical lines) are assigned consistently.
    """
    counts: Dict[tuple, int] = {}
    for finding in sorted(findings, key=lambda f: (f.path, f.line, f.col)):
        key = _occurrence_key(finding)
        occurrence = counts.get(key, 0)
        counts[key] = occurrence + 1
        digest = hashlib.blake2b(digest_size=16)
        for part in (
            finding.path,
            finding.rule,
            finding.line_text.strip(),
            str(occurrence),
        ):
            digest.update(part.encode("utf-8", "backslashreplace"))
            digest.update(b"\x00")
        finding.fingerprint = digest.hexdigest()


def save_baseline(
    findings: Iterable[Finding], path: Union[str, pathlib.Path]
) -> None:
    """Write the baseline for the given findings (sorted, stable)."""
    entries = [
        {
            "fingerprint": f.fingerprint,
            "rule": f.rule,
            "path": f.path,
            "line": f.line,
            "message": f.message,
        }
        for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule))
    ]
    data = {
        "kind": BASELINE_KIND,
        "version": BASELINE_VERSION,
        "findings": entries,
    }
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    pathlib.Path(path).write_text(text)


def load_baseline(path: Union[str, pathlib.Path]) -> Set[str]:
    """Return the set of baselined fingerprints."""
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise BaselineError("cannot read baseline {}: {}".format(path, exc))
    if not isinstance(data, dict) or data.get("kind") != BASELINE_KIND:
        raise BaselineError(
            "not a {} file: {}".format(BASELINE_KIND, path)
        )
    if data.get("version") != BASELINE_VERSION:
        raise BaselineError(
            "baseline version {} unsupported (expected {}): {}".format(
                data.get("version"), BASELINE_VERSION, path
            )
        )
    fingerprints: Set[str] = set()
    for entry in data.get("findings", []):
        if isinstance(entry, dict) and entry.get("fingerprint"):
            fingerprints.add(entry["fingerprint"])
    return fingerprints


def apply_baseline(
    findings: Sequence[Finding], fingerprints: Set[str]
) -> List[Finding]:
    """Mark baselined findings; return the still-new ones."""
    from repro.analysis.findings import STATUS_BASELINED, STATUS_NEW

    fresh: List[Finding] = []
    for finding in findings:
        if finding.status != STATUS_NEW:
            continue
        if finding.fingerprint in fingerprints:
            finding.status = STATUS_BASELINED
        else:
            fresh.append(finding)
    return fresh
