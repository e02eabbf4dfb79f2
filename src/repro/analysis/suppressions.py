"""Suppression comments: ``# detlint: disable=RULE[,RULE...]``.

Two scopes:

- **line**: a disable comment on the physical line a finding anchors
  to suppresses the named rules (or every rule, with a bare
  ``disable``) for that line only. The comment may trail code.
- **file**: ``# detlint: disable-file=RULE[,RULE...]`` anywhere in the
  file suppresses the named rules for the whole file.

Suppressions are for hazards that are *benign by design* — the comment
should sit next to prose explaining why (see the in-tree uses). New
hazards that are real but not yet fixed belong in the committed
baseline instead, where CI counts them.

Comments are collected with :mod:`tokenize` so strings containing the
marker text are never misread as suppressions.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Set

#: Matches the whole-file form; group 1 is the rule list.
_FILE_RE = re.compile(r"#\s*detlint:\s*disable-file(?:=([\w,\s-]+))?")
#: Matches the line form (must not match disable-file).
_LINE_RE = re.compile(r"#\s*detlint:\s*disable(?!-file)(?:=([\w,\s-]+))?")

#: Sentinel meaning "every rule" (bare ``disable`` with no ``=RULE``).
ALL_RULES = "*"


def _parse_rule_list(raw: str) -> Set[str]:
    if raw is None:
        return {ALL_RULES}
    rules = {part.strip().upper() for part in raw.split(",") if part.strip()}
    return rules or {ALL_RULES}


class SuppressionTable:
    """Per-file suppression state, queried by (line, rule)."""

    def __init__(self) -> None:
        self.by_line: Dict[int, Set[str]] = {}
        self.file_wide: Set[str] = set()

    def is_suppressed(self, line: int, rule: str) -> bool:
        rule = rule.upper()
        if ALL_RULES in self.file_wide or rule in self.file_wide:
            return True
        rules = self.by_line.get(line)
        if rules is None:
            return False
        return ALL_RULES in rules or rule in rules


def collect_suppressions(source: str) -> SuppressionTable:
    """Scan a module's source for detlint suppression comments."""
    table = SuppressionTable()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            file_match = _FILE_RE.search(token.string)
            if file_match is not None:
                table.file_wide |= _parse_rule_list(file_match.group(1))
                continue
            line_match = _LINE_RE.search(token.string)
            if line_match is not None:
                rules = _parse_rule_list(line_match.group(1))
                table.by_line.setdefault(token.start[0], set()).update(rules)
    except tokenize.TokenError:
        # An unterminated construct: the ast parse will report the
        # real syntax problem; no suppressions is the safe answer.
        pass
    return table
