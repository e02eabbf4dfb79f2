"""Figure 5: example grammars synthesized by GLADE (§8.2).

The paper shows, for clarity, *substantially simplified fragments* of
the four target languages and the grammars GLADE synthesizes for them
from a small set of representative seeds. This module reproduces that
table: each simplified target is defined by a recognizer oracle, GLADE
runs on the listed seeds, and the synthesized grammar is printed next to
the target definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.artifacts.run import RunArtifact
from repro.core.glade import GladeConfig, learn_grammar

_LOWER = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Fig5Row:
    name: str
    target_description: str
    seeds: List[str]
    result: RunArtifact


def _url_oracle(text: str) -> bool:
    """A → http(+s)://(+www.)[a-z]* . [a-z]*  (Figure 5, row 1)."""
    for scheme in ("https://", "http://"):
        if text.startswith(scheme):
            rest = text[len(scheme) :]
            break
    else:
        return False
    if rest.startswith("www."):
        rest = rest[len("www.") :]
    if "." not in rest:
        return False
    head, _, tail = rest.partition(".")
    return all(c in _LOWER for c in head) and all(c in _LOWER for c in tail)


def _grep_oracle(text: str) -> bool:
    """A → ([a-z] + \\(A\\))*  (Figure 5, row 2)."""

    def parse(i: int, depth: int) -> int:
        while i < len(text):
            if text[i] in _LOWER:
                i += 1
            elif text.startswith("\\(", i):
                j = parse(i + 2, depth + 1)
                if j < 0 or not text.startswith("\\)", j):
                    return -1
                i = j + 2
            else:
                return i
        return i

    end = parse(0, 0)
    return end == len(text)


def _lisp_oracle(text: str) -> bool:
    """A → ([a-z][a-z]* ( ␣* ([a-z][a-z]* + A))* )  (Figure 5, row 3)."""

    def parse_symbol(i: int) -> int:
        start = i
        while i < len(text) and text[i] in _LOWER:
            i += 1
        return i if i > start else -1

    def parse_list(i: int) -> int:
        if i >= len(text) or text[i] != "(":
            return -1
        i = parse_symbol(i + 1)
        if i < 0:
            return -1
        while True:
            j = i
            while j < len(text) and text[j] == " ":
                j += 1
            if j == i:
                break
            if j < len(text) and text[j] == "(":
                k = parse_list(j)
            else:
                k = parse_symbol(j)
            if k < 0:
                return -1
            i = k
        if i < len(text) and text[i] == ")":
            return i + 1
        return -1

    return parse_list(0) == len(text)


def _xml_oracle(text: str) -> bool:
    """A → <a( ␣[a-z]*="[a-z]*")*>(A + [a-z])*</a>  (Figure 5, row 4)."""

    def parse_elem(i: int) -> int:
        if not text.startswith("<a", i):
            return -1
        i += 2
        while i < len(text) and text[i] == " ":
            i += 1
            start = i
            while i < len(text) and text[i] in _LOWER:
                i += 1
            if i == start or not text.startswith('="', i):
                return -1
            i += 2
            while i < len(text) and text[i] in _LOWER:
                i += 1
            if i >= len(text) or text[i] != '"':
                return -1
            i += 1
        if i >= len(text) or text[i] != ">":
            return -1
        i += 1
        while i < len(text):
            if text.startswith("</a>", i):
                return i + 4
            if text[i] in _LOWER:
                i += 1
            elif text[i] == "<":
                j = parse_elem(i)
                if j < 0:
                    return -1
                i = j
            else:
                return -1
        return -1

    return parse_elem(0) == len(text)


_ROWS = [
    (
        "URL",
        "A -> http(+s)://(+www.)[a-z]* . [a-z]*",
        _url_oracle,
        ["http://ab.cd", "https://www.xy.zw"],
        _LOWER + ":/w.",
    ),
    (
        "Grep",
        "A -> ([a-z] + \\(A\\))*",
        _grep_oracle,
        ["ab\\(cd\\)e"],
        _LOWER + "\\()",
    ),
    (
        "Lisp",
        "A -> ([a-z]+ ( ' '* ([a-z]+ + A))*)",
        _lisp_oracle,
        ["(add (mul xy z) w)"],
        _LOWER + " ()",
    ),
    (
        "XML",
        'A -> <a( [a-z]*="[a-z]*")*>(A + [a-z])*</a>',
        _xml_oracle,
        ['<a k="v">hi<a>deep</a></a>'],
        _LOWER + ' <>/="',
    ),
]


def run_fig5() -> List[Fig5Row]:
    """Synthesize the four Figure-5 example grammars."""
    rows = []
    for name, description, oracle, seeds, alphabet in _ROWS:
        result = learn_grammar(seeds, oracle, GladeConfig(alphabet=alphabet))
        rows.append(
            Fig5Row(
                name=name,
                target_description=description,
                seeds=seeds,
                result=result,
            )
        )
    return rows


def format_fig5(rows: Sequence[Fig5Row]) -> str:
    blocks = ["Figure 5: example synthesized grammars"]
    for row in rows:
        blocks.append("")
        blocks.append("== {} ==".format(row.name))
        blocks.append("target:      {}".format(row.target_description))
        blocks.append("seeds:       {}".format(row.seeds))
        blocks.append("regex:       {}".format(row.result.regex()))
        blocks.append("synthesized grammar:")
        blocks.append(str(row.result.grammar))
    return "\n".join(blocks)


def main() -> None:
    print(format_fig5(run_fig5()))


if __name__ == "__main__":
    main()
