"""The eight programs under test of §8.3, plus the coverage substrate.

Figure 6's subjects: sed, flex, grep, bison, xml, ruby, python, and
javascript — here reproduced as instrumented pure-Python parsers (see
DESIGN.md §2 for the substitution argument).
"""

from typing import Dict, List

from repro.programs import (
    bison_prog,
    flex_prog,
    grep_prog,
    js_prog,
    python_prog,
    ruby_prog,
    sed_prog,
    xml_prog,
)
from repro.programs.base import ParseError, Subject
from repro.programs.coverage import (
    CoverageReport,
    CoverageTracer,
    coverable_lines,
    loc_of_module,
    measure_coverage,
)

_MODULES = {
    "sed": (sed_prog, "stream-editor script parser"),
    "flex": (flex_prog, "lexer-specification parser"),
    "grep": (grep_prog, "BRE pattern compiler"),
    "bison": (bison_prog, "yacc grammar parser"),
    "xml": (xml_prog, "XML well-formedness parser"),
    "ruby": (ruby_prog, "Ruby-subset front-end"),
    "python": (python_prog, "Python-subset front-end"),
    "javascript": (js_prog, "JavaScript-subset front-end"),
}

#: Figure 6 / Figure 7 ordering.
SUBJECT_NAMES: List[str] = [
    "sed", "flex", "grep", "bison", "xml", "ruby", "python", "javascript",
]


def get_subject(name: str) -> Subject:
    """Return the named program under test."""
    try:
        module, description = _MODULES[name]
    except KeyError:
        raise ValueError(
            "unknown subject {!r}; choose from {}".format(
                name, SUBJECT_NAMES
            )
        )
    return Subject(
        name=name,
        description=description,
        modules=[module],
        accepts=module.accepts,
        seeds=list(module.SEEDS),
        alphabet=module.ALPHABET,
    )


def all_subjects() -> Dict[str, Subject]:
    """Return all eight §8.3 subjects, keyed by name."""
    return {name: get_subject(name) for name in SUBJECT_NAMES}


__all__ = [
    "CoverageReport",
    "CoverageTracer",
    "ParseError",
    "SUBJECT_NAMES",
    "Subject",
    "all_subjects",
    "coverable_lines",
    "get_subject",
    "loc_of_module",
    "measure_coverage",
]
