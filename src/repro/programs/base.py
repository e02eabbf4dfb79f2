"""Subjects under test for the fuzzing evaluation (§8.3).

A :class:`Subject` wraps one of the eight mini-programs with everything
the harness needs: the blackbox ``accepts`` predicate (run the program,
report acceptance), the modules whose lines are measured for coverage,
the seed inputs E_in (gathered, as in the paper, from the kind of
examples documentation and small test suites provide), and the input
alphabet used by GLADE's character generalization and the naive fuzzer.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import ModuleType
from typing import Callable, List

from repro.programs.coverage import loc_of_module


@dataclass
class Subject:
    """A program under test."""

    name: str
    description: str
    modules: List[ModuleType]
    accepts: Callable[[str], bool]
    seeds: List[str]
    alphabet: str

    def loc(self) -> int:
        """Lines of (parser) code — the Figure 6 "Lines of Code" analog."""
        return sum(loc_of_module(module) for module in self.modules)

    def seed_line_count(self) -> int:
        """Total lines across the seed inputs (Figure 6, "Lines in E_in")."""
        return sum(max(1, seed.count("\n") + 1) for seed in self.seeds)


class ParseError(Exception):
    """Raised by the mini-parsers on invalid input.

    ``accepts`` converts this (and only this) into a False verdict — an
    unexpected exception type is a bug in the subject, and the tests
    assert it never escapes.
    """

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position
