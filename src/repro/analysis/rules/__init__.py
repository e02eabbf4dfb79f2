"""The detlint rule registry.

Each rule encodes one determinism or parallel-safety invariant this
reproduction depends on (EXPERIMENTS.md documents the history behind
each one):

- **DET001** — salted builtin ``hash()`` reaching seeds, digests or
  ordering (the fig7 / ``CachingOracle`` bug class; use
  ``stable_seed``).
- **DET002** — ambient-module or unseeded RNG in library code.
- **DET003** — wall-clock values flowing into deterministic artifact
  metric fields (the ``artifacts/suite.py`` contract).
- **DET004** — iteration over sets feeding ordered sinks without
  ``sorted()``.
- **PAR001** — executor task payloads reaching module-level mutable
  state (the global ``_star_counter`` bug class).
- **PAR002** — classes holding pools/locks/subprocesses without
  ``__getstate__`` (the ``SubprocessOracle`` precedent).

A rule sees either one module at a time (:meth:`Rule.check_module`) or
the whole :class:`~repro.analysis.project.ProjectIndex`
(:meth:`Rule.check_project`); the engine applies suppressions and the
baseline afterwards, so rules just report every occurrence they see.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List

from repro.analysis.findings import Finding
from repro.analysis.project import ModuleSource, ProjectIndex


class Rule:
    """Base class: one hazard class, one rule id."""

    rule_id: str = "?"
    title: str = "?"

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        for module in project.modules_in_order():
            yield from self.check_module(module, project)

    def check_module(
        self, module: ModuleSource, project: ProjectIndex
    ) -> Iterable[Finding]:
        return ()

    def finding(
        self,
        module: ModuleSource,
        node,
        message: str,
        detail: str = None,
    ) -> Finding:
        lineno = getattr(node, "lineno", 1)
        return Finding(
            rule=self.rule_id,
            path=module.relpath,
            line=lineno,
            col=getattr(node, "col_offset", 0),
            message=message,
            line_text=module.line_text(lineno),
            detail=detail,
        )


def _build_registry() -> List[Rule]:
    from repro.analysis.rules.det001_hash import SaltedHashRule
    from repro.analysis.rules.det002_rng import AmbientRngRule
    from repro.analysis.rules.det003_wallclock import WallClockRule
    from repro.analysis.rules.det004_set_order import SetOrderRule
    from repro.analysis.rules.par001_races import TaskSharedStateRule
    from repro.analysis.rules.par002_pickle import UnpicklableStateRule

    return [
        SaltedHashRule(),
        AmbientRngRule(),
        WallClockRule(),
        SetOrderRule(),
        TaskSharedStateRule(),
        UnpicklableStateRule(),
    ]


RULES: List[Rule] = _build_registry()

_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in RULES}


def rule_ids() -> List[str]:
    return sorted(_BY_ID)


def get_rule(rule_id: str) -> Rule:
    try:
        return _BY_ID[rule_id.upper()]
    except KeyError:
        raise KeyError(
            "unknown rule {!r}; known: {}".format(
                rule_id, ", ".join(rule_ids())
            )
        )
