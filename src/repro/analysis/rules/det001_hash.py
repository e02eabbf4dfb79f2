"""DET001: salted builtin ``hash()`` reaching seeds/digests/ordering.

``hash(str)`` (and of any container holding a string) is salted per
process under PYTHONHASHSEED, so any value derived from it differs
between two runs — and between the parent and a process-pool worker.
This bit the reproduction twice before the rule existed: fig7 seeded
its fuzzing RNG with ``hash((name, seed))`` and ``CachingOracle``
fingerprinted query strings with ``hash(text)``, both silently
process-dependent. The deterministic replacement is
:func:`repro.evaluation.harness.stable_seed`, a blake2b fingerprint of
its parts (for PRNG seeds and string fingerprints alike).

Flagged: a builtin ``hash()`` call that either

- takes an argument containing a string constant, f-string, or
  ``str()`` / ``repr()`` / ``format()`` call (the hash is then salted
  for sure), or
- flows into a seeding or ordering sink — an enclosing
  ``random.Random`` / ``random.seed`` / ``*.seed`` call, a ``sorted``
  / ``sort`` key function, a keyword argument named like a seed, or an
  assignment to a name matching seed/digest/fingerprint/checksum.

Exempt: code inside a ``__hash__`` method — an in-process dict-key
hash is exactly what builtin ``hash`` is for.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.analysis.findings import Finding
from repro.analysis.project import ModuleSource, ProjectIndex, ancestors
from repro.analysis.rules import Rule

_SEEDISH_NAME = re.compile(
    r"seed|digest|fingerprint|checksum|salt", re.IGNORECASE
)

#: Resolved callables that consume a PRNG seed.
_SEED_SINK_CALLS = {"random.Random", "random.seed", "numpy.random.seed"}

_STRINGISH_CALLS = {"str", "repr", "format", "ascii"}


def _argument_is_stringish(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            return True
        if isinstance(sub, ast.JoinedStr):
            return True
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            if sub.func.id in _STRINGISH_CALLS:
                return True
    return False


def _in_hash_dunder(node: ast.AST) -> bool:
    for ancestor in ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor.name == "__hash__"
    return False


def _sink_context(
    module: ModuleSource, call: ast.Call
) -> Iterator[str]:
    """Describe the seeding/ordering sinks this hash value reaches."""
    for ancestor in ancestors(call):
        if isinstance(ancestor, ast.stmt):
            if isinstance(ancestor, (ast.Assign, ast.AnnAssign)):
                targets = (
                    ancestor.targets
                    if isinstance(ancestor, ast.Assign)
                    else [ancestor.target]
                )
                for target in targets:
                    name = None
                    if isinstance(target, ast.Name):
                        name = target.id
                    elif isinstance(target, ast.Attribute):
                        name = target.attr
                    if name and _SEEDISH_NAME.search(name):
                        yield "assigned to {!r}".format(name)
            break
        if isinstance(ancestor, ast.keyword):
            if ancestor.arg and _SEEDISH_NAME.search(ancestor.arg):
                yield "passed as {}=".format(ancestor.arg)
        if isinstance(ancestor, ast.Call):
            resolved = module.resolve_dotted(ancestor.func) or ""
            if resolved in _SEED_SINK_CALLS or resolved.endswith(".seed"):
                yield "seeds {}".format(resolved)
        if isinstance(ancestor, ast.Lambda):
            parent = next(ancestors(ancestor), None)
            if isinstance(parent, ast.keyword) and parent.arg == "key":
                yield "used as a sort key"


class SaltedHashRule(Rule):
    rule_id = "DET001"
    title = "process-salted builtin hash() in a deterministic context"

    def check_module(
        self, module: ModuleSource, project: ProjectIndex
    ) -> Iterable[Finding]:
        # A local alias shadowing the builtin means it is not builtin
        # hash at all.
        if "hash" in module.imports:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (
                isinstance(node.func, ast.Name) and node.func.id == "hash"
            ):
                continue
            if _in_hash_dunder(node):
                continue
            sinks = list(_sink_context(module, node))
            stringish = any(
                _argument_is_stringish(arg) for arg in node.args
            )
            if not sinks and not stringish:
                continue
            reasons = []
            if stringish:
                reasons.append("hashes string data (salted per process)")
            reasons.extend(sinks)
            yield self.finding(
                module,
                node,
                "builtin hash() is process-salted; use "
                "stable_seed() instead",
                detail="; ".join(reasons),
            )
