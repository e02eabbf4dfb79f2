"""PAR001: executor task payloads reaching shared mutable state.

Task payload functions (registered per module as ``TASK_ENTRY_POINTS``
in :mod:`repro.exec.shard`, :mod:`repro.exec.merge_shard`, and
:mod:`repro.exec.subject_shard`, whose task learns a subject and
derives its evaluation metrics) run concurrently on threads or are
pickled into worker processes. Anything they (transitively) reach must
therefore be self-contained: a read of module-level mutable state is a
thread race and a silent fork-copy divergence in process workers; a
write is both, plus lost-update nondeterminism. The global
``_star_counter`` that made parallel phase-1 star ids depend on
completion order (fixed in PR 3 by per-seed block allocators) is the
canonical instance.

The rule walks the static call graph from every registered entry point
(following project-local calls, class instantiations into
``__init__``, and functions passed by name) and flags, in reachable
functions:

- writes: ``global`` rebinding, attribute/subscript stores, and
  mutating method calls on module-level mutable bindings;
- reads of module-level mutable bindings **that the project mutates
  somewhere** (never-mutated registries behave as constants and stay
  silent);
- closures: nested functions/lambdas capturing an enclosing-scope
  name bound to a mutable container (shared-container aliasing across
  task boundaries).

Each finding carries the call chain from the entry point so the
hazard's reachability is auditable.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.project import (
    MUTATING_METHODS,
    ModuleSource,
    ProjectIndex,
    ancestors,
)
from repro.analysis.rules import Rule

FuncKey = Tuple[str, str]


def _call_edges(
    project: ProjectIndex, module: ModuleSource, func: ast.AST
) -> Iterator[FuncKey]:
    """Project-local functions this function may invoke."""
    class_of: Optional[ast.ClassDef] = None
    for ancestor in ancestors(func):
        if isinstance(ancestor, ast.ClassDef):
            class_of = ancestor
            break
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            target = project.resolve_function(module, node.func)
            if target is not None:
                yield target
            elif (
                class_of is not None
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                # self.method() -> a sibling method of the same class.
                for sibling in class_of.body:
                    if (
                        isinstance(
                            sibling,
                            (ast.FunctionDef, ast.AsyncFunctionDef),
                        )
                        and sibling.name == node.func.attr
                    ):
                        yield (module.modname,
                               "{}.{}".format(class_of.name, sibling.name))
            # Functions passed by reference (executor worker fns).
            for arg in list(node.args) + [
                kw.value for kw in node.keywords
            ]:
                if isinstance(arg, ast.Name):
                    target = project.resolve_function(module, arg)
                    if target is not None:
                        yield target


def _callable_body(
    project: ProjectIndex, key: FuncKey
) -> Optional[Tuple[ModuleSource, ast.AST]]:
    """The AST to scan for a call-graph node; classes scan whole body
    (``__init__`` plus methods reachable via self-calls are covered by
    edges; scanning the class body keeps the approximation simple and
    errs toward coverage)."""
    modname, name = key
    module = project.modules.get(modname)
    if module is None:
        return None
    node = project.functions.get(key)
    if node is None and "." in name:
        # Method key minted by the self-call resolution above.
        clsname, _, methname = name.partition(".")
        cls = project.functions.get((modname, clsname))
        if isinstance(cls, ast.ClassDef):
            for sub in cls.body:
                if (
                    isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and sub.name == methname
                ):
                    return module, sub
        return None
    if node is None:
        return None
    if isinstance(node, ast.ClassDef):
        for sub in node.body:
            if (
                isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and sub.name == "__init__"
            ):
                return module, sub
        return None
    return module, node


def _local_mutable_names(module: ModuleSource, func: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            if isinstance(
                node.value,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def _chain_text(
    chain: Dict[FuncKey, Optional[FuncKey]], key: FuncKey
) -> str:
    parts: List[str] = []
    current: Optional[FuncKey] = key
    while current is not None:
        parts.append("{}.{}".format(*current))
        current = chain.get(current)
    parts.reverse()
    return " -> ".join(parts)


class TaskSharedStateRule(Rule):
    rule_id = "PAR001"
    title = "executor task reaches module-level mutable state"

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        # BFS over the call graph from every registered entry point.
        predecessor: Dict[FuncKey, Optional[FuncKey]] = {}
        queue: List[FuncKey] = []
        for entry in project.entry_points:
            if entry not in predecessor:
                predecessor[entry] = None
                queue.append(entry)
        while queue:
            key = queue.pop(0)
            resolved = _callable_body(project, key)
            if resolved is None:
                continue
            module, func = resolved
            yield from self._check_function(project, module, func, key,
                                            predecessor)
            for callee in _call_edges(project, module, func):
                if callee not in predecessor:
                    predecessor[callee] = key
                    queue.append(callee)

    def _check_function(
        self,
        project: ProjectIndex,
        module: ModuleSource,
        func: ast.AST,
        key: FuncKey,
        predecessor: Dict[FuncKey, Optional[FuncKey]],
    ) -> Iterator[Finding]:
        chain = _chain_text(predecessor, key)
        local_names = self._local_bindings(func)
        reported: Set[Tuple[int, str]] = set()

        def emit(node, message):
            marker = (getattr(node, "lineno", 0), message)
            if marker in reported:
                return None
            reported.add(marker)
            return self.finding(module, node, message, detail=chain)

        for node in ast.walk(func):
            # Writes: global rebinding.
            if isinstance(node, ast.Global):
                for name in node.names:
                    finding = emit(
                        node,
                        "task-reachable code rebinds module global "
                        "{!r}".format(name),
                    )
                    if finding:
                        yield finding
            # Writes: stores/mutations through a module-level binding.
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        hit = project.resolve_module_var(
                            module, target.value
                        )
                        if hit is not None and not self._shadowed(
                            target.value, local_names
                        ):
                            finding = emit(
                                node,
                                "task-reachable code mutates "
                                "module-level state {}.{}".format(*hit),
                            )
                            if finding:
                                yield finding
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in MUTATING_METHODS:
                    hit = project.resolve_module_var(
                        module, node.func.value
                    )
                    if hit is not None and not self._shadowed(
                        node.func.value, local_names
                    ):
                        finding = emit(
                            node,
                            "task-reachable code calls mutating "
                            "{}() on module-level state {}.{}".format(
                                node.func.attr, *hit
                            ),
                        )
                        if finding:
                            yield finding
            # Reads of project-mutated module-level mutables.
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                if node.id in local_names:
                    continue
                hit = project.resolve_module_var(module, node)
                if hit is not None and hit in project.mutated:
                    finding = emit(
                        node,
                        "task-reachable code reads module-level "
                        "mutable state {}.{} (mutated elsewhere in "
                        "the project)".format(*hit),
                    )
                    if finding:
                        yield finding
            # Closures over enclosing mutable containers.
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)) and (
                node is not func
            ):
                captured = self._captured_mutables(module, func, node)
                for name in sorted(captured):
                    finding = emit(
                        node,
                        "nested {} captures enclosing mutable "
                        "container {!r}; shared-container aliasing "
                        "across task boundaries".format(
                            "lambda"
                            if isinstance(node, ast.Lambda)
                            else "function {!r}".format(node.name),
                            name,
                        ),
                    )
                    if finding:
                        yield finding

    def _local_bindings(self, func: ast.AST) -> Set[str]:
        """Names the function binds locally (params + stores), which
        shadow module-level bindings of the same name."""
        names: Set[str] = set()
        args = getattr(func, "args", None)
        if args is not None:
            for arg in (
                list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)
            ):
                names.add(arg.arg)
            if args.vararg:
                names.add(args.vararg.arg)
            if args.kwarg:
                names.add(args.kwarg.arg)
        declared_global: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ):
                names.add(node.id)
            elif isinstance(node, (ast.For,)) and isinstance(
                node.target, ast.Name
            ):
                names.add(node.target.id)
        return names - declared_global

    def _shadowed(self, node: ast.AST, local_names: Set[str]) -> bool:
        return isinstance(node, ast.Name) and node.id in local_names

    def _captured_mutables(
        self, module: ModuleSource, outer: ast.AST, nested: ast.AST
    ) -> Set[str]:
        outer_mutables = _local_mutable_names(module, outer)
        # Names the nested scope binds itself do not capture.
        nested_bound: Set[str] = set()
        args = getattr(nested, "args", None)
        if args is not None:
            for arg in list(args.posonlyargs) + list(args.args) + list(
                args.kwonlyargs
            ):
                nested_bound.add(arg.arg)
        body = (
            nested.body if isinstance(nested, ast.FunctionDef)
            else [nested.body]
        )
        loaded: Set[str] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Store):
                        nested_bound.add(node.id)
                    elif isinstance(node.ctx, ast.Load):
                        loaded.add(node.id)
        # The nested def's own local mutables are not captures.
        return (loaded & outer_mutables) - nested_bound - (
            _local_mutable_names(module, nested)
        )
