"""The whole-project index detlint rules analyze against.

Per-module rules only need one file's AST, but the parallel-safety
rules reason across files: PAR001 walks the call graph from executor
task entry points into every module they reach, asking whether any
reachable function touches module-level mutable state. This module
builds the shared substrate once per run:

- :class:`ModuleSource` — one parsed file: AST (with parent links), an
  import alias table, source lines, and its suppression table;
- :class:`ProjectIndex` — all modules keyed by dotted name, top-level
  functions and classes, module-level *mutable* bindings, the set of
  such bindings mutated anywhere in the project, and the
  ``TASK_ENTRY_POINTS`` registrations the exec shard modules declare.

Everything here is a static approximation: names are resolved through
import aliases only (no type inference), and unresolvable calls (on
parameters, on arbitrary attributes) simply contribute no edges. Rules
are tuned so that approximation errs toward silence, with the baseline
and suppression layers absorbing the residue.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.suppressions import SuppressionTable, collect_suppressions

#: The module-level registration PAR001 reads: a tuple of function
#: names that executor backends run as task payloads.
ENTRY_POINT_REGISTRY = "TASK_ENTRY_POINTS"

#: Container constructors whose results are module-level mutable state.
_MUTABLE_CONSTRUCTORS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "collections.defaultdict",
    "collections.deque",
    "collections.OrderedDict",
    "collections.Counter",
    "defaultdict",
    "deque",
    "OrderedDict",
    "Counter",
}

#: Calls that look like classes but produce immutable values.
_IMMUTABLE_CONSTRUCTORS = {"tuple", "frozenset", "namedtuple"}

#: Method names that mutate their receiver in place.
MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "appendleft",
    "extendleft",
    "popleft",
    "sort",
    "reverse",
    "take",
}


def dotted_name(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``, or None for non-name bases."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def attach_parents(tree: ast.AST) -> None:
    """Set ``_detlint_parent`` on every node (rules walk ancestors)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._detlint_parent = node  # type: ignore[attr-defined]


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, "_detlint_parent", None)


def ancestors(node: ast.AST) -> Iterable[ast.AST]:
    current = parent_of(node)
    while current is not None:
        yield current
        current = parent_of(current)


def derive_modname(path: pathlib.Path) -> str:
    """Dotted module name from package structure (``__init__`` walk)."""
    path = path.resolve()
    parts: List[str] = [] if path.stem == "__init__" else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts) if parts else path.stem


@dataclass
class ModuleSource:
    """One parsed source file plus the lookup tables rules use."""

    path: pathlib.Path
    #: Reporting/fingerprint path: scan-root basename + inner path.
    relpath: str
    modname: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: Local alias -> dotted target ("np" -> "numpy",
    #: "Random" -> "random.Random").
    imports: Dict[str, str] = field(default_factory=dict)
    suppressions: SuppressionTable = field(default_factory=SuppressionTable)
    is_package: bool = False

    @classmethod
    def parse(
        cls, path: pathlib.Path, relpath: str
    ) -> Optional["ModuleSource"]:
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError):
            return None
        attach_parents(tree)
        module = cls(
            path=path,
            relpath=relpath,
            modname=derive_modname(path),
            source=source,
            tree=tree,
            lines=source.splitlines(),
            suppressions=collect_suppressions(source),
            is_package=path.stem == "__init__",
        )
        module._collect_imports()
        return module

    def _package(self) -> str:
        if self.is_package:
            return self.modname
        head, _, _tail = self.modname.rpartition(".")
        return head

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.imports[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    package = self._package()
                    for _ in range(node.level - 1):
                        package, _, _tail = package.rpartition(".")
                    base = (
                        "{}.{}".format(package, base) if base else package
                    )
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = (
                        "{}.{}".format(base, alias.name) if base
                        else alias.name
                    )

    def resolve_dotted(self, node: ast.AST) -> Optional[str]:
        """Resolve an expression to a dotted name through the alias
        table; ``hash`` stays ``hash`` (no alias means builtin/global).
        """
        parts = dotted_name(node)
        if parts is None:
            return None
        target = self.imports.get(parts[0])
        if target is not None:
            parts = target.split(".") + parts[1:]
        return ".".join(parts)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def _is_mutable_binding(module: ModuleSource, value: ast.AST) -> bool:
    if isinstance(
        value,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
         ast.SetComp),
    ):
        return True
    if isinstance(value, ast.Call):
        resolved = module.resolve_dotted(value.func)
        if resolved is None:
            return False
        if resolved in _IMMUTABLE_CONSTRUCTORS:
            return False
        if resolved in _MUTABLE_CONSTRUCTORS:
            return True
        # A call to a CapWords name is (conservatively) a class
        # instance — mutable unless proven otherwise. Only the last
        # segment matters ("repro.core.gtree.StarIdAllocator").
        tail = resolved.rpartition(".")[2]
        return tail[:1].isupper()
    return False


@dataclass
class ProjectIndex:
    """Cross-module lookup tables for the whole lint run."""

    modules: Dict[str, ModuleSource] = field(default_factory=dict)
    #: (modname, name) -> def node, for top-level functions and classes.
    functions: Dict[Tuple[str, str], ast.AST] = field(default_factory=dict)
    #: modname -> {binding name: lineno} of module-level mutables.
    module_mutables: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Module-level mutables mutated anywhere in the project.
    mutated: Set[Tuple[str, str]] = field(default_factory=set)
    #: (modname, funcname) pairs registered as executor task payloads.
    entry_points: List[Tuple[str, str]] = field(default_factory=list)

    @classmethod
    def build(cls, modules: Sequence[ModuleSource]) -> "ProjectIndex":
        index = cls()
        for module in modules:
            index.modules[module.modname] = module
            index._index_module(module)
        for module in modules:
            index._index_mutations(module)
        return index

    def modules_in_order(self) -> List[ModuleSource]:
        return sorted(self.modules.values(), key=lambda m: m.relpath)

    # -- construction ------------------------------------------------

    def _index_module(self, module: ModuleSource) -> None:
        mutables: Dict[str, int] = {}
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.functions[(module.modname, node.name)] = node
            targets: List[ast.expr] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == ENTRY_POINT_REGISTRY:
                    self._register_entry_points(module, value)
                elif _is_mutable_binding(module, value):
                    mutables[target.id] = node.lineno
        if mutables:
            self.module_mutables[module.modname] = mutables

    def _register_entry_points(
        self, module: ModuleSource, value: ast.AST
    ) -> None:
        if not isinstance(value, (ast.Tuple, ast.List)):
            return
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                self.entry_points.append((module.modname, element.value))

    def _index_mutations(self, module: ModuleSource) -> None:
        """Record which module-level mutables the project ever mutates."""
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for t in targets:
                    if isinstance(t, (ast.Subscript, ast.Attribute)):
                        base = t.value
                        hit = self.resolve_module_var(module, base)
                        if hit is not None:
                            self.mutated.add(hit)
                    elif isinstance(t, ast.Name):
                        # Only `global`-declared rebinding inside a
                        # function counts: the defining (module-scope)
                        # assignment runs once at import time, before
                        # any concurrency exists.
                        hit = self.resolve_module_var(module, t)
                        if hit is not None and self._is_global_rebinding(t):
                            self.mutated.add(hit)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in MUTATING_METHODS:
                    target = node.func.value
                    hit = self.resolve_module_var(module, target)
                    if hit is not None:
                        self.mutated.add(hit)

    def _is_global_rebinding(self, name_node: ast.Name) -> bool:
        """True when a function-scope store rebinds a module-level name
        through a ``global`` declaration (module-scope definition-time
        stores are import-time and not runtime mutation)."""
        enclosing = None
        for ancestor in ancestors(name_node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                enclosing = ancestor
                break
        if enclosing is None:
            return False
        for node in ast.walk(enclosing):
            if isinstance(node, ast.Global) and name_node.id in node.names:
                return True
        return False

    # -- resolution --------------------------------------------------

    def resolve_module_var(
        self, module: ModuleSource, node: ast.AST
    ) -> Optional[Tuple[str, str]]:
        """Resolve an expression to a known module-level mutable
        binding: same-module names and from-imports of other modules'
        bindings both land here."""
        resolved = module.resolve_dotted(node)
        if resolved is None:
            return None
        if "." not in resolved:
            if resolved in self.module_mutables.get(module.modname, {}):
                return (module.modname, resolved)
            return None
        modpart, _, var = resolved.rpartition(".")
        if var in self.module_mutables.get(modpart, {}):
            return (modpart, var)
        return None

    def resolve_function(
        self, module: ModuleSource, call_func: ast.AST
    ) -> Optional[Tuple[str, str]]:
        """Resolve a call target to a project function/class, if any."""
        resolved = module.resolve_dotted(call_func)
        if resolved is None:
            return None
        if "." not in resolved:
            key = (module.modname, resolved)
            return key if key in self.functions else None
        modpart, _, name = resolved.rpartition(".")
        key = (modpart, name)
        return key if key in self.functions else None
