"""Versioned JSON encoding of learned objects (the artifact schema).

Everything GLADE learns — regex ASTs, generalization trees, grammars,
and the per-phase results — can be rendered to plain JSON-compatible
dictionaries and reconstructed exactly. The format is deliberately
dumb: every node is a dict with a ``"t"`` tag plus named fields, so the
artifact files are diffable and other tools can consume them without
importing this package.

Round-trip guarantees (enforced by ``tests/artifacts/``):

- ``regex_from_dict(regex_to_dict(r))`` is *structurally equal* to
  ``r`` (regex ASTs define structural equality, so this implies
  semantic identity);
- ``gtree_from_dict(gtree_to_dict(t))`` reproduces the tree shape,
  every constant's character classes, every star's ``star_id`` /
  repetition string / context, and hence ``to_regex()`` output;
- ``grammar_from_dict(grammar_to_dict(g))`` has identical productions
  in identical order (so ``str(g)`` round-trips byte for byte).

Versioning policy: :data:`SCHEMA_VERSION` is bumped whenever the
encoding changes incompatibly; the loader refuses mismatched versions
with a clear error instead of misreading them (see README.md for the
compatibility policy).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, List

from repro.core.context import Context
from repro.core.gtree import (
    AD_HOC_STAR_BASE,
    GAlt,
    GConcat,
    GConst,
    GHole,
    GNode,
    GRoot,
    GStar,
    HoleKind,
    reserve_ad_hoc_star_ids,
)
from repro.core.phase1 import Phase1Result
from repro.core.phase2 import Phase2Result
from repro.languages import regex as rx
from repro.languages.cfg import (
    CharSet,
    Grammar,
    Nonterminal,
    Production,
    Symbol,
)

#: Version of the artifact encoding; see the module docstring.
#: v2: per-seed ``seed_index`` on phase-1 results, run-level
#: ``execution`` (backend + worker count) and ``speculative_queries``
#: fields, the ``learned`` provisional seed state, and ``jobs`` /
#: ``backend`` in the config.
#: v3: run-level ``phase2_progress`` — the phase-2 execution record
#: (backend + worker count + pair totals) and the committed-pair
#: decision log (``merged`` / ``rejected`` / ``skipped`` per pair, in
#: plan order), which lets an interrupted run resume phase 2 from the
#: last committed pair instead of restarting the stage.
#: v4: optional run-level ``telemetry`` — the versioned observability
#: section (:mod:`repro.obs.export`: spans + metrics snapshot) written
#: by ``--trace`` runs. Absent/None means the run was not traced;
#: nothing in it participates in deterministic comparisons.
#: v5: phase-1 results drop ``trace`` and the phase-2 result drops
#: ``records``, the step and merge logs of the retired config switch
#: that filled them. Phase one's steps are ``step`` events in
#: ``telemetry``; phase two's decisions are
#: ``phase2_progress["decisions"]``.
SCHEMA_VERSION = 5


class ArtifactError(ValueError):
    """Raised for malformed or version-incompatible artifact data."""


class ArtifactCorrupt(ArtifactError):
    """An artifact file failed its content-integrity check.

    Distinguished from plain :class:`ArtifactError` so the checkpoint
    store can fall back to the last-good generation on truncation or
    bit rot, while schema/version problems still fail loudly.
    """


def from_known_fields(cls, data: Dict[str, Any]):
    """Build dataclass ``cls`` from ``data``, ignoring keys it no longer has.

    Documents written before a field was retired still carry its key (a
    run config's ``use_dense``, a suite subject's matcher-tier perf
    counters); dropping it keeps them loadable without a schema bump
    (older builds, in turn, load newer documents with their own
    defaults).
    """
    known = {spec.name for spec in fields(cls)}
    return cls(**{key: value for key, value in data.items() if key in known})


def _tag(data: Dict[str, Any], what: str) -> str:
    try:
        return data["t"]
    except (TypeError, KeyError):
        raise ArtifactError("malformed {} node: {!r}".format(what, data))


# --------------------------------------------------------------------------
# Regex ASTs


def regex_to_dict(expr: rx.Regex) -> Dict[str, Any]:
    """Encode a regex AST as a JSON-compatible dict."""
    if isinstance(expr, rx.Epsilon):
        return {"t": "eps"}
    if isinstance(expr, rx.EmptySet):
        return {"t": "empty"}
    if isinstance(expr, rx.Lit):
        return {"t": "lit", "text": expr.text}
    if isinstance(expr, rx.CharClass):
        return {"t": "class", "chars": "".join(expr.sorted_chars)}
    if isinstance(expr, rx.Concat):
        return {"t": "cat", "parts": [regex_to_dict(p) for p in expr.parts]}
    if isinstance(expr, rx.Alt):
        return {"t": "alt", "options": [regex_to_dict(o) for o in expr.options]}
    if isinstance(expr, rx.Star):
        return {"t": "star", "inner": regex_to_dict(expr.inner)}
    raise TypeError("unknown regex node: {!r}".format(expr))


def regex_from_dict(data: Dict[str, Any]) -> rx.Regex:
    """Decode a regex AST; inverse of :func:`regex_to_dict`.

    Raw node constructors are used (not the smart constructors), so the
    reconstructed AST is structurally identical — no re-flattening or
    literal fusion is applied.
    """
    tag = _tag(data, "regex")
    if tag == "eps":
        return rx.EPSILON
    if tag == "empty":
        return rx.EMPTY
    if tag == "lit":
        return rx.Lit(data["text"])
    if tag == "class":
        return rx.CharClass(frozenset(data["chars"]))
    if tag == "cat":
        return rx.Concat([regex_from_dict(p) for p in data["parts"]])
    if tag == "alt":
        return rx.Alt([regex_from_dict(o) for o in data["options"]])
    if tag == "star":
        return rx.Star(regex_from_dict(data["inner"]))
    raise ArtifactError("unknown regex tag: {!r}".format(tag))


# --------------------------------------------------------------------------
# Contexts


def context_to_list(context: Context) -> List[str]:
    return [context.left, context.right]


def context_from_list(data: List[str]) -> Context:
    return Context(data[0], data[1])


# --------------------------------------------------------------------------
# Generalization trees


def gtree_to_dict(node: GNode) -> Dict[str, Any]:
    """Encode a generalization-tree node (and subtree)."""
    if isinstance(node, GRoot):
        child = gtree_to_dict(node.children[0]) if node.children else None
        return {"t": "root", "child": child}
    if isinstance(node, GConst):
        return {
            "t": "const",
            "base_text": node.base_text,
            "context": context_to_list(node.context),
            "classes": ["".join(sorted(chars)) for chars in node.classes],
        }
    if isinstance(node, GStar):
        return {
            "t": "rep",
            "star_id": node.star_id,
            "rep_string": node.rep_string,
            "context": context_to_list(node.context),
            "inner": gtree_to_dict(node.inner),
        }
    if isinstance(node, GAlt):
        return {"t": "alt", "children": [gtree_to_dict(c) for c in node.children]}
    if isinstance(node, GConcat):
        return {"t": "cat", "children": [gtree_to_dict(c) for c in node.children]}
    if isinstance(node, GHole):
        return {
            "t": "hole",
            "kind": node.kind.value,
            "alpha": node.alpha,
            "context": context_to_list(node.context),
            "allow_full_star": node.allow_full_star,
        }
    raise TypeError("unknown tree node: {!r}".format(node))


def gtree_from_dict(data: Dict[str, Any]) -> GNode:
    """Decode a generalization tree; inverse of :func:`gtree_to_dict`.

    Restored stars keep their serialized ``star_id`` verbatim.
    Pipeline-learned ids need no reservation — they come from disjoint
    per-seed blocks (:func:`repro.core.gtree.seed_block_allocator`), so
    a resumed run's freshly learned seeds can never collide with
    restored ones. Restored *ad-hoc* ids (default-allocator block) do
    reserve, so mixing a restored ad-hoc tree with stars created ad hoc
    afterwards stays collision-free too.
    """
    tag = _tag(data, "tree")
    if tag == "root":
        root = GRoot()
        if data["child"] is not None:
            root.children = [gtree_from_dict(data["child"])]
        return root
    if tag == "const":
        const = GConst(data["base_text"], context_from_list(data["context"]))
        const.classes = [set(chars) for chars in data["classes"]]
        return const
    if tag == "rep":
        star = GStar(
            inner=gtree_from_dict(data["inner"]),
            rep_string=data["rep_string"],
            context=context_from_list(data["context"]),
            star_id=data["star_id"],
        )
        if star.star_id >= AD_HOC_STAR_BASE:
            reserve_ad_hoc_star_ids(star.star_id + 1)
        return star
    if tag == "alt":
        return GAlt([gtree_from_dict(c) for c in data["children"]])
    if tag == "cat":
        return GConcat([gtree_from_dict(c) for c in data["children"]])
    if tag == "hole":
        return GHole(
            kind=HoleKind(data["kind"]),
            alpha=data["alpha"],
            context=context_from_list(data["context"]),
            allow_full_star=data["allow_full_star"],
        )
    raise ArtifactError("unknown tree tag: {!r}".format(tag))


# --------------------------------------------------------------------------
# Grammars


def symbol_to_dict(symbol: Symbol) -> Dict[str, Any]:
    if isinstance(symbol, Nonterminal):
        return {"t": "nt", "name": symbol.name}
    if isinstance(symbol, CharSet):
        return {"t": "class", "chars": "".join(symbol.sorted_chars)}
    if isinstance(symbol, str):
        return {"t": "lit", "text": symbol}
    raise TypeError("unknown grammar symbol: {!r}".format(symbol))


def symbol_from_dict(data: Dict[str, Any]) -> Symbol:
    tag = _tag(data, "symbol")
    if tag == "nt":
        return Nonterminal(data["name"])
    if tag == "class":
        return CharSet(frozenset(data["chars"]))
    if tag == "lit":
        return data["text"]
    raise ArtifactError("unknown symbol tag: {!r}".format(tag))


def grammar_to_dict(grammar: Grammar) -> Dict[str, Any]:
    """Encode a grammar, preserving production order."""
    return {
        "start": grammar.start.name,
        "productions": [
            {
                "head": prod.head.name,
                "body": [symbol_to_dict(s) for s in prod.body],
            }
            for prod in grammar.productions
        ],
    }


def grammar_from_dict(data: Dict[str, Any]) -> Grammar:
    """Decode a grammar; inverse of :func:`grammar_to_dict`."""
    try:
        productions = [
            Production(
                head=Nonterminal(prod["head"]),
                body=tuple(symbol_from_dict(s) for s in prod["body"]),
            )
            for prod in data["productions"]
        ]
        return Grammar(Nonterminal(data["start"]), productions)
    except (TypeError, KeyError):
        raise ArtifactError("malformed grammar: {!r}".format(data))


# --------------------------------------------------------------------------
# Phase results


def phase1_result_to_dict(result: Phase1Result) -> Dict[str, Any]:
    """Encode a per-seed phase-one result (its tree and seed index)."""
    return {
        "seed_index": result.seed_index,
        "root": gtree_to_dict(result.root),
    }


def phase1_result_from_dict(data: Dict[str, Any]) -> Phase1Result:
    root = gtree_from_dict(data["root"])
    if not isinstance(root, GRoot):
        raise ArtifactError("phase-1 root is not a GRoot node")
    return Phase1Result(root=root, seed_index=data.get("seed_index", -1))


def phase2_result_to_dict(result: Phase2Result) -> Dict[str, Any]:
    """Encode the merge phase's outcome.

    ``representative`` is stored as a pair list because JSON object keys
    must be strings.
    """
    return {
        "grammar": grammar_to_dict(result.grammar),
        "representative": sorted(result.representative.items()),
    }


def phase2_result_from_dict(data: Dict[str, Any]) -> Phase2Result:
    return Phase2Result(
        grammar=grammar_from_dict(data["grammar"]),
        representative={i: rep for i, rep in data["representative"]},
    )
