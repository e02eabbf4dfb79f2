"""Encoders only the tests need: the regex AST's JSON form and the
fault-injection spec's text form, each checked against the product's
decoder or parser for a round trip."""

from __future__ import annotations

from typing import Any, Dict

from repro.artifacts.schema import ArtifactError, _tag
from repro.languages import regex as rx
from repro.learning.resilience import FaultPlan


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


def format_fault_spec(plan: FaultPlan) -> str:
    """Inverse of :func:`~repro.learning.resilience.parse_fault_spec`."""
    parts = []
    for kind, indices in (
        ("transient", plan.transient),
        ("timeout", plan.timeout),
        ("kill", plan.kill),
    ):
        if indices:
            parts.append(
                "{}@{}".format(
                    kind, ",".join(str(i) for i in sorted(indices))
                )
            )
    return ";".join(parts)
