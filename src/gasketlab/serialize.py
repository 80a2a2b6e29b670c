"""Model JSON schema and numeric formatting.

The on-disk schema is fixed, field order included:

    {"variant": "sg|stretched|harmonic", "alpha": <number, stretched only>,
     "level": <int>, "edges": [{"id": ..., "kind": ..., "gen": ...,
     "p": [...], "q": [...], "length": ..., "word": ...,
     "length_lo": ..., "length_hi": ...}, ...]}

``length_lo``/``length_hi`` appear only on harmonic-image edges.  All
numbers carry 17 significant digits, which round-trips doubles exactly,
so serialize(parse(text)) == text byte for byte.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from gasketlab.geometry import EdgeCurve, GasketError, GasketModel


def format_number(x: float) -> str:
    """17-significant-digit decimal form of a double."""
    return "%.17g" % float(x)


def _point(values: Iterable[float]) -> str:
    return "[" + ", ".join(format_number(v) for v in values) + "]"


def _edge_json(edge: EdgeCurve) -> str:
    fields = [
        f'"id": {edge.id}',
        f'"kind": {json.dumps(edge.kind)}',
        f'"gen": {edge.gen}',
        f'"p": {_point(edge.p)}',
        f'"q": {_point(edge.q)}',
        f'"length": {format_number(edge.length)}',
        f'"word": {json.dumps(edge.word)}',
    ]
    if edge.length_lo is not None:
        fields.append(f'"length_lo": {format_number(edge.length_lo)}')
        fields.append(f'"length_hi": {format_number(edge.length_hi)}')
    return "{" + ", ".join(fields) + "}"


def model_to_json(model: GasketModel) -> str:
    """Serialize a model to the fixed-order schema (trailing newline)."""
    head = [f'"variant": {json.dumps(model.variant)}']
    if model.alpha is not None:
        head.append(f'"alpha": {format_number(model.alpha)}')
    head.append(f'"level": {model.level}')
    lines = ["{" + ", ".join(head) + ', "edges": [']
    body = ",\n".join("  " + _edge_json(e) for e in model.edges)
    if body:
        lines.append(body)
    lines.append("]}")
    return "\n".join(lines) + "\n"


def _check_lengths(edges: tuple[EdgeCurve, ...]) -> None:
    """Reject a negative or non-finite length, lower or upper bound.

    Shortest-path searches assume non-negative weights: across a negative
    arc each relaxation lowers both ends again, and the search never ends.
    Zero stays legal.
    """
    for e in edges:
        if not (0.0 <= e.length < math.inf and (
                e.length_lo is None
                or 0.0 <= e.length_lo < math.inf and 0.0 <= e.length_hi < math.inf)):
            raise GasketError(
                f"edge {e.id}: lengths must be finite and non-negative, got "
                f"length={e.length}, length_lo={e.length_lo}, length_hi={e.length_hi}")


def model_from_json(text: str) -> GasketModel:
    """Parse a model document back into an immutable model."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GasketError(f"invalid model JSON: {exc}") from exc
    try:
        edges = tuple(
            EdgeCurve(
                id=int(e["id"]),
                kind=str(e["kind"]),
                gen=int(e["gen"]),
                p=tuple(float(v) for v in e["p"]),
                q=tuple(float(v) for v in e["q"]),
                length=float(e["length"]),
                word=str(e["word"]),
                length_lo=float(e["length_lo"]) if "length_lo" in e else None,
                length_hi=float(e["length_hi"]) if "length_hi" in e else None,
            )
            for e in doc["edges"]
        )
        _check_lengths(edges)
        return GasketModel(
            variant=str(doc["variant"]),
            alpha=float(doc["alpha"]) if "alpha" in doc else None,
            level=int(doc["level"]),
            edges=edges,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GasketError(f"malformed model document: {exc}") from exc


def write_model(model: GasketModel, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(model_to_json(model))


def read_model(path: str) -> GasketModel:
    with open(path, "r", encoding="ascii") as fh:
        return model_from_json(fh.read())
