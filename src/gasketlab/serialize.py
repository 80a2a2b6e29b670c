"""Model JSON schema and numeric formatting.

The on-disk schema is fixed, field order included:

    {"variant": "sg|stretched|harmonic", "alpha": <number, stretched only>,
     "level": <int>, "edges": [{"id": ..., "kind": ..., "gen": ...,
     "p": [...], "q": [...], "length": ..., "word": ...,
     "length_lo": ..., "length_hi": ...}, ...]}

``length_lo``/``length_hi`` appear only on harmonic-image edges.  All
numbers carry 17 significant digits, which round-trips doubles exactly,
so serialize(parse(text)) == text byte for byte.

A document is made as a sequence of blocks: the header line, the edge
lines of ``_BLOCK`` edges at a time, and the closing line.
``model_to_json`` joins them, ``write_model`` writes each as it is made,
and ``matches_json`` compares each with the text in place.  Formatting
is per number, so the bytes do not depend on where a block starts, and
neither writing nor checking needs more memory beyond the model (and
the text) than one block.

An sg or stretched document that ``model_to_json`` wrote for a built
model is fixed by its header: it is ``model_to_json`` of
``build_model(variant, level, alpha)``.  So the reader first checks
whether the text is exactly that document.  If the header is canonical
and the document has as many edge lines as the level implies, it
rebuilds the model and returns it when ``matches_json`` finds the text
is its document byte for byte, which costs a fraction of ``json.loads``
of the text.  The writer round-trips every double, -0.0 included, so the
rebuilt model equals the parsed one.  Any other document (harmonic,
edited, laid out differently, or one whose build hits the cap) is
parsed, with the same results and errors as without the check; a
canonical-looking document that differs pays one wasted build, and the
writing of its blocks up to the first one that differs.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

import numpy as np

from gasketlab.geometry import (
    EdgeCurve,
    EdgeTable,
    GasketError,
    GasketModel,
    build_model,
    edge_count,
)

_BLOCK = 4096       # edges per block of a written document
_FIELDS = ("id", "kind", "gen", "p", "q", "length", "word")
_BOUNDS = ("length_lo", "length_hi")

# the first line of a document that ``build_model`` fixes; ``_header`` then
# decides whether it is the canonical one
_BUILT_HEADER = re.compile(r'\{"variant": "(sg|stretched)", '
                           r'(?:"alpha": (-?\d+(?:\.\d+)?(?:e[-+]\d+)?), )?'
                           r'"level": (\d{1,3}), "edges": \[\n')


def format_number(x: float) -> str:
    """17-significant-digit decimal form of a double."""
    return "%.17g" % float(x)


def _point(dim: int) -> str:
    return "[" + ", ".join(["%s"] * dim) + "]"


def _formatted(numbers: np.ndarray) -> list[list[str]]:
    """``format_number`` of every entry of an (E, k) float array, as k
    column lists.  Model coordinates and lengths repeat (a node is an end
    of several edges), so each distinct double is formatted once, told
    apart by its bits so that -0.0 keeps its sign."""
    bits, inverse = np.unique(numbers.view(np.int64), return_inverse=True)
    text = np.array(["%.17g" % v for v in bits.view(float).tolist()], dtype=object)
    return text[inverse.reshape(numbers.shape)].T.tolist()


def _edge_lines(edges: EdgeTable, rows: slice) -> list[str]:
    """One line per edge of ``rows``, each from one %-template over the
    column lists."""
    dp, dq = edges.p.shape[1], edges.q.shape[1]
    template = ('  {"id": %d, "kind": %s, "gen": %d, "p": ' + _point(dp) + ', "q": '
                + _point(dq) + ', "length": %s, "word": %s}')
    bounds = [] if edges.length_lo is None else [edges.length_lo[rows], edges.length_hi[rows]]
    numbers = _formatted(np.column_stack([edges.p[rows], edges.q[rows],
                                          edges.length[rows], *bounds]))
    # json.dumps of a str is encode_basestring_ascii, without the call overhead
    columns = [edges.id[rows].tolist(), map(encode_basestring_ascii, edges.kind[rows]),
               edges.gen[rows].tolist(), *numbers[:dp + dq + 1],
               map(encode_basestring_ascii, edges.word[rows])]
    lines = [template % row for row in zip(*columns)]
    if bounds:
        lines = [line if math.isnan(lo) else
                 line[:-1] + ', "length_lo": %s, "length_hi": %s}' % (lo_text, hi_text)
                 for line, lo, lo_text, hi_text in zip(lines, bounds[0].tolist(),
                                                       *numbers[dp + dq + 1:])]
    return lines


def _header(variant: str, alpha: "float | None", level: int) -> str:
    head = [f'"variant": {json.dumps(variant)}']
    if alpha is not None:
        head.append(f'"alpha": {format_number(alpha)}')
    head.append(f'"level": {level}')
    return "{" + ", ".join(head) + ', "edges": ['


def _blocks(model: GasketModel) -> Iterator[str]:
    """The document of ``model`` in consecutive pieces: the header line,
    the edge lines ``_BLOCK`` edges at a time, and the closing line."""
    yield _header(model.variant, model.alpha, model.level) + "\n"
    count = len(model.edges)
    for start in range(0, count, _BLOCK):
        yield ((",\n" if start else "")
               + ",\n".join(_edge_lines(model.edges, slice(start, start + _BLOCK))))
    yield "\n]}\n" if count else "]}\n"


def model_to_json(model: GasketModel) -> str:
    """Serialize a model to the fixed-order schema (trailing newline)."""
    return "".join(_blocks(model))


def matches_json(model: GasketModel, text: str) -> bool:
    """Whether ``text`` is ``model_to_json(model)``, byte for byte.

    Each block is compared in place as it is made, and the first one that
    differs ends the check, so the whole document is never held.
    """
    pos = 0
    for block in _blocks(model):
        if not text.startswith(block, pos):
            return False
        pos += len(block)
    return pos == len(text)


def _uniform_table(edges) -> "EdgeTable | None":
    """The columns of edges that all carry the same keys, read with one
    ``np.array`` call per numeric field and checked with one vectorised
    finite and non-negative test; None when an edge needs ``_row_table``:
    a key set that varies, a value that will not convert or gives the wrong
    shape, a null (which ``np.array`` reads as NaN) or a bad length."""
    try:
        keys = _FIELDS + _BOUNDS if edges and "length_lo" in edges[0] else _FIELDS
        if sum(map(len, edges)) != len(keys) * len(edges):
            return None
        if not edges:
            return EdgeTable.from_rows(())
        cols = {k: [e[k] for e in edges] for k in keys}
        lengths = ("length",) + keys[len(_FIELDS):]
        num = {k: np.array(cols[k], dtype=float) for k in ("p", "q") + lengths}
        table = EdgeTable(np.array(cols["id"], dtype=np.int64), map(str, cols["kind"]),
                          np.array(cols["gen"], dtype=np.int64), num["p"], num["q"],
                          num["length"], map(str, cols["word"]),
                          num.get("length_lo"), num.get("length_hi"))
    except (KeyError, TypeError, ValueError, OverflowError, IndexError):
        return None
    every = np.concatenate([num[k] for k in lengths])
    if np.isnan(num["p"]).any() or np.isnan(num["q"]).any() or not (
            np.isfinite(every).all() and (every >= 0.0).all()):
        return None
    return table


def _row_table(edges) -> EdgeTable:
    """Edge by edge, with Python's int, float and str conversions: the
    first conversion error in document order, or else the first edge with
    a bad length, is the one raised."""
    rows = tuple(
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
        for e in edges
    )
    _check_lengths(rows)
    return EdgeTable.from_rows(rows)


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


def _rebuilt(text: str) -> "GasketModel | None":
    """The built model whose document is exactly ``text``, or None.

    Only a canonical sg or stretched header with as many edge lines as its
    level implies gets as far as ``build_model``; a build that fails (the
    cap, a bad alpha) gives None too.
    """
    head = _BUILT_HEADER.match(text) if isinstance(text, str) else None
    if head is None:
        return None
    variant, level = head[1], int(head[3])
    alpha = None if head[2] is None else float(head[2])
    if (_header(variant, alpha, level) + "\n" != head[0]
            or text.count("\n") != edge_count(variant, level) + 2):
        return None
    try:
        model = build_model(variant, level, alpha)
    except GasketError:
        return None
    return model if matches_json(model, text) else None


def model_from_json(text: str) -> GasketModel:
    """Read a model document back into an immutable model.

    A document that ``model_to_json`` writes for a built sg or stretched
    model is rebuilt and checked byte for byte (``_rebuilt``,
    ``matches_json``); any other is parsed.
    """
    model = _rebuilt(text)
    return _parsed(text) if model is None else model


def _parsed(text: str) -> GasketModel:
    """Parse a model document.

    A document whose edges all carry the same keys with valid values (every
    document ``model_to_json`` writes) is read column by column.  Any other
    is read again edge by edge, so that a malformed document reports its
    first fault in document order, and one with bounds on only some edges
    keeps them where they are.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GasketError(f"invalid model JSON: {exc}") from exc
    try:
        edges = doc["edges"]
        table = _uniform_table(edges)
        if table is None:
            table = _row_table(edges)
        return GasketModel(
            variant=str(doc["variant"]),
            alpha=float(doc["alpha"]) if "alpha" in doc else None,
            level=int(doc["level"]),
            edges=table,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GasketError(f"malformed model document: {exc}") from exc


def write_model(model: GasketModel, path: str) -> None:
    """Write ``model_to_json(model)`` to a file, one block at a time."""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_blocks(model))


def read_model(path: str) -> GasketModel:
    with open(path, "r", encoding="ascii") as fh:
        return model_from_json(fh.read())
