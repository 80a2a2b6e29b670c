"""Model JSON schema and numeric formatting.

The on-disk schema is fixed, field order included:

    {"variant": "sg|stretched|harmonic", "alpha": <number, stretched only>,
     "level": <int>, "depth": <int, harmonic only>, "edges": [{"id": ...,
     "kind": ..., "gen": ..., "p": [...], "q": [...], "length": ...,
     "word": ..., "length_lo": ..., "length_hi": ...}, ...]}

``length_lo``/``length_hi`` appear only on harmonic-image edges, whose
bounds are taken at subdivision ``depth``.  All numbers carry 17
significant digits, which round-trips doubles exactly.

A document is made as a sequence of blocks: the header line, the edge
lines of ``_BLOCK`` edges at a time, and the closing line.
``model_to_json`` joins them, ``write_model`` writes each as it is made,
and ``matches_json`` compares each with the text in place.  Formatting
is per number, so the bytes do not depend on where a block starts, and
neither writing nor checking needs more memory beyond the model (and
the text) than one block.

A document is fixed by its header: it is ``model_to_json`` of
``build_model(variant, level, alpha, harmonic_depth=depth)``.  So the
reader parses nothing.  It matches the header line, rebuilds the model
and returns it when ``matches_json`` finds the text is its document byte
for byte, which costs a fraction of ``json.loads`` of the text.  Any
other document (edited, laid out differently, with a header that is not
canonical or an edge-line count its level does not imply) is refused
with a ``GasketError``, and a header whose build exceeds the edge cap
with ``build_model``'s ``ResourceCapError``, before anything is built.
A canonical-looking document that differs pays one wasted build, and the
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
    EdgeTable,
    GasketError,
    GasketModel,
    build_model,
    edge_count,
)

_BLOCK = 4096       # edges per block of a written document

# the first line of a model document; ``_header`` then decides whether it is
# the canonical one
_BUILT_HEADER = re.compile(r'\{"variant": "(sg|stretched|harmonic)", '
                           r'(?:"alpha": (-?\d+(?:\.\d+)?(?:e[-+]\d+)?), )?'
                           r'"level": (\d{1,3}), (?:"depth": (\d{1,3}), )?"edges": \[\n')


def _refused(why: str) -> GasketError:
    return GasketError(f"model document refused: {why}")


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


def _header(variant: str, alpha: "float | None", level: int, depth: "int | None") -> str:
    head = [f'"variant": {json.dumps(variant)}']
    if alpha is not None:
        head.append(f'"alpha": {format_number(alpha)}')
    head.append(f'"level": {level}')
    if depth is not None:
        head.append(f'"depth": {depth}')
    return "{" + ", ".join(head) + ', "edges": ['


def _blocks(model: GasketModel) -> Iterator[str]:
    """The document of ``model`` in consecutive pieces: the header line,
    the edge lines ``_BLOCK`` edges at a time, and the closing line."""
    yield _header(model.variant, model.alpha, model.level, model.depth) + "\n"
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


def model_from_json(text: str) -> GasketModel:
    """The built model whose document is exactly ``text``.

    Only a canonical header with as many edge lines as its level implies
    gets as far as ``build_model``; any other document, and one that
    differs from the rebuilt model's, raises ``GasketError``.
    """
    head = _BUILT_HEADER.match(text) if isinstance(text, str) else None
    if head is None:
        raise _refused("its first line is not a header that build writes")
    variant, level = head[1], int(head[3])
    alpha = None if head[2] is None else float(head[2])
    depth = None if head[4] is None else int(head[4])
    if (depth is None) == (variant == "harmonic"):
        raise _refused(f"the {variant} header "
                       + ("needs a depth" if depth is None else "takes no depth"))
    if (_header(variant, alpha, level, depth) + "\n" != head[0]
            or text.count("\n") != edge_count(variant, level) + 2):
        raise _refused("its header or its edge-line count is not what build writes")
    # build_model reads harmonic_depth for the harmonic variant only
    model = build_model(variant, level, alpha, harmonic_depth=depth)
    if not matches_json(model, text):
        raise _refused(f"its bytes differ from the {variant} level {level} model "
                       "its header builds")
    return model


def write_model(model: GasketModel, path: str) -> None:
    """Write ``model_to_json(model)`` to a file, one block at a time."""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_blocks(model))


def read_model(path: str) -> GasketModel:
    with open(path, "r", encoding="ascii") as fh:
        return model_from_json(fh.read())
