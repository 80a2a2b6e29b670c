"""SVG rendering of gasket models: one element per edge.

Straight edges become <line> elements.  Harmonic-image edges are curves;
they become <polyline> elements through their dyadic sample points,
projected from the plane Z to two dimensions in the (q_1, q'_1) basis.
Output bytes are a pure function of the model.

The bounding box and scale come from all the edges first; the pixel
coordinates and elements are then made ``_BLOCK`` edges at a time.  The
arithmetic is elementwise, so the bytes do not depend on where a block
starts, and ``emit_svg`` writes each block as it is made: beyond the
model and its drawing coordinates, writing holds one block.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from gasketlab.geometry import GasketModel

_BLOCK = 4096       # edges per block of a rendered document
_POLYLINE_DEPTH = 4
_WIDTH = 800


def _coord(x: float) -> str:
    return "%.8f" % x


def _project_plane(points: np.ndarray) -> np.ndarray:
    from gasketlab import harmonic

    st = harmonic.harmonic_structure()
    basis = np.stack([st.corner_axes[:, 0], st.corner_perps[:, 0]], axis=1)
    return points @ basis


def _model_segments(model: GasketModel) -> np.ndarray:
    """Per edge, its polyline vertices in drawing coordinates, (E, k, 2)."""
    edges = model.edges
    if model.variant != "harmonic":
        return np.stack([edges.p, edges.q], axis=1)
    from gasketlab import harmonic

    # harmonic models enumerate edges word-major, so id mod 3 is the
    # local edge index
    pts = harmonic.edge_polylines(edges.word, edges.id % 3 + 1, _POLYLINE_DEPTH)
    return _project_plane(pts)


def _blocks(model: GasketModel) -> Iterator[str]:
    """The SVG document in consecutive pieces: the three opening lines,
    the elements ``_BLOCK`` edges at a time, and the two closing lines."""
    segments = np.asarray(_model_segments(model), dtype=float)
    if len(segments):
        allpts = segments.reshape(-1, 2)
        lo = allpts.min(axis=0)
        hi = allpts.max(axis=0)
    else:
        lo = np.zeros(2)
        hi = np.ones(2)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.05 * span.max()
    lo = lo - margin
    span = span + 2 * margin
    scale = _WIDTH / span[0]
    height = int(round(span[1] * scale))

    yield ('<?xml version="1.0" encoding="UTF-8"?>\n'
           f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
           f'height="{height}" viewBox="0 0 {_WIDTH} {height}">\n'
           f'<g stroke="black" stroke-width="{_coord(_WIDTH / 1600.0)}" fill="none">\n')
    # one %-format per element; same digits as _coord
    if segments.shape[1:2] == (2,):
        element = '<line x1="%.8f" y1="%.8f" x2="%.8f" y2="%.8f"/>\n'
    else:
        element = ('<polyline points="'
                   + " ".join(["%.8f,%.8f"] * segments.shape[1]) + '"/>\n')
    for start in range(0, len(segments), _BLOCK):
        px = (segments[start:start + _BLOCK] - lo) * scale
        px[..., 1] = height - px[..., 1]        # SVG y axis points down
        yield "".join([element % tuple(row)
                       for row in px.reshape(len(px), -1).tolist()])
    yield "</g>\n</svg>\n"


def render_svg(model: GasketModel) -> str:
    """Render to an SVG document string, 800 units wide."""
    return "".join(_blocks(model))


def emit_svg(model: GasketModel, path: str) -> None:
    """Write the rendering to a file, one block at a time."""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_blocks(model))
