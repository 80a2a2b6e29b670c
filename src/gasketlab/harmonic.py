"""The harmonic embedding of the gasket and its image-edge length bounds.

The vertex energy at level n is the sum of squared differences over the
3^(n+1) cell-edge pairs, each pair counted once.  Extending vertex data
to the next level so the energy is minimal decouples cell by cell: the
three new midpoint values of a cell depend only on its corner values,
through a linear rule derived here by solving the normal equations of
the one-cell quadratic form (it comes out as (2a+2b+c)/5 for the
midpoint opposite c; ``_harmonic_rule``).  Under that extension the
energy contracts by exactly 3/5 per level.

Embedding the gasket through the triple of harmonic functions with
Kronecker boundary data,

    Phi(x) = ((h1(x), h2(x), h3(x)) - (1/3, 1/3, 1/3)) / sqrt(2),

gives the harmonic gasket: a self-affine set in the plane
Z = {x + y + z = 0} generated by three affine contractions with
singular values 3/5 and 1/5.  Each contraction fixes one corner image
Phi(p_j) and satisfies the exact intertwining
``Phi . f_j = (corner map j) . Phi`` with the midpoint contractions f_j
of the flat gasket.  (The axis unit vectors q_j of the contractions have
the corner images at q_j/sqrt(3); the corner image, not q_j itself, is
the fixed point under this normalization of Phi.)

Cells are addressed as in :mod:`gasketlab.geometry`, by ``str`` words
over the letters 1, 2, 3 read root-first.

Image edges have no closed-form length; ``edge_length_tables`` brackets
every edge of generations 0..n between a dyadic polyline length (below)
and a sampled-diameter envelope (above).  Both come from one exact
identity: Phi is affine in (h1, h2, h3) with h1 + h2 + h3 = 1, and
h . f_w is harmonic with corner values h(f_w p_j), so for every base
point y

    Phi(f_w y) = sum_j h_j(y) Phi(f_w p_j).

A point of cell w's image has the base point's harmonic values as
barycentric weights on the corner images of w.  Edge polylines and
length tables therefore need only the level-n corner images and the
level-k harmonic values along the three base edges, never the level
n+k mesh.  The h_j are >= 0 and the midpoint rule's weights (2, 2, 1)/5
are convex, so every sampled image of a cell lies in the triangle of
its corner images, and the sampled diameter is the largest corner chord.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from gasketlab.geometry import (
    GasketError,
    GasketModel,
    ResourceCapError,
    TRIANGLE_EDGE_CORNERS,
    _edge_table,
    _frozen,
    _generation_starts,
    _stacked_cells,
    _triangle_ends,
    edge_cap,
    sg_hierarchy,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)


# ---------------------------------------------------------------------------
# The minimizing midpoint rule
# ---------------------------------------------------------------------------


def _derive_midpoint_rule() -> np.ndarray:
    """Solve the one-cell normal equations for the minimizing midpoints.

    Unknowns are the midpoints (m_ab, m_ac, m_bc) of a single cell with
    corner values (a, b, c) held fixed; the quadratic form is the next
    level's energy restricted to the cell's three sub-cells.  Returns R
    with (m_ab, m_ac, m_bc) = R @ (a, b, c).
    """
    # variable order: a, b, c, m_ab, m_ac, m_bc
    pairs = [(0, 3), (0, 4), (3, 4),      # sub-cell at corner a
             (3, 1), (3, 5), (1, 5),      # sub-cell at corner b
             (4, 5), (4, 2), (5, 2)]      # sub-cell at corner c
    q = np.zeros((6, 6))
    for i, j in pairs:
        q[i, i] += 1.0
        q[j, j] += 1.0
        q[i, j] -= 1.0
        q[j, i] -= 1.0
    q_mm = q[3:, 3:]
    q_mc = q[3:, :3]
    return np.linalg.solve(q_mm, -q_mc)


MIDPOINT_RULE = _derive_midpoint_rule()


# ---------------------------------------------------------------------------
# The embedding Phi
# ---------------------------------------------------------------------------


def _harmonic_rule(corners: np.ndarray) -> np.ndarray:
    """Minimizing midpoint values (C, 3, 3) from corner values (3, C, 3)."""
    return np.einsum("ij,jck->cik", MIDPOINT_RULE, corners)


@lru_cache(maxsize=16)
def _h_arrays(level: int) -> np.ndarray:
    """(N, 3) array of the three basis harmonics on V_level (cached); its
    first 3 (3^m + 1)/2 rows are those on V_m (prefix invariant)."""
    arr = np.eye(3)
    for mesh in sg_hierarchy(level)[:-1]:
        arr = np.concatenate([arr, _harmonic_rule(arr[mesh.cells.T]).reshape(-1, 3)])
    return _frozen(arr)


def _phi(h: np.ndarray) -> np.ndarray:
    """Phi of the points whose harmonic values are ``h`` (..., 3)."""
    return (h - 1.0 / 3.0) / SQRT2


@lru_cache(maxsize=16)
def phi_coordinates(level: int) -> np.ndarray:
    """Images of all level-n vertices under the harmonic embedding, (N, 3).

    Cached and shared: the array is read-only.
    """
    return _frozen(_phi(_h_arrays(level)))


# ---------------------------------------------------------------------------
# Affine structure of the harmonic gasket
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarmonicStructure:
    """The plane Z, its corner axes, and the three affine contractions.

    ``projector`` is the orthogonal projection of R^3 onto Z;
    ``corner_axes`` holds the unit vectors q_j = 3 P b_j / sqrt(6) as
    columns and ``corner_perps`` their in-plane orthogonal complements
    q'_j.  ``contractions[j]`` acts as 3/5 along q_j, 1/5 along q'_j and
    0 across Z; it does not depend on the sign choice of q'_j.  The
    affine corner maps fix the corner images Phi(p_j) = q_j / sqrt(3).
    """

    projector: np.ndarray
    corner_axes: np.ndarray
    corner_perps: np.ndarray
    contractions: tuple[np.ndarray, ...]
    corner_images: np.ndarray


@lru_cache(maxsize=1)
def harmonic_structure() -> HarmonicStructure:
    """Structure constants, built once; the arrays are read-only."""
    projector = (np.full((3, 3), -1.0) + 3.0 * np.eye(3)) / 3.0
    axes = 3.0 * projector / SQRT6                       # columns q_j
    normal = np.ones(3) / SQRT3
    perps = np.stack([np.cross(normal, axes[:, j]) for j in range(3)], axis=1)
    contractions = tuple(
        0.6 * np.outer(axes[:, j], axes[:, j])
        + 0.2 * np.outer(perps[:, j], perps[:, j])
        for j in range(3)
    )
    images = axes / SQRT3
    for arr in (projector, axes, perps, images, *contractions):
        arr.flags.writeable = False
    return HarmonicStructure(projector, axes, perps, contractions, images)


# ---------------------------------------------------------------------------
# Image-edge length bounds
# ---------------------------------------------------------------------------


def _require_cap(gen: int, depth: int, samples: int) -> None:
    """Refuse a pass before it allocates anything.

    A pass over generation-``gen`` cells at subdivision ``depth`` reads
    the level-gen and level-depth meshes and allocates ``samples`` rows
    of points or segments; the largest of the three counts is held to
    the edge cap.
    """
    need = max(3 ** gen, 3 ** depth, samples)
    if need > edge_cap():
        if need > 10 ** 4000:       # int() prints no more than 4,300 digits
            need = "more than 10^4000"
        raise ResourceCapError(
            f"generation {gen} at subdivision depth {depth} needs {need} "
            f"cells or samples, cap is {edge_cap()}"
        )


def _dyadic_offsets(i: int, j: int, depth: int) -> np.ndarray:
    """Base-3 row offsets of the depth-k cells along local edge (i, j).

    Walking the edge from corner i to corner j visits the descendant
    cells whose address suffixes run over {i, j}^k in binary counting
    order with i < j.
    """
    offs = np.zeros(1, dtype=np.int64)
    for _ in range(depth):
        offs = np.concatenate([offs * 3 + i, offs * 3 + j])
    return offs


def _dyadic_weights(i: int, j: int, depth: int) -> np.ndarray:
    """Harmonic values at the corners of the depth-k cells along base edge (i, j).

    Shape (2^k, 3 corners, 3 values h_1..h_3), cells in walking order.
    """
    cells = sg_hierarchy(depth)[depth].cells
    return _h_arrays(depth)[cells[_dyadic_offsets(i, j, depth)]]


def _on_cells(weights: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Apply base-point weights to the corner images of many cells.

    ``weights`` (S, 3) holds harmonic values h(y) of base points y, or
    differences of them; ``corners`` (C, 3, 3) holds Phi(f_w p_j).
    Returns (C, S, 3): Phi(f_w y) = sum_j h_j(y) Phi(f_w p_j), or the
    chord vectors between such images.  The three terms are summed left
    to right, (w0 c0 + w1 c1) + w2 c2, as plain multiplies and adds:
    faster than ``np.einsum`` here, and unlike ``np.matmul`` it rounds
    as the scalar formula does.
    """
    return ((weights[:, 0, None] * corners[:, None, 0]
             + weights[:, 1, None] * corners[:, None, 1])
            + weights[:, 2, None] * corners[:, None, 2])


def _segment_bounds(corners: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge (lo, hi) arrays for the cells with corner images ``corners``.

    Edge order: cell-major, local-minor, the model's order in a generation.
    A segment of a generation-n edge is the image of a depth-k cell u
    along the base edge; its corner images are Phi(f_w f_u p_c) =
    sum_j h_j(f_u p_c) Phi(f_w p_j), so chord vectors are differences of
    the level-k harmonic values applied to the corners of cell w.
    Lower bound: chord polyline through the 2^k+1 dyadic vertex images.
    Upper bound: per segment, twice the diameter of its depth-(gen+k)
    cell's image, sampled at its corners and midpoints.  The midpoint
    values are (2, 2, 1)/5 averages of the corner values, so all six
    images lie in the triangle of the three corner images and the
    sampled diameter is the largest of the three corner chords.
    """
    ncell = len(corners)
    lo = np.empty((ncell, 3))
    hi = np.empty((ncell, 3))
    for local, (i, j) in enumerate(TRIANGLE_EDGE_CORNERS):
        w = _dyadic_weights(i, j, depth)                  # (S, 3, 3)
        # corner pairs (0, 1), (0, 2), (1, 2); pair {i, j} sits at i + j - 1
        diffs = w[:, [0, 0, 1]] - w[:, [1, 2, 2]]         # (S, 3 pairs, 3)
        chords = np.linalg.norm(
            _on_cells(diffs.reshape(-1, 3), corners), axis=-1
        ).reshape(ncell, -1, 3)                           # (C, S, 3 pairs)
        lo[:, local] = chords[:, :, i + j - 1].sum(axis=1)
        hi[:, local] = 2.0 * chords.max(axis=2).sum(axis=1)
    return lo.reshape(-1), hi.reshape(-1)


def _checked_cache(check, maxsize: int):
    """``lru_cache`` whose ``check`` runs on every call, hits included, so
    an edge cap lowered after a miss still refuses the cached result.

    The decorated function keeps ``cache_info`` and ``cache_clear``;
    ``__wrapped__`` is the uncached function.
    """
    def decorate(fn):
        cached = lru_cache(maxsize=maxsize)(fn)

        @wraps(fn)
        def call(*args, **kwargs):
            check(*args, **kwargs)
            return cached(*args, **kwargs)

        call.cache_info = cached.cache_info
        call.cache_clear = cached.cache_clear
        return call
    return decorate


def _check_tables(max_gen: int, depth: int) -> None:
    if depth < 1:
        raise GasketError("subdivision depth must be >= 1")
    _require_cap(max_gen, depth, 3 ** (max_gen + 1) * 2 ** depth)


@_checked_cache(_check_tables, maxsize=8)
def edge_length_tables(max_gen: int, depth: int):
    """Length-bound tables [(lo, hi)] for generations 0..max_gen (cached).

    Reads the level-max_gen and level-depth meshes only, in one pass over
    the stacked cells; the largest table, 3^(max_gen+1) 2^depth segments,
    is held to the edge cap before anything is built and on every hit.
    """
    _check_tables(max_gen, depth)
    stack = _stacked_cells(sg_hierarchy(max_gen))
    lo, hi = map(_frozen, _segment_bounds(phi_coordinates(max_gen)[stack], depth))
    starts = [3 * start for start in _generation_starts(max_gen)]
    return tuple((lo[a:b], hi[a:b]) for a, b in zip(starts, starts[1:]))


def edge_polylines(level: int, depth: int) -> np.ndarray:
    """Dyadic sample points of every level-``level`` image edge in model
    edge order, (3^(level+1), 2^k + 1, 3).

    Each edge's points are the base-edge dyadic points carried onto its
    cell, Phi(f_w y) = sum_j h_j(y) Phi(f_w p_j): one ``_on_cells`` batch
    per local edge.  The samples are held to the edge cap before anything
    is built.
    """
    npts = 2 ** depth + 1
    _require_cap(level, depth, 3 ** (level + 1) * npts)
    corners = phi_coordinates(level)[sg_hierarchy(level)[level].cells]
    out = np.empty((len(corners), 3, npts, 3))
    for local, (i, j) in enumerate(TRIANGLE_EDGE_CORNERS):
        w = _dyadic_weights(i, j, depth)
        out[:, local] = _on_cells(np.concatenate([w[:, i], w[-1:, j]]), corners)
    return out.reshape(-1, npts, 3)


def gasket_diameter() -> float:
    """Diameter of the embedded gasket: its largest corner chord (module docstring)."""
    pts = phi_coordinates(0)
    gaps = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    return float(gaps.max())


def build_harmonic_model(level: int, depth: int = 4) -> GasketModel:
    """Edge-list model of the harmonic gasket at one level.

    Mirrors the classical skeleton; endpoints are vertex images in the
    plane Z and each edge carries polyline/envelope length bounds at the
    given subdivision depth.  The ``length`` field holds the lower
    (polyline) estimate.
    """
    cells = sg_hierarchy(level)[level].cells
    return GasketModel("harmonic", None, level, _edge_table(
        phi_coordinates(level), _triangle_ends(cells), [("harmonic-image", level)],
        bounds=edge_length_tables(level, depth)[level]), depth)
