"""Geometry of the Sierpinski gasket and its stretched variant.

Builds the triangle meshes behind the level-n graph approximations, the
contraction maps of the variants, and flat edge lists: triangle edges
at the finest level plus, for the stretched variant, the joining
segments accumulated over all coarser generations.  The harmonic variant
reuses the combinatorial skeleton built here; its curved-edge data lives
in :mod:`gasketlab.harmonic`.

Conventions fixed here and relied on throughout the package:

* corner points p1=(0,0), p2=(1/2, sqrt(3)/2), p3=(1,0);
* ``contractions`` holds map j as x -> M[j] x + b[j], j = 0..2 toward
  p1..p3 and (stretched) 3..5 the joining maps of the right, bottom, left;
* cell addresses are plain ``str`` words over the letters 1, 2, 3, read
  root-first: appending a letter descends into a sub-cell, and the mesh
  row index of a cell is its address read as a base-3 numeral;
* edges are ordered by (generation, address, local index).  Triangle
  edges of a cell run counterclockwise starting at the corner-1 image:
  local 1 = (c1 -> c3), 2 = (c3 -> c2), 3 = (c2 -> c1).  Joining edges
  of a cell use the fixed labels 1 = right, 2 = bottom, 3 = left;
* one subdivision step, ``_refine``, for every variant: a rule for the
  points each cell appends, and tables of its children (and joins);
* the prefix invariant: refinement only appends vertices, so level m's
  vertex coordinates and harmonic images (``harmonic.phi_coordinates``)
  are the first rows of every finer level's, bit for bit, and level-m
  cells and joining ids index the finest level's arrays directly;
* the stacked layout: ``_stacked_cells`` stacks the cells of generations
  0..L generation-major, generation g from row (3^g - 1)/2 on
  (``_generation_starts``), so one array pass serves every generation;
  a stretched model's generation-g joining edges start at id 3 (3^g - 1)/2;
* metric-graph node ids number an sg or stretched build's finest mesh
  points (``_mesh_graph``): the points rounded at 12 decimals, sorted by
  (x, y), points that round alike kept apart in mesh order.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, repeat
from typing import Optional

import numpy as np

SQRT3 = math.sqrt(3.0)

#: outer-triangle corners, rows = p1, p2, p3
CORNERS = np.array([[0.0, 0.0], [0.5, SQRT3 / 2.0], [1.0, 0.0]])
CORNERS.flags.writeable = False

VARIANTS = ("sg", "stretched", "harmonic")

DEFAULT_EDGE_CAP = 3 ** 13


class GasketError(Exception):
    """Base class for errors raised by this package."""


class ResourceCapError(GasketError):
    """Requested construction exceeds the configured edge cap."""


def edge_cap() -> int:
    """Current edge cap; GASKET_MAX_EDGES overrides the default 3^13."""
    raw = os.environ.get("GASKET_MAX_EDGES")
    if raw is None:
        return DEFAULT_EDGE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise GasketError(f"GASKET_MAX_EDGES={raw!r} is not an integer") from exc
    if cap <= 0:
        raise GasketError("GASKET_MAX_EDGES must be positive")
    return cap


def check_alpha(alpha: float) -> float:
    if not (0.0 < alpha < 1.0 / 3.0):
        raise GasketError(f"alpha must lie in (0, 1/3), got {alpha}")
    return float(alpha)


def _check_level(level: int) -> None:
    if level < 0:
        raise GasketError("level must be >= 0")


def _frozen(values, dtype=None) -> np.ndarray:
    """``values`` as a read-only array; an array of ``dtype`` is not copied."""
    arr = np.asarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Contraction maps
# ---------------------------------------------------------------------------


def _variant_alpha(variant: str, alpha: Optional[float]) -> Optional[float]:
    """The alpha ``variant`` takes: the checked alpha for stretched, else None."""
    if (alpha is None) == (variant == "stretched"):
        raise GasketError(f"{variant} variant takes no alpha" if alpha is not None
                          else "stretched variant requires alpha")
    return None if alpha is None else check_alpha(alpha)


@lru_cache(maxsize=8)
def contractions(variant: str, alpha: Optional[float] = None):
    """The generator maps as read-only arrays ``(M, b)``, map j sending x
    to M[j] x + b[j]: the paper's x -> A(x - p) + p, with b = p - A p.

    sg: ratio 1/2 toward each corner.  stretched: ratio (1 - alpha)/2
    toward each corner, then the rank-1 joining maps fixing the midpoints
    of the right, bottom and left sides.  harmonic: the contractions of
    the plane Z as 2x2 blocks in the (q_1, q'_1) basis, fixing the corner
    images.  Built on the first call, then cached.
    """
    if variant not in VARIANTS:
        raise GasketError(f"unknown variant {variant!r}")
    alpha = _variant_alpha(variant, alpha)
    if variant == "sg":
        mats, fixed = np.stack([0.5 * np.eye(2)] * 3), CORNERS
    elif variant == "stretched":
        mats = np.stack([(1.0 - alpha) / 2.0 * np.eye(2)] * 3 + [
            (alpha / 4.0) * np.array([[1.0, -SQRT3], [-SQRT3, 3.0]]),
            alpha * np.array([[1.0, 0.0], [0.0, 0.0]]),
            (alpha / 4.0) * np.array([[1.0, SQRT3], [SQRT3, 3.0]])])
        fixed = np.vstack([CORNERS, (CORNERS[[1, 0, 0]] + CORNERS[[2, 2, 1]]) / 2.0])
    else:
        from gasketlab import harmonic  # deferred: avoids an import cycle

        st = harmonic.harmonic_structure()
        basis = np.stack([st.corner_axes[:, 0], st.corner_perps[:, 0]], axis=1)
        mats = np.stack([basis.T @ m @ basis for m in st.contractions])
        fixed = st.corner_images.T @ basis
    return _frozen(mats), _frozen(fixed - np.einsum("jik,jk->ji", mats, fixed))


# ---------------------------------------------------------------------------
# Triangle meshes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleMesh:
    """Vertex and cell tables of one subdivision level.

    ``cells`` row r lists the corner vertex ids of the cell whose address
    is r written in base 3 (digits+1); corner order follows the
    (p1, p2, p3) images.  Arrays are shared and must be treated as
    read-only.
    """

    level: int
    points: np.ndarray
    cells: np.ndarray


#: a cell's ids are its 3 corners, then the k points its step appends; child
#: j is a row of those ids keeping corner j, and the joins run right, bottom, left
SG_CHILDREN = ((0, 3, 4), (3, 1, 5), (4, 5, 2))
STRETCHED_CHILDREN = ((0, 3, 4), (5, 1, 6), (7, 8, 2))
STRETCHED_JOINS = ((6, 8), (4, 7), (3, 5))


def _sg_rule(corners: np.ndarray) -> np.ndarray:
    """The shared edge midpoints m_ab, m_ac, m_bc (C, 3, d) of corners (3, C, d)."""
    a, b, c = corners
    return np.stack([(a + b) / 2.0, (a + c) / 2.0, (b + c) / 2.0], axis=1)


def _stretched_rule(corners: np.ndarray, s: float) -> np.ndarray:
    """The six points (C, 6, d) at ratio s = (1 - alpha)/2 from each corner
    toward the other two: ab, ac, ba, bc, ca, cb (disjoint sub-cells)."""
    a, b, c = corners
    return np.stack([a + s * (b - a), a + s * (c - a), b + s * (a - b),
                     b + s * (c - b), c + s * (a - c), c + s * (b - c)], axis=1)


def _refine(points: np.ndarray, cells: np.ndarray, rule, children, joins=None):
    """One subdivision step: the refined points, three child cells per parent
    and, given ``joins``, each parent's (3, 2) joining endpoint ids.  ``rule``
    maps the corners ``points[cells.T]`` (3, C, d) to the k fresh points of
    each cell (C, k, d); point i of cell c gets id ``len(points) + k c + i``."""
    fresh = rule(points[cells.T])
    count, k, dim = fresh.shape
    ids = np.hstack([cells, len(points) + np.arange(count * k).reshape(count, k)])
    tables = [ids[:, children].reshape(-1, 3)] + ([] if joins is None else [ids[:, joins]])
    return (np.concatenate([points, fresh.reshape(-1, dim)]), *tables)


def _hierarchy(level: int, refine):
    """Meshes of levels 0..level, each refined from the one before by
    ``refine(points, cells)``, and the further tables the steps return
    (the stretched joins) in step order; every array is frozen."""
    meshes = [TriangleMesh(0, CORNERS, _frozen([[0, 1, 2]], np.int64))]
    extras = []
    for m in range(level):
        points, cells, *extra = refine(meshes[-1].points, meshes[-1].cells)
        meshes.append(TriangleMesh(m + 1, _frozen(points), _frozen(cells)))
        extras.extend(map(_frozen, extra))
    return tuple(meshes), tuple(extras)


@lru_cache(maxsize=16)
def sg_hierarchy(level: int) -> tuple[TriangleMesh, ...]:
    """Meshes of the classical gasket for levels 0..level (cached)."""
    _check_level(level)
    return _hierarchy(level, partial(_refine, rule=_sg_rule, children=SG_CHILDREN))[0]


@lru_cache(maxsize=16)
def stretched_hierarchy(level: int, alpha: float):
    """Meshes and joining tables of the stretched variant (cached).

    Returns ``(meshes, joins)`` where ``joins[m]`` has shape (3^m, 3, 2)
    and holds endpoint ids (valid from level m+1 on) of the joining
    segments born at generation m.
    """
    _check_level(level)
    rule = partial(_stretched_rule, s=(1.0 - check_alpha(alpha)) / 2.0)
    return _hierarchy(level, partial(_refine, rule=rule, children=STRETCHED_CHILDREN,
                                     joins=STRETCHED_JOINS))


def _stacked_cells(meshes: Sequence[TriangleMesh]) -> np.ndarray:
    """Cells of ``meshes[0..L]`` stacked generation-major, ((3^(L+1) - 1)/2, 3)."""
    return np.concatenate([mesh.cells for mesh in meshes])


def _generation_starts(level: int) -> tuple[int, ...]:
    """First stacked row (3^g - 1)/2 of each generation g = 0..level+1."""
    return tuple((3 ** g - 1) // 2 for g in range(level + 2))


# ---------------------------------------------------------------------------
# Edge lists and models
# ---------------------------------------------------------------------------

#: local triangle edges, counterclockwise from the corner-1 image
TRIANGLE_EDGE_CORNERS = ((0, 2), (2, 1), (1, 0))


@dataclass(frozen=True)
class EdgeCurve:
    """One curve of the direct-sum family: a straight edge or a harmonic image."""

    id: int
    kind: str
    gen: int
    p: tuple[float, ...]
    q: tuple[float, ...]
    length: float
    word: str
    length_lo: Optional[float] = None
    length_hi: Optional[float] = None


_EDGE_FIELDS = ("id", "kind", "gen", "p", "q", "length", "word", "length_lo", "length_hi")


def _bound_list(column: Optional[np.ndarray], count: int):
    """A bound column as a list of floats, None where an edge has no bound."""
    if column is None:
        return repeat(None, count)
    return [None if math.isnan(v) else v for v in column.tolist()]


class EdgeTable(Sequence):
    """A model's edges as columns, read as a sequence of ``EdgeCurve`` rows.

    ``id`` and ``gen`` are int64 arrays, ``p`` and ``q`` (E, dim) float
    arrays, ``length`` a float array, ``kind`` and ``word`` tuples of str.
    ``length_lo`` and ``length_hi`` are None when no edge carries the
    bound, else float arrays holding NaN where an edge carries none.  The
    arrays are frozen, not copied.  ``len`` costs O(1); a row is built
    only when it is indexed or iterated.  Equality and the hash go by the
    columns' contents, bytes for the numbers.
    """

    __slots__ = _EDGE_FIELDS

    def __init__(self, id, kind, gen, p, q, length, word,
                 length_lo=None, length_hi=None):
        self.id, self.gen = _frozen(id, np.int64), _frozen(gen, np.int64)
        self.p, self.q = _frozen(p, float), _frozen(q, float)
        self.length = _frozen(length, float)
        self.kind, self.word = tuple(kind), tuple(word)
        self.length_lo = None if length_lo is None else _frozen(length_lo, float)
        self.length_hi = None if length_hi is None else _frozen(length_hi, float)
        columns = [getattr(self, name) for name in _EDGE_FIELDS]
        if self.p.ndim != 2 or self.q.ndim != 2 or len(
                {len(c) for c in columns if c is not None}) > 1:
            raise ValueError("edge columns differ in length or shape")

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        lo, hi = (None if col is None or math.isnan(col[i]) else float(col[i])
                  for col in (self.length_lo, self.length_hi))
        return EdgeCurve(int(self.id[i]), self.kind[i], int(self.gen[i]),
                         tuple(self.p[i].tolist()), tuple(self.q[i].tolist()),
                         float(self.length[i]), self.word[i], lo, hi)

    def __iter__(self):
        count = len(self)
        return map(EdgeCurve, self.id.tolist(), self.kind, self.gen.tolist(),
                   map(tuple, self.p.tolist()), map(tuple, self.q.tolist()),
                   self.length.tolist(), self.word,
                   _bound_list(self.length_lo, count), _bound_list(self.length_hi, count))

    def _content(self) -> tuple:
        numbers = (self.id, self.gen, self.p, self.q, self.length,
                   self.length_lo, self.length_hi)
        return (self.kind, self.word, self.p.shape, self.q.shape,
                *(None if a is None else a.tobytes() for a in numbers))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeTable):
            return NotImplemented
        return self is other or self._content() == other._content()

    def __hash__(self) -> int:
        return hash(self._content())

    def __reduce__(self):
        return EdgeTable, tuple(getattr(self, name) for name in _EDGE_FIELDS)

    def __repr__(self) -> str:
        return f"EdgeTable({len(self)} edges)"


@dataclass(frozen=True)
class GasketModel:
    """Immutable edge-list model of one gasket variant at one level.

    ``depth`` is the subdivision depth of a harmonic model's length bounds,
    None for the other variants.
    """

    variant: str
    alpha: Optional[float]
    level: int
    edges: EdgeTable
    depth: Optional[int] = None

    def __hash__(self) -> int:
        # hashing the table reads every column; the model is immutable, so
        # compute it once and make later cache lookups O(1)
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.variant, self.alpha, self.level, self.edges, self.depth))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # string hashes are salted per process: never pickle the cached one
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


def edge_count(variant: str, level: int) -> int:
    triangles = 3 ** (level + 1)
    if variant == "stretched":
        return triangles + (3 ** (level + 1) - 3) // 2
    return triangles


def _check_cap(variant: str, level: int) -> None:
    total = edge_count(variant, level)
    cap = edge_cap()
    if total > cap:
        raise ResourceCapError(
            f"{variant} level {level} needs {total} edges, cap is {cap}"
        )


@lru_cache(maxsize=16)
def _level_words(level: int) -> tuple[str, ...]:
    """Addresses of the level-n cells, in mesh-row order (cached)."""
    if level == 0:
        return ("",)
    return tuple(w + c for w in _level_words(level - 1) for c in "123")


def _run_kinds(runs: Sequence[tuple[str, int]]) -> tuple[str, ...]:
    """The kind column of ``runs``, 3^(gen+1) edges per ``(kind, gen)``."""
    # tuple sums: a single run's tuple is used as it is, never copied
    return sum(((kind,) * 3 ** (gen + 1) for kind, gen in runs), ())


def _edge_table(points: np.ndarray, ends: np.ndarray,
                runs: Sequence[tuple[str, int]],
                bounds: Optional[tuple[np.ndarray, np.ndarray]] = None) -> EdgeTable:
    """Edge columns for the edges ``points[ends[i, 0]] -> points[ends[i, 1]]``.

    ``runs`` gives the ``(kind, gen)`` of consecutive blocks of 3^(gen+1)
    edges, word-major, three per generation-``gen`` cell; ids count from
    0.  By the prefix invariant the finest level's ``points`` serve every
    block.  Straight edges take their chord as length; harmonic-image
    edges pass their ``(lo, hi)`` bound arrays as ``bounds`` and take lo
    as length.
    """
    sizes = [3 ** (gen + 1) for _, gen in runs]
    p = points[ends[:, 0]]
    q = points[ends[:, 1]]
    words = sum((_level_words(gen) for _, gen in runs), ())
    lo, hi = (None, None) if bounds is None else bounds
    return EdgeTable(np.arange(len(ends)), _run_kinds(runs),
                     np.repeat([gen for _, gen in runs], sizes), p, q,
                     np.hypot(*(q - p).T) if bounds is None else lo,
                     chain.from_iterable(zip(words, words, words)), lo, hi)


def _triangle_ends(cells: np.ndarray) -> np.ndarray:
    """Endpoint ids of every cell's triangle edges, (3C, 2), word-major."""
    return cells[:, TRIANGLE_EDGE_CORNERS].reshape(-1, 2)


def _mesh_edges(variant: str, level: int, alpha: Optional[float]):
    """An sg or stretched build's finest mesh points, the mesh ids of each
    edge's two ends (E, 2) in model edge order, and its ``(kind, gen)`` runs."""
    if variant == "sg":
        mesh = sg_hierarchy(level)[level]
        return mesh.points, _triangle_ends(mesh.cells), [("sg-triangle", level)]
    meshes, joins = stretched_hierarchy(level, alpha)
    ends = np.concatenate([j.reshape(-1, 2) for j in joins]
                          + [_triangle_ends(meshes[level].cells)])
    runs = [("stretched-joining", m) for m in range(level)] + [("stretched-triangle", level)]
    return meshes[level].points, ends, runs


def build_model(
    variant: str,
    level: int,
    alpha: Optional[float] = None,
    *,
    harmonic_depth: int = 4,
) -> GasketModel:
    """Build the level-n edge-list model of a gasket variant.

    sg: the 3^(n+1) triangle edges of the finest cells.  stretched: those
    plus every joining segment born at generations 0..n-1 (endpoints
    stored closed).  harmonic: the classical skeleton with curved-edge
    length bounds estimated at subdivision depth ``harmonic_depth``.
    """
    if variant not in VARIANTS:
        raise GasketError(f"unknown variant {variant!r}")
    _check_level(level)
    _check_cap(variant, level)
    alpha = _variant_alpha(variant, alpha)

    if variant == "harmonic":
        from gasketlab import harmonic  # deferred: avoids an import cycle

        return harmonic.build_harmonic_model(level, depth=harmonic_depth)

    return GasketModel(variant, alpha, level,
                       _edge_table(*_mesh_edges(variant, level, alpha)))


def _mesh_graph(model: GasketModel):
    """``(nodes, arc_u, arc_v)`` of an sg or stretched model: node
    coordinates and the node ids of each edge's two ends, read off the
    mesh of its build.

    Nodes are the N mesh points rounded at 12 decimals and sorted by
    (x, y); ``np.lexsort`` is stable, so points that round alike stay
    distinct nodes, in mesh order.  Refuses (``GasketError``) a model
    whose edge count, kinds or endpoints differ from its build's, so the
    arcs always follow the build's layout.  The arrays are frozen.
    """
    variant, level, edges = model.variant, model.level, model.edges
    if variant not in ("sg", "stretched"):
        raise GasketError(f"no mesh graph for variant {variant!r}")
    if len(edges) != edge_count(variant, level):
        raise GasketError(f"{variant} level {level} has {edge_count(variant, level)} "
                          f"edges, the model {len(edges)}")
    points, ends, runs = _mesh_edges(variant, level, _variant_alpha(variant, model.alpha))
    if (edges.kind != _run_kinds(runs) or not np.array_equal(edges.p, points[ends[:, 0]])
            or not np.array_equal(edges.q, points[ends[:, 1]])):
        raise GasketError(f"the model's edges are not those of its {variant} "
                          f"level {level} build")
    rounded = np.round(points, 12)
    order = np.lexsort(rounded.T[::-1])
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return _frozen(rounded[order]), _frozen(rank[ends[:, 0]]), _frozen(rank[ends[:, 1]])
