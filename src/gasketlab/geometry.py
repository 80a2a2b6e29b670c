"""Geometry of the Sierpinski gasket and its stretched variant.

Builds the triangle meshes behind the level-n graph approximations, the
contraction maps that generate them, and flat edge lists: triangle edges
at the finest level plus, for the stretched variant, the joining
segments accumulated over all coarser generations.  The harmonic variant
reuses the combinatorial skeleton built here; its curved-edge data lives
in :mod:`gasketlab.harmonic`.

Conventions fixed here and relied on throughout the package:

* corner points p1=(0,0), p2=(1/2, sqrt(3)/2), p3=(1,0);
* ``compose_word`` applies the first letter first, so
  ``compose_word(w + v) = compose_word(v) . compose_word(w)``;
* cell addresses are words over {1,2,3} read root-first: appending a
  letter descends into a sub-cell, and the mesh row index of a cell is
  its address read as a base-3 numeral;
* edges are ordered by (generation, address, local index).  Triangle
  edges of a cell run counterclockwise starting at the corner-1 image:
  local 1 = (c1 -> c3), 2 = (c3 -> c2), 3 = (c2 -> c1).  Joining edges
  of a cell use the fixed labels 1 = right, 2 = bottom, 3 = left;
* the prefix invariant: refinement only appends vertices, so level m's
  vertex coordinates and harmonic images (``harmonic.phi_coordinates``)
  are the first rows of every finer level's, bit for bit, and level-m
  cells and joining ids index the finest level's arrays directly;
* the stacked layout: ``_stacked_cells`` stacks the cells of generations
  0..L generation-major, generation g from row (3^g - 1)/2 on
  (``_generation_starts``), so one array pass serves every generation;
  a stretched model's generation-g joining edges start at id 3 (3^g - 1)/2.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import attrgetter
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


# ---------------------------------------------------------------------------
# Words and affine maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """Finite word over contraction indices; addresses cells and map products.

    Letters are 1-based.  The default alphabet is {1,2,3} (cell
    addresses); ``alphabet=6`` admits the degenerate stretched-variant
    generators 4..6, which occur only when enumerating the full map
    family, never in cell addresses.
    """

    letters: tuple[int, ...]
    alphabet: int = 3

    def __post_init__(self) -> None:
        if self.alphabet not in (3, 6):
            raise GasketError(f"unsupported alphabet size {self.alphabet}")
        for letter in self.letters:
            if not 1 <= letter <= self.alphabet:
                raise GasketError(
                    f"letter {letter} outside alphabet 1..{self.alphabet}"
                )

    @classmethod
    def parse(cls, text: str, alphabet: int = 3) -> "Word":
        try:
            letters = tuple(int(ch) for ch in text)
        except ValueError as exc:
            raise GasketError(f"invalid word string {text!r}") from exc
        return cls(letters, alphabet)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(str(c) for c in self.letters)


def as_word(word: "Word | str | Sequence[int]", alphabet: int = 3) -> Word:
    if isinstance(word, Word):
        return word
    if isinstance(word, str):
        return Word.parse(word, alphabet)
    return Word(tuple(int(c) for c in word), alphabet)


@dataclass(frozen=True)
class AffineMap:
    """Affine map x -> A x + b, stored in general form.

    The generator maps of the gasket variants are all of the fixed-point
    form x -> A(x - p) + p; use :meth:`from_fixed_point` for those.
    """

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.matrix, dtype=float)
        b = np.asarray(self.offset, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
            raise GasketError("inconsistent affine map shapes")
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "offset", b)

    @classmethod
    def from_fixed_point(cls, matrix: np.ndarray, fixed_point: np.ndarray) -> "AffineMap":
        a = np.asarray(matrix, dtype=float)
        p = np.asarray(fixed_point, dtype=float)
        return cls(a, p - a @ p)

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        return cls(np.eye(dim), np.zeros(dim))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x @ self.matrix.T + self.offset

    def after(self, other: "AffineMap") -> "AffineMap":
        """Composition self . other (apply ``other`` first)."""
        return AffineMap(self.matrix @ other.matrix,
                         self.matrix @ other.offset + self.offset)


def _stretched_matrices(alpha: float) -> list[np.ndarray]:
    s = (1.0 - alpha) / 2.0
    a123 = s * np.eye(2)
    a4 = (alpha / 4.0) * np.array([[1.0, -SQRT3], [-SQRT3, 3.0]])
    a5 = alpha * np.array([[1.0, 0.0], [0.0, 0.0]])
    a6 = (alpha / 4.0) * np.array([[1.0, SQRT3], [SQRT3, 3.0]])
    return [a123, a123, a123, a4, a5, a6]


def _stretched_fixed_points() -> np.ndarray:
    p4 = (CORNERS[1] + CORNERS[2]) / 2.0
    p5 = (CORNERS[0] + CORNERS[2]) / 2.0
    p6 = (CORNERS[0] + CORNERS[1]) / 2.0
    return np.vstack([CORNERS, p4, p5, p6])


def generator_map(variant: str, j: int, alpha: Optional[float] = None) -> AffineMap:
    """Generator map number ``j`` of the given variant.

    sg: the three midpoint contractions toward p_j.  stretched: the three
    similarity maps of ratio (1-alpha)/2 plus the three degenerate maps
    producing the joining segments of length alpha.
    """
    if variant == "sg":
        if not 1 <= j <= 3:
            raise GasketError(f"sg generator index must be 1..3, got {j}")
        return AffineMap.from_fixed_point(0.5 * np.eye(2), CORNERS[j - 1])
    if variant == "stretched":
        if alpha is None:
            raise GasketError("stretched variant requires alpha")
        alpha = check_alpha(alpha)
        if not 1 <= j <= 6:
            raise GasketError(f"stretched generator index must be 1..6, got {j}")
        return AffineMap.from_fixed_point(
            _stretched_matrices(alpha)[j - 1], _stretched_fixed_points()[j - 1]
        )
    if variant == "harmonic":
        raise GasketError("harmonic generators live in gasketlab.harmonic.corner_map")
    raise GasketError(f"unknown variant {variant!r}")


def compose_word(
    variant: str,
    word: "Word | str | Sequence[int]",
    alpha: Optional[float] = None,
) -> AffineMap:
    """Composition of generator maps along a word, first letter applied first.

    The empty word yields the identity.
    """
    w = as_word(word, alphabet=6 if variant == "stretched" else 3)
    out = AffineMap.identity(2)
    for letter in w.letters:
        out = generator_map(variant, letter, alpha).after(out)
    return out


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


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _refine_shared(points: np.ndarray, cells: np.ndarray):
    """One subdivision step with shared edge midpoints (classical gasket).

    Every midpoint belongs to exactly one parent cell, so fresh ids never
    collide across cells.
    """
    n_old = len(points)
    a, b, c = cells[:, 0], cells[:, 1], cells[:, 2]
    m_ab = (points[a] + points[b]) / 2.0
    m_ac = (points[a] + points[c]) / 2.0
    m_bc = (points[b] + points[c]) / 2.0
    new_points = np.concatenate(
        [points, np.stack([m_ab, m_ac, m_bc], axis=1).reshape(-1, 2)]
    )
    base = n_old + 3 * np.arange(len(cells), dtype=np.int64)
    iab, iac, ibc = base, base + 1, base + 2
    children = np.empty((3 * len(cells), 3), dtype=np.int64)
    children[0::3] = np.stack([a, iab, iac], axis=1)
    children[1::3] = np.stack([iab, b, ibc], axis=1)
    children[2::3] = np.stack([iac, ibc, c], axis=1)
    return new_points, children


def _refine_stretched(points: np.ndarray, cells: np.ndarray, alpha: float):
    """One subdivision step of the stretched variant.

    Child j keeps corner j of its parent; the other two corners contract
    toward it with ratio (1-alpha)/2, so sub-cells are pairwise disjoint.
    Also returns the three joining segments spawned inside each parent,
    as endpoint-id pairs: label 1 = right, 2 = bottom, 3 = left.
    """
    s = (1.0 - alpha) / 2.0
    n_old = len(points)
    a, b, c = cells[:, 0], cells[:, 1], cells[:, 2]
    pa, pb, pc = points[a], points[b], points[c]
    ab = pa + s * (pb - pa)
    ac = pa + s * (pc - pa)
    ba = pb + s * (pa - pb)
    bc = pb + s * (pc - pb)
    ca = pc + s * (pa - pc)
    cb = pc + s * (pb - pc)
    new_points = np.concatenate(
        [points, np.stack([ab, ac, ba, bc, ca, cb], axis=1).reshape(-1, 2)]
    )
    base = n_old + 6 * np.arange(len(cells), dtype=np.int64)
    iab, iac, iba, ibc, ica, icb = (base, base + 1, base + 2,
                                    base + 3, base + 4, base + 5)
    children = np.empty((3 * len(cells), 3), dtype=np.int64)
    children[0::3] = np.stack([a, iab, iac], axis=1)
    children[1::3] = np.stack([iba, b, ibc], axis=1)
    children[2::3] = np.stack([ica, icb, c], axis=1)
    joins = np.stack(
        [np.stack([ibc, icb], axis=1),   # right: child2 corner3 -> child3 corner2
         np.stack([iac, ica], axis=1),   # bottom: child1 corner3 -> child3 corner1
         np.stack([iab, iba], axis=1)],  # left: child1 corner2 -> child2 corner1
        axis=1,
    )
    return new_points, children, joins


@lru_cache(maxsize=16)
def sg_hierarchy(level: int) -> tuple[TriangleMesh, ...]:
    """Meshes of the classical gasket for levels 0..level (cached)."""
    if level < 0:
        raise GasketError("level must be >= 0")
    points = CORNERS.copy()
    cells = np.array([[0, 1, 2]], dtype=np.int64)
    meshes = [TriangleMesh(0, _freeze(points), _freeze(cells))]
    for m in range(level):
        points, cells = _refine_shared(meshes[-1].points, meshes[-1].cells)
        meshes.append(TriangleMesh(m + 1, _freeze(points), _freeze(cells)))
    return tuple(meshes)


@lru_cache(maxsize=16)
def stretched_hierarchy(level: int, alpha: float):
    """Meshes and joining tables of the stretched variant (cached).

    Returns ``(meshes, joins)`` where ``joins[m]`` has shape (3^m, 3, 2)
    and holds endpoint ids (valid from level m+1 on) of the joining
    segments born at generation m.
    """
    if level < 0:
        raise GasketError("level must be >= 0")
    alpha = check_alpha(alpha)
    points = CORNERS.copy()
    cells = np.array([[0, 1, 2]], dtype=np.int64)
    meshes = [TriangleMesh(0, _freeze(points), _freeze(cells))]
    joins = []
    for m in range(level):
        points, cells, j = _refine_stretched(
            meshes[-1].points, meshes[-1].cells, alpha
        )
        meshes.append(TriangleMesh(m + 1, _freeze(points), _freeze(cells)))
        joins.append(_freeze(j))
    return tuple(meshes), tuple(joins)


def _stacked_cells(meshes: Sequence[TriangleMesh]) -> np.ndarray:
    """Cells of ``meshes[0..L]`` stacked generation-major, ((3^(L+1) - 1)/2, 3)."""
    return np.concatenate([mesh.cells for mesh in meshes])


def _generation_starts(level: int) -> tuple[int, ...]:
    """First stacked row (3^g - 1)/2 of each generation g = 0..level+1."""
    return tuple((3 ** g - 1) // 2 for g in range(level + 2))


def cell_index(word: "Word | str | Sequence[int]") -> int:
    """Mesh row of the cell addressed by ``word`` (base-3 numeral)."""
    w = as_word(word)
    idx = 0
    for letter in w.letters:
        idx = idx * 3 + (letter - 1)
    return idx


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


def _frozen(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _bound_list(column: Optional[np.ndarray], count: int):
    """A bound column as a list of floats, None where an edge has no bound."""
    if column is None:
        return repeat(None, count)
    return [None if math.isnan(v) else v for v in column.tolist()]


def _point_column(points: Sequence) -> np.ndarray:
    if len(set(map(len, points))) > 1:
        raise ValueError("edge endpoints differ in dimension")
    return np.array(points, dtype=float) if points else np.empty((0, 2))


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

    @classmethod
    def from_rows(cls, rows) -> "EdgeTable":
        """The table of a sequence of ``EdgeCurve`` rows."""
        cols = list(zip(*map(attrgetter(*_EDGE_FIELDS), rows))) or [()] * len(_EDGE_FIELDS)
        ids, kinds, gens, ps, qs, lengths, words, los, his = cols
        bounds = [None if all(v is None for v in col) else np.array(col, dtype=float)
                  for col in (los, his)]
        return cls(ids, kinds, gens, _point_column(ps), _point_column(qs),
                   lengths, words, *bounds)

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
    """Immutable edge-list model of one gasket variant at one level."""

    variant: str
    alpha: Optional[float]
    level: int
    edges: EdgeTable

    def __hash__(self) -> int:
        # hashing the table reads every column; the model is immutable, so
        # compute it once and make later cache lookups O(1)
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.variant, self.alpha, self.level, self.edges))
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
    # tuple sums: a single run's tuple is used as it is, never copied
    kinds = sum(((kind,) * size for (kind, _), size in zip(runs, sizes)), ())
    words = sum((_level_words(gen) for _, gen in runs), ())
    lo, hi = (None, None) if bounds is None else bounds
    return EdgeTable(np.arange(len(ends)), kinds,
                     np.repeat([gen for _, gen in runs], sizes), p, q,
                     np.hypot(*(q - p).T) if bounds is None else lo,
                     chain.from_iterable(zip(words, words, words)), lo, hi)


def _triangle_ends(cells: np.ndarray) -> np.ndarray:
    """Endpoint ids of every cell's triangle edges, (3C, 2), word-major."""
    return cells[:, TRIANGLE_EDGE_CORNERS].reshape(-1, 2)


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
    if level < 0:
        raise GasketError("level must be >= 0")
    _check_cap(variant, level)

    if variant == "harmonic":
        if alpha is not None:
            raise GasketError("harmonic variant takes no alpha")
        from gasketlab import harmonic  # deferred: avoids an import cycle

        return harmonic.build_harmonic_model(level, depth=harmonic_depth)

    if variant == "sg":
        if alpha is not None:
            raise GasketError("sg variant takes no alpha")
        mesh = sg_hierarchy(level)[level]
        return GasketModel("sg", None, level, _edge_table(
            mesh.points, _triangle_ends(mesh.cells), [("sg-triangle", level)]))

    alpha = check_alpha(alpha) if alpha is not None else None
    if alpha is None:
        raise GasketError("stretched variant requires alpha")
    meshes, joins = stretched_hierarchy(level, alpha)
    ends = np.concatenate([j.reshape(-1, 2) for j in joins]
                          + [_triangle_ends(meshes[level].cells)])
    runs = [("stretched-joining", m) for m in range(level)] + [("stretched-triangle", level)]
    return GasketModel("stretched", alpha, level,
                       _edge_table(meshes[level].points, ends, runs))


def _endpoint_nodes(model: GasketModel):
    """Deduplicated edge endpoints and the node id of every endpoint.

    Nodes are the endpoints rounded at 12 decimals, which merges
    coincident endpoints at double precision, and sorted
    lexicographically (x, then y); ``inverse[i]`` is the node of the p end
    of edge i and ``inverse[m + i]`` that of its q end, m = edge count.
    Same output as ``np.unique(..., axis=0, return_inverse=True)``, from a
    column-wise ``np.lexsort`` instead of its much slower row sort.
    """
    pts = np.round(np.concatenate([model.edges.p, model.edges.q]), 12)
    order = np.lexsort(pts.T[::-1])
    ranked = pts[order]
    fresh = np.ones(len(pts), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=fresh[1:])
    inverse = np.empty(len(pts), dtype=np.int64)
    inverse[order] = np.cumsum(fresh) - 1
    return ranked[fresh], inverse
