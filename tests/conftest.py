"""Shared test oracles, kept independent of the code paths they check."""

import dataclasses
from functools import reduce

import numpy as np

from gasketlab.geometry import CORNERS, EdgeTable, sg_hierarchy
from gasketlab.harmonic import MIDPOINT_RULE, harmonic_structure
from gasketlab.measure import functional_sample

SQ3 = np.sqrt(3.0)
FIXED_POINTS = np.array([[0.0, 0.0], [0.5, SQ3 / 2], [1.0, 0.0],
                         [0.75, SQ3 / 4], [0.5, 0.0], [0.25, SQ3 / 4]])


def vertex_count(level: int) -> int:
    """Vertices of the level-n classical mesh: 3 (3^n + 1) / 2."""
    return 3 * (3 ** level + 1) // 2


def index_word(level: int, index: int) -> str:
    """Address of mesh row ``index`` at ``level``: its base-3 digits, plus one."""
    return "".join(str(index // 3 ** k % 3 + 1) for k in reversed(range(level)))


def cell_index(word: str) -> int:
    """Mesh row of the cell addressed by ``word``: its base-3 numeral, digits less one."""
    return int(word.translate(str.maketrans("123", "012")), 3) if word else 0


def endpoint_nodes(model):
    """Nodes and node ids by rounding all 2E edge endpoints at 12 decimals:
    the deduplicated rounded endpoints sorted by (x, y), and the node of
    the p end of edge i at ``inverse[i]``, of its q end at ``inverse[E + i]``.
    Same output as ``np.unique(..., axis=0, return_inverse=True)``.  The
    reference for the mesh numbering of metric graphs wherever no two
    vertices round alike; it merges those that do."""
    pts = np.round(np.concatenate([model.edges.p, model.edges.q]), 12)
    order = np.lexsort(pts.T[::-1])
    ranked = pts[order]
    fresh = np.ones(len(pts), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=fresh[1:])
    inverse = np.empty(len(pts), dtype=np.int64)
    inverse[order] = np.cumsum(fresh) - 1
    return ranked[fresh], inverse


def vertex_rows(points, level: int) -> np.ndarray:
    """Level-n vertex ids of ``points``, each matched to its mesh point."""
    mesh = sg_hierarchy(level)[level].points
    gaps = np.linalg.norm(np.asarray(points)[:, None] - mesh[None], axis=-1)
    rows = gaps.argmin(axis=1)
    assert gaps[np.arange(len(rows)), rows].max() < 1e-12, "not a vertex"
    return rows


def rows_table(rows) -> EdgeTable:
    """The edge table of ``EdgeCurve`` rows, one column per field; a bound
    column is None when no row carries the bound, else NaN where one does not."""
    rows = tuple(rows)

    def column(name):
        return [getattr(e, name) for e in rows]

    def points(name):
        return np.array(column(name), dtype=float) if rows else np.empty((0, 2))

    bounds = [None if all(v is None for v in column(name))
              else np.array(column(name), dtype=float) for name in ("length_lo", "length_hi")]
    return EdgeTable(column("id"), column("kind"), column("gen"), points("p"), points("q"),
                     column("length"), column("word"), *bounds)


def edited_model(model, edit):
    """``model`` with the edge columns that ``edit(columns)`` changed in place:
    writable copies by field name, the numbers as arrays and ``kind`` and
    ``word`` as lists (a bound column the model lacks is None)."""
    edges = model.edges
    columns = {name: None if getattr(edges, name) is None else
               (list if name in ("kind", "word") else np.array)(getattr(edges, name))
               for name in EdgeTable.__slots__}
    edit(columns)
    return dataclasses.replace(model, edges=EdgeTable(**columns))


def refine_shared(points, cells):
    """One subdivision step with shared edge midpoints (classical gasket),
    written out per child: fresh ids m_ab, m_ac, m_bc of cell c are
    n_old + 3c + (0, 1, 2)."""
    n_old = len(points)
    a, b, c = cells[:, 0], cells[:, 1], cells[:, 2]
    m_ab = (points[a] + points[b]) / 2.0
    m_ac = (points[a] + points[c]) / 2.0
    m_bc = (points[b] + points[c]) / 2.0
    new_points = np.concatenate([points, np.stack([m_ab, m_ac, m_bc], axis=1).reshape(-1, 2)])
    base = n_old + 3 * np.arange(len(cells), dtype=np.int64)
    iab, iac, ibc = base, base + 1, base + 2
    children = np.empty((3 * len(cells), 3), dtype=np.int64)
    children[0::3] = np.stack([a, iab, iac], axis=1)
    children[1::3] = np.stack([iab, b, ibc], axis=1)
    children[2::3] = np.stack([iac, ibc, c], axis=1)
    return new_points, children


def refine_stretched(points, cells, alpha):
    """One stretched subdivision step, written out per child: child j keeps
    corner j and contracts the other two toward it with ratio (1-alpha)/2.
    Also returns each parent's joining segments, right, bottom, left."""
    s = (1.0 - alpha) / 2.0
    n_old = len(points)
    a, b, c = cells[:, 0], cells[:, 1], cells[:, 2]
    pa, pb, pc = points[a], points[b], points[c]
    fresh = [pa + s * (pb - pa), pa + s * (pc - pa), pb + s * (pa - pb),
             pb + s * (pc - pb), pc + s * (pa - pc), pc + s * (pb - pc)]
    new_points = np.concatenate([points, np.stack(fresh, axis=1).reshape(-1, 2)])
    base = n_old + 6 * np.arange(len(cells), dtype=np.int64)
    iab, iac, iba, ibc, ica, icb = (base + i for i in range(6))
    children = np.empty((3 * len(cells), 3), dtype=np.int64)
    children[0::3] = np.stack([a, iab, iac], axis=1)
    children[1::3] = np.stack([iba, b, ibc], axis=1)
    children[2::3] = np.stack([ica, icb, c], axis=1)
    joins = np.stack([np.stack([ibc, icb], axis=1),   # right: child 2 corner 3 -> child 3 corner 2
                      np.stack([iac, ica], axis=1),   # bottom: child 1 corner 3 -> child 3 corner 1
                      np.stack([iab, iba], axis=1)],  # left: child 1 corner 2 -> child 2 corner 1
                     axis=1)
    return new_points, children, joins


def oracle_hierarchy(level: int, refine):
    """Points and cells of levels 0..level, and the further tables of every
    step, from ``refine(points, cells)`` applied level by level."""
    points, cells = CORNERS, np.array([[0, 1, 2]], dtype=np.int64)
    meshes, extras = [(points, cells)], []
    for _ in range(level):
        points, cells, *extra = refine(points, cells)
        meshes.append((points, cells))
        extras.extend(extra)
    return meshes, extras


def energy(level: int, values) -> float:
    """Level-n energy: squared differences over cell edges, each pair once.

    Two cells share at most one vertex, so iterating the three corner
    pairs of every cell counts each neighbor pair exactly once.
    """
    v = np.asarray(values, dtype=float)[sg_hierarchy(level)[level].cells]
    return float(((v[:, 0] - v[:, 1]) ** 2
                  + (v[:, 0] - v[:, 2]) ** 2
                  + (v[:, 1] - v[:, 2]) ** 2).sum())


def harmonic_extend(level: int, values) -> np.ndarray:
    """Level-(n+1) data extending level-n data by the per-cell midpoint rule,
    new values appended in the refined mesh's id order."""
    values = np.asarray(values, dtype=float)
    corner_vals = values[sg_hierarchy(level)[level].cells]
    return np.concatenate([values, (corner_vals @ MIDPOINT_RULE.T).reshape(-1)])


def generators(variant: str, alpha=None) -> list:
    """(A_j, p_j) of each generator x -> A_j (x - p_j) + p_j as the paper
    writes it: ratio 1/2 or (1 - alpha)/2 at the corners p1..p3, and
    (stretched) alpha times the projection onto each side at its midpoint
    p4..p6 (right, bottom, left); harmonic maps are the contractions of
    R^3 at the corner images."""
    if variant == "harmonic":
        st = harmonic_structure()
        return list(zip(st.contractions, st.corner_images.T))
    sides = [(0.5, -SQ3 / 2), (1.0, 0.0), (0.5, SQ3 / 2)] if variant == "stretched" else []
    ratio = 0.5 if variant == "sg" else (1.0 - alpha) / 2.0
    return list(zip([ratio * np.eye(2)] * 3 + [alpha * np.outer(u, u) for u in sides],
                    FIXED_POINTS))


def apply_word(variant: str, word, points, alpha=None) -> np.ndarray:
    """The generators composed along ``word`` at ``points``, first letter first."""
    maps, x = generators(variant, alpha), np.asarray(points, dtype=float)
    for letter in word:
        a, p = maps[int(letter) - 1]
        x = (x - p) @ a.T + p
    return x


def word_matrix(word) -> np.ndarray:
    """Contraction matrices multiplied along a word, first letter leftmost."""
    mats = harmonic_structure().contractions
    return reduce(np.matmul, (mats[int(c) - 1] for c in word), np.eye(3))


def word_norm(word) -> float:
    return float(np.linalg.norm(word_matrix(word), 2))


def eigenvalue_trace(length: float, p: float, k_cutoff: int = 10 ** 6) -> float:
    """Trace of |D|^(-p) for one curve, summed over its eigenvalues
    (2k+1) pi / (2 length) with |k| <= K, plus the integral tail bound
    2 (2l/pi)^p (2K+1)^(1-p) / (2(p-1)) of the omitted terms."""
    odd = 2.0 * np.arange(0, k_cutoff + 1, dtype=float) + 1.0
    partial = 2.0 * float(np.sum(odd ** (-p))) - odd[-1] ** (-p)
    scale = (2.0 * length / np.pi) ** p
    tail = 2.0 * scale * (2.0 * k_cutoff + 1.0) ** (1.0 - p) / (2.0 * (p - 1.0))
    return scale * partial + tail


_FAMILY_TAGS = {"sg": "sg-midpoints", "harmonic": "harmonic-midpoints",
                "stretched": "stretched-joining"}


def self_affinity_residual(family: str, n: int, f, alpha=None) -> float:
    """|psi_{n+1}(f) - (1/3) sum_j psi_n(f . G_j)| for one functional family
    psi with generators G_j.  Both sides enumerate the same weighted point
    set, so the residual is zero to rounding for every family."""
    maps = [lambda pts, j=j: apply_word(family, (j,), pts, alpha) for j in (1, 2, 3)]

    def psi(m, g):
        return functional_sample(_FAMILY_TAGS[family], m, alpha)(g)

    rhs = sum(psi(n, lambda pts, g=g: f(g(pts))) for g in maps) / 3.0
    return abs(psi(n + 1, f) - rhs)


def full_energy_matrix(level: int) -> np.ndarray:
    """Dense quadratic form of the level-n energy, assembled edge by edge."""
    cells = sg_hierarchy(level)[level].cells
    n = int(cells.max()) + 1
    mat = np.zeros((n, n))
    for a, b, c in cells:
        for i, j in ((a, b), (a, c), (b, c)):
            mat[i, i] += 1.0
            mat[j, j] += 1.0
            mat[i, j] -= 1.0
            mat[j, i] -= 1.0
    return mat


def dense_minimum_energy_extension(level: int, values: np.ndarray) -> np.ndarray:
    """Extend level-n vertex data to level n+1 by one global normal-equation
    solve over all new vertices at once (no per-cell rule involved)."""
    values = np.asarray(values, dtype=float)
    mat = full_energy_matrix(level + 1)
    n_fixed = vertex_count(level)
    a = mat[n_fixed:, n_fixed:]
    b = mat[n_fixed:, :n_fixed]
    free = np.linalg.solve(a, -b @ values)
    return np.concatenate([values, free])


def oracle_phi(level: int) -> np.ndarray:
    """Harmonic-embedding images of all level-n vertices, computed through
    the dense minimization route."""
    h = np.eye(3)
    for m in range(level):
        h = dense_minimum_energy_extension(m, h)
    return (h - 1.0 / 3.0) / np.sqrt(2.0)


def brute_zeta(p: float, terms: int = 1_000_000) -> float:
    """Direct zeta summation with a midpoint-rule integral tail."""
    n = np.arange(1.0, terms + 1)
    return float(np.sum(n ** (-p))) + (terms + 0.5) ** (1.0 - p) / (p - 1.0)


def brute_beta(p: float) -> float:
    """Unit-curve trace constant via scipy's zeta (independent route)."""
    from scipy.special import zeta as sp_zeta

    return 2.0 ** (p + 1) * (1.0 - 2.0 ** (-p)) * float(sp_zeta(p)) / np.pi ** p


def brute_stretched_trace(alpha: float, p: float, generations: int = 400) -> float:
    """Generation-wise trace summation with the exact geometric tail.

    Per generation n there are 3^(n+1) triangle curves of length
    ((1-alpha)/2)^n and 3^(n+1) joining curves of length
    alpha*((1-alpha)/2)^n.
    """
    ratio = (1.0 - alpha) / 2.0
    q = 3.0 * ratio ** p
    n = np.arange(generations)
    partial = float(np.sum(3.0 * (1.0 + alpha ** p) * q ** n))
    tail = 3.0 * (1.0 + alpha ** p) * q ** generations / (1.0 - q)
    return brute_beta(p) * (partial + tail)


POLY_2D = {
    "1": lambda pts: np.ones(len(pts)),
    "x": lambda pts: pts[:, 0],
    "y": lambda pts: pts[:, 1],
    "x^2": lambda pts: pts[:, 0] ** 2,
    "x*y": lambda pts: pts[:, 0] * pts[:, 1],
}

POLY_3D = {
    "1": lambda pts: np.ones(len(pts)),
    "x": lambda pts: pts[:, 0],
    "z": lambda pts: pts[:, 2],
    "x^2": lambda pts: pts[:, 0] ** 2,
    "x*y": lambda pts: pts[:, 0] * pts[:, 1],
}
