"""Independent oracles for the benchmark's checks.

Everything here is computed from first principles with numpy and scipy:
cell corners from the contraction maps, shortest paths with
scipy.sparse.csgraph, trace series from their closed geometric sums with
scipy's zeta, and test functions evaluated by Python's own arithmetic.
The package is imported only where a check is defined in its terms (the
byte round trip of a written model).

Tolerances are fixed a priori, never fitted to observed errors:

* ``SUM_TOL`` (1e-9, relative): two float summations of the same at most
  10^5 terms differ by far less (about n * 2^-53 ~ 1e-11).
* ``LADDER_TOL`` (1e-3, relative to the scale of the answer): the
  package declares a residue ladder converged when its last two
  extrapolants agree to 1e-3 of that scale, so a residue is trusted to
  that much and no more.

The Dixmier functionals freeze the per-curve average of f at the
deepest generation they compute, so their residues converge to averages
over that generation's points: corner means of the level cells (and, on
the stretched gasket, the joining-segment endpoints, weighted by
alpha^ds).  The oracles compute those point sets from the maps.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.special import zeta

SUM_TOL = 1e-9
LADDER_TOL = 1e-3
SQRT3 = math.sqrt(3.0)
CORNERS = np.array([[0.0, 0.0], [0.5, SQRT3 / 2.0], [1.0, 0.0]])
KH_DIMENSION_UPPER = math.log(3.0) / (math.log(5.0) - math.log(3.0))
SVG_NS = "{http://www.w3.org/2000/svg}"


def close(a: float, b: float, rel: float = SUM_TOL, scale: float = 1.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


# ---------------------------------------------------------------------------
# geometry from the contraction maps
# ---------------------------------------------------------------------------


def cell_corners(ratio: float, level: int) -> np.ndarray:
    """(3^level, 3, 2) corners of the level cells, rows in address order.

    Child j of a cell keeps the cell's corner j and scales the cell by
    ``ratio`` toward it (0.5: classical gasket; (1-alpha)/2: stretched).
    """
    cells = CORNERS[None, :, :]
    for _ in range(level):
        kids = [cells[:, j:j + 1, :] + ratio * (cells - cells[:, j:j + 1, :])
                for j in range(3)]
        cells = np.stack(kids, axis=1).reshape(-1, 3, 2)
    return cells


def stretched_dimension(alpha: float) -> float:
    return math.log(3.0) / (math.log(2.0) - math.log(1.0 - alpha))


def sg_midpoints(n: int) -> np.ndarray:
    c = cell_corners(0.5, n)
    return np.concatenate([(c[:, 0] + c[:, 1]) / 2, (c[:, 0] + c[:, 2]) / 2,
                           (c[:, 1] + c[:, 2]) / 2])


def joining_endpoints(n: int, alpha: float) -> np.ndarray:
    """Endpoints of the joining segments born inside the level n-1 cells."""
    s = (1.0 - alpha) / 2.0
    c = cell_corners(s, n - 1)
    out = [c[:, i] + s * (c[:, j] - c[:, i]) for i in range(3) for j in range(3) if i != j]
    return np.concatenate(out)


def stretched_edge_count(level: int) -> int:
    return 3 ** (level + 1) + (3 ** (level + 1) - 3) // 2


def total_length(variant: str, level: int, alpha: float | None) -> float:
    if variant == "sg":
        return 3 ** (level + 1) * 0.5 ** level
    s = (1.0 - alpha) / 2.0
    joins = sum(3 ** (m + 1) * alpha * s ** m for m in range(level))
    return 3 ** (level + 1) * s ** level + joins


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

MONOMIALS = {2: ("x", "y", "x^2", "x*y", "y^2"),
             3: ("x", "y", "z", "x^2", "x*y", "y*z", "z^2")}


def random_expr(rng, dim: int) -> dict:
    """A seeded polynomial of degree <= 2; ``scale`` bounds |f| on the
    sample points of every variant, whose coordinates lie in [-1, 1]."""
    names = MONOMIALS[dim]
    picks = sorted(rng.choice(len(names), size=int(rng.integers(1, 4)), replace=False))
    text, scale = "", 0.0
    for i in picks:
        c = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        if not text:
            text = f"{c}*{names[i]}"
        else:
            text += f" {'-' if c < 0 else '+'} {abs(c)}*{names[i]}"
        scale += abs(c)
    const = int(rng.integers(0, 3))
    if const:
        text += f" + {const}"
        scale += const
    return {"f": text, "scale": scale}


def evaluate(text: str, pts: np.ndarray) -> np.ndarray:
    """Evaluate an expression of the package's grammar with Python arithmetic."""
    env = {"x": pts[:, 0], "y": pts[:, 1]}
    if pts.shape[1] == 3:
        env["z"] = pts[:, 2]
    value = eval(text.replace("^", "**"), {"__builtins__": {}}, env)
    return np.broadcast_to(np.asarray(value, dtype=float), (len(pts),))


def functional(family: str, n: int, alpha: float | None, text: str) -> float:
    pts = sg_midpoints(n) if family == "sg-midpoints" else joining_endpoints(n, alpha)
    return float(np.mean(evaluate(text, pts)))


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def beta(p: float) -> float:
    """Trace of |D|^-p for a unit curve, eigenvalues (2k+1) pi / 2."""
    return 2.0 ** (p + 1) * (1.0 - 2.0 ** -p) * float(zeta(p)) / math.pi ** p


def flat_trace(p: float, alpha: float | None) -> float:
    """sum over generations n of 3^(n+1) curves of length r^n (plus joins)."""
    if alpha is None:
        return beta(p) * 3.0 / (1.0 - 3.0 * 0.5 ** p)
    r = (1.0 - alpha) / 2.0
    return beta(p) * 3.0 * (1.0 + alpha ** p) / (1.0 - 3.0 * r ** p)


def dixmier_constant(alpha: float) -> float:
    """Residue of flat_trace(ds * s) at s = 1, from 3 r^ds = 1."""
    ds = stretched_dimension(alpha)
    r = (1.0 - alpha) / 2.0
    return beta(ds) * 3.0 * (1.0 + alpha ** ds) / (ds * math.log(1.0 / r))


def stretched_residue_mean(level: int, alpha: float, text: str) -> float:
    """Limit of the stretched Dixmier functional over the Dixmier constant:
    the level-cell corner mean and the joining-endpoint mean, weighted as
    the triangle and joining curve families (1 : alpha^ds)."""
    corners = cell_corners((1.0 - alpha) / 2.0, level).reshape(-1, 2)
    tri = float(np.mean(evaluate(text, corners)))
    join = functional("stretched-joining", level, alpha, text)
    w = alpha ** stretched_dimension(alpha)
    return (tri + w * join) / (1.0 + w)


def harmonic_contractions() -> list[np.ndarray]:
    """3/5 along the corner axis q_j, 1/5 along its in-plane normal q'_j."""
    proj = np.eye(3) - 1.0 / 3.0
    normal = np.ones(3) / SQRT3
    mats = []
    for j in range(3):
        q = proj[:, j] / np.linalg.norm(proj[:, j])
        qp = np.cross(normal, q)
        mats.append(0.6 * np.outer(q, q) + 0.2 * np.outer(qp, qp))
    return mats


def harmonic_cell_corners(level: int) -> np.ndarray:
    """(3^level, 3, 3) embedded corners of the level cells: F_w applied to
    the corner images (e_j - 1/3) / sqrt 2, F_j fixing corner image j."""
    base = (np.eye(3) - 1.0 / 3.0) / math.sqrt(2.0)
    mats = harmonic_contractions()
    cells = base[None]
    for _ in range(level):
        cells = np.concatenate([(cells - base[j]) @ mats[j].T + base[j] for j in range(3)])
    return cells


def mass_spread(d: float, length: int) -> dict:
    mats = np.stack(harmonic_contractions())
    prods = mats
    for _ in range(length - 1):
        prods = np.einsum("wij,mjk->wmik", prods, mats).reshape(-1, 3, 3)
    norms = np.linalg.norm(prods, ord=2, axis=(1, 2))
    masses = 3.0 ** length * norms ** d
    return {"L": length, "d": d, "min": float(masses.min()),
            "max": float(masses.max()), "ratio": float(masses.max() / masses.min())}


# ---------------------------------------------------------------------------
# metric graphs
# ---------------------------------------------------------------------------


class Graph:
    """Weighted graph from edge endpoint arrays; ids follow the package's
    documented order (rounded coordinates sorted lexicographically)."""

    def __init__(self, p: np.ndarray, q: np.ndarray):
        pts = np.concatenate([p, q])
        self.nodes, inverse = np.unique(np.round(pts, 12), axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        n_edges = len(p)
        self.u, self.v = inverse[:n_edges], inverse[n_edges:]
        self.w = np.hypot(*(q - p).T)
        n = len(self.nodes)
        # the COO constructor would add parallel arcs; keep the shortest
        lo, hi = np.minimum(self.u, self.v), np.maximum(self.u, self.v)
        order = np.lexsort((self.w, hi, lo))
        key = lo[order] * n + hi[order]
        first = order[np.concatenate([[True], key[1:] != key[:-1]])]
        rows = np.concatenate([self.u[first], self.v[first]])
        cols = np.concatenate([self.v[first], self.u[first]])
        self.matrix = csr_matrix((np.concatenate([self.w[first]] * 2), (rows, cols)),
                                 shape=(n, n))

    def node_of(self, point) -> int:
        return int(np.argmin(np.linalg.norm(self.nodes - np.asarray(point), axis=1)))

    def distances(self, sources) -> np.ndarray:
        return dijkstra(self.matrix, directed=False, indices=sources)

    def max_slack(self, field: np.ndarray) -> float:
        return float((np.abs(field[self.u] - field[self.v]) - self.w).max())


def model_edges(text: str):
    doc = json.loads(text)
    edges = doc["edges"]
    p = np.array([e["p"] for e in edges], dtype=float)
    q = np.array([e["q"] for e in edges], dtype=float)
    return doc, edges, p, q


# ---------------------------------------------------------------------------
# written artifacts
# ---------------------------------------------------------------------------


def svg_elements(path: str) -> list:
    root = ET.parse(path).getroot()
    group = root.find(f"{SVG_NS}g")
    return [] if group is None else list(group)
