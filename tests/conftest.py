"""Shared test oracles, kept independent of the code paths they check."""

from functools import reduce

import numpy as np

from gasketlab.geometry import AffineMap, compose_word, sg_hierarchy
from gasketlab.harmonic import MIDPOINT_RULE, corner_map, harmonic_structure, vertex_count
from gasketlab.measure import functional_sample


def index_word(level: int, index: int) -> str:
    """Address of mesh row ``index`` at ``level``: its base-3 digits, plus one."""
    return "".join(str(index // 3 ** k % 3 + 1) for k in reversed(range(level)))


def vertex_rows(points, level: int) -> np.ndarray:
    """Level-n vertex ids of ``points``, each matched to its mesh point."""
    mesh = sg_hierarchy(level)[level].points
    gaps = np.linalg.norm(np.asarray(points)[:, None] - mesh[None], axis=-1)
    rows = gaps.argmin(axis=1)
    assert gaps[np.arange(len(rows)), rows].max() < 1e-12, "not a vertex"
    return rows


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


def word_map(word) -> AffineMap:
    """Harmonic corner maps composed along a word, first letter applied first."""
    return reduce(lambda out, letter: corner_map(letter).after(out), word,
                  AffineMap.identity(3))


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
    if family == "harmonic":
        maps = [corner_map(j) for j in (1, 2, 3)]
    else:
        maps = [compose_word(family, (j,), alpha) for j in (1, 2, 3)]

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
