"""Discrete measure functionals and the Dixmier-trace measure estimates.

Three weighted point-set functionals, one per gasket variant, sample
continuous functions along the construction:

* classical gasket: uniform average over the 3^(n+1) cell-edge midpoints
  at level n;
* harmonic gasket: the same average pushed through the harmonic
  embedding;
* stretched gasket: uniform average over the 2 * 3^n endpoints of the
  joining segments born at stage n.

Each family satisfies the exact one-step self-affinity identity
psi_{n+1}(f) = (1/3) sum_j psi_n(f . G_j) with its generators G_j, and
converges weak-* to the variant's self-affine measure (the Hausdorff
measure for the stretched gasket).  ``dixmier_functional`` estimates the
measure a second way, through the residue of the f-weighted trace
series, which lets the two routes be compared.

``selfaffine_mass_spread`` quantifies why the harmonic-gasket Dixmier
measure cannot be a Hausdorff measure: the self-affine mass of a depth-L
cell is exactly 3^(-L) (constant across cells), while Hausdorff mass is
comparable to ||M_w||^d, which varies with the letter pattern of w, not
just its length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from gasketlab import harmonic
from gasketlab.geometry import (
    GasketError,
    GasketModel,
    _check_cap,
    _generation_starts,
    _stacked_cells,
    build_model,
    check_alpha,
    sg_hierarchy,
    stretched_hierarchy,
)
from gasketlab.spectrum import (
    ResidueResult,
    _bisect,
    _check_rungs,
    _ladder_eps,
    curve_trace_constant,
    extrapolate_ladder,
    stretched_dimension,
)

PointFunction = Callable[[np.ndarray], np.ndarray]


def _evaluate(f: PointFunction, points: np.ndarray) -> np.ndarray:
    values = np.asarray(f(points), dtype=float)
    if values.shape != (len(points),):
        raise GasketError(
            f"test function returned shape {values.shape}, expected ({len(points)},)"
        )
    return values


# ---------------------------------------------------------------------------
# Functional samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionalSample:
    """Weighted evaluation points of one discrete functional."""

    tag: str
    level: int
    points: np.ndarray
    weights: np.ndarray

    def __call__(self, f: PointFunction) -> float:
        return float(self.weights @ _evaluate(f, self.points))


def _sg_midpoints(n: int) -> np.ndarray:
    mesh = sg_hierarchy(n)[n]
    corners = mesh.points[mesh.cells]                    # (C, 3, 2)
    mids = np.stack([(corners[:, 0] + corners[:, 1]) / 2.0,
                     (corners[:, 0] + corners[:, 2]) / 2.0,
                     (corners[:, 1] + corners[:, 2]) / 2.0], axis=1)
    return mids.reshape(-1, 2)


def functional_sample(tag: str, n: int, alpha: Optional[float] = None) -> FunctionalSample:
    """Build the point set and weights of one functional.

    Tags: ``sg-midpoints`` and ``harmonic-midpoints`` need n >= 0;
    ``stretched-joining`` needs n >= 1 (no joining edges exist before
    stage 1) and the variant's alpha.  Stage n is refused, before any
    mesh is built, when the level-n model of the family's variant (sg for
    the midpoint families) would exceed the edge cap.
    """
    if n < 0:
        raise GasketError(f"functional stage must be >= 0, got {n}")
    if tag == "sg-midpoints":
        _check_cap("sg", n)
        pts = _sg_midpoints(n)
    elif tag == "harmonic-midpoints":
        _check_cap("sg", n)
        # midpoints of level-n cells are the fresh vertices of level n+1,
        # appended as (m_ab, m_ac, m_bc) per cell in cell order
        count = harmonic.vertex_count(n)
        pts = harmonic.phi_coordinates(n + 1)[count:]
    elif tag == "stretched-joining":
        if alpha is None:
            raise GasketError("stretched-joining functional requires alpha")
        if n < 1:
            raise GasketError("stretched-joining functional needs n >= 1")
        _check_cap("stretched", n)
        meshes, joins = stretched_hierarchy(n, check_alpha(alpha))
        ids = joins[n - 1].reshape(-1, 2).reshape(-1)
        pts = meshes[n].points[ids]
    else:
        raise GasketError(f"unknown functional tag {tag!r}")
    weights = np.full(len(pts), 1.0 / len(pts))
    return FunctionalSample(tag, n, pts, weights)


def sg_midpoint_functional(n: int, f: PointFunction) -> float:
    """Average of f over the cell-edge midpoints of the level-n gasket."""
    return functional_sample("sg-midpoints", n)(f)


def harmonic_midpoint_functional(n: int, h: PointFunction) -> float:
    """Average of h over the embedded midpoints; equals the flat
    functional applied to h composed with the embedding."""
    return functional_sample("harmonic-midpoints", n)(h)


def joining_edge_functional(n: int, f: PointFunction, alpha: float) -> float:
    """Average of f over the endpoints of the stage-n joining segments."""
    return functional_sample("stretched-joining", n, alpha)(f)


# ---------------------------------------------------------------------------
# Dixmier functionals
# ---------------------------------------------------------------------------


def _stretched_generation_sums(model: GasketModel, f: PointFunction):
    """Sums of edge-endpoint means of f, per generation and edge type.

    f is evaluated once, on the finest points, which every level's cells
    and joining ids index by the prefix invariant."""
    meshes, joins = stretched_hierarchy(model.level, model.alpha)
    values = _evaluate(f, meshes[-1].points)
    fa, fb, fc = values[_stacked_cells(meshes).T]
    means = (fa + fc) / 2 + (fc + fb) / 2 + (fb + fa) / 2
    starts = _generation_starts(model.level)
    tri_sums = [float(means[a:b].sum()) for a, b in zip(starts, starts[1:])]
    ids = [ends.reshape(-1, 2) for ends in joins]
    join_sums = [float(((values[e[:, 0]] + values[e[:, 1]]) / 2.0).sum()) for e in ids]
    return tri_sums, join_sums


@lru_cache(maxsize=16)
def _is_built(model: GasketModel) -> bool:
    """Whether ``model`` is the stretched model ``build_model`` makes at its
    level and alpha.  Cached per model, as metric graphs are: the model's
    hash is cached, so a later call is O(1)."""
    return model == build_model("stretched", model.level, model.alpha)


def dixmier_functional(
    model: GasketModel,
    f: PointFunction,
    eps_start: float = 0.1,
    rungs: int = 8,
) -> ResidueResult:
    """Residue estimate of the f-weighted Dixmier trace on the stretched gasket.

    Evaluates (s-1) sum_j fbar_j beta_{ds*s} l_j^{ds*s} on the epsilon
    ladder and Richardson-extrapolates to s -> 1+.  Edges beyond the
    model's level enter through a geometric tail whose per-curve f
    average is frozen at the deepest computed generation (the averages
    converge weak-*, so the tail bias shrinks with the model level).
    Converges to (Dixmier constant) * (self-affine integral of f).
    The sums are read off the built level and alpha, so any other model,
    such as a read document with edited edges, is refused.
    """
    if model.variant != "stretched":
        raise GasketError("dixmier_functional needs a stretched model")
    _check_cap("stretched", model.level)
    if not _is_built(model):
        raise GasketError("dixmier_functional needs the model build_model makes "
                          f"at level {model.level} and alpha {model.alpha}")
    alpha = model.alpha
    ds = stretched_dimension(alpha)
    ratio = (1.0 - alpha) / 2.0
    n = model.level
    tri_sums, join_sums = _stretched_generation_sums(model, f)
    tri_avg = tri_sums[-1] / 3 ** (n + 1)
    join_avg = (join_sums[-1] / 3 ** n) if join_sums else tri_avg

    def g(eps: float) -> float:
        p = ds * (1.0 + eps)
        total = sum(s * ratio ** (m * p) for m, s in enumerate(tri_sums))
        total += sum(s * (alpha * ratio ** m) ** p for m, s in enumerate(join_sums))
        q = 3.0 * ratio ** p
        total += tri_avg * 3.0 * q ** (n + 1) / (1.0 - q)
        total += join_avg * 3.0 * alpha ** p * q ** n / (1.0 - q)
        return eps * curve_trace_constant(p) * total

    return extrapolate_ladder(g, eps_start, rungs)


def _check_ladder(depth: int, eps_start: float, rungs: int) -> None:
    _check_rungs(rungs)
    harmonic._check_tables(depth, depth)


@harmonic._checked_cache(_check_ladder, maxsize=8)
def _kh_ladder(depth: int, eps_start: float, rungs: int) -> tuple[dict, dict]:
    """The part of ``kh_dixmier_ratio`` that does not depend on f (cached).

    Per length side (polyline bound, envelope bound), a dict from each
    ladder rung eps to, with p = ds (1 + eps) at that side's pole ds: the
    powers lengths[m] ** p of every generation m, their total, and the
    frozen geometric tail.  The cap check runs on every call, hits included.
    """
    tables = harmonic.edge_length_tables(depth, depth)
    sides = []
    for side in (0, 1):
        lengths = [t[side] for t in tables]

        def last_ratio(p: float) -> float:
            return float(np.sum(lengths[-1] ** p) / np.sum(lengths[-2] ** p))

        # this side's pole: the exponent at which the frozen geometric
        # tail would stop converging
        lo_p, hi_p = _bisect(lambda p: last_ratio(p) > 1.0, 1.0, 3.0, steps=60)
        ds = 0.5 * (lo_p + hi_p)
        rung = {}
        for eps in _ladder_eps(eps_start, rungs):
            powers = [x ** (ds * (1.0 + eps)) for x in lengths]
            terms = np.array([np.sum(x) for x in powers])
            gr = terms[-1] / terms[-2]
            rung[eps] = (powers, float(terms.sum()), terms[-1] * gr / (1.0 - gr))
        sides.append(rung)
    return tuple(sides)


def kh_dixmier_ratio(
    f: PointFunction,
    depth: int,
    eps_start: float = 0.4,
    rungs: int = 8,
) -> tuple[float, float]:
    """Interval estimate of tau(f)/tau(1) for the harmonic-gasket trace.

    Curve lengths are only known as intervals, so the trace-ratio limit
    is evaluated once per length side (polyline bound, envelope bound),
    each at its own growth-root exponent, and the min/max returned.  The
    ratio cancels the unknown normalization; its limit is the
    self-affine integral of f, so it should be compared against the
    embedded midpoint functionals at large n.  Everything but the f
    averages comes from the cached ``_kh_ladder``; f is evaluated once,
    on the level-depth vertex images, which every generation's cells
    index by the prefix invariant.
    """
    ladder = _kh_ladder(depth, eps_start, rungs)

    values = _evaluate(f, harmonic.phi_coordinates(depth))
    fa, fb, fc = values[_stacked_cells(sg_hierarchy(depth)).T]
    fbar = np.stack([(fa + fc) / 2, (fc + fb) / 2, (fb + fa) / 2], axis=1).reshape(-1)
    starts = [3 * start for start in _generation_starts(depth)]
    fbar_sums = [fbar[a:b] for a, b in zip(starts, starts[1:])]
    f_last = float(fbar_sums[-1].mean())

    def ratio_limit(rung: dict) -> float:
        def ratio(eps: float) -> float:
            powers, den, tail = rung[eps]
            num = sum(float(s @ x) for s, x in zip(fbar_sums, powers))
            return (num + f_last * tail) / (den + tail)

        return extrapolate_ladder(ratio, eps_start, rungs).value

    corners = [ratio_limit(rung) for rung in ladder]
    return min(corners), max(corners)


# ---------------------------------------------------------------------------
# Self-affine mass vs norm-power mass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpreadReport:
    """Range of 3^L ||M_w||^d over all words of length L.

    Self-affine cell masses times 3^L are identically 1, so any spread
    above 1 separates the self-affine measure from a d-dimensional
    Hausdorff measure, whose cell masses track ||M_w||^d.
    """

    L: int
    d: float
    min: float
    max: float
    ratio: float


def selfaffine_mass_spread(d: float, word_length: int) -> SpreadReport:
    """Spread of norm-power cell masses across all words of one length.

    Refuses a ``d`` at which the smallest mass underflows to 0, where the
    ratio would be inf or NaN."""
    if not 0.0 < d < np.inf:       # NaN fails both comparisons
        raise GasketError(f"dimension parameter d must be positive and finite, got {d}")
    if not 1 <= word_length <= 8:
        raise GasketError("word length limited to 1..8")
    st = harmonic.harmonic_structure()
    basis = np.stack([st.corner_axes[:, 0], st.corner_perps[:, 0]], axis=1)
    mats2 = [basis.T @ m @ basis for m in st.contractions]
    prods = np.eye(2)[None, :, :]
    for _ in range(word_length):
        prods = np.einsum("wij,mjk->wmik", prods, np.stack(mats2)).reshape(-1, 2, 2)
    norms = np.linalg.svd(prods, compute_uv=False)[:, 0]
    masses = 3.0 ** word_length * norms ** d
    low, high = float(masses.min()), float(masses.max())
    if low == 0.0:
        raise GasketError(f"the smallest cell mass underflows to 0 at d = {d} "
                          f"and word length {word_length}")
    return SpreadReport(L=word_length, d=float(d), min=low, max=high, ratio=high / low)
