"""Measure functionals, self-affinity, Dixmier-route measure recovery."""

import numpy as np
import pytest
from conftest import POLY_2D, POLY_3D, oracle_phi

import gasketlab as gl
from gasketlab import harmonic, measure
from gasketlab.geometry import GasketError, ResourceCapError, sg_hierarchy
from gasketlab.harmonic import vertex_count
from gasketlab.spectrum import extrapolate_ladder


def _ones(pts):
    return np.ones(len(pts))


# -- samples and basic functionals -------------------------------------------

def test_sample_counts_and_weights():
    for n in range(0, 4):
        s = measure.functional_sample("sg-midpoints", n)
        assert len(s.points) == 3 ** (n + 1)
        assert abs(s.weights.sum() - 1.0) <= 1e-14
    for n in range(1, 5):
        s = measure.functional_sample("stretched-joining", n, 0.2)
        assert len(s.points) == 2 * 3 ** n
        assert abs(s.weights.sum() - 1.0) <= 1e-14
    s = measure.functional_sample("harmonic-midpoints", 2)
    assert s.points.shape == (27, 3)


def test_sample_validation():
    with pytest.raises(GasketError):
        measure.functional_sample("stretched-joining", 0, 0.2)
    with pytest.raises(GasketError):
        measure.functional_sample("stretched-joining", 2)
    with pytest.raises(GasketError):
        measure.functional_sample("bogus", 1)


def test_joining_functional_normalization():
    for n in range(1, 7):
        assert gl.joining_edge_functional(n, _ones, 0.2) == pytest.approx(
            1.0, abs=1e-14
        )


def test_sg_midpoints_average_x_to_one_half():
    assert gl.sg_midpoint_functional(0, POLY_2D["x"]) == pytest.approx(0.5,
                                                                       abs=1e-14)
    for n in range(1, 6):
        assert gl.sg_midpoint_functional(n, POLY_2D["x"]) == pytest.approx(
            0.5, abs=1e-12
        )


# -- self-affinity ------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(POLY_2D))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_self_affinity_sg(name, n):
    assert gl.self_affinity_residual("sg", n, POLY_2D[name]) <= 1e-12


@pytest.mark.parametrize("name", sorted(POLY_2D))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_self_affinity_stretched(name, n):
    assert gl.self_affinity_residual("stretched", n, POLY_2D[name],
                                     alpha=0.2) <= 1e-12


@pytest.mark.parametrize("name", sorted(POLY_3D))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_self_affinity_harmonic(name, n):
    assert gl.self_affinity_residual("harmonic", n, POLY_3D[name]) <= 1e-12


def test_self_affinity_validation():
    with pytest.raises(GasketError):
        gl.self_affinity_residual("nope", 1, _ones)
    with pytest.raises(GasketError):
        gl.self_affinity_residual("stretched", 1, _ones)


# -- pushforward consistency ---------------------------------------------------

@pytest.mark.parametrize("name", sorted(POLY_3D))
def test_embedded_functional_is_a_pushforward(name):
    # right-hand side composes with an embedding computed through the
    # dense-minimization route, independent of the library's phi
    h = POLY_3D[name]
    for n in range(0, 4):
        lhs = gl.harmonic_midpoint_functional(n, h)
        phi_pts = oracle_phi(n + 1)[vertex_count(n):]
        rhs = float(np.mean(h(phi_pts)))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_weakstar_cauchy_differences_halve():
    alpha = 0.2
    for name, f in POLY_2D.items():
        vals = [gl.joining_edge_functional(n, f, alpha) for n in range(1, 8)]
        diffs = np.abs(np.diff(vals))          # diffs[k] = |psi_{k+2} - psi_{k+1}|
        for n in (3, 4, 5):                    # from stage 3 on
            # differences at the rounding floor count as zero
            assert diffs[n - 1] <= max(0.5 * diffs[n - 2], 1e-13)


# -- Dixmier functionals --------------------------------------------------------

@pytest.mark.parametrize("alpha", (0.1, 0.2, 0.3))
def test_dixmier_functional_of_one_recovers_the_constant(alpha):
    model = gl.build_model("stretched", 5, alpha)
    res = gl.dixmier_functional(model, _ones)
    assert res.converged
    assert res.value == pytest.approx(gl.stretched_dixmier_constant(alpha),
                                      rel=1e-3)


def test_dixmier_functional_of_zero_vanishes():
    model = gl.build_model("stretched", 4, 0.2)
    res = gl.dixmier_functional(model, lambda pts: np.zeros(len(pts)))
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_dixmier_functional_ratio_for_x_is_one_half():
    model = gl.build_model("stretched", 5, 0.2)
    num = gl.dixmier_functional(model, POLY_2D["x"]).value
    den = gl.dixmier_functional(model, _ones).value
    assert num / den == pytest.approx(0.5, abs=1e-6)


def test_dixmier_functional_needs_stretched_model():
    with pytest.raises(GasketError):
        gl.dixmier_functional(gl.build_model("sg", 2), _ones)


def test_kh_ratio_approaches_embedded_functional():
    f = POLY_3D["x^2"]
    target = gl.harmonic_midpoint_functional(6, f)
    gaps = []
    for depth in (2, 3, 4):
        lo, hi = measure.kh_dixmier_ratio(f, depth)
        gaps.append(abs(0.5 * (lo + hi) - target))
    assert gaps[-1] <= 0.01 * abs(target) + 1e-12
    assert gaps[2] < gaps[0]


def loop_kh_dixmier_ratio(f, depth, eps_start=0.4, rungs=8):
    """kh_dixmier_ratio with its own 60-step pole bisection, as the reference."""
    tables = harmonic.edge_length_tables(depth, depth)
    fbar_sums = []
    for gen in range(depth + 1):
        imgs = harmonic.phi_coordinates(gen)[sg_hierarchy(gen)[gen].cells]
        fa, fb, fc = f(imgs[:, 0]), f(imgs[:, 1]), f(imgs[:, 2])
        fbar = np.stack([(fa + fc) / 2, (fc + fb) / 2, (fb + fa) / 2], axis=1)
        fbar_sums.append(fbar.reshape(-1))

    def ratio_limit(side):
        lengths = [t[side] for t in tables]
        f_last = float(fbar_sums[-1].mean())
        lo_p, hi_p = 1.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo_p + hi_p)
            if float(np.sum(lengths[-1] ** mid) / np.sum(lengths[-2] ** mid)) > 1.0:
                lo_p = mid
            else:
                hi_p = mid
        ds = 0.5 * (lo_p + hi_p)

        def ratio(eps):
            p = ds * (1.0 + eps)
            terms = np.array([np.sum(lengths[m] ** p) for m in range(depth + 1)])
            num = sum(float(fbar_sums[m] @ lengths[m] ** p) for m in range(depth + 1))
            gr = terms[-1] / terms[-2]
            tail = terms[-1] * gr / (1.0 - gr)
            return (num + f_last * tail) / (float(terms.sum()) + tail)

        return extrapolate_ladder(ratio, eps_start, rungs).value

    corners = [ratio_limit(side) for side in (0, 1)]
    return min(corners), max(corners)


@pytest.mark.parametrize("name", ["x", "x^2", "x*y"])
@pytest.mark.parametrize("depth", [2, 4])
def test_kh_ratio_matches_bisection_loop(name, depth):
    f = POLY_3D[name]
    assert measure.kh_dixmier_ratio(f, depth) == loop_kh_dixmier_ratio(f, depth)


def test_kh_ratio_ladder_is_cached_across_functions(monkeypatch):
    measure._kh_ladder.cache_clear()
    for name in ("x", "x^2", "x*y", "x"):
        f = POLY_3D[name]
        assert measure.kh_dixmier_ratio(f, 3, 0.3, 6) == loop_kh_dixmier_ratio(f, 3, 0.3, 6)
    info = measure._kh_ladder.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    # the edge cap still holds on a cache hit
    monkeypatch.setenv("GASKET_MAX_EDGES", "10")
    with pytest.raises(ResourceCapError):
        measure.kh_dixmier_ratio(POLY_3D["x"], 3, 0.3, 6)


def test_kh_ratio_needs_four_rungs():
    # three rungs leave one extrapolant, too few for the convergence test
    measure._kh_ladder.cache_clear()
    with pytest.raises(GasketError, match="at least 4 rungs"):
        measure.kh_dixmier_ratio(POLY_3D["x"], 3, 0.3, 3)
    assert measure._kh_ladder.cache_info().misses == 0
    lo, hi = measure.kh_dixmier_ratio(POLY_3D["x"], 3, 0.3, 4)
    assert (lo, hi) == loop_kh_dixmier_ratio(POLY_3D["x"], 3, 0.3, 4)


# -- mass spread ---------------------------------------------------------------

def test_spread_is_flat_at_length_one():
    report = gl.selfaffine_mass_spread(1.5, 1)
    assert report.ratio == pytest.approx(1.0, abs=1e-12)
    assert report.min == pytest.approx(3.0 * 0.6 ** 1.5, abs=1e-12)


def test_spread_extremes_against_norm_values():
    report = gl.selfaffine_mass_spread(1.5, 2)
    # the repeated word realizes the largest norm 0.36
    assert report.max == pytest.approx(9.0 * 0.36 ** 1.5, abs=1e-12)
    assert report.min == pytest.approx(9.0 * gl.m_word_norm("12") ** 1.5,
                                       abs=1e-12)


def test_spread_ratio_nondecreasing_in_word_length():
    ratios = [gl.selfaffine_mass_spread(1.5, L).ratio for L in range(1, 7)]
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 1.0


def test_spread_validation():
    with pytest.raises(GasketError):
        gl.selfaffine_mass_spread(0.0, 2)
    with pytest.raises(GasketError):
        gl.selfaffine_mass_spread(1.5, 9)


def test_selfaffine_cell_mass_is_word_count_uniform():
    # the embedded midpoint sample distributes exactly 3^(n-L+1) points
    # into each depth-L cell: integer counting, no geometry involved
    n, L = 5, 3
    cells_per_block = 3 ** (n - L)
    sample = measure.functional_sample("harmonic-midpoints", n)
    assert len(sample.points) == 3 ** (n + 1)
    owner = np.arange(3 ** n) // cells_per_block   # cell row -> depth-L block
    counts = np.bincount(np.repeat(owner, 3), minlength=3 ** L)
    assert (counts == 3 ** (n - L + 1)).all()
