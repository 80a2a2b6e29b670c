"""Zeta, curve traces, trace series, dimension solvers, Dixmier residues."""

import math

import numpy as np
import pytest
from conftest import brute_stretched_trace, brute_zeta, eigenvalue_trace
from scipy.special import zeta as sp_zeta

import gasketlab as gl
from gasketlab.geometry import GasketError
from gasketlab import harmonic
from gasketlab.spectrum import (
    GROWTH_ROUNDING,
    KH_DIMENSION_UPPER,
    DivergenceError,
    GeometricFamily,
    LengthSpectrum,
    extrapolate_ladder,
    growth_root,
    kh_trace_interval,
    scale_spectrum,
    single_curve_spectrum,
    union_spectrum,
)


# -- zeta --------------------------------------------------------------------

def test_zeta_basel_values():
    assert gl.riemann_zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-13)
    assert gl.riemann_zeta(4.0) == pytest.approx(math.pi ** 4 / 90.0, abs=1e-13)


def test_zeta_three_against_direct_summation():
    assert gl.riemann_zeta(3.0) == pytest.approx(brute_zeta(3.0), abs=1e-12)


def test_zeta_against_scipy_reference():
    for p in (1.05, 1.2, 1.5, 2.5, 7.0, 15.0):
        assert gl.riemann_zeta(p) == pytest.approx(float(sp_zeta(p)), abs=1e-12)


def test_zeta_domain():
    for bad in (1.0, 0.5, -2.0, 1.0 + 1e-10):
        with pytest.raises(GasketError):
            gl.riemann_zeta(bad)


def test_zeta_and_trace_constant_decrease():
    ps = np.linspace(1.1, 10.0, 20)
    zs = [gl.riemann_zeta(p) for p in ps]
    bs = [gl.curve_trace_constant(p) for p in ps]
    assert all(a > b for a, b in zip(zs, zs[1:]))
    assert all(a > b for a, b in zip(bs, bs[1:]))


# -- single-curve traces -----------------------------------------------------

def test_trace_constant_at_two_is_one():
    # derived from the direct eigenvalue sum, not from the formula
    assert eigenvalue_trace(1.0, 2.0) == pytest.approx(1.0, abs=1e-10)
    assert gl.curve_trace_constant(2.0) == pytest.approx(1.0, abs=1e-12)


def test_trace_constant_at_four():
    assert gl.curve_trace_constant(4.0) == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_trace_constant_positive():
    for p in (1.1, 1.5, 3.0):
        assert gl.curve_trace_constant(p) > 0.0


def test_curve_trace_homogeneity():
    assert gl.curve_trace(1.0, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert gl.curve_trace(2.0, 2.0) == pytest.approx(4.0, abs=1e-12)


def test_curve_trace_matches_direct_summation():
    for length, p in ((1.0, 2.0), (1.0, 3.0), (0.7, 2.5)):
        closed = gl.curve_trace(length, p)
        summed = eigenvalue_trace(length, p)
        assert summed == pytest.approx(closed, rel=1e-10)


def test_curve_trace_validation():
    with pytest.raises(GasketError):
        gl.curve_trace(0.0, 2.0)
    with pytest.raises(GasketError):
        gl.curve_trace(1.0, 0.9)


# -- model traces ------------------------------------------------------------

def test_stretched_trace_point_two_at_two_is_six():
    spectrum = gl.stretched_length_spectrum(0.2)
    assert gl.spectrum_trace(spectrum, 2.0) == pytest.approx(6.0, abs=1e-9)
    assert gl.spectrum_trace(spectrum, 2.0) == pytest.approx(
        brute_stretched_trace(0.2, 2.0), rel=1e-9
    )


@pytest.mark.parametrize("alpha", (0.1, 0.2, 0.3))
def test_closed_form_matches_generation_sums(alpha):
    d = gl.stretched_dimension(alpha)
    for p in (d + 0.1, 2.0, 3.0):
        closed = gl.spectrum_trace(gl.stretched_length_spectrum(alpha), p)
        assert closed == pytest.approx(brute_stretched_trace(alpha, p), rel=1e-9)


def test_trace_diverges_at_the_abscissa():
    spectrum = gl.stretched_length_spectrum(0.2)
    with pytest.raises(DivergenceError):
        gl.spectrum_trace(spectrum, gl.stretched_dimension(0.2))


def test_single_entry_equals_curve_trace():
    spectrum = single_curve_spectrum(1.0)
    assert gl.spectrum_trace(spectrum, 2.0) == pytest.approx(gl.curve_trace(1.0, 2.0),
                                                         abs=1e-14)


def test_trace_homogeneity_under_scaling():
    spectrum = gl.stretched_length_spectrum(0.2)
    for lam in (0.5, 2.0):
        for p in (1.5, 2.0, 3.0):
            scaled = gl.spectrum_trace(scale_spectrum(spectrum, lam), p)
            assert scaled == pytest.approx(lam ** p * gl.spectrum_trace(spectrum, p),
                                           rel=1e-10)


def test_spectrum_validation():
    with pytest.raises(GasketError):
        LengthSpectrum(entries=((0.0, 1),))
    with pytest.raises(GasketError):
        GeometricFamily(((1.0, 3),), 1.5)


# -- dimension ---------------------------------------------------------------

def test_stretched_dimension_closed_form():
    for alpha in (0.1, 0.2, 0.3):
        expected = math.log(3.0) / (math.log(2.0) - math.log(1.0 - alpha))
        assert gl.stretched_dimension(alpha) == pytest.approx(expected, abs=1e-15)
        est = gl.spectral_dimension(gl.stretched_length_spectrum(alpha))
        assert est.lower == est.upper == pytest.approx(expected, abs=1e-12)
    assert gl.stretched_dimension(0.2) == pytest.approx(1.19897784671579, abs=1e-12)


def test_dimension_small_alpha_limit():
    assert gl.stretched_dimension(0.001) == pytest.approx(math.log(3) / math.log(2),
                                                          abs=1e-2)


def test_sg_dimension():
    est = gl.spectral_dimension(gl.sg_length_spectrum())
    assert est.lower == pytest.approx(math.log(3) / math.log(2), abs=1e-14)


def test_finite_spectrum_has_zero_abscissa():
    est = gl.spectral_dimension(single_curve_spectrum(1.0))
    assert est.lower == est.upper == 0.0


def test_growth_bracket_encloses_dimension():
    for alpha in (0.1, 0.3):
        lo, hi = gl.abscissa_bracket(gl.stretched_length_spectrum(alpha), tol=1e-4)
        d = gl.stretched_dimension(alpha)
        assert lo <= d <= hi
        assert hi - lo <= 1e-4


def loop_abscissa_bracket(spectrum, generations=30, tol=1e-3, p_range=(0.5, 4.0)):
    """The bracket's own bisection loop, as the shared bisection's reference."""
    def grows(p):
        terms = np.zeros(generations)
        for family in spectrum.families:
            terms = terms + family.generation_terms(p, generations)
        return bool(terms[-1] > terms[-2])

    lo, hi = p_range
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if grows(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.mark.parametrize("tol", (1e-3, 1e-6, 1e-9, 1e-12))
def test_abscissa_bracket_matches_bisection_loop(tol):
    for alpha in np.linspace(0.01, 0.33, 9):
        spec = gl.stretched_length_spectrum(alpha)
        assert gl.abscissa_bracket(spec, tol=tol) == loop_abscissa_bracket(spec, tol=tol)


@pytest.mark.parametrize("tol", (0.0, 1e-17))
def test_bracket_below_one_ulp_stops_at_adjacent_doubles(tol):
    # the bisection stops on adjacent doubles, whose ends lie within the
    # predicate's rounding of the abscissa: each moves out by at most that
    for alpha in (0.05, 0.2, 0.3):
        lo, hi = gl.abscissa_bracket(gl.stretched_length_spectrum(alpha), tol=tol)
        assert hi - lo <= 2 * GROWTH_ROUNDING * hi + 2 * math.ulp(hi)
        assert lo <= gl.stretched_dimension(alpha) <= hi


def test_bracket_at_zero_tolerance_encloses_the_closed_form():
    cases = [(gl.stretched_length_spectrum(a), gl.stretched_dimension(a))
             for a in np.linspace(0.001, 0.333, 200)]
    cases.append((gl.sg_length_spectrum(), math.log(3.0) / math.log(2.0)))
    for spec, d in cases:
        lo, hi = gl.abscissa_bracket(spec, tol=0.0)
        assert lo <= d <= hi
        assert hi - lo <= 2 * GROWTH_ROUNDING * hi + 2 * math.ulp(hi)


def test_partial_sums_grow_below_the_abscissa():
    alpha = 0.2
    d = gl.stretched_dimension(alpha)
    family = gl.stretched_length_spectrum(alpha).families[0]
    below = family.generation_terms(d - 1e-3, 30)
    above = family.generation_terms(d + 1e-3, 30)
    assert (np.diff(below) > 0).all()
    assert (np.diff(above) < 0).all()
    # and the closed form stays finite just above
    assert np.isfinite(gl.spectrum_trace(gl.stretched_length_spectrum(alpha),
                                         d + 1e-3))


# -- residues ----------------------------------------------------------------

def test_dixmier_constant_positive_and_continuous():
    grid = np.linspace(0.05, 0.30, 10)
    vals = np.array([gl.stretched_dixmier_constant(a) for a in grid])
    assert (vals > 0.0).all()
    jumps = np.abs(np.diff(vals))
    assert jumps.max() <= 10.0 * jumps.mean()


def test_residue_matches_dixmier_constant():
    alpha = 0.2
    res = gl.residue_estimate(gl.stretched_length_spectrum(alpha),
                              gl.stretched_dimension(alpha))
    assert res.converged
    assert res.value == pytest.approx(gl.stretched_dixmier_constant(alpha),
                                      rel=1e-3)


def test_residue_of_finite_spectrum_vanishes():
    res = gl.residue_estimate(single_curve_spectrum(1.0), 2.0)
    assert res.converged
    assert abs(res.value) < 1e-6


def test_residue_additive_over_disjoint_unions():
    a = gl.stretched_length_spectrum(0.2)
    b = scale_spectrum(a, 0.5)
    ds = gl.stretched_dimension(0.2)
    whole = gl.residue_estimate(union_spectrum(a, b), ds).value
    parts = gl.residue_estimate(a, ds).value + gl.residue_estimate(b, ds).value
    assert whole == pytest.approx(parts, rel=1e-6)
    # scaling acts by lambda^ds on the residue
    assert gl.residue_estimate(b, ds).value == pytest.approx(
        0.5 ** ds * gl.residue_estimate(a, ds).value, rel=1e-5
    )


def test_ladder_needs_three_rungs():
    with pytest.raises(GasketError):
        gl.residue_estimate(single_curve_spectrum(1.0), 2.0, rungs=2)


def test_ladder_needs_four_rungs():
    # three rungs leave one extrapolant, too few for the convergence test
    with pytest.raises(GasketError, match="at least 4 rungs"):
        extrapolate_ladder(lambda e: e, 0.1, 3)
    result = extrapolate_ladder(lambda e: 2.0 + e * e, 0.1, 4)
    assert len(result.extrapolants) == 2 and result.converged
    assert result.value == pytest.approx(2.0, abs=1e-15)


# -- harmonic-gasket truncations ---------------------------------------------

def test_kh_interval_contained_and_narrowing():
    est2 = gl.kh_dimension_interval(2)
    est3 = gl.kh_dimension_interval(3)
    for est in (est2, est3):
        assert est.method == "truncation+tail"
        assert 1.0 <= est.lower <= est.upper <= KH_DIMENSION_UPPER
    assert est3.width < est2.width


def loop_growth_root(generation_lengths, p_range=(1.0, KH_DIMENSION_UPPER),
                     iterations=60):
    """The growth root's own bisection loop, as the shared bisection's
    reference; it sums every generation at every step."""
    def mean_log_growth(p):
        sums = np.array([np.sum(lengths ** p) for lengths in generation_lengths])
        return math.log(sums[-1] / sums[1]) / (len(sums) - 2)

    lo, hi = p_range
    if mean_log_growth(hi) > 0.0:
        return hi
    if mean_log_growth(lo) < 0.0:
        return lo
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if mean_log_growth(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("depth", range(2, 7))
def test_growth_root_matches_bisection_loop(depth):
    for side in (0, 1):
        lengths = [t[side] for t in harmonic.edge_length_tables(depth, depth)]
        for iterations in (5, 60):
            assert (growth_root(lengths, iterations=iterations)
                    == loop_growth_root(lengths, iterations=iterations))
        # both clamps: the root lies above 1.2 and below 1.5
        for p_range, clamp in (((1.0, 1.2), 1.2), ((1.5, KH_DIMENSION_UPPER), 1.5)):
            assert growth_root(lengths, p_range) == loop_growth_root(lengths, p_range) == clamp
    est = gl.kh_dimension_interval(depth)
    roots = [loop_growth_root([t[side] for t in harmonic.edge_length_tables(depth, depth)])
             for side in (0, 1)]
    assert (est.lower, est.upper) == (max(1.0, min(roots)),
                                      min(KH_DIMENSION_UPPER, max(roots)))


def test_kh_trace_interval_behaviour():
    lo, hi = kh_trace_interval(2.2, depth=3)
    assert 0.0 < lo < hi < math.inf
    lo, hi = kh_trace_interval(2.0, depth=3)
    assert math.isinf(hi) and lo > 0.0


def test_kh_upper_bound_value():
    assert KH_DIMENSION_UPPER == pytest.approx(2.1507, abs=1e-4)
