"""Zeta, curve traces, trace series, dimension solvers, Dixmier residues."""

import math

import numpy as np
import pytest
from conftest import brute_stretched_trace, brute_zeta, eigenvalue_trace
from scipy.special import zeta as sp_zeta

import gasketlab as gl
from gasketlab.geometry import GasketError
from gasketlab import harmonic, measure, spectrum
from gasketlab.spectrum import (
    GROWTH_ROUNDING,
    KH_DIMENSION_UPPER,
    DivergenceError,
    LengthSpectrum,
    _P_OVERFLOW,
    extrapolate_ladder,
    growth_root,
    kh_trace_interval,
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


@pytest.mark.parametrize("p", (math.nextafter(_P_OVERFLOW, math.inf), 621.0, 1023.0,
                               1e6, math.inf))
def test_curve_trace_refuses_a_p_whose_pi_power_overflows(p):
    # 621 raised a bare OverflowError; a numpy p gave 0 or nan with a warning
    for arg in (p, np.float64(p)):
        with pytest.raises(GasketError, match=f"pi\\^p overflows a double, got {p}$"):
            gl.curve_trace(1.0, arg)


def test_curve_trace_constant_is_finite_up_to_the_overflow():
    # 2^(p+1) / pi^p, to the rounding of exp at |log| ~ 280
    for p in (620.0, _P_OVERFLOW):
        expected = math.exp((p + 1) * math.log(2.0) - p * math.log(math.pi))
        assert gl.curve_trace_constant(p) == pytest.approx(expected, rel=1e-12)


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


def scaled(spectrum, lam):
    return LengthSpectrum(tuple((lam * length, mult) for length, mult in spectrum.base),
                          spectrum.ratio)


def test_trace_homogeneity_under_scaling():
    spectrum = gl.stretched_length_spectrum(0.2)
    for lam in (0.5, 2.0):
        for p in (1.5, 2.0, 3.0):
            scaled_trace = gl.spectrum_trace(scaled(spectrum, lam), p)
            assert scaled_trace == pytest.approx(lam ** p * gl.spectrum_trace(spectrum, p),
                                                 rel=1e-10)


def test_spectrum_validation():
    with pytest.raises(GasketError, match="length > 0, mult >= 1"):
        LengthSpectrum(((0.0, 1),), 0.5)
    with pytest.raises(GasketError, match="length > 0, mult >= 1"):
        LengthSpectrum(((1.0, 3), (1.0, 0)), 0.5)
    with pytest.raises(GasketError, match="ratio must lie in"):
        LengthSpectrum(((1.0, 3),), 1.5)


# -- dimension ---------------------------------------------------------------

def test_stretched_dimension_closed_form():
    for alpha in (0.1, 0.2, 0.3):
        expected = math.log(3.0) / (math.log(2.0) - math.log(1.0 - alpha))
        assert gl.stretched_dimension(alpha) == pytest.approx(expected, abs=1e-15)
        abscissa = gl.stretched_length_spectrum(alpha).abscissa
        assert abscissa == pytest.approx(expected, abs=1e-12)
    assert gl.stretched_dimension(0.2) == pytest.approx(1.19897784671579, abs=1e-12)


def test_dimension_small_alpha_limit():
    assert gl.stretched_dimension(0.001) == pytest.approx(math.log(3) / math.log(2),
                                                          abs=1e-2)


def test_sg_dimension():
    abscissa = gl.sg_length_spectrum().abscissa
    assert abscissa == pytest.approx(math.log(3) / math.log(2), abs=1e-14)


def test_growth_bracket_encloses_dimension():
    for alpha in (0.1, 0.3):
        lo, hi = gl.abscissa_bracket(gl.stretched_length_spectrum(alpha), tol=1e-4)
        d = gl.stretched_dimension(alpha)
        assert lo <= d <= hi
        assert hi - lo <= 1e-4


def test_bracket_refuses_an_abscissa_outside_its_range():
    spectrum = LengthSpectrum(((1.0, 3),), 0.1)
    assert spectrum.abscissa == pytest.approx(0.477, abs=1e-3)
    with pytest.raises(GasketError, match=r"^abscissa not bracketed by p_range \(0.5, 4.0\)$"):
        gl.abscissa_bracket(spectrum)


def loop_abscissa_bracket(spectrum, tol):
    """The bracket's own bisection loop, as the shared bisection's reference."""
    def grows(p):
        terms = spectrum.generation_terms(p, 30)
        return bool(terms[-1] > terms[-2])

    lo, hi = 0.5, 4.0
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
    spectrum = gl.stretched_length_spectrum(alpha)
    below = spectrum.generation_terms(d - 1e-3, 30)
    above = spectrum.generation_terms(d + 1e-3, 30)
    assert (np.diff(below) > 0).all()
    assert (np.diff(above) < 0).all()
    # and the closed form stays finite just above
    assert np.isfinite(gl.spectrum_trace(spectrum, d + 1e-3))


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
    # one curve: its trace stays bounded as s -> 1+, so (s-1) tr -> 0
    res = extrapolate_ladder(lambda eps: eps * gl.curve_trace(1.0, 2.0 * (1.0 + eps)))
    assert res.converged
    assert abs(res.value) < 1e-6


def test_residue_additive_over_disjoint_unions():
    a = gl.stretched_length_spectrum(0.2)
    b = scaled(a, 0.5)
    ds = gl.stretched_dimension(0.2)
    whole = gl.residue_estimate(LengthSpectrum(a.base + b.base, a.ratio), ds).value
    parts = gl.residue_estimate(a, ds).value + gl.residue_estimate(b, ds).value
    assert whole == pytest.approx(parts, rel=1e-6)
    # scaling acts by lambda^ds on the residue
    assert gl.residue_estimate(b, ds).value == pytest.approx(
        0.5 ** ds * gl.residue_estimate(a, ds).value, rel=1e-5
    )


# -- harmonic-gasket truncations ---------------------------------------------

def test_kh_interval_contained_and_narrowing():
    est2 = gl.kh_dimension_interval(2)
    est3 = gl.kh_dimension_interval(3)
    for est in (est2, est3):
        assert est.method == "truncation+tail"
        assert 1.0 <= est.lower <= est.upper <= KH_DIMENSION_UPPER
    assert est3.width < est2.width


def test_kh_interval_refuses_a_depth_below_two():
    # depth 1 failed inside growth_root, depth 0 inside the length tables
    for depth in (1, 0):
        with pytest.raises(GasketError, match=f"needs depth >= 2, got {depth}$"):
            gl.kh_dimension_interval(depth)


def loop_growth_root(generation_lengths):
    """The growth root's own 60-step bisection loop on [1, KH_DIMENSION_UPPER],
    as the shared bisection's reference; it sums every generation at every
    step."""
    def mean_log_growth(p):
        sums = np.array([np.sum(lengths ** p) for lengths in generation_lengths])
        return math.log(sums[-1] / sums[1]) / (len(sums) - 2)

    lo, hi = 1.0, KH_DIMENSION_UPPER
    if mean_log_growth(hi) > 0.0:
        return hi
    if mean_log_growth(lo) < 0.0:
        return lo
    for _ in range(60):
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
        assert growth_root(lengths) == loop_growth_root(lengths)
    est = gl.kh_dimension_interval(depth)
    roots = [loop_growth_root([t[side] for t in harmonic.edge_length_tables(depth, depth)])
             for side in (0, 1)]
    assert (est.lower, est.upper) == (max(1.0, min(roots)),
                                      min(KH_DIMENSION_UPPER, max(roots)))


def test_growth_root_clamps_to_its_range():
    # unit lengths whose count grows (or lengths that shrink) at every p:
    # the sums never turn, so the root is the range end they point past
    first = np.ones(3)
    for last, clamp in ((np.ones(30), KH_DIMENSION_UPPER), (np.full(3, 0.1), 1.0)):
        lengths = [first, first, last]
        assert growth_root(lengths) == loop_growth_root(lengths) == clamp


@pytest.mark.parametrize("depth", range(2, 8))
def test_root_bisections_stop_by_themselves(monkeypatch, depth):
    # the growth root on [1, KH_DIMENSION_UPPER] and the harmonic ratio's
    # pole on [1, 3] end at adjacent doubles within 54 calls of their
    # predicate, so a cap of 60 halvings never applied
    real, runs = spectrum._bisect, []

    def counted(below, lo, hi, **kwargs):
        calls = []
        out = real(lambda p: calls.append(p) or below(p), lo, hi, **kwargs)
        runs.append(((lo, hi), len(calls), out))
        return out

    monkeypatch.setattr(spectrum, "_bisect", counted)
    monkeypatch.setattr(measure, "_bisect", counted)
    tables = harmonic.edge_length_tables(depth, depth)
    for side in (0, 1):
        growth_root([t[side] for t in tables])
    measure._kh_ladder.__wrapped__(depth)
    assert [start for start, _, _ in runs] == [(1.0, KH_DIMENSION_UPPER)] * 2 + [(1.0, 3.0)] * 2
    for _, calls, (lo, hi) in runs:
        assert calls <= 54
        assert hi == np.nextafter(lo, np.inf)


def test_kh_trace_interval_behaviour():
    lo, hi = kh_trace_interval(2.2, depth=3)
    assert 0.0 < lo < hi < math.inf
    lo, hi = kh_trace_interval(2.0, depth=3)
    assert math.isinf(hi) and lo > 0.0


def test_kh_upper_bound_value():
    assert KH_DIMENSION_UPPER == pytest.approx(2.1507, abs=1e-4)
