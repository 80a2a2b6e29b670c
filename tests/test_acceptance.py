"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import math
import time

import numpy as np
import pytest
from conftest import (
    POLY_2D,
    brute_stretched_trace,
    dense_minimum_energy_extension,
    eigenvalue_trace,
    energy,
    harmonic_extend,
    oracle_phi,
    self_affinity_residual,
    vertex_rows,
    word_map,
)

import gasketlab as gl
from gasketlab import harmonic, measure
from gasketlab.geometry import sg_hierarchy
from gasketlab.harmonic import phi_coordinates
from gasketlab.metric import to_metric_graph
from gasketlab.spectrum import KH_DIMENSION_UPPER


def _report(num: int, text: str) -> None:
    print(f"\n[acceptance] criterion {num:2d}: PASS - {text}")


def test_criterion_01_closed_form_trace():
    start = time.perf_counter()
    closed = gl.spectrum_trace(gl.stretched_length_spectrum(0.2), 2.0)
    brute = brute_stretched_trace(0.2, 2.0)
    elapsed = time.perf_counter() - start
    assert closed == pytest.approx(6.0, abs=1e-9)
    assert closed == pytest.approx(brute, rel=1e-9)
    assert elapsed < 1.0
    _report(1, f"trace(alpha=0.2, p=2) = {closed:.12f} vs oracle {brute:.12f} "
               f"({elapsed * 1e3:.0f} ms)")


def test_criterion_02_spectral_dimension():
    start = time.perf_counter()
    for alpha in (0.1, 0.2, 0.3):
        expected = math.log(3.0) / (math.log(2.0) - math.log(1.0 - alpha))
        value = gl.stretched_dimension(alpha)
        assert value == pytest.approx(expected, abs=1e-12)
        est = gl.spectral_dimension(gl.stretched_length_spectrum(alpha))
        assert est.lower == est.upper == pytest.approx(expected, abs=1e-12)
        lo, hi = gl.abscissa_bracket(gl.stretched_length_spectrum(alpha),
                                     generations=30, tol=1e-3)
        assert hi - lo <= 1e-3
        assert lo <= expected <= hi
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"closed form to 1e-12 and growth bracket to 1e-3 for "
               f"alpha in (0.1, 0.2, 0.3) ({elapsed * 1e3:.0f} ms)")


def test_criterion_03_dixmier_constant():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.1, 0.2, 0.3):
        spectrum = gl.stretched_length_spectrum(alpha)
        res = gl.residue_estimate(spectrum, gl.stretched_dimension(alpha))
        const = gl.stretched_dixmier_constant(alpha)
        assert res.converged
        rel = abs(res.value - const) / const
        worst = max(worst, rel)
        assert rel <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, f"residue vs closed-form constant, worst rel err {worst:.2e} "
               f"({elapsed * 1e3:.0f} ms)")


def test_criterion_04_curve_trace_oracle():
    closed = gl.curve_trace(1.0, 2.0)
    summed = eigenvalue_trace(1.0, 2.0, k_cutoff=10 ** 6)
    assert closed == pytest.approx(1.0, abs=1e-10)
    assert summed == pytest.approx(closed, rel=1e-10)
    _report(4, f"curve trace 1 vs direct sum {summed:.14f}")


def test_criterion_05_geodesic_recovery():
    for level in range(1, 7):
        res = gl.geodesic(gl.build_model("stretched", level, 0.2), (0.0, 0.0), (1.0, 0.0))
        assert res.distance == pytest.approx(1.0, abs=1e-12)
    model = gl.build_model("stretched", 4, 0.2)
    graph = to_metric_graph(model)
    rng = np.random.default_rng(0)
    for target in rng.integers(0, graph.node_count, size=20):
        report = gl.lipschitz_witness_check(model, int(target))
        assert report.ok
        assert report.max_arc_violation <= 1e-12
    _report(5, "unit bottom geodesic at levels 1..6, witness check at 20 "
               "random targets")


def test_criterion_06_energy_renormalization():
    rng = np.random.default_rng(12)
    values = rng.normal(size=3)
    for level in range(6):
        nxt = harmonic_extend(level, values)
        assert energy(level, values) == pytest.approx(
            (5.0 / 3.0) * energy(level + 1, nxt), rel=1e-10)
        values = nxt
    for _ in range(100):
        corners = rng.normal(size=3)
        ours = harmonic_extend(0, corners)[3:]
        dense = dense_minimum_energy_extension(0, corners)[3:]
        np.testing.assert_allclose(ours, dense, atol=1e-10)
    _report(6, "E_n = (5/3) E_{n+1} over six levels; midpoint rule matches "
               "dense minimization on 100 triples")


def test_criterion_07_intertwining():
    pts3 = sg_hierarchy(3)[3].points
    phi3 = phi_coordinates(3)
    worst = 0.0
    for k in range(4):
        for idx in np.ndindex(*(3,) * k):
            word = tuple(i + 1 for i in idx)
            images = gl.compose_word("sg", word)(pts3)
            lhs = phi_coordinates(3 + k)[vertex_rows(images, 3 + k)]
            rhs = word_map(word)(phi3)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst <= 1e-9
    _report(7, f"embedding intertwines all words up to length 3 on V_3, "
               f"max err {worst:.2e}")


def test_criterion_08_harmonic_dimension_interval():
    widths = []
    for depth in (2, 3, 4, 5):
        est = gl.kh_dimension_interval(depth)
        if depth >= 4:
            assert 1.0 <= est.lower <= est.upper <= 2.1507
        assert 1.0 <= est.lower <= est.upper <= KH_DIMENSION_UPPER + 1e-12
        widths.append(est.width)
    assert all(b < a for a, b in zip(widths, widths[1:]))
    _report(8, "interval inside [1, 2.1507], widths "
               + " > ".join(f"{w:.2e}" for w in widths))


def test_criterion_09_measure_functionals():
    for n in range(1, 7):
        assert gl.joining_edge_functional(
            n, lambda p: np.ones(len(p)), 0.2
        ) == pytest.approx(1.0, abs=1e-14)
    fs2 = list(POLY_2D.values())
    for n in (1, 2, 3):
        for f in fs2:
            assert self_affinity_residual("sg", n, f) <= 1e-12
            assert self_affinity_residual("stretched", n, f, alpha=0.2) <= 1e-12
    fs3 = [lambda p: np.ones(len(p)), lambda p: p[:, 0], lambda p: p[:, 2],
           lambda p: p[:, 0] ** 2, lambda p: p[:, 0] * p[:, 1]]
    for n in (1, 2, 3):
        for f in fs3:
            assert self_affinity_residual("harmonic", n, f) <= 1e-12
    for n in (1, 2, 3):
        phi_mid = oracle_phi(n + 1)[harmonic.vertex_count(n):]
        for h in fs3:
            lhs = gl.harmonic_midpoint_functional(n, h)
            rhs = float(np.mean(h(phi_mid)))
            assert lhs == pytest.approx(rhs, abs=1e-10)
    _report(9, "normalization exact, self-affinity residuals <= 1e-12, "
               "pushforward cross-check to 1e-10")


def test_criterion_10_measure_recovery():
    alpha = 0.2
    model = gl.build_model("stretched", 6, alpha)
    base = gl.dixmier_functional(model, lambda p: np.ones(len(p)))
    assert base.converged
    worst = 0.0
    for name in ("x", "y", "x^2", "x*y"):
        res = gl.dixmier_functional(model, POLY_2D[name])
        ratio = res.value / base.value
        target = gl.joining_edge_functional(8, POLY_2D[name], alpha)
        worst = max(worst, abs(ratio - target))
        assert ratio == pytest.approx(target, abs=1e-2)
    _report(10, f"trace-measure ratios match the weak-* functional, worst "
                f"abs err {worst:.2e}")


def test_criterion_11_measure_inequivalence_exhibit():
    ratios = [gl.selfaffine_mass_spread(1.5, L).ratio for L in range(1, 7)]
    assert ratios[-1] > 1.0
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
    # self-affine masses: exactly 3^(n-L+1) midpoint-sample points land in
    # each depth-L cell, so 3^L * mass == 1 identically
    n, L = 6, 6
    owner = np.arange(3 ** n) // 3 ** (n - L)
    counts = np.bincount(np.repeat(owner, 3), minlength=3 ** L)
    assert (counts == 3 ** (n - L + 1)).all()
    _report(11, f"norm-mass spread {ratios[-1]:.1f} at word length 6 vs "
                f"word-count mass identically 1")
