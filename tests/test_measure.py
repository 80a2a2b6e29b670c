"""Measure functionals, self-affinity, Dixmier-route measure recovery."""

import numpy as np
import pytest
from conftest import POLY_2D, POLY_3D, oracle_phi, self_affinity_residual, word_norm

import gasketlab as gl
from gasketlab import harmonic, measure
from gasketlab.geometry import (
    EdgeTable,
    GasketError,
    GasketModel,
    ResourceCapError,
    edge_count,
    sg_hierarchy,
    stretched_hierarchy,
)
from gasketlab.harmonic import vertex_count
from gasketlab.spectrum import (
    curve_trace_constant,
    extrapolate_ladder,
    stretched_dimension,
)


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


@pytest.mark.parametrize("tag,alpha", [("sg-midpoints", None),
                                       ("harmonic-midpoints", None),
                                       ("stretched-joining", 0.2)])
def test_sample_refuses_a_negative_stage(tag, alpha):
    # harmonic-midpoints sliced the level-(n+1) images with a negative count
    for n in (-1, -2):
        with pytest.raises(GasketError, match="stage must be >= 0"):
            measure.functional_sample(tag, n, alpha)


def refuse(*args):
    raise AssertionError(f"mesh requested past the cap: {args}")


@pytest.mark.parametrize("tag,alpha,variant", [("sg-midpoints", None, "sg"),
                                               ("harmonic-midpoints", None, "sg"),
                                               ("stretched-joining", 0.2, "stretched")])
def test_sample_refuses_a_stage_over_the_cap(monkeypatch, tag, alpha, variant):
    cap = 100
    top = max(n for n in range(1, 10) if edge_count(variant, n) <= cap)
    monkeypatch.setenv("GASKET_MAX_EDGES", str(cap))
    assert len(measure.functional_sample(tag, top, alpha).points) > 0
    with pytest.raises(ResourceCapError) as built:
        gl.build_model(variant, top + 1, alpha)
    for name in ("sg_hierarchy", "stretched_hierarchy"):
        monkeypatch.setattr(measure, name, refuse)
    for name in ("sg_hierarchy", "_h_arrays", "phi_coordinates"):
        monkeypatch.setattr(harmonic, name, refuse)
    for n in (top + 1, 9):
        with pytest.raises(ResourceCapError) as err:
            measure.functional_sample(tag, n, alpha)
        if n == top + 1:
            assert str(err.value) == str(built.value)


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
    assert self_affinity_residual("sg", n, POLY_2D[name]) <= 1e-12


@pytest.mark.parametrize("name", sorted(POLY_2D))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_self_affinity_stretched(name, n):
    assert self_affinity_residual("stretched", n, POLY_2D[name],
                                     alpha=0.2) <= 1e-12


@pytest.mark.parametrize("name", sorted(POLY_3D))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_self_affinity_harmonic(name, n):
    assert self_affinity_residual("harmonic", n, POLY_3D[name]) <= 1e-12


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


def loop_dixmier_functional(model, f, eps_start=0.1, rungs=8):
    """dixmier_functional with one f evaluation per level, corner and
    generation, each on that level's own points, as the reference."""
    meshes, joins = stretched_hierarchy(model.level, model.alpha)
    tri_sums = []
    for m in range(model.level + 1):
        pts, cells = meshes[m].points, meshes[m].cells
        fa, fb, fc = f(pts[cells[:, 0]]), f(pts[cells[:, 1]]), f(pts[cells[:, 2]])
        tri_sums.append(float(((fa + fc) / 2 + (fc + fb) / 2 + (fb + fa) / 2).sum()))
    join_sums = []
    for m in range(model.level):
        ids, pts = joins[m].reshape(-1, 2), meshes[m + 1].points
        join_sums.append(float(((f(pts[ids[:, 0]]) + f(pts[ids[:, 1]])) / 2.0).sum()))
    alpha, n = model.alpha, model.level
    ds, ratio = stretched_dimension(alpha), (1.0 - alpha) / 2.0
    tri_avg = tri_sums[-1] / 3 ** (n + 1)
    join_avg = (join_sums[-1] / 3 ** n) if join_sums else tri_avg

    def g(eps):
        p = ds * (1.0 + eps)
        total = sum(s * ratio ** (m * p) for m, s in enumerate(tri_sums))
        total += sum(s * (alpha * ratio ** m) ** p for m, s in enumerate(join_sums))
        q = 3.0 * ratio ** p
        total += tri_avg * 3.0 * q ** (n + 1) / (1.0 - q)
        total += join_avg * 3.0 * alpha ** p * q ** n / (1.0 - q)
        return eps * curve_trace_constant(p) * total

    return extrapolate_ladder(g, eps_start, rungs)


def bits(result):
    """Every float of a residue result, as its exact hex form."""
    return (result.converged,) + tuple(
        tuple(float(v).hex() for v in values)
        for values in ((result.value,), result.ladder, result.raw, result.extrapolants))


def random_polynomials(seed, count):
    """Seeded polynomials in x and y of degree <= 3 with small integer coefficients."""
    rng = np.random.default_rng(seed)
    monomials = [(i, j) for i in range(4) for j in range(4 - i)]
    out = []
    for _ in range(count):
        picks = rng.choice(len(monomials), size=int(rng.integers(1, 5)), replace=False)
        terms = [(int(rng.integers(-9, 10)) or 1, monomials[k]) for k in picks]
        out.append(lambda pts, terms=terms: sum(
            c * pts[:, 0] ** i * pts[:, 1] ** j for c, (i, j) in terms))
    return out


@pytest.mark.parametrize("alpha", (0.05, 0.2, 0.3))
def test_dixmier_functional_matches_the_per_level_loop(alpha):
    functions = [POLY_2D[name] for name in sorted(POLY_2D)] + [_ones]
    functions += random_polynomials(int(alpha * 100), 4)
    for level in range(9):
        model = gl.build_model("stretched", level, alpha)
        for f in functions:
            assert bits(gl.dixmier_functional(model, f)) == bits(
                loop_dixmier_functional(model, f))
    assert bits(gl.dixmier_functional(model, functions[0], 0.2, 5)) == bits(
        loop_dixmier_functional(model, functions[0], 0.2, 5))


def counting(f):
    """f, recording the number of points of every call."""
    def call(pts):
        call.sizes.append(len(pts))
        return f(pts)

    call.sizes = []
    return call


def test_each_functional_evaluates_f_once():
    for level in (0, 1, 5):
        f = counting(POLY_2D["x"])
        gl.dixmier_functional(gl.build_model("stretched", level, 0.2), f)
        assert f.sizes == [len(stretched_hierarchy(level, 0.2)[0][level].points)]
    for depth in (1, 4):
        f = counting(POLY_3D["x"])
        measure.kh_dixmier_ratio(f, depth)
        assert f.sizes == [vertex_count(depth)]


def test_wrong_shape_names_the_finest_point_count():
    model = gl.build_model("stretched", 2, 0.2)
    with pytest.raises(GasketError, match=r"expected \(27,\)"):
        gl.dixmier_functional(model, lambda pts: np.ones(3))
    with pytest.raises(GasketError, match=rf"expected \({vertex_count(3)},\)"):
        measure.kh_dixmier_ratio(lambda pts: np.ones(3), 3)


def test_dixmier_functional_refuses_a_model_over_the_cap(monkeypatch):
    model = gl.build_model("stretched", 3, 0.2)
    monkeypatch.setenv("GASKET_MAX_EDGES", str(edge_count("stretched", 3) - 1))
    monkeypatch.setattr(measure, "stretched_hierarchy", refuse)
    with pytest.raises(ResourceCapError, match="stretched level 3 needs"):
        gl.dixmier_functional(model, _ones)
    # a read document may claim a level its edges do not have
    empty = GasketModel("stretched", 0.2, 9, EdgeTable.from_rows([]))
    with pytest.raises(ResourceCapError, match="stretched level 9 needs"):
        gl.dixmier_functional(empty, _ones)


def test_dixmier_functional_refuses_a_model_it_would_not_build():
    built = gl.build_model("stretched", 5, 0.2)
    edges = built.edges
    empty = GasketModel("stretched", 0.2, 5, EdgeTable.from_rows([]))
    moved = edges.p.copy()
    moved[7, 0] += 1e-9
    stretched = edges.length.copy()
    stretched[-1] *= 2.0
    edited = [GasketModel("stretched", 0.2, 5, EdgeTable(
        edges.id, edges.kind, edges.gen, p, edges.q, length, edges.word))
        for p, length in ((moved, edges.length), (edges.p, stretched))]
    for model in [empty] + edited:
        with pytest.raises(GasketError, match="needs the model build_model makes"):
            gl.dixmier_functional(model, _ones)
    # an unedited copy of the columns is accepted, and the verdict is cached
    copy = GasketModel("stretched", 0.2, 5, EdgeTable(
        edges.id, edges.kind, edges.gen, edges.p.copy(), edges.q, edges.length,
        edges.word))
    assert bits(gl.dixmier_functional(copy, _ones)) == bits(
        gl.dixmier_functional(built, _ones))
    misses = measure._is_built.cache_info().misses
    gl.dixmier_functional(copy, POLY_2D["x"])
    assert measure._is_built.cache_info().misses == misses


def test_dixmier_functional_of_a_read_model_is_bit_identical():
    from gasketlab.serialize import _parsed, model_from_json, model_to_json

    functions = [_ones, POLY_2D["x"], POLY_2D["x^2"]]
    for level, alpha in ((0, 0.2), (3, 0.05), (6, 0.3)):
        built = gl.build_model("stretched", level, alpha)
        text = model_to_json(built)
        for model in (model_from_json(text), _parsed(text)):
            for f in functions:
                assert bits(gl.dixmier_functional(model, f)) == bits(
                    gl.dixmier_functional(built, f))


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
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
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
    assert report.min == pytest.approx(9.0 * word_norm("12") ** 1.5,
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
    # nan passed the d <= 0 test and reported d = NaN; inf reported a NaN ratio
    for d in (np.nan, np.inf):
        with pytest.raises(GasketError, match="positive and finite"):
            gl.selfaffine_mass_spread(d, 3)


def test_spread_refuses_a_d_whose_smallest_mass_underflows():
    # 3^8 ||M_w||^100 is 0.0 for the smallest norms, and the ratio was inf;
    # at d = 1e308 every mass is 0.0 and the ratio was NaN
    for d, length in ((100.0, 8), (1e308, 1)):
        with pytest.raises(GasketError, match="underflows to 0"):
            gl.selfaffine_mass_spread(d, length)
    # one letter: every norm is 3/5, and 3 (3/5)^100 is tiny but not 0
    report = gl.selfaffine_mass_spread(100.0, 1)
    assert report.min > 0.0 and report.ratio == pytest.approx(1.0, rel=1e-12)


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
