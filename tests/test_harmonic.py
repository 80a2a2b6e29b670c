"""Energy forms, the minimizing extension, the embedding, and edge lengths."""

import math

import numpy as np
import pytest
from conftest import (
    apply_word,
    cell_index,
    dense_minimum_energy_extension,
    edited_model,
    energy,
    harmonic_extend,
    index_word,
    oracle_phi,
    rows_table,
    vertex_count,
    vertex_rows,
    word_matrix,
    word_norm,
)

import gasketlab as gl
from gasketlab import harmonic
from gasketlab.geometry import (
    CORNERS,
    TRIANGLE_EDGE_CORNERS,
    EdgeCurve,
    GasketError,
    GasketModel,
    ResourceCapError,
    _generation_starts,
    _stacked_cells,
    contractions,
    sg_hierarchy,
)
from gasketlab.harmonic import (
    MIDPOINT_RULE,
    edge_length_tables,
    gasket_diameter,
    harmonic_structure,
    phi_coordinates,
)
from gasketlab.serialize import model_from_json, model_to_json
from gasketlab.svg import render_svg

SQ2 = math.sqrt(2.0)


# -- energy ------------------------------------------------------------------
# The energy form and the per-cell extension are test oracles; what they
# check here is the library's MIDPOINT_RULE.

CORNER_ONE = np.array([1.0, 0.0, 0.0])


def test_energy_of_corner_indicator():
    assert energy(0, CORNER_ONE) == pytest.approx(2.0, abs=0)


def test_energy_of_constants_vanishes():
    values = np.full(3, 3.7)
    for level in range(4):
        assert energy(level, values) == pytest.approx(0.0, abs=1e-12)
        values = harmonic_extend(level, values)
        assert np.allclose(values, 3.7)


def test_extension_minimizes_to_six_fifths():
    ext = harmonic_extend(0, CORNER_ONE)
    assert energy(1, ext) == pytest.approx(6.0 / 5.0, abs=1e-14)
    np.testing.assert_allclose(ext[3:], [0.4, 0.4, 0.2], atol=1e-14)


def test_midpoint_rule_matches_dense_minimization():
    rng = np.random.default_rng(3)
    for _ in range(100):
        corners = rng.normal(size=3)
        ours = harmonic_extend(0, corners)
        dense = dense_minimum_energy_extension(0, corners)
        np.testing.assert_allclose(ours, dense, atol=1e-10)


def test_rule_rows_are_two_two_one_over_five():
    np.testing.assert_allclose(
        MIDPOINT_RULE, np.array([[2, 2, 1], [2, 1, 2], [1, 2, 2]]) / 5.0, atol=1e-14
    )


def test_extension_is_linear():
    rng = np.random.default_rng(11)
    f = rng.normal(size=3)
    g = rng.normal(size=3)
    a, b = 2.5, -0.75
    lhs = harmonic_extend(0, a * f + b * g)
    rhs = a * harmonic_extend(0, f) + b * harmonic_extend(0, g)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_energy_contracts_by_five_thirds():
    rng = np.random.default_rng(5)
    values = rng.normal(size=3)
    for level in range(6):
        nxt = harmonic_extend(level, values)
        assert energy(level, values) == pytest.approx(
            (5.0 / 3.0) * energy(level + 1, nxt), rel=1e-10)
        values = nxt


def test_renormalized_energy_constant_under_extension():
    assert energy(0, CORNER_ONE) == pytest.approx(2.0, abs=0)
    ext = harmonic_extend(0, CORNER_ONE)
    assert (5.0 / 3.0) * energy(1, ext) == pytest.approx(2.0, abs=1e-12)


def test_non_minimal_extension_increases_renormalized_energy():
    clobbered = harmonic_extend(0, CORNER_ONE)
    clobbered[3:] = 0.0
    assert (5.0 / 3.0) * energy(1, clobbered) > 2.0 + 1e-6


# -- the embedding -----------------------------------------------------------

def test_phi_at_corner_one():
    expected = np.array([2 / 3, -1 / 3, -1 / 3]) / SQ2
    np.testing.assert_allclose(phi_coordinates(0)[0], expected, atol=1e-15)


def test_phi_coordinates_sum_to_zero():
    pts = phi_coordinates(4)
    rng = np.random.default_rng(1)
    sample = rng.choice(len(pts), size=50, replace=False)
    assert np.abs(pts[sample].sum(axis=1)).max() < 1e-12


def test_phi_at_first_midpoint():
    expected = np.array([2 / 5 - 1 / 3, 2 / 5 - 1 / 3, 1 / 5 - 1 / 3]) / SQ2
    row = vertex_rows([(0.25, math.sqrt(3) / 4)], 1)
    np.testing.assert_allclose(phi_coordinates(1)[row[0]], expected, atol=1e-14)


def test_phi_matches_dense_oracle():
    np.testing.assert_allclose(phi_coordinates(3), oracle_phi(3), atol=1e-10)


# -- affine structure --------------------------------------------------------

def test_projection_constants():
    st = harmonic_structure()
    p = st.projector
    np.testing.assert_allclose(p @ p, p, atol=1e-14)
    np.testing.assert_allclose(p, p.T, atol=0)
    np.testing.assert_allclose(p.sum(axis=1), 0.0, atol=1e-15)
    for j in range(3):
        q, qp = st.corner_axes[:, j], st.corner_perps[:, j]
        assert np.dot(q, q) == pytest.approx(1.0, abs=1e-14)
        assert np.dot(qp, qp) == pytest.approx(1.0, abs=1e-14)
        assert np.dot(q, qp) == pytest.approx(0.0, abs=1e-14)
        assert np.dot(q, np.ones(3)) == pytest.approx(0.0, abs=1e-14)


def test_contraction_axis_eigenvalues():
    st = harmonic_structure()
    for j in range(3):
        m, q, qp = st.contractions[j], st.corner_axes[:, j], st.corner_perps[:, j]
        np.testing.assert_allclose(m @ q, 0.6 * q, atol=1e-14)
        np.testing.assert_allclose(m @ qp, 0.2 * qp, atol=1e-14)


def test_corner_maps_fix_corner_images():
    st = harmonic_structure()
    kappa = st.corner_images.T @ np.stack([st.corner_axes[:, 0], st.corner_perps[:, 0]], 1)
    mats, offsets = contractions("harmonic")       # corner j's image is fixed by map j
    np.testing.assert_allclose(np.einsum("jik,jk->ji", mats, kappa) + offsets, kappa, atol=1e-15)
    for j in (1, 2, 3):
        np.testing.assert_allclose(apply_word("harmonic", [j], st.corner_images[:, j - 1]),
                                   st.corner_images[:, j - 1], atol=1e-15)
    # the corner images are the embedded outer corners
    np.testing.assert_allclose(harmonic_structure().corner_images[:, 0],
                               phi_coordinates(0)[0], atol=1e-15)


def test_single_and_repeated_norms():
    assert word_norm("1") == pytest.approx(0.6, abs=1e-14)
    assert word_norm("11") == pytest.approx(0.36, abs=1e-14)


def test_mixed_product_norm_against_gram_oracle():
    # largest eigenvalue of the 2x2 Gram matrix in the (q1, q'1) frame,
    # via the trace/determinant closed form
    st = harmonic_structure()
    basis = np.stack([st.corner_axes[:, 0], st.corner_perps[:, 0]], axis=1)
    for word in ("12", "123", "1213"):
        m = word_matrix(word)
        g = (m @ basis).T @ (m @ basis)
        t, d = g[0, 0] + g[1, 1], g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        expected = math.sqrt(t / 2 + math.sqrt(t * t / 4 - d))
        assert word_norm(word) == pytest.approx(expected, abs=1e-12)
    assert word_norm("12") != pytest.approx(word_norm("11"), abs=1e-3)


def test_norm_bound_with_equality_exactly_for_constant_words():
    for k in range(1, 6):
        for idx in np.ndindex(*(3,) * k):
            word = tuple(i + 1 for i in idx)
            norm = word_norm(word)
            assert norm <= 0.6 ** k + 1e-12
            if len(set(word)) == 1:
                assert norm == pytest.approx(0.6 ** k, abs=1e-12)
            else:
                assert norm < 0.6 ** k - 1e-6


def test_intertwining_on_level_two_vertices():
    # embedding of f_w(x) equals the corner-map word applied to the embedding
    pts = sg_hierarchy(2)[2].points
    for k in range(3):
        for idx in np.ndindex(*(3,) * k):
            word = tuple(i + 1 for i in idx)
            lhs = phi_coordinates(2 + k)[vertex_rows(apply_word("sg", word, pts), 2 + k)]
            rhs = apply_word("harmonic", word, phi_coordinates(2))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# -- edge lengths ------------------------------------------------------------

def edge_bounds(word, local_edge, depth):
    """(lo, hi) of local edge 1..3 of the cell at ``word``, read off the tables."""
    lo, hi = edge_length_tables(len(word), depth)[len(word)]
    pos = 3 * cell_index(word) + local_edge - 1
    return lo[pos], hi[pos]


def test_depth_one_lower_bound_is_two_chords():
    lo, hi = edge_bounds("", 1, 1)
    a, m, b = phi_coordinates(1)[vertex_rows([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)], 1)]
    chords = np.linalg.norm(a - m) + np.linalg.norm(m - b)
    assert lo == pytest.approx(chords, abs=1e-14)
    assert hi > lo


def test_polyline_length_monotone_in_depth():
    for word, edge in (("", 1), ("2", 3)):
        prev = 0.0
        for depth in range(1, 7):
            lo, hi = edge_bounds(word, edge, depth)
            assert lo >= prev - 1e-14
            assert hi >= lo
            prev = lo


def edge_polyline(word, local_edge, depth):
    """Dyadic sample points of one image edge, (2^k + 1, 3)."""
    return harmonic.edge_polylines(len(word), depth)[3 * cell_index(word) + local_edge - 1]


def test_edge_polyline_endpoints():
    pts = edge_polyline("", 1, 3)
    assert pts.shape == (9, 3)
    np.testing.assert_allclose(pts[0], phi_coordinates(0)[0], atol=1e-14)
    np.testing.assert_allclose(pts[-1], phi_coordinates(0)[2], atol=1e-14)


def test_diameter_is_the_largest_corner_chord():
    # the images lie in the triangle of the corner images, so sampling
    # every level-4 vertex finds no longer chord, to the bit
    pts = phi_coordinates(4)
    sampled = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1).max()
    assert gasket_diameter() == float(sampled) == 0.9999999999999999


def test_kigami_style_envelope():
    # every level-m edge is no longer than twice the largest level-m cell
    # diameter, itself within diam * (3/5)^m of the whole set
    tables = edge_length_tables(4, 5)
    diam0 = gasket_diameter()
    for m in range(5):
        lo, _ = tables[m]
        mesh = sg_hierarchy(m + 1)[m]
        pts = phi_coordinates(m + 1)
        diams = []
        for row in range(len(mesh.cells)):
            corners = mesh.cells[row]
            base = vertex_count(m)
            mids = [base + 3 * row, base + 3 * row + 1, base + 3 * row + 2]
            sample = pts[np.concatenate([corners, mids])]
            gaps = np.linalg.norm(sample[:, None] - sample[None, :], axis=-1)
            diams.append(gaps.max())
        max_diam = max(diams)
        assert lo.max() <= 2.0 * max_diam + 1e-12
        assert max_diam <= diam0 * 0.6 ** m + 1e-9


def mesh_segment_bounds(gen, depth):
    """Reference (lo, hi) for generation-``gen`` edges from the fine mesh.

    Materialises the level gen+depth+1 mesh and its embedding: lo sums
    the chords between the dyadic vertex images, hi twice the diameter
    of the six sampled images (corners and midpoints) of each segment
    cell.
    """
    level = gen + depth
    cells_fine = sg_hierarchy(level + 1)[level].cells
    cells_next = sg_hierarchy(level + 1)[level + 1].cells
    phi_next = phi_coordinates(level + 1)
    ncell = 3 ** gen
    lo = np.empty((ncell, 3))
    hi = np.empty((ncell, 3))
    rows0 = np.arange(ncell, dtype=np.int64) * 3 ** depth
    for local, (i, j) in enumerate(TRIANGLE_EDGE_CORNERS):
        offs = harmonic._dyadic_offsets(i, j, depth)
        rows = (rows0[:, None] + offs[None, :]).reshape(-1)
        corners = cells_fine[rows]
        chords = np.linalg.norm(phi_next[corners[:, i]] - phi_next[corners[:, j]],
                                axis=1)
        lo[:, local] = chords.reshape(ncell, -1).sum(axis=1)
        child0 = rows * 3
        mids = np.stack([cells_next[child0][:, 1],
                         cells_next[child0][:, 2],
                         cells_next[child0 + 1][:, 2]], axis=1)
        sample = phi_next[np.concatenate([corners, mids], axis=1)]
        gaps = np.linalg.norm(sample[:, :, None, :] - sample[:, None, :, :], axis=-1)
        hi[:, local] = 2.0 * gaps.max(axis=(1, 2)).reshape(ncell, -1).sum(axis=1)
    return lo.reshape(-1), hi.reshape(-1)


@pytest.mark.parametrize("max_gen", [1, 2, 3, 4])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_length_tables_match_mesh_oracle(max_gen, depth):
    tables = edge_length_tables(max_gen, depth)
    assert len(tables) == max_gen + 1
    for gen, (lo, hi) in enumerate(tables):
        ref_lo, ref_hi = mesh_segment_bounds(gen, depth)
        np.testing.assert_allclose(lo, ref_lo, rtol=1e-12, atol=0)
        np.testing.assert_allclose(hi, ref_hi, rtol=1e-12, atol=0)


def stacked_corner_images(gen, level):
    """Phi(f_w p_j) for the generation-``gen`` cells w, read as that
    generation's block of the cells stacked up to ``level``."""
    starts = _generation_starts(level)
    stack = _stacked_cells(sg_hierarchy(level))
    return phi_coordinates(level)[stack[starts[gen]:starts[gen + 1]]]


def test_stacked_blocks_are_each_generations_cells():
    for level in range(7):
        starts = _generation_starts(level)
        assert starts == tuple((3 ** g - 1) // 2 for g in range(level + 2))
        meshes = sg_hierarchy(level)
        stack = _stacked_cells(meshes)
        assert stack.shape == (starts[-1], 3)
        for gen, mesh in enumerate(meshes):
            np.testing.assert_array_equal(stack[starts[gen]:starts[gen + 1]], mesh.cells)


@pytest.mark.parametrize("gen,depth", [(0, 3), (2, 2), (3, 3)])
def test_upper_bound_is_twice_largest_corner_chord(gen, depth):
    # recomputed from the level gen+depth mesh: per segment cell, the
    # largest of its three corner chords, summed along the edge
    level = gen + depth
    cells = sg_hierarchy(level)[level].cells
    pts = phi_coordinates(level)
    _, hi = edge_length_tables(gen, depth)[gen]
    for row in range(3 ** gen):
        for local, (i, j) in enumerate(TRIANGLE_EDGE_CORNERS):
            seg = cells[row * 3 ** depth + harmonic._dyadic_offsets(i, j, depth)]
            img = pts[seg]
            largest = np.max([np.linalg.norm(img[:, a] - img[:, b], axis=1)
                              for a, b in ((0, 1), (0, 2), (1, 2))], axis=0)
            assert hi[3 * row + local] == pytest.approx(2.0 * largest.sum(),
                                                        rel=1e-12, abs=0)


def test_barycentric_identity_on_level_two_vertices():
    # Phi(f_w y) = sum_j h_j(y) Phi(f_w p_j) for every base vertex y
    pts = sg_hierarchy(2)[2].points
    h = np.stack([harmonic_extend(1, harmonic_extend(0, np.eye(3)[j]))
                  for j in range(3)], axis=1)
    for k in range(4):
        for idx in np.ndindex(*(3,) * k):
            word = "".join(str(i + 1) for i in idx)
            # mesh row cell_index(word) is f_{w1} o ... o f_{wk}, and
            # apply_word applies its first letter first
            lhs = phi_coordinates(2 + k)[vertex_rows(apply_word("sg", word[::-1], pts), 2 + k)]
            corners = phi_coordinates(k)[vertex_rows(apply_word("sg", word[::-1], CORNERS), k)]
            np.testing.assert_allclose(h @ corners, lhs, atol=1e-14)
            np.testing.assert_allclose(
                harmonic._on_cells(h, corners[None])[0], lhs, atol=1e-14)
            np.testing.assert_array_equal(
                stacked_corner_images(k, 3)[cell_index(word)], corners)


@pytest.mark.parametrize("gen", range(6))
def test_on_cells_is_the_scalar_sum_bit_for_bit(gen):
    # the chord-vector inputs the length tables pass, for all three local
    # edges, against (w0 c0 + w1 c1) + w2 c2 in Python floats
    corners = stacked_corner_images(gen, 5).tolist()
    for i, j in TRIANGLE_EDGE_CORNERS:
        w = harmonic._dyadic_weights(i, j, 2)
        diffs = (w[:, [0, 0, 1]] - w[:, [1, 2, 2]]).reshape(-1, 3)
        got = harmonic._on_cells(diffs, np.array(corners))
        want = [[[(w0 * c[0][x] + w1 * c[1][x]) + w2 * c[2][x] for x in range(3)]
                 for w0, w1, w2 in diffs.tolist()] for c in corners]
        assert got.tolist() == want


def test_tables_read_no_mesh_above_their_levels(monkeypatch):
    requested = []

    def spy(fn):
        def wrapped(level):
            requested.append(level)
            return fn(level)
        return wrapped

    caches = (harmonic.sg_hierarchy, harmonic._h_arrays, harmonic.phi_coordinates)
    monkeypatch.setattr(harmonic, "sg_hierarchy", spy(harmonic.sg_hierarchy))
    monkeypatch.setattr(harmonic, "_h_arrays", spy(harmonic._h_arrays))
    monkeypatch.setattr(harmonic, "phi_coordinates",
                        spy(harmonic.phi_coordinates.__wrapped__))
    tables = edge_length_tables.__wrapped__(6, 6)
    assert requested and max(requested) == 6
    ref = edge_length_tables(6, 6)
    for (lo, hi), (ref_lo, ref_hi) in zip(tables, ref):
        np.testing.assert_array_equal(lo, ref_lo)
        np.testing.assert_array_equal(hi, ref_hi)
    # the generations' tables come from the level-max_gen and level-depth
    # meshes only
    requested.clear()
    edge_length_tables.__wrapped__(4, 6)
    assert set(requested) == {4, 6}
    monkeypatch.undo()
    # cold: one level-6 entry in each cache serves all seven generations
    for fn in caches:
        fn.cache_clear()
    edge_length_tables.__wrapped__(6, 6)
    for fn in caches:
        info = fn.cache_info()
        assert (info.currsize, info.misses) == (1, 1), fn


def per_generation_tables(max_gen, depth):
    """Length-bound tables built one generation at a time, each from its
    own level's meshes and embedding, as the reference."""
    tables = []
    for gen in range(max_gen + 1):
        corners = phi_coordinates(gen)[sg_hierarchy(gen)[gen].cells]
        tables.append(harmonic._segment_bounds(corners, depth))
    return tables


@pytest.mark.parametrize("max_gen", range(7))
def test_stacked_tables_are_the_per_generation_tables_bit_for_bit(max_gen):
    for depth in range(1, 7):
        tables = edge_length_tables(max_gen, depth)
        assert len(tables) == max_gen + 1
        for gen, ((lo, hi), (ref_lo, ref_hi)) in enumerate(
                zip(tables, per_generation_tables(max_gen, depth))):
            assert lo.shape == hi.shape == (3 ** (gen + 1),)
            assert not lo.flags.writeable and not hi.flags.writeable
            assert lo.tobytes() == ref_lo.tobytes()
            assert hi.tobytes() == ref_hi.tobytes()


def test_length_tables_cap_holds_on_cache_hits(monkeypatch):
    monkeypatch.delenv("GASKET_MAX_EDGES", raising=False)
    edge_length_tables.cache_clear()
    first = edge_length_tables(3, 3)
    assert edge_length_tables(3, 3) is first
    assert edge_length_tables.cache_info().hits == 1
    monkeypatch.setenv("GASKET_MAX_EDGES", "10")
    with pytest.raises(ResourceCapError):
        edge_length_tables(3, 3)
    with pytest.raises(ResourceCapError):
        gl.build_model("sg", 3)
    monkeypatch.delenv("GASKET_MAX_EDGES")
    assert edge_length_tables(3, 3) is first
    edge_length_tables.cache_clear()
    assert edge_length_tables.cache_info().currsize == 0


def test_length_tables_cap_counts_segments_before_building(monkeypatch):
    # the largest table of (max_gen, depth) holds 3^(max_gen+1) 2^depth segments
    build = edge_length_tables.__wrapped__
    monkeypatch.setenv("GASKET_MAX_EDGES", str(3 ** 3 * 2 ** 2))
    lo, hi = build(2, 2)[2]
    assert lo.shape == hi.shape == (27,)
    # the 9 level-1 polylines of 2^2 + 1 points fit in 108 samples, the
    # 27 of level 2 do not
    assert harmonic.edge_polylines(1, 2).shape == (9, 5, 3)

    def refuse(level):
        raise AssertionError(f"level {level} requested past the cap")

    monkeypatch.setattr(harmonic, "sg_hierarchy", refuse)
    monkeypatch.setattr(harmonic, "_h_arrays", refuse)
    monkeypatch.setattr(harmonic, "phi_coordinates", refuse)
    for max_gen, depth in ((3, 2), (2, 3)):
        with pytest.raises(ResourceCapError):
            build(max_gen, depth)
    with pytest.raises(ResourceCapError):
        harmonic.edge_polylines(2, 2)


def test_long_words_are_refused_by_the_cap_whatever_their_index():
    # generation 41's rows pass int64: the cap refuses the level before any
    # index is made.  A model's words are never read as numerals: an edited
    # document fails its byte check, and the SVG is drawn from the level
    with pytest.raises(ResourceCapError, match="^generation 41 at subdivision depth 2"):
        harmonic.edge_polylines(41, 2)
    model = gl.build_model("harmonic", 1, harmonic_depth=2)
    text = model_to_json(model)
    with pytest.raises(GasketError, match="its bytes differ"):
        model_from_json(text.replace('"word": "1"', '"word": "' + "3" * 41 + '"', 1))
    edited = edited_model(model, lambda columns: columns["word"].__setitem__(0, "3" * 41))
    assert edited.edges.word[0] == "3" * 41
    assert render_svg(edited) == render_svg(model)


@pytest.mark.parametrize("length", [5000, 10000])
def test_words_past_int_digit_limit_are_refused_by_the_cap(length):
    # int(word, 3) refuses numerals past 4,300 digits, and past 10^4000 the
    # cap's own count no longer prints as a decimal: a level is refused by
    # the cap with a count it can print, and a word is never a numeral
    with pytest.raises(ResourceCapError, match=f"^generation {length} at subdivision depth 2"):
        harmonic.edge_polylines(length, 2)
    with pytest.raises(ResourceCapError, match=r"needs more than 10\^4000 cells or samples"):
        harmonic.edge_polylines(10000, 2)
    model = gl.build_model("harmonic", 1, harmonic_depth=2)
    text = model_to_json(model)
    with pytest.raises(GasketError, match="its bytes differ"):
        model_from_json(text.replace('"word": "1"', '"word": "' + "1" * length + '"', 1))
    edited = edited_model(model, lambda columns: columns["word"].__setitem__(0, "1" * length))
    assert edited.edges.word[0] == "1" * length
    assert render_svg(edited) == render_svg(model)


def per_generation_polylines(words, local_edges, depth):
    """``edge_polylines`` one generation at a time, each generation's cells
    carried to its own level's corner images, as the reference."""
    gens = np.array([len(w) for w in words])
    rows = np.array([cell_index(w) for w in words], dtype=np.int64)
    local = np.asarray(local_edges) - 1
    out = np.empty((len(words), 2 ** depth + 1, 3))
    for gen in np.unique(gens):
        gen = int(gen)
        corners = phi_coordinates(gen)[sg_hierarchy(gen)[gen].cells]
        for idx, (i, j) in enumerate(TRIANGLE_EDGE_CORNERS):
            sel = np.flatnonzero((gens == gen) & (local == idx))
            if len(sel):
                w = harmonic._dyadic_weights(i, j, depth)
                pts_w = np.concatenate([w[:, i], w[-1:, j]])
                out[sel] = harmonic._on_cells(pts_w, corners[rows[sel]])
    return out


@pytest.mark.parametrize("depth", [1, 3, 5])
def test_edge_polylines_are_the_per_generation_loop_bit_for_bit(depth):
    # every edge of each level 0..6, in model edge order
    for level in range(7):
        words = [index_word(level, row) for row in range(3 ** level) for _ in range(3)]
        local = [1, 2, 3] * 3 ** level
        got = harmonic.edge_polylines(level, depth)
        assert got.tobytes() == per_generation_polylines(words, local, depth).tobytes()


def test_edge_polylines_match_one_edge_at_a_time():
    # each edge's points against the level gen + depth vertex images along
    # its base edge's dyadic cells
    depth = 3
    for level in range(4):
        many = harmonic.edge_polylines(level, depth)
        assert many.shape == (3 ** (level + 1), 9, 3)
        phis = phi_coordinates(level + depth)
        cells = sg_hierarchy(level + depth)[level + depth].cells
        for k, pts in enumerate(many):
            i, j = TRIANGLE_EDGE_CORNERS[k % 3]
            corners = cells[k // 3 * 3 ** depth + harmonic._dyadic_offsets(i, j, depth)]
            mesh = np.concatenate([phis[corners[:, i]], phis[corners[-1:, j]]])
            np.testing.assert_allclose(pts, mesh, rtol=0.0, atol=1e-14)


def test_phi_coordinates_cached_and_read_only():
    pts = phi_coordinates(3)
    assert phi_coordinates(3) is pts
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0


def test_estimate_edge_length_validation():
    with pytest.raises(GasketError, match="depth must be >= 1"):
        edge_length_tables(0, 0)


def test_harmonic_model_contents():
    model = gl.build_model("harmonic", 2, harmonic_depth=3)
    assert len(model.edges) == 27
    for e in model.edges:
        assert e.kind == "harmonic-image"
        assert len(e.p) == 3 and len(e.q) == 3
        assert e.length == e.length_lo
        assert e.length_lo <= e.length_hi
        chord = np.linalg.norm(np.array(e.p) - np.array(e.q))
        assert e.length_lo >= chord - 1e-12


def per_edge_harmonic_model(level, depth):
    """The per-edge construction route, as the shared row builder's reference."""
    return GasketModel("harmonic", None, level,
                       rows_table(per_edge_harmonic_rows(level, depth)), depth)


def per_edge_harmonic_rows(level, depth):
    """The rows of ``per_edge_harmonic_model``, one ``EdgeCurve`` per edge."""
    mesh = sg_hierarchy(level)[level]
    phis = phi_coordinates(level)
    lo, hi = edge_length_tables(level, depth)[level]
    edges = []
    for row in range(len(mesh.cells)):
        word = index_word(level, row)
        for i, j in TRIANGLE_EDGE_CORNERS:
            eid = len(edges)
            edges.append(EdgeCurve(
                eid, "harmonic-image", level,
                tuple(phis[mesh.cells[row, i]]), tuple(phis[mesh.cells[row, j]]),
                float(lo[eid]), word, float(lo[eid]), float(hi[eid]),
            ))
    return tuple(edges)


@pytest.mark.parametrize("depth", [1, 4])
@pytest.mark.parametrize("level", range(5))
def test_row_builder_matches_per_edge_route(level, depth):
    model = gl.build_model("harmonic", level, harmonic_depth=depth)
    reference = per_edge_harmonic_model(level, depth)
    assert model == reference
    assert model_to_json(model) == model_to_json(reference)
