"""Generator maps, word composition, model construction, vertex sets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gasketlab as gl
from gasketlab import harmonic
from gasketlab.geometry import (
    CORNERS,
    TRIANGLE_EDGE_CORNERS,
    EdgeCurve,
    EdgeTable,
    GasketError,
    GasketModel,
    ResourceCapError,
    Word,
    as_word,
    cell_index,
    cell_map,
    _endpoint_nodes,
    edge_count,
    index_word,
    sg_hierarchy,
    stretched_hierarchy,
)
from gasketlab.serialize import model_to_json

SQ3 = math.sqrt(3.0)
P = {
    1: np.array([0.0, 0.0]),
    2: np.array([0.5, SQ3 / 2]),
    3: np.array([1.0, 0.0]),
    4: np.array([0.75, SQ3 / 4]),
    5: np.array([0.5, 0.0]),
    6: np.array([0.25, SQ3 / 4]),
}


# -- generator maps ----------------------------------------------------------

def test_sg_generator_contracts_to_midpoint():
    out = gl.generator_map("sg", 1)(np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, [0.5, 0.0], atol=1e-15)


def test_stretched_degenerate_generator_direct_arithmetic():
    # apply A_5 (x - p_5) + p_5 by hand: A_5 = alpha * diag(1, 0)
    alpha = 0.2
    x = P[2]
    expected = alpha * np.array([[1.0, 0.0], [0.0, 0.0]]) @ (x - P[5]) + P[5]
    out = gl.generator_map("stretched", 5, alpha)(x)
    np.testing.assert_allclose(out, expected, atol=1e-15)
    np.testing.assert_allclose(out, [0.5, 0.0], atol=1e-15)


@pytest.mark.parametrize("j", range(1, 7))
def test_stretched_generator_fixed_points(j):
    fmap = gl.generator_map("stretched", j, 0.2)
    np.testing.assert_allclose(fmap(P[j]), P[j], atol=1e-15)


def test_generators_are_contractive():
    for j in range(1, 4):
        assert gl.generator_map("sg", j).spectral_norm() < 1.0
    for j in range(1, 7):
        assert gl.generator_map("stretched", j, 0.3).spectral_norm() < 1.0


def test_generator_errors():
    with pytest.raises(GasketError):
        gl.generator_map("sg", 4)
    with pytest.raises(GasketError):
        gl.generator_map("stretched", 7, 0.2)
    with pytest.raises(GasketError):
        gl.generator_map("stretched", 1, 0.4)
    with pytest.raises(GasketError):
        gl.generator_map("stretched", 1)
    with pytest.raises(GasketError):
        gl.generator_map("harmonic", 1)


# -- word composition --------------------------------------------------------

def test_empty_word_is_identity():
    ident = gl.compose_word("sg", "")
    pts = np.array([[0.3, 0.4], [1.0, 0.0]])
    np.testing.assert_allclose(ident(pts), pts, atol=0)


def test_two_halvings_toward_corner_one():
    out = gl.compose_word("sg", "11")(P[3])
    np.testing.assert_allclose(out, [0.25, 0.0], atol=1e-15)


def test_compose_matches_sequential_application():
    # first letter applied first: word "13" acts as F_3 after F_1
    alpha = 0.2
    seq = gl.generator_map("stretched", 3, alpha)(
        gl.generator_map("stretched", 1, alpha)(P[3])
    )
    np.testing.assert_allclose(gl.compose_word("stretched", "13", alpha)(P[3]),
                               seq, atol=1e-15)


_words = st.lists(st.integers(1, 3), max_size=5).map(tuple)


@settings(max_examples=100, deadline=None)
@given(_words, _words)
def test_concatenation_law(w, v):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 2.0, size=(100, 2))
    for variant, alpha in (("sg", None), ("stretched", 0.2)):
        whole = gl.compose_word(variant, w + v, alpha)(pts)
        steps = gl.compose_word(variant, v, alpha)(gl.compose_word(variant, w, alpha)(pts))
        np.testing.assert_allclose(whole, steps, atol=1e-12)


def test_word_validation():
    with pytest.raises(GasketError):
        Word((4,))
    with pytest.raises(GasketError):
        Word.parse("10")
    assert len(Word.parse("132")) == 3
    assert str(Word.parse("132")) == "132"
    assert Word((5,), alphabet=6).letters == (5,)
    with pytest.raises(GasketError):
        as_word("x")


def test_cell_addressing_roundtrip():
    for level in range(4):
        for idx in range(3 ** level):
            assert cell_index(index_word(level, idx)) == idx
    # descending one letter lands in the child cell
    outer = cell_map("sg", "")(CORNERS)
    child = cell_map("sg", "2")(CORNERS)
    np.testing.assert_allclose(child[1], outer[1], atol=1e-15)  # keeps corner 2


# -- models ------------------------------------------------------------------

def test_sg_model_counts():
    model = gl.build_model("sg", 2)
    assert len(model.edges) == 27
    assert all(e.kind == "sg-triangle" and e.gen == 2 for e in model.edges)
    assert edge_count("sg", 2) == 27


def test_stretched_model_counts():
    model = gl.build_model("stretched", 2, 0.2)
    joining = [e for e in model.edges if e.kind == "stretched-joining"]
    triangle = [e for e in model.edges if e.kind == "stretched-triangle"]
    assert len(triangle) == 27
    assert len(joining) == 12  # 3 + 9
    assert len({e.id for e in model.edges}) == 39


def test_first_joining_edges_have_length_alpha():
    model = gl.build_model("stretched", 1, 0.2)
    joining = [e for e in model.edges if e.kind == "stretched-joining"]
    assert len(joining) == 3
    for e in joining:
        assert e.length == pytest.approx(0.2, abs=1e-15)


def test_edge_lengths_follow_generation():
    alpha = 0.25
    model = gl.build_model("stretched", 3, alpha)
    ratio = (1.0 - alpha) / 2.0
    for e in model.edges:
        expected = ratio ** 3 if e.kind == "stretched-triangle" else alpha * ratio ** e.gen
        assert e.length == pytest.approx(expected, abs=1e-12)
        # straight edges measure their endpoint distance
        chord = math.dist(e.p, e.q)
        assert e.length == pytest.approx(chord, abs=1e-15)


def test_sg_vertex_counts():
    assert len(gl.model_vertices(gl.build_model("sg", 0))) == 3
    assert len(gl.model_vertices(gl.build_model("sg", 1))) == 6
    for n in range(1, 5):
        expected = 3 * (3 ** n + 1) // 2
        assert len(gl.model_vertices(gl.build_model("sg", n))) == expected


@pytest.mark.parametrize("variant,alpha", [("sg", None), ("stretched", 0.2)])
def test_endpoint_nodes_match_row_unique(variant, alpha):
    # the lexsort dedup must reproduce np.unique's rows and ids bit for bit
    for level in range(9):
        model = gl.build_model(variant, level, alpha)
        pts = np.array([e.p for e in model.edges] + [e.q for e in model.edges])
        ref, ref_ids = np.unique(np.round(pts, 12), axis=0, return_inverse=True)
        nodes, ids = _endpoint_nodes(model)
        assert nodes.dtype == ref.dtype and nodes.shape == ref.shape
        assert nodes.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(ids, ref_ids.reshape(-1))
        assert gl.model_vertices(model).tobytes() == ref.tobytes()


def test_model_hash_is_cached_and_not_pickled():
    import pickle

    model = gl.build_model("stretched", 2, 0.2)
    fields = (model.variant, model.alpha, model.level, model.edges)
    assert hash(model) == hash(fields)
    assert model.__dict__["_hash"] == hash(fields)
    twin = GasketModel(*fields)
    assert twin == model and hash(twin) == hash(model)
    again = pickle.loads(pickle.dumps(model))
    assert again == model and "_hash" not in again.__dict__


def test_stretched_vertices_match_enumeration_oracle():
    # enumerate F_w({p1,p2,p3}) over all words directly through compose_word
    alpha, n = 0.2, 2
    seen = set()
    for w in np.ndindex(*(3,) * n):
        word = tuple(int(c) + 1 for c in w)
        img = gl.compose_word("stretched", word, alpha)(CORNERS)
        seen.update(tuple(np.round(p, 12)) for p in img)
    model_pts = {tuple(p) for p in gl.model_vertices(gl.build_model("stretched", n, alpha))}
    assert model_pts == seen
    assert len(seen) == 3 ** (n + 1)


def test_joining_edges_touch_cells_only_at_endpoints():
    alpha, level = 0.2, 4
    meshes, _ = stretched_hierarchy(level, alpha)
    mesh = meshes[level]
    tri = mesh.points[mesh.cells]          # (C, 3, 2)
    model = gl.build_model("stretched", level, alpha)
    for e in model.edges:
        if e.kind != "stretched-joining":
            continue
        p, q = np.array(e.p), np.array(e.q)
        for t in (0.25, 0.5, 0.75):
            x = (1 - t) * p + t * q
            # barycentric containment against every finest cell
            v0 = tri[:, 1] - tri[:, 0]
            v1 = tri[:, 2] - tri[:, 0]
            w = x - tri[:, 0]
            den = v0[:, 0] * v1[:, 1] - v0[:, 1] * v1[:, 0]
            s = (w[:, 0] * v1[:, 1] - w[:, 1] * v1[:, 0]) / den
            u = (v0[:, 0] * w[:, 1] - v0[:, 1] * w[:, 0]) / den
            inside = (s >= -1e-12) & (u >= -1e-12) & (s + u <= 1 + 1e-12)
            assert not inside.any()


def test_deterministic_serialization():
    a = model_to_json(gl.build_model("stretched", 3, 0.2))
    b = model_to_json(gl.build_model("stretched", 3, 0.2))
    assert a == b


def test_edge_order_is_generation_then_word_then_local():
    model = gl.build_model("stretched", 2, 0.2)
    keys = [(e.gen if e.kind == "stretched-joining" else model.level, e.word, e.id)
            for e in model.edges]
    assert keys == sorted(keys)
    assert [e.id for e in model.edges] == list(range(len(model.edges)))


def per_edge_triangle_edges(mesh, kind, start_id):
    """Triangle edges one cell and one edge at a time, words from index_word."""
    edges = []
    for row in range(mesh.cell_count):
        word = str(index_word(mesh.level, row))
        for i, j in TRIANGLE_EDGE_CORNERS:
            p = mesh.points[mesh.cells[row, i]]
            q = mesh.points[mesh.cells[row, j]]
            edges.append(EdgeCurve(start_id + len(edges), kind, mesh.level,
                                   tuple(p), tuple(q), float(np.hypot(*(q - p))),
                                   word))
    return edges


def per_edge_model(variant, level, alpha=None):
    """The per-edge construction route, as the shared row builder's reference."""
    return GasketModel(variant, alpha, level,
                       EdgeTable.from_rows(per_edge_rows(variant, level, alpha)))


def per_edge_rows(variant, level, alpha=None):
    """The rows of ``per_edge_model``, one ``EdgeCurve`` per edge."""
    if variant == "sg":
        mesh = sg_hierarchy(level)[level]
        return tuple(per_edge_triangle_edges(mesh, "sg-triangle", 0))
    meshes, joins = stretched_hierarchy(level, alpha)
    edges = []
    for m in range(level):
        pts = meshes[m + 1].points
        for row in range(joins[m].shape[0]):
            word = str(index_word(m, row))
            for u, v in joins[m][row]:
                p, q = pts[u], pts[v]
                edges.append(EdgeCurve(len(edges), "stretched-joining", m,
                                       tuple(p), tuple(q),
                                       float(np.hypot(*(q - p))), word))
    edges += per_edge_triangle_edges(meshes[level], "stretched-triangle", len(edges))
    return tuple(edges)


@pytest.mark.parametrize("variant,alpha",
                         [("sg", None), ("stretched", 0.2), ("stretched", 0.137)])
@pytest.mark.parametrize("level", range(7))
def test_row_builder_matches_per_edge_route(variant, alpha, level):
    model = gl.build_model(variant, level, alpha)
    reference = per_edge_model(variant, level, alpha)
    assert model == reference
    assert model_to_json(model) == model_to_json(reference)


def test_resource_cap(monkeypatch):
    with pytest.raises(ResourceCapError):
        gl.build_model("sg", 13)
    monkeypatch.setenv("GASKET_MAX_EDGES", "10")
    gl.build_model("sg", 1)
    with pytest.raises(ResourceCapError):
        gl.build_model("sg", 2)
    monkeypatch.setenv("GASKET_MAX_EDGES", "bogus")
    with pytest.raises(GasketError):
        gl.build_model("sg", 1)


def test_build_model_argument_errors():
    with pytest.raises(GasketError):
        gl.build_model("stretched", 2)          # missing alpha
    with pytest.raises(GasketError):
        gl.build_model("sg", 2, 0.2)            # alpha not applicable
    with pytest.raises(GasketError):
        gl.build_model("nope", 2)
    with pytest.raises(GasketError):
        gl.build_model("sg", -1)


def test_sg_meshes_share_midpoints():
    meshes = sg_hierarchy(3)
    for m, mesh in enumerate(meshes):
        assert len(mesh.points) == 3 * (3 ** m + 1) // 2
        assert mesh.cells.shape == (3 ** m, 3)


# -- the prefix invariant --------------------------------------------------------

@pytest.mark.parametrize("level", range(8))
def test_every_level_is_a_prefix_of_the_finest(level):
    # each level-m mesh, whether read from the level-L hierarchy or built on
    # its own, holds the first rows of the level-L points bit for bit
    hierarchies = [(sg_hierarchy(level), sg_hierarchy)]
    for alpha in (0.05, 0.2, 0.3):
        hierarchies.append((stretched_hierarchy(level, alpha)[0],
                            lambda m, a=alpha: stretched_hierarchy(m, a)[0]))
    for meshes, build in hierarchies:
        finest = meshes[level].points
        for m, mesh in enumerate(meshes):
            alone = build(m)[m]
            assert mesh.cells.max() < len(mesh.points)
            assert alone.cells.tobytes() == mesh.cells.tobytes()
            for points in (mesh.points, alone.points):
                assert finest[:len(points)].tobytes() == points.tobytes()
    meshes, joins = stretched_hierarchy(level, 0.2)
    for m, ends in enumerate(joins):
        assert ends.max() < len(meshes[m + 1].points)
    phi = harmonic.phi_coordinates(level)
    for m in range(level + 1):
        count = harmonic.vertex_count(m)
        assert phi[:count].tobytes() == harmonic.phi_coordinates(m).tobytes()
