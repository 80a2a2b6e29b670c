"""Contraction maps, words, model construction, vertex sets."""

import math
import re
from functools import partial

import numpy as np
import pytest
from conftest import (
    FIXED_POINTS,
    SQ3,
    apply_word,
    generators,
    index_word,
    oracle_hierarchy,
    refine_shared,
    refine_stretched,
    rows_table,
    vertex_count,
)

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
    cell_index,
    contractions,
    _endpoint_nodes,
    edge_count,
    sg_hierarchy,
    stretched_hierarchy,
)
from gasketlab.serialize import model_to_json
from gasketlab.svg import render_svg

P = dict(enumerate(FIXED_POINTS, start=1))


# -- contraction maps --------------------------------------------------------

def on(variant, j, x, alpha=None):    # map j (1-based) of ``contractions`` at x
    mats, offsets = contractions(variant, alpha)
    return mats[j - 1] @ x + offsets[j - 1]


def test_sg_generator_contracts_to_midpoint():
    np.testing.assert_allclose(on("sg", 1, np.array([1.0, 0.0])), [0.5, 0.0], atol=1e-15)


def test_stretched_degenerate_generator_direct_arithmetic():
    # apply A_5 (x - p_5) + p_5 by hand: A_5 = alpha * diag(1, 0)
    alpha = 0.2
    x = P[2]
    expected = alpha * np.array([[1.0, 0.0], [0.0, 0.0]]) @ (x - P[5]) + P[5]
    out = on("stretched", 5, x, alpha)
    np.testing.assert_allclose(out, expected, atol=1e-15)
    np.testing.assert_allclose(out, [0.5, 0.0], atol=1e-15)


@pytest.mark.parametrize("j", range(1, 7))
def test_stretched_generator_fixed_points(j):
    np.testing.assert_allclose(on("stretched", j, P[j], 0.2), P[j], atol=1e-15)


def test_generators_are_contractive():
    for variant, alpha in (("sg", None), ("stretched", 0.3), ("harmonic", None)):
        mats = contractions(variant, alpha)[0]
        assert (np.linalg.norm(mats, 2, axis=(1, 2)) < 1.0).all()


def test_generator_errors():
    for args, message in [(("stretched", 0.4), "alpha must lie in"), (("stretched",), "requires"),
                          (("harmonic", 0.2), "takes no alpha"), (("carpet",), "unknown")]:
        with pytest.raises(GasketError, match=message):
            contractions(*args)


@pytest.mark.parametrize("variant,alpha", [("sg", None), ("stretched", 0.05), ("stretched", 0.2),
                                           ("stretched", 0.3), ("harmonic", None)])
def test_contractions_match_the_fixed_point_oracle(variant, alpha):
    # harmonic maps act on the plane Z, written in the basis
    # q_1 = (2, -1, -1)/sqrt(6), q'_1 = (0, 1, -1)/sqrt(2)
    mats, offsets = contractions(variant, alpha)
    assert contractions(variant, alpha)[1] is offsets
    assert not (mats.flags.writeable or offsets.flags.writeable)
    assert len(mats) == len(offsets) == len(generators(variant, alpha))
    basis = (np.array([[2.0, 0.0], [-1.0, SQ3], [-1.0, -SQ3]]) / math.sqrt(6.0)
             if variant == "harmonic" else np.eye(2))
    pts = np.random.default_rng(3).uniform(-1.0, 2.0, size=(50, 2))
    for j in range(len(mats)):
        np.testing.assert_allclose(pts @ mats[j].T + offsets[j],
                                   apply_word(variant, [j + 1], pts @ basis.T, alpha) @ basis,
                                   atol=1e-14)


def test_two_halvings_toward_corner_one():
    np.testing.assert_allclose(on("sg", 1, on("sg", 1, P[3])), [0.25, 0.0], atol=1e-15)


def test_compose_matches_sequential_application():
    # the oracle applies the first letter first: word "13" acts as F_3 after F_1
    alpha = 0.2
    seq = on("stretched", 3, on("stretched", 1, P[3], alpha), alpha)
    np.testing.assert_allclose(apply_word("stretched", "13", P[3], alpha), seq, atol=1e-15)


def test_word_validation():
    # an address is a str over the letters 1, 2, 3; int() alone would take
    # " 1", "1_2" and "+1" as base-3 numerals
    e = gl.build_model("harmonic", 1, harmonic_depth=2).edges
    for word in ("4", "10", "x", " 1", "1_2", "+1"):
        message = f"cell address {word!r} is not a word over 1, 2, 3"
        with pytest.raises(GasketError, match=re.escape(message)):
            cell_index(word)
        with pytest.raises(GasketError, match=re.escape(message)):
            harmonic.edge_polylines(["1", word], [1, 2], 2)
        words = e.word[:4] + (word,) + e.word[5:]
        bad = EdgeTable(e.id, e.kind, e.gen, e.p, e.q, e.length, words,
                        e.length_lo, e.length_hi)
        with pytest.raises(GasketError, match=re.escape(message)):
            render_svg(GasketModel("harmonic", None, 1, bad))
    with pytest.raises(GasketError, match=re.escape("cell address (1, 2) is not a word")):
        cell_index((1, 2))      # the tuple form is gone
    assert [cell_index(w) for w in ("", "1", "3", "21", "132")] == [0, 0, 2, 3, 7]


def test_cell_addressing_roundtrip():
    for level in range(4):
        for idx in range(3 ** level):
            assert cell_index(index_word(level, idx)) == idx
    # descending one letter lands in the child cell: the map onto the cell
    # at an address is the word map of the reversed address, and "2" is its
    # own reverse
    child = apply_word("sg", "2", CORNERS)
    np.testing.assert_allclose(child[1], CORNERS[1], atol=1e-15)  # keeps corner 2


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
    assert len(_endpoint_nodes(gl.build_model("sg", 0))[0]) == 3
    assert len(_endpoint_nodes(gl.build_model("sg", 1))[0]) == 6
    for n in range(1, 5):
        expected = 3 * (3 ** n + 1) // 2
        assert len(_endpoint_nodes(gl.build_model("sg", n))[0]) == expected


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


def test_model_hash_is_cached_and_not_pickled():
    import pickle

    model = gl.build_model("stretched", 2, 0.2)
    fields = (model.variant, model.alpha, model.level, model.edges, model.depth)
    assert hash(model) == hash(fields)
    assert model.__dict__["_hash"] == hash(fields)
    twin = GasketModel(*fields)
    assert twin == model and hash(twin) == hash(model)
    again = pickle.loads(pickle.dumps(model))
    assert again == model and "_hash" not in again.__dict__


def test_stretched_vertices_match_enumeration_oracle():
    # enumerate F_w({p1,p2,p3}) over all words directly through the word maps
    alpha, n = 0.2, 2
    seen = set()
    for w in np.ndindex(*(3,) * n):
        word = tuple(int(c) + 1 for c in w)
        img = apply_word("stretched", word, CORNERS, alpha)
        seen.update(tuple(np.round(p, 12)) for p in img)
    nodes = _endpoint_nodes(gl.build_model("stretched", n, alpha))[0]
    model_pts = {tuple(p) for p in nodes}
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
    for row in range(len(mesh.cells)):
        word = index_word(mesh.level, row)
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
                       rows_table(per_edge_rows(variant, level, alpha)))


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
            word = index_word(m, row)
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


@pytest.mark.parametrize("variant,alpha,level", [("sg", None, 8), ("stretched", 1e-9, 7),
                                                 ("stretched", 0.05, 7), ("stretched", 0.2, 7),
                                                 ("stretched", 0.333, 7)])
def test_hierarchies_match_the_per_child_refinement_oracles(variant, alpha, level):
    # the table-driven step against the per-child steps written out by
    # hand: every level's points and cells, and every joining table, as bytes
    if variant == "sg":
        meshes, joins = sg_hierarchy(level), ()
        want, want_joins = oracle_hierarchy(level, refine_shared)
    else:
        meshes, joins = stretched_hierarchy(level, alpha)
        want, want_joins = oracle_hierarchy(level, partial(refine_stretched, alpha=alpha))
    assert len(meshes) == len(want) == level + 1 and len(joins) == len(want_joins)
    for m, (mesh, (points, cells)) in enumerate(zip(meshes, want)):
        assert mesh.level == m
        for got, ref in ((mesh.points, points), (mesh.cells, cells)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes() and not got.flags.writeable
    for got, ref in zip(joins, want_joins):
        assert got.dtype == ref.dtype and got.shape == ref.shape == (len(ref), 3, 2)
        assert got.tobytes() == ref.tobytes() and not got.flags.writeable


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
        count = vertex_count(m)
        assert phi[:count].tobytes() == harmonic.phi_coordinates(m).tobytes()
