"""Metric graphs, geodesics, and the distance-witness check."""

import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

import gasketlab as gl
from gasketlab.geometry import EdgeCurve, GasketError, GasketModel
from gasketlab.metric import (
    _chains_attain,
    _dijkstra,
    arc_slacks,
    distance_field,
    to_metric_graph,
)

SQ3 = math.sqrt(3.0)


def _node_id(graph, point):
    gaps = np.linalg.norm(graph.nodes - np.asarray(point, float), axis=1)
    idx = int(np.argmin(gaps))
    assert gaps[idx] < 1e-9
    return idx


def _scipy_distances(graph, source, split=None):
    """Reference distances; ``split=(arc, t)`` adds a node n that cuts the
    arc at parameter t, as the geodesic code does for joining segments."""
    n = graph.node_count
    rows, cols, weights = [], [], []
    for u, v, w, _ in graph.arcs:
        rows += [u, v]
        cols += [v, u]
        weights += [w, w]
    if split is not None:
        arc, t = split
        u, v, w, _ = graph.arcs[arc]
        rows += [n, u, n, v]
        cols += [u, n, v, n]
        weights += [t * w, t * w, (1 - t) * w, (1 - t) * w]
        n += 1
    mat = csr_matrix((weights, (rows, cols)), shape=(n, n))
    return scipy_dijkstra(mat, indices=source)


def _old_style_graph(model):
    """Nodes, arcs and sorted neighbour tuples rebuilt edge by edge, the
    way the tuple-based graph was assembled."""
    pts = np.array([e.p for e in model.edges] + [e.q for e in model.edges])
    nodes, inverse = np.unique(np.round(pts, 12), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    m = len(model.edges)
    arcs = tuple((int(inverse[i]), int(inverse[i + m]), e.length, e.kind)
                 for i, e in enumerate(model.edges))
    adj = [[] for _ in range(len(nodes))]
    for u, v, w, _ in arcs:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return nodes, arcs, tuple(tuple(sorted(nbrs)) for nbrs in adj)


def _path_of(pred, source, target):
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]])
    return path[::-1]


# -- graph construction ------------------------------------------------------

def test_stretched_level_one_graph():
    graph = to_metric_graph(gl.build_model("stretched", 1, 0.2))
    assert graph.node_count == 9
    joining = [a for a in graph.arcs if a[3] == "stretched-joining"]
    triangle = [a for a in graph.arcs if a[3] == "stretched-triangle"]
    assert len(triangle) == 9
    assert len(joining) == 3
    assert all(w == pytest.approx(0.2, abs=1e-15) for _, _, w, _ in joining)


def test_sg_level_one_graph():
    graph = to_metric_graph(gl.build_model("sg", 1))
    assert graph.node_count == 6
    assert len(graph.arcs) == 9
    assert all(w == pytest.approx(0.5, abs=1e-15) for _, _, w, _ in graph.arcs)


def test_interior_cell_corner_has_degree_three():
    graph = to_metric_graph(gl.build_model("stretched", 2, 0.2))
    node = _node_id(graph, (0.4, 0.0))     # corner shared with a joining arc
    degree = len(graph.neighbors[node])
    assert degree == 3
    kinds = sorted(k for u, v, _, k in graph.arcs if node in (u, v))
    assert kinds == ["stretched-joining", "stretched-triangle",
                     "stretched-triangle"]


@pytest.mark.parametrize("variant,alpha", [("sg", None), ("stretched", 0.25)])
def test_tuple_views_match_old_style_rebuild(variant, alpha):
    model = gl.build_model(variant, 4, alpha)
    graph = to_metric_graph(model)
    nodes, arcs, neighbors = _old_style_graph(model)
    assert graph.nodes.tobytes() == nodes.tobytes()
    assert graph.arcs == arcs
    assert graph.neighbors == neighbors
    assert graph.arcs is graph.arcs            # built once, not per access


def test_graph_cache_hits_and_coarse_levels():
    model = gl.build_model("stretched", 4, 0.2)
    assert to_metric_graph(model) is to_metric_graph(model)
    coarse = to_metric_graph(model, 2)
    direct = to_metric_graph(gl.build_model("stretched", 2, 0.2))
    assert coarse.level == 2
    assert coarse is direct                    # equal models share one graph


def test_zero_length_edge_does_not_hide_other_arcs():
    model = gl.build_model("stretched", 1, 0.2)
    graph = to_metric_graph(model)
    node = tuple(graph.nodes[0].tolist())
    stub = EdgeCurve(len(model.edges), "stretched-triangle", 0, node, node, 0.0, "")
    padded = GasketModel(model.variant, model.alpha, model.level,
                         model.edges + (stub,))
    arc = next(i for i, a in enumerate(graph.arcs) if a[3] == "stretched-joining")
    u, v, _, _ = graph.arcs[arc]
    point = 0.3 * graph.nodes[u] + 0.7 * graph.nodes[v]
    far = graph.nodes[-1]
    assert gl.geodesic(padded, point, far) == gl.geodesic(model, point, far)


def test_disconnected_construction_is_rejected():
    edges = (
        EdgeCurve(0, "sg-triangle", 0, (0.0, 0.0), (1.0, 0.0), 1.0, ""),
        EdgeCurve(1, "sg-triangle", 0, (5.0, 5.0), (6.0, 5.0), 1.0, ""),
    )
    with pytest.raises(GasketError):
        to_metric_graph(GasketModel("sg", None, 0, edges))


def test_harmonic_graphs_are_out_of_scope():
    with pytest.raises(GasketError):
        to_metric_graph(gl.build_model("harmonic", 1))


# -- geodesics ---------------------------------------------------------------

def test_bottom_boundary_telescopes_to_one():
    model = gl.build_model("stretched", 3, 0.2)
    for level in (1, 2, 3):
        res = gl.geodesic(model, (0.0, 0.0), (1.0, 0.0), level)
        assert res.distance == pytest.approx(1.0, abs=1e-12)
        assert res.error_bar == 0.0


def test_distance_to_first_cell_corner():
    model = gl.build_model("stretched", 3, 0.2)
    res = gl.geodesic(model, (0.0, 0.0), (0.4, 0.0))
    assert res.distance == pytest.approx(0.4, abs=1e-12)


def test_point_to_itself():
    model = gl.build_model("stretched", 2, 0.2)
    res = gl.geodesic(model, (0.0, 0.0), (0.0, 0.0))
    assert res.distance == 0.0
    assert res.path == (res.path[0],)


def test_path_arcs_exist_and_sum():
    model = gl.build_model("stretched", 3, 0.2)
    graph = to_metric_graph(model)
    res = gl.geodesic(model, (0.0, 0.0), (1.0, 0.0))
    arcweights = {}
    for u, v, w, _ in graph.arcs:
        arcweights[(u, v)] = w
        arcweights[(v, u)] = w
    total = sum(arcweights[(a, b)] for a, b in zip(res.path, res.path[1:]))
    assert total == pytest.approx(res.distance, abs=1e-12)


def test_against_scipy_dijkstra():
    model = gl.build_model("stretched", 3, 0.25)
    graph = to_metric_graph(model)
    rng = np.random.default_rng(2)
    for source in rng.integers(0, graph.node_count, size=5):
        ours = distance_field(graph, int(source))
        ref = _scipy_distances(graph, int(source))
        np.testing.assert_allclose(ours, ref, atol=1e-12)


def test_vertex_geodesics_against_scipy_dijkstra():
    model = gl.build_model("stretched", 4, 0.2)
    graph = to_metric_graph(model)
    rng = np.random.default_rng(21)
    for a, b in rng.integers(0, graph.node_count, size=(12, 2)):
        res = gl.geodesic(model, graph.nodes[a], graph.nodes[b])
        ref = _scipy_distances(graph, int(a))[b]
        assert res.error_bar == 0.0
        assert res.distance == pytest.approx(ref, rel=1e-12, abs=1e-15)
        assert (res.path[0], res.path[-1]) == (a, b)


@pytest.mark.parametrize("kind", ["stretched-joining", "stretched-triangle"])
def test_offnode_geodesics_against_scipy_with_split_arc(kind):
    model = gl.build_model("stretched", 4, 0.2)
    graph = to_metric_graph(model)
    pool = [i for i, arc in enumerate(graph.arcs) if arc[3] == kind]
    rng = np.random.default_rng(22)
    for _ in range(10):
        arc = pool[rng.integers(len(pool))]
        t = float(rng.uniform(0.05, 0.95))
        u, v, w, _ = graph.arcs[arc]
        point = graph.nodes[u] + t * (graph.nodes[v] - graph.nodes[u])
        b = int(rng.integers(graph.node_count))
        res = gl.geodesic(model, point, graph.nodes[b])
        exact = _scipy_distances(graph, graph.node_count, split=(arc, t))[b]
        if kind == "stretched-joining":
            assert res.error_bar == 0.0
            assert res.distance == pytest.approx(exact, rel=1e-12, abs=1e-15)
        else:
            snapped = u if t <= 0.5 else v
            assert res.error_bar == w
            assert res.path[0] == snapped
            assert res.distance == pytest.approx(
                _scipy_distances(graph, snapped)[b], rel=1e-12, abs=1e-15)
            assert abs(res.distance - exact) <= res.error_bar + 1e-12


def test_stopping_dijkstra_matches_full_run():
    graph = to_metric_graph(gl.build_model("stretched", 4, 0.2))
    for s in (0, 17, graph.node_count - 1):
        full_dist, full_pred = _dijkstra(graph, s)
        for t in range(graph.node_count):
            dist, pred = _dijkstra(graph, s, target=t)
            assert dist[t] == full_dist[t]
            assert _path_of(pred, s, t) == _path_of(full_pred, s, t)


def test_metric_axioms_on_random_triples():
    model = gl.build_model("stretched", 2, 0.2)
    graph = to_metric_graph(model)
    rng = np.random.default_rng(4)
    fields = {i: distance_field(graph, i) for i in range(graph.node_count)}
    for _ in range(50):
        a, b, c = rng.integers(0, graph.node_count, size=3)
        assert fields[a][b] == pytest.approx(fields[b][a], abs=1e-12)
        assert fields[a][c] <= fields[a][b] + fields[b][c] + 1e-12
        assert fields[a][b] > 0 or a == b


def test_geodesic_dominates_euclidean():
    model = gl.build_model("stretched", 2, 0.2)
    graph = to_metric_graph(model)
    rng = np.random.default_rng(9)
    for _ in range(25):
        a, b = rng.integers(0, graph.node_count, size=2)
        d = distance_field(graph, int(a))[b]
        euclid = np.linalg.norm(graph.nodes[a] - graph.nodes[b])
        assert d >= euclid - 1e-12


def test_level_stability_for_coarse_vertices():
    model = gl.build_model("stretched", 5, 0.2)
    coarse = to_metric_graph(model, 2)
    rng = np.random.default_rng(6)
    pairs = rng.integers(0, coarse.node_count, size=(8, 2))
    for a, b in pairs:
        base = gl.geodesic(model, coarse.nodes[a], coarse.nodes[b], 2).distance
        for level in (3, 4, 5):
            again = gl.geodesic(model, coarse.nodes[a], coarse.nodes[b], level)
            assert again.distance == pytest.approx(base, abs=1e-12)


def test_sg_bottom_edge_is_unit_at_every_level():
    model = gl.build_model("sg", 5)
    for level in range(1, 6):
        res = gl.geodesic(model, (0.0, 0.0), (1.0, 0.0), level)
        assert res.distance == pytest.approx(1.0, abs=1e-12)


def test_joining_edge_interior_point_splits_exactly():
    model = gl.build_model("stretched", 4, 0.2)
    res = gl.geodesic(model, (0.0, 0.0), (0.5, 0.0))
    assert res.distance == pytest.approx(0.5, abs=1e-12)
    assert res.error_bar == 0.0
    # both endpoints interior to the same joining segment
    res = gl.geodesic(model, (0.45, 0.0), (0.55, 0.0))
    assert res.distance == pytest.approx(0.1, abs=1e-12)


def test_triangle_edge_interior_point_snaps_with_error_bar():
    model = gl.build_model("stretched", 2, 0.2)
    # interior of the bottom edge of the corner cell at level 2
    res = gl.geodesic(model, (0.03, 0.0), (0.4, 0.0))
    assert res.error_bar == pytest.approx(0.4 ** 2, abs=1e-12)
    assert res.distance == pytest.approx(0.4, abs=1e-12)  # snapped to the corner


def test_off_structure_point_is_rejected():
    model = gl.build_model("stretched", 2, 0.2)
    with pytest.raises(GasketError):
        gl.geodesic(model, (0.5, 0.1), (0.0, 0.0))


# -- witness check -----------------------------------------------------------

def test_witness_check_passes_at_corner():
    model = gl.build_model("stretched", 3, 0.2)
    graph = to_metric_graph(model)
    report = gl.lipschitz_witness_check(model, _node_id(graph, (0.0, 0.0)))
    assert report.ok
    assert report.max_arc_violation <= 1e-12
    assert report.arcs_checked == len(graph.arcs)
    assert report.targets_checked == 20


def test_constant_field_is_one_lipschitz():
    graph = to_metric_graph(gl.build_model("stretched", 2, 0.2))
    slacks = arc_slacks(graph, np.zeros(graph.node_count))
    assert (slacks <= 0.0).all()


def test_doubled_distance_field_violates_an_arc():
    model = gl.build_model("stretched", 2, 0.2)
    graph = to_metric_graph(model)
    field = distance_field(graph, 0)
    slacks = arc_slacks(graph, 2.0 * field)
    assert slacks.max() > 1e-6


def test_chain_check_rejects_one_perturbed_entry():
    graph = to_metric_graph(gl.build_model("stretched", 3, 0.2))
    q = 5
    dist, pred = _dijkstra(graph, q)
    field = np.array(dist)
    targets = np.random.default_rng(24).integers(0, graph.node_count, size=20)
    assert _chains_attain(graph, field, pred, q, targets)
    bad = field.copy()
    t = int(targets[targets != q][0])
    bad[t] *= 1 + 1e-9
    assert not _chains_attain(graph, bad, pred, q, targets)
    assert not _chains_attain(graph, field - field[t], pred, q, targets)   # h(q) != 0


def test_witness_attained_all_fails_for_wrong_field(monkeypatch):
    # a field that is 1-Lipschitz but not d(., q) must not be reported attained
    model = gl.build_model("stretched", 3, 0.2)
    real = gl.metric._dijkstra

    def halved(*args, **kwargs):
        dist, pred = real(*args, **kwargs)
        return [d / 2 for d in dist], pred

    monkeypatch.setattr(gl.metric, "_dijkstra", halved)
    report = gl.lipschitz_witness_check(model, 0)
    assert report.lipschitz_ok
    assert not report.attained_all and not report.ok


def test_witness_target_validation():
    model = gl.build_model("stretched", 1, 0.2)
    with pytest.raises(GasketError):
        gl.lipschitz_witness_check(model, 99)
