"""Metric graphs, geodesics, and the distance-witness check."""

import dataclasses
import heapq
import math

import numpy as np
import pytest
from conftest import edited_model, rows_table
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

import gasketlab as gl
from gasketlab import geometry, metric
from gasketlab.geometry import EdgeCurve, GasketError, GasketModel
from gasketlab.metric import (
    SNAP_TOL,
    _chains_attain,
    _dijkstra,
    _Endpoint,
    _locate,
    _nearest_arc,
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


def _row(graph, u):
    """The (neighbour, weight) pairs of node u's ``arc_rows`` row, pads dropped."""
    heads, weights = graph.arc_rows
    return tuple((v, w) for v, w in zip(heads[u].tolist(), weights[u].tolist())
                 if v >= 0)


def heap_dijkstra(graph, source, extra=None, target=None):
    """The (distance, node)-heap Dijkstra stopped at the target, which
    geodesics ran before the goal-directed and corridor searches; kept as
    their reference."""
    n, extra = graph.node_count, extra or {}
    size = max([n - 1, *extra]) + 1
    dist = [math.inf] * size
    pred = [-1] * size
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == target:
            break
        for v, w in (_row(graph, u) if u < n else ()) + tuple(extra.get(u, ())):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, pred


def scan_locate(graph, point, virtual_id):
    """Point location by projection onto every arc, as before the node
    bisection and arc boxes."""
    x = np.asarray(point, dtype=float)
    gaps = np.linalg.norm(graph.nodes - x, axis=1)
    nearest = int(np.argmin(gaps))
    if gaps[nearest] <= SNAP_TOL:
        return _Endpoint(nearest, 0.0)
    ends = graph.nodes[graph.arc_u]
    dirs = graph.nodes[graph.arc_v] - ends
    with np.errstate(invalid="ignore", divide="ignore"):
        ts = np.clip(np.einsum("ij,ij->i", x - ends, dirs)
                     / np.einsum("ij,ij->i", dirs, dirs), 0.0, 1.0)
    gaps = np.hypot(*(x - (ends + ts[:, None] * dirs)).T)
    best = (math.inf, -1, 0.0)
    for idx in np.flatnonzero(gaps <= np.fmin.reduce(gaps) + 1e-12).tolist():
        a, d = ends[idx], dirs[idx]
        t = float(np.clip(np.dot(x - a, d) / np.dot(d, d), 0.0, 1.0))
        gap = float(np.linalg.norm(x - (a + t * d)))
        if gap < best[0]:
            best = (gap, idx, t)
    gap, idx, t = best
    if gap > SNAP_TOL:
        raise GasketError(
            f"point {tuple(x.tolist())} is not on the structure "
            f"(distance {gap:.3e} > {SNAP_TOL})"
        )
    u, v = int(graph.arc_u[idx]), int(graph.arc_v[idx])
    w, kind = float(graph.arc_w[idx]), graph.arc_kind[idx]
    if kind == "stretched-joining":
        return _Endpoint(virtual_id, 0.0, arc=idx, extra=((u, t * w), (v, (1.0 - t) * w)))
    return _Endpoint(u if t <= 0.5 else v, w)


def heap_geodesic(model, p, q):
    """``geodesic`` as it ran on ``scan_locate`` and ``heap_dijkstra``."""
    graph = to_metric_graph(model)
    n = graph.node_count
    src, dst = scan_locate(graph, p, n), scan_locate(graph, q, n + 1)
    extra = {}
    for ep in (src, dst):
        if ep.arc is not None:
            extra[ep.node] = list(ep.extra)
            for v, w in ep.extra:
                extra.setdefault(v, []).append((ep.node, w))
    if src.arc is not None and src.arc == dst.arc:
        a = graph.nodes[graph.arc_u[src.arc]]
        tdist = abs(np.linalg.norm(np.asarray(p, float) - a)
                    - np.linalg.norm(np.asarray(q, float) - a))
        extra[src.node].append((dst.node, float(tdist)))
        extra[dst.node].append((src.node, float(tdist)))
    dist, pred = heap_dijkstra(graph, src.node, extra or None, target=dst.node)
    return metric.GeodesicResult(dist[dst.node], tuple(_path_of(pred, src.node, dst.node)),
                             graph.level, src.snap_error + dst.snap_error)


def _assert_same_geodesic(model, p, q):
    res, ref = gl.geodesic(model, p, q), heap_geodesic(model, p, q)
    assert repr(res) == repr(ref)              # float reprs: bit-identical
    assert all(type(v) is int for v in res.path)


@pytest.fixture
def routes(monkeypatch):
    """Which route served each geodesic: "fold" counts the corridors
    ``_corridor_path`` folded into a path, "heap" the ``_dijkstra`` runs."""
    counts = {"fold": 0, "heap": 0}
    fold, heap = metric._corridor_path, metric._dijkstra

    def counted_fold(*args):
        walk = fold(*args)
        counts["fold"] += walk is not None
        return walk

    def counted_heap(*args, **kwargs):
        counts["heap"] += 1
        return heap(*args, **kwargs)

    monkeypatch.setattr(metric, "_corridor_path", counted_fold)
    monkeypatch.setattr(metric, "_dijkstra", counted_heap)
    return counts


def _point_on(graph, arc, t):
    u, v = graph.arc_u[arc], graph.arc_v[arc]
    return graph.nodes[u] + t * (graph.nodes[v] - graph.nodes[u])


def _length_of(index, length):
    """An ``edited_model`` edit: edge ``index`` declares ``length``."""
    def edit(columns):
        columns["length"][index] = length
    return edit


def _full_run(graph, q):
    """Field and predecessor arrays of the unrestricted ``_dijkstra`` from q."""
    dist, pred = _dijkstra(graph, q)
    nodes = range(graph.node_count)
    return np.array([dist[v] for v in nodes]), np.array([pred.get(v, -1) for v in nodes])


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
    degree = len(_row(graph, node))
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
    assert tuple(_row(graph, u) for u in range(graph.node_count)) == neighbors
    assert graph.arcs is graph.arcs            # built once, not per access


def test_graph_cache_hits_and_coarse_levels():
    model = gl.build_model("stretched", 4, 0.2)
    assert to_metric_graph(model) is to_metric_graph(model)
    coarse = to_metric_graph(gl.build_model("stretched", 2, 0.2))
    direct = to_metric_graph(gl.build_model("stretched", 2, 0.2))
    assert coarse.level == 2
    assert coarse is direct                    # equal models share one graph


def test_zero_length_edge_does_not_hide_other_arcs():
    # a triangle edge at the first node declares length 0: a point on a
    # joining arc still locates on that arc and its geodesic is the heap's
    base = gl.build_model("stretched", 1, 0.2)
    graph = to_metric_graph(base)
    stub = next(i for i, a in enumerate(graph.arcs)
                if a[3] == "stretched-triangle" and 0 in a[:2])
    model = edited_model(base, _length_of(stub, 0.0))
    assert to_metric_graph(model).arc_w[stub] == 0.0
    arc = next(i for i, a in enumerate(graph.arcs) if a[3] == "stretched-joining")
    u, v, _, _ = graph.arcs[arc]
    point = 0.3 * graph.nodes[u] + 0.7 * graph.nodes[v]
    far = graph.nodes[-1]
    _assert_same_geodesic(model, point, far)
    assert gl.geodesic(model, point, far).path[1] in (u, v)   # leaves by its arc


def test_disconnected_construction_is_rejected():
    edges = (
        EdgeCurve(0, "sg-triangle", 0, (0.0, 0.0), (1.0, 0.0), 1.0, ""),
        EdgeCurve(1, "sg-triangle", 0, (5.0, 5.0), (6.0, 5.0), 1.0, ""),
    )
    with pytest.raises(GasketError, match="sg level 0 has 3 edges, the model 2"):
        to_metric_graph(GasketModel("sg", None, 0, rows_table(edges)))


def test_harmonic_graphs_are_out_of_scope():
    with pytest.raises(GasketError):
        to_metric_graph(gl.build_model("harmonic", 1))


# -- geodesics ---------------------------------------------------------------

def test_bottom_boundary_telescopes_to_one():
    for level in (1, 2, 3):
        model = gl.build_model("stretched", level, 0.2)
        res = gl.geodesic(model, (0.0, 0.0), (1.0, 0.0))
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


def _allowed(graph, src, dst, direct=math.inf):
    """The corridor as the node set the heap search may enter."""
    nodes, _ = graph.corner_tables.corridor(src, dst, direct)
    return set(nodes.tolist()) | {graph.node_count, graph.node_count + 1}


@pytest.mark.parametrize("children,joins", [(geometry.SG_CHILDREN, None),
                                            (geometry.STRETCHED_CHILDREN,
                                             geometry.STRETCHED_JOINS)])
def test_nine_node_ids_follow_the_child_and_join_tables(children, joins):
    # node 3c + j is corner j of child c: a cell-local id's nodes are where
    # it sits in the flattened child table
    nine = np.array(children).reshape(-1)
    np.testing.assert_array_equal(nine[metric._OWN], [0, 1, 2])
    for own in range(3):
        assert np.flatnonzero(nine == own)[0] == metric._OWN[own]
    # a joining segment joins the nodes of its two ends; on sg a pair is the
    # one shared midpoint of the right (m_bc), bottom (m_ac) or left (m_ab) side
    sides = ((5, 5), (4, 4), (3, 3)) if joins is None else joins
    np.testing.assert_array_equal(nine[metric._JOINS], sides)


def test_corridor_dijkstra_matches_full_run():
    graph = to_metric_graph(gl.build_model("stretched", 4, 0.2))
    n = graph.node_count
    for s in (0, 17, n - 1):
        full_dist, full_pred = _dijkstra(graph, s)
        for t in range(n):
            allowed = _allowed(graph, _Endpoint(s, 0.0), _Endpoint(t, 0.0))
            dist, pred = _dijkstra(graph, s, allowed=allowed)
            assert dist[t] == full_dist[t]
            assert _path_of(pred, s, t) == _path_of(full_pred, s, t)


@pytest.mark.parametrize("variant,alpha", [("sg", None), ("stretched", 0.05),
                                           ("stretched", 0.2), ("stretched", 0.3)])
def test_corridor_geodesics_match_heap_search_on_all_vertex_pairs(variant, alpha, routes):
    model = gl.build_model(variant, 3, alpha)
    nodes = to_metric_graph(model).nodes
    for p in nodes:
        for q in nodes:
            _assert_same_geodesic(model, p, q)
    _assert_routes(routes, variant, len(nodes) ** 2)


def _assert_routes(routes, variant, queries):
    """Every query took one route: stretched geodesics nearly always have
    one shortest path and fold; sg ties leave several, and reach the heap."""
    assert routes["fold"] + routes["heap"] == queries
    if variant == "sg":
        assert routes["heap"] > 0 and routes["fold"] > 0
    else:
        assert routes["fold"] >= 0.95 * queries


@pytest.mark.parametrize("variant,alpha", [("sg", None), ("stretched", 0.05),
                                           ("stretched", 0.2), ("stretched", 0.3)])
def test_corridor_fold_matches_the_heap_search_up_to_level_four(variant, alpha, routes):
    # all vertex pairs at levels 1 and 2 (level 3: the test above), every
    # 32nd source at level 4, and on stretched models points inside joining
    # arcs: to vertices, to a second arc, and to a point of the same arc
    # (the direct piece, also of length 0)
    queries = 0
    for level in (1, 2, 4):
        model = gl.build_model(variant, level, alpha)
        graph = to_metric_graph(model)
        nodes = graph.nodes
        for p in nodes if level < 4 else nodes[::32]:
            for q in nodes:
                _assert_same_geodesic(model, p, q)
                queries += 1
    if variant == "stretched":
        joining = np.flatnonzero(np.array(graph.arc_kind) == "stretched-joining")
        for arc, other in zip(joining[::13], joining[5::13]):
            point = _point_on(graph, arc, 0.3)
            ends = [(point, q) for q in nodes[::23]] + [(q, point) for q in nodes[::23]]
            ends += [(point, _point_on(graph, arc, t)) for t in (0.3, 0.7, 0.1)]
            ends += [(_point_on(graph, arc, 0.7), point), (point, _point_on(graph, other, 0.6))]
            for p, q in ends:
                _assert_same_geodesic(model, p, q)
            queries += len(ends)
    _assert_routes(routes, variant, queries)


@pytest.fixture(scope="module")
def level_seven():
    model = gl.build_model("stretched", 7, 0.2)
    return model, to_metric_graph(model)


def test_corridor_geodesics_match_heap_search_at_level_seven(level_seven, routes):
    model, graph = level_seven
    rng = np.random.default_rng(51)
    joining = np.flatnonzero(np.array(graph.arc_kind) == "stretched-joining")
    triangle = np.flatnonzero(np.array(graph.arc_kind) == "stretched-triangle")
    for a, b in rng.integers(0, graph.node_count, size=(300, 2)):
        _assert_same_geodesic(model, graph.nodes[a], graph.nodes[b])
    _assert_routes(routes, "stretched", 300)
    for pool in (joining, triangle):
        for _ in range(100):
            point = _point_on(graph, rng.choice(pool), rng.uniform(0.02, 0.98))
            vertex = graph.nodes[rng.integers(graph.node_count)]
            ends = (point, vertex) if rng.random() < 0.5 else (vertex, point)
            _assert_same_geodesic(model, *ends)
    for _ in range(100):                       # both ends on one joining arc
        arc = rng.choice(joining)
        s, t = rng.uniform(0.02, 0.98, size=2)
        _assert_same_geodesic(model, _point_on(graph, arc, s), _point_on(graph, arc, t))
    for _ in range(100):                       # ends on two joining arcs
        (a, b), (s, t) = rng.choice(joining, size=2, replace=False), rng.uniform(0.02, 0.98, 2)
        _assert_same_geodesic(model, _point_on(graph, a, s), _point_on(graph, b, t))


def test_sg_geodesics_match_heap_search_at_level_seven():
    # sg has many shortest paths of one length, so ties decide the path
    model = gl.build_model("sg", 7)
    graph = to_metric_graph(model)
    assert graph.corner_tables is not None
    rng = np.random.default_rng(54)
    for a, b in rng.integers(0, graph.node_count, size=(300, 2)):
        _assert_same_geodesic(model, graph.nodes[a], graph.nodes[b])


def test_geodesics_match_heap_search_at_level_nine():
    model = gl.build_model("stretched", 9, 0.2)
    graph = to_metric_graph(model)
    rng = np.random.default_rng(55)
    joining = np.flatnonzero(np.array(graph.arc_kind) == "stretched-joining")
    for a, b in rng.integers(0, graph.node_count, size=(4, 2)):
        _assert_same_geodesic(model, graph.nodes[a], graph.nodes[b])
    for arc in rng.choice(joining, size=2):
        vertex = graph.nodes[rng.integers(graph.node_count)]
        _assert_same_geodesic(model, _point_on(graph, arc, rng.uniform(0.02, 0.98)), vertex)


def _nearby(graph, node, steps, rng):
    """The end of a random walk of ``steps`` arcs from ``node``."""
    for _ in range(steps):
        row = _row(graph, node)
        node = row[rng.integers(len(row))][0]
    return node


def test_corridor_holds_little_more_than_the_path(level_seven):
    # the stretched gasket has one shortest path between most pairs, so a
    # corridor far larger than the path means pruning failed, and a silent
    # fallback to the full search would allow all 6,561 nodes
    model, graph = level_seven
    n = graph.node_count
    rng = np.random.default_rng(56)
    joining = np.flatnonzero(np.array(graph.arc_kind) == "stretched-joining")
    ends = []
    for a in rng.integers(0, n, size=100):
        b = rng.integers(n) if rng.random() < 0.5 else _nearby(graph, a, rng.integers(1, 8), rng)
        ends.append((graph.nodes[a], graph.nodes[b]))
    for arc in rng.choice(joining, size=60):
        point = _point_on(graph, arc, rng.uniform(0.02, 0.98))
        vertex = graph.nodes[_nearby(graph, graph.arc_u[arc], rng.integers(0, 8), rng)
                             if rng.random() < 0.5 else rng.integers(n)]
        ends.append((point, vertex) if rng.random() < 0.5 else (vertex, point))
    for p, q in ends:
        src, dst = _locate(graph, p, n), _locate(graph, q, n + 1)
        allowed = _allowed(graph, src, dst)
        assert len(allowed) - 2 <= 3 * len(gl.geodesic(model, p, q).path) + 16


def test_corridor_search_state_stays_in_the_corridor(level_seven, monkeypatch, routes):
    # a query folds its corridor or runs one heap search; the search keeps
    # dist and pred only on the corridor it may enter, and an endpoint
    # inside an arc overlays its arcs without touching any row.  Stretched
    # corridors nearly always fold, so sg ties supply the heap runs
    model, graph = level_seven
    rows = [_row(graph, u) for u in range(graph.node_count)]
    searches, real = [], metric._dijkstra

    def recorded(graph, source, extra=None, allowed=None):
        dist, pred = real(graph, source, extra, allowed)
        searches.append((set(dist), set(pred), allowed, graph.node_count))
        return dist, pred

    monkeypatch.setattr(metric, "_dijkstra", recorded)
    rng = np.random.default_rng(59)
    joining = np.flatnonzero(np.array(graph.arc_kind) == "stretched-joining")
    for a, b in rng.integers(0, graph.node_count, size=(20, 2)):
        gl.geodesic(model, graph.nodes[a], graph.nodes[b])
    for arc in rng.choice(joining, size=20):
        point = _point_on(graph, arc, rng.uniform(0.02, 0.98))
        gl.geodesic(model, point, graph.nodes[rng.integers(graph.node_count)])
        gl.geodesic(model, graph.nodes[rng.integers(graph.node_count)], point)
        gl.geodesic(model, point, _point_on(graph, arc, rng.uniform(0.02, 0.98)))
    assert routes["fold"] + len(searches) == 80
    sg = gl.build_model("sg", 5)
    sg_nodes = to_metric_graph(sg).nodes
    for a, b in rng.integers(0, len(sg_nodes), size=(40, 2)):
        gl.geodesic(sg, sg_nodes[a], sg_nodes[b])
    assert routes["fold"] + len(searches) == 120 and searches
    for reached, preceded, allowed, nodes in searches:
        assert reached <= allowed and preceded <= reached
        assert len(reached) <= len(allowed) < nodes
    assert graph.arc_rows is graph.arc_rows    # built once, not per query
    assert [_row(graph, u) for u in range(graph.node_count)] == rows


def test_a_folded_geodesic_builds_no_heap_rows():
    # the fold and the heap search both read the padded ``arc_rows``; no
    # per-node rows are built beside them (a fresh graph: one edge edited)
    base = gl.build_model("stretched", 5, 0.2)
    model = edited_model(base, _length_of(7, 1.25 * base.edges[7].length))
    graph = to_metric_graph(model)
    gl.geodesic(model, graph.nodes[3], graph.nodes[-40])
    cached = set(vars(graph))
    assert "arc_rows" in cached and not hasattr(graph, "neighbors")
    metric._dijkstra(graph, 3)                 # an unrestricted heap search
    assert set(vars(graph)) == cached
    _assert_same_geodesic(model, graph.nodes[3], graph.nodes[-40])


def test_edge_shorter_than_its_chord_keeps_the_search_exact(routes):
    base = gl.build_model("stretched", 3, 0.2)
    arc = 40
    model = edited_model(base, _length_of(arc, 0.5 * base.edges[arc].length))
    graph = to_metric_graph(model)
    chord = np.hypot(*(graph.nodes[graph.arc_v[arc]] - graph.nodes[graph.arc_u[arc]]))
    assert graph.arc_w[arc] == pytest.approx(0.5 * chord, rel=1e-9)
    assert graph.corner_tables is not None
    for p in graph.nodes:
        for q in graph.nodes[::4]:
            _assert_same_geodesic(model, p, q)
    joining = np.flatnonzero(np.array(graph.arc_kind) == "stretched-joining")
    for arc in joining[::3]:
        for q in graph.nodes[::9]:
            _assert_same_geodesic(model, _point_on(graph, arc, 0.3), q)
    queries = len(graph.nodes) * len(graph.nodes[::4]) + len(joining[::3]) * len(graph.nodes[::9])
    _assert_routes(routes, "stretched", queries)


def test_zero_length_arc_falls_back_to_the_heap_order(routes):
    # a zero-length side of a cell leaves its two corners at one distance,
    # so the third corner has two predecessors there, and which one the
    # heap settles first depends on the route, not on node ids; both lie
    # in the corridor, which the heap then pops in its own order.  No
    # corridor of such a graph is folded.  Ends inside joining arcs reach
    # the heap through the overlay: both on one arc (the direct piece),
    # or on two arcs
    base = gl.build_model("stretched", 2, 0.2)
    arc = next(i for i, e in enumerate(base.edges) if e.kind == "stretched-triangle")
    model = edited_model(base, _length_of(arc, 0.0))
    graph = to_metric_graph(model)
    assert graph.corner_tables is not None
    for p in graph.nodes:
        for q in graph.nodes:
            _assert_same_geodesic(model, p, q)
    joining = np.flatnonzero(np.array(graph.arc_kind) == "stretched-joining")
    ends = [(_point_on(graph, a, s), _point_on(graph, a, t))
            for a in joining for s, t in ((0.3, 0.7), (0.8, 0.1))]
    ends += [(_point_on(graph, a, 0.4), _point_on(graph, b, 0.6))
             for a in joining for b in joining if a != b]
    for p, q in ends:
        _assert_same_geodesic(model, p, q)
    assert routes == {"fold": 0, "heap": graph.node_count ** 2 + len(ends)}


def test_locate_matches_the_full_scan_near_arcs(level_seven):
    _, graph = level_seven
    n = graph.node_count
    rng = np.random.default_rng(52)
    for arc in rng.integers(0, len(graph.arc_w), size=200):
        u, v = graph.arc_u[arc], graph.arc_v[arc]
        along = graph.nodes[v] - graph.nodes[u]
        normal = np.array([-along[1], along[0]]) / np.hypot(*along)
        t = rng.choice([0.0, 1.0, rng.uniform(0, 1)])
        for off in (0.0, 0.5, 0.99, 1.01, 1.5):
            x = _point_on(graph, arc, t) + off * SNAP_TOL * rng.choice([-1, 1]) * normal
            try:
                ref = scan_locate(graph, x, n)
            except GasketError as exc:
                with pytest.raises(GasketError) as got:
                    _locate(graph, x, n)
                assert str(got.value) == str(exc)
                continue
            assert _locate(graph, x, n) == ref


def test_locate_breaks_ties_by_the_lower_arc_id():
    # a triangle-kind twin appended to a joining arc is as near to every
    # point of it: the joining arc, first in arc order, must win.  A model
    # with the twin is refused, so the twin goes into the graph's arrays
    model = gl.build_model("stretched", 2, 0.2)
    joining = model.edges[4]
    base = to_metric_graph(model)
    graph = dataclasses.replace(
        base, arc_u=np.append(base.arc_u, base.arc_u[4]),
        arc_v=np.append(base.arc_v, base.arc_v[4]), arc_w=np.append(base.arc_w, base.arc_w[4]),
        arc_kind=(*base.arc_kind, "stretched-triangle"))
    for t in (0.2, 0.5, 0.7):
        x = (1 - t) * np.array(joining.p) + t * np.array(joining.q)
        end = _locate(graph, x, graph.node_count)
        assert end.arc == 4 and end.snap_error == 0.0


def test_nearest_arc_is_the_scalar_scan_bit_for_bit(level_seven):
    # the vectorised filter and the cheaper scalar rescan against the plain
    # per-candidate scan with np.clip and np.linalg.norm; points on an arc and
    # near an arc's end, where other candidates come close to a tie
    _, graph = level_seven
    positive = graph.arc_boxes[1]
    rng = np.random.default_rng(53)
    for trial in range(300):
        cand = rng.choice(positive, size=rng.integers(1, 40), replace=False)
        if trial % 3:
            x = graph.nodes[graph.arc_u[cand[0]]] + rng.normal(scale=10.0 ** -rng.integers(3, 12),
                                                               size=2)
        else:
            x = _point_on(graph, rng.choice(cand), rng.uniform(0, 1))
        best = (math.inf, -1, 0.0)
        for idx in np.sort(cand).tolist():
            a = graph.nodes[graph.arc_u[idx]]
            d = graph.nodes[graph.arc_v[idx]] - a
            t = float(np.clip(np.dot(x - a, d) / np.dot(d, d), 0.0, 1.0))
            gap = float(np.linalg.norm(x - (a + t * d)))
            if gap < best[0]:
                best = (gap, idx, t)
        assert repr(_nearest_arc(graph, x, cand)) == repr(best)


def test_nearest_arc_keeps_a_scalar_tie_the_vectorised_gaps_split():
    # two arcs on one line at the same distance from x: the scalar formula
    # gives both the same gap, so the first arc wins, but the vectorised
    # projection puts arc 0 one ulp farther; only the filter's margin keeps
    # arc 0 for the rescan
    nodes = np.array([[0.8631789223498866, 0.5414612202490917],
                      [0.2997118905373848, 0.42268722119765845],
                      [1.022644711268293, 0.5750752356082608],
                      [0.45917767945579124, 0.4563012365568275]])
    graph = metric.MetricGraph(0, nodes, np.array([0, 2]), np.array([1, 3]),
                               np.ones(2), ("sg", "sg"))
    x = np.array([0.7296554464299441, 0.17565562060255901])
    ends, dirs = nodes[[0, 2]], nodes[[1, 3]] - nodes[[0, 2]]
    rel = x - ends
    ts = np.clip((rel * dirs).sum(axis=1) / (dirs * dirs).sum(axis=1), 0.0, 1.0)
    vectorised = np.hypot(*(rel - ts[:, None] * dirs).T)
    assert vectorised[0] > vectorised[1]
    scalar = [float(np.linalg.norm(x - (a + float(np.clip(np.dot(x - a, d) / np.dot(d, d),
                                                          0.0, 1.0)) * d)))
              for a, d in zip(ends, dirs)]
    assert scalar[0] == scalar[1]
    gap, arc, _ = _nearest_arc(graph, x, np.array([0, 1]))
    assert (gap, arc) == (scalar[0], 0)


def test_off_structure_message_is_unchanged(level_seven):
    model, graph = level_seven
    for point in ((0.5, 0.1), (0.5, 0.3), (2.0, 2.0), (-1e-3, 0.0),
                  tuple(_point_on(graph, 5, 0.5) + [0.0, 3 * SNAP_TOL])):
        with pytest.raises(GasketError) as ref:
            scan_locate(graph, point, graph.node_count)
        with pytest.raises(GasketError) as got:
            gl.geodesic(model, point, (0.0, 0.0))
        assert str(got.value) == str(ref.value)


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
    models = {level: gl.build_model("stretched", level, 0.2) for level in range(2, 6)}
    coarse = to_metric_graph(models[2])
    rng = np.random.default_rng(6)
    pairs = rng.integers(0, coarse.node_count, size=(8, 2))
    for a, b in pairs:
        base = gl.geodesic(models[2], coarse.nodes[a], coarse.nodes[b]).distance
        for level in (3, 4, 5):
            again = gl.geodesic(models[level], coarse.nodes[a], coarse.nodes[b])
            assert again.distance == pytest.approx(base, abs=1e-12)


def test_sg_bottom_edge_is_unit_at_every_level():
    for level in range(1, 6):
        res = gl.geodesic(gl.build_model("sg", level), (0.0, 0.0), (1.0, 0.0))
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


# -- distance fields from corner tables --------------------------------------

FIELD_RTOL = 1e-13
VARIANTS = [("sg", None), ("stretched", 0.05), ("stretched", 0.2), ("stretched", 0.3)]


def _assert_fields_match_heap(graph, sources):
    for s in sources:
        ref = np.array(heap_dijkstra(graph, int(s))[0])
        np.testing.assert_allclose(distance_field(graph, int(s)), ref,
                                   rtol=FIELD_RTOL, atol=0.0)


def _sources(graph, count=5, seed=0):
    """Every node of a small graph; else the first, the last and a few random ones."""
    if graph.node_count <= 3 * count:
        return range(graph.node_count)
    rng = np.random.default_rng(seed)
    return [0, graph.node_count - 1, *rng.integers(0, graph.node_count, size=count)]


def _rescaled_model(model, factor, prefix):
    """``model`` with every edge inside the cell addressed by ``prefix``
    declaring ``factor`` times its length."""
    def scale(columns):
        for i, word in enumerate(columns["word"]):
            if word.startswith(prefix):
                columns["length"][i] *= factor
    return edited_model(model, scale)


@pytest.mark.parametrize("level", range(7))
@pytest.mark.parametrize("variant,alpha", VARIANTS)
def test_table_fields_match_heap_dijkstra(variant, alpha, level):
    graph = to_metric_graph(gl.build_model(variant, level, alpha))
    assert graph.corner_tables is not None
    _assert_fields_match_heap(graph, _sources(graph, seed=level))


@pytest.mark.parametrize("variant,alpha", [("sg", None), ("stretched", 0.25)])
def test_table_fields_match_scipy_from_every_node(variant, alpha):
    graph = to_metric_graph(gl.build_model(variant, 3, alpha))
    for s in range(graph.node_count):
        np.testing.assert_allclose(distance_field(graph, s), _scipy_distances(graph, s),
                                   rtol=FIELD_RTOL, atol=0.0)


@pytest.mark.parametrize("kind", ["stretched-joining", "stretched-triangle"])
def test_table_fields_with_an_edge_at_half_its_chord(kind):
    base = gl.build_model("stretched", 4, 0.2)
    arcs = [i for i, e in enumerate(base.edges) if e.kind == kind]
    for arc in (arcs[0], arcs[len(arcs) // 2]):
        graph = to_metric_graph(edited_model(base, _length_of(arc, 0.5 * base.edges[arc].length)))
        assert graph.corner_tables is not None
        _assert_fields_match_heap(graph, _sources(graph, seed=arc))


@pytest.mark.parametrize("variant,alpha", [("sg", None), ("stretched", 0.2)])
def test_table_fields_route_around_a_heavy_cell(variant, alpha):
    # edges of cell 12 weigh 20 times their chord, so paths between its
    # corners leave the cell and even its parent: only the parents' global
    # corner distances, added top-down, see them
    model = _rescaled_model(gl.build_model(variant, 4, alpha), 20.0, "12")
    graph = to_metric_graph(model)
    assert graph.corner_tables is not None
    heavy = [i for i, e in enumerate(model.edges) if e.word.startswith("12")]
    _assert_fields_match_heap(graph, [0, *np.unique(graph.arc_u[heavy])[::3]])
    inside = np.unique(graph.arc_u[heavy])
    for a, b in np.random.default_rng(58).choice(inside, size=(40, 2)):
        _assert_same_geodesic(model, graph.nodes[a], graph.nodes[b])


def _swapped_edges(model, i, j):
    def swap(columns):
        for column in columns.values():
            if isinstance(column, list):
                column[i], column[j] = column[j], column[i]
            elif column is not None:
                column[[i, j]] = column[[j, i]]
    return edited_model(model, swap)


def _moved_endpoint(model, index, shift, end="p"):
    def move(columns):
        columns[end][index, 0] += shift
    return edited_model(model, move)


def _relabeled(model, index, kind):
    def relabel(columns):
        columns["kind"][index] = kind
    return edited_model(model, relabel)


def _padded(model):
    """``model`` with a zero-length stub edge at its first node appended."""
    node = tuple(to_metric_graph(model).nodes[0].tolist())
    stub = EdgeCurve(len(model.edges), model.edges.kind[-1], model.level, node, node, 0.0, "")
    return GasketModel(model.variant, model.alpha, model.level,
                       rows_table((*model.edges, stub)))


@pytest.mark.parametrize("variant,alpha", [("sg", None), ("stretched", 0.2)])
def test_off_layout_models_are_refused(variant, alpha):
    # a model is its build: reordered, traded or moved edges, an extra edge,
    # and a negative or NaN length are refused, not searched another way
    base = gl.build_model(variant, 3, alpha)
    joins = sum(e.kind == "stretched-joining" for e in base.edges)
    broken = [_swapped_edges(base, joins, joins + 1),      # a cell's triangle reordered
              _swapped_edges(base, joins + 2, joins + 5),  # two cells' sides traded
              _moved_endpoint(base, joins + 4, 1e-3),      # a corner split in two
              _moved_endpoint(base, joins + 6, 1e-15, "q"),  # an end moved by 1e-15
              _relabeled(base, joins + 3, "stretched-joining"),  # a side called a join
              _padded(base)]                               # a zero-length stub added
    if joins:
        broken.append(_swapped_edges(base, 3, 5))          # two joining labels traded
        broken.append(_swapped_edges(base, 0, joins))      # a joining and a triangle edge traded
    for model in broken:
        with pytest.raises(GasketError, match="edges"):
            to_metric_graph(model)
        with pytest.raises(GasketError):
            gl.geodesic(model, (0.0, 0.0), (1.0, 0.0))
        with pytest.raises(GasketError):
            gl.lipschitz_witness_check(model, 0)
    for length in (-1e-300, math.nan):
        with pytest.raises(GasketError, match="edge lengths must be non-negative"):
            to_metric_graph(edited_model(base, _length_of(joins + 7, length)))
    assert to_metric_graph(edited_model(base, _length_of(joins + 7, 0.0))).corner_tables


@pytest.mark.parametrize("variant,alpha", VARIANTS + [("stretched", 1e-9), ("stretched", 3e-12)])
def test_built_graphs_are_connected(variant, alpha):
    for level in range(7):
        graph = to_metric_graph(gl.build_model(variant, level, alpha))
        n = graph.node_count
        arcs = csr_matrix((np.ones(len(graph.arc_u)), (graph.arc_u, graph.arc_v)), shape=(n, n))
        assert connected_components(arcs, directed=False)[0] == 1


@pytest.mark.parametrize("alpha,level", [(3e-12, 5), (1e-13, 3)])
def test_tiny_alpha_keeps_every_mesh_vertex(alpha, level):
    # joining arcs shorter than 1e-12: rounding the edge endpoints merged
    # their ends, and (0, 0) -> (1, 0) read 0.99999999999550004 and
    # 0.9999999999996998, below the Euclidean bound of 1
    model = gl.build_model("stretched", level, alpha)
    graph = to_metric_graph(model)
    assert graph.node_count == 3 ** (level + 1)
    assert graph.corner_tables is not None
    res = gl.geodesic(model, (0.0, 0.0), (1.0, 0.0))
    source, target = _node_id(graph, (0.0, 0.0)), _node_id(graph, (1.0, 0.0))
    assert res.path[0] == source and res.path[-1] == target
    assert res.distance == _scipy_distances(graph, source)[target] == 1.0


def test_zero_length_joining_arcs_match_the_heap_reference():
    # at alpha = 5e-324 every joining arc has length exactly 0 and its two
    # ends the same coordinates: they stay two nodes, and geodesics and
    # witness checks agree with the heap references
    model = gl.build_model("stretched", 3, 5e-324)
    graph = to_metric_graph(model)
    joining = np.array(graph.arc_kind) == "stretched-joining"
    assert graph.node_count == 81 and not graph.arc_w[joining].any()
    assert (graph.arc_u != graph.arc_v).all()
    for p in graph.nodes[::3]:
        for q in graph.nodes[::2]:
            _assert_same_geodesic(model, p, q)
    for q in range(0, graph.node_count, 5):
        got = gl.lipschitz_witness_check(model, q, seed=q)
        ref = _heap_witness(model, q, q)
        assert got.ok
        assert got == dataclasses.replace(ref, max_arc_violation=got.max_arc_violation)


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
    field, pred = _full_run(graph, q)
    targets = np.random.default_rng(24).integers(0, graph.node_count, size=20)
    assert _chains_attain(graph, field, pred, q, targets)
    bad = field.copy()
    t = int(targets[targets != q][0])
    bad[t] *= 1 + 1e-9
    assert not _chains_attain(graph, bad, pred, q, targets)
    assert not _chains_attain(graph, field - field[t], pred, q, targets)   # h(q) != 0


def test_chain_check_rejects_a_step_that_is_not_an_arc():
    # every sg arc weighs the same, so only the arc lookup can tell a
    # jump between non-neighbours from a real step
    graph = to_metric_graph(gl.build_model("sg", 2))
    q = 0
    near = {v for v, _ in _row(graph, q)}
    for t in range(1, graph.node_count):
        if t in near:
            continue
        pred = [-1] * graph.node_count
        pred[t] = q
        field = np.zeros(graph.node_count)
        field[t] = graph.arc_w[0]
        assert not _chains_attain(graph, field, pred, q, [t])


def test_chain_check_sees_a_wrong_weight_on_a_shared_chain():
    # the nearer target's walk sums the shared part of the chain; the
    # farther target's walk stops there and must still carry its weights
    base = gl.build_model("stretched", 3, 0.2)
    graph = to_metric_graph(base)
    q = 5
    field, pred = _full_run(graph, q)
    far = int(np.argmax(field))
    chain = _path_of(pred, q, far)
    near = chain[len(chain) // 2]
    arc = next(i for i, a in enumerate(graph.arcs) if set(a[:2]) == {chain[1], chain[2]})
    wrong = to_metric_graph(edited_model(base, _length_of(arc, 1.5 * base.edges[arc].length)))
    assert _chains_attain(graph, field, pred, q, [near, far])
    # a field that agrees with the wrong weight at the nearer target
    weight = {frozenset(a[:2]): a[2] for a in wrong.arcs}
    shifted = field.copy()
    shifted[near] = 0.0
    for u, v in zip(chain, chain[1:chain.index(near) + 1]):
        shifted[near] += weight[frozenset((u, v))]
    assert _chains_attain(wrong, shifted, pred, q, [near])
    assert not _chains_attain(wrong, shifted, pred, q, [near, far])
    assert not _chains_attain(wrong, shifted, pred, q, [far, near])


@pytest.mark.parametrize("variant,alpha,zero", [
    ("sg", None, None), ("stretched", 0.2, None),
    ("stretched", 0.2, "stretched-triangle"), ("stretched", 0.2, "stretched-joining")])
def test_chain_lengths_are_the_dict_fold_bit_for_bit(variant, alpha, zero):
    # the heap sets dist[v] = dist[pred v] + w, the fold node by node from q
    # that the chain check's dict walk did before its cumsum: with rtol 0
    # its chains attain those distances, and one ulp off fails
    model = gl.build_model(variant, 5, alpha)
    graph = to_metric_graph(edited_model(model, _length_of(model.edges.kind.index(zero), 0.0))
                            if zero else model)
    rng = np.random.default_rng(67)
    for q in rng.integers(0, graph.node_count, size=10).tolist():
        dist, pred = heap_dijkstra(graph, q)
        field = np.array(dist)
        targets = rng.integers(0, graph.node_count, size=40).tolist() + [q]
        assert _chains_attain(graph, field, pred, q, targets, rtol=0.0)
        field[targets[0]] = np.nextafter(field[targets[0]], math.inf)
        assert not _chains_attain(graph, field, pred, q, targets, rtol=0.0)


def test_witness_attained_all_fails_for_wrong_field(monkeypatch):
    # a field that is 1-Lipschitz but not d(., q) must not be reported attained
    model = gl.build_model("stretched", 3, 0.2)
    real = gl.metric.distance_field

    def halved(*args, **kwargs):
        return real(*args, **kwargs) / 2

    monkeypatch.setattr(gl.metric, "distance_field", halved)
    report = gl.lipschitz_witness_check(model, 0)
    assert report.lipschitz_ok
    assert not report.attained_all and not report.ok


def _heap_witness(model, q, seed):
    """The witness report as the full heap Dijkstra's field and
    predecessors give it."""
    graph = to_metric_graph(model)
    dist, pred = heap_dijkstra(graph, q)
    field = np.array(dist)
    slacks = arc_slacks(graph, field)
    targets = np.random.default_rng(seed).integers(0, graph.node_count, size=20)
    return metric.WitnessReport(
        target=q, level=graph.level, arcs_checked=len(graph.arc_w),
        max_arc_violation=float(slacks.max()),
        lipschitz_ok=bool((slacks <= 1e-12).all()), targets_checked=20,
        attained_all=_chains_attain(graph, field, pred, q, targets))


@pytest.mark.parametrize("variant,alpha", [("sg", None), ("stretched", 0.2)])
def test_witness_reports_match_the_heap_witness(variant, alpha):
    model = gl.build_model(variant, 6, alpha)
    graph = to_metric_graph(model)
    rng = np.random.default_rng(61)
    for q, seed in rng.integers(0, graph.node_count, size=(20, 2)):
        got = gl.lipschitz_witness_check(model, int(q), seed=int(seed))
        ref = _heap_witness(model, int(q), int(seed))
        assert got.ok
        assert abs(got.max_arc_violation - ref.max_arc_violation) <= 1e-15
        assert got == dataclasses.replace(ref, max_arc_violation=got.max_arc_violation)


@pytest.mark.parametrize("kind", ["stretched-joining", "stretched-triangle"])
def test_witness_with_a_zero_length_arc_matches_the_heap_witness(kind):
    base = gl.build_model("stretched", 3, 0.2)
    arc = next(i for i, e in enumerate(base.edges) if e.kind == kind)
    model = edited_model(base, _length_of(arc, 0.0))
    for q in range(0, to_metric_graph(model).node_count, 9):
        got = gl.lipschitz_witness_check(model, q, seed=q)
        ref = _heap_witness(model, q, q)
        assert got.ok
        assert abs(got.max_arc_violation - ref.max_arc_violation) <= 1e-15
        assert got == dataclasses.replace(ref, max_arc_violation=got.max_arc_violation)


def reduceat_predecessors(graph, field):
    """``_tight_predecessors`` as one ``np.minimum.reduceat`` over both
    directions of every arc sorted into runs by tail, head and weight, as
    it ran before the padded ``arc_rows``; kept as its reference."""
    tail = np.concatenate([graph.arc_u, graph.arc_v])
    head = np.concatenate([graph.arc_v, graph.arc_u])
    weight = np.concatenate([graph.arc_w, graph.arc_w])
    order = np.lexsort((weight, head, tail))
    tail, head, weight = tail[order], head[order], weight[order]
    starts = np.flatnonzero(np.diff(tail, prepend=-1))
    cost = field[head] + weight
    tight = np.flatnonzero(cost == np.minimum.reduceat(cost, starts)[tail])
    return head[tight[np.diff(tail[tight], prepend=-1) != 0]]


@pytest.mark.parametrize("variant,alpha", VARIANTS)
def test_tight_predecessors_match_the_reduceat_reference(variant, alpha):
    graph = to_metric_graph(gl.build_model(variant, 5, alpha))
    for q in _sources(graph, seed=63):
        field = distance_field(graph, int(q))
        np.testing.assert_array_equal(metric._tight_predecessors(graph, field),
                                      reduceat_predecessors(graph, field))


def test_tight_predecessors_break_an_exact_tie_by_the_smaller_head():
    # raise the weight of the arc from v's tight predecessor b until a
    # smaller neighbour a ties with b exactly on field + weight: a must win
    base = gl.build_model("stretched", 3, 0.2)
    graph, q = to_metric_graph(base), 17
    heads = graph.arc_rows[0]
    field = distance_field(graph, q)
    pred = metric._tight_predecessors(graph, field)
    arc = {frozenset(ends): i for i, ends in enumerate(zip(graph.arc_u.tolist(),
                                                           graph.arc_v.tolist()))}
    for v in range(graph.node_count):
        b = int(pred[v])
        for a in heads[v][(0 <= heads[v]) & (heads[v] < b)].tolist():
            va, vb = arc[frozenset((v, a))], arc[frozenset((v, b))]
            weight = field[a] + graph.arc_w[va] - field[b]
            edited = to_metric_graph(edited_model(base, _length_of(vb, float(weight))))
            tied = distance_field(edited, q)
            cost = tied[heads[v]] + edited.arc_rows[1][v]
            if v != q and tied[a] + edited.arc_w[va] == tied[b] + edited.arc_w[vb] == cost.min():
                got = metric._tight_predecessors(edited, tied)
                np.testing.assert_array_equal(got, reduceat_predecessors(edited, tied))
                assert got[v] == a
                return
    pytest.fail("no neighbour pair could be made to tie exactly")


def test_witness_target_validation():
    model = gl.build_model("stretched", 1, 0.2)
    with pytest.raises(GasketError):
        gl.lipschitz_witness_check(model, 99)


def test_node_ids_must_be_integers():
    # a float id passed the range check, and the witness check then died
    # with an IndexError
    model = gl.build_model("stretched", 3, 0.2)
    with pytest.raises(GasketError, match="witness target 0.0 is not a node id"):
        gl.lipschitz_witness_check(model, 0.0)
    graph = to_metric_graph(model)
    for source in (0.0, -1, graph.node_count):
        with pytest.raises(GasketError, match="is not a node id"):
            distance_field(graph, source)
    assert distance_field(graph, np.int64(0))[0] == 0.0
