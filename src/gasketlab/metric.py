"""Geodesics on the metric graphs of the gasket approximations.

At a fixed level the structure is a finite weighted graph: the
finest-level triangle edges plus (stretched variant) every joining
segment, with weights equal to segment lengths.  Shortest paths between
vertices use whole edges, so distances between level-m vertices are
stable under further refinement, and the graph distance realizes the
geodesic (equivalently, spectral) distance at graph resolution.

Query points that are not graph nodes are handled per the structure of
minimal paths: interior points of joining segments split the segment
exactly; interior points of finest triangle edges are snapped to the
nearest node and the finest edge length is reported as the error bar.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from gasketlab.geometry import GasketError, GasketModel, _endpoint_nodes, build_model

SNAP_TOL = 1e-9
# a goal-directed search pops keys up to dist[target] times this, so every
# path within rounding of the optimum is explored
_KEY_SLACK = 1.0 + 1e-9


@dataclass(frozen=True)
class MetricGraph:
    """Immutable weighted graph held in arrays.

    ``nodes`` are sorted lexicographically by coordinates.  Arc i joins
    ``arc_u[i]`` and ``arc_v[i]`` with weight ``arc_w[i]`` and kind
    ``arc_kind[i]``, in model edge order.  ``neighbors[u]`` holds the
    (neighbour, weight) pairs of node u sorted by neighbour, then weight,
    which fixes Dijkstra's tie-breaking; the shortest-path loops iterate
    these tuples faster than index arrays.  The cached properties below
    (the ``arcs`` tuple view, coordinate lists, arc boxes, heuristic
    scale, arc runs and keys, and the cells' corner tables) are built on
    first use, so assembly pays for none of them.  A geodesic query
    locates an endpoint by bisecting the sorted x coordinates, or by
    projecting onto the few arcs whose box holds it, then searches toward
    the target only.  A witness check reads its distance field off the
    corner tables, takes each node's tight predecessor in one array pass
    and looks up its chains' arcs in one sorted pass.
    """

    level: int
    nodes: np.ndarray
    arc_u: np.ndarray
    arc_v: np.ndarray
    arc_w: np.ndarray
    arc_kind: tuple[str, ...]
    neighbors: tuple[tuple[tuple[int, float], ...], ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def arcs(self) -> tuple[tuple[int, int, float, str], ...]:
        """(u, v, weight, kind) per arc."""
        return tuple(zip(self.arc_u.tolist(), self.arc_v.tolist(),
                         self.arc_w.tolist(), self.arc_kind))

    @cached_property
    def coords(self) -> tuple[list[float], list[float]]:
        """Node x and y coordinates as lists; x is sorted."""
        return self.nodes[:, 0].tolist(), self.nodes[:, 1].tolist()

    @cached_property
    def arc_boxes(self) -> np.ndarray:
        """(4, arcs) x-min, x-max, y-min, y-max of each arc, grown by
        2 SNAP_TOL; NaN for a zero-length arc, which projects nowhere."""
        p, q = self.nodes[self.arc_u], self.nodes[self.arc_v]
        lo = np.minimum(p, q) - 2 * SNAP_TOL
        hi = np.maximum(p, q) + 2 * SNAP_TOL
        boxes = np.stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]])
        boxes[:, (p == q).all(axis=1)] = np.nan
        return boxes

    @cached_property
    def heuristic_scale(self) -> float:
        """lambda = min(1, weight / chord over arcs of positive chord).

        Every path is then at least lambda times the straight line between
        its ends, so lambda |x_v - x_t| never overestimates d(v, t), even
        on a model that declares an edge shorter than its chord.
        """
        chords = np.hypot(*(self.nodes[self.arc_v] - self.nodes[self.arc_u]).T)
        spans = chords > 0
        return float(np.min(self.arc_w[spans] / chords[spans], initial=1.0))

    @cached_property
    def arc_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Both directions of every arc as (tail, head, weight) arrays sorted
        by tail, head, then weight, and the index where each tail's run
        starts.  Arcs are undirected, so the run of v also lists the arcs
        into v."""
        tail, head, weight = _directed_arcs(self.arc_u, self.arc_v, self.arc_w)
        return tail, head, weight, np.flatnonzero(np.diff(tail, prepend=-1))

    @cached_property
    def arc_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted keys tail * n + head of both directions of every arc, and
        their weights; the lightest of parallel arcs comes first."""
        tail, head, weight, _ = self.arc_runs
        return tail * self.node_count + head, weight

    @cached_property
    def corner_tables(self) -> Optional[_CornerTables]:
        """Exact corner distances of every cell, or None when the arcs do
        not follow the layout ``build_model`` gives sg and stretched models."""
        return _corner_tables(self)


def _directed_arcs(arc_u, arc_v, arc_w):
    """Both directions of every arc, sorted by tail, head, then weight."""
    tail = np.concatenate([arc_u, arc_v])
    head = np.concatenate([arc_v, arc_u])
    weight = np.concatenate([arc_w, arc_w])
    order = np.lexsort((weight, head, tail))
    return tail[order], head[order], weight[order]


def _is_connected(n: int, u: np.ndarray, v: np.ndarray) -> bool:
    """Connectivity by label hooking and pointer jumping.

    Each round hooks the larger root of every arc whose ends disagree onto
    the smaller, then compresses labels to roots; every round removes a
    root, so the loop ends.  Node ids sorted by coordinates make gasket
    graphs settle in one round of about L pointer jumps.
    """
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        split = lu != lv
        if not split.any():
            return bool((label == label[0]).all())
        np.minimum.at(label, np.maximum(lu, lv)[split], np.minimum(lu, lv)[split])
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def _assemble_graph(model: GasketModel) -> MetricGraph:
    nodes, inverse = _endpoint_nodes(model)
    m = len(model.edges)
    n = len(nodes)
    arc_u, arc_v = inverse[:m], inverse[m:]
    arc_w = np.fromiter((e.length for e in model.edges), float, m)
    arc_kind = tuple(e.kind for e in model.edges)
    # connectivity guard: a correct construction is always connected
    if not _is_connected(n, arc_u, arc_v):
        raise GasketError("metric graph is disconnected (construction bug)")
    tail, head, weight = _directed_arcs(arc_u, arc_v, arc_w)
    pairs = list(zip(head.tolist(), weight.tolist()))
    ends = np.cumsum(np.bincount(tail, minlength=n)).tolist()
    neighbors = tuple(tuple(pairs[a:b]) for a, b in zip([0] + ends, ends))
    for arr in (nodes, arc_u, arc_v, arc_w):
        arr.flags.writeable = False
    return MetricGraph(model.level, nodes, arc_u, arc_v, arc_w, arc_kind,
                       neighbors)


@lru_cache(maxsize=16)
def _graph_of_model(model: GasketModel) -> MetricGraph:
    return _assemble_graph(model)


def to_metric_graph(model: GasketModel, level: Optional[int] = None) -> MetricGraph:
    """Metric graph of a built model, optionally at a coarser level."""
    if model.variant == "harmonic":
        raise GasketError("geodesics on the harmonic gasket are out of scope")
    if level is None or level == model.level:
        return _graph_of_model(model)
    if level > model.level:
        raise GasketError(f"level {level} exceeds model level {model.level}")
    return _graph_of_model(build_model(model.variant, level, model.alpha))


def _dijkstra(graph: MetricGraph, source: int,
              extra: Optional[dict[int, list[tuple[int, float]]]] = None,
              target: Optional[int] = None,
              goal: Optional[tuple[float, float]] = None):
    """Shortest paths from ``source`` over the sorted ``neighbors`` rows,
    each followed by the node's ``extra`` overlay arcs.

    Without ``target``: a binary-heap Dijkstra keyed by (distance, node),
    run to exhaustion, so ties break by smaller node id and paths are
    deterministic.  It takes O((n + m) log n) interpreted steps, 25-40 ms
    on the level-8 stretched graph (19,683 nodes) on a 2-vCPU x86 VM, so
    it serves only where a zero-length arc or an arc off
    ``build_model``'s layout rules out the faster routes: a geodesic
    whose chain ties, the witness chains of such a graph, and
    ``distance_field`` off the layout.

    With ``target``: a goal-directed (A*) search keyed by
    g + lambda |x_v - goal|, ``goal`` being the target's coordinates
    (its projected point for a virtual node).  It pops keys up to
    dist[target] (1 + 1e-9), so it settles roughly the nodes of an
    ellipse around the shortest paths rather than every node nearer the
    source than the target.  dist is exact on the target and on every node of
    the paths within rounding of its distance; other entries may be
    partial.  pred then holds the target's chain only, the one the
    (distance, node) heap would pick (``_chain``).

    Returns the ``(dist, pred)`` lists.
    """
    rows = graph.neighbors
    if extra:
        rows = list(rows) + [()] * (max(extra) + 1 - len(rows))
        for u, arcs in extra.items():
            rows[u] = rows[u] + tuple(arcs)
    dist = [math.inf] * len(rows)
    dist[source] = 0.0
    pop, push = heapq.heappop, heapq.heappush
    if target is None:
        pred = [-1] * len(rows)
        heap = [(0.0, source)]
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue
            for v, w in rows[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    pred[v] = u
                    push(heap, (nd, v))
        return dist, pred

    xs, ys = graph.coords
    gx, gy = goal if goal is not None else (xs[target], ys[target])
    scale, hypot, n = graph.heuristic_scale, math.hypot, graph.node_count
    heap = [(0.0, source, 0.0)]
    while heap:
        key, u, d = pop(heap)
        if key > dist[target] * _KEY_SLACK:
            break
        if d > dist[u] or u == target:
            continue
        for v, w in rows[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                # a virtual node is pushed only as the target, where h = 0
                h = scale * hypot(xs[v] - gx, ys[v] - gy) if v < n else 0.0
                push(heap, (nd + h, v, nd))
    pred = _chain(rows, dist, source, target)
    if pred is None:
        return _dijkstra(graph, source, extra)
    return dist, pred


def _chain(rows, dist, source: int, target: int) -> Optional[list[int]]:
    """The target's predecessor chain as the (distance, node) heap sets it.

    That heap settles nodes in (distance, id) order, and a node's
    predecessor is the first settled neighbour u with
    dist[u] + w == dist[v]: the one with the smallest (dist[u], u).  The
    walk back from the target takes it at every step.  The order holds
    only while each step strictly lowers the distance; an arc too light
    to do so (a zero-length edge) returns None, and the caller falls back
    to the heap's own predecessors.
    """
    pred = [-1] * len(rows)
    v = target
    while v != source:
        dv = dist[v]
        best = (dv, -1)
        for u, w in rows[v]:
            du = dist[u]
            if du + w == dv and (du, u) < best:
                best = (du, u)
        if best[0] >= dv:
            return None
        pred[v] = best[1]
        v = best[1]
    return pred


# The nine nodes of a cell are its children's corners, child-major: node
# 3c + j is corner j of child c.  Child j keeps corner j of its parent, so
# the cell's own corner j is node 4j.
_OWN = np.array([0, 4, 8])
# the right, bottom and left joining segments of a stretched cell
# (geometry._refine_stretched) as pairs of nine-node ids; on sg each pair
# is one shared midpoint
_JOINS = np.array([[5, 7], [2, 6], [1, 3]])


def _close(table: np.ndarray, via) -> None:
    """Floyd-Warshall in place over the intermediate nodes ``via``, for a
    stack of distance tables indexed by the first axis."""
    for k in via:
        np.minimum(table, table[:, :, k, None] + table[:, None, k, :], out=table)


@dataclass(frozen=True)
class _CornerTables:
    """Graph distances between the corners of every cell of a level-L graph.

    ``corners[r, j]`` is the node at corner j of level-L cell r (mesh row
    order), ``leaf[r]`` the 3x3 distances between those corners, and
    ``nine[k][r]`` the 9x9 distances between the nine nodes of level-k
    cell r, for k < L.  The gasket is finitely ramified, so a path between
    a cell and the rest of the graph passes through one of the cell's
    corners; distances from one node therefore follow from these tables
    in one min-plus step per cell.
    """

    corners: np.ndarray
    leaf: np.ndarray
    nine: tuple[np.ndarray, ...]

    def field(self, source: int, node_count: int) -> np.ndarray:
        cell, corner = divmod(int(np.argmax(self.corners.ravel() == source)), 3)
        level = len(self.nine)
        # up the source's address: distances to the nine nodes of each
        # ancestor, from the distances to the corners of its child that
        # holds the source
        near = self.leaf[cell, corner]
        ups = []
        for k in reversed(range(level)):
            parent, child = divmod(cell // 3 ** (level - 1 - k), 3)
            up = (near[:, None] + self.nine[k][parent, 3 * child:3 * child + 3]).min(axis=0)
            ups.append((parent, up))
            near = up[_OWN]
        # down every level: a cell without the source reaches its children's
        # corners through its own corners
        values = near[None, :]
        for (parent, up), table in zip(reversed(ups), self.nine):
            values = (values[:, :, None] + table[:, _OWN, :]).min(axis=1)
            values[parent] = up
            values = values.reshape(-1, 3)
        field = np.empty(node_count)
        field[self.corners] = values
        return field


def _corner_tables(graph: MetricGraph) -> Optional[_CornerTables]:
    """Corner tables of a graph whose arcs follow ``build_model``'s layout.

    The layout is checked in full: arc kinds and counts, each level-L
    cell's triangle closing on its three corners, each joining arc (or, on
    sg, each shared midpoint) on the corners it joins, and a node count
    that leaves no further coincidences.  Otherwise, or with a negative or
    NaN weight, returns None.  The tables take their weights from the
    arcs, so they stay exact for any non-negative lengths.

    Bottom-up, each cell's inside table is the min-plus closure of its
    children's tables and its three joining arcs (zero-weight
    identifications on sg).  Top-down, the parent's global corner
    distances join each cell's table as outside arcs, and closing over the
    three corners makes it global.
    """
    level, weights = graph.level, graph.arc_w
    triangles = 3 ** (level + 1)
    joins = len(weights) - triangles
    if graph.arc_kind == ("sg-triangle",) * triangles:
        nodes = (triangles + 3) // 2
    elif graph.arc_kind == (("stretched-joining",) * ((triangles - 3) // 2)
                            + ("stretched-triangle",) * triangles):
        nodes = triangles
    else:
        return None
    if graph.node_count != nodes or not (weights >= 0).all():
        return None
    # triangle arcs of each cell run corner 1 -> 3 -> 2 -> 1
    tail = graph.arc_u[joins:].reshape(-1, 3)
    if not np.array_equal(graph.arc_v[joins:].reshape(-1, 3), tail[:, [1, 2, 0]]):
        return None
    corners = tail[:, [0, 2, 1]]
    sides = weights[joins:].reshape(-1, 3)
    inside = np.zeros((len(tail), 3, 3))
    inside[:, [0, 2, 1], [2, 1, 0]] = inside[:, [2, 1, 0], [0, 2, 1]] = sides
    _close(inside, range(3))

    nine = []
    ends = corners                     # corner nodes of the level-(k+1) cells
    for k in reversed(range(level)):
        cells = 3 ** k
        ids = ends.reshape(cells, 9)
        a, b = ids[:, _JOINS[:, 0]], ids[:, _JOINS[:, 1]]
        if joins:
            first = 3 * (cells - 1) // 2       # generation k's first joining arc
            arcs = slice(first, first + 3 * cells)
            if not (np.array_equal(graph.arc_u[arcs].reshape(cells, 3), a)
                    and np.array_equal(graph.arc_v[arcs].reshape(cells, 3), b)):
                return None
            bridge = weights[arcs].reshape(cells, 3)
        elif np.array_equal(a, b):
            bridge = np.zeros((cells, 3))
        else:
            return None
        table = np.full((cells, 9, 9), np.inf)
        blocks = table.reshape(cells, 3, 3, 3, 3)
        children = inside.reshape(cells, 3, 3, 3)
        for c in range(3):
            blocks[:, c, :, c, :] = children[:, c]
        table[:, _JOINS[:, 0], _JOINS[:, 1]] = table[:, _JOINS[:, 1], _JOINS[:, 0]] = bridge
        _close(table, range(9))
        nine.append(table)
        inside = table[:, _OWN[:, None], _OWN]
        ends = np.diagonal(ends.reshape(cells, 3, 3), axis1=1, axis2=2)
    nine.reverse()

    outside = inside                   # the root's inside distances are global
    for k, table in enumerate(nine):
        table[:, _OWN[:, None], _OWN] = outside
        _close(table, _OWN)
        blocks = np.diagonal(table.reshape(3 ** k, 3, 3, 3, 3), axis1=1, axis2=3)
        outside = blocks.transpose(0, 3, 1, 2).reshape(-1, 3, 3)
    for arr in (corners, outside, *nine):
        arr.flags.writeable = False
    return _CornerTables(corners, outside, tuple(nine))


def distance_field(graph: MetricGraph, source: int) -> np.ndarray:
    """Graph distance from one node to every node.

    On a graph in ``build_model``'s layout this is one numpy pass over the
    graph's ``corner_tables`` (built once per graph, on first use): up the
    source's cell address, then one min-plus step per level for all cells.
    It takes O(N) array work, about 1 ms on the level-8 stretched graph
    (19,683 nodes) on a 2-vCPU x86 VM after the tables' one-off 15-20 ms,
    and agrees with the heap Dijkstra to a few ulps.  Any other graph
    runs the exhaustive ``_dijkstra``.
    """
    if not 0 <= source < graph.node_count:
        raise GasketError(f"source {source} is not a node id")
    tables = graph.corner_tables
    if tables is None:
        return np.array(_dijkstra(graph, source)[0])
    return tables.field(source, graph.node_count)


def arc_slacks(graph: MetricGraph, values: np.ndarray) -> np.ndarray:
    """Per-arc |f(u) - f(v)| - weight; nonpositive iff f is edgewise 1-Lipschitz."""
    values = np.asarray(values, dtype=float)
    return np.abs(values[graph.arc_u] - values[graph.arc_v]) - graph.arc_w


@dataclass(frozen=True)
class _Endpoint:
    node: int                      # node id (possibly virtual)
    snap_error: float              # error-bar contribution
    arc: Optional[int] = None      # split arc index, when interior to a joining edge
    extra: tuple = ()              # overlay arcs (v, w) for a virtual node
    point: tuple = ()              # coordinates of ``node``; a virtual node's lie on its arc


def _nearest_arc(graph: MetricGraph, x: np.ndarray, candidates) -> tuple[float, int, float]:
    """(gap, arc, t) of the first candidate arc nearest to x, t being the
    clipped projection parameter; a zero-length arc projects to NaN and
    never wins."""
    best = (math.inf, -1, 0.0)
    for idx in candidates:
        a = graph.nodes[graph.arc_u[idx]]
        d = graph.nodes[graph.arc_v[idx]] - a
        t = float(np.clip(np.dot(x - a, d) / np.dot(d, d), 0.0, 1.0))
        gap = float(np.linalg.norm(x - (a + t * d)))
        if gap < best[0]:
            best = (gap, idx, t)
    return best


def _locate(graph: MetricGraph, point, virtual_id: int) -> _Endpoint:
    x = np.asarray(point, dtype=float)
    if x.shape != (2,):
        raise GasketError(f"query point must be 2-d, got {point}")
    # nodes are sorted by x: only those within 2 SNAP_TOL in x can snap
    xs = graph.coords[0]
    lo = bisect_left(xs, float(x[0]) - 2 * SNAP_TOL)
    hi = bisect_right(xs, float(x[0]) + 2 * SNAP_TOL)
    if lo < hi:
        gaps = np.linalg.norm(graph.nodes[lo:hi] - x, axis=1)
        nearest = int(np.argmin(gaps))
        if gaps[nearest] <= SNAP_TOL:
            node = lo + nearest
            return _Endpoint(node, 0.0, point=tuple(graph.nodes[node].tolist()))

    # only an arc whose grown box holds x can lie within SNAP_TOL of it
    box = graph.arc_boxes
    inside = np.flatnonzero((box[0] <= x[0]) & (x[0] <= box[1])
                            & (box[2] <= x[1]) & (x[1] <= box[3]))
    gap, idx, t = _nearest_arc(graph, x, inside.tolist())
    if gap > SNAP_TOL:
        # off the structure: find the nearest arc over all of them for the
        # message, projecting in one pass and rescanning those within
        # rounding of the best gap
        ends = graph.nodes[graph.arc_u]
        dirs = graph.nodes[graph.arc_v] - ends
        with np.errstate(invalid="ignore", divide="ignore"):
            ts = np.clip(np.einsum("ij,ij->i", x - ends, dirs)
                         / np.einsum("ij,ij->i", dirs, dirs), 0.0, 1.0)
        gaps = np.hypot(*(x - (ends + ts[:, None] * dirs)).T)
        near = np.flatnonzero(gaps <= np.fmin.reduce(gaps) + 1e-12)
        gap = _nearest_arc(graph, x, near.tolist())[0]
        raise GasketError(
            f"point {tuple(x)} is not on the structure "
            f"(distance {gap:.3e} > {SNAP_TOL})"
        )
    u, v = int(graph.arc_u[idx]), int(graph.arc_v[idx])
    w, kind = float(graph.arc_w[idx]), graph.arc_kind[idx]
    if kind == "stretched-joining":
        extra = ((u, t * w), (v, (1.0 - t) * w))
        a = graph.nodes[u]
        at = tuple((a + t * (graph.nodes[v] - a)).tolist())
        return _Endpoint(virtual_id, 0.0, arc=idx, extra=extra, point=at)
    # interior of a finest triangle edge: snap to the nearer endpoint,
    # report one finest-edge length as the error bar
    node = u if t <= 0.5 else v
    return _Endpoint(node, w, point=tuple(graph.nodes[node].tolist()))


@dataclass(frozen=True)
class GeodesicResult:
    distance: float
    path: tuple[int, ...]
    level: int
    error_bar: float


def geodesic(
    model: GasketModel,
    p,
    q,
    level: Optional[int] = None,
) -> GeodesicResult:
    """Shortest-path distance between two points of the structure.

    Points must lie on the level's graph (nodes, joining-segment
    interiors, or finest triangle edges) within 1e-9.  Distances between
    vertices are exact and level-stable; snapped triangle-edge queries
    carry the finest edge length as error bar.

    Cost: locating a point bisects the sorted node x coordinates and
    projects onto the arcs whose boxes hold it; the search then settles
    only the nodes whose distance from p plus lambda times their
    straight-line distance to q stays within the p-q distance (a few
    thousand of the 19,683 nodes on the level-8 stretched graph).  Distances and paths are those of
    the (distance, node)-heap Dijkstra, bit for bit.
    """
    graph = to_metric_graph(model, level)
    n = graph.node_count
    src = _locate(graph, p, n)
    dst = _locate(graph, q, n + 1)

    extra: dict[int, list[tuple[int, float]]] = {}
    for ep in (src, dst):
        if ep.arc is not None:
            extra[ep.node] = list(ep.extra)
            for v, w in ep.extra:
                extra.setdefault(v, []).append((ep.node, w))
    if (src.arc is not None and src.arc == dst.arc):
        # both interior to the same joining segment: include the direct piece
        a = graph.nodes[graph.arc_u[src.arc]]
        tdist = abs(np.linalg.norm(np.asarray(p, float) - a)
                    - np.linalg.norm(np.asarray(q, float) - a))
        extra[src.node].append((dst.node, float(tdist)))
        extra[dst.node].append((src.node, float(tdist)))

    dist, pred = _dijkstra(graph, src.node, extra or None, target=dst.node,
                           goal=dst.point)
    d = dist[dst.node]
    if math.isinf(d):
        raise GasketError("endpoints are not connected (construction bug)")
    path = [dst.node]
    while path[-1] != src.node:
        path.append(pred[path[-1]])
    return GeodesicResult(d, tuple(reversed(path)), graph.level,
                          src.snap_error + dst.snap_error)


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the distance-witness check at one target node."""

    target: int
    level: int
    arcs_checked: int
    max_arc_violation: float
    lipschitz_ok: bool
    targets_checked: int
    attained_all: bool

    @property
    def ok(self) -> bool:
        return self.lipschitz_ok and self.attained_all


def _chains_attain(graph: MetricGraph, field: np.ndarray, pred: Sequence[int],
                   q: int, targets, rtol: float = 1e-12) -> bool:
    """True iff field[q] == 0 and, for every target t, the predecessor
    chain from t back to q is made of graph arcs whose weights, summed
    from q outward, equal field[t] within ``rtol``.

    The chain is a path, so its length bounds d(t, q) from above; with
    field 1-Lipschitz along every arc and field[q] == 0, field[t] bounds
    it from below, so both checks together give field[t] == d(t, q).
    Each step's lightest arc is found in one sorted lookup over
    ``arc_keys``.
    """
    if field[q] != 0.0:
        return False
    n = graph.node_count
    steps: list[int] = []          # keys prev * n + node, target by target
    ends = []                      # (target, end of its steps)
    for t in np.asarray(targets).tolist():
        node, start = t, len(steps)
        while node != q:
            prev = int(pred[node])
            if prev < 0 or len(steps) - start == n:
                return False
            steps.append(prev * n + node)
            node = prev
        ends.append((t, len(steps)))
    keys, weights = graph.arc_keys
    at = np.minimum(np.searchsorted(keys, steps), len(keys) - 1)
    if not np.array_equal(keys[at], steps):
        return False
    found = weights[at].tolist()
    start = 0
    for t, end in ends:
        total = 0.0
        for w in reversed(found[start:end]):
            total += w
        if abs(total - field[t]) > rtol * field[t]:
            return False
        start = end
    return True


def _tight_predecessors(graph: MetricGraph, field: np.ndarray) -> np.ndarray:
    """pred[v] = the neighbour u minimising field[u] + w over the arcs
    (u, v, w), the smallest such u on ties.

    One ``np.minimum.reduceat`` over the runs of ``arc_runs``; every node
    is an arc end, so run v belongs to node v.  On the distance field from
    q with positive weights, field[pred[v]] < field[v] up to rounding, so
    every chain of predecessors ends at q.
    """
    tail, head, weight, starts = graph.arc_runs
    cost = field[head] + weight
    tight = np.flatnonzero(cost == np.minimum.reduceat(cost, starts)[tail])
    return head[tight[np.diff(tail[tight], prepend=-1) != 0]]


def lipschitz_witness_check(
    model: GasketModel,
    q: int,
    level: Optional[int] = None,
    n_targets: int = 20,
    seed: int = 0,
) -> WitnessReport:
    """Check that h = d(., q) witnesses the spectral distance.

    The distance field from q must be 1-Lipschitz along every arc (its
    derivative bound along curves is 1) and h(p) must equal the geodesic
    distance d(p, q) at randomly chosen nodes p, which is exactly the pair
    of facts that lets h realize the supremum defining the spectral
    distance.  The second fact is checked by walking each target's
    shortest-path chain back to q and summing its arc weights.

    The field comes from ``distance_field`` (the corner tables, about
    1 ms on the level-8 stretched graph) and each node's chain step from
    its tight predecessor, the in-arc minimising field[u] + w.  A graph
    with a zero-length arc takes its chains from the heap ``_dijkstra``
    instead, since the ends of such an arc can name each other.
    """
    graph = to_metric_graph(model, level)
    if not 0 <= q < graph.node_count:
        raise GasketError(f"witness target {q} is not a node id")
    field = distance_field(graph, q)
    slacks = arc_slacks(graph, field)
    if (graph.arc_w > 0).all():
        pred = _tight_predecessors(graph, field)
    else:
        pred = _dijkstra(graph, q)[1]
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, graph.node_count, size=n_targets)
    return WitnessReport(
        target=q,
        level=graph.level,
        arcs_checked=len(graph.arc_w),
        max_arc_violation=float(slacks.max()),
        lipschitz_ok=bool((slacks <= 1e-12).all()),
        targets_checked=n_targets,
        attained_all=_chains_attain(graph, field, pred, q, targets),
    )
