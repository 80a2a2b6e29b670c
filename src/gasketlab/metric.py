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

Nodes are the vertices of the model's build mesh, so every graph
follows ``build_model``'s layout, and exact corner distances of every
cell give each geodesic the corridor of nodes on its near-shortest
paths.  A corridor that is a single path (nearly every stretched
geodesic) is summed in one array pass; a corridor holding tied paths
(common on sg) runs the heap Dijkstra inside it.
"""

from __future__ import annotations

import heapq
import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Optional, Sequence

import numpy as np

from gasketlab.geometry import GasketError, GasketModel, _generation_starts, _mesh_graph

SNAP_TOL = 1e-9
WITNESS_TARGETS = 20        # chains one witness check walks
# a node joins a geodesic's corridor when d(p, v) + d(v, q) is within this
# factor of d(p, q), so rounding in the corner tables loses no path node
_CORRIDOR_SLACK = 1.0 + 1e-9


@dataclass(frozen=True)
class MetricGraph:
    """Immutable weighted graph held in arrays.

    ``nodes`` are the build's mesh points rounded at 12 decimals, sorted
    lexicographically by coordinates (``geometry._mesh_graph``).  Arc i
    joins ``arc_u[i]`` and ``arc_v[i]`` with weight ``arc_w[i]`` and kind
    ``arc_kind[i]``, in model edge order.  The cached properties below
    (the ``arcs`` tuple view, the sorted x column, the arc boxes sorted
    by x-min, the padded ``arc_rows`` that sort every node's arcs once,
    and the cells' corner tables) are built on first use.  A geodesic
    query locates an endpoint by bisecting the sorted x coordinates, or by
    projecting onto the few arcs whose box holds it (found by bisecting
    the box x-mins), and reads the corridor of its shortest paths off the
    corner tables.  A corridor that is one path is folded along
    ``arc_rows``; any other is searched by the heap over the same rows.
    A witness check reads its distance field off the corner tables, and
    takes each node's tight predecessor and its chains' arc weights from
    ``arc_rows``.
    """

    level: int
    nodes: np.ndarray
    arc_u: np.ndarray
    arc_v: np.ndarray
    arc_w: np.ndarray
    arc_kind: tuple[str, ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def arcs(self) -> tuple[tuple[int, int, float, str], ...]:
        """(u, v, weight, kind) per arc."""
        return tuple(zip(self.arc_u.tolist(), self.arc_v.tolist(),
                         self.arc_w.tolist(), self.arc_kind))

    @cached_property
    def xs(self) -> list[float]:
        """Node x coordinates as a list, sorted."""
        return self.nodes[:, 0].tolist()

    @cached_property
    def arc_boxes(self) -> tuple[list[float], np.ndarray, np.ndarray, float]:
        """Arc boxes sorted by x-min: the x-mins as a list, the arc ids, the
        (4, k) x-min, x-max, y-min, y-max rows in that order, and the widest
        box's x-extent plus SNAP_TOL, so rounding drops no arc from a window.
        Boxes are grown by 2 SNAP_TOL; a zero-length arc projects nowhere and
        has none."""
        p, q = self.nodes[self.arc_u], self.nodes[self.arc_v]
        ids = np.flatnonzero((p != q).any(axis=1))
        lo = np.minimum(p[ids], q[ids]) - 2 * SNAP_TOL
        hi = np.maximum(p[ids], q[ids]) + 2 * SNAP_TOL
        order = np.argsort(lo[:, 0], kind="stable")
        boxes = np.stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]])[:, order]
        width = float((boxes[1] - boxes[0]).max(initial=0.0)) + SNAP_TOL
        return boxes[0].tolist(), ids[order], boxes, width

    @cached_property
    def arc_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Both directions of every arc, sorted by tail, head, then weight,
        as padded rows: the heads and weights of the arcs out of node v in
        row v of two n x max-degree arrays, padded with head -1 and weight
        inf.  Arcs are undirected, so row v also lists the arcs into v.
        The pad names no node, real or virtual; a gather through it reads
        the last entry, which the inf weight outweighs."""
        tail = np.concatenate([self.arc_u, self.arc_v])
        head = np.concatenate([self.arc_v, self.arc_u])
        weight = np.concatenate([self.arc_w, self.arc_w])
        order = np.lexsort((weight, head, tail))
        tail = tail[order]
        degree = np.bincount(tail, minlength=self.node_count)
        col = np.arange(len(tail)) - (np.cumsum(degree) - degree)[tail]
        shape = (self.node_count, int(degree.max()))
        heads, weights = np.full(shape, -1), np.full(shape, np.inf)
        heads[tail, col], weights[tail, col] = head[order], weight[order]
        for arr in (heads, weights):
            arr.flags.writeable = False
        return heads, weights

    @cached_property
    def weights_positive(self) -> bool:
        """Whether every arc weight is positive: no two nodes are at
        distance 0, so a node's distance ties no neighbour's."""
        return bool((self.arc_w > 0).all())

    @cached_property
    def corner_tables(self) -> _CornerTables:
        """Exact corner distances of every cell."""
        return _corner_tables(self)


def _assemble_graph(model: GasketModel) -> MetricGraph:
    """The graph of a model: nodes and arcs from its build's mesh, arcs
    weighted by its (frozen) length column."""
    lengths = model.edges.length
    if not (lengths >= 0).all():
        raise GasketError("edge lengths must be non-negative numbers")
    return MetricGraph(model.level, *_mesh_graph(model), lengths, model.edges.kind)


@lru_cache(maxsize=16)
def _graph_of_model(model: GasketModel) -> MetricGraph:
    return _assemble_graph(model)


def to_metric_graph(model: GasketModel) -> MetricGraph:
    """Metric graph of a built model, at its level.

    Refuses (``GasketError``) a harmonic model, one whose edge count,
    kinds or endpoints differ from its build's, and a negative or NaN
    length.
    """
    if model.variant == "harmonic":
        raise GasketError("geodesics on the harmonic gasket are out of scope")
    return _graph_of_model(model)


def _dijkstra(graph: MetricGraph, source: int,
              overlay: Optional[dict[tuple[int, int], float]] = None,
              allowed: Optional[set[int]] = None):
    """Shortest paths from ``source``: a binary-heap Dijkstra keyed by
    (distance, node) over the sorted ``arc_rows``, run to exhaustion, so
    ties break by smaller node id and paths are deterministic.  A pad
    entry never relaxes: head -1 is no key of ``dist``.  ``overlay`` maps
    (tail, head) to the weight of each arc the virtual ends add (see
    ``geodesic``); a node reads its overlay arcs after its row, in
    insertion order, and a virtual node reads only those.

    With ``allowed``, a set of node ids (virtual ones included), the
    search relaxes only arcs into allowed nodes and keeps state for them
    only.  ``geodesic`` passes the corridor of the shortest paths, a few
    hundred nodes, when it holds more than one path (ties, common on sg,
    or any corridor of a graph with a zero-length arc); the heap then pops
    the corridor's nodes in the order the unrestricted heap would, so dist
    and pred on every node of the paths within rounding of the optimum
    are those of the full search.  A corridor that is one path is folded
    instead (``_corridor_path``), to the same bits.  Unrestricted, it
    takes O((n + m) log n) interpreted steps, 25-40 ms on the level-8
    stretched graph (19,683 nodes) on a 2-vCPU x86 VM, and serves only
    the witness chains of a graph with a zero-length arc.  Returns
    the ``(dist, pred)`` dicts; dist is inf on allowed nodes not reached.
    """
    (heads, weights), n = graph.arc_rows, graph.node_count
    added: dict[int, list[tuple[int, float]]] = {}
    for (a, b), w in (overlay or {}).items():
        added.setdefault(a, []).append((b, w))
    dist = dict.fromkeys(range(n + 2) if allowed is None else allowed, math.inf)
    dist[source], pred = 0.0, {}
    # a node outside ``allowed`` reads -inf, so no arc into it relaxes
    get, outside = dist.get, -math.inf
    pop, push = heapq.heappop, heapq.heappush
    heap = [(0.0, source)]
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue
        row = zip(heads[u].tolist(), weights[u].tolist()) if u < n else ()
        for v, w in (*row, *added[u]) if u in added else row:
            nd = d + w
            if nd < get(v, outside):
                dist[v] = nd
                pred[v] = u
                push(heap, (nd, v))
    return dist, pred


# The nine nodes of a cell are its children's corners, child-major: node
# 3c + j is corner j of child c (geometry's child tables).  Child j keeps
# corner j of its parent, so the cell's own corner j is node 4j.
_OWN = np.array([0, 4, 8])
# the right, bottom and left joining segments of a stretched cell
# (geometry.STRETCHED_JOINS) as pairs of nine-node ids; on sg each pair
# is one shared midpoint
_JOINS = np.array([[5, 7], [2, 6], [1, 3]])
_CHILDREN = np.arange(3)


def _least(a: np.ndarray) -> np.ndarray:
    """a.min(axis=-2) over an axis of length 3, as two elementwise minimums:
    numpy reduces so short an axis several times slower than it compares
    its slices, and the minimum is the same either way."""
    return np.minimum(np.minimum(a[..., 0, :], a[..., 1, :]), a[..., 2, :])


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
    cell r, for k < L, with ``own[k][r]`` its rows at the cell's own
    corners.  ``slot[v]`` is 3r + j for the first corner j of a cell r at
    node v.  The gasket is finitely ramified, so a path between
    a cell and the rest of the graph passes through one of the cell's
    corners; distances from one point therefore follow from these tables
    in one min-plus step per cell: up the point's cell address
    (``chain``), then down (``_descend``) to every cell or only to the
    cells near a shortest path (``corridor``).
    """

    corners: np.ndarray
    leaf: np.ndarray
    nine: tuple[np.ndarray, ...]
    own: tuple[np.ndarray, ...]
    slot: np.ndarray

    def _ascend(self, level: int, cell: int, near: np.ndarray) -> list:
        """(ancestor, distances to its nine nodes) at levels 0 .. level-1,
        from the distances ``near`` to the corners of level-``level`` cell
        ``cell``, which holds the point: each ancestor's distances follow
        from those to the corners of its child that holds the point."""
        ups = []
        for k in reversed(range(level)):
            parent, child = divmod(cell // 3 ** (level - 1 - k), 3)
            up = _least(near[:, None] + self.nine[k][parent, 3 * child:3 * child + 3])
            ups.append((parent, up))
            near = up[_OWN]
        return ups[::-1]

    def chain(self, endpoint: _Endpoint) -> list:
        """(cell, distances) at each level, root first, for every cell that
        holds the endpoint.  Above the last entry the distances run to the
        cell's nine nodes.  A node's chain ends at its leaf cell, with the
        distances to that cell's three corners.  A point inside a joining
        arc (a virtual node) lies in the cell the arc belongs to and in none
        of its children, so its chain ends there, with the nine distances
        through the arc's two ends."""
        level = len(self.nine)
        if endpoint.arc is None:
            cell, corner = divmod(int(self.slot[endpoint.node]), 3)
            near = self.leaf[cell, corner]
            return self._ascend(level, cell, near) + [(cell, near)]
        # generation k's 3^k cells hold the joining arcs from 3 start[k] on,
        # three per cell, in the order of _JOINS
        row, pair = divmod(endpoint.arc, 3)
        starts = _generation_starts(level)
        k = bisect_right(starts, row) - 1
        cell = row - starts[k]
        (_, a), (_, b) = endpoint.extra
        table = self.nine[k][cell]
        up = np.minimum(a + table[_JOINS[pair, 0]], b + table[_JOINS[pair, 1]])
        return self._ascend(k, cell, up[_OWN]) + [(cell, up)]

    def field(self, chain) -> np.ndarray:
        """near[c] = the distances from the point of ``chain`` to the
        corners of level-L cell c: the descent from the root that keeps
        every cell, one min-plus step per cell and level.  Level k keeps
        cells 0 .. 3^k - 1, so ``own[k]`` is read as it is."""
        near = (chain[0][1][_OWN] if self.nine else chain[0][1])[None]
        for k, rows in enumerate(self.own):
            nine = _least(near[:, :, None] + rows)
            if k < len(chain):
                nine[chain[k][0]] = chain[k][1]
            near = nine.reshape(-1, 3)
        return near

    def _descend(self, chains, bound: float):
        """(cells, near): the level-L cells a descent from the root keeps,
        and near[i, c] the distances from the point of ``chains[i]`` to the
        corners of ``cells[c]``.  It keeps the cells that hold an end and
        those whose corners give min (d_p + d_q) <= bound, a lower bound on
        d_p + d_q inside a cell holding neither end: O(L x corridor) work.
        """
        cells = np.zeros(1, dtype=np.int64)
        # a level-0 chain holds only its leaf's three corners
        near = np.array([c[0][1][_OWN] if self.nine else c[0][1] for c in chains])[:, None]
        for k, rows in enumerate(self.own):
            nine = _least(near[..., None] + rows[cells])
            for side, c in enumerate(chains):
                if k < len(c):
                    nine[side, cells.searchsorted(c[k][0])] = c[k][1]
            cells = (3 * cells[:, None] + _CHILDREN).ravel()
            near = nine.reshape(2, -1, 3)
            keep = _least((near[0] + near[1]).T) <= bound
            for c in chains:
                if k + 1 < len(c):
                    keep[cells.searchsorted(c[k + 1][0])] = True
            keep = np.flatnonzero(keep)
            cells, near = cells.take(keep), near.take(keep, axis=1)
        return cells, near

    def corridor(self, src: _Endpoint, dst: _Endpoint,
                 direct: float) -> tuple[np.ndarray, np.ndarray]:
        """The real node ids v with d(p, v) + d(v, q) <= d(p, q) (1 + 1e-9),
        in the order of d(p, v), and those distances.  ``direct`` is the
        length of a joining-arc piece between p and q, or inf.  A node that
        corners several cells (on sg) takes d(p, v) from the first of them.

        d(p, q) is read off the deepest cell both chains hold: a path leaves
        the child holding one end (or the arc holding it) through nodes
        among that cell's nine.
        """
        chains = (self.chain(src), self.chain(dst))
        common = max(k for k in range(min(map(len, chains)))
                     if chains[0][k][0] == chains[1][k][0])
        bound = min(float((chains[0][common][1] + chains[1][common][1]).min()),
                    direct) * _CORRIDOR_SLACK
        cells, near = self._descend(chains, bound)
        tight = near[0] + near[1] <= bound
        nodes, first = np.unique(self.corners[cells][tight], return_index=True)
        dist = near[0][tight][first]
        order = dist.argsort(kind="stable")
        return nodes[order], dist[order]


def _corner_tables(graph: MetricGraph) -> _CornerTables:
    """Corner tables of a graph in ``build_model``'s layout, which
    ``to_metric_graph`` guarantees: generation by generation the joining
    arcs (stretched), three per cell in the order of ``_JOINS``, then
    each level-L cell's triangle.  The tables take their weights from the
    arcs, so they stay exact for any non-negative lengths.

    Bottom-up, each cell's inside table is the min-plus closure of its
    children's tables and its three joining arcs (zero-weight
    identifications on sg).  Top-down, the parent's global corner
    distances join each cell's table as outside arcs, and closing over the
    three corners makes it global.
    """
    level, weights = graph.level, graph.arc_w
    starts = _generation_starts(level)
    joins = len(weights) - 3 ** (level + 1)
    # triangle arcs of each cell run corner 1 -> 3 -> 2 -> 1
    corners = graph.arc_u[joins:].reshape(-1, 3)[:, [0, 2, 1]]
    sides = weights[joins:].reshape(-1, 3)
    inside = np.zeros((len(corners), 3, 3))
    inside[:, [0, 2, 1], [2, 1, 0]] = inside[:, [2, 1, 0], [0, 2, 1]] = sides
    _close(inside, range(3))

    nine = []
    for k in reversed(range(level)):
        cells = 3 ** k
        # generation k's joining arcs; on sg each join is one shared midpoint
        bridge = (weights[3 * starts[k]:3 * starts[k + 1]].reshape(cells, 3) if joins
                  else np.zeros((cells, 3)))
        table = np.full((cells, 9, 9), np.inf)
        blocks = table.reshape(cells, 3, 3, 3, 3)
        children = inside.reshape(cells, 3, 3, 3)
        for c in range(3):
            blocks[:, c, :, c, :] = children[:, c]
        table[:, _JOINS[:, 0], _JOINS[:, 1]] = table[:, _JOINS[:, 1], _JOINS[:, 0]] = bridge
        _close(table, range(9))
        nine.append(table)
        inside = table[:, _OWN[:, None], _OWN]
    nine.reverse()

    outside = inside                   # the root's inside distances are global
    for k, table in enumerate(nine):
        table[:, _OWN[:, None], _OWN] = outside
        _close(table, _OWN)
        blocks = np.diagonal(table.reshape(3 ** k, 3, 3, 3, 3), axis1=1, axis2=3)
        outside = blocks.transpose(0, 3, 1, 2).reshape(-1, 3, 3)
    own = [table[:, _OWN] for table in nine]
    _, slot = np.unique(corners.ravel(), return_index=True)
    for arr in (corners, outside, slot, *nine, *own):
        arr.flags.writeable = False
    return _CornerTables(corners, outside, tuple(nine), tuple(own), slot)


def distance_field(graph: MetricGraph, source: int) -> np.ndarray:
    """Graph distance from one node to every node.

    One numpy pass over the graph's ``corner_tables`` (built once per
    graph, on first use): up the source's cell address, then the unbounded
    descent that geodesics bound to their corridor, one min-plus step per
    level for all cells, reading each level's tables as they are.  It
    takes O(N) array work, about 0.7 ms on the level-8 stretched graph
    (19,683 nodes) on a 2-vCPU x86 VM after the tables' one-off 15-20 ms,
    and agrees with the heap Dijkstra to a few ulps.
    """
    _check_node(graph, source, "source")
    tables = graph.corner_tables
    field = np.empty(graph.node_count)
    field[tables.corners] = tables.field(tables.chain(_Endpoint(source, 0.0)))
    return field


def _check_node(graph: MetricGraph, node, what: str) -> None:
    """Refuse anything but an integer id of one of ``graph``'s nodes."""
    if not (isinstance(node, numbers.Integral) and 0 <= node < graph.node_count):
        raise GasketError(f"{what} {node} is not a node id")


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


def _nearest_arc(graph: MetricGraph, x: np.ndarray,
                 candidates: np.ndarray) -> tuple[float, int, float]:
    """(gap, arc, t) of the first candidate arc nearest to x, t being the
    clipped projection parameter; candidates have positive length.  One
    vectorised projection keeps the arcs within rounding of the best gap
    (a lone candidate needs none), and only those are rescanned with the
    scalar formula, in ascending arc order, so the result is the scalar
    scan's over all candidates."""
    if len(candidates) > 1:
        ends = graph.nodes[graph.arc_u[candidates]]
        dirs = graph.nodes[graph.arc_v[candidates]] - ends
        rel = x - ends
        ts = np.minimum(np.maximum((rel * dirs).sum(axis=1) / (dirs * dirs).sum(axis=1),
                                   0.0), 1.0)
        gaps = np.hypot(*(rel - ts[:, None] * dirs).T)
        candidates = np.sort(candidates[gaps <= np.fmin.reduce(gaps) + 1e-12])
    best = (math.inf, -1, 0.0)
    for idx in candidates.tolist():
        a = graph.nodes[graph.arc_u[idx]]
        d = graph.nodes[graph.arc_v[idx]] - a
        # float(np.clip(...)) and np.linalg.norm(...) bit for bit, in fewer
        # numpy calls: the length is positive, so the quotient is finite
        t = float(min(1.0, max(0.0, np.dot(x - a, d) / np.dot(d, d))))
        r = x - (a + t * d)
        gap = math.sqrt(r.dot(r))
        if gap < best[0]:
            best = (gap, idx, t)
    return best


def _locate(graph: MetricGraph, point, virtual_id: int) -> _Endpoint:
    x = np.asarray(point, dtype=float)
    if x.shape != (2,):
        raise GasketError(f"query point must be 2-d, got {point}")
    # nodes are sorted by x: only those within 2 SNAP_TOL in x can snap
    xs = graph.xs
    lo = bisect_left(xs, float(x[0]) - 2 * SNAP_TOL)
    hi = bisect_right(xs, float(x[0]) + 2 * SNAP_TOL)
    if lo < hi:
        gaps = np.linalg.norm(graph.nodes[lo:hi] - x, axis=1)
        nearest = int(np.argmin(gaps))
        if gaps[nearest] <= SNAP_TOL:
            return _Endpoint(lo + nearest, 0.0)

    # only an arc whose grown box holds x can lie within SNAP_TOL of it, and
    # such a box starts at most the widest box's extent left of x
    xmins, ids, box, width = graph.arc_boxes
    lo = bisect_left(xmins, float(x[0]) - width)
    hi = bisect_right(xmins, float(x[0]))
    box = box[:, lo:hi]
    inside = ids[lo:hi][(x[0] <= box[1]) & (box[2] <= x[1]) & (x[1] <= box[3])]
    gap, idx, t = _nearest_arc(graph, x, inside)
    if gap > SNAP_TOL:
        # off the structure: the nearest arc over all of them, for the message
        gap = _nearest_arc(graph, x, ids)[0]
        raise GasketError(
            f"point {tuple(x.tolist())} is not on the structure "
            f"(distance {gap:.3e} > {SNAP_TOL})"
        )
    u, v = int(graph.arc_u[idx]), int(graph.arc_v[idx])
    w, kind = float(graph.arc_w[idx]), graph.arc_kind[idx]
    if kind == "stretched-joining":
        return _Endpoint(virtual_id, 0.0, arc=idx, extra=((u, t * w), (v, (1.0 - t) * w)))
    # interior of a finest triangle edge: snap to the nearer endpoint,
    # report one finest-edge length as the error bar
    return _Endpoint(u if t <= 0.5 else v, w)


@dataclass(frozen=True)
class GeodesicResult:
    distance: float
    path: tuple[int, ...]
    level: int
    error_bar: float


def geodesic(model: GasketModel, p, q) -> GeodesicResult:
    """Shortest-path distance between two points of the structure.

    Points must lie on the level's graph (nodes, joining-segment
    interiors, or finest triangle edges) within 1e-9.  Distances between
    vertices are exact and level-stable; snapped triangle-edge queries
    carry the finest edge length as error bar.

    Cost: locating a point bisects the sorted node x coordinates and
    projects onto the arcs whose boxes hold it.  The corner tables
    (``corner_tables``, built once per graph on first use) then give
    d(p, q) and the corridor of nodes v with d(p, v) + d(v, q) within 1e-9
    of it, in O(L) numpy steps per cell near the shortest paths: a few
    hundred of the 19,683 nodes of the level-8 stretched graph.  Every
    node of a path within rounding of the optimum lies in the corridor,
    and so does every neighbour that ties for its predecessor.  When the
    corridor is one path, ordered by d(p, .), its steps' weights are
    summed by ``np.cumsum`` (``_corridor_path``), about 0.7 ms per
    geodesic on a 2-vCPU x86 VM; otherwise the heap search runs over the
    corridor only, its state in dicts over the corridor.  Both read the
    arcs a virtual end adds from one overlay, ``{(a, b): weight}`` in both
    directions, which the heap reads after a node's ``arc_rows`` row.
    Either way distances and paths are those of the unrestricted
    (distance, node)-heap Dijkstra, bit for bit.
    """
    graph = to_metric_graph(model)
    n = graph.node_count
    src = _locate(graph, p, n)
    dst = _locate(graph, q, n + 1)
    overlay: dict[tuple[int, int], float] = {}
    for ep in (src, dst):
        for v, w in ep.extra:
            overlay[ep.node, v] = overlay[v, ep.node] = w
    direct = math.inf
    if src.arc is not None and src.arc == dst.arc:
        # both interior to the same joining segment: include the direct piece
        a = graph.nodes[graph.arc_u[src.arc]]
        direct = float(abs(np.linalg.norm(np.asarray(p, float) - a)
                           - np.linalg.norm(np.asarray(q, float) - a)))
        overlay[src.node, dst.node] = overlay[dst.node, src.node] = direct
    error_bar = src.snap_error + dst.snap_error

    nodes, near = graph.corner_tables.corridor(src, dst, direct)
    walk = _corridor_path(graph, src, dst, overlay, nodes, near)
    if walk is not None:
        return GeodesicResult(*walk, graph.level, error_bar)
    dist, pred = _dijkstra(graph, src.node, overlay, set(nodes.tolist()) | {n, n + 1})
    d = dist[dst.node]
    if math.isinf(d):
        raise GasketError("the endpoints are at infinite distance")
    path = [dst.node]
    while path[-1] != src.node:
        path.append(pred[path[-1]])
    return GeodesicResult(d, tuple(reversed(path)), graph.level, error_bar)


def _corridor_path(graph: MetricGraph, src: _Endpoint, dst: _Endpoint,
                   overlay: dict[tuple[int, int], float],
                   nodes: np.ndarray, near: np.ndarray) -> Optional[tuple[float, tuple]]:
    """(distance, path) of a corridor that carries one path only, else None.

    ``nodes`` are the corridor's real nodes in the order of their
    distances ``near`` from p.  With a virtual source put first and a
    virtual target last, that order is the path when every arc weight is
    positive, d(p, .) strictly increases along it, each step is an arc,
    and the corridor's induced graph, ``overlay``'s arcs included, has no
    other arc.  The heap search confined to the corridor can then
    walk only that path, and its distance is the left fold from 0.0 of the
    steps' lightest weights, which ``np.cumsum`` takes in the same order.
    """
    if not graph.weights_positive or (near[1:] <= near[:-1]).any():
        return None
    n = graph.node_count
    inside = np.zeros(n + 1, dtype=bool)       # slot n answers the pad -1
    inside[nodes] = True
    # each arc of the induced graph is seen from both ends: a real one in
    # two rows, an overlay one in both directions (virtual ends are kept)
    ends = np.count_nonzero(inside[graph.arc_rows[0][nodes]]) + sum(
        (a >= n or inside[a]) and (b >= n or inside[b]) for a, b in overlay)
    real = nodes.tolist()
    lead = [src.node] if src.arc is not None else []
    trail = [dst.node] if dst.arc is not None else []
    path = lead + real + trail
    if path[0] != src.node or path[-1] != dst.node or ends != 2 * (len(path) - 1):
        return None
    steps = np.concatenate([
        [overlay.get((path[0], path[1]), math.inf)] if lead else [],
        _lightest_arcs(graph, nodes[:-1], nodes[1:]),
        [overlay.get((path[-2], path[-1]), math.inf)] if trail and real else []])
    if not (steps < math.inf).all():           # a step that is no arc
        return None
    return float(np.cumsum(steps)[-1]) if len(steps) else 0.0, tuple(path)


def _lightest_arcs(graph: MetricGraph, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """The lightest arc weight from each tail to its head, inf where no
    arc joins them: one gather of the tails' ``arc_rows``, reduced per
    row as ``_least`` does."""
    rows, weights = graph.arc_rows
    found = np.where(rows[tails] == heads[:, None], weights[tails], math.inf)
    return reduce(np.minimum, found.T)


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
    Each node is walked once: a walk stops at q or at a node walked
    before, and its lengths are one ``np.cumsum`` of that end's length
    and its steps' lightest-arc weights (one ``_lightest_arcs`` gather)
    from there outward.  cumsum is a sequential left fold, so each node
    gets the bits of S(v) = S(pred v) + w(pred v, v) with S(q) = 0.0.
    """
    if field[q] != 0.0:
        return False
    pred = np.ascontiguousarray(pred)
    back = memoryview(pred)        # Python ints at single indices
    walked = {q: -1}               # node -> its index in ``steps``
    steps: list[int] = []          # walked nodes, walk by walk
    walks = []                     # (start, end, index of the known end) of each walk
    targets = np.asarray(targets).tolist()
    for t in targets:
        node, start = t, len(steps)
        while node not in walked:
            if back[node] < 0:
                return False
            walked[node] = len(steps)
            steps.append(node)
            node = back[node]
        if walked[node] >= start:  # the walk closed a cycle
            return False
        walks.append((start, len(steps), walked[node]))
    heads = np.array(steps, dtype=np.int64)
    found = _lightest_arcs(graph, pred[heads], heads)
    if not (found < math.inf).all():           # a step that is no arc
        return False
    length = np.zeros(len(steps) + 1)          # the last entry is q's
    for start, end, known in walks:
        outward = np.concatenate(([length[known]], found[start:end][::-1]))
        length[start:end] = np.cumsum(outward)[:0:-1]
    want = field[targets]
    return not (np.abs(length[[walked[t] for t in targets]] - want) > rtol * want).any()


def _tight_predecessors(graph: MetricGraph, field: np.ndarray) -> np.ndarray:
    """pred[v] = the neighbour u minimising field[u] + w over the arcs
    (u, v, w), the smallest such u on ties.

    A row of ``arc_rows`` lists its heads in ascending order, then its
    lightest arc first, so the first minimum is the smallest head (a pad
    costs inf); one elementwise ``<`` per column finds it faster than
    ``argmin`` over so short an axis, as in ``_least``.  On the distance
    field from q with positive weights, field[pred[v]] < field[v] up to
    rounding, so every chain of predecessors ends at q.
    """
    heads, weights = graph.arc_rows
    cost = (field[heads] + weights).T
    best, pred = cost[0], heads[:, 0]
    for col, head in zip(cost[1:], heads.T[1:]):
        fewer = col < best
        best, pred = np.where(fewer, col, best), np.where(fewer, head, pred)
    return pred


def lipschitz_witness_check(model: GasketModel, q: int, seed: int = 0) -> WitnessReport:
    """Check that h = d(., q) witnesses the spectral distance.

    The distance field from q must be 1-Lipschitz along every arc (its
    derivative bound along curves is 1) and h(p) must equal the geodesic
    distance d(p, q) at randomly chosen nodes p, which is exactly the pair
    of facts that lets h realize the supremum defining the spectral
    distance.  The second fact is checked by walking each target's
    shortest-path chain back to q and summing its arc weights, at
    ``WITNESS_TARGETS`` nodes drawn with ``seed``.

    The field comes from ``distance_field`` (the corner tables) and each
    node's chain step from its tight predecessor, the in-arc minimising
    field[u] + w.  At level 8 (stretched) a check takes about 1.7 ms on a
    2-vCPU x86 VM: 0.6 ms field, 0.15 ms slacks, 0.2-0.3 ms predecessors,
    0.5-0.6 ms chains of 20 targets.  A graph with a zero-length arc takes
    its chains from the heap ``_dijkstra`` instead, since the ends of
    such an arc can name each other.
    """
    graph = to_metric_graph(model)
    _check_node(graph, q, "witness target")
    field = distance_field(graph, q)
    slacks = arc_slacks(graph, field)
    if graph.weights_positive:
        pred = _tight_predecessors(graph, field)
    else:
        chain = _dijkstra(graph, q)[1]
        pred = np.array([chain.get(v, -1) for v in range(graph.node_count)])
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, graph.node_count, size=WITNESS_TARGETS)
    return WitnessReport(
        target=q,
        level=graph.level,
        arcs_checked=len(graph.arc_w),
        max_arc_violation=float(slacks.max()),
        lipschitz_ok=bool((slacks <= 1e-12).all()),
        targets_checked=WITNESS_TARGETS,
        attained_all=_chains_attain(graph, field, pred, q, targets),
    )
