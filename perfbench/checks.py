"""Checks of each op's output against the oracles, run after the timed phase.

Every check returns None when the output is right and a one-line reason
when it is not.  A job that exits non-zero or raises is failed before any
check runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import oracles as orc
from oracles import close

# ---------------------------------------------------------------------------
# session-queries
# ---------------------------------------------------------------------------


class SessionChecker:
    """Oracle for ops on one model, from the model file's own edge list."""

    def __init__(self, graph: "orc.Graph", alpha: float, level: int, jobs: list):
        self.graph, self.alpha, self.level = graph, alpha, level
        self.jobs = {job["id"]: job for job in jobs}
        self.rows: dict = {}

    def prepare(self, ids) -> None:
        """One batched Dijkstra from every source the ops need."""
        sources = set()
        for i in ids:
            job = self.jobs[i]
            if job["kind"] == "geodesic_vertex":
                sources.add(job["src"])
            elif job["kind"] == "geodesic_offnode":
                sources.add(job["vertex"])
            elif job["kind"] == "witness":
                sources.add(job["target"])
                sources.update(self._witness_targets(job))
        sources = sorted(sources)
        if sources:
            dist = self.graph.distances(sources)
            self.rows = dict(zip(sources, dist))

    def _witness_targets(self, job: dict) -> list:
        # the check draws its targets with default_rng(seed).integers
        rng = np.random.default_rng(job["seed"])
        return [int(t) for t in rng.integers(0, len(self.graph.nodes), size=20)]

    def check(self, job: dict, out: dict):
        kind = job["kind"]
        g = self.graph
        if kind == "geodesic_vertex":
            want = float(self.rows[job["src"]][job["dst"]])
            if out["error_bar"] != 0.0 or not close(out["distance"], want):
                return f"distance {out['distance']!r} +- {out['error_bar']}, oracle {want!r}"
            return None
        if kind == "geodesic_offnode":
            row = self.rows[job["vertex"]]
            arc, t = job["arc"], job["t"]
            u, v, w = g.u[arc], g.v[arc], g.w[arc]
            want = float(min(row[u] + t * w, row[v] + (1 - t) * w))
            if job["joining"]:
                ok = out["error_bar"] == 0.0 and close(out["distance"], want)
            else:
                ok = (out["error_bar"] <= w * (1 + orc.SUM_TOL)
                      and abs(out["distance"] - want) <= out["error_bar"] + orc.SUM_TOL)
            if not ok:
                return f"distance {out['distance']!r} +- {out['error_bar']}, oracle {want!r}"
            return None
        if kind == "witness":
            field = self.rows[job["target"]]
            slack = g.max_slack(field)
            lipschitz = slack <= 1e-12
            if out["lipschitz_ok"] != lipschitz or abs(out["max_arc_violation"] - slack) > orc.SUM_TOL:
                return f"max arc violation {out['max_arc_violation']!r}, oracle {slack!r}"
            if out["arcs_checked"] != len(g.w) or out["level"] != self.level:
                return f"checked {out['arcs_checked']} arcs at level {out['level']}"
            for t in self._witness_targets(job):
                back = self.rows[t][job["target"]]
                if not close(abs(field[t] - field[job["target"]]), back):
                    return f"|h({t}) - h(q)| = {field[t]!r} is not d({t}, q) = {back!r}"
            return None
        if kind == "dixmier":
            c = orc.dixmier_constant(self.alpha)
            want = c * orc.stretched_residue_mean(self.level, self.alpha, job["f"])
            tol = orc.LADDER_TOL * c * job["scale"]
            if abs(out["value"] - want) > tol:
                return f"residue {out['value']!r}, oracle {want!r} +- {tol:.3g}"
            return None
        # kh_ratio: both length sides converge to the corner mean of f over
        # the depth-5 cells of the embedded gasket
        corners = orc.harmonic_cell_corners(5).reshape(-1, 3)
        want = float(np.mean(orc.evaluate(job["f"], corners)))
        tol = orc.LADDER_TOL * job["scale"]
        if not out["lo"] - tol <= want <= out["hi"] + tol:
            return f"ratio [{out['lo']!r}, {out['hi']!r}], oracle {want!r} +- {tol:.3g}"
        return None


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------


def options(argv: list) -> dict:
    opts, i = {"verb": argv[0]}, 1
    while i < len(argv):
        if "=" in argv[i]:      # --f=<expr>: an expression may start with '-'
            key, value = argv[i][2:].split("=", 1)
            opts[key] = value
            i += 1
        elif i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[argv[i][2:]] = argv[i + 1]
            i += 2
        else:
            opts[argv[i][2:]] = True
            i += 1
    return opts


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def interval(text: str) -> tuple[float, float]:
    lo, hi = (float(v) for v in text.strip().split(","))
    return lo, hi


def check_interval(lo: float, hi: float):
    if not 1.0 <= lo <= hi <= orc.KH_DIMENSION_UPPER:
        return f"dimension interval [{lo!r}, {hi!r}] outside [1, {orc.KH_DIMENSION_UPPER!r}]"
    return None


class CliChecker:
    """Checks CLI outputs; identical inputs must give identical bytes, so
    each distinct model is checked in full once and matched by digest."""

    def __init__(self):
        self.models: dict = {}        # (variant, level, alpha, depth) -> digests
        self.graphs: dict = {}        # alpha -> level-7 oracle graph
        self.intervals: dict = {}     # harmonic depth -> (lo, hi)

    def check(self, job: dict, cwd: str, stdout: str):
        o = options(job["argv"])
        verb = o["verb"]
        alpha = float(o["alpha"]) if "alpha" in o else None
        if verb == "build":
            return self.check_model(os.path.join(cwd, o["out"]), o["variant"],
                                    int(o["level"]), alpha, int(o.get("depth", 4)),
                                    os.path.join(cwd, o["svg"]) if "svg" in o else None)
        if verb == "dimension":
            return self.check_dimension(stdout, o, alpha)
        if verb == "spectrum":
            return check_scan(stdout, o["variant"], alpha)
        if verb == "distance":
            return self.check_distance(stdout, o, alpha)
        if verb == "measure":
            return check_measure(stdout, o["family"], alpha, int(o["n"]), job)
        if verb == "compare":
            return check_spread(json.loads(stdout), float(o["d"]), int(o["length"]))
        return self.check_report(os.path.join(cwd, o["out-dir"]), o, alpha)

    def check_model(self, path, variant, level, alpha, depth, svg):
        key = (variant, level, alpha, depth if variant == "harmonic" else None)
        digests = (_sha(path), _sha(svg) if svg else None)
        seen = self.models.get(key)
        if seen is not None:
            if digests[0] != seen[0] or (svg and seen[1] and digests[1] != seen[1]):
                return f"{os.path.basename(path)} differs from an earlier identical job"
            if not svg or seen[1]:
                return None
        from gasketlab import serialize

        with open(path) as fh:
            text = fh.read()
        if serialize.model_to_json(serialize.read_model(path)) != text:
            return f"{os.path.basename(path)} does not round-trip byte for byte"
        doc, edges, p, q = orc.model_edges(text)
        want = orc.stretched_edge_count(level) if variant == "stretched" else 3 ** (level + 1)
        if len(edges) != want or doc["level"] != level or doc["variant"] != variant:
            return f"{len(edges)} edges at level {doc['level']}, expected {want}"
        lengths = np.array([e["length"] for e in edges])
        chords = np.linalg.norm(q - p, axis=1)
        if variant == "harmonic":
            lo = np.array([e["length_lo"] for e in edges])
            hi = np.array([e["length_hi"] for e in edges])
            if not ((chords <= lo * (1 + 1e-12)).all() and (lo <= hi).all()
                    and (lengths == lo).all()):
                return "harmonic length bounds violate chord <= lo <= hi"
        else:
            if not np.allclose(lengths, chords, rtol=1e-12, atol=0.0):
                return "edge lengths differ from endpoint distances"
            if not close(lengths.sum(), orc.total_length(variant, level, alpha)):
                return f"total length {lengths.sum()!r} differs from the closed form"
        if svg:
            elems = orc.svg_elements(svg)
            if len(elems) != len(edges):
                return f"svg has {len(elems)} elements for {len(edges)} edges"
            if variant == "harmonic" and any(
                    len(e.get("points", "").split()) != 17 for e in elems):
                return "harmonic svg polyline without 2^4+1 points"
        self.models[key] = digests
        return None

    def check_dimension(self, stdout, o, alpha):
        lines = stdout.strip().splitlines()
        if o["variant"] == "harmonic":
            lo, hi = interval(lines[0])
            self.intervals[int(o["depth"])] = (lo, hi)
            return check_interval(lo, hi)
        ds = orc.stretched_dimension(alpha)
        if not close(float(lines[0]), ds, rel=1e-12):
            return f"dimension {lines[0]} differs from {ds!r}"
        if o.get("bracket"):
            _, lo, hi = lines[1].split(",")
            lo, hi = float(lo), float(hi)
            if not (lo - 1e-12 <= ds <= hi + 1e-12 and hi - lo <= float(o["tol"]) * (1 + 1e-6)):
                return f"bracket [{lo!r}, {hi!r}] misses {ds!r} or is too wide"
        return None

    def check_distance(self, stdout, o, alpha):
        level = int(o["level"])
        graph = self.graphs.get(alpha)
        if graph is None:
            from gasketlab.geometry import build_model

            model = build_model("stretched", level, alpha)
            graph = orc.Graph(np.array([e.p for e in model.edges]),
                              np.array([e.q for e in model.edges]))
            self.graphs[alpha] = graph
        ends = [np.array([float(v) for v in o[k].split(",")]) for k in ("from", "to")]
        ids = [graph.node_of(e) for e in ends]
        want = float(graph.distances([ids[0]])[0][ids[1]])
        dist, lvl, err = stdout.strip().split(",")
        if not (close(float(dist), want) and int(lvl) == level and float(err) == 0.0):
            return f"distance {stdout.strip()}, oracle {want!r}"
        return None

    def check_report(self, out_dir, o, alpha):
        variant, level = o["variant"], int(o["level"])
        depth = int(o.get("depth", 3))
        path = lambda name: os.path.join(out_dir, name)
        reason = self.check_model(path("model.json"), variant, level, alpha, depth,
                                  path("model.svg"))
        if reason:
            return reason
        with open(path("dimension.csv")) as fh:
            header, row = fh.read().strip().splitlines()
        _, lo, hi = row.split(",")
        if variant == "harmonic":
            reason = check_interval(float(lo), float(hi))
        elif not (close(float(lo), orc.stretched_dimension(alpha), rel=1e-12) and lo == hi):
            reason = f"dimension.csv row {row}"
        if reason:
            return reason
        with open(path("spectrum_scan.csv")) as fh:
            reason = check_scan(fh.read(), variant, alpha)
        if reason:
            return reason
        if variant == "harmonic":
            with open(path("spread.json")) as fh:
                return check_spread(json.load(fh), 1.5, min(level + 2, 6))
        with open(path("measures.csv")) as fh:
            rows = fh.read().strip().splitlines()[1:]
        for row in rows:
            n, _, text, value = row.split(",")
            want = orc.functional("stretched-joining", int(n), alpha, text)
            if not close(float(value), want):
                return f"measures.csv {row}, oracle {want!r}"
        return None


def check_scan(text: str, variant: str, alpha):
    """Trace scan rows s, trace, tail, (s-1) trace on the ladder s = 1 + 0.1/2^k."""
    rows = [[float(v) for v in line.split(",")] for line in text.strip().splitlines()[1:]]
    if len(rows) != 8:
        return f"scan has {len(rows)} rows"
    if variant == "sg":
        ds = math.log(3.0) / math.log(2.0)
    elif variant == "stretched":
        ds = orc.stretched_dimension(alpha)
    for k, (s, trace, tail, running) in enumerate(rows):
        if s != 1.0 + 0.1 * 0.5 ** k or not close(running, (s - 1.0) * trace):
            return f"scan row {k} is not on the ladder"
        if variant == "harmonic":
            # p <= 1.1 * the a-priori bound keeps 3 (3/5)^p >= 1: no finite tail
            if not (0.0 < trace < math.inf and tail == math.inf):
                return f"harmonic scan row {k}: trace {trace!r}, tail {tail!r}"
        else:
            want = orc.flat_trace(ds * s, alpha)
            if tail != 0.0 or not close(trace, want):
                return f"scan row {k}: trace {trace!r}, oracle {want!r}"
    return None


def check_measure(text: str, family: str, alpha, n_max: int, job: dict):
    rows = text.strip().splitlines()[1:]
    n_min = 1 if family == "stretched-joining" else 0
    if [int(r.split(",")[0]) for r in rows] != list(range(n_min, n_max + 1)):
        return "measure rows do not cover the stages"
    for row in rows:
        n, fam, f_text, value = row.split(",")
        want = orc.functional(family, int(n), alpha, job["f"])
        if fam != family or f_text != job["f"] or not close(float(value), want, scale=job["scale"]):
            return f"measure row {row}, oracle {want!r}"
    return None


def check_spread(doc: dict, d: float, length: int):
    want = orc.mass_spread(d, length)
    if doc["L"] != length or doc["d"] != d or not all(
            close(doc[k], want[k]) for k in ("min", "max", "ratio")):
        return f"spread {doc}, oracle {want}"
    return None
