"""Span recorder for the traced benchmark run.

The tracer wraps the public functions of the gasketlab modules from
outside the package and rebinds every module attribute that referred to
an original, so calls made inside the package (``gasketlab.cli`` calling
its own ``build_model`` import, ``harmonic`` calling
``edge_length_tables``) are recorded too.  A span is
``[name, start, end, parent, op, info]``: ``parent`` is the index of the
enclosing span or -1, ``op`` the id of the benchmark op that caused it,
and ``info`` holds the sizes a few boundaries report.  Spans stay in
memory until the run ends.

An untraced run uses only ``package_caches``, to clear the caches
between repeated setups.
"""

from __future__ import annotations

import importlib
import statistics
import time
import types
from collections import Counter, defaultdict

MODULES = ("geometry", "harmonic", "spectrum", "metric", "measure", "expr",
           "serialize", "svg", "cli")

# Called once per edge or per number inside the builders and writers: a
# span would cost more than the call itself, so their time stays in the
# caller's self time.
LEAVES = {"as_word", "cell_index", "index_word", "format_number"}

# Functions whose lru_cache hit ratio is a per-layer metric.
HIT_RATIOS = {
    "metric.graph_hit_ratio": ("metric._graph_of_model",),
    "geometry.hierarchy_hit_ratio": ("geometry.sg_hierarchy",
                                     "geometry.stretched_hierarchy"),
    "harmonic.edge_length_tables.hit_ratio": ("harmonic.edge_length_tables",),
}


def _graph_misses() -> int:
    from gasketlab import metric
    return metric._graph_of_model.cache_info().misses


# span name -> (before() or None, after(args, result, before) -> info)
PROBES = {
    "geometry.build_model": (None, lambda a, r, b: {"edges": len(r.edges)}),
    "metric.to_metric_graph": (_graph_misses, lambda a, r, b: {
        "nodes": r.node_count, "arcs": len(r.arcs),
        "cold": _graph_misses() > b}),
    "serialize.model_from_json": (None, lambda a, r, b: {"bytes": len(a[0])}),
    "serialize.model_to_json": (None, lambda a, r, b: {"bytes": len(r)}),
    "svg.render_svg": (None, lambda a, r, b: {"bytes": len(r)}),
}


def package_caches() -> dict:
    """Every functools.lru_cache function of the package, by dotted name."""
    caches = {}
    for short in MODULES:
        mod = importlib.import_module(f"gasketlab.{short}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                caches[f"{short}.{name}"] = obj
    return caches


def cache_counts(caches: dict) -> dict:
    return {name: [fn.cache_info().hits, fn.cache_info().misses]
            for name, fn in caches.items()}


class Tracer:
    """Installs span-recording wrappers; ``op`` tags the spans that follow."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self.caches: dict = {}

    def _wrap(self, name: str, fn):
        before, after = PROBES.get(name, (None, None))
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            state = before() if before else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after:
                span[5] = after(args, result, state)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        import gasketlab

        mods = [importlib.import_module(f"gasketlab.{s}") for s in MODULES]
        self.caches = package_caches()        # the originals, before rebinding
        wrapped = {}
        for short, mod in zip(MODULES, mods):
            for name, obj in vars(mod).items():
                if name.startswith("_") or name in LEAVES:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
        for mod in [gasketlab] + mods:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics
# ---------------------------------------------------------------------------


class Profile:
    """Self times, call counts and probe data summed over traced ops."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.infos = defaultdict(list)       # span name -> [(duration, info)]
        self.attributed = defaultdict(float)  # op id -> top-level span time
        self.caches = defaultdict(lambda: [0, 0])
        self.import_by_op: dict = {}          # op id -> import seconds (CLI)

    def add(self, spans, kinds: dict) -> None:
        """Fold in one span list; ``kinds`` maps op id -> op kind."""
        child = [0.0] * len(spans)
        for name, t0, t1, parent, op, info in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, op, info) in enumerate(spans):
            key = name
            if name == "metric.geodesic":
                key = f"metric.{kinds.get(op, 'geodesic')}"
            elif name == "metric.to_metric_graph":
                key = name + (".cold" if info["cold"] else ".warm")
            self.self_s[key] += (t1 - t0) - child[i]
            self.calls[key] += 1
            if info is not None:
                self.infos[name].append((t1 - t0, info))
            if parent < 0:
                self.attributed[op] += t1 - t0

    def add_caches(self, counts: dict) -> None:
        """Fold in one process's ``cache_counts``."""
        for name, (hits, misses) in counts.items():
            self.caches[name][0] += hits
            self.caches[name][1] += misses


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric name, span key, kind): "self" = mean self seconds per call,
# "calls" = calls per op
SPAN_METRICS = [
    ("metric.geodesic_vertex.self_s", "metric.geodesic_vertex", "self"),
    ("metric.geodesic_offnode.self_s", "metric.geodesic_offnode", "self"),
    ("metric.to_metric_graph.warm_self_s", "metric.to_metric_graph.warm", "self"),
    ("metric.to_metric_graph.cold_self_s", "metric.to_metric_graph.cold", "self"),
    ("metric.lipschitz_witness_check.self_s", "metric.lipschitz_witness_check", "self"),
    ("metric.distance_field.self_s", "metric.distance_field", "self"),
    ("metric.arc_slacks.self_s", "metric.arc_slacks", "self"),
    ("serialize.model_from_json.self_s", "serialize.model_from_json", "self"),
    ("serialize.model_to_json.self_s", "serialize.model_to_json", "self"),
    ("geometry.build_model.calls", "geometry.build_model", "calls"),
    ("geometry.build_model.self_s", "geometry.build_model", "self"),
    ("svg.render_svg.self_s", "svg.render_svg", "self"),
    ("harmonic.edge_polyline.calls", "harmonic.edge_polyline", "calls"),
    ("harmonic.edge_polyline.self_s", "harmonic.edge_polyline", "self"),
    ("harmonic.edge_length_tables.calls", "harmonic.edge_length_tables", "calls"),
    ("harmonic.edge_length_tables.self_s", "harmonic.edge_length_tables", "self"),
    ("harmonic.phi_coordinates.self_s", "harmonic.phi_coordinates", "self"),
    ("harmonic.build_harmonic_model.self_s", "harmonic.build_harmonic_model", "self"),
    ("spectrum.kh_dimension_interval.self_s", "spectrum.kh_dimension_interval", "self"),
    ("spectrum.kh_trace_interval.self_s", "spectrum.kh_trace_interval", "self"),
    ("spectrum.growth_root.calls", "spectrum.growth_root", "calls"),
    ("spectrum.growth_root.self_s", "spectrum.growth_root", "self"),
    ("spectrum.abscissa_bracket.self_s", "spectrum.abscissa_bracket", "self"),
    ("spectrum.spectrum_trace.calls", "spectrum.spectrum_trace", "calls"),
    ("measure.dixmier_functional.self_s", "measure.dixmier_functional", "self"),
    ("measure.kh_dixmier_ratio.self_s", "measure.kh_dixmier_ratio", "self"),
    ("measure.selfaffine_mass_spread.self_s", "measure.selfaffine_mass_spread", "self"),
    ("measure.functional_sample.self_s", "measure.functional_sample", "self"),
    ("expr.parse.self_s", "expr.parse_expr", "self"),
    ("expr.eval.self_s", "expr.evaluate", "self"),
]

CLI_VERBS = ("build", "dimension", "spectrum", "distance", "measure", "compare",
             "report")


def per_layer_metrics(profile: Profile, op_walls: dict, edge_cap: int,
                      overhead_frac: float) -> dict:
    """Per-layer metric values, by name, from one traced run.

    ``op_walls`` maps op id -> wall seconds of the traced op (for CLI
    jobs, the whole process, whose import time is attributed to
    ``cli.import_s``).
    """
    n_ops = max(len(op_walls), 1)
    out = {}
    for name, key, kind in SPAN_METRICS:
        if kind == "self":
            out[name] = _ratio(profile.self_s[key], profile.calls[key])
        else:
            out[name] = profile.calls[key] / n_ops
    for verb in CLI_VERBS:
        key = f"cli.cmd_{verb}"
        out[f"cli.{verb}.self_s"] = _ratio(profile.self_s[key], profile.calls[key])
    imports = list(profile.import_by_op.values())
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0

    graphs = [info for _, info in profile.infos["metric.to_metric_graph"]]
    out["metric.graph_nodes"] = max((g["nodes"] for g in graphs), default=0)
    out["metric.graph_arcs"] = max((g["arcs"] for g in graphs), default=0)

    def io(name):
        rows = profile.infos[name]
        return sum(i["bytes"] for _, i in rows), sum(d for d, _ in rows)

    read_bytes, read_s = io("serialize.model_from_json")
    out["serialize.read_MBps"] = _ratio(read_bytes / 1e6, read_s)
    write_bytes, write_s = io("serialize.model_to_json")
    out["serialize.bytes_out"] = write_bytes / n_ops
    out["serialize.write_MBps"] = _ratio(write_bytes / 1e6, write_s)
    svg_bytes, _ = io("svg.render_svg")
    out["svg.bytes_out"] = svg_bytes / n_ops

    builds = profile.infos["geometry.build_model"]
    edges = [i["edges"] for _, i in builds]
    out["geometry.edges_built"] = sum(edges) / n_ops
    out["geometry.edges_per_s"] = _ratio(sum(edges), sum(d for d, _ in builds))
    out["geometry.cap_usage"] = max(edges, default=0) / edge_cap

    for name, fns in HIT_RATIOS.items():
        hits = sum(profile.caches[f][0] for f in fns)
        misses = sum(profile.caches[f][1] for f in fns)
        out[name] = _ratio(hits, hits + misses)

    unattributed = [max(wall - profile.attributed.get(op, 0.0)
                        - profile.import_by_op.get(op, 0.0), 0.0)
                    for op, wall in op_walls.items()]
    out["trace.unattributed_s"] = sum(unattributed) / n_ops
    out["trace.unattributed_frac"] = _ratio(sum(unattributed), sum(op_walls.values()))
    out["trace.overhead_frac"] = overhead_frac
    return out
