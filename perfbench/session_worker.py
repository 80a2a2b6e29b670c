"""In-process library session: the worker of the session-queries workload.

    python session_worker.py REQUEST.json RESULT.json

The request names the model file, the number of setups, the ops, and
either a time budget (run whole 20-op blocks while the next block is
predicted to finish inside it) or an exact op count.  Each setup starts
from cleared package caches; the ops use the last one.  With ``trace``
set the worker records spans from the first setup on.  The results, the
setup times and the spans are written once, when the worker ends.
"""

from __future__ import annotations

import gc
import json
import sys
import time

from gasketlab import harmonic, measure, metric, serialize
from gasketlab.expr import TestFunction

import tracer as tracing
from workloads import SESSION_DEPTH, block_size, keep_going


def run_op(model, job: dict) -> dict:
    kind = job["kind"]
    if kind.startswith("geodesic"):
        r = metric.geodesic(model, tuple(job["p"]), tuple(job["q"]))
        return {"distance": r.distance, "error_bar": r.error_bar, "level": r.level}
    if kind == "witness":
        r = metric.lipschitz_witness_check(model, job["target"], seed=job["seed"])
        return {"level": r.level, "arcs_checked": r.arcs_checked,
                "max_arc_violation": r.max_arc_violation,
                "lipschitz_ok": r.lipschitz_ok, "targets_checked": r.targets_checked}
    f = TestFunction.parse(job["f"])
    if kind == "dixmier":
        r = measure.dixmier_functional(model, f)
        return {"value": r.value, "converged": r.converged}
    lo, hi = measure.kh_dixmier_ratio(f, SESSION_DEPTH)
    return {"lo": lo, "hi": hi}


def setup(path: str):
    model = serialize.read_model(path)
    metric.to_metric_graph(model)
    harmonic.edge_length_tables(SESSION_DEPTH, SESSION_DEPTH)
    return model


def main(request_path: str, result_path: str) -> None:
    with open(request_path) as fh:
        req = json.load(fh)
    caches = tracing.package_caches()
    tracer = None
    if req["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.op = "setup"
    setup_s = []
    for _ in range(req["setups"]):
        model = None
        for fn in caches.values():
            fn.cache_clear()
        gc.collect()
        t0 = time.perf_counter()
        model = setup(req["model"])
        setup_s.append(time.perf_counter() - t0)

    ops, budget, limit = req["ops"], req["seconds"], req["count"]
    block = block_size("session-queries")
    results = []
    start = time.perf_counter()
    while len(results) < len(ops):
        if limit is not None and len(results) >= limit:
            break
        if limit is None and not keep_going(len(results), time.perf_counter() - start,
                                            budget, block):
            break
        for job in ops[len(results):len(results) + block]:
            if tracer:
                tracer.op = job["id"]
            t0 = time.perf_counter()
            try:
                out, error = run_op(model, job), None
            except Exception as exc:   # any raise is a failed op, recorded
                out, error = None, f"{type(exc).__name__}: {exc}"
            results.append({"id": job["id"], "wall": time.perf_counter() - t0,
                            "out": out, "error": error})
    elapsed = time.perf_counter() - start

    doc = {"setup_s": setup_s, "elapsed": elapsed, "results": results,
           "caches": tracing.cache_counts(caches),
           "spans": tracer.spans if tracer else []}
    with open(result_path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
