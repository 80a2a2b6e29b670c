"""gasketlab benchmark: two workloads, end-to-end metrics, traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is session-queries, cli, or ``all``
for both in turn.  The package is used from ``src/`` as checked out;
nothing is installed.

With ``--trace 0`` the run measures the end-to-end metrics with no
tracing: one client, one op in flight (a closed loop), whole blocks of
jobs until the next block is predicted to overrun S seconds.  With
``--trace 1`` it runs the same jobs untraced for S/2 seconds, then their
traced twins, and reports the per-layer metrics.  Every output is
checked against an independent oracle after the timed phase; a mismatch,
a raise or a non-zero exit counts as a failed op.  The metric table, the
failures and a JSON record (seed, job-list digest, versions, numerical
health, sizes) are printed first; the last line is the result object.
Spans and records are written under ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench", "work")
RUNS = os.path.join(ROOT, ".perfbench", "runs")
WORKLOADS = ("session-queries", "cli")
SESSION_SETUPS = 3
CLI_SETUPS = 5
JOB_TIMEOUT = 60.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def preflight() -> None:
    if not os.path.isfile(os.path.join(SRC, "gasketlab", "cli.py")):
        raise BenchError(f"no gasketlab sources under {SRC}")
    if "GASKET_MAX_EDGES" in os.environ:
        raise BenchError("GASKET_MAX_EDGES is set; it changes what gets built")
    sys.path.insert(0, SRC)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def spawn(argv, cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
          timeout=JOB_TIMEOUT):
    """Run one process to its end; returns (wall s, exit code, ru_maxrss MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=stdout, stderr=stderr)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    status = None
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        if status is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def pass_plan(seconds: float, trace: bool) -> list:
    """(tag, traced, budget) per pass.  The untraced pass runs whole blocks
    inside its budget; the traced pass replays the same ops."""
    if trace:
        return [("plain", False, seconds / 2), ("traced", True, None)]
    return [("plain", False, seconds)]


# ---------------------------------------------------------------------------
# session-queries
# ---------------------------------------------------------------------------


def run_session(seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import oracles
    import workloads as wl

    model_path = os.path.join(WORK, "session_model.json")
    _, code, _ = spawn([sys.executable, "-m", "gasketlab.cli", "build", "--variant",
                        "stretched", "--alpha", repr(wl.SESSION_ALPHA), "--level",
                        str(wl.SESSION_LEVEL), "--out", model_path], WORK)
    if code != 0:
        raise BenchError("gasketlab build of the session model failed")
    _, edges, p, q = oracles.model_edges(read(model_path))
    graph = oracles.Graph(p, q)
    jobs = wl.session_jobs(seed, graph, [e["kind"] for e in edges])

    def worker(tag: str, **request):
        req_path = os.path.join(WORK, f"{tag}.request.json")
        out_path = os.path.join(WORK, f"{tag}.result.json")
        with open(req_path, "w") as fh:
            json.dump(dict(request, model=model_path, ops=jobs), fh)
        _, code, rss = spawn([sys.executable, os.path.join(HERE, "session_worker.py"),
                              req_path, out_path], WORK, timeout=170.0)
        if code != 0:
            raise BenchError(f"session worker exited with {code}")
        doc = json.loads(read(out_path))
        doc["rss"] = rss
        return doc

    passes = []
    for tag, traced, budget in pass_plan(seconds, trace):
        count = len(passes[0]["results"]) if passes else None
        doc = worker(tag, seconds=budget, count=count, trace=traced,
                     setups=1 if traced else SESSION_SETUPS)
        doc["traced"] = traced
        passes.append(doc)

    checker = checks.SessionChecker(graph, wl.SESSION_ALPHA, wl.SESSION_LEVEL, jobs)
    checker.prepare({r["id"] for run in passes for r in run["results"]})
    ops = []
    ladders = [0, 0]
    for run in passes:
        for r in run["results"]:
            job = checker.jobs[r["id"]]
            reason = r["error"] or checker.check(job, r["out"])
            ops.append({"id": r["id"], "kind": job["kind"], "wall": r["wall"],
                        "traced": run["traced"], "reason": reason})
            if job["kind"] == "dixmier" and r["out"]:
                ladders[0] += not r["out"]["converged"]
                ladders[1] += 1
    from gasketlab.geometry import edge_cap

    out = {
        "jobs": jobs, "ops": ops, "setup": passes[0]["setup_s"], "rss": passes[0]["rss"],
        "elapsed": [run["elapsed"] for run in passes], "ladders": ladders, "intervals": {},
        "size": {"model_edges": len(edges), "edges_built_per_op": 0.0,
                 "cap_usage": len(edges) / edge_cap(),
                 "harmonic_table_cells": 3 ** (2 * wl.SESSION_DEPTH + 1)},
    }
    if trace:
        import tracer

        traced = passes[1]
        profile = tracer.Profile()
        profile.add(traced["spans"], {j["id"]: j["kind"] for j in jobs})
        profile.add_caches(traced["caches"])
        out.update(profile=profile, spans=[{"op": "all", "spans": traced["spans"]}],
                   traced_walls={r["id"]: r["wall"] for r in traced["results"]})
    return out


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def job_size(job: dict) -> tuple[int, int]:
    """(edges of the model the job builds, cells of its harmonic tables)."""
    import checks
    import oracles

    o = checks.options(job["argv"])
    verb, variant = o["verb"], o.get("variant")
    depth = int(o.get("depth", 3))
    edges = cells = 0
    if verb in ("build", "report", "distance"):
        level = int(o["level"])
        edges = (oracles.stretched_edge_count(level) if variant == "stretched"
                 else 3 ** (level + 1))
        if variant == "harmonic":
            cells = 3 ** (level + int(o.get("depth", 4)) + 1)
    if variant == "harmonic" and verb in ("dimension", "spectrum", "report"):
        cells = max(cells, 3 ** (2 * depth + 1))
    return edges, cells


def run_cli(seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import workloads as wl

    setup = [spawn([sys.executable, "-c", "import gasketlab.cli"], WORK)[0]
             for _ in range(CLI_SETUPS)]
    jobs = wl.cli_jobs(seed)
    block = wl.block_size("cli")

    def run_jobs(tag: str, traced: bool, count=None, budget=None):
        cwd = os.path.join(WORK, tag)
        os.makedirs(cwd)
        done = []
        start = time.perf_counter()
        while len(done) < len(jobs):
            if count is not None and len(done) >= count:
                break
            if count is None and not wl.keep_going(len(done), time.perf_counter() - start,
                                                   budget, block):
                break
            for job in jobs[len(done):len(done) + block]:
                name = os.path.join(cwd, f"op{job['id']:04d}")
                argv = ([sys.executable, os.path.join(HERE, "cli_worker.py"), name + ".spans"]
                        if traced else [sys.executable, "-m", "gasketlab.cli"])
                with open(name + ".out", "w") as out, open(name + ".err", "w") as err:
                    wall, code, rss = spawn(argv + job["argv"], cwd, out, err)
                done.append({"id": job["id"], "kind": job["kind"], "wall": wall,
                             "code": code, "rss": rss, "name": name, "cwd": cwd,
                             "traced": traced})
        return done, time.perf_counter() - start

    passes = []
    for tag, traced, budget in pass_plan(seconds, trace):
        count = len(passes[0][0]) if passes else None
        passes.append(run_jobs(tag, traced, count, budget))
    runs = [r for done, _ in passes for r in done]
    plain = passes[0][0]

    checker = checks.CliChecker()
    ops = []
    for r in runs:
        job = jobs[r["id"]]
        if r["code"] != 0:
            err = read(r["name"] + ".err").strip().splitlines()
            reason = f"exit {r['code']}: {err[-1] if err else ''}"
        else:
            try:
                reason = checker.check(job, r["cwd"], read(r["name"] + ".out"))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        ops.append({"id": r["id"], "kind": r["kind"], "wall": r["wall"],
                    "traced": r["traced"], "reason": reason})

    from gasketlab.geometry import edge_cap

    sizes = [job_size(jobs[r["id"]]) for r in plain]
    out = {
        "jobs": jobs, "ops": ops, "setup": setup, "rss": max(r["rss"] for r in plain),
        "elapsed": [elapsed for _, elapsed in passes], "ladders": [0, 0],
        "intervals": checker.intervals,
        "size": {"edges_built_per_op": sum(e for e, _ in sizes) / len(sizes),
                 "max_edges_built": max(e for e, _ in sizes),
                 "cap_usage": max(e for e, _ in sizes) / edge_cap(),
                 "harmonic_table_cells_max": max(c for _, c in sizes)},
    }
    if trace:
        import tracer

        profile = tracer.Profile()
        spans_out = []
        traced = passes[1][0]
        for r in traced:
            path = r["name"] + ".spans"
            if not os.path.exists(path):
                continue
            doc = json.loads(read(path))
            for span in doc["spans"]:
                span[4] = r["id"]
            profile.add(doc["spans"], {r["id"]: r["kind"]})
            profile.add_caches(doc["caches"])
            profile.import_by_op[r["id"]] = doc["import_s"]
            spans_out.append({"op": r["id"], "spans": doc["spans"]})
        out.update(profile=profile, spans=spans_out,
                   traced_walls={r["id"]: r["wall"] for r in traced})
    return out


# ---------------------------------------------------------------------------
# records and metrics
# ---------------------------------------------------------------------------


def health(intervals: dict, ladders: list) -> dict:
    """Harmonic dimension intervals at depths 5 and 6, and ladder flags."""
    from checks import interval

    rec = {}
    for depth in (5, 6):
        if depth not in intervals:
            path = os.path.join(WORK, f"health{depth}.out")
            with open(path, "w") as out:
                _, code, _ = spawn([sys.executable, "-m", "gasketlab.cli", "dimension",
                                    "--variant", "harmonic", "--depth", str(depth)],
                                   WORK, out)
            if code != 0:
                raise BenchError(f"harmonic dimension at depth {depth} failed")
            intervals[depth] = interval(read(path))
        lo, hi = intervals[depth]
        rec[f"depth{depth}"] = {"lower": lo, "upper": hi, "width": hi - lo,
                                "midpoint": (lo + hi) / 2}
    (lo5, hi5), (lo6, hi6) = intervals[5], intervals[6]
    rec["nested"] = lo5 <= lo6 <= hi6 <= hi5
    rec["disjoint"] = hi5 < lo6 or hi6 < lo5
    rec["unconverged_ladders"] = ladders[0]
    rec["ladders"] = ladders[1]
    rec["ladders_note"] = "kh_dixmier_ratio discards its ladder flags; not counted"
    return rec


def provenance(seed: int, jobs: list) -> dict:
    import numpy
    import workloads as wl

    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"seed": seed, "jobs_digest": wl.digest(jobs), "jobs_listed": len(jobs),
            "git_commit": commit, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "nproc": os.cpu_count()}


def end_to_end(res: dict, walls: list) -> dict:
    return {
        "setup_s": statistics.median(res["setup"]),
        "ops_per_s": len(walls) / res["elapsed"][0],
        "op_p50_ms": 1000 * statistics.median(walls),
        "op_p90_ms": 1000 * statistics.quantiles(walls, n=10)[8],
        "peak_rss_mb": res["rss"],
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    os.makedirs(RUNS, exist_ok=True)
    try:
        if workload == "session-queries":
            res = run_session(seed, seconds, trace)
        else:
            res = run_cli(seed, seconds, trace)
        rec_health = health(res["intervals"], res["ladders"])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    ops = res["ops"]
    failures = [op for op in ops if op["reason"]]
    walls = [op["wall"] for op in ops if not op["traced"]]
    values = end_to_end(res, walls)
    values["failed_frac"] = len(failures) / len(ops)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_frac"] = "1"
    if trace:
        import tracer
        from gasketlab.geometry import edge_cap

        plain_s, traced_s = res["elapsed"]
        overhead = 1 - plain_s / traced_s
        layer = tracer.per_layer_metrics(res["profile"], res["traced_walls"], edge_cap(),
                                         overhead)
        names = [m["name"] for m in spec["per_layer"]]
        shown = {n: layer[n] for n in names}
        with open(os.path.join(RUNS, f"{workload}-seed{seed}.spans.jsonl"), "w") as fh:
            for row in res["spans"]:
                fh.write(json.dumps(row) + "\n")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        shown = {n: values[n] for n in names}

    record = dict(provenance(seed, res["jobs"]), workload=workload, trace=int(trace),
                  ops=len(walls),
                  beyond_p90=sum(w * 1000 > values["op_p90_ms"] for w in walls),
                  end_to_end=values, health=rec_health, size=res["size"],
                  failures=[{"op": op["id"], "kind": op["kind"], "reason": op["reason"]}
                            for op in failures])
    with open(os.path.join(RUNS, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"== {workload}  seed {seed}  trace {int(trace)}  "
          f"{len(walls)} ops untraced, {len(ops) - len(walls)} traced")
    table = dict(values, **shown) if trace else values
    for name, value in table.items():
        note = ""
        if name == "op_p90_ms":
            note = f"  ({len(walls)} samples, {record['beyond_p90']} beyond p90)"
        elif name == "setup_s":
            note = f"  (median of {len(res['setup'])})"
        elif name == "failed_frac":
            note = f"  ({len(failures)} of {len(ops)} ops failed)"
        print(f"  {name:40s} {value:14.6g} {units[name]}{note}")
    for op in failures:
        print(f"  FAILED op {op['id']} ({op['kind']}): {op['reason']}")
    print("record " + json.dumps({k: record[k] for k in record if k != "failures"}))
    return {"correct": not failures, "attempted": len(ops), "failed": len(failures),
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in shown.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        preflight()
        spec = json.loads(read(os.path.join(ROOT, "BENCHMARK.json")))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {n: run_one(n, args.seed, args.seconds, bool(args.trace), spec)
                   for n in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
