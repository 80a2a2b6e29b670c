"""Job lists of the two workloads, as pure functions of the seed.

Each workload repeats a block of jobs whose kind shares are fixed; the
seed draws only the order of the jobs inside each block and their
inputs.  Runs execute whole blocks, so every run sees the shares exactly
and p50 and p90 always fall inside the same job kinds.

The ``cli`` block is the harmonic job mix (20 jobs: length tables,
embedding, spectrum, SVG polylines) and the flat job mix (20 jobs:
construction, JSON and SVG writes, distances, measures) together, so one
half runs the harmonic layer and the other bypasses it.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

import oracles

# Blocks generated per run: several times what a run uses today, so a
# faster program still has jobs to run; a run ends early if they run out.
N_BLOCKS = {"session-queries": 96, "cli": 24}
WORKLOAD_IDS = {"session-queries": 1, "cli": 2}

SESSION_ALPHA = 0.2
SESSION_LEVEL = 8
SESSION_DEPTH = 5          # harmonic tables filled at setup, read by kh ratios

BLOCKS = {
    "session-queries": {"geodesic_vertex": 11, "geodesic_offnode": 5,
                        "witness": 2, "dixmier": 1, "kh_ratio": 1},
    "cli": {"kh_dimension": 5, "kh_spectrum": 4, "kh_build": 4, "kh_report": 3,
            "compare": 3, "kh_dimension_deep": 1,
            "build_stretched": 5, "build_sg": 2, "report": 3,
            "distance": 4, "measure": 3, "scan": 3},
}


def block_size(workload: str) -> int:
    return sum(BLOCKS[workload].values())


def keep_going(done: int, elapsed: float, budget: float, block: int) -> bool:
    """Start another block only if it is predicted to end inside the budget."""
    return done == 0 or elapsed * (1 + block / done) <= budget


def digest(jobs: list) -> str:
    return hashlib.sha256(json.dumps(jobs, sort_keys=True).encode()).hexdigest()[:16]


def _block_kinds(rng, workload: str) -> list[str]:
    kinds = [k for k, n in BLOCKS[workload].items() for _ in range(n)]
    return [kinds[i] for i in rng.permutation(len(kinds))]


def _rng(workload: str, seed: int):
    return np.random.default_rng([seed, WORKLOAD_IDS[workload]])


# ---------------------------------------------------------------------------
# session-queries
# ---------------------------------------------------------------------------


def session_jobs(seed: int, graph: "oracles.Graph", kinds_of_edges: list) -> list:
    """Library ops on the level-8 stretched model; ``graph`` is built from
    that model's edges in file order."""
    rng = _rng("session-queries", seed)
    n_nodes = len(graph.nodes)
    joining = [i for i, k in enumerate(kinds_of_edges) if k == "stretched-joining"]
    triangle = [i for i, k in enumerate(kinds_of_edges) if k != "stretched-joining"]
    jobs = []

    def vertex():
        i = int(rng.integers(n_nodes))
        return i, graph.nodes[i].tolist()

    for _ in range(N_BLOCKS["session-queries"]):
        for kind in _block_kinds(rng, "session-queries"):
            job = {"id": len(jobs), "kind": kind}
            if kind == "geodesic_vertex":
                (a, p), (b, q) = vertex(), vertex()
                job.update(p=p, q=q, src=a, dst=b)
            elif kind == "geodesic_offnode":
                pool = joining if rng.random() < 0.5 else triangle
                arc = int(pool[rng.integers(len(pool))])
                t = float(rng.uniform(0.05, 0.95))
                u, v = int(graph.u[arc]), int(graph.v[arc])
                point = (graph.nodes[u] + t * (graph.nodes[v] - graph.nodes[u])).tolist()
                b, q = vertex()
                job.update(arc=arc, t=t, vertex=b, joining=pool is joining)
                if rng.random() < 0.5:
                    job.update(p=point, q=q)
                else:
                    job.update(p=q, q=point)
            elif kind == "witness":
                job.update(target=int(rng.integers(n_nodes)), seed=int(rng.integers(2 ** 31)))
            else:
                if kind == "dixmier" and rng.random() < 1 / 3:
                    job.update(f="1", scale=1.0)
                else:
                    job.update(oracles.random_expr(rng, 3 if kind == "kh_ratio" else 2))
            jobs.append(job)
    return jobs


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def _alpha_pool(rng) -> list[float]:
    """Three seeded alphas per run: a repeated input must give identical
    bytes, so each distinct output is checked in full only once."""
    return [round(float(a), 6) for a in rng.uniform(0.05, 0.3, size=3)]


def cli_jobs(seed: int) -> list:
    rng = _rng("cli", seed)
    alphas = _alpha_pool(rng)
    corners = {a: oracles.cell_corners((1 - a) / 2, 7) for a in alphas}
    jobs = []
    for _ in range(N_BLOCKS["cli"]):
        for kind in _block_kinds(rng, "cli"):
            name = f"j{len(jobs):04d}"
            alpha = alphas[int(rng.integers(3))]
            job = {"id": len(jobs), "kind": kind}
            if kind in ("kh_dimension", "kh_dimension_deep"):
                depth = 6 if kind == "kh_dimension_deep" else 5
                argv = ["dimension", "--variant", "harmonic", "--depth", str(depth)]
            elif kind == "kh_spectrum":
                argv = ["spectrum", "--variant", "harmonic", "--depth", "5"]
            elif kind == "kh_build":
                argv = ["build", "--variant", "harmonic", "--level", "5", "--depth", "4",
                        "--out", f"{name}.json", "--svg", f"{name}.svg"]
            elif kind == "kh_report":
                argv = ["report", "--variant", "harmonic", "--level", "5", "--depth", "5",
                        "--out-dir", name]
            elif kind == "compare":
                d = round(float(rng.uniform(1.0, 1.6)), 6)
                argv = ["compare", "--d", repr(d), "--length", "8"]
            elif kind == "build_stretched":
                argv = ["build", "--variant", "stretched", "--alpha", repr(alpha),
                        "--level", "8", "--out", f"{name}.json", "--svg", f"{name}.svg"]
            elif kind == "build_sg":
                argv = ["build", "--variant", "sg", "--level", "8", "--out", f"{name}.json"]
            elif kind == "report":
                argv = ["report", "--variant", "stretched", "--alpha", repr(alpha),
                        "--level", "7", "--out-dir", name]
            elif kind == "distance":
                ends = []
                for _ in range(2):
                    cell = int(rng.integers(3 ** 7))
                    corner = int(rng.integers(3))
                    ends.append(corners[alpha][cell, corner])
                argv = ["distance", "--variant", "stretched", "--alpha", repr(alpha),
                        "--level", "7",
                        "--from", ",".join(repr(float(v)) for v in ends[0]),
                        "--to", ",".join(repr(float(v)) for v in ends[1])]
            elif kind == "measure":
                expr = oracles.random_expr(rng, 2)
                job.update(expr)
                if rng.random() < 0.5:
                    argv = ["measure", "--family", "stretched-joining", "--alpha",
                            repr(alpha), f"--f={expr['f']}", "--n", "9"]
                else:
                    argv = ["measure", "--family", "sg-midpoints", f"--f={expr['f']}",
                            "--n", "9"]
            else:
                pick = int(rng.integers(3))
                if pick == 0:
                    argv = ["dimension", "--variant", "stretched", "--alpha", repr(alpha),
                            "--bracket", "--tol", "1e-9"]
                elif pick == 1:
                    argv = ["spectrum", "--variant", "stretched", "--alpha", repr(alpha)]
                else:
                    argv = ["spectrum", "--variant", "sg"]
            job["argv"] = argv
            jobs.append(job)
    return jobs
