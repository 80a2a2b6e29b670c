"""CLI verbs, file formats, round trips, exit codes, SVG output, the README example."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import edited_model, rows_table

import gasketlab as gl
from gasketlab.cli import main
from gasketlab import harmonic, svg
from gasketlab.geometry import (
    TRIANGLE_EDGE_CORNERS,
    GasketError,
    GasketModel,
    cell_index,
    edge_count,
    sg_hierarchy,
)
from gasketlab.serialize import (
    format_number,
    model_from_json,
    model_to_json,
    read_model,
    write_model,
)
from gasketlab.spectrum import GROWTH_ROUNDING
from gasketlab.svg import render_svg


# -- serialization ------------------------------------------------------------

def test_json_round_trip_is_byte_identical():
    model = gl.build_model("stretched", 2, 0.2)
    text = model_to_json(model)
    again = model_to_json(model_from_json(text))
    assert text == again
    assert model_from_json(text) == model


def test_harmonic_json_carries_length_bounds():
    model = gl.build_model("harmonic", 1, harmonic_depth=2)
    doc = json.loads(model_to_json(model))
    assert doc["variant"] == "harmonic"
    assert "alpha" not in doc
    for e in doc["edges"]:
        assert set(e) == {"id", "kind", "gen", "p", "q", "length", "word",
                          "length_lo", "length_hi"}
        assert len(e["p"]) == 3


def test_field_order_is_fixed():
    text = model_to_json(gl.build_model("stretched", 1, 0.2))
    head = text.splitlines()[0]
    assert head.startswith('{"variant": "stretched", "alpha": ')
    assert '"level": 1' in head
    first_edge = text.splitlines()[1]
    for a, b in zip('"id" "kind" "gen" "p" "q" "length" "word"'.split(),
                    '"kind" "gen" "p" "q" "length" "word"'.split() + [None]):
        if b is not None:
            assert first_edge.index(a) < first_edge.index(b)


@pytest.mark.parametrize("field", ["length", "length_lo", "length_hi"])
@pytest.mark.parametrize("value", [-0.1, math.nan, math.inf, -math.inf])
def test_bad_edge_lengths_are_rejected_on_read(field, value):
    # a negative arc made the shortest-path search run forever: reading
    # must refuse it at once
    model = (gl.build_model("stretched", 1, 0.2) if field == "length"
             else gl.build_model("harmonic", 1, harmonic_depth=2))
    doc = json.loads(model_to_json(model))
    doc["edges"][0][field] = value
    start = time.perf_counter()
    with pytest.raises(GasketError, match="its first line is not a header that build writes"):
        model_from_json(json.dumps(doc))
    assert time.perf_counter() - start < 0.5


def test_zero_edge_length_stays_legal():
    # zero is not a bad length: a model with a zero-length edge writes it and
    # assembles its graph, and its document is refused only as an edit
    model = edited_model(gl.build_model("stretched", 1, 0.2),
                         lambda columns: columns["length"].__setitem__(0, 0.0))
    assert model.edges[0].length == 0.0
    text = model_to_json(model)
    assert '"length": 0, ' in text.splitlines()[1]
    graph = gl.to_metric_graph(model)
    assert min(w for _, _, w, _ in graph.arcs) == 0.0 and not graph.weights_positive
    with pytest.raises(GasketError, match="its bytes differ"):
        model_from_json(text)


def test_numbers_have_17_significant_digits():
    assert format_number(0.2) == "0.20000000000000001"
    assert format_number(1.0) == "1"
    assert float(format_number(np.pi)) == np.pi


# -- svg -----------------------------------------------------------------------

def test_svg_line_counts():
    assert render_svg(gl.build_model("sg", 3)).count("<line ") == 81
    text = render_svg(gl.build_model("stretched", 2, 0.2))
    assert text.count("<line ") == 39


def test_svg_harmonic_uses_polylines():
    text = render_svg(gl.build_model("harmonic", 1, harmonic_depth=2))
    assert text.count("<polyline ") == 9
    assert text.count("<line ") == 0


def test_svg_of_empty_model_is_valid():
    text = render_svg(GasketModel("sg", None, 0, rows_table(())))
    assert text.startswith("<?xml")
    assert "<line" not in text and "<polyline" not in text
    assert "</svg>" in text


def mesh_edge_segments(model):
    """Per-edge polylines read off the level gen+4 mesh, one edge at a time."""
    depth = svg._POLYLINE_DEPTH
    segments = []
    for e in model.edges:
        level = len(e.word) + depth
        i, j = TRIANGLE_EDGE_CORNERS[e.id % 3]
        rows = (cell_index(e.word) * 3 ** depth
                + harmonic._dyadic_offsets(i, j, depth))
        corners = sg_hierarchy(level)[level].cells[rows]
        phis = harmonic.phi_coordinates(level)
        pts = np.concatenate([phis[corners[:, i]], phis[corners[-1:, j]]])
        segments.append(svg._project_plane(pts))
    return segments


def test_svg_harmonic_matches_per_edge_mesh_route(monkeypatch):
    model = gl.build_model("harmonic", 4, harmonic_depth=4)
    text = render_svg(model)
    monkeypatch.setattr(svg, "_model_segments", mesh_edge_segments)
    assert render_svg(model) == text


def per_edge_render_svg(model):
    """Render one edge at a time: a to_pixels copy and four _coord calls per line."""
    if model.variant == "harmonic":
        segments = list(svg._model_segments(model))
    else:
        segments = [np.array([e.p, e.q]) for e in model.edges]
    if len(segments):
        allpts = np.concatenate(segments)
        lo, hi = allpts.min(axis=0), allpts.max(axis=0)
    else:
        lo, hi = np.zeros(2), np.ones(2)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.05 * span.max()
    lo = lo - margin
    span = span + 2 * margin
    scale = 800 / span[0]
    height = int(round(span[1] * scale))

    def to_pixels(pts):
        out = (pts - lo) * scale
        out[:, 1] = height - out[:, 1]
        return out

    c = svg._coord
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" '
        f'height="{height}" viewBox="0 0 800 {height}">',
        '<g stroke="black" stroke-width="0.50000000" fill="none">',
    ]
    for seg in segments:
        px = to_pixels(seg.copy())
        if len(px) == 2:
            lines.append(f'<line x1="{c(px[0, 0])}" y1="{c(px[0, 1])}" '
                         f'x2="{c(px[1, 0])}" y2="{c(px[1, 1])}"/>')
        else:
            coords = " ".join(f"{c(x)},{c(y)}" for x, y in px)
            lines.append(f'<polyline points="{coords}"/>')
    lines += ["</g>", "</svg>"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("make", [
    lambda: gl.build_model("sg", 8),
    lambda: gl.build_model("stretched", 8, 0.2),
    lambda: gl.build_model("harmonic", 5),
    lambda: GasketModel("sg", None, 0, rows_table(())),
], ids=["sg-8", "stretched-8", "harmonic-5", "empty"])
def test_svg_matches_per_edge_route(make):
    model = make()
    # line lists: pytest explains a mismatch by its first differing line
    assert render_svg(model).splitlines() == per_edge_render_svg(model).splitlines()


def test_svg_harmonic_from_read_model_matches_built(tmp_path):
    model = gl.build_model("harmonic", 3, harmonic_depth=2)
    path = tmp_path / "kh.json"
    write_model(model, str(path))
    assert render_svg(read_model(str(path))) == render_svg(model)


def test_svg_deterministic():
    a = render_svg(gl.build_model("stretched", 2, 0.25))
    b = render_svg(gl.build_model("stretched", 2, 0.25))
    assert a == b


# -- verbs ----------------------------------------------------------------------

def test_build_verb_writes_schema_file(tmp_path):
    out = tmp_path / "m.json"
    code = main(["build", "--variant", "stretched", "--alpha", "0.2",
                 "--level", "3", "--out", str(out)])
    assert code == 0
    model = read_model(str(out))
    assert model.level == 3 and model.alpha == pytest.approx(0.2)
    # re-serializing the file reproduces it exactly
    assert model_to_json(model) == out.read_text()


def test_build_twice_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["build", "--variant", "sg", "--level", "2",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dimension_verb_prints_closed_form(capsys):
    assert main(["dimension", "--variant", "stretched", "--alpha", "0.2"]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(gl.stretched_dimension(0.2), abs=1e-15)


def run_python(*args, timeout=120):
    """Run a new interpreter that imports the sources under test."""
    src = str(Path(gl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def test_bracket_at_zero_tolerance_ends_and_encloses_the_closed_form():
    # a fresh process with a timeout: a bisection that cannot meet its
    # tolerance would hang an in-process call
    done = run_python("-m", "gasketlab.cli", "dimension", "--variant", "stretched",
                      "--alpha", "0.2", "--bracket", "--tol", "0", timeout=60)
    assert done.returncode == 0
    closed, bracket = done.stdout.splitlines()[-2:]
    name, lo, hi = bracket.split(",")
    assert name == "bracket"
    lo, hi = float(lo), float(hi)
    assert lo <= float(closed) <= hi
    assert hi - lo <= 2 * GROWTH_ROUNDING * hi + 2 * math.ulp(hi)


def test_nan_bracket_tolerance_is_usage_error(capsys):
    # NaN compares false, so the bisection never ran and the verb printed
    # the untouched p_range as its bracket
    assert main(["dimension", "--variant", "stretched", "--alpha", "0.2",
                 "--bracket", "--tol", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --tol nan")


def test_negative_bracket_tolerance_acts_as_zero(capsys):
    argv = ["dimension", "--variant", "stretched", "--alpha", "0.2", "--bracket", "--tol"]
    assert main([*argv, "-1"]) == 0
    negative = capsys.readouterr().out
    assert main([*argv, "0"]) == 0
    assert capsys.readouterr().out == negative


@pytest.mark.parametrize("tol", ["1e-3", "1e-6", "1e-12", "0"])
def test_sg_bracket_encloses_the_closed_form(capsys, tol):
    # --bracket printed nothing for sg and exited 0
    assert main(["dimension", "--variant", "sg", "--bracket", "--tol", tol]) == 0
    closed, bracket = capsys.readouterr().out.splitlines()
    name, lo, hi = bracket.split(",")
    assert closed == "1.5849625007211563" and name == "bracket"
    assert float(lo) <= math.log2(3) <= float(hi)
    assert float(hi) - float(lo) <= max(float(tol), 2 * GROWTH_ROUNDING * float(hi)
                                        + 2 * math.ulp(float(hi)))


def test_harmonic_bracket_is_usage_error(capsys):
    # the harmonic dimension is an interval with no length spectrum to bracket
    assert main(["dimension", "--variant", "harmonic", "--bracket"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --bracket does not apply to the harmonic variant\n"


def test_dimension_verb_harmonic_interval(capsys):
    assert main(["dimension", "--variant", "harmonic", "--depth", "2"]) == 0
    lo, hi = (float(v) for v in capsys.readouterr().out.strip().split(","))
    assert 1.0 <= lo <= hi <= 2.1507


@pytest.mark.parametrize("verb", ["dimension", "spectrum", "report"])
def test_harmonic_depth_below_two_is_usage_error(tmp_path, capsys, verb):
    # each verb exited 1 with "growth root needs at least 3 generations";
    # report had written model.json and model.svg by then
    extra = ["--level", "1", "--out-dir", str(tmp_path)] if verb == "report" else []
    assert main([verb, "--variant", "harmonic", "--depth", "1", *extra]) == 2
    assert capsys.readouterr() == ("", "usage error: --depth 1: the harmonic dimension "
                                   "needs depth >= 2\n")
    assert list(tmp_path.iterdir()) == []
    # build only samples curves at that depth, which stays legal
    assert main(["build", "--variant", "harmonic", "--level", "1", "--depth", "1",
                 "--out", str(tmp_path / "kh.json")]) == 0


def test_harmonic_build_depth_below_one_is_usage_error(tmp_path, capsys):
    # it exited 1 with "subdivision depth must be >= 1"
    out = tmp_path / "kh.json"
    for depth in ("0", "-3"):
        assert main(["build", "--variant", "harmonic", "--depth", depth,
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"usage error: --depth {depth}: the harmonic "
                                       "edge-length bounds need depth >= 1\n")
    assert not out.exists()


@pytest.mark.parametrize("verb", ["build", "dimension", "spectrum", "report"])
@pytest.mark.parametrize("variant", [["sg"], ["stretched", "--alpha", "0.2"]])
def test_depth_is_usage_error_for_the_flat_variants(tmp_path, capsys, verb, variant):
    # the flat variants read no depth, and every verb ignored the flag
    extra = {"build": ["--out", str(tmp_path / "m.json")],
             "report": ["--out-dir", str(tmp_path / "r")]}.get(verb, [])
    for depth in ("5", "-5"):
        assert main([verb, "--variant", *variant, "--depth", depth, *extra]) == 2
        assert capsys.readouterr() == ("", "usage error: --depth does not apply to the "
                                       f"{variant[0]} variant\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("variant", [["sg"], ["stretched", "--alpha", "0.2"],
                                     ["harmonic", "--depth", "2"]])
def test_tolerance_without_bracket_is_usage_error(capsys, variant):
    # --tol is read only by the bracket: without it the verb printed the
    # dimension and exited 0
    for tol in ("5", "1e-9", "nan"):
        assert main(["dimension", "--variant", *variant, "--tol", tol]) == 2
        assert capsys.readouterr() == ("", "usage error: --tol applies only with --bracket\n")


def test_distance_verb(capsys):
    assert main(["distance", "--variant", "stretched", "--alpha", "0.2",
                 "--from", "0,0", "--to", "1,0", "--level", "4"]) == 0
    dist, level, err = capsys.readouterr().out.strip().split(",")
    assert float(dist) == pytest.approx(1.0, abs=1e-12)
    assert level == "4"
    assert float(err) == 0.0


def test_distance_path_output(tmp_path, capsys):
    out = tmp_path / "path.json"
    assert main(["distance", "--variant", "sg", "--from", "0,0", "--to", "1,0",
                 "--level", "2", "--path-out", str(out)]) == 0
    capsys.readouterr()
    path = json.loads(out.read_text())
    assert len(path) == 5              # four quarter edges along the bottom
    assert all(isinstance(i, int) for i in path)


def test_measure_verb(capsys):
    assert main(["measure", "--family", "stretched-joining", "--alpha", "0.2",
                 "--f", "1", "--n", "3", "--n-min", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,functional,f_expr,value"
    assert len(lines) == 4
    for row in lines[1:]:
        n, family, expr_text, value = row.split(",")
        assert family == "stretched-joining" and expr_text == "1"
        assert float(value) == pytest.approx(1.0, abs=1e-14)


def test_compare_verb(capsys):
    assert main(["compare", "--d", "1.5", "--length", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"L", "d", "min", "max", "ratio"}
    assert doc["ratio"] > 1.0


@pytest.mark.parametrize("d", ["nan", "inf"])
def test_compare_refuses_a_non_finite_d(capsys, d):
    # nan printed "d": NaN, which is not JSON, and inf a NaN ratio; both exited 0
    assert main(["compare", "--d", d, "--length", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: dimension parameter d must be positive and finite")


@pytest.mark.parametrize("d,length", [("100", "8"), ("1e308", "1")])
def test_compare_refuses_a_d_whose_smallest_mass_underflows(capsys, d, length):
    # the zero minimum printed "ratio": Infinity (or NaN), which is not JSON,
    # and exited 0
    assert main(["compare", "--d", d, "--length", length]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the smallest cell mass underflows to 0")


@pytest.mark.parametrize("eps", ["inf", "nan", "0", "-1"])
def test_spectrum_eps_start_must_be_finite_and_positive(capsys, eps):
    # inf printed inf,nan,0,nan rows and exited 0; 0 and -1 died with
    # "trace diverges" and exit 1
    assert main(["spectrum", "--variant", "sg", "--eps-start", eps, "--rungs", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --eps-start")


@pytest.mark.parametrize("argv,eps", [
    (["stretched", "--alpha", "0.2", "--rungs", "52"], 0.1 * 0.5 ** 51),
    (["stretched", "--alpha", "0.05", "--rungs", "56"], 0.1 * 0.5 ** 55),
    (["sg", "--rungs", "51"], 0.1 * 0.5 ** 50), (["sg", "--rungs", "100"], 0.1 * 0.5 ** 99),
    (["harmonic", "--depth", "2", "--rungs", "51"], 0.1 * 0.5 ** 50),
    (["harmonic", "--depth", "3", "--rungs", "52"], 0.1 * 0.5 ** 51),
    (["harmonic", "--depth", "5", "--rungs", "51"], 0.1 * 0.5 ** 50)])
def test_spectrum_rungs_past_double_resolution_are_usage_errors(capsys, argv, eps):
    # the finest rung no longer moves p = d (1 + eps) off d: sg and stretched
    # exited 1 with "trace diverges for p <= d, got d", and harmonic (d the
    # interval midpoint) exited 0 with last rows at s = 1 and residue 0;
    # 50 rungs still print
    assert main(["spectrum", "--variant", *argv]) == 2
    assert capsys.readouterr() == ("", f"usage error: --rungs {argv[-1]}: the finest rung, "
                                   f"eps = {eps!r}, no longer moves p = d (1 + eps) off d "
                                   "in double precision\n")
    assert main(["spectrum", "--variant", *argv[:-1], "50"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 51


@pytest.mark.parametrize("argv,p", [
    (["sg", "--eps-start", "391"], math.log(3.0) / math.log(2.0) * 392.0),
    (["sg", "--eps-start", "700"], math.log(3.0) / math.log(2.0) * 701.0),
    (["harmonic", "--depth", "2", "--eps-start", "600"], None)])
def test_spectrum_refuses_a_p_whose_curve_trace_overflows(capsys, argv, p):
    # pi^p overflows past p ~ 620: sg printed 392,0,0,0 (c(p) is about
    # 1e-122 there) or 701,nan,0,nan with a numpy warning, and exited 0
    assert main(["spectrum", "--variant", *argv, "--rungs", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    got = re.escape(str(p)) if p else r"[\d.]+"
    assert re.fullmatch(r"error: curve trace needs p <= 620\.04\d+, past which pi\^p "
                        rf"overflows a double, got {got}\n", err), err


@pytest.mark.parametrize("argv,digest", [
    ("dimension --variant sg", "40ed5a2b53f75860"),
    ("dimension --variant stretched --alpha 0.2 --bracket --tol 1e-9", "eabb81aa502936dc"),
    ("spectrum --variant sg", "a3bc522f053293b9"),
    ("spectrum --variant stretched --alpha 0.05 --rungs 12", "2b10b2c5166f3cba"),
    ("spectrum --variant stretched --alpha 0.3 --eps-start 0.4", "6cea3d13a0e8b090"),
    ("dimension --variant harmonic --depth 4", "0b5c0ccd63bf98d2"),
    ("build --variant sg --level 5 --out {dir}/m.json --svg {dir}/m.svg",
     {"m.json": "f4e424a9daac9db5", "m.svg": "c2826b14cee0cfd3"}),
    ("build --variant stretched --alpha 0.2 --level 4 --out {dir}/m.json --svg {dir}/m.svg",
     {"m.json": "1938ea3b7ccf096c", "m.svg": "5e3b0487f7cf0c54"}),
    ("build --variant harmonic --level 3 --depth 3 --out {dir}/m.json --svg {dir}/m.svg",
     {"m.json": "fdaf09e3f4a7b24e", "m.svg": "8baa67073a344e69"}),
    ("distance --variant stretched --alpha 0.2 --level 5 --from 0,0 --to 1,0 "
     "--path-out {dir}/path.json",
     {"stdout": "914d67033f8413f5", "path.json": "b7f56e5828d14201"}),
    ("measure --family harmonic-midpoints --f x^2-y --n 4 --n-min 1",
     {"stdout": "d8b259bf06a50321"}),
    ("compare --d 1.5 --length 6", {"stdout": "817c4bc737ae33a4"}),
    ("report --variant harmonic --level 4 --depth 4 --out-dir {dir}/r",
     {"r/dimension.csv": "c1e8406fc8f5c038", "r/model.json": "8ead874d0bf8274b",
      "r/model.svg": "6e097bd674beb488", "r/spectrum_scan.csv": "aa6150ec5fdf73e2",
      "r/spread.json": "817c4bc737ae33a4"})])
def test_dimension_and_spectrum_stdout_bytes_are_pinned(tmp_path, capsys, argv, digest):
    # the first 16 hex digits of the sha256 of stdout (a plain string digest)
    # or of stdout and every file written (a dict): a rework of the code must
    # leave every printed or written bit in place
    assert main([arg.format(dir=tmp_path) for arg in argv.split()]) == 0
    out = capsys.readouterr().out.encode()
    blobs = ({"stdout": out} if out else {}) | {
        str(path.relative_to(tmp_path)): path.read_bytes()
        for path in tmp_path.rglob("*") if path.is_file()}
    got = {name: hashlib.sha256(blob).hexdigest()[:16] for name, blob in blobs.items()}
    assert got == (digest if isinstance(digest, dict) else {"stdout": digest})


def test_spectrum_verb_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["spectrum", "--variant", "stretched", "--alpha", "0.2",
                 "--rungs", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,trace,tail_bound,residue_running"
    assert len(lines) == 6
    s, trace, tail, running = (float(v) for v in lines[1].split(","))
    assert s == pytest.approx(1.1)
    assert tail == 0.0
    assert running == pytest.approx((s - 1.0) * trace, rel=1e-12)


def test_report_bundle(tmp_path):
    out = tmp_path / "bundle"
    assert main(["report", "--variant", "stretched", "--alpha", "0.2",
                 "--level", "2", "--out-dir", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert {"model.json", "model.svg", "dimension.csv",
            "spectrum_scan.csv", "measures.csv"} <= names


@pytest.mark.parametrize("variant,extra", [
    ("sg", []), ("stretched", ["--alpha", "0.1"]), ("harmonic", ["--depth", "2"]),
])
def test_report_dimension_matches_dimension_verb(tmp_path, capsys, variant, extra):
    out = tmp_path / "bundle"
    assert main(["report", "--variant", variant, *extra, "--level", "1",
                 "--out-dir", str(out)]) == 0
    assert main(["dimension", "--variant", variant, *extra]) == 0
    printed = capsys.readouterr().out.strip()
    header, row = (out / "dimension.csv").read_text().splitlines()
    name, lower, upper = row.split(",")
    assert header == "variant,lower,upper" and name == variant
    assert printed == (f"{lower},{upper}" if variant == "harmonic" else lower)
    if variant == "stretched":
        assert lower == upper == format_number(gl.stretched_dimension(0.1))


@pytest.mark.parametrize("variant,extra", [
    ("stretched", ["--alpha", "0.137"]), ("harmonic", ["--depth", "2"]),
])
def test_report_bundle_matches_standalone_verbs(tmp_path, capsys, variant, extra):
    level = 2
    out = tmp_path / "bundle"
    assert main(["report", "--variant", variant, *extra, "--level", str(level),
                 "--out-dir", str(out)]) == 0
    scan = tmp_path / "scan.csv"
    assert main(["spectrum", "--variant", variant, *extra, "--eps-start", "0.1",
                 "--rungs", "8", "--out", str(scan)]) == 0
    assert (out / "spectrum_scan.csv").read_bytes() == scan.read_bytes()
    capsys.readouterr()
    if variant == "harmonic":
        assert main(["compare", "--d", "1.5", "--length", str(min(level + 2, 6))]) == 0
        assert (out / "spread.json").read_text() == capsys.readouterr().out
        assert not (out / "measures.csv").exists()
        return
    assert not (out / "spread.json").exists()
    want = ["n,functional,f_expr,value"]
    for text in ("1", "x", "y", "x^2", "x*y"):
        assert main(["measure", "--family", "stretched-joining", "--alpha", "0.137",
                     f"--f={text}", "--n", "6", "--n-min", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == want[0]
        want += [r for r in rows[1:] if r.split(",")[0] in ("2", "4", "6")]
    assert (out / "measures.csv").read_text().splitlines() == want


# -- exit codes -------------------------------------------------------------------

def test_missing_alpha_is_usage_error(tmp_path):
    code = main(["build", "--variant", "stretched", "--level", "2",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_bad_point_is_usage_error():
    assert main(["distance", "--variant", "sg", "--from", "zero",
                 "--to", "1,0"]) == 2


def test_computation_error_exits_one():
    assert main(["distance", "--variant", "sg", "--from", "0.5,0.9",
                 "--to", "1,0"]) == 1


def test_off_structure_error_prints_plain_floats(capsys):
    assert main(["distance", "--variant", "stretched", "--alpha", "0.2", "--level", "3",
                 "--from", "0.5,0.5", "--to", "0,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: point (0.5, 0.5) is not on the structure (distance ")
    assert "np." not in captured.err


def test_unknown_flags_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["build", "--variant", "sg", "--bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv,flags", [
    (["spectrum", "--variant", "sg", "--rungs", "0"], ["--rungs"]),
    (["spectrum", "--variant", "stretched", "--alpha", "0.2", "--rungs", "-1"], ["--rungs"]),
    (["measure", "--family", "sg-midpoints", "--f", "1", "--n", "-1"], ["--n-min", "--n "]),
    (["measure", "--family", "harmonic-midpoints", "--f", "x", "--n", "2", "--n-min", "5"],
     ["--n-min", "--n "]),
    (["measure", "--family", "stretched-joining", "--alpha", "0.2", "--f", "1", "--n", "0"],
     ["--n-min", "--n ", "stage 1"]),
])
def test_empty_scan_or_stage_range_is_usage_error(capsys, argv, flags):
    # these printed a header-only CSV and exited 0
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    for flag in flags:
        assert flag in captured.err


@pytest.mark.parametrize("family", ["sg-midpoints", "harmonic-midpoints",
                                    "stretched-joining"])
def test_negative_first_stage_is_usage_error(capsys, family):
    # harmonic-midpoints died with a TypeError traceback, sg-midpoints exited 1
    alpha = ["--alpha", "0.2"] if family == "stretched-joining" else []
    assert main(["measure", "--family", family, *alpha, "--f", "1",
                 "--n", "1", "--n-min", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --n-min -2")


@pytest.mark.parametrize("family,variant", [("sg-midpoints", "sg"),
                                            ("harmonic-midpoints", "sg"),
                                            ("stretched-joining", "stretched")])
def test_measure_holds_the_edge_cap(monkeypatch, capsys, family, variant):
    # each family printed its row and exited 0 past the cap
    monkeypatch.setenv("GASKET_MAX_EDGES", "100")
    alpha = ["--alpha", "0.2"] if family == "stretched-joining" else []
    assert main(["measure", "--family", family, *alpha, "--f", "x",
                 "--n", "8", "--n-min", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    edges = edge_count(variant, 8)
    assert captured.err == f"error: {variant} level 8 needs {edges} edges, cap is 100\n"


def spy_samples(monkeypatch):
    """Record the (family, stage) of every ``measure.functional_sample`` call."""
    from gasketlab import measure

    calls = []
    real = measure.functional_sample

    def spy(tag, n, alpha=None):
        calls.append((tag, n))
        return real(tag, n, alpha)

    monkeypatch.setattr(measure, "functional_sample", spy)
    return calls


def test_measure_refuses_an_over_cap_stage_before_building_any(monkeypatch, capsys):
    # stages 0-8 were built, one after another, before stage 9 was refused
    calls = spy_samples(monkeypatch)
    monkeypatch.setenv("GASKET_MAX_EDGES", "19683")
    assert main(["measure", "--family", "harmonic-midpoints", "--f", "x", "--n", "9"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, calls) == ("", [])
    assert captured.err == "error: sg level 9 needs 59049 edges, cap is 19683\n"


def test_report_builds_each_measure_stage_once(monkeypatch, tmp_path):
    # one sample per (test function, stage): 15 for 5 functions and 3 stages
    calls = spy_samples(monkeypatch)
    assert main(["report", "--variant", "stretched", "--alpha", "0.2", "--level", "1",
                 "--out-dir", str(tmp_path)]) == 0
    assert calls == [("stretched-joining", n) for n in (2, 4, 6)]
    rows = (tmp_path / "measures.csv").read_text().splitlines()
    assert [row.split(",")[:3] for row in rows[1:]] == [
        [str(n), "stretched-joining", f] for f in ("1", "x", "y", "x^2", "x*y")
        for n in (2, 4, 6)]


@pytest.mark.parametrize("text,message", [
    ("1.2.3", "malformed number '1.2.3' (at position 0)"),
    (".", "malformed number '.' (at position 0)"),
    ("1e+", "malformed number '1e+' (at position 0)"),
    ("1e5e5", "malformed number '1e5e5' (at position 0)"),
    ("x+1.5.2", "malformed number '1.5.2' (at position 2)"),
    ("1e400", "result not finite at 3 of 3 points"),
    ("1e400-1e400", "result not finite at 3 of 3 points"),
    ("x^-400", "result not finite at 1 of 9 points"),
])
def test_measure_refuses_a_malformed_or_infinite_test_function(capsys, text, message):
    # malformed numbers died with a ValueError traceback; the infinite ones
    # printed inf or nan rows with numpy RuntimeWarnings and exited 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["measure", "--family", "sg-midpoints", f"--f={text}",
                     "--n", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_installed_entry_point_refuses_a_malformed_number_without_a_traceback():
    done = run_python("-m", "gasketlab.cli", "measure", "--family", "sg-midpoints",
                      "--f", "1.2.3", "--n", "1")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "error: malformed number '1.2.3' (at position 0)\n"


@pytest.mark.parametrize("text,position", [
    ("(" * 300 + "x" + ")" * 300, 100),
    ("-" * 1200 + "x", 100),
    ("+".join(["x"] * 3000), 201),      # parses flat; evaluate recursed per node
], ids=["parentheses", "unary-minus", "sum-chain"])
def test_measure_refuses_a_deep_test_function_without_a_traceback(text, position):
    # each ended in a bare RecursionError traceback
    done = run_python("-m", "gasketlab.cli", "measure", "--family", "sg-midpoints",
                      f"--f={text}", "--n", "1")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == ("error: expression nested deeper than 100 levels "
                           f"(at position {position})\n")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the process's own VmHWM")
def test_a_level_10_build_with_svg_peaks_below_120_mb(tmp_path):
    # VmHWM is this interpreter's own peak; ru_maxrss would also count the
    # parent's pages from before the fork.  Whole strings peaked at 233 MB.
    code = ("import sys\n"
            "from gasketlab.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as fh:\n"
            "    peak = next(line for line in fh if line.startswith('VmHWM:'))\n"
            "print(code, int(peak.split()[1]) / 1024)\n")
    out = fresh_python(code, "build", "--variant", "stretched", "--alpha", "0.2",
                       "--level", "10", "--out", str(tmp_path / "m.json"),
                       "--svg", str(tmp_path / "m.svg"))
    code, peak_mb = out.split()
    assert code == "0"
    assert float(peak_mb) < 120
    assert (tmp_path / "m.json").stat().st_size > 0 and (tmp_path / "m.svg").stat().st_size > 0


# -- import footprint ---------------------------------------------------------------

def fresh_python(code, *args):
    """stdout of ``code`` run in a new interpreter, which must succeed."""
    done = run_python("-c", code, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


# prints the loaded package modules on one last line
LOADED = ("import sys\n"
          "print(' '.join(sorted(m for m in sys.modules"
          " if m.split('.')[0] == 'gasketlab')))\n")


def package(*modules):
    return ["gasketlab"] + [f"gasketlab.{m}" for m in sorted(modules)]


def test_importing_the_cli_loads_only_geometry():
    loaded = fresh_python("import gasketlab.cli\n" + LOADED).split()
    assert loaded == package("cli", "geometry")


@pytest.mark.parametrize("argv,modules", [
    (["build", "--variant", "sg", "--level", "2", "--out", "m.json"],
     "serialize"),
    (["build", "--variant", "stretched", "--alpha", "0.2", "--level", "2",
      "--out", "m.json", "--svg", "m.svg"], "serialize svg"),
    (["build", "--variant", "harmonic", "--level", "1", "--depth", "2",
      "--out", "m.json", "--svg", "m.svg"], "harmonic serialize svg"),
    (["distance", "--variant", "sg", "--from", "0,0", "--to", "1,0", "--level", "2",
      "--path-out", "p.json"], "metric serialize"),
    (["dimension", "--variant", "stretched", "--alpha", "0.2", "--bracket"],
     "serialize spectrum"),
    (["dimension", "--variant", "harmonic", "--depth", "2"],
     "harmonic serialize spectrum"),
    (["spectrum", "--variant", "sg", "--rungs", "3"], "serialize spectrum"),
    (["measure", "--family", "sg-midpoints", "--f", "x", "--n", "2"],
     "expr harmonic measure serialize spectrum"),
    (["compare", "--d", "1.5", "--length", "3"], "harmonic measure spectrum"),
    (["report", "--variant", "sg", "--level", "1", "--out-dir", "r"],
     "serialize spectrum svg"),
    (["report", "--variant", "stretched", "--alpha", "0.2", "--level", "1",
      "--out-dir", "r"], "expr harmonic measure serialize spectrum svg"),
], ids=lambda v: ("-".join(a.lstrip("-") for a in v[:3]) if isinstance(v, list)
                 else v.replace(" ", "+")))
def test_each_verb_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    # each process compiles only what its verb runs: e.g. distance loads no
    # measure, expr, spectrum or svg, and a flat build no metric or spectrum
    code = ("import os, sys\n"
            "from gasketlab.cli import main\n"
            "os.chdir(sys.argv[1])\n"
            "assert main(sys.argv[2:]) == 0\n")
    loaded = fresh_python(code + LOADED, str(tmp_path), *argv).splitlines()[-1]
    assert loaded.split() == package("cli", "geometry", *modules.split())


# the package's public names by defining module, as its __init__ imported
# them before they resolved on first use
EXPORTS = {
    "geometry": "EdgeCurve GasketError GasketModel ResourceCapError build_model",
    "harmonic": "harmonic_structure",
    "metric": "GeodesicResult MetricGraph geodesic lipschitz_witness_check to_metric_graph",
    "measure": "FunctionalSample dixmier_functional functional_sample "
               "selfaffine_mass_spread",
    "spectrum": "DimensionEstimate DivergenceError LengthSpectrum ResidueResult "
                "abscissa_bracket curve_trace curve_trace_constant kh_dimension_interval "
                "residue_estimate riemann_zeta sg_length_spectrum spectrum_trace "
                "stretched_dimension stretched_dixmier_constant stretched_length_spectrum",
    "expr": "TestFunction parse_expr",
}


def test_package_names_resolve_to_their_modules_objects():
    code = (
        "import json, sys\n"
        "import gasketlab\n"
        "exports = json.loads(sys.argv[1])\n"
        "assert not [m for m in sys.modules if m.startswith('gasketlab.')]\n"
        "for module, names in exports.items():\n"
        "    values = [getattr(gasketlab, name) for name in names.split()]\n"
        "    mod = sys.modules['gasketlab.' + module]\n"
        "    for name, value in zip(names.split(), values):\n"
        "        assert value is getattr(mod, name) is vars(gasketlab)[name], name\n"
        "for module in ('svg', 'serialize', 'cli') + tuple(exports):\n"
        "    assert getattr(gasketlab, module) is sys.modules['gasketlab.' + module]\n"
        "star = {}\n"
        "exec('from gasketlab import *', star)\n"
        "print(' '.join(sorted(set(star) - {'__builtins__'})))\n"
        "print(gasketlab.__version__)\n"
        "try:\n"
        "    gasketlab.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    names = sorted(" ".join(EXPORTS.values()).split())
    assert len(names) == 32
    star, version, missing = fresh_python(code, json.dumps(EXPORTS)).splitlines()
    assert star.split() == names
    assert version == "0.1.0"
    assert missing == "module 'gasketlab' has no attribute 'no_such_name'"


# -- README -------------------------------------------------------------------

def test_readme_library_block_runs_and_matches_its_comments():
    # the whole block runs; each line whose comment starts with a number
    # must give it, to 1e-12 or (125.6) to the digits shown
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library in one minute\n\n```python\n")[1].split("```")[0]
    namespace = {}
    exec(block, namespace)
    stated = re.findall(r"^(\S.*?)\s+# ([\d.]+)", block, re.M)
    assert [number for _, number in stated] == ["1.0", "1.19897784671579", "6.0", "125.6"]
    for source, number in stated:
        value = eval(source, namespace)
        assert abs(value - float(number)) <= (0.05 if number == "125.6" else 1e-12), number
