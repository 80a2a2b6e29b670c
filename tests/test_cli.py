"""CLI verbs, file formats, round trips, exit codes, SVG output."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gasketlab as gl
from gasketlab.cli import main
from gasketlab import harmonic, svg
from gasketlab.geometry import (
    TRIANGLE_EDGE_CORNERS,
    EdgeTable,
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
    with pytest.raises(GasketError, match="edge 0: lengths must be finite"):
        model_from_json(json.dumps(doc))
    assert time.perf_counter() - start < 0.5


def test_zero_edge_length_stays_legal():
    doc = json.loads(model_to_json(gl.build_model("stretched", 1, 0.2)))
    doc["edges"][0]["length"] = 0.0
    assert model_from_json(json.dumps(doc)).edges[0].length == 0.0


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
    text = render_svg(GasketModel("sg", None, 0, EdgeTable.from_rows(())))
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


def per_edge_render_svg(model, width=800):
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
    scale = width / span[0]
    height = int(round(span[1] * scale))

    def to_pixels(pts):
        out = (pts - lo) * scale
        out[:, 1] = height - out[:, 1]
        return out

    c = svg._coord
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<g stroke="black" stroke-width="{c(max(width / 1600.0, 0.25))}" fill="none">',
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
    lambda: GasketModel("sg", None, 0, EdgeTable.from_rows(())),
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


def test_dimension_verb_harmonic_interval(capsys):
    assert main(["dimension", "--variant", "harmonic", "--depth", "2"]) == 0
    lo, hi = (float(v) for v in capsys.readouterr().out.strip().split(","))
    assert 1.0 <= lo <= hi <= 2.1507


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
    "geometry": "AffineMap EdgeCurve GasketError GasketModel ResourceCapError Word "
                "build_model compose_word generator_map",
    "harmonic": "harmonic_structure",
    "metric": "GeodesicResult MetricGraph geodesic lipschitz_witness_check to_metric_graph",
    "measure": "FunctionalSample dixmier_functional functional_sample "
               "harmonic_midpoint_functional joining_edge_functional "
               "selfaffine_mass_spread sg_midpoint_functional",
    "spectrum": "DimensionEstimate DivergenceError LengthSpectrum ResidueResult "
                "abscissa_bracket curve_trace curve_trace_constant kh_dimension_interval "
                "residue_estimate riemann_zeta sg_length_spectrum spectral_dimension "
                "spectrum_trace stretched_dimension stretched_dixmier_constant "
                "stretched_length_spectrum",
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
    assert len(names) == 40
    star, version, missing = fresh_python(code, json.dumps(EXPORTS)).splitlines()
    assert star.split() == names
    assert version == "0.1.0"
    assert missing == "module 'gasketlab' has no attribute 'no_such_name'"
