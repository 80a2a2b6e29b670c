"""The columnar edge table: row views, content equality and hashing, the
columnar JSON writer against a per-edge reference, and the reader, which
rebuilds a written document or refuses it."""

import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from conftest import edited_model, rows_table
from test_cli import per_edge_render_svg
from test_geometry import per_edge_rows
from test_harmonic import per_edge_harmonic_rows

import gasketlab as gl
from gasketlab import geometry, metric, serialize, svg
from gasketlab.geometry import EdgeCurve, GasketError, GasketModel
from gasketlab.serialize import (
    format_number,
    model_from_json,
    model_to_json,
    read_model,
    write_model,
)
from gasketlab.svg import emit_svg, render_svg


def per_edge_json(variant, alpha, level, rows, depth=None):
    """The per-edge writer, one f-string per field, as the reference."""
    def point(values):
        return "[" + ", ".join(format_number(v) for v in values) + "]"

    def edge(e):
        fields = [f'"id": {e.id}', f'"kind": {json.dumps(e.kind)}', f'"gen": {e.gen}',
                  f'"p": {point(e.p)}', f'"q": {point(e.q)}',
                  f'"length": {format_number(e.length)}', f'"word": {json.dumps(e.word)}']
        if e.length_lo is not None:
            fields += [f'"length_lo": {format_number(e.length_lo)}',
                       f'"length_hi": {format_number(e.length_hi)}']
        return "{" + ", ".join(fields) + "}"

    head = [f'"variant": {json.dumps(variant)}']
    if alpha is not None:
        head.append(f'"alpha": {format_number(alpha)}')
    head.append(f'"level": {level}')
    if depth is not None:
        head.append(f'"depth": {depth}')
    lines = ["{" + ", ".join(head) + ', "edges": [']
    body = ",\n".join("  " + edge(e) for e in rows)
    if body:
        lines.append(body)
    lines.append("]}")
    return "\n".join(lines) + "\n"


def per_edge_read(doc):
    """The rows of a ``json.loads`` document, field by field."""
    return tuple(EdgeCurve(int(e["id"]), str(e["kind"]), int(e["gen"]),
                           tuple(float(v) for v in e["p"]),
                           tuple(float(v) for v in e["q"]), float(e["length"]),
                           str(e["word"]),
                           float(e["length_lo"]) if "length_lo" in e else None,
                           float(e["length_hi"]) if "length_hi" in e else None)
                 for e in doc["edges"])


def reference_rows(variant, level):
    if variant == "harmonic":
        return per_edge_harmonic_rows(level, 4)
    return per_edge_rows(variant, level, 0.2 if variant == "stretched" else None)


def build(variant, level):
    return gl.build_model(variant, level, 0.2 if variant == "stretched" else None)


@pytest.fixture
def rows_made(monkeypatch):
    """Counts every ``EdgeCurve`` built while the test runs."""
    made = []
    init = EdgeCurve.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(EdgeCurve, "__init__", counting)
    return made


# -- writer and reader round trip ---------------------------------------------

@pytest.mark.parametrize("variant,level",
                         [(v, level) for v in ("sg", "stretched", "harmonic")
                          for level in range(7)] + [("stretched", 7)])
def test_json_matches_the_per_edge_writer_and_round_trips(variant, level):
    model = build(variant, level)
    text = model_to_json(model)
    rows = reference_rows(variant, level)
    depth = 4 if variant == "harmonic" else None     # build_model's default depth
    assert text == per_edge_json(variant, model.alpha, level, rows, depth)
    read = model_from_json(text)
    assert model_to_json(read) == text
    assert read == model and tuple(read.edges) == rows


def test_writer_keeps_the_sign_of_zero():
    rows = list(build("stretched", 1).edges)
    rows[1] = EdgeCurve(1, rows[1].kind, 0, (0.4, -0.0), rows[1].q, -0.0, "")
    text = model_to_json(GasketModel("stretched", 0.2, 1, rows_table(rows)))
    assert text == per_edge_json("stretched", 0.2, 1, rows)
    assert '"p": [0.40000000000000002, -0], "q": [0.59999999999999998, 0], "length": -0,' in text


# -- a written document is rebuilt and checked, not parsed ------------------------

def _bits(model):
    """Everything a model holds, numbers as their bytes (so -0.0 != 0.0)."""
    e = model.edges
    numbers = (e.id, e.gen, e.p, e.q, e.length, e.length_lo, e.length_hi)
    return (model.variant, type(model.alpha), np.float64(model.alpha or 0.0).tobytes(),
            type(model.level), model.level, model.depth, e.kind, e.word,
            *(None if c is None else (c.dtype.str, c.shape, c.tobytes()) for c in numbers))


@pytest.fixture
def builds(monkeypatch):
    """Counts the reader's calls of ``build_model``."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return gl.build_model(*args, **kwargs)

    monkeypatch.setattr(serialize, "build_model", counting)
    return calls


@pytest.mark.parametrize("level", range(8))
@pytest.mark.parametrize("variant, alpha", [("sg", None)] + [
    ("stretched", a) for a in (1e-9, 0.05, 0.13, 0.2, 0.3)])
def test_rebuilt_model_is_the_parsed_model_bit_for_bit(variant, alpha, level, builds):
    text = model_to_json(gl.build_model(variant, level, alpha))
    rebuilt = model_from_json(text)
    assert builds == [(variant, level, alpha)]
    # the parse is this test's own: json.loads, then one row per edge
    parsed = GasketModel(variant, alpha, level, rows_table(per_edge_read(json.loads(text))))
    assert _bits(rebuilt) == _bits(parsed)
    metric._graph_of_model.cache_clear()
    assert metric.to_metric_graph(rebuilt) is metric.to_metric_graph(parsed)
    info = metric._graph_of_model.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


@pytest.mark.parametrize("level", range(6))
@pytest.mark.parametrize("depth", range(1, 6))
def test_harmonic_documents_read_back_at_their_depth(depth, level, builds):
    model = gl.build_model("harmonic", level, harmonic_depth=depth)
    text = model_to_json(model)
    assert text.startswith(f'{{"variant": "harmonic", "level": {level}, "depth": {depth}, ')
    read = model_from_json(text)
    assert builds == [("harmonic", level, None)]
    assert read.depth == depth and _bits(read) == _bits(model)
    assert model_to_json(read) == text


STRETCHED_3 = model_to_json(gl.build_model("stretched", 3, 0.2))
HARMONIC_2 = model_to_json(gl.build_model("harmonic", 2))


def _edit(text, old, new, nth=0):
    """``text`` with the nth occurrence of ``old`` replaced by ``new``."""
    at = -1
    for _ in range(nth + 1):
        at = text.index(old, at + 1)
    return text[:at] + new + text[at + len(old):]


REFUSED = {
    # name: (document, expected build_model calls)
    "coordinate digit": (_edit(STRETCHED_3, '"p": [0.4', '"p": [0.5', 3), 1),
    "length digit": (_edit(STRETCHED_3, '"length": 0.0', '"length": 0.1', 7), 1),
    "word digit": (_edit(STRETCHED_3, '"word": "12"', '"word": "13"'), 1),
    "kind letter": (_edit(STRETCHED_3, '"stretched-triangle"', '"stretched-triangla"', 5), 1),
    # 0.10000000000000001 is format_number(0.1): a canonical header, other edges
    "header alpha digit": (_edit(STRETCHED_3, '"alpha": 0.2', '"alpha": 0.1'), 1),
    "header depth digit": (_edit(HARMONIC_2, '"depth": 4', '"depth": 3'), 1),
    "negative length": (_edit(STRETCHED_3, '"length": 0.0', '"length": -0.0', 7), 1),
    "text gen": (_edit(STRETCHED_3, '"gen": 1', '"gen": "x"'), 1),
    "truncated": (STRETCHED_3[:-3] + "\n", 1),
    "harmonic without a depth": (_edit(HARMONIC_2, '"depth": 4, ', ''), 0),
    "stretched with a depth": (_edit(STRETCHED_3, '"level": 3, ', '"level": 3, "depth": 4, '),
                               0),
    "depth before level": (_edit(HARMONIC_2, '"level": 2, "depth": 4',
                                 '"depth": 4, "level": 2'), 0),
    "json.dumps": (json.dumps(json.loads(STRETCHED_3)), 0),
    "indented": (json.dumps(json.loads(STRETCHED_3), indent=1), 0),
    "non-canonical alpha": (_edit(STRETCHED_3, '"alpha": 0.20000000000000001',
                                  '"alpha": 0.2'), 0),
    "non-canonical depth": (_edit(HARMONIC_2, '"depth": 4', '"depth": 04'), 0),
    "level above the edge lines": (_edit(STRETCHED_3, '"level": 3', '"level": 4'), 0),
    "level below the edge lines": (_edit(STRETCHED_3, '"level": 3', '"level": 2'), 0),
    "an edge line dropped": (_edit(STRETCHED_3, STRETCHED_3.splitlines()[5] + "\n", ""), 0),
    "an edge split over two lines": (_edit(STRETCHED_3, '"word": "1"', '\n"word": "1"'), 0),
    "not text": (STRETCHED_3.encode(), 0),
}


@pytest.mark.parametrize("name", list(REFUSED))
def test_other_documents_are_refused(name, builds):
    text, calls = REFUSED[name]
    with pytest.raises(GasketError, match="^model document refused: "):
        model_from_json(text)
    assert len(builds) == calls


def test_a_build_over_the_cap_is_refused_before_it_is_built(monkeypatch):
    # a read may not get round the cap that a build enforces
    def refuse(*args):
        raise AssertionError("a hierarchy was built")

    monkeypatch.setenv("GASKET_MAX_EDGES", "50")
    monkeypatch.setattr(geometry, "stretched_hierarchy", refuse)
    with pytest.raises(gl.ResourceCapError) as read:
        model_from_json(STRETCHED_3)
    with pytest.raises(gl.ResourceCapError) as built:
        gl.build_model("stretched", 3, 0.2)
    assert str(read.value) == str(built.value) == "stretched level 3 needs 120 edges, cap is 50"


# -- documents made, written and checked in blocks ------------------------------

def _first_edges(model, count):
    """``model`` with only its first ``count`` edges."""
    assert len(model.edges) >= count

    def cut(columns):
        for name, column in columns.items():
            columns[name] = None if column is None else column[:count]
    return edited_model(model, cut)


def _bounds_dropped_across(block):
    """Harmonic level 7 (6,561 edges) with no bounds on the edges around the
    first block boundary, so bound-free lines straddle it."""
    def drop(columns):
        for name in ("length_lo", "length_hi"):
            columns[name][block - 5:block + 5] = np.nan
    return edited_model(build("harmonic", 7), drop)


BLOCK_CASES = {
    # name: model made for a block size
    "no edges": lambda block: GasketModel("sg", None, 0, rows_table(())),
    "under one block": lambda block: build("stretched", 3),
    "two blocks exactly": lambda block: _first_edges(build("sg", 8), 2 * block),
    "stretched-7": lambda block: build("stretched", 7),
    "sg-8": lambda block: build("sg", 8),
    "harmonic bounds dropped across a block": _bounds_dropped_across,
}


@pytest.mark.parametrize("name", list(BLOCK_CASES))
def test_json_in_blocks_matches_the_per_edge_writer(name, tmp_path):
    block = serialize._BLOCK
    model = BLOCK_CASES[name](block)
    edges = tuple(model.edges)
    expected = per_edge_json(model.variant, model.alpha, model.level, edges, model.depth)
    assert len(list(serialize._blocks(model))) == -(-len(edges) // block) + 2
    assert model_to_json(model) == expected
    path = tmp_path / "model.json"
    write_model(model, str(path))
    assert path.read_bytes() == expected.encode("ascii")
    assert serialize.matches_json(model, expected)
    if name.startswith("harmonic"):
        # line i + 1 is edge i: edges block - 5 .. block + 4 carry no bounds
        lines = expected.splitlines()[block - 5:block + 7]
        assert ['"length_lo"' in line for line in lines] == [True] + [False] * 10 + [True]


@pytest.mark.parametrize("name", list(BLOCK_CASES))
def test_svg_in_blocks_matches_the_per_edge_renderer(name, tmp_path):
    block = svg._BLOCK
    model = BLOCK_CASES[name](block)
    expected = per_edge_render_svg(model)
    assert len(list(svg._blocks(model))) == -(-len(model.edges) // block) + 2
    assert render_svg(model) == expected
    path = tmp_path / "model.svg"
    emit_svg(model, str(path))
    assert path.read_bytes() == expected.encode("ascii")


STRETCHED_7 = model_to_json(gl.build_model("stretched", 7, 0.2))     # 9,840 edges


def _bump_length(text, edge):
    """``text`` with the last digit of edge ``edge``'s length changed."""
    lines = text.split("\n")
    line = lines[edge + 1]
    at = line.index(', "word"') - 1
    lines[edge + 1] = line[:at] + str((int(line[at]) + 1) % 10) + line[at + 1:]
    return "\n".join(lines)


REFUSALS = {
    # name: (document, blocks made before the check refuses it: the header,
    # three edge blocks, the closing line)
    "first block": (_bump_length(STRETCHED_7, 10), 2),
    "middle block": (_bump_length(STRETCHED_7, 5000), 3),
    "last block": (_bump_length(STRETCHED_7, 9000), 4),
    "truncated": (STRETCHED_7[:-3] + "\n", 5),
    "one extra trailing byte": (STRETCHED_7 + " ", 5),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_byte_check_refuses_at_the_first_block_that_differs(name, builds, monkeypatch):
    text, made = REFUSALS[name]
    assert len(text) - len(STRETCHED_7) in (0, 1, -2) and text != STRETCHED_7
    model = gl.build_model("stretched", 7, 0.2)
    blocks, yielded = serialize._blocks, []

    def counting(m):
        for block in blocks(m):
            yielded.append(block)
            yield block

    monkeypatch.setattr(serialize, "_blocks", counting)
    assert serialize.matches_json(model, STRETCHED_7) and len(yielded) == 5
    yielded.clear()
    assert not serialize.matches_json(model, text)
    assert len(yielded) == made
    # the reader builds once and refuses the bytes
    with pytest.raises(GasketError, match="its bytes differ from the stretched level 7 model"):
        model_from_json(text)
    assert builds == [("stretched", 7, 0.2)]


def test_reading_a_built_document_allocates_under_one_and_a_half_times_its_text(builds):
    # the whole-string check held the line list and two joined copies: 3.6x
    text = model_to_json(gl.build_model("stretched", 8, 0.2))
    for cache in (geometry.contractions, geometry.sg_hierarchy,
                  geometry.stretched_hierarchy, geometry._level_words):
        cache.cache_clear()
    tracemalloc.start()
    try:
        model = model_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert builds == [("stretched", 8, 0.2)] and len(model.edges) == 29523
    assert peak < 1.5 * len(text)


# -- the reader refuses what the per-edge reader rejected ------------------------

def _set(i, key, value):
    return lambda doc: doc["edges"][i].__setitem__(key, value)


def _drop(i, *keys):
    return lambda doc: [doc["edges"][i].pop(k) for k in keys]


def _both(first, second):
    return lambda doc: (first(doc), second(doc))


def _as_written(value):
    """``value`` as the writer prints it: floats to 17 digits, lists spaced."""
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, list):
        return "[" + ", ".join(map(_as_written, value)) + "]"
    return json.dumps(value)


def _in_build_layout(base, doc):
    """``doc`` laid out line by line as ``model_to_json`` lays out ``base``,
    or None when the edit reached the header."""
    text = model_to_json(base)
    head = {k: v for k, v in json.loads(text).items() if k != "edges"}
    if "edges" not in doc or {k: v for k, v in doc.items() if k != "edges"} != head:
        return None
    lines = ["  {" + ", ".join(f"{json.dumps(k)}: {_as_written(v)}" for k, v in e.items()) + "}"
             for e in doc["edges"]]
    return text.splitlines()[0] + "\n" + ",\n".join(lines) + "\n]}\n"


STRETCHED_1 = gl.build_model("stretched", 1, 0.2)
HARMONIC_1 = gl.build_model("harmonic", 1, harmonic_depth=2)
CASES = {
    # name: (model, edit of its json.loads document); the per-edge reader
    # rejected every one of these documents
    **{f"missing {key}": (STRETCHED_1, _drop(2, key))
       for key in ("id", "kind", "gen", "p", "q", "length", "word")},
    "missing edges": (STRETCHED_1, lambda d: d.pop("edges")),
    "missing level": (STRETCHED_1, lambda d: d.pop("level")),
    "ragged p": (STRETCHED_1, _set(1, "p", [[0.0, 1.0], [2.0]])),
    "nested p": (STRETCHED_1, _set(1, "p", [[0.0], [1.0]])),
    "scalar p": (STRETCHED_1, _set(1, "p", 3.0)),
    "text p": (STRETCHED_1, _set(1, "p", "ab")),
    "null in p": (STRETCHED_1, _set(1, "p", [None, 1.0])),
    "text in q": (STRETCHED_1, _set(4, "q", [0.5, "x"])),
    "text length": (STRETCHED_1, _set(1, "length", "x")),
    "null length": (STRETCHED_1, _set(1, "length", None)),
    "list length": (STRETCHED_1, _set(1, "length", [0.5])),
    "text id": (STRETCHED_1, _set(1, "id", "x")),
    "NaN id": (STRETCHED_1, _set(1, "id", math.nan)),
    "null gen": (STRETCHED_1, _set(1, "gen", None)),
    "text length_lo": (HARMONIC_1, _set(2, "length_lo", "x")),
    "null length_hi": (HARMONIC_1, _set(2, "length_hi", None)),
    # the per-edge reader let this OverflowError escape unwrapped
    "huge length": (STRETCHED_1, _set(1, "length", 10 ** 400)),
    "length_lo without length_hi": (HARMONIC_1, _drop(5, "length_hi")),
    "bad length_lo without length_hi": (
        HARMONIC_1, _both(_drop(5, "length_hi"), _set(5, "length_lo", -1.0))),
    "bad p after a missing word": (
        STRETCHED_1, _both(_drop(2, "word"), _set(5, "p", ["x", 0.0]))),
    "bad length before a missing word": (
        STRETCHED_1, _both(_set(1, "length", -1.0), _drop(6, "word"))),
    "mixed-dim p": (STRETCHED_1, _set(1, "p", [0.0, 1.0, 2.0])),
    "mixed-dim q": (STRETCHED_1, _set(1, "q", [0.0])),
}
for _field in ("length", "length_lo", "length_hi"):
    for _value in (-0.1, math.nan, math.inf, -math.inf):
        for _i in (0, 5):
            CASES[f"{_field}={_value} at {_i}"] = (
                STRETCHED_1 if _field == "length" else HARMONIC_1, _set(_i, _field, _value))


@pytest.mark.parametrize("name", list(CASES))
def test_reader_accepts_and_rejects_like_the_per_edge_reader(name, builds):
    base, edit = CASES[name]
    doc = json.loads(model_to_json(base))
    # the layout helper reproduces the document of the unedited model
    assert _in_build_layout(base, doc) == model_to_json(base)
    edit(doc)
    with pytest.raises(GasketError, match="^model document refused: "):
        model_from_json(json.dumps(doc))
    assert builds == []
    text = _in_build_layout(base, doc)
    if text is not None:
        # a built header: the reader builds once, and the byte check refuses
        with pytest.raises(GasketError, match="^model document refused: its bytes differ"):
            model_from_json(text)
        assert builds == [(base.variant, base.level, base.alpha)]


# -- row views ------------------------------------------------------------------

@pytest.mark.parametrize("variant, level", [("sg", 3), ("stretched", 3), ("harmonic", 2)])
def test_rows_are_the_per_edge_rows(variant, level):
    model = build(variant, level)
    rows = reference_rows(variant, level)
    assert len(model.edges) == len(rows)
    assert all(model.edges[i] == rows[i] for i in range(len(rows)))
    assert tuple(model.edges) == rows
    assert model.edges[-1] == rows[-1] and model.edges[2:9:3] == rows[2:9:3]
    with pytest.raises(IndexError):
        model.edges[len(rows)]
    for e in (model.edges[5], next(iter(model.edges))):
        assert type(e.id) is type(e.gen) is int
        assert {type(v) for v in (*e.p, *e.q, e.length)} == {float}
        assert type(e.kind) is type(e.word) is str


def test_tables_are_frozen_and_pickle_by_content():
    edges = build("harmonic", 2).edges
    for col in (edges.id, edges.gen, edges.p, edges.q, edges.length,
                edges.length_lo, edges.length_hi):
        assert not col.flags.writeable
    again = pickle.loads(pickle.dumps(edges))
    assert again == edges and not again.p.flags.writeable
    assert edges != tuple(edges)
    empty = rows_table(())
    assert len(empty) == 0 and empty.p.shape == (0, 2)
    assert model_to_json(GasketModel("sg", None, 0, empty)) == per_edge_json("sg", None, 0, ())


def test_build_read_assemble_and_write_make_no_rows(rows_made, tmp_path):
    path = str(tmp_path / "model.json")
    for variant in ("sg", "stretched", "harmonic"):
        model = build(variant, 4)
        write_model(model, path)
        read = read_model(path)
        render_svg(read)
        if variant != "harmonic":
            metric._assemble_graph(read)
            metric.to_metric_graph(read)
        assert len(model.edges) == len(read.edges) > 0
        assert hash(read) == hash(model)
    assert rows_made == []
    read.edges[3]
    assert len(rows_made) == 1


def test_read_model_shares_the_built_models_graph():
    built = gl.build_model("stretched", 3, 0.1234)
    read = model_from_json(model_to_json(built))
    assert read is not built and read == built and hash(read) == hash(built)
    misses = metric._graph_of_model.cache_info().misses
    graph = metric.to_metric_graph(built)
    assert metric.to_metric_graph(read) is graph
    assert metric._graph_of_model.cache_info().misses == misses + 1
    def halve(columns):
        columns["length"][4] *= 0.5
    edited = edited_model(built, halve)
    assert edited != built
    other = metric.to_metric_graph(edited)
    assert other is not graph and metric._graph_of_model.cache_info().misses == misses + 2
    assert other.arc_w[4] == 0.5 * graph.arc_w[4]
