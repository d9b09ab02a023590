import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from vfreps import cli, dimmonoid, orbits, series
from vfreps.dimmonoid import enumerate_dimvectors, format_dimvector, parse_dimvector, scale
from vfreps.exactalg import Poly
from vfreps.groupgraph import load, preset, save
from test_dimmonoid import random_group_data


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def test_count_ss_by_total(capsys):
    code, out, _ = run(
        capsys, "count", "--group", "psl2z", "--max-dim", "2", "--kind", "ss", "--by", "total"
    )
    assert code == 0
    assert out.splitlines() == ["d=1: 6", "d=2: 3*s+15"]


def test_count_free1_absim_by_total(capsys):
    code, out, _ = run(
        capsys, "count", "--group", "free(1)", "--max-dim", "3", "--kind", "absim", "--by", "total"
    )
    assert code == 0
    assert out.splitlines() == ["d=1: s-1", "d=2: 0", "d=3: 0"]


def test_count_gc1_absim_by_dimvector(capsys):
    code, out, _ = run(
        capsys, "count", "--group", "gc(1)", "--max-dim", "2", "--kind", "absim", "--by", "dimvector"
    )
    assert code == 0
    lines = out.splitlines()
    assert "((1,1),(1,1)): s-2" in lines
    ones = [ln for ln in lines if ln.endswith(": 1")]
    assert len(ones) == 4  # the four one-dimensional classes


def test_count_vector_filter(capsys):
    code, out, _ = run(
        capsys, "count", "--group", "psl2z", "--max-dim", "4", "--kind", "absim",
        "--by", "dimvector", "--vector", "((2,2),(1,2,1))",
    )
    assert code == 0
    assert out.strip() == "((2,2),(1,2,1)): s^3-3*s^2+5*s-4"
    code, _, err = run(
        capsys, "count", "--group", "psl2z", "--max-dim", "4",
        "--by", "total", "--vector", "((2,2),(1,2,1))",
    )
    assert code == 1
    code, _, err = run(
        capsys, "count", "--group", "psl2z", "--max-dim", "2", "--kind", "absim",
        "--by", "dimvector", "--vector", "((2,0),(1,1,x))",
    )
    assert code == 1


@pytest.mark.parametrize("text", ["((1,x),(1,1,0))", "((1,1)(1,1,0))"])
def test_count_names_a_non_integer_vector_entry_malformed(capsys, text):
    code, out, err = run(
        capsys, "count", "--group", "psl2z", "--max-dim", "4",
        "--by", "dimvector", "--vector", text,
    )
    assert (code, out) == (1, "")
    assert err == f"error: malformed dimension vector {text!r}\n"


def test_count_deterministic(capsys):
    args = ["count", "--group", "sl2z", "--max-dim", "3", "--kind", "all", "--by", "total"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2 and out1


def test_count_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "count", "--group", "psl2z", "--max-dim", "2",
        "--kind", "ss", "--by", "total", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "psl2z" and doc["D"] == 2 and doc["kind"] == "ss"
    assert doc["entries"][0] == {"d": 1, "coefficients": [6]}
    assert doc["entries"][1] == {"d": 2, "coefficients": [15, 3]}
    assert json.loads(json.dumps(doc)) == doc


def test_count_csv_and_latex(capsys):
    code, out, _ = run(
        capsys, "count", "--group", "psl2z", "--max-dim", "2",
        "--kind", "ss", "--by", "total", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "d,ss"
    assert "2,3*s+15" in out
    code, out, _ = run(
        capsys, "count", "--group", "psl2z", "--max-dim", "2",
        "--kind", "ss", "--by", "total", "--format", "latex",
    )
    assert code == 0
    assert r"\begin{tabular}" in out
    assert "$3 s + 15$" in out


# ---------------------------------------------------------------------------
# monoid
# ---------------------------------------------------------------------------

def test_monoid_psl2z_dim1(capsys):
    code, out, _ = run(capsys, "monoid", "--group", "psl2z", "--dim", "1")
    assert code == 0
    assert len(out.splitlines()) == 6


def test_monoid_dim0(capsys):
    code, out, _ = run(capsys, "monoid", "--group", "gl2z", "--dim", "0")
    assert code == 0
    assert len(out.splitlines()) == 1


def test_monoid_pgl2z_rows_satisfy_relations(capsys):
    code, out, _ = run(capsys, "monoid", "--group", "pgl2z", "--dim", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for e in doc["entries"]:
        m, n = e["dimvector"]
        assert m[0] + m[1] == n[0] + n[2]
        assert m[2] + m[3] == n[1] + n[2]


# ---------------------------------------------------------------------------
# epoly
# ---------------------------------------------------------------------------

def test_epoly_psl2z(capsys):
    code, out, _ = run(capsys, "epoly", "--group", "psl2z", "--max-dim", "2")
    assert code == 0
    assert out.splitlines() == ["d=1: 6  euler=6", "d=2: 3*x*y+15  euler=18"]


def test_epoly_gl2z_euler(capsys):
    code, out, _ = run(capsys, "epoly", "--group", "gl2z", "--max-dim", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    by_d = {e["d"]: e for e in doc["entries"]}
    assert by_d[4]["euler_characteristic"] == 85
    assert by_d[4]["e_polynomial"] == "3*(x*y)^2+26*x*y+56"


# ---------------------------------------------------------------------------
# the JSON writer and the count tables
# ---------------------------------------------------------------------------

JSON_GROUPS = ["psl2z", "sl2z", "gl2z", "pgl2z", "dinf", "gc(2)"]
# besides the amalgam presets: a free group, a one-vertex twisted HNN loop
# and a three-vertex graph with a loop between distinct vertices
TABLE_GROUPS = JSON_GROUPS + ["free(2)", "hnn_loop", "three_vertex"]
JSON_DEPTHS = {"sl2z": (4, 5)}  # sl2z D=5 is the benchmark's table
ODD_LABEL = 'q"b\\é中'  # reaches the output through the file name
BRACE_LABEL = "{0}{x}%s%%}{"  # str.format and % syntax in the file name


def _file_graph(name):
    from vfreps.groupgraph import Edge, GraphOfGroups, RestrictionMap, cyclic_group, cyclic_restriction

    c2, c4 = cyclic_group(2), cyclic_group(4)
    if name == "hnn_loop":
        iota = cyclic_restriction(4, 2)
        return GraphOfGroups("c4_loop", [c4], [Edge(c2, 0, 0, iota, RestrictionMap(iota.matrix[::-1]), "hnn")])
    return GraphOfGroups("c4_c2_c8", [c4, c2, cyclic_group(8)], [
        Edge(c2, 0, 1, cyclic_restriction(4, 2), cyclic_restriction(2, 2), "amalgam"),
        Edge(c4, 0, 2, cyclic_restriction(4, 4), cyclic_restriction(8, 4), "amalgam"),
        Edge(c2, 1, 2, cyclic_restriction(2, 2),
             RestrictionMap(cyclic_restriction(8, 2).matrix[::-1]), "hnn"),
    ])


@pytest.fixture
def table_group(tmp_path, request):
    """(--group argument, graph) of a TABLE_GROUPS name: presets by name,
    hnn_loop and three_vertex through a group file named after the graph."""
    name = request.param
    if name not in ("hnn_loop", "three_vertex"):
        return name, preset(name)
    g = _file_graph(name)
    path = tmp_path / f"{g.label}.json"
    path.write_bytes(save(g))
    return str(path), g


def _count_requests(group, g):
    for D in JSON_DEPTHS.get(group, (4,)):
        for kind in ("all", "absim", "ss", "sim"):
            for by in ("dimvector", "total"):
                yield ("count", "--group", group, "--max-dim", str(D), "--kind", kind, "--by", by)
    # no entries at all
    yield ("count", "--group", group, "--max-dim", "0", "--kind", "all", "--by", "dimvector")
    # twice a vector of the least total: on the amalgam presets every vertex
    # group acts by scalars, so no module of it is simple, and the absim and
    # sim tables hold an empty coefficient list for it
    doubled = scale((enumerate_dimvectors(g, 1) or enumerate_dimvectors(g, 2))[0], 2)
    yield ("count", "--group", group, "--max-dim", str(doubled.total), "--kind", "all",
           "--by", "dimvector", "--vector", format_dimvector(doubled))


def _other_requests(group):
    for d in range(4):
        yield ("monoid", "--group", group, "--dim", str(d))
    yield ("epoly", "--group", group, "--max-dim", "4")


def _options(argv):
    opts = dict(zip(argv[1::2], argv[2::2]))
    return int(opts["--max-dim"]), opts["--kind"], opts["--by"], opts.get("--vector")


def _reference_entries(g, D, kind, by, vector):
    """(key, value) per entry in output order: the table's entries of
    total >= 1 sorted by total and then by per-vertex entries."""
    if by == "total":
        return [(d, p) for d, p in series.aggregate(g, kind, D).items() if d >= 1]
    found = series._per_key(g, kind, D)
    if vector is not None:
        m = parse_dimvector(g, vector)
        return [(m, found.get(m, Poly(())))]
    entries = [(m, p) for m, p in found.items() if m.total >= 1]
    return sorted(entries, key=lambda kv: (kv[0].total, kv[0].per_vertex))


def _reference_tables(g, argv):
    D, kind, by, vector = _options(argv)
    kinds = ["absim", "ss", "sim"] if kind == "all" else [kind]
    return {k: _reference_entries(g, D, k, by, vector) for k in kinds}


def _reference_json(g, label, argv):
    """The count document with one dict per entry."""
    D, kind, by, _ = _options(argv)

    def coefficients(p):
        return [int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
                for c in p.coefficients()]

    def entry(k, p):
        if by == "total":
            return {"d": k, "coefficients": coefficients(p)}
        return {"dimvector": [list(v) for v in k.per_vertex], "total_dim": k.total,
                "coefficients": coefficients(p)}

    tables = {k: [entry(*kv) for kv in entries] for k, entries in _reference_tables(g, argv).items()}
    doc = {"group": label, "D": D, "kind": kind, "by": by}
    if len(tables) == 1:
        doc["entries"] = tables[kind]
    else:
        doc["tables"] = tables
    return doc


def _reference_text(g, argv, fmt):
    """A text, csv or latex count table, one row per entry."""
    _, _, by, _ = _options(argv)
    tables = _reference_tables(g, argv)
    sections = []
    for kind, entries in tables.items():
        if len(tables) > 1:
            sections.append(f"[{kind}]")
        rows = [
            (format_dimvector(k) if by == "dimvector" else f"d={k}" if fmt == "text" else str(k),
             p.latex() if fmt == "latex" else p.text())
            for k, p in entries
        ]
        header = ["dimvector" if by == "dimvector" else "d", kind]
        if fmt == "text":
            lines = [f"{a}: {b}" for a, b in rows]
        elif fmt == "csv":
            quote = lambda c: f'"{c}"' if "," in c else c
            lines = [",".join(header)] + [f"{quote(a)},{quote(b)}" for a, b in rows]
        else:
            lines = [r"\begin{tabular}{|c|c|}", r"\hline", " & ".join(header) + r" \\\hline"]
            lines += [f"${a}$ & ${b}$ " + r"\\\hline" for a, b in rows]
            lines.append(r"\end{tabular}")
        sections.append("\n".join(lines))
    return "\n".join(sections) + "\n"


def _lines_of(text):
    # compared as line lists: a failing text comparison of long outputs
    # makes pytest's line diff very slow
    return text.split("\n")


def _json_out(capsys, *argv):
    """The document a json request prints, after checking that stdout is
    json.dumps(doc, indent=2) plus the newline print adds."""
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert _lines_of(out) == _lines_of(json.dumps(doc, indent=2) + "\n")
    return doc


def _group_file(tmp_path, label):
    path = tmp_path / f"{label}.json"
    path.write_bytes(save(preset("psl2z")))
    return str(path)


@pytest.fixture
def odd_psl2z(tmp_path):
    return _group_file(tmp_path, ODD_LABEL)


@pytest.mark.parametrize("table_group", TABLE_GROUPS, indirect=True, ids=TABLE_GROUPS)
def test_json_writer_matches_json_dumps_on_every_document(capsys, monkeypatch, table_group):
    # count documents against json.dumps of a reference built with one dict
    # per entry; monoid and epoly documents against json.dumps of the
    # document handed to the writer
    group, g = table_group
    with_empty_list = 0
    for argv in _count_requests(group, g):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        ref = _reference_json(g, g.label, argv)
        assert _lines_of(out) == _lines_of(json.dumps(ref, indent=2) + "\n")
        with_empty_list += "[]" in out
    assert with_empty_list

    docs = []
    writer = cli.render_json

    def recording(obj, pad=""):
        if not pad:
            docs.append(obj)
        return writer(obj, pad)

    monkeypatch.setattr(cli, "render_json", recording)
    for argv in _other_requests(group):
        docs.clear()
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and len(docs) == 1
        assert _lines_of(out) == _lines_of(json.dumps(docs[0], indent=2) + "\n")


@pytest.mark.parametrize("fmt", ["text", "csv", "latex"])
@pytest.mark.parametrize("table_group", TABLE_GROUPS, indirect=True, ids=TABLE_GROUPS)
def test_count_tables_match_a_per_entry_reference(capsys, table_group, fmt):
    group, g = table_group
    for argv in _count_requests(group, g):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert _lines_of(out) == _lines_of(_reference_text(g, argv, fmt))


def test_count_by_dimvector_matches_the_per_vector_tables_on_random_group_data(capsys, monkeypatch):
    # the command reads each kind at the orbit representatives and renders
    # each vertex vector once; the reference reads series._per_key
    # of an independent copy of the graph at every key
    D = 3
    for data in random_group_data():
        g = load(save(data), label="random")
        monkeypatch.setattr(cli, "resolve_group", lambda name: g)
        keys = [m for d in range(D + 1) for m in enumerate_dimvectors(data, d)]
        # the last key, the zero vector, and twice a key of total one,
        # which no absolutely simple module has
        vectors = [keys[-1], keys[0]] + [scale(m, 2) for m in keys if m.total == 1][:1]
        requests = [(kind, ()) for kind in ("all", "absim", "ss", "sim")]
        requests += [("all", ("--vector", format_dimvector(m))) for m in vectors]
        for kind, vector in requests:
            argv = ("count", "--group", "random", "--max-dim", str(D), "--kind", kind,
                    "--by", "dimvector", *vector)
            for fmt in ("text", "csv", "latex"):
                code, out, _ = run(capsys, *argv, "--format", fmt)
                assert code == 0 and _lines_of(out) == _lines_of(_reference_text(data, argv, fmt))
            code, out, _ = run(capsys, *argv, "--format", "json")
            want = json.dumps(_reference_json(data, "random", argv), indent=2) + "\n"
            assert code == 0 and _lines_of(out) == _lines_of(want)


def test_json_stdout_is_canonical_for_an_odd_group_file_name(capsys, odd_psl2z, tmp_path):
    vector = "((2,0),(2,0,0))"  # absent from absim and sim
    doc = _json_out(
        capsys, "count", "--group", odd_psl2z, "--max-dim", "2", "--kind", "all",
        "--by", "dimvector", "--vector", vector,
    )
    assert doc["group"] == ODD_LABEL
    assert doc["tables"]["absim"] == [
        {"dimvector": [[2, 0], [2, 0, 0]], "total_dim": 2, "coefficients": []}
    ]
    code, out, _ = run(capsys, "monoid", "--group", odd_psl2z, "--dim", "1", "--format", "json")
    assert out.isascii() and '"group": "q\\"b\\\\\\u00e9\\u4e2d"' in out
    assert _json_out(capsys, "epoly", "--group", odd_psl2z, "--max-dim", "2")["group"] == ODD_LABEL
    # the label is data: it never reaches a str.format template
    braces = _group_file(tmp_path, BRACE_LABEL)
    g = preset("psl2z")
    for kind in ("all", "ss"):
        for by in ("dimvector", "total"):
            argv = ("count", "--group", braces, "--max-dim", "3", "--kind", kind, "--by", by)
            assert _json_out(capsys, *argv) == _reference_json(g, BRACE_LABEL, argv)
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out == _reference_text(g, argv, "text")


def test_json_coefficients_are_ints_or_fraction_strings(capsys, odd_psl2z):
    doc = _json_out(
        capsys, "count", "--group", odd_psl2z, "--max-dim", "4", "--kind", "all", "--by", "total"
    )
    assert doc["group"] == ODD_LABEL
    for kind, entries in doc["tables"].items():
        for e in entries:
            for c in e["coefficients"]:
                assert type(c) is int or (kind == "sim" and re.fullmatch(r"-?\d+/[2-9]\d*", c))
    assert doc["tables"]["sim"][3] == {"d": 4, "coefficients": [-12, "27/2", "-15/2", 3]}
    assert doc["tables"]["absim"][3] == {"d": 4, "coefficients": [-12, 15, -9, 3]}


HAND_MADE_DOCUMENTS = [
    {"big": [2**64, -(2**64) - 1, 10**40, -(10**40)], "small": [-1, 0, 1]},
    [[], {}, [[]], [{}], {"a": []}, {"b": {}}],
    [1, "1/2", -3, [4, [5, "six"]]],
    {"text": 'quote " backslash \\ slash / é 中 \U0001F600 \n\t\x00\x7f'},
    {'k"\\é': {"nested": {"deeper": [0]}}, "": ""},
    [],
    {},
    "中",
]


@pytest.mark.parametrize("doc", HAND_MADE_DOCUMENTS)
def test_json_writer_hand_made_documents(doc):
    assert cli.render_json(doc) == json.dumps(doc, indent=2)


def test_json_writer_rejects_other_types():
    for bad in (True, None, 1.5, (1, 2), {1: 2}):
        with pytest.raises(TypeError):
            cli.render_json([bad])


class _RecordingStdout(io.StringIO):
    """A stdout that keeps each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return super().write(s)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("by", ["dimvector", "total"])
@pytest.mark.parametrize("group, D", [("sl2z", 5), ("psl2z", 7)])
def test_count_writes_one_entry_or_row_at_a_time(monkeypatch, group, D, by, fmt):
    stdout = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    argv = ("count", "--group", group, "--max-dim", str(D), "--kind", "all", "--by", by)
    assert cli.main([*argv, "--format", fmt]) == 0
    g = preset(group)
    if fmt == "json":
        want = json.dumps(_reference_json(g, group, argv), indent=2) + "\n"
    else:
        want = _reference_text(g, argv, fmt)
    assert _lines_of("".join(stdout.writes)) == _lines_of(want)
    if fmt == "json":
        # every entry has one "coefficients" key
        per_write = [w.count('"coefficients"') for w in stdout.writes]
        assert max(per_write) == 1 and sum(per_write) == want.count('"coefficients"')
    else:
        assert max(w.count("\n") for w in stdout.writes) == 1
        assert len(stdout.writes) >= want.count("\n")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_failed_table_writes_nothing(capsys, monkeypatch, odd_psl2z, fmt):
    # every table is computed before the first byte is written
    monkeypatch.setattr(series._Values, "integer_poly", lambda self, a: None)
    code, out, err = run(
        capsys, "count", "--group", odd_psl2z, "--max-dim", "3", "--kind", "all",
        "--by", "dimvector", "--format", fmt,
    )
    assert (code, out) == (2, "") and err.startswith("pipeline integrity error: ")
    monkeypatch.undo()
    for vector in ("((2,2),(1,2,1))", "((65536,0),(65536,0,0))"):
        code, out, err = run(
            capsys, "count", "--group", "psl2z", "--max-dim", "3", "--kind", "all",
            "--by", "dimvector", "--vector", vector, "--format", fmt,
        )
        assert (code, out) == (1, "") and err.startswith("error: ")


def test_a_reader_that_closes_the_pipe_early_ends_the_command_quietly():
    # like `vfreps count ... | head -1`: the table is larger than a pipe
    # buffer, the reader stops after one line, and the command stops
    # writing with exit code 0 and nothing on stderr
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "vfreps.cli", "count", "--group", "sl2z", "--max-dim", "5",
         "--kind", "ss", "--by", "dimvector"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.readline().startswith(b"((")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=300), err) == (0, b"")


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_hom_pass(capsys):
    code, out, _ = run(capsys, "oracle", "--group", "psl2z", "--dim", "1", "--q", "7")
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "oracle=6" in out and "pipeline=6" in out


def test_oracle_absim_pass(capsys):
    code, out, _ = run(
        capsys, "oracle", "--group", "dinf", "--dim", "2", "--q", "5", "--check", "absim"
    )
    assert code == 0
    assert "oracle=3 pipeline=3 PASS" in out


def test_oracle_per_vector(capsys):
    code, out, _ = run(
        capsys, "oracle", "--group", "psl2z", "--dim", "1", "--q", "7", "--check", "per-vector"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "summary: PASS"
    assert len(lines) == 7


@pytest.mark.parametrize(
    "name, q", [("cyclic(4)", 5), ("cyclic_amalgam(6,3,6)", 7), ("cyclic_amalgam(3,1,3)", 7)]
)
def test_oracle_accepts_the_cyclic_family(capsys, name, q):
    for dim, check in ((2, "hom"), (2, "absim"), (2, "per-vector")):
        code, out, err = run(capsys, "oracle", "--group", name, "--dim", str(dim), "--q", str(q), "--check", check)
        assert (code, err) == (0, "")
        assert out.strip().endswith("PASS") and "FAIL" not in out


@pytest.mark.parametrize(
    "name, message",
    [
        ("free", "preset free takes 1 parameter(s)"),
        ("gc", "preset gc takes 1 parameter(s)"),
        ("cyclic_free_product(2)", "preset cyclic_free_product takes 2 parameter(s)"),
        ("free(x)", "non-integer parameter in preset 'free(x)'"),
    ],
)
def test_oracle_names_a_malformed_preset_like_count(capsys, name, message):
    code, out, err = run(capsys, "oracle", "--group", name, "--dim", "1", "--q", "3")
    assert (code, out, err) == (1, "", f"error: {message}\n")
    # count names the same problem before it adds that no file has the name
    assert run(capsys, "count", "--group", name, "--max-dim", "1")[2].startswith(err.rstrip())


@pytest.mark.parametrize(
    "name, message",
    [
        ("cyclic_amalgam(2,0,2)", "cyclic orders must be >= 1"),
        ("cyclic_amalgam(4,3,6)", "edge order 3 must divide both 4 and 6"),
        ("gc(0)", "cyclic orders must be >= 1"),
        ("gl2z", "no oracle presentation for preset 'gl2z'"),
    ],
)
def test_oracle_rejects_a_group_without_a_presentation(capsys, name, message):
    code, out, err = run(capsys, "oracle", "--group", name, "--dim", "1", "--q", "5")
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("check", ["hom", "absim", "per-vector"])
def test_oracle_rejects_a_presentation_without_generators(capsys, check):
    code, out, err = run(capsys, "oracle", "--group", "free(0)", "--dim", "1", "--q", "3", "--check", check)
    assert (code, out) == (1, "")
    assert err == "error: oracle needs at least one generator, and free(0) has none\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "check, dim, shown", [("hom", 1, "48/7"), ("per-vector", 1, "8/7"), ("absim", 2, "106/7")]
)
def test_oracle_fails_on_a_non_integral_pipeline_value(capsys, monkeypatch, check, dim, shown):
    # 1/7 more per dimension vector (for absim, on the sum at total 2):
    # truncated to an int, every value would still match the oracle (6 in
    # all and 1 per vector at d=1, 15 absim orbits at d=2) and print PASS
    from vfreps import series
    from vfreps.exactalg import RatFunc

    seventh = RatFunc(Poly((1,)), Poly((7,)))
    real_count, real_aggregate = series.rep_space_count, series.aggregate

    def aggregate(g, kind, trunc):
        sums = dict(real_aggregate(g, kind, trunc))
        sums[trunc] = sums[trunc] + Poly((1,), 7)
        return sums

    monkeypatch.setattr(series, "rep_space_count", lambda g, m: real_count(g, m) + seventh)
    monkeypatch.setattr(series, "aggregate", aggregate)
    code, out, _ = run(
        capsys, "oracle", "--group", "psl2z", "--dim", str(dim), "--q", "7", "--check", check
    )
    assert code == 2
    assert "PASS" not in out
    assert f"pipeline={shown} FAIL" in out


# ---------------------------------------------------------------------------
# group files and error paths
# ---------------------------------------------------------------------------

def test_group_from_file(tmp_path, capsys):
    path = tmp_path / "dinf.json"
    path.write_bytes(save(preset("dinf")))
    code, out, _ = run(
        capsys, "count", "--group", str(path), "--max-dim", "1", "--kind", "ss", "--by", "total"
    )
    assert code == 0
    assert out.splitlines() == ["d=1: 4"]


def test_unknown_preset_exits_1(capsys):
    code, _, err = run(capsys, "count", "--group", "nosuchgroup", "--max-dim", "1")
    assert code == 1
    assert "error" in err


def test_invalid_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": []}')
    code, _, err = run(capsys, "count", "--group", str(path), "--max-dim", "1")
    assert code == 1
    assert "/edges" in err


def test_usage_error_exits_1(capsys):
    code, _, err = run(capsys, "count", "--group", "psl2z")  # missing --max-dim
    assert code == 1


def test_main_calls_share_one_parser(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build()) or built[-1])
    cli._parser.cache_clear()
    try:
        args = ("count", "--group", "psl2z", "--max-dim", "1", "--by", "total")
        assert run(capsys, *args)[0] == 0
        assert run(capsys, "monoid", "--group", "psl2z", "--dim", "1")[0] == 0
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_usage_error_after_a_good_call_exits_1(capsys):
    args = ("count", "--group", "psl2z", "--max-dim", "2", "--kind", "ss", "--by", "total")
    good = run(capsys, *args)
    assert good[0] == 0
    code, out, err = run(capsys, "count", "--group", "psl2z", "--kind", "ss")  # missing --max-dim
    assert (code, out) == (1, "") and "--max-dim" in err
    code, out, err = run(capsys, "count", "--group", "psl2z", "--max-dim", "2", "--by", "nope")
    assert (code, out) == (1, "") and "--by" in err
    assert run(capsys, *args) == good


def test_pipeline_integrity_error_exits_2(capsys, monkeypatch):
    from vfreps.series import NonPolynomialCoefficient

    def boom(g, kind, trunc, y_func=None):
        raise NonPolynomialCoefficient("((1,0),(1,0,0))", "1/(s-1)")

    monkeypatch.setattr(series, "_counts", boom)
    code, _, err = run(capsys, "count", "--group", "psl2z", "--max-dim", "1")
    assert code == 2
    assert "integrity" in err


def test_thread_env_is_ignored(capsys, monkeypatch):
    # the recurrences are sequential, so VFREPS_THREADS is no interface
    monkeypatch.delenv("VFREPS_THREADS", raising=False)
    args = ("count", "--group", "psl2z", "--max-dim", "2", "--by", "total")
    plain = run(capsys, *args)
    monkeypatch.setenv("VFREPS_THREADS", "potato")
    assert run(capsys, *args)[:2] == plain[:2]
    assert plain[0] == 0 and plain[1]


def test_preset_name_wins_over_file_in_cwd(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "psl2z").write_text("")  # decoy named like a preset
    code, out, err = run(
        capsys, "count", "--group", "psl2z", "--max-dim", "2", "--kind", "ss", "--by", "total"
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == ["d=1: 6", "d=2: 3*s+15"]
    # a name that is no preset is still read as a file, without separator or suffix
    (tmp_path / "mygroup").write_bytes(save(preset("dinf")))
    code, out, _ = run(
        capsys, "count", "--group", "mygroup", "--max-dim", "1", "--kind", "ss", "--by", "total"
    )
    assert code == 0
    assert out.splitlines() == ["d=1: 4"]
    code, _, err = run(capsys, "count", "--group", "nosuchgroup", "--max-dim", "1")
    assert code == 1
    assert "unknown preset 'nosuchgroup'" in err


def test_epoly_negative_max_dim_exits_1(capsys):
    code, out, err = run(capsys, "epoly", "--group", "psl2z", "--max-dim", "-1")
    assert (code, out) == (1, "")
    assert err == "error: --max-dim must be >= 0\n"


@pytest.mark.parametrize("command", ["count", "epoly"])
def test_max_dim_beyond_total_bound_exits_1_at_once(capsys, monkeypatch, command):
    def boom(g, kind, trunc, y_func=None):
        raise AssertionError("the pipeline started")

    monkeypatch.setattr(series, "_counts", boom)
    code, out, err = run(capsys, command, "--group", "psl2z", "--max-dim", "65536")
    assert (code, out) == (1, "")
    assert "65536" in err and "bound" in err


def test_unrequested_kinds_are_not_computed(capsys, monkeypatch):
    from vfreps import series

    def boom(g, trunc):
        raise AssertionError("sim computed for a request that does not need it")

    monkeypatch.setattr(series, "compute_sim", boom)
    for argv in (
        ("count", "--group", "psl2z", "--max-dim", "3", "--kind", "ss"),
        ("count", "--group", "psl2z", "--max-dim", "3", "--kind", "absim", "--by", "dimvector"),
        ("epoly", "--group", "psl2z", "--max-dim", "3"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out


def test_tables_and_epoly_build_no_per_key_table(capsys, monkeypatch):
    def boom(g, kind, trunc, y_func=None):
        raise AssertionError(f"per-key {kind} table built")

    monkeypatch.setattr(series, "_per_key", boom)
    for fmt in ("text", "json", "csv", "latex"):
        for argv in (
            ("count", "--group", "sl2z", "--max-dim", "4", "--kind", "all", "--by", "dimvector"),
            ("count", "--group", "sl2z", "--max-dim", "4", "--by", "dimvector",
             "--vector", "((0,0,0,2),(0,0,0,1,0,1))"),
            ("count", "--group", "sl2z", "--max-dim", "4", "--kind", "all", "--by", "total"),
            ("epoly", "--group", "sl2z", "--max-dim", "4"),
        ):
            code, out, _ = run(capsys, *argv, "--format", fmt)
            assert code == 0 and out
    with pytest.raises(AssertionError, match="per-key"):
        series.compute_ss(preset("sl2z"), 4)


def test_per_total_tables_epoly_and_the_absim_oracle_intern_representatives_only(capsys, monkeypatch):
    # cold runs, each on a new copy of its preset: the per-total sums, the
    # E-polynomials and the absim oracle never enumerate the keys, and the
    # graph interns orbit representatives only (the zero vector is one)
    def boom(g, d):
        raise AssertionError("enumerate_dimvectors called")

    graphs = []

    def fresh(name):
        graphs.append(load(save(preset(name))))
        return graphs[-1]

    requests = [(("count", "--group", name, "--max-dim", "5", "--kind", "all", "--by", "total"), name, 5)
                for name in ("sl2z", "gl2z", "psl2z")]
    requests += [(("epoly", "--group", name, "--max-dim", "5"), name, 5) for name in ("sl2z", "pgl2z")]
    requests += [(("oracle", "--group", "sl2z", "--q", "13", "--dim", "2", "--check", "absim"), "sl2z", 2)]
    with monkeypatch.context() as patch:
        for module in (dimmonoid, orbits, cli):
            patch.setattr(module, "enumerate_dimvectors", boom)
        patch.setattr(cli, "preset", fresh)
        for argv, _, _ in requests:
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out and "FAIL" not in out
    assert len(graphs) == len(requests)
    for g, (_, name, D) in zip(graphs, requests):
        # the representatives of a third copy, from the full enumeration
        reps = set(orbits.automorphisms(load(save(preset(name)))).representatives(D).values())
        assert 0 in reps and set(g._dv_cache) == reps


def _lines(*lines):
    return "".join(line + "\n" for line in lines)


# seed output, recorded before the E-polynomial renderers were folded into
# the generic polynomial renderers
EPOLY_PINNED = {
    ("psl2z", "text"): _lines(
        "d=1: 6  euler=6",
        "d=2: 3*x*y+15  euler=18",
        "d=3: 2*(x*y)^2+12*x*y+26  euler=40",
        "d=4: 3*(x*y)^3+9*(x*y)^2+24*x*y+39  euler=75",
    ),
    ("psl2z", "latex"): _lines(
        r"\begin{tabular}{|c|c|c|}",
        r"\hline",
        r"d & E-polynomial & Euler \\\hline",
        r"$1$ & $6$ & $6$ \\\hline",
        r"$2$ & $3 xy + 15$ & $18$ \\\hline",
        r"$3$ & $2 (xy)^{2} + 12 xy + 26$ & $40$ \\\hline",
        r"$4$ & $3 (xy)^{3} + 9 (xy)^{2} + 24 xy + 39$ & $75$ \\\hline",
        r"\end{tabular}",
    ),
    ("gl2z", "text"): _lines(
        "d=1: 4  euler=4",
        "d=2: x*y+14  euler=15",
        "d=3: 8*x*y+28  euler=36",
        "d=4: 3*(x*y)^2+26*x*y+56  euler=85",
    ),
    ("gl2z", "latex"): _lines(
        r"\begin{tabular}{|c|c|c|}",
        r"\hline",
        r"d & E-polynomial & Euler \\\hline",
        r"$1$ & $4$ & $4$ \\\hline",
        r"$2$ & $xy + 14$ & $15$ \\\hline",
        r"$3$ & $8 xy + 28$ & $36$ \\\hline",
        r"$4$ & $3 (xy)^{2} + 26 xy + 56$ & $85$ \\\hline",
        r"\end{tabular}",
    ),
}


@pytest.mark.parametrize("group,fmt", sorted(EPOLY_PINNED))
def test_epoly_output_pinned(capsys, group, fmt):
    code, out, _ = run(capsys, "epoly", "--group", group, "--max-dim", "4", "--format", fmt)
    assert code == 0
    assert out == EPOLY_PINNED[(group, fmt)]
