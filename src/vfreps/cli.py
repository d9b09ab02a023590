"""Command-line surface.

Subcommands:
  count   counting polynomials per dimension vector or per total dimension
  monoid  dimension vectors of one total dimension with their invariants
  epoly   E-polynomials and Euler characteristics of the character varieties
  oracle  brute-force finite-field cross-checks against the pipeline

`--group` takes a preset name (see groupgraph.PRESET_NAMES) or a path to a
JSON group description.  Output formats: text, json, csv, latex; each
command builds only what its format prints.  json output is byte for byte
what json.dumps(doc, indent=2) prints (two-space indent, one scalar per
line, non-ASCII escaped), written by _json_chunks without the
pure-Python encoder that indent selects; integral coefficients are JSON
ints and rational ones "p/q" strings.  All commands are deterministic;
identical invocations produce byte-identical output.

Every command returns its output as an iterable of str pieces, which
main writes with sys.stdout.writelines before the final newline.  count
streams: before it returns, it computes its tables at the orbit
representatives (no per-key table), renders each distinct value's cell
(its coefficient block, or its text or latex cell) once, and takes each
key's representative and text from one key stream per tag
(Automorphisms.labelled), a join of the vertex compositions, each
rendered once at its place in the entry layout, that interns no key.
Each entry is then made only as it is written, from its key's text and
its representative's cell.  No list of entry texts, table block or
document string is built, and a failed table writes nothing.  The
layout holds no data text, so the group label never goes through it.
Entries come in output order, by total and then by code, as the join
gives them, with no sort.  The argument parser is built on the first
main call and reused by later calls.

Exit codes: 0 success, 1 validation/usage error, 2 pipeline integrity
error (including oracle FAIL).  When the reader of stdout closes the pipe
early (`vfreps count ... | head`), the command stops writing, prints
nothing on stderr and exits 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from types import GeneratorType

from . import fforacle, series
from .dimmonoid import (
    TOTAL_LIMIT,
    correction_y,
    enumerate_dimvectors,
    euler_form,
    format_dimvector,
    gcd_div,
    parse_dimvector,
    shift_exponent,
)
from .exactalg import POLY_ZERO, Poly
from .groupgraph import PRESET_NAMES, GraphOfGroups, ValidationError, load, preset
from .series import NonPolynomialCoefficient


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def resolve_group(name_or_path: str) -> GraphOfGroups:
    """A name that groupgraph.preset accepts is that preset, even when a
    file of the same name exists; anything else is read as a group file."""
    try:
        return preset(name_or_path)
    except ValueError as e:
        if not os.path.exists(name_or_path):
            raise CliError(f"{e} and no group file of that name") from None
    with open(name_or_path, "rb") as fh:
        label = os.path.splitext(os.path.basename(name_or_path))[0]
        return load(fh.read(), label=label)


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

class _Raw(str):
    """JSON text rendered beforehand; the JSON writer inserts it verbatim."""


_INT = {int}


def _json_chunks(obj, pad: str = ""):
    """The pieces of json.dumps(obj, indent=2), byte for byte and in order,
    for the documents the commands emit: dicts with str keys, lists, ints
    and strs, _Raw text rendered at the indent it lands at, and generators
    whose items are such texts (plain str), written as a list while they
    are consumed.  A dict is written value by value and a generator item
    by item, each piece led by its separator and key; any other value is
    one piece, its _json_text."""
    t = type(obj)
    if t is dict or t is GeneratorType:
        inner = pad + "  "
        sep = ",\n" + inner
        if t is dict:
            opening, closing = "{}"
            lead = "{\n" + inner
            for k, v in obj.items():
                key = f"{lead}{encode_basestring_ascii(k)}: "
                if type(v) is dict or type(v) is GeneratorType:
                    yield key
                    yield from _json_chunks(v, inner)
                else:
                    yield key + _json_text(v, inner)
                lead = sep
        else:
            opening, closing = "[]"
            lead = "[\n" + inner
            for text in obj:
                yield lead + text
                lead = sep
        yield f"\n{pad}{closing}" if lead is sep else opening + closing
    else:
        yield _json_text(obj, pad)


def _json_text(obj, pad: str) -> str:
    """The JSON text of one value at pad as one str.  A list of ints (a
    coefficient list, say) is one C-level type scan and one join."""
    t = type(obj)
    if t is int:
        return str(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is _Raw:
        return obj
    if t is list:
        inner = pad + "  "
        items = map(str, obj) if set(map(type, obj)) <= _INT else [_json_text(v, inner) for v in obj]
        body = (",\n" + inner).join(items)
        return f"[\n{inner}{body}\n{pad}]" if body else "[]"
    if t is dict or t is GeneratorType:
        return "".join(_json_chunks(obj, pad))
    raise TypeError(f"cannot render {t.__name__} as JSON")


def render_json(obj, pad: str = "") -> str:
    """json.dumps(obj, indent=2) as one str: the joined _json_chunks."""
    return "".join(_json_chunks(obj, pad))


_SLOT = _Raw("\0")  # stands for one field of an entry in its layout


def _row(cells, fmt: str) -> str:
    """One row of a text, csv or latex table from str cells."""
    if fmt == "csv":
        return ",".join(map(_csv_cell, cells))
    if fmt == "latex":
        return " & ".join(f"${c}$" for c in cells) + r" \\\hline"
    return f"{cells[0]}: " + "  ".join(cells[1:])


def _table(rows, header, fmt: str):
    """The lines of a text, csv or latex table in order, each led by a
    newline, around rows made by _row and led by theirs; a text table
    without rows is one empty line."""
    rows = iter(rows)
    row = next(rows, None)
    if row is None and fmt == "text":
        yield "\n"
    if fmt == "csv":
        yield "\n" + ",".join(header)
    elif fmt == "latex":
        yield "\n" + r"\begin{tabular}{|" + "c|" * len(header) + "}"
        yield "\n" + r"\hline"
        yield "\n" + " & ".join(header) + r" \\\hline"
    if row is not None:
        yield row
        yield from rows
    if fmt == "latex":
        yield "\n" + r"\end{tabular}"


def _unled(lines):
    """The pieces of a text of newline-led lines, the first newline
    dropped."""
    lines = iter(lines)
    yield next(lines)[1:]
    yield from lines


def _emit_rows(rows, header, fmt: str) -> str:
    """Text, csv or latex table of rows of cells (str or int)."""
    led = ["\n" + _row([str(c) for c in row], fmt) for row in rows]
    return "".join(_table(led, header, fmt))[1:]


def _csv_cell(c: str) -> str:
    if "," in c or '"' in c:
        c = '"' + c.replace('"', '""') + '"'
    return c


_CELL = {
    "text": Poly.text,
    "csv": lambda p: _csv_cell(p.text()),
    "latex": Poly.latex,
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_count(args):
    """The pieces of a count table, an iterator.  Every table is computed
    at the orbit representatives, each distinct value's cell rendered
    once and each key's text and representative streamed (_key_stream),
    before it returns.  Each entry is then made as the pieces are
    consumed: its key's text (its vertex texts and the layout up to the
    value) and then the cell of its representative's value.  A json table
    is _json_chunks of a document whose entry lists are generators of
    those texts; a text, csv or latex table is its newline-led lines, the
    first newline dropped."""
    g = resolve_group(args.group)
    D = args.max_dim
    fmt = args.format
    wanted = None
    if getattr(args, "vector", None):
        if args.by != "dimvector":
            raise CliError("--vector needs --by dimvector")
        wanted = parse_dimvector(g, args.vector)
        if wanted.total > D:
            raise CliError("--vector exceeds --max-dim")
    kinds = ["absim", "ss", "sim"] if args.kind == "all" else [args.kind]
    pad = " " * (4 if len(kinds) == 1 else 6)  # json entries sit under "entries" or "tables"
    # per kind (the lookup of every entry in output order, {lookup: Poly});
    # the entry layout has a \0 per vertex, the total (if shown) and the cell
    if args.by == "total":
        found = {kind: (range(1, D + 1), series.aggregate(g, kind, D)) for kind in kinds}
        first, vertices = "d", 0
        layout = {"d": _SLOT, "coefficients": _SLOT} if fmt == "json" else _row(
            ["d=\0" if fmt == "text" else "\0", "\0"], fmt)
    else:
        found = {kind: series.by_representative(g, kind, D) for kind in kinds}
        first, vertices = "dimvector", len(g.vertices)
        if fmt == "json":
            layout = {"dimvector": [_SLOT] * vertices, "total_dim": _SLOT, "coefficients": _SLOT}
            render = lambda x: _json_text(list(x), pad + "    ")
        else:
            # laid out on a field per simple, as csv quotes a label with a
            # comma, then each vertex's fields become one
            simples = "(" + ",".join("(" + ",".join("\1" * len(v.simple_dims)) + ")" for v in g.vertices) + ")"
            layout = _row([simples, "\0"], fmt).replace(simples, "(" + ",".join("\0" * vertices) + ")")
            render = lambda x: "(" + ",".join(map(str, x)) + ")"
    parts = (render_json(layout, pad) if fmt == "json" else "\n" + layout).split("\0")
    # a key's text: each vertex vector's text led by the layout before it,
    # then the layout up to the cell, with the total where it shows one
    joint = [str(d).join(parts[vertices:-1]) for d in range(D + 1)]
    if args.by == "total":
        key_texts = joint[1:]
    else:
        # one stream per tag, which the kinds share: every key's
        # representative under the tag, and its text, the same under any tag
        reps = {}
        for kind, (G, polys) in found.items():
            if G not in reps:
                reps[G], key_texts = _key_stream(G, wanted, D, parts, joint, render)
            if wanted is not None:
                polys = {reps[G][0]: polys.get(reps[G][0], POLY_ZERO)}
            found[kind] = (reps[G], polys)
    cell = (lambda p: render_json(p.json_coeffs(), pad + "  ")) if fmt == "json" else _CELL[fmt]
    cells = {p: cell(p) + parts[-1] for _, polys in found.values() for p in polys.values()}
    texts = {
        kind: _entries(key_texts, map({k: cells[p] for k, p in polys.items()}.get, lookups))
        for kind, (lookups, polys) in found.items()
    }
    if fmt == "json":
        doc = {"group": g.label, "D": D, "kind": args.kind, "by": args.by}
        if len(kinds) == 1:
            doc["entries"] = texts[kinds[0]]
        else:
            doc["tables"] = texts
        return _json_chunks(doc)
    sections = []
    for kind, rows in texts.items():
        if len(kinds) > 1:
            sections.append((f"\n[{kind}]",))
        sections.append(_table(rows, [first, kind], fmt))
    return _unled(chain.from_iterable(sections))


def _key_stream(G, wanted, D, parts, joint, render) -> tuple:
    """(reps, texts) of the keys of totals 1..D in output order, or of the
    one key wanted: each key's representative's code under the tag G and
    its text, its vertex vectors rendered and led by the layout before
    them, the last one followed by the layout up to the cell."""
    if wanted is not None:
        text = "".join(parts[v] + render(x) for v, x in enumerate(wanted.per_vertex))
        return [G.rep(wanted)], [text + joint[wanted.total]]
    reps, texts = [], []
    ends = [""] * len(G.graph.vertices)
    for d in range(1, D + 1):
        ends[-1] = joint[d]
        r, t = G.labelled(d, lambda v, x: parts[v] + render(x) + ends[v])
        reps += r
        texts += t
    return reps, texts


def _entries(texts, cells):
    """One table's entries: text + cell for each entry whose cell is not
    None; a function, so that each table binds its own cells."""
    for text, cell in zip(texts, cells):
        if cell is not None:
            yield text + cell


def cmd_monoid(args) -> tuple:
    g = resolve_group(args.group)
    rows = [
        (m, euler_form(g, m, m), shift_exponent(g, m), 0 if m.total == 0 else gcd_div(m)[0])
        for m in enumerate_dimvectors(g, args.dim)
    ]
    if args.format == "json":
        entries = [
            {
                "dimvector": [list(v) for v in m.per_vertex],
                "euler_form": e,
                "correction": correction_y(g, m),
                "shift_exponent": sig,
                "gcd": gc,
            }
            for m, e, sig, gc in rows
        ]
        return (render_json({"group": g.label, "d": args.dim, "entries": entries}),)
    if args.format == "csv":
        rows = [[format_dimvector(m), e, sig, gc] for m, e, sig, gc in rows]
        return (_emit_rows(rows, ["dimvector", "euler_form", "shift_exponent", "gcd"], "csv"),)
    rows = [
        [format_dimvector(m), f"euler={e}", f"shift={sig}", f"gcd={gc}"] for m, e, sig, gc in rows
    ]
    return (_emit_rows(rows, ["dimvector", "euler", "shift", "gcd"], args.format),)


def cmd_epoly(args) -> tuple:
    g = resolve_group(args.group)
    agg = series.aggregate(g, "ss", args.max_dim)
    data = [(d, p, int(p.eval(1))) for d, p in agg.items() if d >= 1]
    if args.format == "json":
        entries = [
            {"d": d, "e_polynomial": series.epoly_text(p), "euler_characteristic": chi}
            for d, p, chi in data
        ]
        return (render_json({"group": g.label, "D": args.max_dim, "entries": entries}),)
    if args.format == "csv":
        rows = [[d, series.epoly_text(p), chi] for d, p, chi in data]
        return (_emit_rows(rows, ["d", "e_polynomial", "euler_characteristic"], "csv"),)
    if args.format == "latex":
        rows = [[d, series.epoly_latex(p), chi] for d, p, chi in data]
    else:
        rows = [[f"d={d}", series.epoly_text(p), f"euler={chi}"] for d, p, chi in data]
    return (_emit_rows(rows, ["d", "E-polynomial", "Euler"], args.format),)


def _rep_space_values(g: GraphOfGroups, d: int, q: int) -> list:
    """[(value at q, keys)] over the keys of total d, one entry per distinct
    counting polynomial: rep_space_count is a product of general-linear
    counts fixed by the key's exponents, so it is evaluated once per
    distinct exponent set."""
    groups = {}
    for m in enumerate_dimvectors(g, d):
        groups.setdefault(frozenset(series._gl_exponents(g, m).items()), []).append(m)
    return [(series.rep_space_count(g, ms[0]).eval(q), ms) for ms in groups.values()]


def cmd_oracle(args) -> tuple:
    """Returns ((output text,), all_passed)."""
    p = fforacle.presentation(args.group)
    g = preset(args.group)
    q = args.q
    d = args.dim
    lines = []
    ok = True
    # pipeline values stay exact Fractions: a non-integral one prints as
    # p/q and can never equal the oracle's int
    if args.check == "hom":
        oracle = fforacle.count_hom(p, d, q)
        pipeline = sum(value * len(ms) for value, ms in _rep_space_values(g, d, q))
        ok = oracle == pipeline
        lines.append(
            f"check=hom group={args.group} d={d} q={q}: "
            f"oracle={oracle} pipeline={pipeline} {'PASS' if ok else 'FAIL'}"
        )
    elif args.check == "absim":
        oracle = fforacle.count_absim_orbits(p, d, q)
        pipeline = series.aggregate(g, "absim", d)[d].eval(q)
        ok = oracle == pipeline
        lines.append(
            f"check=absim group={args.group} d={d} q={q}: "
            f"oracle={oracle} pipeline={pipeline} {'PASS' if ok else 'FAIL'}"
        )
    else:  # per-vector
        census = fforacle.dimvector_census(p, d, q)
        values = {m: value for value, ms in _rep_space_values(g, d, q) for m in ms}
        for m in enumerate_dimvectors(g, d):
            oracle = census.get(m, 0)
            pipeline = values[m]
            good = oracle == pipeline
            ok = ok and good
            lines.append(
                f"check=per-vector group={args.group} m={format_dimvector(m)} q={q}: "
                f"oracle={oracle} pipeline={pipeline} {'PASS' if good else 'FAIL'}"
            )
        lines.append(f"summary: {'PASS' if ok else 'FAIL'}")
    return ("\n".join(lines),), ok


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="vfreps", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group(p):
        p.add_argument(
            "--group",
            required=True,
            help=f"preset ({', '.join(PRESET_NAMES)}) or path to a JSON group file",
        )

    def add_format(p):
        p.add_argument(
            "--format", default="text", choices=("text", "json", "csv", "latex")
        )

    pc = sub.add_parser("count", help="counting polynomial tables")
    add_group(pc)
    pc.add_argument("--max-dim", type=int, required=True)
    pc.add_argument("--kind", default="all", choices=("absim", "ss", "sim", "all"))
    pc.add_argument("--by", default="total", choices=("dimvector", "total"))
    pc.add_argument(
        "--vector", help="restrict to one dimension vector, e.g. ((2,2),(2,1,1))"
    )
    add_format(pc)

    pm = sub.add_parser("monoid", help="dimension vectors of one total dimension")
    add_group(pm)
    pm.add_argument("--dim", type=int, required=True)
    add_format(pm)

    pe = sub.add_parser("epoly", help="E-polynomials of the character varieties")
    add_group(pe)
    pe.add_argument("--max-dim", type=int, required=True)
    add_format(pe)

    po = sub.add_parser("oracle", help="finite-field brute-force cross-check")
    po.add_argument("--group", required=True, help="oracle-supported preset name")
    po.add_argument("--dim", type=int, required=True)
    po.add_argument("--q", type=int, required=True)
    po.add_argument("--check", default="hom", choices=("hom", "absim", "per-vector"))

    return parser


@lru_cache(maxsize=1)
def _parser() -> _Parser:
    """The process's one parser, built on the first main call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command in ("count", "epoly"):
            if args.max_dim < 0:
                raise CliError("--max-dim must be >= 0")
            if args.max_dim >= TOTAL_LIMIT:
                raise CliError(f"--max-dim must be below {TOTAL_LIMIT}, the total-dimension bound")
        ok = True
        if args.command == "count":
            out = cmd_count(args)
        elif args.command == "monoid":
            if args.dim < 0:
                raise CliError("--dim must be >= 0")
            out = cmd_monoid(args)
        elif args.command == "epoly":
            out = cmd_epoly(args)
        else:
            out, ok = cmd_oracle(args)
        sys.stdout.writelines(out)
        sys.stdout.write("\n")
        sys.stdout.flush()
        return 0 if ok else 2
    except BrokenPipeError:
        # the reader has what it asked for; stdout goes to devnull so that
        # the flush at shutdown finds nothing left to write
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except NonPolynomialCoefficient as e:
        print(f"pipeline integrity error: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        for v in e.violations:
            print(f"validation error: {v}", file=sys.stderr)
        return 1
    except (CliError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
