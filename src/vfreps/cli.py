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
line, non-ASCII escaped), written by render_json without the pure-Python
encoder that indent selects; integral coefficients are JSON ints and
rational ones "p/q" strings.  All commands are deterministic; identical
invocations produce byte-identical output.

Exit codes: 0 success, 1 validation/usage error, 2 pipeline integrity
error (including oracle FAIL).
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii

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
from .exactalg import Poly
from .groupgraph import PRESET_NAMES, GraphOfGroups, ValidationError, load, preset
from .series import CountingTable, NonPolynomialCoefficient


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

_INT = {int}


def render_json(obj, pad: str = "") -> str:
    """json.dumps(obj, indent=2), byte for byte, for the documents the
    commands emit: dicts with str keys, lists, ints and strs.  A list of
    ints (a coefficient list, say) is one C-level type scan and one join,
    with no Python call per entry."""
    t = type(obj)
    if t is int:
        return str(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is list:
        if set(map(type, obj)) <= _INT:
            return _block("[", map(str, obj), "]", pad)
        return _block("[", [render_json(v, pad + "  ") for v in obj], "]", pad)
    if t is dict:
        inner = pad + "  "
        items = [f"{encode_basestring_ascii(k)}: {render_json(v, inner)}" for k, v in obj.items()]
        return _block("{", items, "}", pad)
    raise TypeError(f"cannot render {t.__name__} as JSON")


def _block(opening: str, items, closing: str, pad: str) -> str:
    inner = pad + "  "
    body = (",\n" + inner).join(items)
    return f"{opening}\n{inner}{body}\n{pad}{closing}" if body else opening + closing


def _json_dimvector(m) -> list:
    return [list(v) for v in m.per_vertex]


def _emit_rows(rows, header, fmt: str) -> str:
    """Text, csv or latex table of rows of cells (str or int)."""
    out = []
    if fmt == "csv":
        out.append(",".join(header))
        for row in rows:
            out.append(",".join(_csv_cell(c) for c in row))
    elif fmt == "latex":
        out.append(r"\begin{tabular}{|" + "c|" * len(header) + "}")
        out.append(r"\hline")
        out.append(" & ".join(header) + r" \\\hline")
        for row in rows:
            out.append(" & ".join(f"${c}$" for c in row) + r" \\\hline")
        out.append(r"\end{tabular}")
    else:
        for row in rows:
            out.append(f"{row[0]}: " + "  ".join(str(c) for c in row[1:]))
    return "\n".join(out)


def _csv_cell(c):
    c = str(c)
    if "," in c or '"' in c:
        c = '"' + c.replace('"', '""') + '"'
    return c


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_count(args) -> str:
    g = resolve_group(args.group)
    wanted = None
    if getattr(args, "vector", None):
        if args.by != "dimvector":
            raise CliError("--vector needs --by dimvector")
        wanted = parse_dimvector(g, args.vector)
        if wanted.total > args.max_dim:
            raise CliError("--vector exceeds --max-dim")
    table = CountingTable(g, args.max_dim)
    kinds = ["absim", "ss", "sim"] if args.kind == "all" else [args.kind]
    tables = {}
    for kind in kinds:
        if args.by == "total":
            entries = [(d, p) for d, p in table.aggregate(kind).items() if d >= 1]
        elif wanted is not None:
            found = table.per_vector(kind).get(wanted)
            entries = [(wanted, found if found is not None else Poly(()))]
        else:
            entries = [(m, p) for m, p in table.per_vector(kind).items() if m.total >= 1]
            entries.sort(key=lambda kv: (kv[0].total, kv[0].code))
        tables[kind] = entries
    if args.format == "json":
        if args.by == "total":
            entry = lambda d, p: {"d": d, "coefficients": p.json_coeffs()}
        else:
            entry = lambda m, p: {
                "dimvector": _json_dimvector(m),
                "total_dim": m.total,
                "coefficients": p.json_coeffs(),
            }
        tables = {kind: [entry(k, p) for k, p in entries] for kind, entries in tables.items()}
        doc = {"group": g.label, "D": args.max_dim, "kind": args.kind, "by": args.by}
        if len(kinds) == 1:
            doc["entries"] = tables[kinds[0]]
        else:
            doc["tables"] = tables
        return render_json(doc)
    cell = Poly.latex if args.format == "latex" else Poly.text
    if args.by == "dimvector":
        label, first = format_dimvector, "dimvector"
    else:
        label, first = (lambda d: f"d={d}") if args.format == "text" else str, "d"
    sections = []
    for kind, entries in tables.items():
        if len(kinds) > 1:
            sections.append(f"[{kind}]")
        rows = [[label(k), cell(p)] for k, p in entries]
        sections.append(_emit_rows(rows, [first, kind], args.format))
    return "\n".join(sections)


def cmd_monoid(args) -> str:
    g = resolve_group(args.group)
    rows = [
        (m, euler_form(g, m, m), shift_exponent(g, m), 0 if m.total == 0 else gcd_div(m)[0])
        for m in enumerate_dimvectors(g, args.dim)
    ]
    if args.format == "json":
        entries = [
            {
                "dimvector": _json_dimvector(m),
                "euler_form": e,
                "correction": correction_y(g, m),
                "shift_exponent": sig,
                "gcd": gc,
            }
            for m, e, sig, gc in rows
        ]
        return render_json({"group": g.label, "d": args.dim, "entries": entries})
    if args.format == "csv":
        rows = [[format_dimvector(m), e, sig, gc] for m, e, sig, gc in rows]
        return _emit_rows(rows, ["dimvector", "euler_form", "shift_exponent", "gcd"], "csv")
    rows = [
        [format_dimvector(m), f"euler={e}", f"shift={sig}", f"gcd={gc}"] for m, e, sig, gc in rows
    ]
    return _emit_rows(rows, ["dimvector", "euler", "shift", "gcd"], args.format)


def cmd_epoly(args) -> str:
    g = resolve_group(args.group)
    table = CountingTable(g, args.max_dim)
    data = [
        (d, etext, chi)
        for d, (etext, chi) in series.epoly_and_euler(table, kind="ss", by="total").items()
        if d >= 1
    ]
    if args.format == "json":
        entries = [
            {"d": d, "e_polynomial": etext, "euler_characteristic": chi}
            for d, etext, chi in data
        ]
        return render_json({"group": g.label, "D": args.max_dim, "entries": entries})
    if args.format == "csv":
        return _emit_rows(data, ["d", "e_polynomial", "euler_characteristic"], "csv")
    if args.format == "latex":
        agg = table.aggregate("ss")
        rows = [[d, series.epoly_latex(agg[d]), chi] for d, _, chi in data]
    else:
        rows = [[f"d={d}", etext, f"euler={chi}"] for d, etext, chi in data]
    return _emit_rows(rows, ["d", "E-polynomial", "Euler"], args.format)


def cmd_oracle(args) -> tuple:
    """Returns (output text, all_passed)."""
    p = fforacle.presentation(args.group)
    g = preset(args.group)
    q = args.q
    d = args.dim
    lines = []
    ok = True
    if args.check == "hom":
        oracle = fforacle.count_hom(p, d, q)
        pipeline = sum(
            int(series.rep_space_count(g, m).eval(q)) for m in enumerate_dimvectors(g, d)
        )
        ok = oracle == pipeline
        lines.append(
            f"check=hom group={args.group} d={d} q={q}: "
            f"oracle={oracle} pipeline={pipeline} {'PASS' if ok else 'FAIL'}"
        )
    elif args.check == "absim":
        oracle = fforacle.count_absim_orbits(p, d, q)
        absim = series.compute_absim(g, d)
        pipeline = sum(int(pp.eval(q)) for m, pp in absim.items() if m.total == d)
        ok = oracle == pipeline
        lines.append(
            f"check=absim group={args.group} d={d} q={q}: "
            f"oracle={oracle} pipeline={pipeline} {'PASS' if ok else 'FAIL'}"
        )
    else:  # per-vector
        census = fforacle.dimvector_census(p, d, q)
        for m in enumerate_dimvectors(g, d):
            oracle = census.get(m, 0)
            pipeline = int(series.rep_space_count(g, m).eval(q))
            good = oracle == pipeline
            ok = ok and good
            lines.append(
                f"check=per-vector group={args.group} m={format_dimvector(m)} q={q}: "
                f"oracle={oracle} pipeline={pipeline} {'PASS' if good else 'FAIL'}"
            )
        lines.append(f"summary: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines), ok


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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("count", "epoly"):
            if args.max_dim < 0:
                raise CliError("--max-dim must be >= 0")
            if args.max_dim >= TOTAL_LIMIT:
                raise CliError(f"--max-dim must be below {TOTAL_LIMIT}, the total-dimension bound")
        if args.command == "count":
            print(cmd_count(args))
        elif args.command == "monoid":
            if args.dim < 0:
                raise CliError("--dim must be >= 0")
            print(cmd_monoid(args))
        elif args.command == "epoly":
            print(cmd_epoly(args))
        elif args.command == "oracle":
            out, ok = cmd_oracle(args)
            print(out)
            if not ok:
                return 2
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
