"""Command-line surface.

Subcommands:
  count   counting polynomials per dimension vector or per total dimension
  monoid  dimension vectors of one total dimension with their invariants
  epoly   E-polynomials and Euler characteristics of the character varieties
  oracle  brute-force finite-field cross-checks against the pipeline

`--group` takes a preset name (see groupgraph.PRESET_NAMES) or a path to a
JSON group description.  Output formats: text, json, csv, latex.  All
commands are deterministic; identical invocations produce byte-identical
output.

Exit codes: 0 success, 1 validation/usage error, 2 pipeline integrity
error (including oracle FAIL).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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

def _poly_cell(p: Poly, fmt: str):
    if fmt == "latex":
        return p.latex()
    if fmt == "json":
        return p.json_coeffs()
    return p.text()


def _dimvec_cell(m, fmt: str):
    if fmt == "json":
        return [list(v) for v in m.per_vertex]
    return format_dimvector(m)


def _emit_rows(rows, header, fmt: str, json_doc=None):
    """rows: list of lists of already-rendered cells."""
    out = []
    if fmt == "json":
        return json.dumps(json_doc, indent=2)
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
    sections = []
    json_tables = {}
    for kind in kinds:
        if args.by == "total":
            entries = [
                (d, p) for d, p in table.aggregate(kind).items() if d >= 1
            ]
            label = (lambda d: f"d={d}") if args.format == "text" else str
            rows = [[label(d), _poly_cell(p, args.format)] for d, p in entries]
            header = ["d", kind]
            json_tables[kind] = [
                {"d": d, "coefficients": p.json_coeffs()} for d, p in entries
            ]
        else:
            entries = sorted(
                table.per_vector(kind).items(),
                key=lambda kv: (kv[0].total, kv[0].per_vertex),
            )
            entries = [(m, p) for m, p in entries if m.total >= 1]
            if wanted is not None:
                found = table.per_vector(kind).get(wanted)
                entries = [(wanted, found if found is not None else Poly(()))]
            rows = [
                [_dimvec_cell(m, "text"), _poly_cell(p, args.format)]
                for m, p in entries
            ]
            header = ["dimvector", kind]
            json_tables[kind] = [
                {
                    "dimvector": _dimvec_cell(m, "json"),
                    "total_dim": m.total,
                    "coefficients": p.json_coeffs(),
                }
                for m, p in entries
            ]
        if args.format == "json":
            continue
        body = _emit_rows(rows, header, args.format)
        if len(kinds) > 1:
            sections.append(f"[{kind}]")
        sections.append(body)
    if args.format == "json":
        doc = {
            "group": g.label,
            "D": args.max_dim,
            "kind": args.kind,
            "by": args.by,
        }
        if len(kinds) == 1:
            doc["entries"] = json_tables[kinds[0]]
        else:
            doc["tables"] = json_tables
        return json.dumps(doc, indent=2)
    return "\n".join(sections)


def cmd_monoid(args) -> str:
    g = resolve_group(args.group)
    rows = []
    json_entries = []
    for m in enumerate_dimvectors(g, args.dim):
        e = euler_form(g, m, m)
        sig = shift_exponent(g, m)
        gc = 0 if m.total == 0 else gcd_div(m)[0]
        rows.append([format_dimvector(m), f"euler={e}", f"shift={sig}", f"gcd={gc}"])
        json_entries.append(
            {
                "dimvector": _dimvec_cell(m, "json"),
                "euler_form": e,
                "correction": correction_y(g, m),
                "shift_exponent": sig,
                "gcd": gc,
            }
        )
    doc = {"group": g.label, "d": args.dim, "entries": json_entries}
    if args.format == "csv":
        out = ["dimvector,euler_form,shift_exponent,gcd"]
        for m, e in zip(enumerate_dimvectors(g, args.dim), json_entries):
            out.append(
                _csv_cell(format_dimvector(m))
                + f",{e['euler_form']},{e['shift_exponent']},{e['gcd']}"
            )
        return "\n".join(out)
    return _emit_rows(rows, ["dimvector", "euler", "shift", "gcd"], args.format, doc)


def cmd_epoly(args) -> str:
    g = resolve_group(args.group)
    table = CountingTable(g, args.max_dim)
    data = series.epoly_and_euler(table, kind="ss", by="total")
    rows = []
    json_entries = []
    for d, (etext, chi) in data.items():
        if d < 1:
            continue
        rows.append([f"d={d}", etext, f"euler={chi}"])
        json_entries.append({"d": d, "e_polynomial": etext, "euler_characteristic": chi})
    doc = {"group": g.label, "D": args.max_dim, "entries": json_entries}
    if args.format == "csv":
        out = ["d,e_polynomial,euler_characteristic"]
        for e in json_entries:
            out.append(f"{e['d']},{_csv_cell(e['e_polynomial'])},{e['euler_characteristic']}")
        return "\n".join(out)
    if args.format == "latex":
        agg = table.aggregate("ss")
        rows = [
            [str(e["d"]), series.epoly_latex(agg[e["d"]]), str(e["euler_characteristic"])]
            for e in json_entries
        ]
        return _emit_rows(rows, ["d", "E-polynomial", "Euler"], "latex")
    return _emit_rows(rows, ["d", "E-polynomial", "Euler"], args.format, doc)


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
