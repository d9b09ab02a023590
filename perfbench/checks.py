"""Output checks written independently of the library's renderers.

Polynomials are re-rendered here from JSON coefficient lists, and the
Euler form is recomputed from the group document, so a defect in the
library's own formatting or monoid code cannot hide itself.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# polynomials and dimension vectors
# ---------------------------------------------------------------------------


def coeffs_of(json_coeffs):
    return [Fraction(c) for c in json_coeffs]


def add_coeffs(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_text(coeffs):
    """Descending powers with explicit signs, e.g. s^3-3*s^2+5*s-4."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            body = ("" if mag == 1 else f"{mag}*") + ("s" if k == 1 else f"s^{k}")
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return text + "".join(sign + body for sign, body in terms[1:])


_LEAD = re.compile(r"^(-?)(?:(\d+(?:/\d+)?)\*)?s(?:\^(\d+))?(?=[+-]|$)")
_CONST = re.compile(r"^-?\d+(?:/\d+)?$")


def leading_term(text):
    """(leading coefficient, degree) of a rendered polynomial, or None."""
    m = _LEAD.match(text)
    if m:
        c = Fraction(m.group(2) or 1)
        return (-c if m.group(1) else c), int(m.group(3) or 1)
    if _CONST.match(text) and text not in ("0", "-0"):
        return Fraction(text), 0
    return None


def dimvector_text(per_vertex):
    return "(" + ",".join("(" + ",".join(str(x) for x in v) + ")" for v in per_vertex) + ")"


def parse_dimvector(text):
    body = text.strip()
    if not (body.startswith("((") and body.endswith("))")):
        raise ValueError(f"malformed dimension vector {text!r}")
    return tuple(
        tuple(int(x) for x in part.split(",")) if part else ()
        for part in body[2:-2].split("),(")
    )


def euler_form(doc, m):
    """<m,m> from a group document: vertex dot products minus the dot
    products of the restrictions to each edge group."""
    total = sum(x * x for v in m for x in v)
    for e in doc["edges"]:
        u = [sum(r * x for r, x in zip(row, m[e["s"]])) for row in e["iota"]]
        total -= sum(x * x for x in u)
    return total


def total_dim(doc, m):
    return sum(d * x for d, x in zip(doc["vertices"][0]["simple_dims"], m[0]))


def correction(doc, m):
    """Sum of vertex multiplicities minus sum of edge multiplicities."""
    y = sum(sum(v) for v in m)
    for e in doc["edges"]:
        y -= sum(sum(r * x for r, x in zip(row, m[e["s"]])) for row in e["iota"])
    return y


def monic_law_problem(doc, dv_text, poly):
    """An absolutely simple count at m must be monic of degree 1-<m,m>."""
    lead = leading_term(poly)
    want = 1 - euler_form(doc, parse_dimvector(dv_text))
    if lead is None:
        return f"absim at {dv_text}: unreadable polynomial {poly!r}"
    if lead != (1, want):
        return f"absim at {dv_text}: leading term {lead}, want monic of degree {want}"
    return None


# ---------------------------------------------------------------------------
# golden tables
# ---------------------------------------------------------------------------


def check_table(out, golden, name, doc, D):
    """Problems in one `count --kind all --by dimvector --format json`
    output: ss by total against the golden rows with d <= D, golden absim
    entries within D, and the monic degree law on every absim entry."""
    try:
        tables = json.loads(out)["tables"]
        absim = {
            dimvector_text(e["dimvector"]): poly_text(coeffs_of(e["coefficients"]))
            for e in tables["absim"]
        }
        agg = {}
        for e in tables["ss"]:
            agg[e["total_dim"]] = add_coeffs(agg.get(e["total_dim"], []), coeffs_of(e["coefficients"]))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed table output: {exc!r}"]
    problems = []
    for d_text, want in golden["ss_by_total"].get(name, {}).items():
        d = int(d_text)
        if d <= D and poly_text(agg.get(d, [])) != want:
            problems.append(f"ss d={d}: {poly_text(agg.get(d, []))} != {want}")
    for dv_text, want in golden["absim_by_vector"].get(name, []):
        if total_dim(doc, parse_dimvector(dv_text)) <= D and absim.get(dv_text, "0") != want:
            problems.append(f"absim {dv_text}: {absim.get(dv_text, '0')} != {want}")
    for dv_text, poly in absim.items():
        p = monic_law_problem(doc, dv_text, poly)
        if p:
            problems.append(p)
    return problems


# ---------------------------------------------------------------------------
# mixed requests
# ---------------------------------------------------------------------------


def _sections(out, kinds):
    """Split multi-kind text/csv/latex output into {kind: lines}."""
    lines = out.rstrip("\n").split("\n")
    if len(kinds) == 1:
        return {kinds[0]: lines}
    found = {}
    cur = None
    for line in lines:
        if line.startswith("[") and line.endswith("]") and line[1:-1] in kinds:
            cur = line[1:-1]
            found[cur] = []
        elif cur is None:
            raise ValueError(f"line before any section: {line!r}")
        else:
            found[cur].append(line)
    if list(found) != kinds:
        raise ValueError(f"sections {list(found)} != {kinds}")
    return found


def _latex_rows(lines, ncols):
    if lines[:2] != [r"\begin{tabular}{|" + "c|" * ncols + "}", r"\hline"] or lines[-1] != r"\end{tabular}":
        raise ValueError("malformed tabular")
    rows = lines[3:-1]
    for r in rows:
        if not r.endswith(r" \\\hline") or r.count(" & ") != ncols - 1:
            raise ValueError(f"malformed tabular row {r!r}")
    return rows


def _rows(fmt, lines, header):
    """Rows of one table as lists of cell texts."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO("\n".join(lines))))
        if rows[0] != header:
            raise ValueError(f"csv header {rows[0]} != {header}")
        rows = rows[1:]
    elif fmt == "latex":
        rows = [r[: -len(r" \\\hline")].split(" & ") for r in _latex_rows(lines, len(header))]
        rows = [[c[1:-1] if c.startswith("$") else c for c in r] for r in rows]
    else:
        rows = []
        for line in lines:
            if line == "":
                continue
            label, sep, rest = line.partition(": ")
            if not sep:
                raise ValueError(f"malformed text row {line!r}")
            rows.append([label] + rest.split("  "))
    for r in rows:
        if len(r) != len(header):
            raise ValueError(f"row {r} has {len(r)} cells, want {len(header)}")
    return rows


def check_request(req, rc, out, doc):
    """Problems with one request's result: a non-zero exit, malformed
    output, or an absolutely simple count breaking the monic degree law."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        return _check_output(req, out, doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def _check_output(req, out, doc):
    cmd, fmt = req["cmd"], req["format"]
    problems = []
    laws = []  # (dimvector text, polynomial text) of absim entries
    if cmd == "count":
        kinds = ["absim", "ss", "sim"] if req["kind"] == "all" else [req["kind"]]
        by, D = req["by"], req["max_dim"]
        if fmt == "json":
            got = json.loads(out)
            if [got["D"], got["kind"], got["by"]] != [D, req["kind"], by]:
                raise ValueError("json header does not echo the request")
            tables = got["tables"] if len(kinds) > 1 else {kinds[0]: got["entries"]}
            for kind in kinds:
                entries = tables[kind]
                if by == "total":
                    if [e["d"] for e in entries] != list(range(1, D + 1)):
                        raise ValueError(f"{kind}: totals {[e['d'] for e in entries]}")
                for e in entries:
                    coeffs = coeffs_of(e["coefficients"])
                    if by == "dimvector":
                        if not 1 <= e["total_dim"] <= D:
                            raise ValueError(f"total_dim {e['total_dim']} outside 1..{D}")
                        if kind == "absim":
                            laws.append((dimvector_text(e["dimvector"]), poly_text(coeffs)))
        else:
            header_key = "d" if by == "total" else "dimvector"
            for kind, lines in _sections(out, kinds).items():
                rows = _rows(fmt, lines, [header_key, kind])
                if by == "total":
                    labels = [r[0] for r in rows]
                    want = [f"d={d}" if fmt == "text" else str(d) for d in range(1, D + 1)]
                    if labels != want:
                        raise ValueError(f"{kind}: row labels {labels}")
                elif kind == "absim" and fmt != "latex":
                    laws.extend((r[0], r[1]) for r in rows)
                if by == "dimvector":
                    for r in rows:
                        if not 1 <= total_dim(doc, parse_dimvector(r[0])) <= req["max_dim"]:
                            raise ValueError(f"row {r[0]} outside 1..{D}")
    elif cmd == "epoly":
        D = req["max_dim"]
        if fmt == "json":
            entries = json.loads(out)["entries"]
            ds = [e["d"] for e in entries]
            for e in entries:
                int(e["euler_characteristic"])
                if not e["e_polynomial"]:
                    raise ValueError("empty E-polynomial")
        else:
            header = ["d", "e_polynomial", "euler_characteristic"] if fmt == "csv" else ["d", "E-polynomial", "Euler"]
            rows = _rows(fmt, out.rstrip("\n").split("\n"), header)
            ds = [int(r[0][2:]) if fmt == "text" else int(r[0]) for r in rows]
        if ds != list(range(1, D + 1)):
            raise ValueError(f"epoly rows {ds}")
    else:  # monoid
        if fmt == "json":
            entries = json.loads(out)["entries"]
            got = [
                (dimvector_text(e["dimvector"]), e["euler_form"], e["shift_exponent"], e["correction"])
                for e in entries
            ]
        elif fmt == "latex":
            _latex_rows(out.rstrip("\n").split("\n"), 4)
            got = []
        else:
            header = ["dimvector", "euler_form", "shift_exponent", "gcd"] if fmt == "csv" else ["dimvector", "euler", "shift", "gcd"]
            rows = _rows(fmt, out.rstrip("\n").split("\n"), header)
            if fmt == "text":
                rows = [[r[0]] + [c.split("=", 1)[1] for c in r[1:]] for r in rows]
            got = [(r[0], int(r[1]), int(r[2]), None) for r in rows]
        for dv_text, euler, shift, corr in got:
            m = parse_dimvector(dv_text)
            if total_dim(doc, m) != req["dim"]:
                raise ValueError(f"{dv_text} is not of total dimension {req['dim']}")
            want = euler_form(doc, m)
            if euler != want:
                problems.append(f"monoid {dv_text}: euler form {euler} != {want}")
            if 2 * shift != want - correction(doc, m):
                problems.append(f"monoid {dv_text}: shift exponent {shift}")
            if corr is not None and corr != correction(doc, m):
                problems.append(f"monoid {dv_text}: correction {corr}")
    for dv_text, poly in laws:
        p = monic_law_problem(doc, dv_text, poly)
        if p:
            problems.append(p)
    return problems
