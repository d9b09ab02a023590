"""Seeded inputs of the requests-mixed workload: a pool of small group
files and a list of count / epoly / monoid requests over it.

The pool is a fixed catalogue of group shapes: twelve cyclic amalgams
(all with a symmetry descriptor), twelve HNN loops (twisted loops over a
nontrivial edge group have none) and twelve groups with dihedral vertices
(pgl2z, gl2z and the D3 amalgams have none).  The seed relabels each
shape, permuting the simples of every vertex and edge group and the two
sides of an amalgam, and draws the request formats and order.
Relabelling changes the files and outputs but not the work, so the
figures are comparable across seeds.  Each shape gets the largest truncation D <= MAX_D whose
key count stays within KEY_CAP, so no request reaches table scale.
"""

from __future__ import annotations

import json
import random

KEY_CAP = 120
MAX_D = 6
FORMATS = ("text", "json", "csv", "latex")


def _cyclic(n):
    return {"label": f"C{n}" if n > 1 else "1", "simple_dims": [1] * n, "order": n, "exponent": n}


def _to_subgroup(n, c, twist=1):
    """Restriction C_n -> C_c: character g goes to twist*g mod c."""
    return [[1 if (twist * g) % c == d else 0 for g in range(n)] for d in range(c)]


def _to_trivial(v):
    return [list(v["simple_dims"])]


def _edge(edge, s, t, iota, kappa, kind):
    return {"edge": edge, "s": s, "t": t, "iota": iota, "kappa": kappa, "kind": kind}


def _hnn_group(v, loops):
    """One vertex with HNN loops given as (edge group, iota, kappa)."""
    return {"vertices": [v], "edges": [_edge(e, 0, 0, i, k, "hnn") for e, i, k in loops]}


def _amalgam(v0, v1, edge, iota, kappa):
    return {"vertices": [v0, v1], "edges": [_edge(edge, 0, 1, iota, kappa, "amalgam")]}


def _catalogue(gg):
    """(group document, preset name or None, oracle preset name or None)."""

    def doc(name):
        return json.loads(gg.save(gg.preset(name)))

    def dihedral(c):
        return doc(f"dihedral({c})")["vertices"][0]

    pgl = doc("pgl2z")
    d2, d3 = pgl["vertices"]
    d2_to_c2, d3_to_c2 = pgl["edges"][0]["iota"], pgl["edges"][0]["kappa"]
    out = []
    for a, c, b in [(2, 1, 2), (2, 1, 3), (3, 1, 3), (2, 1, 4), (2, 2, 4), (4, 2, 4),
                    (4, 2, 6), (6, 3, 6), (2, 1, 5), (3, 3, 6), (3, 1, 4), (2, 2, 6)]:
        name = f"cyclic_amalgam({a},{c},{b})"
        oracle = f"cyclic_free_product({a},{b})" if c == 1 else (f"gc({c})" if a == b == 2 * c else None)
        out.append((doc(name), name, oracle))
    c1, c2, c3, c4 = (_cyclic(n) for n in (1, 2, 3, 4))
    for v, loops in [
        (c1, [(c1, [[1]], [[1]])]),
        (c1, [(c1, [[1]], [[1]])] * 2),
        (c2, [(c1, _to_trivial(c2), _to_trivial(c2))]),
        (c3, [(c1, _to_trivial(c3), _to_trivial(c3))]),
        (c4, [(c2, _to_subgroup(4, 2), _to_subgroup(4, 2))]),
        (c4, [(c4, _to_subgroup(4, 4), _to_subgroup(4, 4, 3))]),
        (c3, [(c3, _to_subgroup(3, 3), _to_subgroup(3, 3, 2))]),
        (c2, [(c1, _to_trivial(c2), _to_trivial(c2)), (c2, _to_subgroup(2, 2), _to_subgroup(2, 2))]),
        (dihedral(2), [(c1, _to_trivial(dihedral(2)), _to_trivial(dihedral(2)))]),
        (dihedral(3), [(c1, _to_trivial(dihedral(3)), _to_trivial(dihedral(3)))]),
        (dihedral(4), [(c1, _to_trivial(dihedral(4)), _to_trivial(dihedral(4)))] * 2),
        (c4, [(c1, _to_trivial(c4), _to_trivial(c4)), (c2, _to_subgroup(4, 2), _to_subgroup(4, 2))]),
    ]:
        out.append((_hnn_group(v, loops), None, None))
    out.append((pgl, "pgl2z", None))
    out.append((doc("gl2z"), "gl2z", None))
    for dc, n in [(2, 3), (3, 2), (4, 1), (5, 2), (4, 2)]:
        dv = dihedral(dc)
        out.append((_amalgam(dv, _cyclic(n), c1, _to_trivial(dv), [[1] * n]), None, None))
    for dv, to_c2, n in [(d3, d3_to_c2, 4), (d2, d2_to_c2, 6), (d3, d3_to_c2, 2),
                         (d3, d3_to_c2, 6), (d2, d2_to_c2, 4)]:
        out.append((_amalgam(dv, _cyclic(n), c2, to_c2, _to_subgroup(n, 2)), None, None))
    return out


def _permute(matrix, cols, rows):
    return [[matrix[r][c] for c in cols] for r in rows]


def _relabel(doc, rng):
    """The same group with its simples renumbered and, for an amalgam,
    its two sides exchanged."""
    doc = json.loads(json.dumps(doc))
    vertices, edges = doc["vertices"], doc["edges"]
    if len(vertices) == 2 and rng.random() < 0.5:
        vertices.reverse()
        e = edges[0]
        e["iota"], e["kappa"] = e["kappa"], e["iota"]
    perms = []
    for v in vertices:
        p = list(range(len(v["simple_dims"])))
        rng.shuffle(p)
        v["simple_dims"] = [v["simple_dims"][i] for i in p]
        perms.append(p)
    for e in edges:
        rows = list(range(len(e["edge"]["simple_dims"])))
        rng.shuffle(rows)
        e["edge"]["simple_dims"] = [e["edge"]["simple_dims"][i] for i in rows]
        e["iota"] = _permute(e["iota"], perms[e["s"]], rows)
        e["kappa"] = _permute(e["kappa"], perms[e["t"]], rows)
    return doc


def make_pool(seed, vfreps):
    """List of pool entries {label, doc, bytes, D, keys, preset, oracle,
    has_descriptor}; the same seed gives the same pool."""
    rng = random.Random(f"pool-{seed}")
    pool = []
    for shape, name, oracle in _catalogue(vfreps.groupgraph):
        doc = _relabel(shape, rng)
        data = (json.dumps(doc, indent=2) + "\n").encode()
        g = vfreps.groupgraph.load(data)
        keys, D = 0, 0
        for d in range(MAX_D + 1):
            k = len(vfreps.dimmonoid.enumerate_dimvectors(g, d))
            if keys + k > KEY_CAP:
                break
            keys, D = keys + k, d
        try:
            vfreps.dimmonoid.symmetry_descriptor(g)
            has_descriptor = True
        except ValueError:
            has_descriptor = False
        pool.append({
            "label": f"g{len(pool):02d}",
            "doc": doc,
            "bytes": data,
            "D": D,
            "keys": keys,
            "preset": name,
            "oracle": oracle,
            "has_descriptor": has_descriptor,
        })
    return pool


def request_list(seed, pool):
    """The requests of one round: every pool group gets two counts, one
    epoly and one monoid call at its own D.  Count kinds rotate over the
    groups so each kind is asked for equally often; formats, groupings
    and order are seeded."""
    rng = random.Random(f"requests-{seed}")
    kinds = ("absim", "ss", "sim", "all")
    out = []
    for gi, entry in enumerate(pool):
        D = entry["D"]
        for kind in (kinds[gi % 4], kinds[(gi + 2) % 4]):
            out.append({"cmd": "count", "kind": kind, "by": rng.choice(["dimvector", "total"]), "max_dim": D})
        out += [{"cmd": "epoly", "max_dim": D}, {"cmd": "monoid", "dim": D}]
        for req in out[-4:]:
            req.update(group=gi, format=rng.choice(FORMATS))
    rng.shuffle(out)
    for i, req in enumerate(out):
        req["id"] = i
    return out


def argv(req, path):
    out = [req["cmd"], "--group", str(path), "--format", req["format"]]
    if req["cmd"] == "count":
        out += ["--max-dim", req["max_dim"], "--kind", req["kind"], "--by", req["by"]]
    elif req["cmd"] == "epoly":
        out += ["--max-dim", req["max_dim"]]
    else:
        out += ["--dim", req["dim"]]
    return out
