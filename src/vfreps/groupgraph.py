"""Finite graphs of finite groups presenting virtually free groups.

A group is described purely by the numerical shadow its completely split
group algebra leaves: the list of simple-module dimensions per vertex and
edge group, plus restriction matrices recording how each vertex simple
decomposes over each edge group.  That data determines everything the
counting pipeline needs; no group elements are ever stored.

Edges come in two kinds.  Amalgam edges must appear first and in tree
order (edge j glues vertex j onto the subtree of vertices < j), HNN edges
may connect any two vertices, including loops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .exactalg import prime_power


class ValidationError(ValueError):
    """Raised by load() when a group description violates an invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class FiniteGroupData:
    """A finite group seen through its completely split group algebra.

    simple_dims lists the dimensions of the simple modules; their squares
    must sum to the group order.  order and exponent feed the suitability
    test for finite fields.
    """

    label: str
    simple_dims: tuple
    order: int
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "simple_dims", tuple(self.simple_dims))


@dataclass(frozen=True)
class RestrictionMap:
    """Multiplicities of edge-group simples in restricted vertex simples.

    matrix[delta][gamma] = multiplicity of edge simple delta in the
    restriction of vertex simple gamma; rows are indexed by the edge
    group's simples, columns by the vertex group's.
    """

    matrix: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in self.matrix))

    @property
    def rows(self):
        return len(self.matrix)

    def apply(self, m):
        """Push a vertex multiplicity vector down to the edge group."""
        return tuple(sum(row[g] * m[g] for g in range(len(m))) for row in self.matrix)


@dataclass(frozen=True)
class Edge:
    group: FiniteGroupData
    s: int
    t: int
    iota: RestrictionMap
    kappa: RestrictionMap
    kind: str  # "amalgam" | "hnn"


class GraphOfGroups:
    """Decomposition data of a finitely generated virtually free group.

    Immutable after construction; carries per-graph caches used by the
    dimension-vector and series layers.
    """

    def __init__(self, label, vertices, edges):
        self.label = label
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        # caches filled lazily by dimmonoid / series
        self._dv_cache = {}
        self._enum_cache = {}
        self._pipeline_cache = {}

    def __repr__(self):
        return f"GraphOfGroups({self.label!r}, {len(self.vertices)} vertices, {len(self.edges)} edges)"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(g: GraphOfGroups):
    """Collect all invariant violations; an empty list means the graph is ok."""
    out = []
    for i, v in enumerate(g.vertices):
        out.extend(_check_group(v, f"vertex {i} ({v.label})"))
    amalgams = [j for j, e in enumerate(g.edges) if e.kind == "amalgam"]
    hnns = [j for j, e in enumerate(g.edges) if e.kind == "hnn"]
    if amalgams and hnns and max(amalgams) > min(hnns):
        out.append("edge order: amalgam edges must precede HNN edges")
    if len(g.vertices) != len(amalgams) + 1:
        out.append(
            f"tree condition: {len(g.vertices)} vertices need exactly "
            f"{len(g.vertices) - 1} amalgam edges, found {len(amalgams)}"
        )
    nv = len(g.vertices)
    for j, e in enumerate(g.edges):
        where = f"edge {j} ({e.group.label})"
        out.extend(_check_group(e.group, where))
        if e.kind not in ("amalgam", "hnn"):
            out.append(f"{where}: unknown kind {e.kind!r}")
            continue
        if not (0 <= e.s < nv and 0 <= e.t < nv):
            out.append(f"{where}: endpoint out of range")
            continue
        if e.kind == "amalgam":
            # 1-based edge index j+1 must glue vertex j+1 onto an earlier one
            if e.t != j + 1:
                out.append(f"{where}: tree condition t(j) = j violated (t={e.t}, j={j + 1})")
            if not e.s < j + 1:
                out.append(f"{where}: tree condition s(j) < j violated (s={e.s})")
        for name, rm, vertex in (("iota", e.iota, e.s), ("kappa", e.kappa, e.t)):
            out.extend(
                _check_restriction(rm, e.group, g.vertices[vertex], f"{where}.{name}")
            )
    return out


def _check_group(v: FiniteGroupData, where: str):
    out = []
    if not v.simple_dims:
        out.append(f"{where}: simple_dims empty")
        return out
    if any(d < 1 for d in v.simple_dims):
        out.append(f"{where}: simple dimensions must be >= 1")
    if v.order < 1 or v.exponent < 1:
        out.append(f"{where}: order and exponent must be >= 1")
    if sum(d * d for d in v.simple_dims) != v.order:
        out.append(
            f"{where}: dimension count {sum(d * d for d in v.simple_dims)} "
            f"!= order {v.order}"
        )
    return out


def _check_restriction(rm: RestrictionMap, edge: FiniteGroupData, vertex: FiniteGroupData, where: str):
    out = []
    if rm.rows != len(edge.simple_dims):
        out.append(f"{where}: {rm.rows} rows != {len(edge.simple_dims)} edge simples")
        return out
    if any(len(row) != len(vertex.simple_dims) for row in rm.matrix):
        out.append(f"{where}: column count != {len(vertex.simple_dims)} vertex simples")
        return out
    if any(x < 0 for row in rm.matrix for x in row):
        out.append(f"{where}: entries must be nonnegative")
        return out
    for gamma, dv in enumerate(vertex.simple_dims):
        tot = sum(edge.simple_dims[delta] * rm.matrix[delta][gamma] for delta in range(rm.rows))
        if tot != dv:
            out.append(
                f"{where}: column {gamma} restricts to dimension {tot} != {dv}"
            )
        if all(rm.matrix[delta][gamma] == 0 for delta in range(rm.rows)):
            out.append(f"{where}: column {gamma} is zero")
    return out


# ---------------------------------------------------------------------------
# building blocks for the preset catalogue
# ---------------------------------------------------------------------------

TRIVIAL_GROUP = FiniteGroupData("1", (1,), 1, 1)


def cyclic_group(n: int) -> FiniteGroupData:
    return FiniteGroupData(f"C{n}", (1,) * n, n, n)


def dihedral_group(c: int) -> FiniteGroupData:
    """Dihedral group of order 2c, c >= 2.

    Simple modules: for even c four characters then (c/2 - 1) two-dimensional
    modules; for odd c the trivial and sign characters then (c-1)/2
    two-dimensional modules.  Characters are ordered by their values on the
    two standard reflections, (+,+), (+,-), (-,+), (-,-).
    """
    if c < 2:
        raise ValueError("dihedral groups need c >= 2")
    if c % 2 == 0:
        dims = (1, 1, 1, 1) + (2,) * (c // 2 - 1)
        exponent = c  # lcm(c, 2) = c
    else:
        dims = (1, 1) + (2,) * ((c - 1) // 2)
        exponent = 2 * c
    return FiniteGroupData(f"D{c}", dims, 2 * c, exponent)


KLEIN_GROUP = FiniteGroupData("C2xC2", (1, 1, 1, 1), 4, 2)


def cyclic_restriction(a: int, c: int) -> RestrictionMap:
    """Restriction C_a -> C_c along the index-(a/c) embedding: character
    gamma of C_a restricts to character gamma mod c of C_c."""
    if a % c:
        raise ValueError(f"{c} does not divide {a}")
    return RestrictionMap(
        tuple(tuple(1 if gamma % c == delta else 0 for gamma in range(a)) for delta in range(c))
    )


# Restrictions of the dihedral vertex groups of the rank-two arithmetic
# amalgams onto their common edge subgroups, derived from character tables
# (see tests for the inner-product cross-check).
#
# Klein edge inside D4/D6: generators map to the reflection s and to the
# central rotation (st)^(c/2); edge characters ordered by values on that
# generator pair.  C2 edge inside D2/D3: generator maps to s.
D4_TO_KLEIN = RestrictionMap((
    (1, 1, 0, 0, 0),
    (0, 0, 0, 0, 1),
    (0, 0, 1, 1, 0),
    (0, 0, 0, 0, 1),
))
D6_TO_KLEIN = RestrictionMap((
    (1, 0, 0, 0, 0, 1),
    (0, 1, 0, 0, 1, 0),
    (0, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 1, 0),
))
D2_TO_C2 = RestrictionMap(((1, 1, 0, 0), (0, 0, 1, 1)))
D3_TO_C2 = RestrictionMap(((1, 0, 1), (0, 1, 1)))


def _amalgam(v0, v1, edge, iota, kappa):
    """(vertices, edges) of the amalgam v0 *_edge v1."""
    return [v0, v1], [Edge(edge, 0, 1, iota, kappa, "amalgam")]


def _free(a):
    if a < 0:
        raise ValueError("free(a) needs a >= 0")
    unit = RestrictionMap(((1,),))
    return [TRIVIAL_GROUP], [Edge(TRIVIAL_GROUP, 0, 0, unit, unit, "hnn") for _ in range(a)]


def _cyclic_amalgam(a, c, b):
    """(vertices, edges) of C_a *_{C_c} C_b, C_c of index a/c and b/c."""
    if a < 1 or b < 1 or c < 1:
        raise ValueError("cyclic orders must be >= 1")
    if a % c or b % c:
        raise ValueError(f"edge order {c} must divide both {a} and {b}")
    edge = cyclic_group(c) if c > 1 else TRIVIAL_GROUP
    return _amalgam(cyclic_group(a), cyclic_group(b), edge, cyclic_restriction(a, c), cyclic_restriction(b, c))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

# The preset catalogue, keyed by display name; a name's parameters are
# those of its key.  Each entry maps the parameters to the orders
# (a, c, b) of a cyclic amalgam C_a *_{C_c} C_b, or else to the graph's
# (vertices, edges).
_PRESETS = {
    "free(a)": _free,
    "cyclic(n)": lambda n: ([cyclic_group(n)], []),
    "dihedral(c)": lambda c: ([dihedral_group(c)], []),
    "cyclic_free_product(a,b)": lambda a, b: (a, 1, b),
    "cyclic_amalgam(a,c,b)": lambda a, c, b: (a, c, b),
    "dinf": lambda: (2, 1, 2),
    "gc(c)": lambda c: (2 * c, c, 2 * c),
    "psl2z": lambda: (2, 1, 3),
    "sl2z": lambda: (4, 2, 6),
    "gl2z": lambda: _amalgam(dihedral_group(4), dihedral_group(6), KLEIN_GROUP, D4_TO_KLEIN, D6_TO_KLEIN),
    "pgl2z": lambda: _amalgam(dihedral_group(2), dihedral_group(3), cyclic_group(2), D2_TO_C2, D3_TO_C2),
}

PRESET_NAMES = tuple(_PRESETS)

# base name -> (display name, number of parameters)
_BASES = {key.partition("(")[0]: (key, len(key.split(",")) if "(" in key else 0) for key in _PRESETS}


@lru_cache(maxsize=None)
def preset(name: str) -> GraphOfGroups:
    """The named example group; PRESET_NAMES lists the accepted names."""
    made = _entry(name)
    g = GraphOfGroups(name, *(_cyclic_amalgam(*made) if len(made) == 3 else made))
    violations = validate(g)
    if violations:
        raise ValidationError(violations)
    return g


def cyclic_amalgam_orders(name: str):
    """(a, c, b) when the preset is the cyclic amalgam C_a *_{C_c} C_b,
    else None; orders that make no amalgam raise as in preset()."""
    made = _entry(name)
    if len(made) == 3:
        _cyclic_amalgam(*made)
        return made
    return None


def _entry(name: str):
    """The preset's catalogue entry applied to its parameters."""
    key, args = _parse_preset_name(name)
    return _PRESETS[key](*args)


def _parse_preset_name(name: str):
    """(catalogue key, integer parameters) of a preset name."""
    name = name.strip()
    if "(" in name:
        if not name.endswith(")"):
            raise ValueError(f"malformed preset name {name!r}")
        base, argstr = name[:-1].split("(", 1)
        try:
            args = tuple(int(x) for x in argstr.split(","))
        except ValueError:
            raise ValueError(f"non-integer parameter in preset {name!r}") from None
    else:
        base, args = name, ()
    if base not in _BASES:
        raise ValueError(f"unknown preset {name!r}")
    key, arity = _BASES[base]
    if len(args) != arity:
        raise ValueError(f"preset {base} takes {arity} parameter(s)")
    return key, args


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def save(g: GraphOfGroups) -> bytes:
    """Canonical JSON: UTF-8, fixed key order, matrices row-major."""
    doc = {
        "vertices": [_group_doc(v) for v in g.vertices],
        "edges": [
            {
                "edge": _group_doc(e.group),
                "s": e.s,
                "t": e.t,
                "iota": [list(r) for r in e.iota.matrix],
                "kappa": [list(r) for r in e.kappa.matrix],
                "kind": e.kind,
            }
            for e in g.edges
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _group_doc(v: FiniteGroupData):
    return {
        "label": v.label,
        "simple_dims": list(v.simple_dims),
        "order": v.order,
        "exponent": v.exponent,
    }


def load(data: bytes, label: str = "file") -> GraphOfGroups:
    """Parse and validate a group description; rejects bad documents with
    a field-path diagnostic, malformed JSON with its byte offset."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as e:
        raise ValidationError([f"JSON parse error at byte {e.pos}: {e.msg}"]) from None
    g = _graph_from_doc(doc, label)
    violations = validate(g)
    if violations:
        raise ValidationError(violations)
    return g


def _need(doc, key, path, typ):
    if not isinstance(doc, dict) or key not in doc:
        raise ValidationError([f"missing field at path {path}/{key}"])
    val = doc[key]
    if typ is int and (not isinstance(val, int) or isinstance(val, bool)):
        raise ValidationError([f"field at path {path}/{key} must be an integer"])
    if typ is str and not isinstance(val, str):
        raise ValidationError([f"field at path {path}/{key} must be a string"])
    if typ is list and not isinstance(val, list):
        raise ValidationError([f"field at path {path}/{key} must be an array"])
    return val


def _group_from_doc(doc, path):
    label = _need(doc, "label", path, str)
    dims = _need(doc, "simple_dims", path, list)
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise ValidationError([f"field at path {path}/simple_dims must hold integers"])
    order = _need(doc, "order", path, int)
    exponent = _need(doc, "exponent", path, int)
    return FiniteGroupData(label, tuple(dims), order, exponent)


def _matrix_from_doc(doc, path):
    if not isinstance(doc, list) or not all(isinstance(r, list) for r in doc):
        raise ValidationError([f"field at path {path} must be a row-major matrix"])
    for i, row in enumerate(doc):
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in row):
            raise ValidationError([f"field at path {path}/{i} must hold integers"])
    return RestrictionMap(tuple(tuple(r) for r in doc))


def _graph_from_doc(doc, label):
    vertices = [
        _group_from_doc(v, f"/vertices/{i}")
        for i, v in enumerate(_need(doc, "vertices", "", list))
    ]
    edges = []
    for j, e in enumerate(_need(doc, "edges", "", list)):
        path = f"/edges/{j}"
        kind = _need(e, "kind", path, str)
        edges.append(
            Edge(
                _group_from_doc(_need(e, "edge", path, dict), f"{path}/edge"),
                _need(e, "s", path, int),
                _need(e, "t", path, int),
                _matrix_from_doc(_need(e, "iota", path, list), f"{path}/iota"),
                _matrix_from_doc(_need(e, "kappa", path, list), f"{path}/kappa"),
                kind,
            )
        )
    return GraphOfGroups(label, vertices, edges)


# ---------------------------------------------------------------------------
# suitable prime powers
# ---------------------------------------------------------------------------

def is_suitable_prime_power(g: GraphOfGroups, q: int) -> bool:
    """Sufficient test that F_q splits every finite subgroup completely:
    the characteristic is coprime to all vertex-group orders and
    q = 1 mod exponent for every vertex group.

    Conservative: a field can be suitable without q = 1 mod exponent, but
    the congruence guarantees all needed roots of unity exist.
    """
    p, _ = prime_power(q)
    for v in g.vertices:
        if v.order % p == 0:
            return False
        if (q - 1) % v.exponent != 0:
            return False
    return True
