"""The dimension-vector monoid of a graph of groups.

A dimension vector assigns a multiplicity vector to every vertex group,
subject to one linear constraint per edge: both restrictions to the edge
group must agree.  The weighted total dimension is then the same at every
vertex and grades the monoid.

Every vector is interned per graph under its code: the concatenated
per-vertex entries in fixed 16-bit fields, most significant first.
Simple dimensions are >= 1, so no entry exceeds the total, and every
total is below 2^16 (TOTAL_LIMIT); the code of m1 + m2 is therefore
code(m1) + code(m2) and the code of beta*m is beta*code(m), both without
carries, and within one graph int order is per_vertex order.  The series
convolutions add codes and look the interned vectors up by code.

A key stores its vertex entries only.  Its edge vectors, the common
restrictions that the Euler form, the correction Y and the point counts
read, are derived from the s-side vertex entries on first read
(DimVector.per_edge), so the keys that only index a convolution never
build them.  A key hashes as its code: equal per_vertex tuples have equal
codes, in any graph.

One edge-constraint join (_EdgeJoin) solves the edge constraints for
every caller: enumeration feeds it each vertex's weighted compositions
of d and returns the keys in code order, with no sort.  The orbit
quotient feeds it the compositions whose runs ascend, to generate its
representatives without the other keys, each vertex's sub-box items to
count the decompositions of a representative, and every composition
with its text to stream the keys of the command line's per-key table.
No other module knows the code layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter, mul

from .groupgraph import GraphOfGroups

_BITS = 16
TOTAL_LIMIT = 1 << _BITS  # every total dimension is below this


class DimVector:
    """An element of the dimension-vector monoid.

    per_vertex holds one multiplicity vector per vertex group; total is
    the weighted total dimension; code packs per_vertex into one int
    (module docstring) and is the key the graph interns the vector under.
    per_edge, the common restriction to each edge group, is derived on
    first read and kept.  Instances are immutable, hashable and interned
    per graph (use GraphOfGroups-bound helpers or dimvector() to create
    them).
    """

    __slots__ = ("graph", "per_vertex", "total", "code", "_per_edge")

    def __init__(self, graph, per_vertex, total, code):
        self.graph = graph
        self.per_vertex = per_vertex
        self.total = total
        self.code = code
        self._per_edge = None

    @property
    def per_edge(self):
        """The restriction iota_e(m_s) to every edge group, in edge order;
        it equals kappa_e(m_t) since every key satisfies its edge
        constraints."""
        pe = self._per_edge
        if pe is None:
            pv = self.per_vertex
            pe = self._per_edge = tuple(e.iota.apply(pv[e.s]) for e in self.graph.edges)
        return pe

    def __eq__(self, other):
        return isinstance(other, DimVector) and self.per_vertex == other.per_vertex

    def __hash__(self):
        return hash(self.code)

    def __lt__(self, other):
        return self.per_vertex < other.per_vertex

    def __add__(self, other):
        return _intern_sum(self.graph, self, other, 1)

    def __repr__(self):
        return format_dimvector(self)


def format_dimvector(m: DimVector) -> str:
    """Nested-tuple text form, e.g. ((2,1),(1,1,1))."""
    parts = ",".join("(" + ",".join(str(x) for x in v) + ")" for v in m.per_vertex)
    return "(" + parts + ")"


def parse_dimvector(g: GraphOfGroups, text: str) -> DimVector:
    """Inverse of format_dimvector, tolerant of whitespace."""
    stripped = text.replace(" ", "")
    malformed = ValueError(f"malformed dimension vector {text!r}")
    if not (stripped.startswith("((") and stripped.endswith("))")):
        raise malformed
    try:
        vecs = [tuple(int(x) for x in part.split(",")) if part else () for part in stripped[2:-2].split("),(")]
    except ValueError:
        raise malformed from None
    return dimvector(g, vecs)


def dimvector(g: GraphOfGroups, per_vertex) -> DimVector:
    """Validating constructor; checks the shape, the signs and the total
    bound before packing, then the edge constraints and the common
    weighted total, then interns."""
    pv = tuple(tuple(int(x) for x in v) for v in per_vertex)
    if len(pv) != len(g.vertices):
        raise ValueError(f"expected {len(g.vertices)} vertex vectors, got {len(pv)}")
    totals = []
    for i, v in enumerate(g.vertices):
        if len(pv[i]) != len(v.simple_dims):
            raise ValueError(
                f"vertex {i}: expected {len(v.simple_dims)} multiplicities, got {len(pv[i])}"
            )
        if any(x < 0 for x in pv[i]):
            raise ValueError(f"vertex {i}: negative multiplicity in {pv[i]}")
        totals.append(sum(d * x for d, x in zip(v.simple_dims, pv[i])))
        _check_total(totals[-1])
    code = _pack(pv)
    cached = g._dv_cache.get(code)
    if cached is not None:
        return cached
    if len(set(totals)) > 1:
        raise ValueError(f"vertex totals differ: {totals}")
    for j, e in enumerate(g.edges):
        u = e.iota.apply(pv[e.s])
        w = e.kappa.apply(pv[e.t])
        if u != w:
            raise ValueError(f"edge {j} constraint violated: {u} != {w}")
    return _interned(g, code, pv, totals[0] if totals else 0)


def _check_total(total: int):
    if total >= TOTAL_LIMIT:
        raise ValueError(
            f"total dimension {total} is not below 2^{_BITS} = {TOTAL_LIMIT}"
        )


def _pack(pv: tuple) -> int:
    code = 0
    for v in pv:
        for x in v:
            code = code << _BITS | x
    return code


def _interned(g: GraphOfGroups, code: int, pv: tuple, total: int) -> DimVector:
    """The graph's interned vector with this code; pv and total are
    trusted, and used only when the code is new.  The one constructor of
    DimVector but enumerate_dimvectors, which checks its total once per
    degree, so no vector with an unpackable total exists."""
    _check_total(total)
    m = g._dv_cache.get(code)
    if m is None:
        m = g._dv_cache[code] = DimVector(g, pv, total, code)
    return m


def _intern_sum(g, a: DimVector, b: DimVector, sign: int):
    """a + sign*b without revalidation (constraints are linear)."""
    if a.graph is not b.graph:
        raise ValueError("dimension vectors over different graphs")
    if sign > 0:
        pv = tuple(
            tuple(x + y for x, y in zip(va, vb))
            for va, vb in zip(a.per_vertex, b.per_vertex)
        )
    else:
        pv = []
        for va, vb in zip(a.per_vertex, b.per_vertex):
            row = tuple(x - y for x, y in zip(va, vb))
            if any(x < 0 for x in row):
                return None
            pv.append(row)
        pv = tuple(pv)
    return _interned(g, a.code + sign * b.code, pv, a.total + sign * b.total)


def zero_vector(g: GraphOfGroups) -> DimVector:
    return dimvector(g, tuple((0,) * len(v.simple_dims) for v in g.vertices))


def try_sub(m: DimVector, n: DimVector):
    """Componentwise difference when it stays nonnegative, else None."""
    return _intern_sum(m.graph, m, n, -1)


def scale(m: DimVector, c: int) -> DimVector:
    """c*m for an integer c >= 0."""
    if c < 0:
        raise ValueError(f"negative scalar {c}: dimension vectors are nonnegative")
    return _interned(m.graph, c * m.code, tuple(tuple(c * x for x in v) for v in m.per_vertex), c * m.total)


def gcd_div(m: DimVector):
    """(gcd of all entries, list of all c dividing m); m must be nonzero."""
    g = 0
    for v in m.per_vertex:
        for x in v:
            g = math.gcd(g, x)
    if g == 0:
        raise ValueError("gcd of the zero vector is undefined")
    divisors = [c for c in range(1, g + 1) if g % c == 0]
    return g, divisors


# ---------------------------------------------------------------------------
# enumeration: the edge-constraint join
# ---------------------------------------------------------------------------

def enumerate_dimvectors(g: GraphOfGroups, d: int):
    """All dimension vectors of total dimension d, in code order (which is
    lexicographic on the concatenated per-vertex vectors): the join of the
    vertices' weighted compositions of d, which comes in code order, each
    key interned under the code the join computed."""
    if d < 0:
        raise ValueError("negative total dimension")
    _check_total(d)
    cached = g._enum_cache.get(d)
    if cached is not None:
        return cached
    join = _EdgeJoin(g)
    boxes = [join.items(v, _weighted_compositions(d, u.simple_dims)) for v, u in enumerate(g.vertices)]
    intern = g._dv_cache.setdefault
    out = g._enum_cache[d] = tuple(intern(code, DimVector(g, pv, d, code)) for code, pv in join(boxes))
    return out


def _weighted_compositions(d: int, dims, floor=None) -> list:
    """All nonnegative m with sum(dims[i] * m[i]) = d, in lexicographic
    order; with floor, only those with m[i] >= m[floor[i]] wherever
    floor[i] is not None (an earlier place).  Built place by place, the
    last place solved for."""
    floor = floor or [None] * len(dims)
    parts = [((), d)]
    for w, f in zip(dims[:-1], floor):
        parts = [(x + (k,), rest - w * k) for x, rest in parts
                 for k in range(0 if f is None else x[f], rest // w + 1)]
    w, f = dims[-1], floor[-1]
    return [x + (rest // w,) for x, rest in parts
            if rest % w == 0 and (f is None or rest // w >= x[f])]


class _EdgeJoin:
    """The one solver of the edge constraints of a graph.  Called with one
    box of items per vertex, it returns the fields of every dimension
    vector whose vertex vectors come from the boxes, in code order when
    the boxes are: vertex 0's items come in box order, edge j (amalgams
    first, in tree order) glues vertex j + 1 on in box order, and HNN
    edges filter.

    An item is (a, images, b) or (a, images, b, k), and a joined vector
    gets (a, b) or (a, b, k): a and b summed over its items (ints added,
    texts and tuples concatenated), k multiplied.  images packs the
    vector's images under every restriction at its vertex in 16-bit
    fields, each edge end at an offset of its own (no image entry exceeds
    the total); the join adds them into one int per partial vector, glues
    and filters on its fields and emits no images.  items(v, xs) makes
    the items (code contribution, images, (x,)), whose fields are the
    code and the per_vertex tuple, which shares the vectors xs.
    """

    def __init__(self, g: GraphOfGroups):
        places = reversed(range(sum(len(v.simple_dims) for v in g.vertices)))  # the code's fields, top first
        self.weights = [([1 << _BITS * next(places) for _ in v.simple_dims], [0] * len(v.simple_dims))
                        for v in g.vertices]  # per vertex: (code weights, images) per simple
        at, self.joins, self.filters = 0, [], []  # at: the bit offset of the next edge's two ends
        for e in g.edges:
            width = _BITS * len(e.group.simple_dims)
            for v, matrix, shift in ((e.s, e.iota.matrix, at), (e.t, e.kappa.matrix, at + width)):
                for delta, row in enumerate(matrix):
                    for gamma, k in enumerate(row):
                        self.weights[v][1][gamma] |= k << (shift + _BITS * delta)
            (self.joins if e.kind == "amalgam" else self.filters).append((at, at + width, (1 << width) - 1))
            at += 2 * width

    def items(self, v: int, xs) -> list:
        """The items (code contribution, images, (x,)) of the vectors xs
        at vertex v."""
        codes, images = self.weights[v]
        return [(sum(map(mul, x, codes)), sum(map(mul, x, images)), (x,)) for x in xs]

    def __call__(self, boxes: list) -> list:
        parts, last = boxes[0], None if self.filters else len(self.joins)
        wide = bool(parts) and len(parts[0]) == 4
        for t, (s_at, t_at, mask) in enumerate(self.joins, 1):
            groups = {}
            for item in boxes[t]:
                groups.setdefault(item[1] >> t_at & mask, []).append(item)
            get = groups.get
            if t == last:  # the images are read no more
                if wide:
                    return [(a + a2, b + b2, k * k2) for a, p, b, k in parts
                            for a2, _, b2, k2 in get(p >> s_at & mask, ())]
                return [(a + a2, b + b2) for a, p, b in parts for a2, _, b2 in get(p >> s_at & mask, ())]
            parts = [(a + a2, p + p2, b + b2, k * k2) for a, p, b, k in parts
                     for a2, p2, b2, k2 in get(p >> s_at & mask, ())] if wide else [
                (a + a2, p + p2, b + b2) for a, p, b in parts for a2, p2, b2 in get(p >> s_at & mask, ())]
        for s_at, t_at, mask in self.filters:
            parts = [x for x in parts if x[1] >> s_at & mask == x[1] >> t_at & mask]
        return list(map(itemgetter(0, 2, 3) if wide else itemgetter(0, 2), parts))


# ---------------------------------------------------------------------------
# Euler form, parity correction, shift exponent
# ---------------------------------------------------------------------------

def euler_form(g: GraphOfGroups, m: DimVector, n: DimVector) -> int:
    """Homological Euler form: vertex dot products minus edge dot products."""
    tot = 0
    for vm, vn in zip(m.per_vertex, n.per_vertex):
        tot += sum(x * y for x, y in zip(vm, vn))
    for um, un in zip(m.per_edge, n.per_edge):
        tot -= sum(x * y for x, y in zip(um, un))
    return tot


def correction_y(g: GraphOfGroups, m: DimVector) -> int:
    """Additive integer form congruent to euler_form(m, m) mod 2: sum of
    vertex multiplicities minus sum of edge multiplicities."""
    return sum(sum(v) for v in m.per_vertex) - sum(sum(u) for u in m.per_edge)


def shift_exponent(g: GraphOfGroups, m: DimVector, y_func=None) -> int:
    """(euler_form(m,m) - Y(m)) / 2; integral by the parity congruence."""
    y = (y_func or correction_y)(g, m)
    e = euler_form(g, m, m) - y
    if e % 2:
        raise ArithmeticError(
            f"parity violation at {format_dimvector(m)}: "
            f"euler form and correction differ mod 2"
        )
    return e // 2


# ---------------------------------------------------------------------------
# symmetry orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryGroupDescriptor:
    """Generators of the symmetry group acting on dimension vectors.

    kind "trivial_edges": every edge group is trivial and each vertex's
    simples of equal dimension may be permuted freely.

    kind "abelian_vertices": one amalgam edge between abelian vertex
    groups; each vertex's simples fall into partition blocks indexed by
    the edge characters, and allowed permutations preserve (or coherently
    permute) the blocks on both sides at once.

    generators: tuples of per-vertex permutations (index tuples).
    """

    kind: str
    generators: tuple


def symmetry_descriptor(g: GraphOfGroups) -> SymmetryGroupDescriptor:
    """Derive the applicable symmetry descriptor, or raise ValueError."""
    if all(e.group.order == 1 for e in g.edges):
        gens = []
        for i, v in enumerate(g.vertices):
            by_dim = {}
            for gamma, d in enumerate(v.simple_dims):
                by_dim.setdefault(d, []).append(gamma)
            for idxs in by_dim.values():
                for a, b in zip(idxs, idxs[1:]):
                    gens.append(_one_vertex_transposition(g, i, a, b))
        return SymmetryGroupDescriptor("trivial_edges", tuple(gens))
    if (
        len(g.edges) == 1
        and g.edges[0].kind == "amalgam"
        and all(all(d == 1 for d in v.simple_dims) for v in g.vertices)
    ):
        e = g.edges[0]
        blocks = (_blocks_of(e.iota.matrix), _blocks_of(e.kappa.matrix))
        gens = []
        # swaps inside one block leave the edge restriction unchanged
        for vi in range(2):
            for block in blocks[vi]:
                for k in range(len(block) - 1):
                    gens.append(_one_vertex_transposition(g, vi, block[k], block[k + 1]))
        # paired block swaps realize transpositions of edge characters
        nblocks = len(blocks[0])
        for delta in range(nblocks - 1):
            if all(len(blocks[vi][delta]) == len(blocks[vi][delta + 1]) for vi in range(2)):
                perms = []
                for vi in range(2):
                    p = list(range(len(g.vertices[vi].simple_dims)))
                    for x, y in zip(blocks[vi][delta], blocks[vi][delta + 1]):
                        p[x], p[y] = y, x
                    perms.append(tuple(p))
                gens.append(tuple(perms))
        return SymmetryGroupDescriptor("abelian_vertices", tuple(gens))
    raise ValueError(
        "symmetry group supported only for trivial edge groups or a single "
        "amalgam of abelian vertex groups"
    )


def _blocks_of(matrix):
    """Partition of vertex simples by the edge character they restrict to;
    requires exactly one 1 per column."""
    blocks = [[] for _ in matrix]
    for gamma in range(len(matrix[0])):
        col = [matrix[delta][gamma] for delta in range(len(matrix))]
        if sorted(col) != [0] * (len(col) - 1) + [1]:
            raise ValueError("edge restriction does not induce a partition")
        blocks[col.index(1)].append(gamma)
    return tuple(tuple(b) for b in blocks)


def _one_vertex_transposition(g, vertex, a, b):
    perms = []
    for i, v in enumerate(g.vertices):
        p = list(range(len(v.simple_dims)))
        if i == vertex:
            p[a], p[b] = b, a
        perms.append(tuple(p))
    return tuple(perms)


def _permuted(pv: tuple, perms) -> tuple:
    out = []
    for v, p in zip(pv, perms):
        row = [0] * len(v)
        for gamma, x in enumerate(v):
            row[p[gamma]] = x
        out.append(tuple(row))
    return tuple(out)


def _image(g: GraphOfGroups, pv: tuple) -> DimVector:
    m = g._dv_cache.get(_pack(pv))
    if m is None:
        raise ValueError(f"symmetry image {pv} is not a dimension vector of the graph")
    return m


def symmetry_orbits(g: GraphOfGroups, descriptor: SymmetryGroupDescriptor, d: int):
    """Partition of enumerate_dimvectors(g, d) into symmetry orbits,
    each orbit sorted, orbits ordered by their minimal element.  The walk
    permutes per_vertex tuples and looks every image up by its code."""
    vectors = enumerate_dimvectors(g, d)
    seen = set()
    orbits = []
    for start in vectors:
        if start.code in seen:
            continue
        orbit = {start.code: start}
        frontier = [start.per_vertex]
        while frontier:
            cur = frontier.pop()
            for perms in descriptor.generators:
                nxt = _image(g, _permuted(cur, perms))
                if nxt.code not in orbit:
                    orbit[nxt.code] = nxt
                    frontier.append(nxt.per_vertex)
        seen.update(orbit)
        orbits.append(sorted(orbit.values()))
    return orbits
