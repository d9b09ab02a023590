"""The automorphism group of the graph data and the orbit quotient of the
dimension-vector monoid.

G (Automorphisms) relabels vertex and edge simples without changing the
graph data, so it permutes dimension vectors and fixes every count of the
counting pipeline.  The series layer uses it to compute at one
representative per orbit (see the series module docstring).  Get G
through dimmonoid.automorphisms(g), which builds it once per graph and
imports this module on first use.  The sub-vectors of a representative,
which its decompositions count, come from the edge-constraint join of
dimmonoid; this module works on per_vertex tuples and never on the code
layout.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter, itemgetter

from .dimmonoid import _EdgeJoin, enumerate_dimvectors
from .groupgraph import GraphOfGroups


class Automorphisms:
    """The group G of relabellings of simples that keep the graph data.

    An element is a tuple of permutations, sigma_v of the simples of every
    vertex and tau_e of the simples of every edge, that keep all simple
    dimensions and satisfy iota_e[tau_e delta][sigma_s gamma] =
    iota_e[delta][gamma], and the same for kappa_e with sigma_t.  It maps
    dimension vectors to dimension vectors (per_edge moves by tau_e) and
    keeps totals, the Euler form, correction_y and every rank that a count
    reads, so each count of the pipeline is constant on the orbits of G.
    Vertex swaps are not part of G.

    G is kept as generators, never as a list of elements: one element per
    (level, image point) of a stabiliser chain of the vertex simples in
    code order, each found by a backtrack over the edge simples.
    `generators` holds their per-vertex permutations in the format of
    SymmetryGroupDescriptor (p[gamma] is the image of gamma) and
    `edge_perms` their tau_e.  The orbit walk applies the generators to flat
    tuples of per_vertex entries.
    The representative of an orbit is its least code, and since scaling
    commutes with G and keeps code order, rep(beta*m) = beta*rep(m).
    """

    def __init__(self, g: GraphOfGroups):
        self.graph = g
        found = _automorphism_generators(g)
        self.generators = tuple(sigma for sigma, _ in found)
        self.edge_perms = tuple(tau for _, tau in found)
        self._movers = []
        for sigma in self.generators:
            flat = [base + p[gamma] for base, p in zip(_offsets(g), sigma) for gamma in range(len(p))]
            inverse = [0] * len(flat)
            for f, image in enumerate(flat):
                inverse[image] = f
            self._movers.append(itemgetter(*inverse))
        self._rep = {}
        self._reps = []
        self.orbits = {}  # representative code -> its orbit's keys, in code order
        self._decompositions = {}
        self._join = None

    def is_trivial(self) -> bool:
        return not self.generators

    def representatives(self, trunc: int) -> dict:
        """{code: code of the orbit representative} for every key of total
        <= trunc, built degree by degree by an orbit walk over flat tuples;
        fills `orbits` on the way."""
        g, rep, movers = self.graph, self._rep, self._movers
        for d in range(len(self._reps), trunc + 1):
            keys = enumerate_dimvectors(g, d)
            flats = [tuple(chain.from_iterable(m.per_vertex)) for m in keys]
            vector_of = dict(zip(flats, keys))
            reps = []
            # keys come in code order, so the first key of an orbit is its least
            for t, m in zip(flats, keys):
                c = m.code
                if c in rep:
                    continue
                reps.append(c)
                orbit = [t]
                seen = {t}
                for u in orbit:
                    for mover in movers:
                        w = mover(u)
                        if w not in seen:
                            seen.add(w)
                            orbit.append(w)
                members = sorted((vector_of[u] for u in orbit), key=attrgetter("code"))
                for x in members:
                    rep[x.code] = c
                self.orbits[c] = tuple(members)
            self._reps.append(tuple(reps))
        return rep

    def reps(self, d: int) -> tuple:
        """Representative codes of total d, ascending; needs
        representatives(trunc) for some trunc >= d first."""
        return self._reps[d]

    def decompositions(self, code: int) -> tuple:
        """(r1, r2, k) for the representative with this code: k of its
        sub-vectors m1 (zero and m included) have rep(m1) = r1 and
        rep(m - m1) = r2.  Needs the representatives of its total."""
        out = self._decompositions.get(code)
        if out is None:
            if self._join is None:
                self._join = _EdgeJoin(self.graph)
            rep = self._rep
            count = {}
            m = self.graph._dv_cache[code]
            for c1, _ in self._join([self._join.box(v, x) for v, x in enumerate(m.per_vertex)]):
                key = (rep[c1], rep[code - c1])
                count[key] = count.get(key, 0) + 1
            out = self._decompositions[code] = tuple(
                (r1, r2, k) for (r1, r2), k in count.items()
            )
        return out


def _offsets(g: GraphOfGroups) -> list:
    """Flat index of every vertex's first simple."""
    out, base = [], 0
    for v in g.vertices:
        out.append(base)
        base += len(v.simple_dims)
    return out


def _automorphism_generators(g: GraphOfGroups) -> list:
    """[(sigma, tau)] generating G: one element per (level, image point)
    of the stabiliser chain of the vertex simples in flat order.  Level
    (v, b) fixes every earlier simple and sends b to a later simple p of
    equal dimension; levels run from the last, so p is skipped when the
    elements found so far (all of which fix the earlier simples) already
    carry b to it.  S_n thus costs n - 1 elements."""
    found = []
    for v in reversed(range(len(g.vertices))):
        dims = g.vertices[v].simple_dims
        for b in reversed(range(len(dims))):
            orbit = {b}
            for p in range(b + 1, len(dims)):
                if dims[p] != dims[b]:
                    continue
                frontier = list(orbit)
                while frontier:
                    x = frontier.pop()
                    for sigma, _ in found:
                        y = sigma[v][x]
                        if y not in orbit:
                            orbit.add(y)
                            frontier.append(y)
                if p in orbit:
                    continue
                pinned = [{gamma: gamma for gamma in range(len(u.simple_dims))}
                          if i < v else {} for i, u in enumerate(g.vertices)]
                pinned[v] = {gamma: gamma for gamma in range(b)}
                pinned[v][b] = p
                element = _extend(g, pinned)
                if element is not None:
                    found.append(element)
                    orbit.add(p)
    return found


def _extend(g: GraphOfGroups, pinned: list):
    """One element (sigma, tau) of G with sigma_v[gamma] = pinned[v][gamma]
    wherever pinned, or None.

    The backtrack assigns tau edge simple by edge simple.  With tau known
    on the assigned edge simples, a vertex simple gamma may go to gamma'
    exactly when their signatures agree: the dimension and the entries
    M[delta][gamma] against M[tau delta][gamma'] over the assigned delta of
    every restriction M at that vertex.  Each edge simple delta may only
    go to a delta' of equal dimension with M[delta'][pinned gamma] =
    M[delta][gamma] for every pinned simple at either end, so the pinned
    simples always agree with their images; the edge simples with the
    fewest such images come first.  Agreement is an equivalence, so
    sigma_v exists iff the other signatures agree as multisets; that test
    prunes every branch."""
    ends = [[] for _ in g.vertices]  # per vertex: (edge index, matrix)
    for j, e in enumerate(g.edges):
        ends[e.s].append((j, e.iota.matrix))
        ends[e.t].append((j, e.kappa.matrix))
    tau = [[None] * len(e.group.simple_dims) for e in g.edges]
    domains = {}
    for j, e in enumerate(g.edges):
        dims = e.group.simple_dims
        pins = [(m, x, y) for m, v in ((e.iota.matrix, e.s), (e.kappa.matrix, e.t))
                for x, y in pinned[v].items()]
        # images grouped by what they must match: dimension and pinned entries
        images = {}
        for image in range(len(dims)):
            key = (dims[image],) + tuple(m[image][y] for m, _, y in pins)
            images.setdefault(key, []).append(image)
        for delta in range(len(dims)):
            key = (dims[delta],) + tuple(m[delta][x] for m, x, _ in pins)
            domains[j, delta] = images.get(key, [])
    points = sorted(domains, key=lambda point: len(domains[point]))

    def signatures(v):
        dims = g.vertices[v].simple_dims
        terms = [(m, delta, image) for j, m in ends[v]
                 for delta, image in enumerate(tau[j]) if image is not None]
        src = [(dims[x],) + tuple(m[delta][x] for m, delta, _ in terms) for x in range(len(dims))]
        img = [(dims[x],) + tuple(m[image][x] for m, _, image in terms) for x in range(len(dims))]
        return src, img

    def feasible():
        for v, pins in enumerate(pinned):
            src, img = signatures(v)
            images = set(pins.values())
            if sorted(src[x] for x in range(len(src)) if x not in pins) != sorted(
                img[y] for y in range(len(img)) if y not in images
            ):
                return False
        return True

    def search(i):
        if not feasible():
            return False
        if i == len(points):
            return True
        j, delta = points[i]
        for image in domains[j, delta]:
            if image not in tau[j]:
                tau[j][delta] = image
                if search(i + 1):
                    return True
                tau[j][delta] = None
        return False

    if not search(0):
        return None
    sigma = []
    for v, pins in enumerate(pinned):
        src, img = signatures(v)
        p = dict(pins)
        free_images = {}
        images = set(pins.values())
        for y in range(len(img)):
            if y not in images:
                free_images.setdefault(img[y], []).append(y)
        for x in range(len(src)):
            if x not in pins:
                p[x] = free_images[src[x]].pop(0)
        sigma.append(tuple(p[x] for x in range(len(src))))
    return tuple(sigma), tuple(tuple(t) for t in tau)

