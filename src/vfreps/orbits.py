"""The automorphism group of the graph data and the orbit quotient of the
dimension-vector monoid.

G (Automorphisms) relabels vertex and edge simples without changing the
graph data, so it permutes dimension vectors and fixes every count of the
counting pipeline.  The series layer uses it to compute at one
representative per orbit (see the series module docstring).  This module
owns every group that tags a series: automorphisms(g) builds G once per
graph, trivial(g) gives the graph's one generator-free group without
building G, and Automorphisms.respecting gives the subgroups between
them.  The sub-vectors of a representative, which its decompositions
count, come from the edge-constraint join of dimmonoid; this module works
on per_vertex tuples and never on the code layout.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter, itemgetter

from .dimmonoid import _EdgeJoin, enumerate_dimvectors
from .groupgraph import GraphOfGroups


class Automorphisms:
    """A group of relabellings of simples that keep the graph data: the
    whole group G (automorphisms), the subgroup of G that its given
    generators generate (respecting), or the graph's one group without
    generators (trivial).

    An element is a tuple of permutations, sigma_v of the simples of every
    vertex and tau_e of the simples of every edge, that keep all simple
    dimensions and satisfy iota_e[tau_e delta][sigma_s gamma] =
    iota_e[delta][gamma], and the same for kappa_e with sigma_t.  It maps
    dimension vectors to dimension vectors (per_edge moves by tau_e) and
    keeps totals, the Euler form, correction_y and every rank that a count
    reads, so each count of the pipeline is constant on the orbits of G.
    Vertex swaps are not part of G.

    A group is kept as the elements (sigma, tau) it is built from, its
    generators, never as a list of all its elements.  Those of G come from
    _automorphism_generators: one element per (level, image point) of a
    stabiliser chain of the vertex simples in code order, each found by a
    backtrack over the edge simples.  A subgroup keeps some of them, so
    its orbits refine those of G and it has orbits, representatives and
    decompositions of its own.  `generators` holds their per-vertex
    permutations in the format of SymmetryGroupDescriptor (p[gamma] is the
    image of gamma) and `edge_perms` their tau_e.  The orbit walk applies
    the generators to flat tuples of per_vertex entries.
    The representative of an orbit is its least code, and since scaling
    commutes with every relabelling and keeps code order, rep(beta*m) =
    beta*rep(m).
    """

    def __init__(self, g: GraphOfGroups, elements):
        self.graph = g
        self.generators = tuple(sigma for sigma, _ in elements)
        self.edge_perms = tuple(tau for _, tau in elements)
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
        self._respecting = {}

    def is_trivial(self) -> bool:
        return not self.generators

    def respecting(self, y_func, trunc: int) -> "Automorphisms":
        """The subgroup H generated by the generators whose mover keeps
        y_func on every key of total <= trunc, with y_func evaluated once
        per key: self when y_func is None (correction_y, which G keeps),
        when self has no generator, or when every generator is kept.
        y_func is constant on the orbits of H, and H is self exactly when
        y_func is constant on those of self.  Cached by (y_func, trunc) on
        this group and on H, whose generators all keep y_func, so every
        stage that asks for the same correction gets the same object and
        y_func is evaluated once."""
        if y_func is None or not self._movers:
            return self
        H = self._respecting.get((y_func, trunc))
        if H is None:
            g = self.graph
            y = {}
            for d in range(trunc + 1):
                for m in enumerate_dimvectors(g, d):
                    y[tuple(chain.from_iterable(m.per_vertex))] = y_func(g, m)
            kept = [i for i, mover in enumerate(self._movers)
                    if all(y[mover(t)] == value for t, value in y.items())]
            if len(kept) == len(self._movers):
                H = self
            elif not kept:
                H = trivial(g)
            else:
                H = Automorphisms(g, [(self.generators[i], self.edge_perms[i]) for i in kept])
            self._respecting[y_func, trunc] = H._respecting[y_func, trunc] = H
        return H

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
        """The flat tuple (r1, r2, k, r1, r2, k, ...) for the
        representative with this code: k of its sub-vectors m1 (zero and m
        included) have rep(m1) = r1 and rep(m - m1) = r2.  One tuple per
        representative, whatever its number of pairs; read it with
        zip(it, it, it).  Needs the representatives of its total."""
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
            out = self._decompositions[code] = tuple(chain.from_iterable(
                (r1, r2, k) for (r1, r2), k in count.items()
            ))
        return out


def automorphisms(g: GraphOfGroups) -> Automorphisms:
    """The graph's automorphism group G, with its orbit representatives:
    built once per graph, and the graph's trivial group when no generator
    is found."""
    G = g._pipeline_cache.get("automorphisms")
    if G is None:
        elements = _automorphism_generators(g)
        G = Automorphisms(g, elements) if elements else trivial(g)
        g._pipeline_cache["automorphisms"] = G
    return G


def trivial(g: GraphOfGroups) -> Automorphisms:
    """The graph's one trivial group, whose orbits are single keys: the
    tag of a series built by hand, built without the backtrack."""
    T = g._pipeline_cache.get("trivial")
    if T is None:
        T = g._pipeline_cache["trivial"] = Automorphisms(g, ())
    return T


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
    sigma_v exists iff the other signatures agree as multisets; sigma()
    tests that at every node by matching each unpinned simple to the
    first free image of its signature, and the match at the last node is
    sigma."""
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

    def sigma():
        out = []
        for v, pins in enumerate(pinned):
            dims = g.vertices[v].simple_dims
            terms = [(m, delta, image) for j, m in ends[v]
                     for delta, image in enumerate(tau[j]) if image is not None]
            taken = set(pins.values())
            free = {}  # signature -> free images, ascending
            for y in range(len(dims)):
                if y not in taken:
                    key = (dims[y],) + tuple(m[image][y] for m, _, image in terms)
                    free.setdefault(key, []).append(y)
            p = dict(pins)
            for x in range(len(dims)):
                if x not in pins:
                    images = free.get((dims[x],) + tuple(m[delta][x] for m, delta, _ in terms))
                    if not images:
                        return None
                    p[x] = images.pop(0)
            out.append(tuple(p[x] for x in range(len(dims))))
        return tuple(out)

    def search(i):
        s = sigma()
        if s is None or i == len(points):
            return s
        j, delta = points[i]
        for image in domains[j, delta]:
            if image not in tau[j]:
                tau[j][delta] = image
                s = search(i + 1)
                if s is not None:
                    return s
                tau[j][delta] = None
        return None

    s = search(0)
    return None if s is None else (s, tuple(tuple(t) for t in tau))
