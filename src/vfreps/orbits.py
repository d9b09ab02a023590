"""The automorphism group of the graph data and the orbit quotient of the
dimension-vector monoid.

G (Automorphisms) relabels vertex and edge simples without changing the
graph data, so it permutes dimension vectors and fixes every count of the
counting pipeline.  The series layer uses it to compute at one
representative per orbit (see the series module docstring).  This module
owns every group that tags a series: automorphisms(g) builds G once per
graph, trivial(g) gives the graph's one generator-free group without
building G, and Automorphisms.respecting gives the subgroups between
them.

G splits as G0 x| (edge-moving part).  G0, the elements that fix every
edge simple, is normal in G and is the product of the symmetric groups on
each vertex's signature classes: the simples of equal dimension and equal
columns in every restriction matrix at that vertex.  The least code of a
G0-orbit sorts each class's entries ascending over the class's places.
So the join of dimmonoid, fed only the vertex compositions whose classes
ascend, generates exactly the G0-representatives, and the orbit walk
runs over those alone, under the few generators that move edge simples,
each of which maps G0-representatives to G0-representatives (canonical
augmentation, McKay, J. Algorithms 26, 1998).  root maps each
G0-representative to its representative, and only representatives are
interned.  The join gives each reader only the fields it reads, with
G0-codes summed: (G0-code, per_vertex) to the quotient, (G0-code, key
text) to the command line's key stream, and (G0-code of y, G0-code of
m - y, multiplicity) to a representative's decompositions.  Only the
readers of every key enumerate them.  This module works on per_vertex
and flat tuples and the join's items, never on the code layout.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, product
from math import factorial, prod
from operator import add, itemgetter, mul, sub

from .dimmonoid import _EdgeJoin, _interned, _weighted_compositions, enumerate_dimvectors
from .groupgraph import GraphOfGroups

_ZERO_ITEM = [(0, 0, 0, 1)]  # the sub-box of the zero vector


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
    generators, never as a list of all its elements.  An element that
    fixes every edge simple is a transposition of two simples of one
    vertex; the others move an edge simple and map each run of the
    transpositions onto a run in ascending order.  A run is a class of
    simples joined by the transpositions, and the transpositions generate
    K, the product of the symmetric groups on the runs, which the other
    elements normalise.
    Those of G come from _automorphism_generators: the adjacent
    transpositions of every signature class, whose runs are the classes,
    so K = G0, and one element per (level, image point) of a stabiliser
    chain of the edge simples.  A subgroup keeps some of them, so its
    orbits refine those of G and it has orbits, representatives and
    decompositions of its own.  `generators` holds their per-vertex
    permutations in the format of SymmetryGroupDescriptor (p[gamma] is the
    image of gamma) and `edge_perms` their tau_e.

    The representative of an orbit is its least code.  That of a K-orbit,
    a key's K-code, sorts every run ascending over its places; quotient
    generates the K-representatives and walks their flat per_vertex tuples
    under the edge-moving generators, whose images are K-representatives
    again.  Since scaling commutes with every relabelling and keeps code
    order, rep(beta*m) = beta*rep(m).
    """

    def __init__(self, g: GraphOfGroups, elements):
        self.graph = g
        self.generators = tuple(sigma for sigma, _ in elements)
        self.edge_perms = tuple(tau for _, tau in elements)
        self._flats = [_flat(sigma) for sigma in self.generators]
        moving = [any(t[delta] != delta for t in tau for delta in range(len(t))) for tau in self.edge_perms]
        self._edge_movers = [_mover(p) for p, m in zip(self._flats, moving) if m]
        runs = _runs(g, [sigma for sigma, m in zip(self.generators, moving) if not m])
        self._join = _EdgeJoin(g)
        self._vertices = [_Runs(vertex.simple_dims, *weights, r)
                          for vertex, weights, r in zip(g.vertices, self._join.weights, runs)]
        self._sorters = [(v, t) for v, t in enumerate(self._vertices) if t.runs]
        self._root = {}  # K-representative code -> representative code
        self.sizes = {}  # representative code -> orbit size
        self._reps = []
        self._rep = {}  # every key's code -> its representative's, from _enumerated totals
        self.orbits = {}  # representative code -> its orbit's keys, in code order
        self._enumerated = 0
        self._decompositions = {}
        self._respecting = {}

    def respecting(self, y_func, trunc: int) -> "Automorphisms":
        """The subgroup H generated by the generators whose mover keeps
        y_func on every key of total <= trunc, with y_func evaluated once
        per key: self when y_func is None (correction_y, which G keeps),
        when self has no generator, or when every generator is kept.
        y_func is constant on the orbits of H, and H is self exactly when
        y_func is constant on those of self.  Cached by (y_func, trunc) on
        this group and on H, whose generators all keep y_func, so every
        stage that asks for the same correction gets the same object and
        y_func is evaluated once.

        A kept edge-moving generator sigma maps the runs of H onto runs,
        so it normalises their symmetric groups: sigma sends each class
        onto a class in ascending order, so it conjugates a kept
        transposition of neighbours in a class into a transposition of
        neighbours, which keeps y_func too and is kept."""
        if y_func is None or not self.generators:
            return self
        H = self._respecting.get((y_func, trunc))
        if H is None:
            g = self.graph
            y = {}
            for d in range(trunc + 1):
                for m in enumerate_dimvectors(g, d):
                    y[tuple(chain.from_iterable(m.per_vertex))] = y_func(g, m)
            kept = [i for i, mover in enumerate(map(_mover, self._flats))
                    if all(y[mover(t)] == value for t, value in y.items())]
            if len(kept) == len(self.generators):
                H = self
            elif not kept:
                H = trivial(g)
            else:
                H = Automorphisms(g, [(self.generators[i], self.edge_perms[i]) for i in kept])
            self._respecting[y_func, trunc] = H._respecting[y_func, trunc] = H
        return H

    def quotient(self, trunc: int):
        """Builds the orbit quotient degree by degree up to total trunc:
        the representatives (reps), root and sizes, interning the
        representatives only.  The join of the vertex compositions whose
        runs ascend gives (code, per_vertex) of the K-representatives in
        code order; the walk of their flat tuples under the edge-moving
        generators joins their K-orbits into orbits, whose first
        K-representative is the least key.  root maps every
        K-representative to its representative, and an orbit's size is
        the sum of its K-orbits' sizes."""
        g, join, root, sizes = self.graph, self._join, self._root, self.sizes
        for d in range(len(self._reps), trunc + 1):
            found = join([join.items(v, t.compositions(d)) for v, t in enumerate(self._vertices)])
            vectors = dict(found)
            if self._edge_movers:
                flat = {c: tuple(chain.from_iterable(pv)) for c, pv in found}
                code_of = dict(zip(flat.values(), flat))
            reps = []
            for c, pv in found:
                if c in root:
                    continue
                root[c] = c
                reps.append(c)
                walk = [c]
                for u in walk:
                    for mover in self._edge_movers:
                        w = code_of[mover(flat[u])]
                        if w not in root:
                            root[w] = c
                            walk.append(w)
                sizes[c] = sum(prod(t.size(vectors[u][v]) for v, t in self._sorters) for u in walk)
                _interned(g, c, pv, d)
            self._reps.append(tuple(reps))

    def rep(self, m) -> int:
        """The code of the representative of the key m: root at its code
        plus its vertices' sorter entries.  Needs the quotient of its total."""
        c = m.code
        for v, t in self._sorters:
            c += t[m.per_vertex[v]]
        return self._root[c]

    def reps(self, d: int) -> tuple:
        """Representative codes of total d, ascending; needs the quotient
        of some total >= d first."""
        return self._reps[d]

    def representatives(self, trunc: int) -> dict:
        """{code: code of the orbit representative} for every key of total
        <= trunc, from the full enumeration read through rep; fills
        `orbits`.  Only the readers of every key need it: the per-key
        tables and the tests."""
        self.quotient(trunc)
        rep, orbits = self._rep, self.orbits
        for d in range(self._enumerated, trunc + 1):
            members = {}
            for m in enumerate_dimvectors(self.graph, d):
                r = rep[m.code] = self.rep(m)
                members.setdefault(r, []).append(m)
            orbits.update((r, tuple(ms)) for r, ms in members.items())
            self._enumerated = d + 1
        return rep

    def labelled(self, d: int, label) -> tuple:
        """(reps, labels) over the keys of total d in code order, with no
        key interned: reps[i] is the code of the i-th key's representative
        and labels[i] the concatenation of label(v, x) over its vertex
        vectors x.  One join of every vertex composition, whose items carry
        the K-code of x (its code plus its sorter entry) and its label,
        gives (K-code, text) per key.  Needs the quotient of total d."""
        join = self._join
        boxes = []
        for v, t in enumerate(self._vertices):
            boxes.append([(code + t[x] if t.runs else code, images, label(v, x))
                          for code, images, (x,) in join.items(v, _weighted_compositions(d, t.dims))])
        parts = join(boxes)
        return [self._root[c] for c, _ in parts], [text for _, text in parts]

    def decompositions(self, code: int) -> tuple:
        """The flat tuple (r1, r2, k, r1, r2, k, ...) for the
        representative with this code: k of its sub-vectors m1 (zero and m
        included) have rep(m1) = r1 and rep(m - m1) = r2.  One tuple per
        representative, whatever its number of pairs; read it with
        zip(it, it, it).  The join of each vertex's sub-box items
        (_Runs.box), one per pair of K-orbits of y and x - y, gives (K-code
        of m1, K-code of m - m1, multiplicity) per pair of K-orbits; root
        maps both codes, and equal pairs merge.  Needs the quotient of
        its total."""
        out = self._decompositions.get(code)
        if out is None:
            m = self.graph._dv_cache[code]
            found = self._join(list(map(_Runs.box, self._vertices, m.per_vertex)))
            if self._edge_movers:
                root, count = self._root, {}
                for c1, c2, k in found:
                    key = (root[c1], root[c2])
                    count[key] = count.get(key, 0) + k
                out = tuple(chain.from_iterable(map(add, count, zip(count.values()))))
            else:  # K = G: the pairs of K-representatives are distinct
                out = tuple(chain.from_iterable(found))
            self._decompositions[code] = out
        return out


class _Runs(dict):
    """One vertex's runs under a group.  As a dict, {x: code of x with
    every run sorted minus the code of x}, each computed on first read as
    a sum of per-run offsets, cached by the run's entries.  weights and
    images are the vertex's code weights and packed edge images per
    simple; the simples of one run share images."""

    def __init__(self, dims, weights: list, images: list, runs: list):
        super().__init__()
        self.dims, self.runs = dims, runs
        self.entries = [itemgetter(*run) for run in runs]
        self.offsets = [({}, [weights[p] for p in run]) for run in runs]
        self.sizes = [{} for _ in runs]
        self.floor = [None] * len(weights)
        for run in runs:
            for a, b in zip(run, run[1:]):
                self.floor[b] = a
        alone = sorted(set(range(len(weights))).difference(*runs))
        # (entries, code weights, images, box steps by entries) per run and
        # per simple in no run, whose slice keeps its entry a tuple
        self.groups = [(itemgetter(*run) if len(run) > 1 else itemgetter(slice(run[0], run[0] + 1)),
                        [weights[p] for p in run], images[run[0]], {})
                       for run in runs + [[p] for p in alone]]

    def __missing__(self, x):
        out = 0
        for entries, (cache, weights) in zip(self.entries, self.offsets):
            xr = entries(x)
            offset = cache.get(xr)
            if offset is None:
                offset = cache[xr] = sum(map(mul, map(sub, sorted(xr), xr), weights))
            out += offset
        self[x] = out
        return out

    def compositions(self, d: int) -> list:
        """The weighted compositions of d whose runs ascend: the
        K-representatives' vectors of this vertex, in code order."""
        return _weighted_compositions(d, self.dims, self.floor)

    def size(self, x) -> int:
        """The size of the orbit of x under the symmetric groups of the
        runs: one multinomial per run, cached by the run's entries."""
        n = 1
        for entries, cache in zip(self.entries, self.sizes):
            xr = entries(x)
            k = cache.get(xr)
            if k is None:
                k = cache[xr] = factorial(len(xr)) // prod(map(factorial, Counter(xr).values()))
            n *= k
        return n

    def box(self, x) -> list:
        """The sub-box y <= x as items (K-code of y, packed images of y,
        K-code of x - y, number of such y): one item per pair of orbits of
        y and x - y under the runs' symmetric groups, from the steps of
        each run and each simple in no run, cached by its entries of x."""
        items = _ZERO_ITEM
        for entries, weights, image, cache in self.groups:
            xr = entries(x)
            if any(xr):
                steps = cache.get(xr)
                if steps is None:
                    steps = cache[xr] = _run_steps(xr, weights, image)
                items = steps if items is _ZERO_ITEM else [
                    (a + s, b + t, c + u, k * n) for a, b, c, k in items for s, t, u, n in steps]
        return items


def _run_steps(xr: tuple, weights: list, image: int) -> list:
    """The vectors y <= xr of one run as (K-code of y, packed images of
    y, K-code of xr - y, number of such y), one per pair of sorted y and
    sorted xr - y; weights are the code weights of the run's places and
    image the packed images of each of its simples."""
    count = Counter((tuple(sorted(y)), tuple(sorted(map(sub, xr, y))))
                    for y in product(*[range(k + 1) for k in xr]))
    return [(sum(map(mul, a, weights)), sum(a) * image, sum(map(mul, b, weights)), n)
            for (a, b), n in count.items()]


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


def _flat(sigma) -> list:
    """sigma as one permutation of the flat indices of the vertex simples."""
    out = []
    for p in sigma:
        out += [len(out) + x for x in p]
    return out


def _mover(p: list):
    """The map of flat per_vertex tuples that moves entry f to place p[f]."""
    inverse = [0] * len(p)
    for f, image in enumerate(p):
        inverse[image] = f
    return itemgetter(*inverse)


def _runs(g: GraphOfGroups, transpositions: list) -> list:
    """Every vertex's runs: the classes of two or more of its simples that
    the transpositions join, each ascending, in order of their least
    simple."""
    parent = {}

    def root(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for sigma in transpositions:
        a, b = ((v, x) for v, p in enumerate(sigma) for x in range(len(p)) if p[x] != x)
        ra, rb = root(a), root(b)
        parent[ra] = parent[rb] = min(ra, rb)
    out = [{} for _ in g.vertices]
    for v, x in sorted(parent):
        out[v].setdefault(root((v, x)), []).append(x)
    return [list(runs.values()) for runs in out]


def _signature_classes(g: GraphOfGroups) -> list:
    """Every vertex's signature classes with two or more simples, each
    ascending: the simples of equal dimension and equal column in every
    restriction matrix at the vertex."""
    matrices = [[] for _ in g.vertices]
    for e in g.edges:
        matrices[e.s].append(e.iota.matrix)
        matrices[e.t].append(e.kappa.matrix)
    out = []
    for v, vertex in enumerate(g.vertices):
        classes = {}
        for gamma, dim in enumerate(vertex.simple_dims):
            key = (dim,) + tuple(row[gamma] for m in matrices[v] for row in m)
            classes.setdefault(key, []).append(gamma)
        out.append([c for c in classes.values() if len(c) > 1])
    return out


def _automorphism_generators(g: GraphOfGroups) -> list:
    """[(sigma, tau)] generating G: the adjacent transpositions of every
    signature class, which generate G0, then one element per (level,
    image point) of the stabiliser chain of the edge simples in flat
    order.  Level (j, b) fixes every earlier edge simple and sends b to a
    later simple p of equal dimension; levels run from the last, so p is
    skipped when the elements found so far (all of which fix the earlier
    edge simples) already carry b to it.  A group S_n of edge
    permutations thus costs n - 1 elements.  Elements with the same tau
    differ by an element of G0, so these and G0 generate G; the ones that
    move no vertex simple fix every key and are left out."""
    identity = [tuple(range(len(v.simple_dims))) for v in g.vertices]
    still = tuple(tuple(range(len(e.group.simple_dims))) for e in g.edges)
    found = []
    for v, classes in enumerate(_signature_classes(g)):
        for c in classes:
            for a, b in zip(c, c[1:]):
                p = list(identity[v])
                p[a], p[b] = b, a
                found.append(((*identity[:v], tuple(p), *identity[v + 1:]), still))
    moving = []
    for j in reversed(range(len(g.edges))):
        dims = g.edges[j].group.simple_dims
        for b in reversed(range(len(dims))):
            orbit = {b}
            for p in range(b + 1, len(dims)):
                if dims[p] != dims[b]:
                    continue
                frontier = list(orbit)
                while frontier:
                    x = frontier.pop()
                    for _, tau in moving:
                        y = tau[j][x]
                        if y not in orbit:
                            orbit.add(y)
                            frontier.append(y)
                if p in orbit:
                    continue
                pinned = [{delta: delta for delta in range(len(e.group.simple_dims))}
                          if i < j else {} for i, e in enumerate(g.edges)]
                pinned[j] = {delta: delta for delta in range(b)}
                pinned[j][b] = p
                element = _extend(g, pinned)
                if element is not None:
                    moving.append(element)
                    orbit.add(p)
    # an element that moves no vertex simple fixes every key
    return found + [(sigma, tau) for sigma, tau in moving if list(sigma) != identity]


def _extend(g: GraphOfGroups, pinned: list):
    """One element (sigma, tau) of G with tau_e[delta] = pinned[e][delta]
    wherever pinned, or None.

    The backtrack assigns tau edge simple by edge simple, the pinned ones
    first.  With tau known on the assigned edge simples, a vertex simple
    gamma may go to gamma' exactly when their signatures agree: the
    dimension and the entries M[delta][gamma] against M[tau
    delta][gamma'] over the assigned delta of every restriction M at that
    vertex.  Each edge simple may only go to one of equal dimension.
    Agreement is an equivalence, so sigma_v exists iff the signatures
    agree as multisets (_match).  Only the end vertices of an edge read its
    tau, so assigning tau_e[delta] extends their signatures by one entry
    and matches them again; the match at the last node is sigma.  There a
    signature class is one signature, so sigma sends every class onto its
    image in ascending order and maps a key with sorted classes to one
    with sorted classes."""
    at = [((e.s, e.iota.matrix), (e.t, e.kappa.matrix)) for e in g.edges]
    tau = [[None] * len(e.group.simple_dims) for e in g.edges]
    domains = {}
    for j, e in enumerate(g.edges):
        dims = e.group.simple_dims
        for delta in range(len(dims)):
            pin = pinned[j].get(delta)
            domains[j, delta] = [pin] if pin is not None else [
                image for image in range(len(dims)) if dims[image] == dims[delta]]
    points = sorted(domains, key=lambda point: len(domains[point]))
    # per vertex: its simples' signatures as preimages and as images, and
    # their match, the identity while no tau entry is assigned
    state = []
    for vertex in g.vertices:
        signatures = [(dim,) for dim in vertex.simple_dims]
        state.append((signatures, signatures, tuple(range(len(signatures)))))

    def search(i):
        if i == len(points):
            return tuple(p for _, _, p in state)
        j, delta = points[i]
        for image in domains[j, delta]:
            if image not in tau[j]:
                tau[j][delta] = image
                before = state[:]
                for v, m in at[j]:
                    xs, ys, _ = state[v]
                    xs, ys = list(map(add, xs, zip(m[delta]))), list(map(add, ys, zip(m[image])))
                    state[v] = (xs, ys, _match(xs, ys))
                if all(state[v][2] is not None for v, _ in at[j]):
                    s = search(i + 1)
                    if s is not None:
                        return s
                state[:] = before
                tau[j][delta] = None
        return None

    s = search(0)
    return None if s is None else (s, tuple(tuple(t) for t in tau))


def _match(xs: list, ys: list):
    """The permutation that sends each simple x to the first free simple y
    with ys[y] == xs[x], or None when the signatures differ as multisets."""
    free = {}  # signature -> free images, ascending
    for y, key in enumerate(ys):
        free.setdefault(key, []).append(y)
    p = []
    for key in xs:
        images = free.get(key)
        if not images:
            return None
        p.append(images.pop(0))
    return tuple(p)
