"""The orbit quotient against its reference path.

Automorphisms.representatives sorts each key's runs and walks the
results under the edge-moving generators only.  The reference here is
the flat orbit walk it replaced: every generator applied to every key,
the orbit's least code as its representative.  Both must give the same
representatives, orbits and decompositions under G, under the subgroups
H that a correction respects, and under the trivial group.
"""

from itertools import chain
from operator import attrgetter, itemgetter

import pytest

from test_dimmonoid import _fresh, _hnn_loop, random_group_data
from test_groupgraph import ALL_PRESETS
from test_series import _alt_y, _weighted_y
from vfreps import orbits
from vfreps.dimmonoid import _EdgeJoin, enumerate_dimvectors
from vfreps.orbits import automorphisms, trivial


def _flat_movers(g, generators):
    """One map of flat per_vertex tuples per generator: entry f of the
    flat tuple goes to the place of its image."""
    offsets, base = [], 0
    for v in g.vertices:
        offsets.append(base)
        base += len(v.simple_dims)
    movers = []
    for sigma in generators:
        flat = [b + p[gamma] for b, p in zip(offsets, sigma) for gamma in range(len(p))]
        inverse = [0] * len(flat)
        for f, image in enumerate(flat):
            inverse[image] = f
        movers.append(itemgetter(*inverse))
    return movers


def _flat_walk(G, trunc):
    """(rep, orbits, reps per total) of G by the flat walk over every key."""
    g = G.graph
    movers = _flat_movers(g, G.generators)
    rep, orbits, reps = {}, {}, []
    for d in range(trunc + 1):
        keys = enumerate_dimvectors(g, d)
        flats = [tuple(chain.from_iterable(m.per_vertex)) for m in keys]
        vector_of = dict(zip(flats, keys))
        found = []
        # keys come in code order, so the first key of an orbit is its least
        for t, m in zip(flats, keys):
            c = m.code
            if c in rep:
                continue
            found.append(c)
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
            orbits[c] = tuple(members)
        reps.append(tuple(found))
    return rep, orbits, reps


def _counted_decompositions(g, rep, code):
    """(r1, r2, k, ...) of the representative with this code, counted in
    a dict in the order the join meets the pairs."""
    join = _EdgeJoin(g)
    count = {}
    m = g._dv_cache[code]
    for c1, _ in join([join.box(v, x) for v, x in enumerate(m.per_vertex)]):
        key = (rep[c1], rep[code - c1])
        count[key] = count.get(key, 0) + 1
    return tuple(chain.from_iterable((r1, r2, k) for (r1, r2), k in count.items()))


def _runs(generators, edge_perms):
    """The runs of a group's transpositions (its generators that fix
    every edge simple), as sets of (vertex, simple), by a union-find of
    their own."""
    parent = {}

    def root(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for sigma, tau in zip(generators, edge_perms):
        if all(t == tuple(range(len(t))) for t in tau):
            (a, b), = [[(v, x) for v, p in enumerate(sigma) for x in range(len(p)) if p[x] != x]]
            parent[root(a)] = root(b)
    runs = {}
    for x in list(parent):
        runs.setdefault(root(x), set()).add(x)
    for x, r in list(runs.items()):
        runs[x] = r | {x}
    return [frozenset(r) for r in runs.values()]


def _check_generators(G):
    """A generator that fixes every edge simple is a transposition of two
    simples of one vertex, and every other one, which moves an edge
    simple, maps every run onto a run in ascending order.  Returns the
    number of edge-moving generators."""
    runs = _runs(G.generators, G.edge_perms)
    moving = 0
    for sigma, tau in zip(G.generators, G.edge_perms):
        moved = [(v, x) for v, p in enumerate(sigma) for x in range(len(p)) if p[x] != x]
        if all(t == tuple(range(len(t))) for t in tau):
            assert len(moved) == 2 and moved[0][0] == moved[1][0]
            continue
        moving += 1
        for run in runs:
            image = frozenset((v, sigma[v][x]) for v, x in run)
            assert image in runs
            (v,) = {v for v, _ in run}
            places = sorted(x for _, x in run)
            assert [sigma[v][x] for x in places] == sorted(sigma[v][x] for x in places)
    return moving


def _groups(g, D):
    """G, the subgroups that _alt_y and three uneven weighted corrections
    respect, and the trivial group."""
    G = automorphisms(g)
    n = sum(len(v.simple_dims) for v in g.vertices)
    first, base = [0] * n, 0
    for v in g.vertices:
        first[base] = 1
        base += len(v.simple_dims)
    weights = [first, [(3 * i + 1) % 5 for i in range(n)], [0] * (n - 1) + [1]]
    return [G, G.respecting(_alt_y, D)] + [G.respecting(_weighted_y(w), D) for w in weights] + [trivial(g)]


def _signature_classes(g):
    """The classes of two or more simples of one vertex with equal
    dimension and equal columns in every restriction matrix there."""
    classes = {}
    for v, vertex in enumerate(g.vertices):
        matrices = [e.iota.matrix for e in g.edges if e.s == v] + [e.kappa.matrix for e in g.edges if e.t == v]
        for x, dim in enumerate(vertex.simple_dims):
            key = (v, dim, tuple(tuple(row[x] for row in m) for m in matrices))
            classes.setdefault(key, set()).add((v, x))
    return sorted(sorted(c) for c in classes.values() if len(c) > 1)


def _check_against_the_flat_walk(g, D, decomposed_up_to):
    G = automorphisms(g)
    # the transpositions of G generate G0, the product of the symmetric
    # groups on the signature classes
    assert sorted(sorted(r) for r in _runs(G.generators, G.edge_perms)) == _signature_classes(g)
    for group in _groups(g, D):
        _check_generators(group)
        rep, orbits, reps = _flat_walk(group, D)
        assert group.representatives(D) == rep
        assert group.orbits == orbits
        assert [group.reps(d) for d in range(D + 1)] == reps
        for d in range(min(D, decomposed_up_to) + 1):
            for r in group.reps(d):
                assert group.decompositions(r) == _counted_decompositions(g, rep, r)


@pytest.mark.parametrize("name, D", [("sl2z", 6), ("gl2z", 6), ("pgl2z", 8), ("psl2z", 8)])
def test_the_quotient_equals_the_flat_walk_on_presets(name, D):
    _check_against_the_flat_walk(_fresh(name), D, 4)


def test_the_quotient_equals_the_flat_walk_on_random_group_data():
    for g in random_group_data():
        _check_against_the_flat_walk(g, 4, 4)


def test_the_quotient_equals_the_flat_walk_on_hnn_loops():
    for twisted in (False, True):
        _check_against_the_flat_walk(_hnn_loop(twisted), 6, 4)


@pytest.mark.parametrize("name, moving", [("sl2z", 1), ("gl2z", 2), ("psl2z", 0), ("dinf", 0)])
def test_edge_moving_generators_of_the_presets(name, moving):
    # the rest of each G is the adjacent transpositions of its signature
    # classes, which generate G0
    assert _check_generators(automorphisms(_fresh(name))) == moving


def _rebuilding_extend(g, pinned):
    """The backtrack of orbits._extend with every vertex's signatures
    rebuilt at every node: the reference for the one that recomputes only
    the end vertices of the edge just assigned."""
    ends = [[] for _ in g.vertices]
    for j, e in enumerate(g.edges):
        ends[e.s].append((j, e.iota.matrix))
        ends[e.t].append((j, e.kappa.matrix))
    tau = [[None] * len(e.group.simple_dims) for e in g.edges]
    domains = {}
    for j, e in enumerate(g.edges):
        dims = e.group.simple_dims
        for delta in range(len(dims)):
            pin = pinned[j].get(delta)
            domains[j, delta] = [pin] if pin is not None else [
                image for image in range(len(dims)) if dims[image] == dims[delta]]
    points = sorted(domains, key=lambda point: len(domains[point]))

    def sigma():
        out = []
        for v, vertex in enumerate(g.vertices):
            dims = vertex.simple_dims
            terms = [(m, delta, image) for j, m in ends[v]
                     for delta, image in enumerate(tau[j]) if image is not None]
            free = {}
            for y in range(len(dims)):
                key = (dims[y],) + tuple(m[image][y] for m, _, image in terms)
                free.setdefault(key, []).append(y)
            p = []
            for x in range(len(dims)):
                images = free.get((dims[x],) + tuple(m[delta][x] for m, delta, _ in terms))
                if not images:
                    return None
                p.append(images.pop(0))
            out.append(tuple(p))
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


REFERENCE_PRESETS = ALL_PRESETS + ["cyclic_amalgam(12,6,12)", "cyclic_amalgam(24,24,24)"]


def test_generators_equal_those_of_the_rebuilding_backtrack(monkeypatch):
    graphs = [_fresh(name) for name in REFERENCE_PRESETS] + list(random_group_data())
    graphs += [_hnn_loop(twisted) for twisted in (False, True)]
    found = [orbits._automorphism_generators(g) for g in graphs]
    monkeypatch.setattr(orbits, "_extend", _rebuilding_extend)
    assert [orbits._automorphism_generators(g) for g in graphs] == found
    assert any(any(tau != tuple(map(tuple, map(range, map(len, tau)))) for _, tau in gens) for gens in found)
