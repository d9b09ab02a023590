import random
from functools import lru_cache
from itertools import permutations, product

import pytest

from vfreps.dimmonoid import (
    SymmetryGroupDescriptor,
    correction_y,
    dimvector,
    enumerate_dimvectors,
    euler_form,
    format_dimvector,
    gcd_div,
    parse_dimvector,
    scale,
    shift_exponent,
    symmetry_descriptor,
    symmetry_orbits,
    try_sub,
    zero_vector,
)
from vfreps.groupgraph import (
    D2_TO_C2,
    D3_TO_C2,
    D4_TO_KLEIN,
    D6_TO_KLEIN,
    KLEIN_GROUP,
    TRIVIAL_GROUP,
    Edge,
    FiniteGroupData,
    GraphOfGroups,
    RestrictionMap,
    cyclic_group,
    cyclic_restriction,
    dihedral_group,
    load,
    preset,
    save,
    validate,
)
from vfreps.orbits import automorphisms
from vfreps.series import compute_absim, compute_ss


def brute_force_enumerate(g, d):
    """Independent enumeration: all per-vertex weighted compositions of d,
    filtered by every edge constraint."""
    per_vertex_choices = []
    for v in g.vertices:
        dims = v.simple_dims
        choices = [
            m
            for m in product(*(range(d // w + 1) for w in dims))
            if sum(w * x for w, x in zip(dims, m)) == d
        ]
        per_vertex_choices.append(choices)
    out = []
    for pv in product(*per_vertex_choices):
        if all(e.iota.apply(pv[e.s]) == e.kappa.apply(pv[e.t]) for e in g.edges):
            out.append(tuple(pv))
    return sorted(out)


# ---------------------------------------------------------------------------
# totals and enumeration
# ---------------------------------------------------------------------------

def test_total_dim_examples():
    g = preset("psl2z")
    assert parse_dimvector(g, "((1,1),(1,1,0))").total == 2
    assert zero_vector(g).total == 0
    gg = preset("gl2z")
    m = dimvector(gg, ((0, 0, 0, 0, 1), (0, 1, 1, 0, 0, 0)))
    assert m.total == 2


def test_enumerate_examples():
    g = preset("psl2z")
    assert len(enumerate_dimvectors(g, 1)) == 6
    assert enumerate_dimvectors(g, 0) == (zero_vector(g),)
    assert len(enumerate_dimvectors(preset("dinf"), 2)) == 9


@pytest.mark.parametrize(
    "name,dmax",
    [
        ("psl2z", 4), ("sl2z", 3), ("gl2z", 4), ("pgl2z", 4),
        ("free(2)", 4), ("gc(2)", 3), ("dihedral(6)", 4), ("dinf", 4),
        ("cyclic(1)", 6), ("cyclic(3)", 6), ("dihedral(4)", 6),
        ("cyclic_free_product(2,3)", 6), ("cyclic_amalgam(2,2,4)", 6),
        ("cyclic_amalgam(6,3,6)", 4), ("cyclic_amalgam(12,12,12)", 1),
    ],
)
def test_enumerate_matches_brute_force(name, dmax):
    g = preset(name)
    for d in range(dmax + 1):
        got = [m.per_vertex for m in enumerate_dimvectors(g, d)]
        assert got == brute_force_enumerate(g, d)
        assert len(set(got)) == len(got)
        assert all(m.total == d for m in enumerate_dimvectors(g, d))


def test_enumeration_is_sorted_lexicographically():
    g = preset("psl2z")
    vecs = [sum(m.per_vertex, ()) for m in enumerate_dimvectors(g, 3)]
    assert vecs == sorted(vecs)


def _check_codes_increase(g, D):
    """The join returns every degree's keys in code order without a sort:
    their codes increase strictly, so their per_vertex tuples do too."""
    for d in range(D + 1):
        keys = enumerate_dimvectors(g, d)
        assert all(a.code < b.code for a, b in zip(keys, keys[1:])), d
        assert all(a.per_vertex < b.per_vertex for a, b in zip(keys, keys[1:])), d


def _unpruned_constrained_vectors(u, matrix, dims):
    """All nonnegative x with matrix . x = u, unpruned: every column is
    enumerated up to its bound and the residual is checked only at the leaf."""
    rows, cols = len(matrix), len(dims)
    out = []

    def rec(gamma, residual, acc):
        if gamma == cols:
            if all(r == 0 for r in residual):
                out.append(tuple(acc))
            return
        bound = min(residual[r] // matrix[r][gamma] for r in range(rows) if matrix[r][gamma])
        for x in range(bound + 1):
            rec(
                gamma + 1,
                tuple(residual[r] - x * matrix[r][gamma] for r in range(rows)),
                acc + [x],
            )

    rec(0, tuple(u), [])
    return out


ENUMERATION_PRESETS = [
    "free(2)", "cyclic(1)", "cyclic(3)", "dihedral(4)", "cyclic_free_product(2,3)",
    "cyclic_amalgam(2,2,4)", "dinf", "gc(2)", "psl2z", "sl2z", "gl2z", "pgl2z",
    "cyclic_amalgam(6,3,6)", "cyclic_amalgam(12,12,12)",
]


@pytest.mark.parametrize("name", ENUMERATION_PRESETS)
def test_enumeration_codes_increase_strictly_on_presets(name):
    _check_codes_increase(_fresh(name), 5)


def test_enumeration_codes_increase_strictly_on_random_group_data():
    for g in random_group_data():
        _check_codes_increase(g, 5)
    for twisted in (False, True):
        _check_codes_increase(_hnn_loop(twisted), 6)


@pytest.mark.parametrize("name", ENUMERATION_PRESETS)
def test_pruned_edge_solver_matches_the_unpruned_recursion(name):
    # the edge-constraint join against the propagation it replaced: vertex 0
    # ranges over the weighted compositions of d, each amalgam tree edge is
    # solved for by the unpruned recursion, and HNN edges filter; both the
    # keys (in code order) and their edge images must agree
    g = preset.__wrapped__(name)
    images = []
    for d in range(5):
        # the weighted compositions of d at vertex 0 are the solutions of
        # the one-row system dims . x = d
        dims = g.vertices[0].simple_dims
        partial = [((x,), ()) for x in _unpruned_constrained_vectors((d,), [dims], dims)]
        for e in g.edges:
            if e.kind != "amalgam":
                continue
            grown = []
            for pv, us in partial:
                u = e.iota.apply(pv[e.s])
                images.append(u)
                for w in _unpruned_constrained_vectors(u, e.kappa.matrix, g.vertices[e.t].simple_dims):
                    grown.append((pv + (w,), us + (u,)))
            partial = grown
        expected = []
        for pv, us in partial:
            amalgam_images = iter(us)
            per_edge = []
            for e in g.edges:
                u = next(amalgam_images) if e.kind == "amalgam" else e.iota.apply(pv[e.s])
                if e.kind != "amalgam" and u != e.kappa.apply(pv[e.t]):
                    break
                per_edge.append(u)
            else:
                expected.append((pv, tuple(per_edge)))
        got = [(m.per_vertex, m.per_edge) for m in enumerate_dimvectors(g, d)]
        assert got == sorted(expected, key=lambda key: sum(key[0], ()))
    assert bool(images) == any(e.kind == "amalgam" for e in g.edges)


@pytest.mark.parametrize("n,D", [(1, 8), (2, 8), (6, 6), (12, 5)])
def test_cyclic_amalgam_key_counts_match_the_closed_form(n, D):
    # C_n *_{C_n} C_n glues both vertices along the identity, so a key of
    # total d is one composition of d into n parts: C(d+n-1, n-1) of them
    # (6188 keys of total <= 5 for n = 12)
    from math import comb

    g = preset.__wrapped__(f"cyclic_amalgam({n},{n},{n})")
    counts = [len(enumerate_dimvectors(g, d)) for d in range(D + 1)]
    assert counts == [comb(d + n - 1, n - 1) for d in range(D + 1)]


# ---------------------------------------------------------------------------
# monoid arithmetic
# ---------------------------------------------------------------------------

def test_add_and_sub_examples():
    g = preset("psl2z")
    m = parse_dimvector(g, "((1,1),(1,1,0))")
    z = zero_vector(g)
    assert m + z == m
    n = parse_dimvector(g, "((1,0),(0,0,1))")
    assert m + n == parse_dimvector(g, "((2,1),(1,1,1))")
    a = parse_dimvector(g, "((1,0),(1,0,0))")
    b = parse_dimvector(g, "((0,1),(0,1,0))")
    assert try_sub(a, b) is None
    assert try_sub(a + b, b) == a


def test_gcd_divide():
    g = preset("psl2z")
    m = parse_dimvector(g, "((2,2),(2,2,0))")
    assert gcd_div(m) == (2, [1, 2])
    assert gcd_div(parse_dimvector(g, "((1,1),(1,1,0))"))[0] == 1
    with pytest.raises(ValueError):
        gcd_div(zero_vector(g))


def test_scale_refuses_a_negative_scalar_before_interning():
    g = preset.__wrapped__("psl2z")
    m = parse_dimvector(g, "((1,1),(1,1,0))")
    cached = dict(g._dv_cache)
    with pytest.raises(ValueError, match="negative"):
        scale(m, -1)
    assert g._dv_cache == cached
    assert scale(m, 0) == zero_vector(g)
    assert scale(m, 2) == parse_dimvector(g, "((2,2),(2,2,0))")


# ---------------------------------------------------------------------------
# Euler form and parity correction
# ---------------------------------------------------------------------------

def test_euler_form_examples():
    g = preset("psl2z")
    m = parse_dimvector(g, "((1,1),(1,1,0))")
    assert euler_form(g, m, m) == 0
    m2 = parse_dimvector(g, "((2,2),(2,1,1))")
    assert euler_form(g, m2, m2) == -2
    gf = preset("free(2)")
    for d in (1, 2, 3):
        md = dimvector(gf, ((d,),))
        assert euler_form(gf, md, md) == -d * d
        assert correction_y(gf, md) == -d


def test_euler_form_symmetric_biadditive_random():
    rng = random.Random(11)
    g = preset("sl2z")
    pool = [m for d in range(4) for m in enumerate_dimvectors(g, d)]
    for _ in range(60):
        m, n, k = (rng.choice(pool) for _ in range(3))
        assert euler_form(g, m, n) == euler_form(g, n, m)
        assert euler_form(g, m + k, n) == euler_form(g, m, n) + euler_form(g, k, n)


def test_correction_examples():
    g = preset("psl2z")
    m = parse_dimvector(g, "((1,1),(1,1,0))")
    assert correction_y(g, m) == 2
    assert shift_exponent(g, m) == -1
    z = zero_vector(g)
    assert correction_y(g, z) == 0 and shift_exponent(g, z) == 0


@pytest.mark.parametrize("name", ["psl2z", "sl2z", "gl2z", "pgl2z", "free(2)", "gc(2)"])
def test_parity_congruence(name):
    g = preset(name)
    for d in range(5):
        for m in enumerate_dimvectors(g, d):
            assert (euler_form(g, m, m) - correction_y(g, m)) % 2 == 0


# ---------------------------------------------------------------------------
# symmetry orbits
# ---------------------------------------------------------------------------

def test_orbit_of_degree_six_vector_lists_permutations():
    g = preset("psl2z")
    desc = symmetry_descriptor(g)
    orbits = symmetry_orbits(g, desc, 6)
    target = parse_dimvector(g, "((3,3),(3,2,1))")
    (orbit,) = [o for o in orbits if target in o]
    assert len(orbit) == 6
    got = {m.per_vertex[1] for m in orbit}
    assert got == {(3, 2, 1), (3, 1, 2), (2, 3, 1), (2, 1, 3), (1, 3, 2), (1, 2, 3)}


def test_orbit_structure_at_dimension_one():
    g = preset("psl2z")
    desc = symmetry_descriptor(g)
    orbits = symmetry_orbits(g, desc, 1)
    target = parse_dimvector(g, "((1,0),(1,0,0))")
    (orbit,) = [o for o in orbits if target in o]
    assert len(orbit) == 6  # full S2 x S3 orbit
    assert sum(len(o) for o in orbits) == 6


def test_trivial_symmetry_group_gives_singletons():
    g = preset("free(2)")
    desc = symmetry_descriptor(g)
    assert desc.generators == ()
    orbits = symmetry_orbits(g, desc, 3)
    assert all(len(o) == 1 for o in orbits)


def test_abelian_vertices_descriptor_for_cyclic_amalgam():
    g = preset("sl2z")
    desc = symmetry_descriptor(g)
    assert desc.kind == "abelian_vertices"
    orbits = symmetry_orbits(g, desc, 2)
    for o in orbits:
        e0 = euler_form(g, o[0], o[0])
        assert all(euler_form(g, m, m) == e0 for m in o)


def test_symmetry_preserves_euler_form():
    g = preset("psl2z")
    desc = symmetry_descriptor(g)
    for d in (2, 3, 4):
        for o in symmetry_orbits(g, desc, d):
            e0 = euler_form(g, o[0], o[0])
            assert all(euler_form(g, m, m) == e0 for m in o)


def test_symmetry_not_applicable_for_dihedral_amalgams():
    with pytest.raises(ValueError):
        symmetry_descriptor(preset("gl2z"))


def test_symmetry_walk_rejects_a_permutation_that_breaks_an_edge():
    # swapping two C4 simples that restrict to different C2 simples, with
    # C6 fixed, maps a key to a vector that violates the edge constraint
    g = preset("sl2z")
    bad = ((1, 0, 2, 3), tuple(range(6)))
    with pytest.raises(ValueError):
        symmetry_orbits(g, SymmetryGroupDescriptor("bad", (bad,)), 1)


# ---------------------------------------------------------------------------
# the automorphism group G and its orbit representatives
# ---------------------------------------------------------------------------

DESCRIPTOR_PRESETS = [
    "psl2z", "sl2z", "dinf", "gc(2)", "free(2)",
    "cyclic_amalgam(2,2,4)", "cyclic_amalgam(6,3,6)", "cyclic_amalgam(8,4,8)",
]


def _fresh(name):
    """A new, uncached graph of a preset."""
    return load(save(preset(name)))


def _orbits_of(G, g, d):
    rep = G.representatives(d)
    orbits = {}
    for m in enumerate_dimvectors(g, d):
        orbits.setdefault(rep[m.code], []).append(m.code)
    return orbits


@pytest.mark.parametrize("name", DESCRIPTOR_PRESETS)
def test_automorphism_orbits_equal_descriptor_orbits(name):
    g = _fresh(name)
    G = automorphisms(g)
    desc = symmetry_descriptor(g)
    for d in range(6):
        want = sorted(tuple(m.code for m in o) for o in symmetry_orbits(g, desc, d))
        got = _orbits_of(G, g, d)
        assert sorted(tuple(o) for o in got.values()) == want
        # each orbit's representative is its least code
        assert all(r == min(o) for r, o in got.items())
        assert G.reps(d) == tuple(sorted(got))


def _hnn_loop(twisted):
    c4, c2 = cyclic_group(4), cyclic_group(2)
    iota = cyclic_restriction(4, 2)
    kappa = RestrictionMap(iota.matrix[::-1]) if twisted else iota
    return GraphOfGroups("c4_loop", [c4], [Edge(c2, 0, 0, iota, kappa, "hnn")])


def _generator_checks(g, G, D):
    assert G.generators
    other = load(save(g))
    for sigma, tau in zip(G.generators, G.edge_perms):
        assert any(p != tuple(range(len(p))) for p in sigma)
        for v, p in zip(g.vertices, sigma):
            assert sorted(p) == list(range(len(v.simple_dims)))
            assert all(v.simple_dims[p[x]] == v.simple_dims[x] for x in range(len(p)))
        for e, t in zip(g.edges, tau):
            dims = e.group.simple_dims
            assert sorted(t) == list(range(len(dims)))
            assert all(dims[t[x]] == dims[x] for x in range(len(t)))
            for rm, p in ((e.iota.matrix, sigma[e.s]), (e.kappa.matrix, sigma[e.t])):
                for delta, row in enumerate(rm):
                    for gamma, x in enumerate(row):
                        assert rm[t[delta]][p[gamma]] == x
        # keys go to keys, checked by the validating constructor on a
        # second uncached copy of the graph
        for d in range(D + 1):
            keys = {m.per_vertex for m in enumerate_dimvectors(g, d)}
            for m in enumerate_dimvectors(g, d):
                pv = []
                for x, p in zip(m.per_vertex, sigma):
                    row = [0] * len(x)
                    for gamma, k in enumerate(x):
                        row[p[gamma]] = k
                    pv.append(tuple(row))
                assert dimvector(other, pv).per_vertex in keys


@pytest.mark.parametrize("name", ["gl2z", "pgl2z", "hnn", "twisted_hnn"])
def test_automorphism_generators_keep_the_graph_data(name):
    g = _hnn_loop(name == "twisted_hnn") if "hnn" in name else _fresh(name)
    assert validate(g) == []
    _generator_checks(g, automorphisms(g), 4)


def test_automorphism_quotient_sizes_without_a_descriptor():
    # counted independently of G by a brute force over all tuples of
    # dimension-preserving vertex permutations that map keys to keys
    for name, D, keys, reps in (("pgl2z", 4, 120, 28), ("gl2z", 3, 61, 16)):
        g = _fresh(name)
        G = automorphisms(g)
        rep = G.representatives(D)
        assert len(rep) == keys
        assert sum(len(G.reps(d)) for d in range(D + 1)) == reps
        assert _brute_force_orbit_count(g, D) == reps


def _vertex_permutations(g):
    """Every tuple of dimension-preserving permutations of the vertex
    simples."""
    return product(*(
        [p for p in permutations(range(len(v.simple_dims)))
         if all(v.simple_dims[p[x]] == v.simple_dims[x] for x in range(len(p)))]
        for v in g.vertices
    ))


def _brute_force_orbit_count(g, D):
    keys = {m.per_vertex for d in range(D + 1) for m in enumerate_dimvectors(g, d)}
    group = []
    for sigma in _vertex_permutations(g):
        images = {}
        for pv in keys:
            out = []
            for x, p in zip(pv, sigma):
                row = [0] * len(x)
                for gamma, k in enumerate(x):
                    row[p[gamma]] = k
                out.append(tuple(row))
            images[pv] = tuple(out)
        if set(images.values()) == keys:
            group.append(images)
    return len({min(images[pv] for images in group) for pv in keys})


def _random_graphs(rng):
    """Sixteen graphs, with every vertex's and edge's simples relabelled at
    random: five two-vertex amalgams of cyclic vertices of order <= 5 over
    C1 to C4, five of D2 or D3 vertices over C1 or C2, and six one-vertex
    HNN loops over C1, C2 and C4, plain and with kappa's rows rotated."""
    out = []
    for _ in range(5):
        k = rng.randint(1, 4)
        a, b = k * rng.randint(1, 5 // k), k * rng.randint(1, 5 // k)
        edge = cyclic_group(k) if k > 1 else TRIVIAL_GROUP
        out.append(([cyclic_group(a), cyclic_group(b)],
                    [(edge, 0, 1, cyclic_restriction(a, k), cyclic_restriction(b, k), "amalgam")]))
    for _ in range(5):
        vertices = [dihedral_group(rng.choice((2, 3))) for _ in range(2)]
        if rng.random() < 0.5:
            maps = [RestrictionMap((v.simple_dims,)) for v in vertices]
            edge = TRIVIAL_GROUP
        else:
            maps = [D2_TO_C2 if v.order == 4 else D3_TO_C2 for v in vertices]
            edge = cyclic_group(2)
        out.append((vertices, [(edge, 0, 1, maps[0], maps[1], "amalgam")]))
    for twisted in (False, True):
        for k in (1, 2, 4):
            n = k * rng.randint(1, 6 // k)
            iota = cyclic_restriction(n, k)
            turn = rng.randint(1, k - 1) if twisted and k > 1 else 0
            rows = iota.matrix[turn:] + iota.matrix[:turn]
            edge = cyclic_group(k) if k > 1 else TRIVIAL_GROUP
            out.append(([cyclic_group(n)], [(edge, 0, 0, iota, RestrictionMap(rows), "hnn")]))
    return _relabelled_graphs(rng, out)


def _random_klein_and_tree_graphs(rng):
    """Nine graphs of the shapes _random_graphs leaves out, relabelled the
    same way: two Klein-edge amalgams of D4 or D6 vertices, three D4 HNN
    loops over the Klein group with kappa's rows permuted at random (both
    by gl2z's restriction maps), and four three-vertex trees of cyclic
    vertices of order <= 4 over C1 or C2 edges."""
    to_klein = {4: D4_TO_KLEIN, 6: D6_TO_KLEIN}
    out = []
    for _ in range(2):
        c = [rng.choice((4, 6)) for _ in range(2)]
        out.append(([dihedral_group(x) for x in c],
                    [(KLEIN_GROUP, 0, 1, to_klein[c[0]], to_klein[c[1]], "amalgam")]))
    for _ in range(3):
        rows = rng.sample(D4_TO_KLEIN.matrix, 4)
        out.append(([dihedral_group(4)], [(KLEIN_GROUP, 0, 0, D4_TO_KLEIN, RestrictionMap(rows), "hnn")]))
    for _ in range(4):
        ks = [rng.choice((1, 2)) for _ in range(2)]
        ends = [(0, 1), (rng.randint(0, 1), 2)]
        # a vertex's order is a multiple of the orders of its edges
        need = [max([1] + [k for e, k in zip(ends, ks) if x in e]) for x in range(3)]
        orders = [k * rng.randint(1, 4 // k) for k in need]
        edges = []
        for (u, v), k in zip(ends, ks):
            edge = cyclic_group(k) if k > 1 else TRIVIAL_GROUP
            edges.append((edge, u, v, cyclic_restriction(orders[u], k), cyclic_restriction(orders[v], k), "amalgam"))
        out.append(([cyclic_group(n) for n in orders], edges))
    return _relabelled_graphs(rng, out)


@lru_cache(maxsize=None)
def random_group_data():
    """The 25 graphs of _random_graphs (seed 18) and
    _random_klein_and_tree_graphs (seed 19), built once, so that every test
    running the pipeline on them shares its caches and exact tables."""
    return tuple(_random_graphs(random.Random(18)) + _random_klein_and_tree_graphs(random.Random(19)))


def _relabelled_graphs(rng, out):
    """Graphs of (vertices, edge tuples) with every vertex's and edge's
    simples renamed by a random permutation."""
    graphs = []
    for vertices, edges in out:
        sigma = [rng.sample(range(len(v.simple_dims)), len(v.simple_dims)) for v in vertices]
        new_edges = []
        for group, s, t, iota, kappa, kind in edges:
            rho = rng.sample(range(len(group.simple_dims)), len(group.simple_dims))
            new_edges.append(Edge(_relabelled(group, rho), s, t, _moved_matrix(iota.matrix, rho, sigma[s]),
                                  _moved_matrix(kappa.matrix, rho, sigma[t]), kind))
        graphs.append(GraphOfGroups("random", [_relabelled(v, p) for v, p in zip(vertices, sigma)], new_edges))
    return graphs


def _relabelled(group, p):
    """The group with simple gamma renamed p[gamma]."""
    return FiniteGroupData(group.label, _moved(group.simple_dims, p), group.order, group.exponent)


def _moved(x, p):
    """x with entry gamma moved to place p[gamma]."""
    out = [0] * len(x)
    for gamma, k in enumerate(x):
        out[p[gamma]] = k
    return tuple(out)


def _moved_matrix(matrix, rows, cols):
    return RestrictionMap(_moved([_moved(row, cols) for row in matrix], rows))


def _brute_force_orbits(g, D):
    """The orbits, as sorted code tuples, on the keys of total <= D of the
    group of every tuple sigma of dimension-preserving vertex permutations
    that keeps each edge's multiset of rows (dimension, iota row moved by
    sigma_s, kappa row moved by sigma_t)."""

    def rows(e, sigma):
        return sorted(zip(e.group.simple_dims, (_moved(r, sigma[e.s]) for r in e.iota.matrix),
                          (_moved(r, sigma[e.t]) for r in e.kappa.matrix)))

    identity = [tuple(range(len(v.simple_dims))) for v in g.vertices]
    group = [sigma for sigma in _vertex_permutations(g)
             if all(rows(e, sigma) == rows(e, identity) for e in g.edges)]
    code = {m.per_vertex: m.code for d in range(D + 1) for m in enumerate_dimvectors(g, d)}
    left, orbits = set(code), []
    while left:
        pv = min(left)
        orbit = {tuple(_moved(x, p) for x, p in zip(pv, sigma)) for sigma in group}
        left -= orbit
        orbits.append(tuple(sorted(code[u] for u in orbit)))
    return sorted(orbits)


def _check_orbits_against_brute_force(graphs):
    for g in graphs:
        assert validate(g) == []
        G = automorphisms(g)
        got = {}
        for c, r in G.representatives(3).items():
            got.setdefault(r, []).append(c)
        assert sorted(tuple(sorted(o)) for o in got.values()) == _brute_force_orbits(g, 3)
        if G.generators:
            _generator_checks(g, G, 3)


def test_automorphism_orbits_of_random_group_data_match_a_brute_force_group():
    _check_orbits_against_brute_force(_random_graphs(random.Random(18)))


def test_automorphism_orbits_of_klein_and_tree_data_match_a_brute_force_group():
    _check_orbits_against_brute_force(_random_klein_and_tree_graphs(random.Random(19)))


def _alt_correction(g, m):
    return correction_y(g, m) + 2 * sum(v[0] for v in m.per_vertex)


def test_pipeline_invariants_on_random_group_data():
    # at D = 4 on every random graph: integral coefficients (no
    # NonPolynomialCoefficient), monic ss, absim and ss of degree
    # 1 - <m,m> where absim is nonzero, and independence of the correction
    D = 4
    for g in random_group_data():
        absim, ss = compute_absim(g, D), compute_ss(g, D)
        for d in range(1, D + 1):
            for m in enumerate_dimvectors(g, d):
                assert ss[m].leading() == 1, m
                if m in absim:
                    want = 1 - euler_form(g, m, m)
                    assert (absim[m].degree, absim[m].leading(), ss[m].degree) == (want, 1, want), m
        assert compute_absim(g, D, y_func=_alt_correction) == absim
        assert compute_ss(g, D, y_func=_alt_correction) == ss


def test_representatives_commute_with_scaling():
    g = _fresh("sl2z")
    G = automorphisms(g)
    rep = G.representatives(6)
    for d in range(1, 4):
        for m in enumerate_dimvectors(g, d):
            for beta in (2, 3):
                if beta * d <= 6:
                    assert rep[scale(m, beta).code] == beta * rep[m.code]


def test_decompositions_list_every_sub_vector_once():
    for name in ("sl2z", "gl2z", "twisted_hnn"):
        g = _hnn_loop(True) if name == "twisted_hnn" else _fresh(name)
        G = automorphisms(g)
        rep = G.representatives(4)
        for r in G.reps(4):
            m = g._dv_cache[r]
            want = {}
            for d1 in range(5):
                for m1 in enumerate_dimvectors(g, d1):
                    m2 = try_sub(m, m1)
                    if m2 is not None:
                        key = (rep[m1.code], rep[m2.code])
                        want[key] = want.get(key, 0) + 1
            it = iter(G.decompositions(r))
            got = {(r1, r2): k for r1, r2, k in zip(it, it, it)}
            assert got == want


def test_automorphism_group_of_a_large_free_product_is_quick():
    # G = S6 x S6 has 518400 elements; it is kept as a few generators
    import time

    g = _fresh("cyclic_free_product(6,6)")
    t0 = time.perf_counter()
    G = automorphisms(g)
    assert time.perf_counter() - t0 < 0.5
    assert len(G.generators) <= 10
    G.representatives(2)
    # degree 2: (2) or (1,1) at each vertex
    assert len(G.reps(1)) == 1 and len(G.reps(2)) == 4


# ---------------------------------------------------------------------------
# printed monoid descriptions of the rank-two arithmetic groups
# ---------------------------------------------------------------------------

def test_pgl2z_monoid_matches_published_relations():
    g = preset("pgl2z")
    for d in range(5):
        expected = []
        for pv in brute_force_all_pairs(4, 3, d, dims1=(1, 1, 1, 1), dims2=(1, 1, 2)):
            m, n = pv
            if m[0] + m[1] == n[0] + n[2] and m[2] + m[3] == n[1] + n[2]:
                expected.append(pv)
        got = [m.per_vertex for m in enumerate_dimvectors(g, d)]
        assert got == sorted(expected)


def brute_force_all_pairs(c1, c2, d, dims1, dims2):
    out = []
    for m in product(*(range(d // w + 1) for w in dims1)):
        if sum(w * x for w, x in zip(dims1, m)) != d:
            continue
        for n in product(*(range(d // w + 1) for w in dims2)):
            if sum(w * x for w, x in zip(dims2, n)) != d:
                continue
            out.append((m, n))
    return out


def test_gl2z_monoid_matches_derived_relations():
    # Derived from the character tables (see test_groupgraph): the printed
    # three-relation description is inconsistent with the published d=1
    # table (it would allow 8 one-dimensional representations instead of 4),
    # so the constraints are checked against the derived four-relation set.
    g = preset("gl2z")
    for d in range(5):
        expected = []
        for m, n in brute_force_all_pairs(5, 6, d, (1, 1, 1, 1, 2), (1, 1, 1, 1, 2, 2)):
            if (
                m[0] + m[1] == n[0] + n[5]
                and m[4] == n[1] + n[4]
                and m[2] + m[3] == n[3] + n[5]
                and m[4] == n[2] + n[4]
            ):
                expected.append((m, n))
        got = [m.per_vertex for m in enumerate_dimvectors(g, d)]
        assert got == sorted(expected)
    assert len(enumerate_dimvectors(g, 1)) == 4  # matches the published d=1 count


def test_gl2z_total_dimension_formula():
    g = preset("gl2z")
    for d in range(4):
        for mv in enumerate_dimvectors(g, d):
            m, n = mv.per_vertex
            assert 2 * m[4] + sum(m[:4]) == d
            assert 2 * n[4] + 2 * n[5] + sum(n[:4]) == d


def test_format_parse_round_trip():
    g = preset("pgl2z")
    for m in enumerate_dimvectors(g, 3):
        assert parse_dimvector(g, format_dimvector(m)) == m


def test_total_dimension_bound_is_enforced_before_packing():
    # codes hold one entry per 16-bit field, so totals must stay below 2^16
    g = preset.__wrapped__("cyclic(1)")
    assert dimvector(g, ((65535,),)).code == 65535
    with pytest.raises(ValueError, match="65536"):
        dimvector(g, ((65536,),))
    with pytest.raises(ValueError, match="65536"):
        enumerate_dimvectors(g, 65536)
    half = dimvector(g, ((32768,),))
    with pytest.raises(ValueError, match="65536"):
        half + half
    # oversized or misshapen input whose entries pack to a cached code is
    # still refused: 65536 in the second field carries into the first
    h = preset.__wrapped__("psl2z")
    assert h._dv_cache[dimvector(h, ((1, 0), (0, 0, 1))).code]
    with pytest.raises(ValueError, match="65536"):
        dimvector(h, ((0, 65536), (0, 0, 1)))
    with pytest.raises(ValueError, match="multiplicities"):
        dimvector(h, ((1, 0, 0), (0, 1)))
    with pytest.raises(ValueError, match="negative"):
        dimvector(h, ((1, -1), (0, 0, 0)))


def test_equality_is_per_vertex_across_graphs():
    data = save(preset("psl2z"))
    g1, g2 = load(data), load(data)
    for a, b in zip(enumerate_dimvectors(g1, 4), enumerate_dimvectors(g2, 4), strict=True):
        assert a is not b and a == b and hash(a) == hash(b)
    # vertex simple counts (2,3) against (3,2): equal codes, unequal vectors
    m = dimvector(preset("cyclic_free_product(2,3)"), ((1, 0), (0, 0, 1)))
    n = dimvector(preset("cyclic_free_product(3,2)"), ((1, 0, 0), (0, 1)))
    assert m.code == n.code
    assert m != n and n != m
