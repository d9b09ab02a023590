from collections import Counter
from itertools import product

import pytest

from vfreps.dimmonoid import dimvector, enumerate_dimvectors, parse_dimvector
from vfreps.exactalg import Poly
from vfreps.groupgraph import is_suitable_prime_power, preset
from vfreps.series import compute_absim, compute_ss, rep_space_count
from vfreps.fforacle import (
    SmallField,
    _check_supported,
    _classes,
    _vertex_multiplicities,
    ch_power,
    commutant_dimension,
    count_absim_orbits,
    count_hom,
    dimvector_census,
    dimvector_of_point,
    field,
    invariant_lines,
    mat_det,
    mat_mul,
    mat_pow,
    power_solutions,
    presentation,
)


def flat_solutions(q, d, k):
    """power_solutions(q, d, k) as one sorted tuple of matrices."""
    return tuple(sorted(x for _, members in power_solutions(q, d, k) for x in members))


def pipeline_hom_count(name, d, q):
    g = preset(name)
    return sum(int(rep_space_count(g, m).eval(q)) for m in enumerate_dimvectors(g, d))


def pipeline_absim_count(name, d, q):
    g = preset(name)
    absim = compute_absim(g, d)
    return sum(int(p.eval(q)) for m, p in absim.items() if m.total == d)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 11, 13])
def test_small_field_axioms(q):
    F = field(q)
    els = range(q)
    for a in els:
        assert F.add[a][0] == a and F.mul[a][1] == a
        if a:
            assert F.mul[a][F.inv[a]] == 1
    # commutativity and distributivity spot checks
    for a in els:
        for b in els:
            assert F.add[a][b] == F.add[b][a]
            assert F.mul[a][b] == F.mul[b][a]
    a, b, c = 1 % q, 2 % q, max(0, q - 1)
    assert F.mul[a][F.add[b][c]] == F.add[F.mul[a][b]][F.mul[a][c]]


def test_field_generator_and_roots():
    F = field(7)
    assert F.generator == 3  # smallest primitive root mod 7
    omega = F.root_of_unity(3)
    assert omega == pow(3, 2, 7)
    x = omega
    for _ in range(2):
        x = F.mul[x][omega]
    assert x == 1 and omega != 1  # omega is a primitive cube root
    with pytest.raises(ValueError):
        F.root_of_unity(5)
    with pytest.raises(ValueError):
        SmallField(16)


def test_extension_field_frobenius():
    F = field(9)
    # x -> x^3 must fix exactly the prime subfield
    fixed = [a for a in range(9) if F.mul[F.mul[a][a]][a] == a]
    assert sorted(fixed) == [0, 1, 2]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 11, 13])
def test_char_roots_table_matches_the_sweep(q):
    # the table is filled from the factorizations (t - r)(t - s); the
    # reference tries every t in F_q for every (trace, det)
    F = field(q)
    for tr, det in product(range(q), repeat=2):
        sweep = tuple(t for t in range(q) if not F.add[F.mul[t][F.add[t][F.neg[tr]]]][det])
        assert F.char_roots.get((tr, det), ()) == sweep, (tr, det)
    assert set(F.char_roots) <= set(product(range(q), repeat=2))


# ---------------------------------------------------------------------------
# matrices and power solutions
# ---------------------------------------------------------------------------

def test_power_solutions_d1():
    # every element is its own scalar class
    assert power_solutions(5, 1, 2) == ((("s", 1), (1,)), (("s", 4), (4,)))
    assert flat_solutions(7, 1, 3) == (1, 2, 4)
    assert len(flat_solutions(7, 1, None)) == 6


def test_power_solutions_d2_sizes():
    # X^2 = 1 over F_3: two scalars and one conjugacy class of reflections
    classes = power_solutions(3, 2, 2)
    assert [(key, len(members)) for key, members in classes] == [
        (("s", 1), 1), (("s", 2), 1), ((0, 2), 12),
    ]
    sols = flat_solutions(3, 2, 2)
    assert len(sols) == 14
    F = field(3)
    for X in sols:
        assert mat_pow(F, X, 2) == (1, 0, 0, 1)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 9, 13])
@pytest.mark.parametrize("k", [2, 3, 4, 6, None])
def test_power_solutions_match_the_per_matrix_test(q, k):
    # power_solutions tests X^k = 1 once per conjugacy class; the reference
    # tests every invertible matrix, in sweep order.  Each class holds the
    # matrices of its key, scalar or (trace, det), and no two share a key
    F = field(q)
    direct = tuple(
        A for A in product(range(q), repeat=4)
        if mat_det(F, A) and (k is None or mat_pow(F, A, k) == (1, 0, 0, 1))
    )
    assert flat_solutions(q, 2, k) == direct
    classes = power_solutions(q, 2, k)
    assert len({key for key, _ in classes}) == len(classes)
    for key, members in classes:
        for a, b, c, d in members:
            scalar = b == c == 0 and a == d
            assert key == (("s", a) if scalar else (F.add[a][d], mat_det(F, (a, b, c, d))))


def test_invariant_lines():
    q = 5
    diag = (1, 0, 0, 4)
    lines = invariant_lines(q, diag)
    assert len(lines) == 2
    assert len(invariant_lines(q, (1, 0, 0, 1))) == q + 1
    # t^2 - 4: eigenvalues 2 and 3; t^2 - 3 is irreducible mod 5
    assert len(invariant_lines(q, (0, 1, 4, 0))) == 2
    assert len(invariant_lines(q, (0, 1, 3, 0))) == 0


def _gl2(q):
    F = field(q)
    return [A for A in product(range(q), repeat=4) if mat_det(F, A)]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
def test_cayley_hamilton_power_matches_mat_pow(q):
    F = field(q)
    for A in _gl2(q):
        a, b, c, d = A
        for k in (1, 2, 3, 4, 6, 12):
            alpha, beta = ch_power(F, F.add[a][d], mat_det(F, A), k)
            m = F.mul[alpha]
            assert (F.add[m[a]][beta], m[b], m[c], F.add[m[d]][beta]) == mat_pow(F, A, k)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
def test_invariant_lines_match_the_line_scan(q):
    # invariant_lines takes one kernel line per eigenvalue; the reference
    # tries every line (1, x), x in F_q (index x), and (0, 1) (index q)
    F = field(q)
    lines = [(1, x) for x in range(q)] + [(0, 1)]
    for A in _gl2(q):
        a, b, c, d = A
        scan = frozenset(
            i for i, (v0, v1) in enumerate(lines)
            if F.mul[F.add[F.mul[a][v0]][F.mul[b][v1]]][v1] == F.mul[F.add[F.mul[c][v0]][F.mul[d][v1]]][v0]
        )
        assert invariant_lines(q, A) == scan


# ---------------------------------------------------------------------------
# hom counts
# ---------------------------------------------------------------------------

def test_count_hom_examples():
    assert count_hom(presentation("dinf"), 1, 5) == 4
    assert count_hom(presentation("psl2z"), 1, 7) == 6
    h = count_hom(presentation("psl2z"), 2, 7)
    assert h == pipeline_hom_count("psl2z", 2, 7)


@pytest.mark.parametrize(
    "name,d,q",
    [
        ("dinf", 1, 3), ("dinf", 2, 3), ("dinf", 2, 5),
        ("psl2z", 2, 7), ("gc(2)", 1, 5), ("gc(2)", 2, 5),
        ("cyclic_free_product(3,3)", 2, 7), ("free(2)", 2, 3),
    ],
)
def test_count_hom_matches_pipeline(name, d, q):
    assert count_hom(presentation(name), d, q) == pipeline_hom_count(name, d, q)


def test_count_hom_free_group():
    # no relations: |GL_d|^a
    assert count_hom(presentation("free(2)"), 2, 3) == 48 * 48
    assert count_hom(presentation("free(3)"), 1, 5) == 4 ** 3


@pytest.mark.parametrize(
    "name,want",
    [
        ("dinf", (2, (2, 2), None)),
        ("psl2z", (2, (2, 3), None)),
        ("sl2z", (2, (4, 6), (0, 2, 1, 3))),
        ("gc(2)", (2, (4, 4), (0, 2, 1, 2))),
        ("gc(3)", (2, (6, 6), (0, 2, 1, 2))),
        ("cyclic_free_product(2,4)", (2, (2, 4), None)),
        ("cyclic_free_product(3,3)", (2, (3, 3), None)),
        ("free(0)", (0, (), None)),
        ("free(1)", (1, (None,), None)),
        ("free(2)", (2, (None, None), None)),
    ],
)
def test_presentations_of_the_named_groups(name, want):
    # the values the presentations were written out as by hand, before
    # one relation x^(a/c) = y^(b/c) covered every cyclic amalgam
    p = presentation(name)
    assert (p.preset_name, p.generators, p.power_orders, p.equality) == (name, *want)


@pytest.mark.parametrize("name", ["gl2z", "pgl2z", "dihedral(3)"])
def test_no_presentation_for_dihedral_vertices(name):
    with pytest.raises(ValueError, match="no oracle presentation"):
        presentation(name)


@pytest.mark.parametrize(
    "name,q",
    [
        ("cyclic_amalgam(4,2,6)", 13), ("cyclic_amalgam(6,3,6)", 7),
        ("cyclic_amalgam(6,2,4)", 13), ("cyclic_amalgam(3,1,3)", 7),
        ("cyclic_amalgam(6,6,6)", 7), ("cyclic(3)", 7), ("cyclic(4)", 5),
    ],
)
def test_cyclic_family_oracle_matches_pipeline(name, q):
    # hom counts, the per-vector census and absim orbits at d <= 2
    p = presentation(name)
    g = preset(name)
    for d in (1, 2):
        assert count_hom(p, d, q) == pipeline_hom_count(name, d, q)
        census = dimvector_census(p, d, q)
        for m in enumerate_dimvectors(g, d):
            assert census.get(m, 0) == int(rep_space_count(g, m).eval(q))
    assert count_absim_orbits(p, 2, q) == pipeline_absim_count(name, 2, q)


def test_unsupported_ranges():
    p = presentation("psl2z")
    with pytest.raises(ValueError):
        count_hom(p, 3, 7)
    with pytest.raises(ValueError):
        count_hom(p, 2, 16)
    with pytest.raises(ValueError):
        count_hom(p, 2, 5)  # 5 is not suitable
    with pytest.raises(ValueError):
        presentation("gl2z")


# ---------------------------------------------------------------------------
# absolutely simple orbit counts
# ---------------------------------------------------------------------------

def test_count_absim_examples():
    assert count_absim_orbits(presentation("psl2z"), 2, 7) == 15
    assert count_absim_orbits(presentation("dinf"), 2, 5) == 3
    assert count_absim_orbits(presentation("gc(2)"), 2, 13) == 22
    assert count_absim_orbits(presentation("sl2z"), 2, 13) == 66


@pytest.mark.parametrize(
    "name,q",
    [
        ("dinf", 3), ("dinf", 5), ("psl2z", 7), ("gc(2)", 5), ("psl2z", 13),
        ("dinf", 13), ("free(2)", 5), ("cyclic_free_product(2,4)", 13),
    ],
)
def test_count_absim_matches_pipeline(name, q):
    assert count_absim_orbits(presentation(name), 2, q) == pipeline_absim_count(name, 2, q)


def _power(F, d, x, k):
    """x^k by repeated multiplication, for a d = 1 or d = 2 element."""
    if d == 2:
        return mat_pow(F, x, k)
    y = 1
    for _ in range(k):
        y = F.mul[y][x]
    return y


def _all_points(p, d, q):
    """Every relation-satisfying tuple: the full product of the power
    solutions, filtered by the equality relation."""
    F = field(q)
    sets = [flat_solutions(q, d, k) for k in p.power_orders]
    if p.equality is None:
        return list(product(*sets))
    i, a, j, b = p.equality
    lhs = {x: _power(F, d, x, a) for x in sets[i]}
    rhs = {y: _power(F, d, y, b) for y in sets[j]}
    return [t for t in product(*sets) if lhs[t[i]] == rhs[t[j]]]


def _unweighted_absim(q, points):
    count = 0
    for mats in points:
        common = invariant_lines(q, mats[0])
        for A in mats[1:]:
            common = common & invariant_lines(q, A)
        if not common and commutant_dimension(q, mats) == 1:
            count += 1
    orbit = (q * q - 1) * (q * q - q) // (q - 1)
    assert count % orbit == 0
    return count // orbit


# every oracle family on a suitable field q <= 9; sl2z needs q = 1 mod 12.
# free(2) stops at q = 4: its full product has |GL_2|^2 points (230400 at q = 5)
WEIGHTING_POINTS = [
    (name, q)
    for q in (3, 4, 5, 7, 9)
    for name in (
        "dinf", "psl2z", "sl2z", "gc(1)", "gc(2)", "gc(3)", "free(1)",
        "cyclic_free_product(2,3)", "cyclic_free_product(3,3)", "cyclic_free_product(2,4)",
    ) + (("free(2)",) if q <= 4 else ())
    if is_suitable_prime_power(preset(name), q)
]


def _point_reader(p, d, q):
    """dimvector_of_point for every point of one (p, d, q): the graph and
    the vertex multiplicities are built once, and dimvector() still
    validates each point."""
    g = _check_supported(p, d, q)
    mults = _vertex_multiplicities(g, q)
    return lambda mats: dimvector(g, [(d,) if m is None else m[mats[i]] for i, m in enumerate(mults)])


@pytest.mark.parametrize("name,q", WEIGHTING_POINTS)
def test_class_weighting_matches_the_unweighted_loop(name, q):
    # count_hom, count_absim_orbits and dimvector_census weight one
    # representative per conjugacy class of generator 0; the reference
    # tries every tuple
    p = presentation(name)
    for d in (1, 2):
        points = _all_points(p, d, q)
        assert count_hom(p, d, q) == len(points)
        census = Counter(map(_point_reader(p, d, q), points))
        assert dimvector_census(p, d, q) == census
    assert count_absim_orbits(p, 2, q) == _unweighted_absim(q, points)


@pytest.mark.parametrize(
    "name,q",
    [
        ("dinf", 5), ("psl2z", 7), ("gc(2)", 5), ("gc(3)", 7), ("free(1)", 3),
        ("free(2)", 3), ("free(3)", 2), ("cyclic_free_product(3,3)", 4),
    ],
)
def test_commutation_criterion_matches_the_commutant(name, q):
    # a tuple without a common invariant line is absolutely simple when
    # some pair of generators does not commute; the reference is the
    # dimension of the commutant, by rank over F_q
    F = field(q)
    seen = Counter()
    for mats in _all_points(presentation(name), 2, q):
        common = frozenset.intersection(*(invariant_lines(q, A) for A in mats))
        if common:
            continue
        noncommuting = any(
            mat_mul(F, A, B) != mat_mul(F, B, A) for A in mats for B in mats
        )
        assert (commutant_dimension(q, mats) == 1) == noncommuting
        seen[noncommuting] += 1
    # commuting tuples without a common line need a generator with an
    # irreducible characteristic polynomial: only the free groups have one
    # here, since every other generator's order divides q - 1
    assert (seen[True] > 0) == (name != "free(1)")
    assert (seen[False] > 0) == name.startswith("free")


# the oracle presentations with an equality relation g_0^a = g_1^b, a = 1
# for cyclic_amalgam(2,2,4), at every suitable q <= 13
EQUALITY_POINTS = [
    (name, q)
    for name in ("gc(2)", "gc(3)", "sl2z", "cyclic_amalgam(2,2,4)")
    for q in (2, 3, 4, 5, 7, 9, 11, 13)
    if is_suitable_prime_power(preset(name), q)
]


@pytest.mark.parametrize("name,q", EQUALITY_POINTS)
def test_solved_candidates_match_the_member_sweep(name, q):
    # _classes solves y^b = x0^a once per class of generator 1; the
    # reference powers every member y of generator 1's solutions, in the
    # order power_solutions lists them.  At d = 2 both kinds of non-scalar
    # class must give candidates: y^b = beta*I on the whole class
    # (alpha = 0), and y^b = alpha*y + beta*I with one solution (alpha != 0)
    p = presentation(name)
    _, a, _, b = p.equality
    F = field(q)
    for d in (1, 2):
        classes1 = power_solutions(q, d, p.power_orders[1])
        branches = set()
        for _, x0, rest in _classes(p, d, q):
            target = _power(F, d, x0, a)
            sweep = [y for _, members in classes1 for y in members if _power(F, d, y, b) == target]
            assert rest == [sweep], (d, x0)
            for key, members in classes1:
                if key[0] != "s" and set(members) & set(sweep):
                    branches.add(ch_power(F, *key, b)[0] == 0)
        assert branches == ({True, False} if d == 2 else set())


def _class_points(p, d, q):
    """Per conjugacy class of generator 0: (class size, every
    relation-satisfying tuple whose generator 0 is the class's first
    member)."""
    for w, x0, rest in _classes(p, d, q):
        yield w, ((x0,) + r for r in product(*rest))


def _class_weighted_absim(p, q):
    """count_absim_orbits point by point: each tuple at a class
    representative of generator 0 is tested for a common invariant line
    and a non-commuting pair, and weighted by the class size."""
    F = field(q)
    points = 0
    for weight, tuples in _class_points(p, 2, q):
        for mats in tuples:
            common = frozenset.intersection(*(invariant_lines(q, A) for A in mats))
            if not common and any(
                mat_mul(F, A, B) != mat_mul(F, B, A) for i, A in enumerate(mats) for B in mats[i + 1:]
            ):
                points += weight
    orbit = (q * q - 1) * (q * q - q) // (q - 1)
    assert points % orbit == 0
    return points // orbit


def _class_weighted_census(p, d, q):
    """dimvector_census point by point, weighted by the class size of
    generator 0."""
    read = _point_reader(p, d, q)
    counts = Counter()
    for weight, tuples in _class_points(p, d, q):
        for mats in tuples:
            counts[read(mats)] += weight
    return counts


# free(3) is the only presentation with two candidate lists per class of
# generator 0: the only one whose fold meets two tallies' line sets, and
# whose commuting tuples at a scalar x0 take a field from two lists
TALLY_POINTS = list(dict.fromkeys(
    WEIGHTING_POINTS + EQUALITY_POINTS + [("free(2)", 5), ("free(3)", 2), ("free(3)", 3)]
))


@pytest.mark.parametrize("name,q", TALLY_POINTS)
def test_tallies_match_the_class_weighted_loop(name, q):
    # count_absim_orbits and dimvector_census combine per-list tallies
    # (line sets, fields, multiplicities) and visit no point; the
    # reference visits every point at each class representative
    p = presentation(name)
    for d in (1, 2):
        assert dimvector_census(p, d, q) == _class_weighted_census(p, d, q)
    assert count_absim_orbits(p, 2, q) == _class_weighted_absim(p, q)


def test_per_class_check_rejects_a_wrong_class_weight(monkeypatch):
    from vfreps import fforacle

    classes = fforacle._classes
    monkeypatch.setattr(
        fforacle, "_classes",
        lambda p, d, q, tally: ((w + 1, x0, rest) for w, x0, rest in classes(p, d, q, tally)),
    )
    with pytest.raises(ArithmeticError, match="class of size"):
        count_absim_orbits(presentation("psl2z"), 2, 7)


def test_count_absim_infinite_cyclic_vanishes():
    # one generator: the commutant always contains its polynomial algebra,
    # so no absolutely simple 2-dimensional classes exist
    assert count_absim_orbits(presentation("free(1)"), 2, 3) == 0
    assert pipeline_absim_count("free(1)", 2, 3) == 0


@pytest.mark.parametrize(
    "name,q",
    [("cyclic_free_product(3,3)", 4), ("cyclic_free_product(2,4)", 9)],
)
def test_extension_field_oracle_points(name, q):
    # q = 4 and q = 9 run on the table-backed extension fields, so these
    # points validate the irreducible-polynomial arithmetic end to end
    p = presentation(name)
    g = preset(name)
    for d in (1, 2):
        assert count_hom(p, d, q) == pipeline_hom_count(name, d, q)
    assert count_absim_orbits(p, 2, q) == pipeline_absim_count(name, 2, q)
    census = dimvector_census(p, 2, q)
    for m in enumerate_dimvectors(g, 2):
        assert census.get(m, 0) == int(rep_space_count(g, m).eval(q))


# ---------------------------------------------------------------------------
# dimension-vector readout
# ---------------------------------------------------------------------------

def test_dimvector_of_point_example():
    p = presentation("psl2z")
    g = preset("psl2z")
    F = field(7)
    omega = F.root_of_unity(3)
    f_mat = (1, 0, 0, 6)       # diag(1, -1)
    g_mat = (1, 0, 0, omega)   # diag(1, omega)
    m = dimvector_of_point(p, (f_mat, g_mat), 7)
    assert m == parse_dimvector(g, "((1,1),(1,1,0))")


def test_dimvector_of_identity_point_d1():
    p = presentation("psl2z")
    g = preset("psl2z")
    m = dimvector_of_point(p, (1, 1), 7)
    assert m == dimvector(g, ((1, 0), (1, 0, 0)))


def test_dimvector_of_point_rejects_foreign_eigenvalues():
    # 2 is not a square root of unity in F_7, nor 3 a cube root
    p = presentation("psl2z")
    for mats in ((2, 1), (1, 3), ((1, 0, 0, 2), (1, 0, 0, 1))):
        with pytest.raises(ArithmeticError, match="outside the expected roots"):
            dimvector_of_point(p, mats, 7)


def test_census_matches_pipeline_entrywise():
    p = presentation("psl2z")
    g = preset("psl2z")
    for d in (1, 2):
        census = dimvector_census(p, d, 7)
        for m in enumerate_dimvectors(g, d):
            assert census.get(m, 0) == int(rep_space_count(g, m).eval(7))
        assert sum(census.values()) == count_hom(p, d, 7)


def test_gl1_orbits_match_semisimple_counts():
    for name, q in [("psl2z", 7), ("dinf", 5), ("gc(2)", 5)]:
        g = preset(name)
        ss = compute_ss(g, 1)
        total = sum(int(p.eval(q)) for m, p in ss.items() if m.total == 1)
        assert count_hom(presentation(name), 1, q) == total


def test_census_rejects_unsuitable_field():
    with pytest.raises(ValueError):
        dimvector_census(presentation("psl2z"), 2, 5)
