import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vfreps import series as series_module
from vfreps.dimmonoid import (
    correction_y,
    dimvector,
    enumerate_dimvectors,
    euler_form,
    parse_dimvector,
    shift_exponent,
    symmetry_descriptor,
    symmetry_orbits,
    try_sub,
    zero_vector,
)
from vfreps import exactalg
from vfreps.exactalg import POLY_ONE, Poly, RatFunc, S, gl_count, mobius
from vfreps.groupgraph import is_suitable_prime_power, preset
from vfreps.orbits import automorphisms, trivial
from vfreps.series import (
    GradedSeries,
    build_F,
    compute_absim,
    compute_sim,
    compute_ss,
    epoly_text,
    invert,
    mul,
    plethystic,
    rep_space_count,
    shift,
    unit_series,
)


def poly(text_coeffs):
    return Poly.from_coeffs(text_coeffs)


def aggregate(table):
    out = {}
    for m, p in table.items():
        out[m.total] = out.get(m.total, Poly(())) + p
    return out


# ---------------------------------------------------------------------------
# reference implementations (independent of the production recurrences)
# ---------------------------------------------------------------------------

def reference_log(f: GradedSeries) -> GradedSeries:
    """log(1+h) = sum (-1)^(b+1) h^b / b, truncated at b <= D."""
    g = f.graph
    one = unit_series(g, f.trunc)
    h = GradedSeries(g, f.trunc, {m: v for m, v in f.coeffs.items() if m.total > 0})
    acc = GradedSeries(g, f.trunc, {})
    power = one
    for b in range(1, f.trunc + 1):
        power = mul(power, h)
        sign = Fraction((-1) ** (b + 1), b)
        terms = dict(acc.coeffs)
        for m, v in power.coeffs.items():
            terms[m] = terms.get(m, RatFunc(Poly(()))) + v.scale(sign)
        acc = GradedSeries(g, f.trunc, terms)
    return acc


def reference_exp(f: GradedSeries) -> GradedSeries:
    g = f.graph
    acc = unit_series(g, f.trunc)
    power = unit_series(g, f.trunc)
    fact = 1
    for b in range(1, f.trunc + 1):
        power = mul(power, f)
        fact *= b
        terms = dict(acc.coeffs)
        for m, v in power.coeffs.items():
            terms[m] = terms.get(m, RatFunc(Poly(()))) + v.scale(Fraction(1, fact))
        acc = GradedSeries(g, f.trunc, terms)
    return acc


def reference_psi(f: GradedSeries, inverse: bool) -> GradedSeries:
    from vfreps.dimmonoid import scale as dv_scale

    g = f.graph
    terms = {}
    for m, v in f.coeffs.items():
        beta = 1
        while beta * m.total <= f.trunc:
            mu = mobius(beta) if inverse else 1
            if mu:
                key = dv_scale(m, beta)
                add = v.adams(beta).scale(Fraction(mu, beta))
                terms[key] = terms.get(key, RatFunc(Poly(()))) + add
            beta += 1
    return GradedSeries(g, f.trunc, terms)


def reference_plethystic(f: GradedSeries, direction: str) -> GradedSeries:
    if direction == "exp":
        return reference_exp(reference_psi(f, inverse=False))
    return reference_psi(reference_log(f), inverse=True)


def random_sparse_series(g, trunc, rng, with_unit_constant):
    """A handful of nonzero coefficients with small polynomial or simple
    rational-function values."""
    pool = [m for d in range(1, trunc + 1) for m in enumerate_dimvectors(g, d)]
    coeffs = {}
    for m in rng.sample(pool, k=min(len(pool), rng.randint(2, 5))):
        if rng.random() < 0.7:
            coeffs[m] = RatFunc(poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]))
        else:
            coeffs[m] = RatFunc(POLY_ONE, S - Poly.const(rng.randint(2, 4)))
    if with_unit_constant:
        coeffs[zero_vector(g)] = RatFunc(POLY_ONE)
    return GradedSeries(g, trunc, coeffs)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def test_mul_unit():
    g = preset("psl2z")
    f = build_F(g, 3)
    assert mul(f, unit_series(g, 3)) == f


def test_mul_difference_of_powers():
    g = preset("psl2z")
    a = parse_dimvector(g, "((1,0),(1,0,0))")
    one = RatFunc(POLY_ONE)
    plus = GradedSeries(g, 2, {zero_vector(g): one, a: one})
    minus = GradedSeries(g, 2, {zero_vector(g): one, a: -one})
    prod = mul(plus, minus)
    two_a = parse_dimvector(g, "((2,0),(2,0,0))")
    assert prod.coeffs == {zero_vector(g): one, two_a: -one}


def test_mul_support_matches_pair_enumeration():
    g = preset("psl2z")
    F = build_F(g, 4)
    zero = zero_vector(g)
    # F squared (tagged), and an untagged pair built by hand whose constant
    # terms are not 1, so the degree-0 terms of the product reach every key
    hand_built = (
        GradedSeries(g, 4, {**F.coeffs, zero: RatFunc(poly([1, 1]), poly([-2, 1]))}),
        GradedSeries(g, 4, {**invert(F).coeffs, zero: RatFunc(poly([3]))}),
    )
    for f, h in ((F, F), hand_built):
        prod = mul(f, h)
        for target in (zero, parse_dimvector(g, "((2,1),(1,1,1))")):
            expected = RatFunc(Poly(()))
            pairs = 0
            for d1 in range(target.total + 1):
                for m1 in enumerate_dimvectors(g, d1):
                    m2 = try_sub(target, m1)
                    if m2 is not None:
                        expected = expected + f.coefficient(m1) * h.coefficient(m2)
                        pairs += 1
            assert pairs > 1 or target == zero
            assert prod.coefficient(target) == expected
    assert prod.symmetry is trivial(g)
    assert not prod.symmetry.generators and automorphisms(g).generators
    assert prod.coefficient(zero) == RatFunc(poly([3, 3]), poly([-2, 1]))


CODEC_PRESETS = [
    "free(2)", "cyclic(1)", "cyclic(3)", "dihedral(4)", "cyclic_free_product(2,3)",
    "cyclic_amalgam(2,2,4)", "dinf", "gc(2)", "psl2z", "sl2z", "gl2z", "pgl2z",
]


@pytest.mark.parametrize("name", CODEC_PRESETS)
def test_key_codec_round_trip_order_and_carry_free_sums(name):
    # DimVector.code is the packed key the convolutions add; the graph
    # interns its vectors under it
    from vfreps.dimmonoid import scale as dv_scale

    D = 4
    g = preset.__wrapped__(name)  # new graph: its intern table holds only what we build
    by_deg = [enumerate_dimvectors(g, d) for d in range(D + 1)]
    vectors = [m for bucket in by_deg for m in bucket]
    assert len(g._dv_cache) == len({m.code for m in vectors}) == len(vectors)
    for m in vectors:
        assert g._dv_cache[m.code] is m
    assert sorted(vectors, key=lambda m: m.code) == sorted(vectors, key=lambda m: m.per_vertex)
    # sums and multiples within D, checked against the tuple arithmetic
    for d1 in range(D + 1):
        for d2 in range(D + 1 - d1):
            for m1 in by_deg[d1]:
                for m2 in by_deg[d2]:
                    assert g._dv_cache[m1.code + m2.code] is m1 + m2
        for beta in range(1, D // max(d1, 1) + 1):
            for m in by_deg[d1]:
                assert g._dv_cache[beta * m.code] is dv_scale(m, beta)
    # an entry may reach D itself, and the sums above then hit it carry-free
    if name == "cyclic(1)":
        (top,) = by_deg[D]
        assert top.per_vertex == ((D,),) and top.code == D


@pytest.mark.parametrize("name", CODEC_PRESETS + ["hnn_loop", "three_vertex_tree", "mixed_tree"])
def test_enumeration_agrees_with_validating_constructor(name):
    # enumeration interns its vectors without revalidating them (on the
    # twisted HNN loop through a filtered edge, on the trees through two
    # joins at vertex 0, on the mixed tree through three edges of different
    # images); on a second new, uncached graph dimvector() checks every
    # constraint from scratch
    g, fresh = _quotient_graph(name), _quotient_graph(name)
    for d in range(5):
        for m in enumerate_dimvectors(g, d):
            ref = dimvector(fresh, m.per_vertex)
            assert (m.per_vertex, m.per_edge, m.total) == (ref.per_vertex, ref.per_edge, ref.total)


@pytest.mark.parametrize("name,D", [
    ("psl2z", 4), ("sl2z", 4), ("gl2z", 4), ("pgl2z", 4), ("hnn_loop", 6), ("three_vertex_tree", 4),
])
def test_every_way_of_building_a_key_gives_both_restrictions_as_edge_vectors(name, D):
    # per_edge is derived in one place; keys built every way, each way on a
    # new graph so that it interns keys of its own, must have per_edge equal
    # to iota(m_s) and kappa(m_t) on every edge.  try_sub's results have
    # total D - d0, which must differ from d0; the HNN loop's keys have even
    # totals (d0 = 2), hence D = 6 there
    from vfreps.dimmonoid import format_dimvector, scale

    ref = [m for d in range(D + 1) for m in enumerate_dimvectors(_quotient_graph(name), d)]
    d0 = min(m.total for m in ref if m.total)

    def build(g, total):
        return [dimvector(g, m.per_vertex) for m in ref if m.total == total]

    def enumerated(g):
        return [m for d in range(D + 1) for m in enumerate_dimvectors(g, d)]

    def differences(g):
        low = build(g, d0)
        return [try_sub(a, b) for a in build(g, D) for b in low]

    def sums(g):
        low = build(g, d0)
        return [a + b for a in low for b in low]

    ways = [
        enumerated,
        lambda g: [dimvector(g, m.per_vertex) for m in ref],
        lambda g: [parse_dimvector(g, format_dimvector(m)) for m in ref],
        lambda g: [zero_vector(g)],
        sums,
        differences,
        lambda g: [scale(m, c) for m in build(g, d0) for c in (0, 2, 3)],
    ]
    for way in ways:
        g = _quotient_graph(name)
        before = set(g._dv_cache)
        keys = [m for m in way(g) if m is not None]
        assert any(m.code not in before for m in keys), way
        for m in keys:
            pv = m.per_vertex
            for e, u in zip(g.edges, m.per_edge, strict=True):
                assert u == e.iota.apply(pv[e.s]) == e.kappa.apply(pv[e.t]), (m, e)


def test_edge_vectors_are_built_at_orbit_representatives_only():
    # the Euler form, the correction and the point counts read per_edge at
    # orbit representatives only, so no other key builds its edge vectors
    from vfreps.groupgraph import load, save

    g = load(save(preset("sl2z")))
    compute_absim(g, 6)
    compute_ss(g, 6)
    compute_sim(g, 6)
    reps = set(automorphisms(g).representatives(6).values())
    built = {code for code, m in g._dv_cache.items() if m._per_edge is not None}
    assert built and built <= reps
    assert len(reps) < len(g._dv_cache)


def test_mul_mismatch_errors():
    g, g2 = preset("psl2z"), preset("dinf")
    with pytest.raises(ValueError):
        mul(build_F(g, 2), build_F(g2, 2))
    with pytest.raises(ValueError):
        mul(build_F(g, 2), build_F(g, 3))


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_invert_unit():
    g = preset("psl2z")
    assert invert(unit_series(g, 3)) == unit_series(g, 3)


def test_invert_geometric_series():
    g = preset("psl2z")
    a = parse_dimvector(g, "((1,0),(1,0,0))")
    one = RatFunc(POLY_ONE)
    f = GradedSeries(g, 4, {zero_vector(g): one, a: -one})
    inv = invert(f)
    from vfreps.dimmonoid import scale as dv_scale

    expected = {dv_scale(a, k): one for k in range(5)}
    assert inv.coeffs == expected


def test_invert_times_self_is_unit():
    g = preset("psl2z")
    f = build_F(g, 6)
    assert mul(f, invert(f)) == unit_series(g, 6)


def test_invert_non_unit_constant_term():
    rng = random.Random(31)
    f0 = RatFunc(S + POLY_ONE, S - Poly.const(2))
    for name in ("psl2z", "dinf"):
        g = preset(name)
        for _ in range(4):
            f = random_sparse_series(g, 5, rng, with_unit_constant=False)
            f = GradedSeries(g, 5, {zero_vector(g): f0, **f.coeffs})
            assert mul(f, invert(f)) == unit_series(g, 5)


def test_invert_requires_unit():
    g = preset("psl2z")
    with pytest.raises(ValueError):
        invert(GradedSeries(g, 2, {}))


# ---------------------------------------------------------------------------
# shift
# ---------------------------------------------------------------------------

def test_shift_examples():
    g = preset("psl2z")
    u = unit_series(g, 2)
    assert shift(u, "forward") == u
    f = build_F(g, 3)
    m = parse_dimvector(g, "((1,1),(1,1,0))")
    assert shift_exponent(g, m) == -1
    unshifted = shift(f, "inverse")
    assert f.coefficient(m) == unshifted.coefficient(m) * RatFunc.s_power(-1)
    assert shift(shift(f, "forward"), "inverse") == f
    with pytest.raises(ValueError):
        shift(f, "sideways")


# ---------------------------------------------------------------------------
# the generating series F
# ---------------------------------------------------------------------------

def test_build_F_coefficients():
    g = preset("psl2z")
    f = build_F(g, 2)
    assert f.coefficient(zero_vector(g)).is_one()
    m = parse_dimvector(g, "((1,1),(1,1,0))")
    # s^(-1) * gl2^2/(s-1)^4 / gl2 simplifies to (s+1)/(s-1)^2
    assert f.coefficient(m) == RatFunc(S + POLY_ONE, (S - POLY_ONE) ** 2)
    # and the representation-space count itself is s^2 (s+1)^2
    assert rep_space_count(g, m) == RatFunc((S * (S + POLY_ONE)) ** 2)


def test_build_F_free_group():
    for a in (1, 2, 3):
        g = preset(f"free({a})")
        f = build_F(g, 4)
        for d in range(1, 5):
            m = dimvector(g, ((d,),))
            e = ((1 - a) * d * d - (1 - a) * d) // 2
            expected = RatFunc.s_power(e) * RatFunc(gl_count(d)) ** (a - 1)
            assert f.coefficient(m) == expected
            assert rep_space_count(g, m) == RatFunc(gl_count(d)) ** a


def test_rep_space_denominators_clear_of_suitable_values():
    # the rational functions P_m / gl never degenerate at suitable q <= 13
    for name in ["psl2z", "sl2z", "dinf", "gc(2)", "gl2z", "pgl2z", "free(2)"]:
        g = preset(name)
        f = build_F(g, 4)
        qs = [q for q in range(2, 14) if is_field_order(q) and is_suitable_prime_power(g, q)]
        for m, v in f.coeffs.items():
            for q in qs:
                assert v.den.eval(q) != 0


@pytest.mark.parametrize("name", ["psl2z", "sl2z", "gl2z", "pgl2z", "dinf", "free(2)"])
def test_rep_space_count_is_the_unshifted_F_coefficient_times_gl(name):
    g = preset(name)
    f = build_F(g, 4)
    for d in range(5):
        for m in enumerate_dimvectors(g, d):
            unshifted = f.coefficient(m) * RatFunc.s_power(-shift_exponent(g, m))
            assert rep_space_count(g, m) == unshifted * RatFunc(gl_count(d)), m


@pytest.mark.parametrize("name, D", [("psl2z", 6), ("gl2z", 5)])
def test_pipeline_denominators_are_cyclotomic(name, D, monkeypatch):
    # every coefficient of F, F^-1, the unshifted series and the Log has a
    # denominator s^a * prod Phi_n^e (residual 1), so the primitive-PRS gcd
    # is never reached; a new, uncached graph makes every operation run
    def no_gcd(a, b):
        raise AssertionError("primitive-PRS gcd reached from the pipeline")

    monkeypatch.setattr(exactalg, "_gcd_lists", no_gcd)
    g = preset.__wrapped__(name)
    f = build_F(g, D)
    f_inv = invert(f)
    unshifted = shift(f_inv, "inverse")
    log = plethystic(unshifted, "log")
    for series in (f, f_inv, unshifted, log):
        assert series.coeffs
        for m, v in series.coeffs.items():
            assert v.residual.is_one(), (m, v)
    assert compute_ss(g, D) == compute_ss(preset(name), D)


def test_distinct_handles_hold_distinct_values():
    # a value is interned by its packed numerator, whose slot width is a
    # function of the value alone; a value packed at two widths would be
    # interned twice, under two handles that unpack to the same parts
    from test_dimmonoid import random_group_data

    for g, D in [(preset("psl2z"), 8)] + [(g, 4) for g in random_group_data()]:
        compute_absim(g, D)
        compute_ss(g, D)
        values = series_module._values_for(g).value
        parts = {(v.num.ints, v.num.den, v.factors, v.residual) for v in values}
        assert len(parts) == len(values), g.label


def is_field_order(q):
    from vfreps.exactalg import factorize

    return q >= 2 and len(factorize(q)) == 1


# ---------------------------------------------------------------------------
# plethystic operations
# ---------------------------------------------------------------------------

def test_plethystic_trivial_values():
    g = preset("psl2z")
    zero = GradedSeries(g, 3, {})
    assert plethystic(zero, "exp") == unit_series(g, 3)
    assert plethystic(unit_series(g, 3), "log") == zero


def test_plethystic_preconditions():
    g = preset("psl2z")
    with pytest.raises(ValueError):
        plethystic(unit_series(g, 2), "exp")
    with pytest.raises(ValueError):
        plethystic(GradedSeries(g, 2, {}), "log")
    with pytest.raises(ValueError):
        plethystic(unit_series(g, 2), "sideways")


def test_exp_of_geometric_coefficient_is_product_expansion():
    # Exp(t^m / (1 - s^c)) has coefficient prod_{b=1..k} (1 - s^(c b))^(-1)
    # at k.m; checked here for c = 1, 2 at small k (the acceptance suite
    # extends the range).
    g = preset("cyclic(1)")
    m = dimvector(g, ((1,),))
    from vfreps.dimmonoid import scale as dv_scale

    for c in (1, 2):
        geo = RatFunc(POLY_ONE, POLY_ONE - Poly.monomial(c))
        f = GradedSeries(g, 3, {m: geo})
        e = plethystic(f, "exp")
        for k in range(4):
            expected = RatFunc(POLY_ONE)
            for b in range(1, k + 1):
                expected = expected / RatFunc(POLY_ONE - Poly.monomial(c * b))
            assert e.coefficient(dv_scale(m, k)) == expected


def test_plethystic_round_trips_small():
    rng = random.Random(23)
    g = preset("psl2z")
    for _ in range(6):
        f = random_sparse_series(g, 5, rng, with_unit_constant=False)
        assert plethystic(plethystic(f, "exp"), "log") == f
        h = random_sparse_series(g, 5, rng, with_unit_constant=True)
        assert plethystic(plethystic(h, "log"), "exp") == h


def test_recurrences_match_reference_power_sums():
    rng = random.Random(5)
    for name in ("psl2z", "dinf"):
        g = preset(name)
        for _ in range(4):
            f = random_sparse_series(g, 4, rng, with_unit_constant=False)
            assert plethystic(f, "exp") == reference_plethystic(f, "exp")
            h = random_sparse_series(g, 4, rng, with_unit_constant=True)
            assert plethystic(h, "log") == reference_plethystic(h, "log")


# ---------------------------------------------------------------------------
# the counting pipeline
# ---------------------------------------------------------------------------

def test_absim_published_values():
    g = preset("psl2z")
    absim = compute_absim(g, 6)
    assert absim[parse_dimvector(g, "((1,1),(1,1,0))")].text() == "s-2"
    assert absim[parse_dimvector(g, "((2,2),(1,2,1))")].text() == "s^3-3*s^2+5*s-4"
    assert (
        absim[parse_dimvector(g, "((3,3),(2,2,2))")].text()
        == "s^7+3*s^6-10*s^5+3*s^4+14*s^3-27*s^2+35*s-23"
    )
    # entries absent from the published nonzero table really vanish
    assert parse_dimvector(g, "((2,0),(1,1,0))") not in absim


def test_ss_published_values():
    assert aggregate(compute_ss(preset("psl2z"), 2))[2].text() == "3*s+15"
    assert aggregate(compute_ss(preset("gl2z"), 4))[4].text() == "3*s^2+26*s+56"
    assert aggregate(compute_ss(preset("pgl2z"), 2))[2].text() == "14"


def test_ss_equals_exp_of_absim_series():
    g = preset("psl2z")
    D = 5
    absim = compute_absim(g, D)
    ss = compute_ss(g, D)
    f = GradedSeries(g, D, {m: RatFunc(p) for m, p in absim.items()})
    e = reference_plethystic(f, "exp")
    assert {m: v.as_integer_poly() for m, v in e.coeffs.items()} == ss


@pytest.mark.parametrize("name", ["psl2z", "gl2z"])
def test_absim_equals_reference_log_of_unshifted_inverse(name):
    g = preset(name)
    D = 4
    unshifted = shift(invert(build_F(g, D)), "inverse")
    one_minus_s = RatFunc(POLY_ONE - S)
    ref = reference_plethystic(unshifted, "log")
    want = {m: (one_minus_s * v).as_integer_poly() for m, v in ref.coeffs.items()}
    assert compute_absim(g, D) == want


def test_sim_corollary_values():
    g = preset("psl2z")
    pairs, per_m = compute_sim(g, 4)
    m = parse_dimvector(g, "((2,2),(2,2,0))")
    assert pairs[(m, 2)].text() == "1/2*s^2-1/2*s"
    assert pairs[(m, 1)].is_zero()
    assert per_m[m].text() == "1/2*s^2-1/2*s"
    # gcd 1 forces R^sim = R^absim
    absim = compute_absim(g, 4)
    n = parse_dimvector(g, "((2,1),(1,1,1))")
    assert per_m[n] == absim[n]
    # c does not divide m -> no stored entry, value zero
    assert (n, 2) not in pairs


def test_degree_law_small():
    # R^ss is always monic; when the absolutely simple count is nonzero the
    # moduli space has dimension 1 - <m,m> and both polynomials are monic of
    # that degree (with vanishing absim the moduli space is smaller and only
    # monicity survives)
    for name in ("psl2z", "gc(2)"):
        g = preset(name)
        D = 4
        absim = compute_absim(g, D)
        ss = compute_ss(g, D)
        for d in range(1, D + 1):
            for m in enumerate_dimvectors(g, d):
                want = 1 - euler_form(g, m, m)
                p = ss[m]
                assert p.leading() == 1
                if m in absim:
                    q = absim[m]
                    assert q.degree == want and q.leading() == 1
                    assert p.degree == want


def test_symmetry_law_small():
    g = preset("psl2z")
    D = 4
    absim = compute_absim(g, D)
    ss = compute_ss(g, D)
    desc = symmetry_descriptor(g)
    for d in range(1, D + 1):
        for orbit in symmetry_orbits(g, desc, d):
            vals_a = {absim.get(m, Poly(())) for m in orbit}
            vals_s = {ss[m] for m in orbit}
            assert len(vals_a) == 1 and len(vals_s) == 1


def test_correction_choice_does_not_matter_small():
    def alt_y(g, m):
        return correction_y(g, m) + 2 * sum(v[0] for v in m.per_vertex)

    g = preset("psl2z")
    assert compute_absim(g, 4) == compute_absim(g, 4, y_func=alt_y)
    assert compute_ss(g, 4) == compute_ss(g, 4, y_func=alt_y)


def test_extended_dihedral_closed_form_small():
    # one-dimensional vectors count 1; the single-block doubled vector
    # counts s-2; everything else vanishes
    for c in (1, 2):
        g = preset(f"gc({c})")
        absim = compute_absim(g, 3)
        for d in range(1, 4):
            for m in enumerate_dimvectors(g, d):
                got = absim.get(m, Poly(()))
                if d == 1:
                    assert got == POLY_ONE
                else:
                    blocks0 = _gc_blocks(m.per_vertex[0], c)
                    blocks1 = _gc_blocks(m.per_vertex[1], c)
                    is_block = any(
                        blocks0[gamma] == (1, 1) and blocks1[gamma] == (1, 1)
                        and all(blocks0[d2] == (0, 0) and blocks1[d2] == (0, 0)
                                for d2 in range(c) if d2 != gamma)
                        for gamma in range(c)
                    )
                    if is_block:
                        assert got.text() == "s-2"
                    else:
                        assert got.is_zero()


def _gc_blocks(vec, c):
    return [(vec[gamma], vec[gamma + c]) for gamma in range(c)]


def test_single_block_reduction_for_cyclic_amalgams():
    # nonzero absolutely-simple counts of C4 *_C2 C6 live on one congruence
    # block and there equal the C2 * C3 value
    gs = preset("sl2z")
    gp = preset("psl2z")
    absim_s = compute_absim(gs, 4)
    absim_p = compute_absim(gp, 4)
    for d in range(1, 5):
        for m in enumerate_dimvectors(gs, d):
            got = absim_s.get(m, Poly(()))
            blocks = _sl2z_to_blocks(m)
            support = [gamma for gamma, b in enumerate(blocks) if any(b[0]) or any(b[1])]
            if len(support) == 1:
                proj = blocks[support[0]]
                expected = absim_p.get(dimvector(gp, _pad_psl2z(proj)), Poly(()))
                assert got == expected
            else:
                assert got.is_zero()


def _sl2z_to_blocks(m):
    c4, c6 = m.per_vertex
    return [
        ((c4[gamma], c4[gamma + 2]), (c6[gamma], c6[gamma + 2], c6[gamma + 4]))
        for gamma in range(2)
    ]


def _pad_psl2z(block):
    return (block[0], block[1])


@pytest.mark.parametrize("name", ["cyclic(4)", "dihedral(6)"])
def test_finite_group_closed_form(name):
    # a single finite vertex group: every dimension vector carries exactly
    # one semisimple class, and the absolutely simple ones are the unit
    # vectors (the simple modules themselves)
    g = preset(name)
    absim = compute_absim(g, 4)
    ss = compute_ss(g, 4)
    for d in range(1, 5):
        for m in enumerate_dimvectors(g, d):
            is_unit = sum(sum(v) for v in m.per_vertex) == 1
            assert ss[m].is_one()
            assert absim.get(m, Poly(())) == (POLY_ONE if is_unit else Poly(()))


def test_symmetry_law_for_unequal_block_sizes():
    g = preset("cyclic_amalgam(2,2,4)")
    desc = symmetry_descriptor(g)
    absim = compute_absim(g, 4)
    ss = compute_ss(g, 4)
    for d in range(1, 5):
        for orbit in symmetry_orbits(g, desc, d):
            assert len({absim.get(m, Poly(())) for m in orbit}) == 1
            assert len({ss[m] for m in orbit}) == 1


# ---------------------------------------------------------------------------
# the orbit quotient against the bucket reference solve
# ---------------------------------------------------------------------------

def _bucket_solve(g, trunc, G, a, rhs=None, out0=None, alpha=lambda d: 1, right=None):
    """The reference for series._solve, with the same arguments: a, rhs
    and right hold every key (G must be trivial), and out_d is summed by
    multiplying whole degree buckets of a and right pairwise, with no
    orbit representatives and no decompositions."""
    assert not G.generators
    vals = series_module._values_for(g)
    G.representatives(trunc)
    vectors = g._dv_cache

    def by_degree(handles):
        out = {}
        for c, h in sorted(handles.items()):
            out.setdefault(vectors[c].total, []).append((c, h))
        return out

    rhs = rhs or {}
    out = {} if out0 is None else {0: out0}
    ad, rd = by_degree(a), by_degree(rhs)
    out_by_deg = {} if out0 is None else {0: [(0, out0)]}
    right_by_deg = out_by_deg if right is None else by_degree(right)
    for d in range(0 if out0 is None else 1, trunc + 1):
        acc = {c: {h: 1} for c, h in rd.get(d, ())}
        for k in range(d + 1):
            for c1, h1 in ad.get(k, ()):
                for c2, h2 in right_by_deg.get(d - k, ()):
                    p = vals.mul(h1, h2)
                    if p != vals.zero:
                        counter = acc.setdefault(c1 + c2, {})
                        counter[p] = counter.get(p, 0) + 1
        bucket = []
        for c in sorted(acc):
            h = vals.scale(vals.reduce(acc[c]), alpha(d))
            if h != vals.zero:
                out[c] = h
                bucket.append((c, h))
        out_by_deg[d] = bucket
    return out


def _reference(monkeypatch, op, *operands):
    """op on copies of its operands built by hand, so tagged with the
    trivial group, with _bucket_solve in place of the production solve."""
    with monkeypatch.context() as patch:
        patch.setattr(series_module, "_solve", _bucket_solve)
        out = op(*(GradedSeries(f.graph, f.trunc, f.coeffs) for f in operands))
    assert not out.symmetry.generators
    return out


def _log(f):
    return plethystic(f, "log")


def _exp(f):
    return plethystic(f, "exp")

def _c4_hnn_loop():
    # a twisted loop: kappa exchanges the two C2 simples, so the loop
    # constrains the vector (x0 + x2 = x1 + x3)
    from vfreps.groupgraph import Edge, GraphOfGroups, RestrictionMap, cyclic_group, cyclic_restriction

    iota = cyclic_restriction(4, 2)
    kappa = RestrictionMap(iota.matrix[::-1])
    return GraphOfGroups("c4_loop", [cyclic_group(4)], [Edge(cyclic_group(2), 0, 0, iota, kappa, "hnn")])


def _c2_chain():
    from vfreps.groupgraph import Edge, GraphOfGroups, RestrictionMap, TRIVIAL_GROUP, cyclic_group

    to_triv = RestrictionMap(((1, 1),))
    c2 = cyclic_group(2)
    return GraphOfGroups("c2_chain", [c2, c2, c2], [
        Edge(TRIVIAL_GROUP, 0, 1, to_triv, to_triv, "amalgam"),
        Edge(TRIVIAL_GROUP, 0, 2, to_triv, to_triv, "amalgam"),
    ])


def _mixed_tree():
    # C4 glued to C2 along C2 and to C8 along C4, with a twisted C2 loop
    # from the C2 vertex to the C8 vertex; the loop keeps only keys whose
    # C2 entries are equal
    from vfreps.groupgraph import Edge, GraphOfGroups, RestrictionMap, cyclic_group, cyclic_restriction

    c2, c4 = cyclic_group(2), cyclic_group(4)
    return GraphOfGroups("c4_c2_c8", [c4, c2, cyclic_group(8)], [
        Edge(c2, 0, 1, cyclic_restriction(4, 2), cyclic_restriction(2, 2), "amalgam"),
        Edge(c4, 0, 2, cyclic_restriction(4, 4), cyclic_restriction(8, 4), "amalgam"),
        Edge(c2, 1, 2, cyclic_restriction(2, 2), RestrictionMap(cyclic_restriction(8, 2).matrix[::-1]), "hnn"),
    ])


QUOTIENT_CASES = [
    ("psl2z", 5), ("sl2z", 5), ("gl2z", 5), ("pgl2z", 5), ("dinf", 5), ("gc(2)", 5),
    ("hnn_loop", 5), ("three_vertex_tree", 5),
]


def _quotient_graph(name):
    from vfreps.groupgraph import load, save

    if name == "hnn_loop":
        return _c4_hnn_loop()
    if name == "three_vertex_tree":
        return _c2_chain()
    if name == "mixed_tree":
        return _mixed_tree()
    return load(save(preset(name)))


def _times_one_minus_s(series):
    out = {}
    for m, v in series.coeffs.items():
        p = (v * RatFunc(poly([1, -1]))).as_integer_poly()
        assert p is not None
        if not p.is_zero():
            out[m] = p
    return out


def _reference_sim(g, absim, trunc):
    from vfreps.dimmonoid import gcd_div

    per_pair = {}
    for d in range(1, trunc + 1):
        for m in enumerate_dimvectors(g, d):
            for c in gcd_div(m)[1]:
                base = absim.get(dimvector(g, [tuple(x // c for x in v) for v in m.per_vertex]), Poly(()))
                acc = Poly(())
                for gamma in range(1, c + 1):
                    if c % gamma == 0 and mobius(gamma):
                        acc = acc + base.subs_power(c // gamma).scale(mobius(gamma))
                per_pair[(m, c)] = acc.scale(Fraction(1, c))
    return per_pair


def _assert_aggregate_is_the_per_key_sum(g, D):
    """series.aggregate against the Poly sum of every key's value per
    total, sim's values taken from _reference_sim."""
    absim, ss = compute_absim(g, D), compute_ss(g, D)
    sim = {}
    for (m, _), p in _reference_sim(g, absim, D).items():
        sim[m] = sim.get(m, Poly(())) + p
    for kind, values in (("absim", absim), ("ss", ss), ("sim", sim)):
        sums = aggregate(values)
        assert series_module.aggregate(g, kind, D) == {d: sums.get(d, Poly(())) for d in range(D + 1)}, (g, kind)


@pytest.mark.parametrize("name, D", [("dinf", 6), ("psl2z", 6), ("sl2z", 4), ("gl2z", 4), ("pgl2z", 5)])
def test_aggregate_is_the_per_key_sum_on_presets(name, D):
    _assert_aggregate_is_the_per_key_sum(preset(name), D)


def test_aggregate_is_the_per_key_sum_on_random_group_data():
    from test_dimmonoid import random_group_data

    assert len(random_group_data()) == 25
    for g in random_group_data():
        _assert_aggregate_is_the_per_key_sum(g, 4)


def _alt_y(g, m):
    # the acceptance suite's _alt_correction: it reads simple 0 of every
    # vertex, so it is not constant on orbits
    return correction_y(g, m) + 2 * sum(v[0] for v in m.per_vertex)


@pytest.mark.parametrize("name, D", QUOTIENT_CASES)
def test_tagged_pipeline_equals_untagged_reference(name, D, monkeypatch):
    g = _quotient_graph(name)
    G = automorphisms(g)
    assert G.generators
    # y_func None tags with G; _alt_y with the subgroup H it respects, a
    # proper subgroup (trivial for dinf and three_vertex_tree)
    for y_func in (None, _alt_y):
        F = build_F(g, D, y_func)
        assert F.symmetry is G.respecting(y_func, D)
        assert (F.symmetry is G) == (y_func is None)
        hand = GradedSeries(g, D, F.coeffs)
        assert hand.symmetry is trivial(g) and hand == F

        # the reference: the bucket solve on every key
        inv_r = _reference(monkeypatch, invert, F)
        un_r = shift(inv_r, "inverse", y_func)
        log_r = _reference(monkeypatch, _log, un_r)
        sq_r = _reference(monkeypatch, mul, F, F)
        absim = _times_one_minus_s(log_r)
        absim_series = GradedSeries(g, D, {m: RatFunc(p) for m, p in absim.items()})
        exp_r = _reference(monkeypatch, _exp, absim_series)

        # every public operation under the tag of F and under the trivial
        # group of a hand-built copy, against the reference
        for f in (F, hand):
            inv = invert(f)
            un = shift(inv, "inverse", y_func)
            log = _log(un)
            sq = mul(f, f)
            for t, r in ((inv, inv_r), (un, un_r), (log, log_r), (sq, sq_r)):
                assert t.symmetry is f.symmetry
                assert t == r and t.coeffs == r.coeffs
                # values are stored at the representatives of the tag only
                reps = t.symmetry.representatives(D)
                assert all(reps[c] == c for c in t.handles)
        mixed = mul(F, hand)
        assert mixed.symmetry is trivial(g) and mixed == sq_r
        exp_t = _exp(_series_like(absim_series, F.symmetry))
        assert exp_t.symmetry is F.symmetry and exp_t == exp_r

        # the production tables against the reference
        assert compute_absim(g, D, y_func) == absim
        assert compute_ss(g, D, y_func) == {m: v.as_integer_poly() for m, v in exp_r.coeffs.items()}
        if y_func is None:
            per_pair, per_vector = compute_sim(g, D)
            assert per_pair == _reference_sim(g, absim, D)
            want = {}
            for (m, c), p in per_pair.items():
                want[m] = want.get(m, Poly(())) + p
            assert per_vector == {m: p for m, p in want.items() if not p.is_zero()}


def test_tagged_pipeline_equals_untagged_reference_on_random_group_data(monkeypatch):
    # exact arithmetic, each run on its own copy of the graph: the tables
    # under the automorphism group against the bucket solve with every
    # series tagged by the trivial group
    from test_dimmonoid import random_group_data
    from vfreps.groupgraph import load, save

    D = 4
    assert len(random_group_data()) == 25
    for data in random_group_data():
        runs = []
        for quotient in (True, False):
            g = load(save(data), label="random")
            with monkeypatch.context() as patch:
                if not quotient:
                    patch.setattr(series_module, "_solve", _bucket_solve)
                    patch.setattr(series_module, "automorphisms", trivial)
                tables = (compute_absim(g, D), compute_ss(g, D))
            runs.append([{m.per_vertex: p for m, p in t.items()} for t in tables])
        assert runs[0] == runs[1], data


def _series_like(f, G):
    """f tagged with G, on whose orbits it must be constant: its values at
    the representatives of G."""
    rep = G.representatives(f.trunc)
    handles = {c: h for c, h in f.handles.items() if rep[c] == c}
    assert all(f.coefficient(m) == f.coefficient(f.graph._dv_cache[rep[m.code]]) for m in f.coeffs)
    return series_module._series(f.graph, f.trunc, handles, G)


def test_alt_correction_tags_the_series_with_the_subgroup_it_respects():
    g = _quotient_graph("psl2z")
    D = 4
    G = automorphisms(g)
    assert build_F(g, D).symmetry is G
    assert build_F(g, D, y_func=correction_y).symmetry is G
    H = build_F(g, D, y_func=_alt_y).symmetry
    assert H is G.respecting(_alt_y, D)
    assert 0 < len(H.generators) < len(G.generators)
    assert set(H.generators) < set(G.generators)
    # a shift tags with the subgroup of its input's tag that y_func respects
    inv = invert(build_F(g, D))
    assert shift(inv, "inverse", y_func=_alt_y).symmetry is H
    assert shift(inv, "inverse", y_func=correction_y).symmetry is inv.symmetry
    assert H.respecting(_alt_y, D) is H
    assert compute_absim(g, D, y_func=_alt_y) == compute_absim(g, D)
    assert compute_ss(g, D, y_func=_alt_y) == compute_ss(g, D)


def _weighted_y(weights):
    """correction_y + 2 * sum w * x over the flat per-vertex entries x."""
    def y(g, m):
        flat = [x for v in m.per_vertex for x in v]
        return correction_y(g, m) + 2 * sum(w * x for w, x in zip(weights, flat))
    return y


@pytest.mark.parametrize("name", ["psl2z", "gl2z", "pgl2z"])
def test_respecting_keeps_the_generators_that_keep_y(name):
    g = _quotient_graph(name)
    D = 5
    G = automorphisms(g)
    G.representatives(D)
    dims = [x for v in g.vertices for x in v.simple_dims]
    n = len(dims)
    offsets = [0]
    for v in g.vertices[:-1]:
        offsets.append(offsets[-1] + len(v.simple_dims))
    first = [int(i in offsets) for i in range(n)]
    weight_vectors = [
        [1] * n,                              # G-invariant
        dims,                                 # G-invariant: G keeps dimensions
        first,                                # simple 0 of every vertex
        [(3 * i + 1) % 5 for i in range(n)],  # fixed, uneven
        [0] * (n - 1) + [1],                  # the last simple only
    ]
    default_absim, default_ss = compute_absim(g, D), compute_ss(g, D)
    proper = 0
    for weights in weight_vectors:
        y_func = _weighted_y(weights)
        H = G.respecting(y_func, D)
        assert G.respecting(y_func, D) is H and H.respecting(y_func, D) is H
        assert set(H.generators) <= set(G.generators)
        assert trivial(g).respecting(y_func, D) is trivial(g)
        # every orbit of H is y-constant
        H.representatives(D)
        for d in range(D + 1):
            for r in H.reps(d):
                assert len({y_func(g, m) for m in H.orbits[r]}) == 1
        # H is G exactly when y is constant on the orbits of G
        invariant = all(len({y_func(g, m) for m in G.orbits[r]}) == 1
                        for d in range(D + 1) for r in G.reps(d))
        assert (H is G) == invariant
        proper += not invariant
        assert build_F(g, D, y_func).symmetry is H
        # the counts do not depend on the correction
        assert compute_absim(g, D, y_func) == default_absim
        assert compute_ss(g, D, y_func) == default_ss
    assert proper >= 2


def test_trivial_group_tags_the_series_of_a_graph_without_symmetry():
    g = preset("free(2)")
    G = automorphisms(g)
    assert not G.generators and trivial(g) is G
    assert build_F(g, 3).symmetry is G
    assert GradedSeries(g, 3, build_F(g, 3).coeffs).symmetry is G
    assert G.respecting(_alt_y, 3) is G


def test_shift_of_a_hand_built_series_keeps_the_trivial_tag(monkeypatch):
    # H is cached on the group it came from: after build_F asks G for the
    # subgroup that _alt_y respects, the trivial tag of a hand-built series
    # still answers with itself, so shift keeps every key of the series
    g = _quotient_graph("psl2z")
    D = 4
    G = automorphisms(g)
    H = build_F(g, D, y_func=_alt_y).symmetry
    assert H is not G and H.generators
    keys = [m for d in range(D + 1) for m in enumerate_dimvectors(g, d)]
    # one value per key: constant on no orbit of H
    hand = GradedSeries(g, D, {m: RatFunc(Poly((i + 1,))) for i, m in enumerate(keys)})
    assert hand.symmetry is trivial(g)
    out = shift(hand, "inverse", y_func=_alt_y)
    assert out.symmetry is trivial(g)
    assert len(out.handles) == len(keys)
    for m in keys:
        e = -shift_exponent(g, m, _alt_y)
        assert out.coefficient(m) == hand.coefficient(m) * RatFunc.s_power(e)


def test_a_hand_built_series_does_not_build_the_automorphism_group():
    # the trivial tag is built without the generator backtrack, the slow
    # part of building G on this graph
    g = _quotient_graph("cyclic_amalgam(24,24,24)")
    assert GradedSeries(g, 1, {}).symmetry is trivial(g)
    assert "automorphisms" not in g._pipeline_cache


def test_the_trivial_group_of_a_graph_without_symmetry_is_its_automorphism_group():
    # whichever of the two is asked for first
    g = _quotient_graph("free(2)")
    assert automorphisms(g) is trivial(g)
    g = _quotient_graph("free(2)")
    assert trivial(g) is automorphisms(g)


RELABEL_PRESETS = ["psl2z", "sl2z", "gl2z", "pgl2z", "dinf", "gc(2)", "hnn_loop", "three_vertex_tree"]


@settings(derandomize=True, max_examples=24, deadline=None)
@given(st.sampled_from(RELABEL_PRESETS), st.randoms(use_true_random=False))
def test_relabelled_simples_give_relabelled_tables(name, rng):
    from vfreps.groupgraph import Edge, FiniteGroupData, GraphOfGroups, RestrictionMap

    g = _quotient_graph(name)
    D = 4
    # an amalgam of two vertices may also exchange its sides
    swap = len(g.vertices) == 2 and g.edges[0].kind == "amalgam" and rng.random() < 0.5
    order = [1, 0] if swap else list(range(len(g.vertices)))
    perms = []
    vertices = []
    for v in (g.vertices[i] for i in order):
        p = list(range(len(v.simple_dims)))
        rng.shuffle(p)
        perms.append(p)
        vertices.append(FiniteGroupData(v.label, tuple(v.simple_dims[i] for i in p), v.order, v.exponent))
    edges = []
    for e in g.edges:
        rows = list(range(len(e.group.simple_dims)))
        rng.shuffle(rows)
        group = FiniteGroupData(e.group.label, tuple(e.group.simple_dims[i] for i in rows),
                                e.group.order, e.group.exponent)

        def permuted(rm, cols):
            return RestrictionMap(tuple(tuple(rm.matrix[r][c] for c in cols) for r in rows))

        iota, kappa = permuted(e.iota, perms[order.index(e.s)]), permuted(e.kappa, perms[order.index(e.t)])
        if swap:
            edges.append(Edge(group, 0, 1, kappa, iota, e.kind))
        else:
            edges.append(Edge(group, e.s, e.t, iota, kappa, e.kind))
    h = GraphOfGroups("relabelled", vertices, edges)

    def moved(m):
        # new vertex k is old vertex order[k], and its simple i is old simple p[i]
        return dimvector(h, [tuple(m.per_vertex[k][i] for i in p) for k, p in zip(order, perms)])

    for table_g, table_h in ((compute_absim(g, D), compute_absim(h, D)),
                             (compute_ss(g, D), compute_ss(h, D)),
                             (compute_sim(g, D)[1], compute_sim(h, D)[1])):
        assert {moved(m): p for m, p in table_g.items()} == table_h


def test_epoly_examples():
    p = Poly.from_coeffs([-2, 1])
    assert epoly_text(p) == "x*y-2"
    assert p.eval(1) == -1
    assert epoly_text(Poly.const(6)) == "6"
    q = Poly.from_coeffs([15, 3])
    assert epoly_text(q) == "3*x*y+15"
    assert Poly.from_coeffs([-4, 5, -3, 1]).eval(1) == -1


def test_ss_dimension_one_matches_oracle_counts():
    from vfreps import fforacle

    g = preset("psl2z")
    ss = compute_ss(g, 1)
    for q in (7, 13):
        total = sum(int(p.eval(q)) for m, p in ss.items() if m.total == 1)
        assert total == fforacle.count_hom(fforacle.presentation("psl2z"), 1, q)


def _conjugacy_key(q, A):
    """GL_2(F_q) conjugacy class of A for prime q: trace, det and whether A
    is scalar (a non-scalar 2x2 matrix is cyclic, so its characteristic
    polynomial decides its class)."""
    a, b, c, d = A
    return (a + d) % q, (a * d - b * c) % q, b == c == 0 and a == d


def _solutions(q, k):
    """The X in GL_2(F_q) with X^k = 1 (all of GL_2 when k is None), read
    flat from the oracle's class-by-class power_solutions."""
    from vfreps.fforacle import power_solutions

    return [x for _, members in power_solutions(q, 2, k) for x in members]


def _absim_orbits_by_enumeration(q, generator_sets, weighted=True):
    """Matrix brute force for arbitrary generator tuples (d = 2, prime q).

    weighted: the first generator runs over one member per conjugacy class
    of its set, and each point found there counts once per class member;
    this needs the other sets to be closed under conjugation.  Otherwise
    every tuple of the full product is tried."""
    from itertools import product as iproduct

    from vfreps.fforacle import commutant_dimension, invariant_lines

    classes = {}
    for x in generator_sets[0]:
        classes.setdefault(_conjugacy_key(q, x) if weighted else x, []).append(x)
    points = 0
    for members in classes.values():
        for rest in iproduct(*generator_sets[1:]):
            mats = (members[0],) + rest
            common = invariant_lines(q, mats[0])
            for A in mats[1:]:
                if not common:
                    break
                common = common & invariant_lines(q, A)
            if not common and commutant_dimension(q, mats) == 1:
                points += len(members)
    gl2 = (q * q - 1) * (q * q - q)
    orbit = gl2 // (q - 1)
    assert points % orbit == 0
    return points // orbit


def test_weighted_brute_force_matches_the_full_product():
    # the weighted helper below, pinned against every tuple of the full
    # product at q = 3 on both generator lists it is used with
    invol, units = _solutions(3, 2), _solutions(3, None)
    for sets in ([invol, invol, invol], [invol, invol, units]):
        full = _absim_orbits_by_enumeration(3, sets, weighted=False)
        assert _absim_orbits_by_enumeration(3, sets) == full


def test_three_vertex_tree_and_cross_vertex_loop():
    # topologies not covered by the presets: a three-vertex amalgam tree
    # (C2 * C2 * C2) and an extra HNN edge joining distinct vertices
    # (C2 * C2 * Z); both checked against matrix brute force at q = 5
    from vfreps.groupgraph import (
        Edge,
        GraphOfGroups,
        RestrictionMap,
        TRIVIAL_GROUP,
        cyclic_group,
        validate,
    )

    c2 = cyclic_group(2)
    to_triv = RestrictionMap(((1, 1),))
    chain = GraphOfGroups("c2_chain", [c2, c2, c2], [
        Edge(TRIVIAL_GROUP, 0, 1, to_triv, to_triv, "amalgam"),
        Edge(TRIVIAL_GROUP, 0, 2, to_triv, to_triv, "amalgam"),
    ])
    mixed = GraphOfGroups("c2_c2_z", [c2, c2], [
        Edge(TRIVIAL_GROUP, 0, 1, to_triv, to_triv, "amalgam"),
        Edge(TRIVIAL_GROUP, 0, 1, to_triv, to_triv, "hnn"),
    ])
    assert validate(chain) == [] and validate(mixed) == []

    q = 5
    invol = _solutions(q, 2)
    units = _solutions(q, None)

    absim = compute_absim(chain, 2)
    assert aggregate(absim)[1] == Poly.const(8)
    got = sum(int(p.eval(q)) for m, p in absim.items() if m.total == 2)
    assert got == _absim_orbits_by_enumeration(q, [invol, invol, invol])

    absim = compute_absim(mixed, 2)
    assert aggregate(absim)[1].text() == "4*s-4"
    got = sum(int(p.eval(q)) for m, p in absim.items() if m.total == 2)
    assert got == _absim_orbits_by_enumeration(q, [invol, invol, units])
