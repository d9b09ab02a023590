import ast
import math
import random
from fractions import Fraction
from itertools import product, zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vfreps import exactalg
from vfreps.exactalg import (
    InexactDivision,
    POLY_ONE,
    PoleError,
    Poly,
    RatFunc,
    S,
    _adams_factors,
    _cofactor,
    _cyclotomic,
    _evaluate,
    _exact_div_lists,
    _pack,
    _strip,
    _unpack,
    gl_count,
    gl_product,
    mobius,
    prime_power,
    rf_sum,
)


def _totient(n):
    """Euler's phi(n), the degree of Phi_n, by counting."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def brute_force_gl_order(d, q):
    """Count invertible d x d matrices over the field with q elements by
    enumeration, with table arithmetic for the prime-power fields."""
    from vfreps.fforacle import field, mat_det

    F = field(q)
    count = 0
    for entries in product(range(q), repeat=d * d):
        if d == 1:
            det = entries[0]
        else:
            det = mat_det(F, entries)
        if det != 0:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Poly basics
# ---------------------------------------------------------------------------

def test_poly_normal_form():
    assert Poly((0, 0, 0)).ints == ()
    assert Poly(()).degree == float("-inf")
    assert Poly((1, 2)).degree == 1
    assert Poly.from_coeffs([Fraction(1, 2), 1]).coefficients() == (Fraction(1, 2), Fraction(1))


def test_poly_text_matches_table_style():
    p = Poly.from_coeffs([-4, 5, -3, 1])
    assert p.text() == "s^3-3*s^2+5*s-4"
    assert Poly(()).text() == "0"
    assert Poly.from_coeffs([Fraction(0), Fraction(-1, 2), Fraction(1, 2)]).text() == "1/2*s^2-1/2*s"
    assert p.latex() == "s^{3} - 3 s^{2} + 5 s - 4"


def test_poly_json_coeffs_round_trip():
    p = Poly.from_coeffs([Fraction(1, 2), 3])
    assert p.json_coeffs() == ["1/2", 3]
    assert Poly.from_coeffs(p.json_coeffs()) == p
    assert Poly.from_coeffs([-4, 5, -3, 1]).text() == "s^3-3*s^2+5*s-4"


def test_exact_div_and_error():
    num = Poly.monomial(2) - POLY_ONE       # s^2 - 1
    assert num.exact_div(S - POLY_ONE) == S + POLY_ONE
    with pytest.raises(InexactDivision):
        (Poly.monomial(2) + POLY_ONE).exact_div(S - POLY_ONE)
    with pytest.raises(ZeroDivisionError):
        num.exact_div(Poly(()))


def _fraction_long_division(num, den):
    """Reference quotient num/den over Q as a list of Fractions (low degree
    first), or None when den does not divide num."""
    n = len(den) - 1
    if len(num) <= n:
        return None
    rem = [Fraction(x) for x in num]
    quo = [Fraction(0)] * (len(num) - n)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + n] / den[-1]
        quo[k] = c
        for j, y in enumerate(den):
            rem[k + j] -= c * y
    return None if any(rem) else quo


def _random_int_poly(rng, lo, hi, width=4):
    c = [rng.randint(-width, width) for _ in range(rng.randint(lo, hi))]
    while not c[-1]:
        c[-1] = rng.randint(-width, width)
    return c


def _mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(0, 3),
    st.dictionaries(st.integers(1, 30), st.integers(1, 3), max_size=4),
)
def test_cofactor_matches_one_factor_at_a_time(a, cyclo):
    factors = (((0, a),) if a else ()) + tuple(sorted(cyclo.items()))
    ints = [1]
    for n, e in factors:
        for _ in range(e if n else 0):
            ints = _mul_int(ints, list(_cyclotomic(n)))
    # the table holds the product's value at 2^64, one int per tuple
    assert _unpack(_cofactor(factors), 64) == [0] * a + ints


def _exact_div_cases():
    """Fixed corner cases plus a seeded sample: divisors with content > 1,
    negative leading coefficients, non-monic primitive divisors, quotients
    that are exact over Q but not over Z, and inexact divisions."""
    cases = [
        ([-3, -5, 2], [1, 2]),       # (2s+1)(s-3) / (2s+1)
        ([1, 0, 1], [1, 2]),         # s^2+1 / (2s+1): lead 2 leaves a remainder
        ([1, 1], [2, 2]),            # (s+1) / (2s+2) = 1/2
        ([2, -2], [-3, 3]),          # (2-2s) / (3s-3) = -2/3
        ([4, 0, -4], [2, -2]),       # (4-4s^2) / (2-2s) = 2+2s
        ([1, 0, 0, 2], [0, 3]),      # 2s^3+1 / 3s: only the final remainder 1 is left
        ([5], [1, 1]),               # degree too small
        ([6, 4], [-2]),              # constant negative divisor
    ]
    rng = random.Random(2201)
    for _ in range(400):
        content = rng.choice([1, 1, 2, 3, 6, -1, -2, -5])
        prim = _random_int_poly(rng, 1, 4)
        g = 0
        for x in prim:
            g = math.gcd(g, x)
        prim = [x // g for x in prim]
        den = [content * x for x in prim]
        num = _mul_int(_random_int_poly(rng, 1, 4), prim)
        if rng.random() < 0.4:
            num[rng.randrange(len(num))] += rng.choice([-1, 1])  # usually inexact now
        while num and not num[-1]:
            num.pop()
        if num:
            cases.append((num, den))
    return cases


def test_exact_div_lists_matches_fraction_long_division():
    exact = inexact = 0
    for num, den in _exact_div_cases():
        ref = _fraction_long_division(num, den)
        got = _exact_div_lists(num, den)
        if ref is None:
            inexact += 1
            assert got is None, (num, den)
            with pytest.raises(InexactDivision):
                Poly(num).exact_div(Poly(den))
        else:
            exact += 1
            coeffs, d = got
            assert d > 0 and all(isinstance(x, int) for x in coeffs)
            assert [Fraction(x, d) for x in coeffs] == ref, (num, den)
            assert Poly(num).exact_div(Poly(den)) == Poly.from_coeffs(ref)
    assert exact > 100 and inexact > 100


def test_poly_gcd_monic():
    a = (S - POLY_ONE) ** 3 * (S + POLY_ONE)
    b = (S - POLY_ONE) * S * S
    assert a.gcd(b) == S - POLY_ONE
    assert a.gcd(Poly(())) == ((S - POLY_ONE) ** 3 * (S + POLY_ONE)).monic()
    # the primitive PRS alone orders its operands and ends on a zero one
    assert Poly(()).gcd(a) == a.monic() and Poly(()).gcd(Poly(())) == Poly(())
    assert b.gcd(a) == S - POLY_ONE and (S - POLY_ONE).gcd(a) == S - POLY_ONE
    # the gcd is monic whatever the operands' signs and contents
    assert a.scale(-3).gcd(b) == a.gcd(b.scale(Fraction(-1, 2))) == S - POLY_ONE
    assert (-b).gcd(-a) == S - POLY_ONE
    assert a.gcd(Poly.const(5)) == Poly.const(-2).gcd(a) == POLY_ONE
    assert a.gcd(a) == a.scale(-4).gcd(a) == a.monic() and b.gcd(b) == b


# ---------------------------------------------------------------------------
# RatFunc canonical form
# ---------------------------------------------------------------------------

def test_ratfunc_normalizes_printed_example():
    num = (Poly.monomial(2) - POLY_ONE) * (Poly.monomial(2) - S)
    den = (S - POLY_ONE) ** 4
    r = RatFunc(num, den)
    assert r == RatFunc(S * (S + POLY_ONE), (S - POLY_ONE) ** 2)
    assert r.den.leading() == 1


def test_ratfunc_canonical_form_unique():
    # same value along different arithmetic paths -> identical (num, den)
    a = RatFunc(S - POLY_ONE, S + POLY_ONE)
    path1 = a * a / a
    path2 = (a + a) - a
    path3 = RatFunc((S - POLY_ONE) * (S - POLY_ONE), (S + POLY_ONE) * (S - POLY_ONE))
    assert path1.num == path2.num == path3.num == a.num
    assert path1.den == path2.den == path3.den == a.den
    # denominator scaling is absorbed into a monic denominator
    b = RatFunc(Poly((2,)), Poly((0, 2)))
    assert b.den == S and b.num == POLY_ONE


def test_ratfunc_zero_and_pole():
    z = RatFunc(Poly(()), S - POLY_ONE)
    assert z.is_zero() and z.den == POLY_ONE
    with pytest.raises(ZeroDivisionError):
        RatFunc(POLY_ONE, Poly(()))
    with pytest.raises(PoleError):
        RatFunc(POLY_ONE, S - POLY_ONE).eval(1)


def test_eval_examples():
    assert gl_count(2).eval(2) == brute_force_gl_order(2, 2) == 6
    assert (S - Poly.const(2)).eval(1) == -1


# ---------------------------------------------------------------------------
# gl_count
# ---------------------------------------------------------------------------

def test_gl_count_small():
    assert gl_count(0) == POLY_ONE
    assert gl_count(1) == S - POLY_ONE
    assert gl_count(2).eval(3) == 48


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_gl_count_matches_enumeration(d, q):
    assert gl_count(d).eval(q) == brute_force_gl_order(d, q)


def test_gl_count_degree_and_monic():
    for d in range(6):
        p = gl_count(d)
        assert p.degree == d * d
        assert p.leading() == 1


# ---------------------------------------------------------------------------
# Adams substitution
# ---------------------------------------------------------------------------

def test_adams_examples():
    assert (S - Poly.const(2)).subs_power(2) == Poly.monomial(2) - Poly.const(2)
    f = RatFunc(S - Poly.const(2))
    assert f.adams(2) == RatFunc(Poly.monomial(2) - Poly.const(2))
    assert f.adams(1) == f
    geo = RatFunc(POLY_ONE, POLY_ONE - S)
    assert geo.adams(3) == RatFunc(POLY_ONE, POLY_ONE - Poly.monomial(3))
    with pytest.raises(ValueError):
        f.adams(0)


def test_adams_multiplicative_on_random_inputs():
    rng = random.Random(7)

    def rand_poly():
        return Poly.from_coeffs([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])

    for _ in range(40):
        num1, num2 = rand_poly(), rand_poly()
        den1, den2 = rand_poly(), rand_poly()
        if den1.is_zero() or den2.is_zero():
            continue
        f, g = RatFunc(num1, den1), RatFunc(num2, den2)
        a = rng.randint(1, 4)
        assert (f * g).adams(a) == f.adams(a) * g.adams(a)


# ---------------------------------------------------------------------------
# integer-polynomial detection, Moebius, prime powers
# ---------------------------------------------------------------------------

def test_is_integer_poly():
    p = Poly.from_coeffs([-4, 5, -3, 1])
    assert RatFunc(p).as_integer_poly() == p
    half = RatFunc(Poly.from_coeffs([0, Fraction(-1, 2), Fraction(1, 2)]))
    assert half.as_integer_poly() is None
    assert half.den.is_one()  # still a valid Q[s] value
    assert RatFunc(POLY_ONE, S - POLY_ONE).as_integer_poly() is None


def test_mobius_values():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    with pytest.raises(ValueError):
        mobius(0)


def test_prime_power():
    assert prime_power(9) == (3, 2)
    assert prime_power(13) == (13, 1) and prime_power(4) == (2, 2)
    for q in (12, 6, 1, 0, -4):
        with pytest.raises(ValueError, match="not a prime power"):
            prime_power(q)


def test_s_power_and_pow():
    assert RatFunc.s_power(-2) == RatFunc(POLY_ONE, Poly.monomial(2))
    f = RatFunc(S, S - POLY_ONE)
    assert f ** 0 == RatFunc(POLY_ONE)
    assert f ** -1 == RatFunc(S - POLY_ONE, S)
    assert f ** 3 == f * f * f


# ---------------------------------------------------------------------------
# cyclotomic factors
# ---------------------------------------------------------------------------

def _factor(n):
    """s for n = 0, else the cyclotomic polynomial Phi_n."""
    return S if n == 0 else Poly(_cyclotomic(n))


def _expand(factors):
    out = POLY_ONE
    for n, e in factors:
        out = out * _factor(n) ** e
    return out


def test_cyclotomic_divisor_products():
    for n in range(1, 41):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert _expand((d, 1) for d in divisors) == Poly.monomial(n) - POLY_ONE, n
        assert _factor(n).degree == _totient(n)


def test_adams_factor_map_matches_substitution():
    for n in range(25):
        for beta in range(1, 13):
            assert _expand(_adams_factors(n, beta)) == _factor(n).subs_power(beta), (n, beta)
    factors = ((0, 2), (1, 3), (4, 1), (6, 2), (10, 1))
    value = RatFunc(S + POLY_ONE + POLY_ONE, _expand(factors))
    assert value.factors == factors
    for beta in range(1, 13):
        assert value.adams(beta).den == _expand(factors).subs_power(beta), beta


def test_gl_product_matches_expanded_gl_count():
    for d in range(13):
        assert gl_product({d: 1}) == RatFunc(gl_count(d))
        inverse = gl_product({d: -1})
        assert inverse == RatFunc(POLY_ONE, gl_count(d))
        assert inverse.den == gl_count(d) and inverse.residual.is_one()
    mixed = gl_product({4: 1, 3: -1, 2: -2}, -3)
    assert mixed == RatFunc(gl_count(4), gl_count(3) * gl_count(2) ** 2 * Poly.monomial(3))
    assert mixed.eval(5) == Fraction(gl_count(4).eval(5), gl_count(3).eval(5) * gl_count(2).eval(5) ** 2 * 125)


# ---------------------------------------------------------------------------
# RatFunc arithmetic against exact evaluation
# ---------------------------------------------------------------------------

# neither roots of unity, 0, nor integers, so no pole of a drawn value, nor
# of its Adams substitutes
POINTS = (Fraction(1, 3), Fraction(-2, 7), Fraction(7, 5))


def _q_gcd_degree(a: Poly, b: Poly) -> int:
    """Degree of gcd(a, b) over Q by Euclid on Fraction coefficient lists."""
    a, b = list(a.coefficients()), list(b.coefficients())
    while b:
        r = list(a)
        while len(r) >= len(b):
            c, k = r[-1] / b[-1], len(r) - len(b)
            for j, y in enumerate(b):
                r[k + j] -= c * y
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    return len(a) - 1


@st.composite
def ratfunc_parts(draw):
    """A value num / (lead * s^a * prod Phi_n^e * prod (s - k)) by its parts."""
    num = Poly(draw(st.lists(st.integers(-4, 4), min_size=1, max_size=5)), draw(st.sampled_from([1, 2, 3])))
    a = draw(st.integers(0, 2))
    cyclo = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 2)), max_size=3))
    linear = draw(st.lists(st.sampled_from([-5, -4, -3, -2, 2, 3, 4, 5]), max_size=2))
    lead = draw(st.sampled_from([1, 2, -3]))
    return num, a, cyclo, linear, lead


def _build(parts):
    """The value along two paths: the general constructor on the expanded
    denominator, and a product of one factor at a time; plus its exact
    evaluations at POINTS from the parts alone."""
    num, a, cyclo, linear, lead = parts
    factors = [Poly.monomial(a)] + [_factor(n) ** e for n, e in cyclo] + [S - Poly.const(k) for k in linear]
    den = Poly((lead,))
    by_factor = RatFunc(num.scale(Fraction(1, lead)))
    for f in factors:
        den = den * f
        by_factor = by_factor * RatFunc(POLY_ONE, f)
    value = RatFunc(num, den)
    assert value == by_factor and hash(value) == hash(by_factor)
    return value, {x: num.eval(x) / den.eval(x) for x in POINTS}


def _check_canonical(r, expected, extra):
    assert r.den.leading() == 1
    assert _q_gcd_degree(r.num, r.den) == 0
    for x, v in expected.items():
        assert r.num.eval(x) / r.den.eval(x) == v
    again = RatFunc(r.num * extra, r.den * extra)
    assert again == r and hash(again) == hash(r)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    ratfunc_parts(),
    ratfunc_parts(),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(1, 4),
    st.integers(1, 12),
    st.sampled_from([-3, 2, 5]),
    ratfunc_parts(),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
)
def test_ratfunc_arithmetic_matches_evaluation(pa, pb, c, beta, n, k, pw, mults):
    a, va = _build(pa)
    b, vb = _build(pb)
    w, vw = _build(pw)
    extra = _factor(n) * (S - Poly.const(k))
    _check_canonical(a + b, {x: va[x] + vb[x] for x in POINTS}, extra)
    ka, kb, kw = mults
    _check_canonical(
        rf_sum([(a, ka), (b, kb), (w, kw)]),
        {x: ka * va[x] + kb * vb[x] + kw * vw[x] for x in POINTS},
        extra,
    )
    _check_canonical(a - b, {x: va[x] - vb[x] for x in POINTS}, extra)
    _check_canonical(a * b, {x: va[x] * vb[x] for x in POINTS}, extra)
    _check_canonical(a.scale(c), {x: va[x] * c for x in POINTS}, extra)
    if not b.is_zero():
        quotient = {x: va[x] / vb[x] for x in POINTS if vb[x]}
        _check_canonical(a / b, quotient, extra)
    substituted = a.adams(beta)
    _check_canonical(substituted, {x: a.eval(x ** beta) for x in POINTS}, extra)
    assert substituted == RatFunc(a.num.subs_power(beta), a.den.subs_power(beta))
    # two paths to one value: these force the cancellations a sum or a
    # product must make to return to the canonical form of a
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    if not b.is_zero():
        assert (a * b) / b == a
    assert a + b == b + a and hash(a * b) == hash(b * a)


def _fraction_horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# integers through every drawn pole (0, +-1, roots of unity, the linear
# roots +-2..+-5) and two non-integers
EVAL_POINTS = tuple(range(-6, 7)) + (Fraction(1, 3), Fraction(-7, 2))


def _check_eval(r):
    """r.eval, r.num.eval and r.den.eval against Horner on the Fraction
    coefficients of the expanded numerator and denominator; a zero
    denominator must raise PoleError.  Returns the number of poles met."""
    num, den = r.num.coefficients(), r.den.coefficients()
    poles = 0
    for x in EVAL_POINTS:
        n, d = _fraction_horner(num, Fraction(x)), _fraction_horner(den, Fraction(x))
        assert r.num.eval(x) == n and r.den.eval(x) == d
        if d == 0:
            poles += 1
            with pytest.raises(PoleError):
                r.eval(x)
        else:
            value = r.eval(x)
            assert type(value) is Fraction and value == n / d
    return poles


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ratfunc_parts())
def test_eval_matches_a_fraction_horner(parts):
    # eval runs on ints at an int point and reads the denominator factor by
    # factor; test_ratfunc_arithmetic_matches_evaluation takes eval as its
    # reference, so eval itself is pinned here against plain Fraction Horner
    _check_eval(_build(parts)[0])


def test_eval_pinned_poles():
    den = S * (S - POLY_ONE) * Poly(_cyclotomic(3)) * (S - Poly.const(2))
    r = RatFunc(S + Poly.const(7), den.scale(3))
    assert r.factors == ((0, 1), (1, 1), (3, 1)) and not r.residual.is_one()
    assert _check_eval(r) == 3  # at 0, 1 and 2
    assert r.eval(-1) == Fraction(6, -1 * -2 * 1 * -3) / 3
    assert Poly((3, 0, 1), 2).eval(5) == 14 and Poly(()).eval(4) == 0


def test_rf_sum_pinned_cases():
    s_minus = {k: S - Poly.const(k) for k in (1, 2, 3)}
    # numerators that share the denominator s - 1 cancel it only once they
    # are added, before the other group joins
    grouped = [(RatFunc(S, s_minus[1]), 1), (RatFunc(Poly((-1,)), s_minus[1]), 1)]
    assert rf_sum(grouped) == RatFunc(POLY_ONE)
    with_s = rf_sum(grouped + [(RatFunc(POLY_ONE, S), 2)])
    assert with_s == RatFunc(S + Poly.const(2), S) and with_s.factors == ((0, 1),)
    # residuals s - 2 and s - 3: their lcm, and a gcd that cancels one of them
    mixed = rf_sum([(RatFunc(POLY_ONE, s_minus[2]), 1), (RatFunc(POLY_ONE, s_minus[3]), 1)])
    assert mixed.num == S.scale(2) - Poly.const(5)
    assert mixed.residual == s_minus[2] * s_minus[3] and mixed.factors == ()
    assert rf_sum([(mixed, 1), (RatFunc(POLY_ONE, s_minus[3]), -1)]) == RatFunc(POLY_ONE, s_minus[2])
    # residuals beside cyclotomic factors
    both = rf_sum([(RatFunc(POLY_ONE, S * s_minus[2]), 3), (RatFunc(S, s_minus[1] ** 2 * s_minus[3]), -1)])
    for x in POINTS:
        assert both.eval(x) == 3 / (x * (x - 2)) - x / ((x - 1) ** 2 * (x - 3))
    assert both.factors == ((0, 1), (1, 2)) and both.residual == s_minus[2] * s_minus[3]
    # terms that cancel to exactly zero give the canonical zero
    a = RatFunc(S + POLY_ONE, S * s_minus[1] * s_minus[2])
    b = RatFunc(POLY_ONE, s_minus[1] ** 3)
    across = [(RatFunc(POLY_ONE, S * s_minus[1]), 1), (RatFunc(POLY_ONE, s_minus[1]), -1), (RatFunc(POLY_ONE, S), 1)]
    for terms in ([(a, 2), (b, 1), (a, -2), (b, -1)], across, [(a, 0), (b, 0)], []):
        zero = rf_sum(terms)
        assert zero.is_zero() and zero.factors == () and zero.residual.is_one()
    assert a - a == rf_sum([]) and hash(a - a) == hash(RatFunc(Poly(())))
    # a one-shot generator: two cyclotomic groups are read before the value
    # with residual s - 2, and a multiplicity-0 term and a zero value after it
    handed = [
        (RatFunc(S, s_minus[1]), 2),
        (RatFunc(POLY_ONE, S), -1),
        (RatFunc(POLY_ONE, s_minus[1]), 3),
        (RatFunc(S, s_minus[2] * s_minus[1]), 1),
        (RatFunc(POLY_ONE, s_minus[3]), 0),
        (RatFunc(Poly(())), 4),
    ]
    total = rf_sum(v for v in handed)
    den = S * s_minus[1] * s_minus[2] * s_minus[3]
    num = Poly(())
    for v, k in handed:
        num = num + (v.num * den.exact_div(v.den)).scale(k)
    general = RatFunc(num, den)
    pairwise = RatFunc(Poly(()))
    for v, k in handed:
        pairwise = pairwise + v.scale(k)
    assert total == general == pairwise and hash(total) == hash(general) == hash(pairwise)
    assert total.residual == s_minus[2] and total.factors == ((0, 1), (1, 1))


def test_rf_sum_of_many_residual_terms_stays_over_their_lcm():
    # the hand-off to the constructor brings each term over the running lcm
    # of the denominators, so the common denominator stays (s - 1)(s - 2)
    # instead of growing with the number of terms
    s_minus = {k: S - Poly.const(k) for k in (1, 2)}
    pair = [(RatFunc(POLY_ONE, s_minus[2]), 1), (RatFunc(S, s_minus[1] * s_minus[2]), 1)]
    once = rf_sum(pair)
    total = rf_sum(pair * 80)
    assert total == once.scale(80) and hash(total) == hash(once.scale(80))
    assert total == RatFunc((S.scale(2) - POLY_ONE).scale(80), s_minus[1] * s_minus[2])


# shared denominators, so several terms fall into one group; the last two
# carry residuals s - 2 and s - 3
_SUM_DENOMINATORS = (
    ((0, 2), (1, 2), (3, 1)),
    ((1, 1), (2, 2), (6, 1)),
    ((0, 1), (5, 1), (12, 1)),
    ((1, 3), (7, 1)),
    ((0, 1), (1, 1), (9, 1)),
)
_SUM_RESIDUALS = (1, 1, 1, 2, 3)


@st.composite
def long_sum_terms(draw):
    """(value, multiplicity) pairs whose numerators run up to 30
    coefficients, with Poly.den in 1, 2, 3, 6, over shared denominators."""
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        ints = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=30))
        num = Poly(ints, draw(st.sampled_from([1, 2, 3, 6])))
        i = draw(st.integers(0, len(_SUM_DENOMINATORS) - 1))
        den = _expand(_SUM_DENOMINATORS[i])
        if _SUM_RESIDUALS[i] != 1:
            den = den * (S - Poly.const(_SUM_RESIDUALS[i]))
        terms.append((RatFunc(num, den), num, den, draw(st.integers(-3, 3))))
    return terms


@settings(derandomize=True, max_examples=80, deadline=None)
@given(long_sum_terms())
def test_rf_sum_of_long_numerators_matches_evaluation(terms):
    total = rf_sum((v, k) for v, _, _, k in terms)
    for x in POINTS:
        assert total.eval(x) == sum(k * num.eval(x) / den.eval(x) for _, num, den, k in terms)
    # canonical: the general constructor on the expanded parts agrees
    assert total.den.leading() == 1
    again = RatFunc(total.num, total.den)
    assert again == total and hash(again) == hash(total)
    pairwise = RatFunc(Poly(()))
    for v, _, _, k in terms:
        pairwise = pairwise + v.scale(k)
    assert pairwise == total


# ---------------------------------------------------------------------------
# the packed divisibility test behind every cyclotomic cancellation
# ---------------------------------------------------------------------------

def _residue_divides(n, ints):
    """The unfiltered reference: Phi_n divides ints exactly when it divides
    ints mod s^n - 1."""
    r = [sum(ints[i::n]) for i in range(n)]
    while r and not r[-1]:
        r.pop()
    return not r or _exact_div_lists(r, _cyclotomic(n)) is not None


def _int_poly(draw, max_size):
    """A nonzero integer polynomial, with small or 80-bit coefficients."""
    width = draw(st.sampled_from([5, 1 << 80]))
    c = draw(st.lists(st.integers(-width, width), min_size=1, max_size=max_size))
    c.append(draw(st.integers(1, width)) * draw(st.sampled_from([1, -1])))
    return c


def _least_prime_one_mod(n):
    """The least prime p = 1 (mod n) above 2^20."""
    p = -(-(1 << 20) // n) * n + 1
    while not _is_prime(p):
        p += n
    return p


def _carry_case(draw, n):
    """P = Phi_n * g + (s - 2^64) * h with coefficients below 2^62, so that
    it packs at width 64: P = F (mod s^n - 1) for F = (2^64 - 1)(s^n - 1)/
    (s - 1) + t * s^j * (2^64 - s), whose value at 2^64 is 2^(64n) - 1, a
    multiple of Phi_n(2^64); but F = t * s^j * (2^64 - s) (mod Phi_n) for
    n > 1, and F = 2^64 - 1 for n = 1, so Phi_n does not divide P.  Each
    folded coefficient of F is spread over terms below 2^62, at degrees of
    the same residue mod n."""
    B = 64
    f = [(1 << B) - 1] * n
    if n > 1:
        j, t = draw(st.integers(0, n - 2)), draw(st.sampled_from([1, -1]))
        f[j] += t << B
        f[j + 1] -= t
    cap = (1 << (B - 2)) - (1 << 10)
    out = {}
    for j, c in enumerate(f):
        r = 0
        while c:
            piece = max(-cap, min(cap, c))
            out[j + n * r] = piece
            c -= piece
            r += 1
    P = [out.get(i, 0) for i in range(max(out) + 1)]
    g = draw(st.lists(st.integers(-5, 5), max_size=4))
    for i, x in enumerate(_mul_int(_cyclotomic(n), g) if g else []):
        P[i] += x
    while not P[-1]:
        P.pop()
    return P


@st.composite
def divisibility_cases(draw):
    """(n, ints, kind) for n in 1..60, ints of one of six kinds: random;
    c * Phi_n^k * g; Phi_n itself, of length phi(n) + 1, the degree bound's
    edge; Phi_n * g +- s^j; Phi_n * g +- p * s^j, p the least prime = 1
    (mod n) above 2^20; and carry, whose value at 2^64 is a multiple of
    Phi_n(2^64) although Phi_n does not divide it, so that only the bound
    on the unpacked quotient rejects it."""
    n = draw(st.integers(1, 60))
    phi = list(_cyclotomic(n))
    kind = draw(st.sampled_from(["random", "multiple", "phi", "near", "modular", "carry"]))
    if kind == "random":
        return n, _int_poly(draw, 2 * _totient(n) + 4), kind
    if kind == "phi":
        return n, phi, kind
    if kind == "carry":
        return n, _carry_case(draw, n), kind
    g = _int_poly(draw, 8)
    if kind == "multiple":
        c = draw(st.integers(1, 30)) * draw(st.sampled_from([1, -1]))
        f = [c * x for x in g]
        for _ in range(draw(st.integers(1, 3))):
            f = _mul_int(f, phi)
        return n, f, kind
    f = _mul_int(phi, g)
    j = draw(st.integers(0, len(f) - 1))
    f[j] += draw(st.sampled_from([1, -1])) * (_least_prime_one_mod(n) if kind == "modular" else 1)
    while not f[-1]:
        f.pop()
    return n, f, kind


@settings(derandomize=True, max_examples=600, deadline=None)
@given(divisibility_cases())
def test_divides_agrees_with_the_residue_test(case):
    # the packed test: a nonzero remainder of P(2^B) mod Phi_n(2^B)
    # rejects, and a zero one is accepted only through the bound on the
    # unpacked quotient or the exact list division behind it
    n, ints, kind = case
    bits = max(abs(x) for x in ints).bit_length()
    B = exactalg._width(bits)
    packed = (_pack(ints, B), B, bits)
    calls = []

    def counted(num, den):
        calls.append(n)
        return _exact_div_lists(num, den)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactalg, "_exact_div_lists", counted)
        got, left = _strip(packed, n, 1)
    divides = _residue_divides(n, ints)
    assert left == (0 if divides else 1)
    if divides:
        P, W, qbits = got
        quotient = _exact_div_lists(ints, list(_cyclotomic(n)))[0]
        assert _unpack(P, W) == quotient and P == _pack(quotient, W)
        assert qbits == max(abs(x) for x in quotient).bit_length() and W == exactalg._width(qbits)
    else:
        assert got == packed
    if len(ints) <= _totient(n):
        assert not calls  # a degree below phi(n) leaves a remainder
    if kind == "carry":
        assert B == 64 and packed[0] % _cofactor(((n, 1),)) == 0
        assert not divides and calls == [n]  # the bound sent it to the list division


def _is_prime(q):
    return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))


def test_phi_table_holds_cyclotomic_values_at_the_slot_base():
    # the divisor of the packed test is Phi_n(2^64) from the cofactor table
    # at the usual width, and Phi_n(2^B) packed afresh at a wider one
    for n in range(1, 61):
        phi = _cyclotomic(n)
        for B in (64, 128, 192):
            value = sum(c << (B * i) for i, c in enumerate(phi))
            assert _evaluate(((n, 1),), B) == value == _pack(phi, B)
            assert _unpack(value, B) == list(phi)
        assert _cofactor(((n, 1),)) == _evaluate(((n, 1),), 64)


@st.composite
def high_order_pairs(draw):
    """Two values a, b and the order n <= 40: a's numerator carries
    Phi_n^j, b's denominator Phi_n^e, beside other random factors."""
    n = draw(st.integers(1, 40))
    parts = []
    for carrier in (0, 1):
        num = _factor(n) ** draw(st.integers(1, 3)) if carrier == 0 else POLY_ONE
        num = num * Poly(draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4)) + [1])
        factors = {m: draw(st.integers(1, 2)) for m in draw(st.lists(st.integers(0, 40), max_size=3))}
        if carrier == 1:
            factors[n] = draw(st.integers(1, 3))
        den = _expand(sorted(factors.items()))
        if draw(st.booleans()):
            den = den * (S - Poly.const(draw(st.sampled_from([-3, 2, 5]))))
        parts.append(RatFunc(num.scale(draw(st.sampled_from([1, Fraction(1, 2), -3]))), den))
    if draw(st.booleans()):
        parts.reverse()
    return n, parts[0], parts[1]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(high_order_pairs())
def test_product_strips_high_order_factors_like_the_constructor(case):
    # the product of two canonical values cancels only the factors one
    # operand brings against the other's numerator; the general constructor
    # factors the expanded denominator from scratch
    n, a, b = case
    general = RatFunc(a.num * b.num, a.den * b.den)
    assert a * b == general and hash(a * b) == hash(general)


# ---------------------------------------------------------------------------
# packed numerators against a list reference
# ---------------------------------------------------------------------------

def _mul_ref(a, b):
    """Product of integer coefficient lists (low degree first) by the
    schoolbook rule; the zero polynomial is []."""
    return _trim_ref(_mul_int(a, b)) if a and b else []


def _trim_ref(c):
    while c and not c[-1]:
        c.pop()
    return c


def _lists(r):
    """A value as integer lists (N, D) with r = N / D, from its expanded
    numerator n / nd and denominator d / dd: N = n * dd, D = d * nd."""
    num, den = r.num, r.den
    return [x * den.den for x in num.ints], [x * num.den for x in den.ints]


def _subs(c, a):
    out = [0] * ((len(c) - 1) * a + 1) if c else []
    out[::a] = c
    return out


def _check_against_lists(r, num, den):
    """r equals num / den, computed on integer lists, and is canonical: its
    packed numerator is the numerator's value at 2^width, width is the
    narrowest with two bits to spare, bits bounds it, and the constructor
    on the reference's lists builds an equal, hash-equal value."""
    rn, rd = _lists(r)
    assert _mul_ref(rn, den) == _mul_ref(num, rd)
    # coprime: no factor of the denominator divides the numerator
    assert r.den.leading() == 1 and r.num.gcd(r.residual).is_one()
    for n, _ in r.factors:
        assert r.num.ints[0] if n == 0 else not _residue_divides(n, r.num.ints)
    ints = list(r.num.ints)
    exact = max((abs(x) for x in ints), default=0).bit_length()
    assert r.width == exactalg._width(exact) == exactalg._width(r.bits) and r.bits >= exact
    assert r.packed == (_pack(ints, r.width) if ints else 0)
    again = RatFunc(Poly(num), Poly(den))
    assert again == r and hash(again) == hash(r)


@st.composite
def packed_operands(draw):
    """Two values from ratfunc_parts, long_sum_terms (its first and last
    terms) or high_order_pairs, each numerator times 1, 2, 2^57 + 1 (whose
    sums and products just pass a 64-bit slot) or an 80-bit factor, so that
    slots of 64, 128 and 192 bits meet."""
    source = draw(st.sampled_from(["parts", "sums", "high"]))
    if source == "parts":
        pair = [_build(draw(ratfunc_parts()))[0] for _ in range(2)]
    elif source == "sums":
        terms = draw(long_sum_terms())
        pair = [terms[0][0], terms[-1][0]]
    else:
        pair = list(draw(high_order_pairs())[1:])
    big = st.sampled_from([1, -2, (1 << 57) + 1, (1 << 80) + 13, -(1 << 81) - 3])
    return [v.scale(draw(big)) for v in pair]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    packed_operands(),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from([1, (1 << 80) + 1]),
    st.integers(1, 5),
)
def test_packed_arithmetic_matches_a_list_reference(pair, mults, c, big, beta):
    a, b = pair
    (na, da), (nb, db) = _lists(a), _lists(b)
    for v, (num, den) in ((a, (na, da)), (b, (nb, db))):
        _check_against_lists(v, num, den)
    _check_against_lists(a * b, _mul_ref(na, nb), _mul_ref(da, db))
    ka, kb = mults
    num = [ka * x + kb * y for x, y in zip_longest(_mul_ref(na, db), _mul_ref(nb, da), fillvalue=0)]
    _check_against_lists(rf_sum([(a, ka), (b, kb)]), _trim_ref(num), _mul_ref(da, db))
    c = c * big
    scaled = [x * c.numerator for x in na] if c else []
    _check_against_lists(a.scale(c), scaled, [x * c.denominator for x in da])
    _check_against_lists(a.adams(beta), _subs(na, beta), _subs(da, beta))


def test_packed_results_widen_past_a_64_bit_slot():
    # each bound term is needed: without it, these results would overflow
    # a 64-bit slot and read back wrong
    wide = [1 << 29] * 32  # a product's middle coefficient is 2^63
    a = RatFunc(Poly(wide))
    _check_against_lists(a * a, _mul_ref(wide, wide), [1])
    assert (a * a).width == 128
    # eight terms of one group, each with coefficients 2^60, sum to 2^63
    b = RatFunc(Poly([1 << 60, 1]), Poly(_cyclotomic(3)))
    _check_against_lists(rf_sum([(b, 1)] * 8), [8 << 60, 8], list(_cyclotomic(3)))
    # a group brought up by the cofactor (s + 1)^4, whose 1-norm is 16
    c = RatFunc(Poly([(1 << 61) - 1] * 5))
    d = RatFunc(POLY_ONE, Poly((1, 1)) ** 4)
    up = _mul_ref([(1 << 61) - 1] * 5, [1, 4, 6, 4, 1])
    _check_against_lists(rf_sum([(c, 1), (d, 1)]), [up[0] + 1] + up[1:], [1, 4, 6, 4, 1])
    # four groups over s^0..s^3 meet at s^3 with 4 * (2^61 + 1)
    f = [(1 << 61) + 1] * 4
    groups = [(RatFunc(Poly(f), Poly.monomial(i)), 1) for i in range(4)]
    total = [0] * 7
    for i in range(4):
        for j, x in enumerate(f):
            total[3 - i + j] += x
    _check_against_lists(rf_sum(groups), total, [0, 0, 0, 1])
    # -1 + 2^61 s: its top 64-bit word reads 2^61 - 1 before the borrow
    g = rf_sum([(RatFunc(Poly([-1, 1 << 61])), 1)])
    _check_against_lists(g, [-1, 1 << 61], [1])
    # a scaling past the slot, and a sum that cancels back into it
    _check_against_lists(c.scale(8), [8 * ((1 << 61) - 1)] * 5, [1])
    e = rf_sum([(a * a, 1), (a * a, -1), (b, 1)])
    assert e == b and e.width == 64


# ---------------------------------------------------------------------------
# exactness of the source
# ---------------------------------------------------------------------------

def test_no_floating_point_in_the_package():
    # no float literal anywhere in the package, and no float(...) call but
    # the two that define exactalg's degree sentinels NEG_INF and INF
    sentinels, found = set(), []
    for path in sorted((Path(exactalg.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if (
                path.name == "exactalg.py"
                and isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] in (["NEG_INF"], ["INF"])
            ):
                sentinels.add(node.value)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append((path.name, node.lineno, repr(node.value)))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
                and node not in sentinels
            ):
                found.append((path.name, node.lineno, "float(...)"))
    assert len(sentinels) == 2 and all(isinstance(v, ast.Call) for v in sentinels)
    assert found == []
