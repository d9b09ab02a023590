"""The modular-evaluation reference for the exact scalar layer.

The series stages reach the scalar ring only through the per-graph value
table, series._Values.  These tests replace that table wholesale with
evaluation at the primitive N-th roots of unity mod p, N the least prime
above the truncation D and p = 1 (mod N) a prime of about 61 bits: a value
is its tuple of residues at omega^j for j = 1..N-1, the evaluation side
of the modular method (von zur Gathen and Gerhard, Modern Computer
Algebra, ch. 5).  Products, scalings and sums act pointwise, the Adams
substitution psi_beta maps index j to j*beta mod N, and F is evaluated
straight from series._gl_exponents.  No point is a pole, since every
pipeline denominator is s^a * prod Phi_n^e with n <= D < N.

The ring shares no code with exactalg, and a polynomial identity holds at
every point, so the exact tables evaluated at the same points must equal
the modular ones: absim and ss, both halves of compute_sim (the simple
counts per pair and per vector, with rational coefficients) and the
per-total sums of series.aggregate for all three kinds.  A mismatch
proves an error in exactalg or a scalar that bypasses the table, and the
table's intern rejects any value that is not a residue tuple.
"""

import math
from fractions import Fraction
from itertools import chain
from operator import mul

import pytest

from test_dimmonoid import _alt_correction, random_group_data
from test_series import _bucket_solve
from vfreps import series as series_module
from vfreps.exactalg import RF_ONE
from vfreps.groupgraph import preset
from vfreps.orbits import trivial
from vfreps.series import build_F, compute_absim, compute_sim, compute_ss, plethystic

GOLDEN_DEPTH = {"psl2z": 12, "sl2z": 8, "gl2z": 10, "pgl2z": 12}


def _is_prime(n):
    """Miller-Rabin with the first twelve prime bases, exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ModularValues:
    """A value table with series._Values' methods whose values are residue
    tuples at the primitive N-th roots of unity mod p."""

    def __init__(self, trunc):
        N = trunc + 1
        while not _is_prime(N):
            N += 1
        p = (1 << 60) // N * N + 1
        while not _is_prime(p):
            p += N
        g = 2
        while pow(g, (p - 1) // N, p) == 1:
            g += 1
        w = pow(g, (p - 1) // N, p)
        # omega^i for i < N; the point j reads W[j * e % N] for s^e
        W = [pow(w, i, p) for i in range(N)]
        self.N, self.p, self.W = N, p, W
        self.points = W[1:]
        gl = [tuple(1 for _ in self.points)]
        for n in range(1, trunc + 1):
            gl.append(tuple(math.prod(W[j * n % N] - W[j * i % N] for i in range(n)) % p
                            for j in range(1, N)))
        self.gl_count = gl
        self.gl_inverse = [tuple(pow(x, -1, p) for x in v) for v in gl]
        self.handle, self.value = {}, []
        self.mul_memo, self.scale_memo, self.sum_memo, self.power_memo = {}, {}, {}, {}
        self.zero = self.intern((0,) * (N - 1))
        self.one = self.intern((1,) * (N - 1))

    def intern(self, v):
        if not (type(v) is tuple and len(v) == self.N - 1
                and set(map(type, v)) == {int} and 0 <= min(v) and max(v) < self.p):
            raise TypeError(f"not a residue tuple mod {self.p}: {v!r}")
        h = self.handle.get(v)
        if h is None:
            h = self.handle[v] = len(self.value)
            self.value.append(v)
        return h

    def mul(self, a, b):
        key = (a, b) if a <= b else (b, a)
        r = self.mul_memo.get(key)
        if r is None:
            p = self.p
            r = self.mul_memo[key] = self.intern(
                tuple([x * y % p for x, y in zip(self.value[a], self.value[b])]))
        return r

    def scale(self, a, c):
        if c == 1:
            return a
        key = (a, c)
        r = self.scale_memo.get(key)
        if r is None:
            p, c = self.p, Fraction(c)
            k = c.numerator * pow(c.denominator, -1, p) % p
            r = self.scale_memo[key] = self.intern(tuple([x * k % p for x in self.value[a]]))
        return r

    def adams(self, a, beta):
        v, N = self.value[a], self.N
        return self.intern(tuple(v[j * beta % N - 1] for j in range(1, N)))

    def reduce(self, counter):
        key = tuple(sorted(counter.items()))
        r = self.sum_memo.get(key)
        if r is None:
            p, ks = self.p, [k for _, k in key]
            columns = zip(*[self.value[h] for h, _ in key])
            r = self.sum_memo[key] = self.intern(tuple([sum(map(mul, ks, col)) % p for col in columns]))
        return r

    def inverse(self, a):
        return self.intern(tuple(pow(x, -1, self.p) for x in self.value[a]))

    def s_power(self, k):
        r = self.power_memo.get(k)
        if r is None:
            W, N = self.W, self.N
            r = self.power_memo[k] = self.intern(tuple(W[j * k % N] for j in range(1, N)))
        return r

    def gl(self, exps, k):
        p = self.p
        acc = self.value[self.s_power(k)]
        for n, e in exps.items():
            factor = self.gl_count[n] if e > 0 else self.gl_inverse[n]
            for _ in range(abs(e)):
                acc = tuple([x * y % p for x, y in zip(acc, factor)])
        return self.intern(acc)

    def poly(self, a):
        return self.value[a]

    def integer_poly(self, a):
        return self.value[a]

    def evaluate(self, poly):
        """The residue tuple of a Poly (None for zero); its rational
        coefficients ints / den are read mod p through the inverse of den."""
        if poly is None:
            return self.value[self.zero]
        p = self.p
        inv = pow(poly.den, -1, p)
        out = []
        for x in self.points:
            acc = 0
            for c in reversed(poly.ints):
                acc = (acc * x + c) % p
            out.append(acc * inv % p)
        return tuple(out)


def _tables(g, trunc, y_func):
    """{name: table} of absim and ss, and for the correction None also
    the two halves of compute_sim and the per-total sums of all three
    kinds."""
    tables = {"absim": compute_absim(g, trunc, y_func), "ss": compute_ss(g, trunc, y_func)}
    if y_func is None:
        tables["sim per pair"], tables["sim"] = compute_sim(g, trunc)
        for kind in ("absim", "ss", "sim"):
            tables[f"{kind} per total"] = series_module.aggregate(g, kind, trunc)
    return tables


def _mismatches(g, trunc, quotient=True, y_func=None):
    """(table, key) pairs where the exact tables (_tables), evaluated at
    the modular points, differ from the pipeline run on g with a
    ModularValues table in place of the exact one.  The exact run comes
    first, and the modular run reuses its graph-level caches (keys,
    orbits, decompositions) but none of its values.  With quotient False
    the modular run tags every series with the trivial group and solves by
    whole degree buckets (test_series._bucket_solve), so it uses neither
    orbits nor decompositions.  y_func is the correction of both runs."""
    exact = _tables(g, trunc, y_func)
    vals = ModularValues(trunc)
    with pytest.MonkeyPatch.context() as patch:
        if not quotient:
            patch.setattr(series_module, "_solve", _bucket_solve)
            patch.setattr(series_module, "automorphisms", trivial)
        cache = {k: g._pipeline_cache[k] for k in ("automorphisms", "trivial") if k in g._pipeline_cache}
        patch.setattr(g, "_pipeline_cache", dict(cache, values=vals))
        modular = _tables(g, trunc, y_func)
    zero = vals.value[vals.zero]
    seen = {}
    bad = []
    for name, want in exact.items():
        got = modular[name]
        for k in chain(want, (k for k in got if k not in want)):
            p = want.get(k)
            if p not in seen:
                seen[p] = vals.evaluate(p)
            if seen[p] != got.get(k, zero):
                bad.append((name, k))
    return bad


@pytest.mark.parametrize("name", sorted(GOLDEN_DEPTH))
def test_modular_reference_agrees_on_the_published_tables(name):
    assert _mismatches(preset(name), GOLDEN_DEPTH[name]) == []


def test_modular_reference_agrees_on_random_group_data():
    # the alternative correction is not constant on orbits, so its shift
    # leaves powers of s in the denominators that the sums meet
    assert len(random_group_data()) == 25
    for g in random_group_data():
        assert _mismatches(g, 4) == [], g
        assert _mismatches(g, 4, y_func=_alt_correction) == [], g


SMALL_DEPTH = {"psl2z": 6, "sl2z": 4, "gl2z": 4, "pgl2z": 5}


def test_modular_reference_agrees_without_the_orbit_quotient():
    for name, D in SMALL_DEPTH.items():
        assert _mismatches(preset(name), D, quotient=False) == [], name
    for g in random_group_data():
        assert _mismatches(g, 3, quotient=False) == [], g


def test_the_modular_table_rejects_an_exact_value():
    with pytest.raises(TypeError, match="not a residue tuple"):
        ModularValues(4).intern(RF_ONE)


def test_exp_of_log_of_F_is_F_on_random_group_data():
    for g in random_group_data():
        F = build_F(g, 4)
        assert plethystic(plethystic(F, "log"), "exp") == F, g
