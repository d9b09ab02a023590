"""Truncated graded series over the dimension-vector monoid and the full
counting-polynomial pipeline.

A GradedSeries keeps one exact rational-function coefficient per dimension
vector up to a total-dimension truncation D.  The pipeline is

    F            product-form point counts of representation spaces,
                 divided by the general-linear count, shift applied
    F^-1         inversion in the completed monoid algebra
    inverse shift, plethystic Log, scalar (1-s)   ->  absolutely simple counts
    plethystic Exp of those                       ->  semisimple counts
    Moebius/Adams combination                     ->  simple counts

All reductions iterate keys in the deterministic monoid order, so repeated
runs are bit-identical.  Coefficient values are interned per graph, and
products, scalings and reduction sums are memoized on interned values;
dimension vectors with symmetric data therefore cost one polynomial
operation per distinct value, which is what makes desk-scale truncations
(D around 12) fast in exact arithmetic.

A series is stored in one form, its handle table {code: handle}: the
dimension vector's code (DimVector.code, its per-vertex entries in 16-bit
fields) and the coefficient's handle in the per-graph value table
(_Values).  Adding two codes is one int addition without carries, and int
order is the monoid order, so no DimVector is built per product, and each
stage hands its table to the next unchanged.

mul, invert, plethystic Log and plethystic Exp are four instances of one
graded triangular solve, out_d = alpha(d) * (rhs_d + sum_{k>=0} a_k *
right_{d-k}), with D the degree derivation (the coefficient at m times
|m|).  The product f g has a = f and right = g.  In the others right is
out and a has no constant term: the inverse of f has a = -f_0^-1 f_+ and
out_0 = f_0^-1; h = D(log f) solves f h = D f, so a = -f_+ and rhs =
D f_+; g = exp(psi) solves D g = (D psi) g, so a = D psi, out_0 = 1 and
alpha(d) = 1/d.  These agree with the defining power sums truncated at
total degree D; the test suite checks the two against each other on
small truncations.

The orbit quotient.  Relabelling simples by an element of the graph's
automorphism group G (dimmonoid.automorphisms) permutes the dimension
vectors and fixes every count, so the pipeline's series are constant on
the orbits of G.  A series records this in its tag, `symmetry`: build_F
sets it to G when G is nontrivial and y_func is None or constant on every
orbit (it evaluates y_func on every key to check), and invert, shift,
plethystic and mul keep it only when their inputs carry it.  A tagged
series holds handles at orbit representatives only and is computed there:
_solve sums, for each representative m, over its decompositions m = m1 +
(m - m1), which a walk over the sub-vectors of m finds and which name
a[rep(m1)] and right[rep(m - m1)].  Other keys take their
representative's value only where a caller reads every key:
GradedSeries.coeffs, the Poly tables, and an operand whose tag mul or an
orbit-breaking shift drops.

The reference path.  An untagged series (built by hand, built with an
orbit-breaking y_func, or over a graph whose G is trivial) holds every
key and multiplies whole degree buckets pairwise.  Both paths feed the
same counters to the same memoized reductions, so they give identical
values, and the tests check every tagged result against the untagged run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import dimmonoid
from .dimmonoid import DimVector, enumerate_dimvectors, shift_exponent, zero_vector
from .exactalg import (
    POLY_ONE,
    Poly,
    RatFunc,
    RF_ONE,
    RF_ZERO,
    gl_product,
    mobius,
    rf_sum,
)
from .groupgraph import GraphOfGroups


class NonPolynomialCoefficient(ArithmeticError):
    """A pipeline coefficient failed to normalize to an integer polynomial.

    Counting polynomials of valid graph-of-groups data always lie in Z[s],
    so this signals corrupted input data or a pipeline bug; the offending
    value is attached for diagnosis.
    """

    def __init__(self, dimvector, value):
        self.dimvector = dimvector
        self.value = value
        super().__init__(
            f"coefficient at {dimvector} is not an integer polynomial: {value}"
        )


class GradedSeries:
    """Truncated series: dimension vector -> rational function, zero absent.

    symmetry is the tag of the orbit quotient (module docstring): the
    graph's automorphism group when the series is known to be constant on
    its orbits, else None.  A series built by hand is untagged.  The one
    stored form is `handles`, {code: handle} into the graph's value table
    at the codes of the tag (_codes), zeros absent; `coeffs`, the
    {DimVector: RatFunc} view at every key, is built on its first read.
    """

    __slots__ = ("graph", "trunc", "handles", "symmetry", "_coeffs")

    def __init__(self, graph: GraphOfGroups, trunc: int, coeffs=None):
        if trunc < 0:
            raise ValueError("truncation must be nonnegative")
        vals = _values_for(graph)
        handles = {}
        for m, v in (coeffs or {}).items():
            if m.graph is not graph:
                raise ValueError("coefficient key belongs to a different graph")
            if m.total > trunc:
                raise ValueError(f"key {m} exceeds truncation {trunc}")
            if not v.is_zero():
                handles[m.code] = vals.intern(v)
        self.graph = graph
        self.trunc = trunc
        self.handles = handles
        self.symmetry = None
        self._coeffs = None

    @property
    def coeffs(self) -> dict:
        if self._coeffs is None:
            value = _values_for(self.graph).value
            self._coeffs = {m: value[h] for m, h in _every_key(self)}
        return self._coeffs

    def coefficient(self, m: DimVector) -> RatFunc:
        c = m.code
        if self.symmetry is not None:
            c = self.symmetry.representatives(self.trunc).get(c, c)
        return _values_for(self.graph).value[self.handles.get(c, 0)]

    def __eq__(self, other):
        return (
            isinstance(other, GradedSeries)
            and self.graph is other.graph
            and self.trunc == other.trunc
            and (self.handles == other.handles if self.symmetry is other.symmetry
                 else self.coeffs == other.coeffs)
        )

    def __repr__(self):
        return f"GradedSeries(D={self.trunc}, {len(self.coeffs)} terms)"


def unit_series(g: GraphOfGroups, trunc: int) -> GradedSeries:
    return GradedSeries(g, trunc, {zero_vector(g): RF_ONE})


# ---------------------------------------------------------------------------
# interned values with memoized arithmetic
# ---------------------------------------------------------------------------

class _Values:
    """Per-graph intern table for RatFunc values.

    Every coefficient flowing through the pipeline is named by an int
    handle, its index in `value`; products, scalings, Adams substitutions
    and whole reduction sums take and return handles, and all but Adams
    substitutions are memoized on them.  A reduction sum is one
    exactalg.rf_sum over the counter's (value, multiplicity) pairs, so its
    terms are neither scaled nor interned one by one.  Symmetric dimension
    vectors share values, so each distinct polynomial operation happens
    once no matter how many keys need it.  Handle 0 is zero and handle 1
    is one.
    """

    def __init__(self):
        self.handle = {}
        self.value = []
        self.mul_memo = {}
        self.scale_memo = {}
        self.sum_memo = {}
        self.zero = self.intern(RF_ZERO)
        self.one = self.intern(RF_ONE)

    def intern(self, v: RatFunc) -> int:
        h = self.handle.get(v)
        if h is None:
            h = self.handle[v] = len(self.value)
            self.value.append(v)
        return h

    def mul(self, a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        r = self.mul_memo.get(key)
        if r is None:
            r = self.mul_memo[key] = self.intern(self.value[a] * self.value[b])
        return r

    def scale(self, a: int, c) -> int:
        if c == 1:
            return a
        key = (a, c)
        r = self.scale_memo.get(key)
        if r is None:
            r = self.scale_memo[key] = self.intern(self.value[a].scale(c))
        return r

    def adams(self, a: int, beta: int) -> int:
        return a if beta == 1 else self.intern(self.value[a].adams(beta))

    def reduce(self, counter: dict) -> int:
        """Sum of value*multiplicity over a {handle: int multiplicity} dict,
        one rf_sum per distinct counter."""
        key = tuple(sorted(counter.items()))
        r = self.sum_memo.get(key)
        if r is None:
            r = self.sum_memo[key] = self.intern(rf_sum((self.value[h], k) for h, k in key))
        return r


def _values_for(g: GraphOfGroups) -> _Values:
    vals = g._pipeline_cache.get("values")
    if vals is None:
        vals = _Values()
        g._pipeline_cache["values"] = vals
    return vals


def _vectors(g: GraphOfGroups, trunc: int) -> dict:
    """The graph's {code: DimVector} intern table, holding every vector of
    total <= trunc."""
    for d in range(trunc + 1):
        enumerate_dimvectors(g, d)
    return g._dv_cache


def _symmetry_for(g: GraphOfGroups, trunc: int, y_func):
    """The tag for a series built with this correction: the graph's
    automorphism group when it is nontrivial and y_func is None or
    constant on every orbit (checked on every key), else None."""
    G = dimmonoid.automorphisms(g)
    if G.is_trivial():
        return None
    if y_func is not None:
        for c in _codes(g, trunc, G):
            orbit = G.orbits[c]
            y = y_func(g, orbit[0])
            if any(y_func(g, m) != y for m in orbit[1:]):
                return None
    return G


def _codes(g: GraphOfGroups, trunc: int, G):
    """The codes a series works at: the representatives of G, or every
    key when G is None; by total, ascending within a total."""
    if G is not None:
        G.representatives(trunc)
    for d in range(trunc + 1):
        if G is None:
            yield from (m.code for m in enumerate_dimvectors(g, d))
        else:
            yield from G.reps(d)


def _every_key(f: GradedSeries):
    """(DimVector, handle) at every key of f, zeros absent: under a tag,
    every key of an orbit takes its representative's handle."""
    vectors, G = f.graph._dv_cache, f.symmetry
    for c, h in f.handles.items():
        for m in (vectors[c],) if G is None else G.orbits[c]:
            yield m, h


def _handles(f: GradedSeries, G) -> dict:
    """{code: handle} of f at the codes of G (see _codes): f.handles when
    G is its tag, and every key when an operation drops the tag."""
    if G is f.symmetry:
        return f.handles
    return {m.code: h for m, h in _every_key(f)}


def _series(g: GraphOfGroups, trunc: int, handles: dict, G) -> GradedSeries:
    """The series whose table is handles ({code: handle} at the codes of
    G, zeros absent), tagged with G; the table is not copied."""
    f = GradedSeries.__new__(GradedSeries)
    f.graph, f.trunc, f.handles, f.symmetry, f._coeffs = g, trunc, handles, G, None
    return f


def _by_degree(handles: dict, vectors: dict):
    """Split {code: handle} into degree buckets of sorted (code, handle)
    lists."""
    out = {}
    for c, h in handles.items():
        out.setdefault(vectors[c].total, []).append((c, h))
    for bucket in out.values():
        bucket.sort()
    return out


def _accumulate(acc, items1, items2, vals):
    """Add the products of two degree buckets into per-code counters."""
    mul, zero = vals.mul, vals.zero
    for c1, v1 in items1:
        for c2, v2 in items2:
            p = mul(v1, v2)
            if p == zero:
                continue
            key = c1 + c2
            c = acc.get(key)
            if c is None:
                acc[key] = {p: 1}
            else:
                c[p] = c.get(p, 0) + 1
    return acc


def _orbit_sum(acc, decompositions, left, right, vals):
    """Add sum left[r1] * right[r2] over the decompositions (r1, r2, k) of
    one representative into the counter acc."""
    mul, zero = vals.mul, vals.zero
    for r1, r2, k in decompositions:
        h1 = left.get(r1)
        if h1 is None:
            continue
        h2 = right.get(r2)
        if h2 is None:
            continue
        p = mul(h1, h2)
        if p != zero:
            acc[p] = acc.get(p, 0) + k
    return acc


def _solve(g, trunc, G, a, rhs=None, out0=None, alpha=lambda d: 1, right=None):
    """The graded triangular solve behind mul, invert, Log and Exp.

    out_d = alpha(d) * (rhs_d + sum_{k>=0} a_k * right_{d-k}), where a,
    rhs and right are {code: handle} and right defaults to out itself; a
    then has no constant term, so each degree reads lower ones only.  The
    constant term of out is the handle out0 when given, else solved like
    every other degree.  Under a tag G the operands and the result hold
    representatives only and each representative sums over its
    decompositions; untagged, degree buckets are multiplied pairwise.
    Returns {code: handle}, zeros absent.
    """
    vals = _values_for(g)
    rhs = rhs or {}
    out = {} if out0 is None else {0: out0}
    if right is None:
        right = out
    first = 0 if out0 is None else 1
    if G is not None:
        G.representatives(trunc)
        for d in range(first, trunc + 1):
            factor = alpha(d)
            for c in G.reps(d):
                h = rhs.get(c)
                acc = _orbit_sum({} if h is None else {h: 1}, G.decompositions(c), a, right, vals)
                if acc:
                    h = vals.scale(vals.reduce(acc), factor)
                    if h != vals.zero:
                        out[c] = h
        return out
    vectors = _vectors(g, trunc)
    ad = _by_degree(a, vectors)
    rd = _by_degree(rhs, vectors)
    out_by_deg = {} if out0 is None else {0: [(0, out0)]}
    right_by_deg = out_by_deg if right is out else _by_degree(right, vectors)
    for d in range(first, trunc + 1):
        acc = {c: {h: 1} for c, h in rd.get(d, ())}
        for k in range(d + 1):
            items1 = ad.get(k)
            items2 = right_by_deg.get(d - k)
            if items1 and items2:
                _accumulate(acc, items1, items2, vals)
        bucket = []
        for c in sorted(acc):
            h = vals.scale(vals.reduce(acc[c]), alpha(d))
            if h != vals.zero:
                out[c] = h
                bucket.append((c, h))
        out_by_deg[d] = bucket
    return out


def _derive(handles: dict, vals: _Values, vectors: dict) -> dict:
    """The degree derivation D on handles: the coefficient at m times |m|."""
    return {c: vals.scale(h, vectors[c].total) for c, h in handles.items()}


# ---------------------------------------------------------------------------
# public series operations
# ---------------------------------------------------------------------------

def mul(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Convolution product, truncated at the common truncation; tagged
    when both factors carry the same tag."""
    if f.graph is not g.graph:
        raise ValueError("series over different graphs")
    if f.trunc != g.trunc:
        raise ValueError("series with different truncations")
    G = f.symmetry if f.symmetry is g.symmetry else None
    out = _solve(f.graph, f.trunc, G, _handles(f, G), right=_handles(g, G))
    return _series(f.graph, f.trunc, out, G)


def invert(f: GradedSeries) -> GradedSeries:
    """Multiplicative inverse up to truncation; needs a unit constant term.
    Keeps the tag of f."""
    vals = _values_for(f.graph)
    f0 = f.handles.get(0)
    if f0 is None:
        raise ValueError("series with zero constant term has no inverse")
    G = f.symmetry
    inv0 = vals.intern(RF_ONE / vals.value[f0])
    neg_inv0 = vals.scale(inv0, -1)
    a = {c: vals.mul(neg_inv0, h) for c, h in f.handles.items() if c}
    return _series(f.graph, f.trunc, _solve(f.graph, f.trunc, G, a, out0=inv0), G)


def shift(f: GradedSeries, direction: str, y_func=None) -> GradedSeries:
    """Multiply the coefficient at m by s^(+-shift_exponent(m)).

    "forward" turns the twisted product into the plain one; "inverse"
    undoes it.  Keeps the tag of f when y_func is None or constant on its
    orbits.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown shift direction {direction!r}")
    sign = 1 if direction == "forward" else -1
    g = f.graph
    G = f.symmetry
    if G is not None and y_func is not None:
        G = _symmetry_for(g, f.trunc, y_func)
    vals = _values_for(g)
    vectors = g._dv_cache
    powers = {}
    out = {}
    for c, h in _handles(f, G).items():
        e = sign * shift_exponent(g, vectors[c], y_func)
        p = powers.get(e)
        if p is None:
            p = powers[e] = vals.intern(RatFunc.s_power(e))
        out[c] = vals.mul(h, p)
    return _series(g, f.trunc, out, G)


def _gl_exponents(g: GraphOfGroups, m: DimVector) -> dict:
    """The counting polynomial of the m-component of the representation
    space as prod_k gl_count(k)^e, returned as {k: e}: assembled edge by
    edge (vertex factors times amalgam corrections, one general-linear
    factor per HNN loop)."""
    d = m.total
    exps = {}

    def bump(k, e):
        if k >= 1:  # gl_0 is the empty product
            exps[k] = exps.get(k, 0) + e

    for mv in m.per_vertex:
        bump(d, 1)
        for x in mv:
            bump(x, -1)
    for j, e in enumerate(g.edges):
        for x in m.per_edge[j]:
            bump(x, 1)
        if e.kind == "amalgam":
            bump(d, -1)
    return exps


def build_F(g: GraphOfGroups, trunc: int, y_func=None) -> GradedSeries:
    """The generating series of representation-space point counts.

    Coefficient at m: the counting polynomial of the m-component of the
    representation space (_gl_exponents), divided by the general-linear
    count of the total dimension, with the forward shift applied; the
    value is built by exponent arithmetic on cyclotomic factors.  The
    series is tagged (see _symmetry_for) and then evaluated at
    representatives only.
    """
    G = _symmetry_for(g, trunc, y_func)
    vals = _values_for(g)
    vectors = _vectors(g, trunc)
    out = {}
    for c in _codes(g, trunc, G):
        m = vectors[c]
        exps = _gl_exponents(g, m)
        if m.total:
            exps[m.total] = exps.get(m.total, 0) - 1  # divide by gl_d
        out[c] = vals.intern(gl_product(exps, shift_exponent(g, m, y_func)))
    return _series(g, trunc, out, G)


def rep_space_count(g: GraphOfGroups, m: DimVector) -> RatFunc:
    """Counting polynomial P_m of one representation-space component."""
    return gl_product(_gl_exponents(g, m))


# ---------------------------------------------------------------------------
# exp / log / plethystic operations
# ---------------------------------------------------------------------------

def _psi(handles, trunc, vals, vectors, inverse: bool):
    """Adams-operation sum: Psi or its Moebius inverse.  The code of
    beta*m is beta*m.code, carry-free while beta*total stays within D, and
    a multiple of a representative is a representative."""
    acc = {}
    for c0, h in handles.items():
        dm = vectors[c0].total
        if dm == 0:
            raise ValueError("Adams sums need vanishing constant term")
        beta = 1
        while beta * dm <= trunc:
            mu = mobius(beta) if inverse else 1
            if mu:
                w = vals.scale(vals.adams(h, beta), Fraction(mu, beta))
                if w != vals.zero:
                    c = acc.setdefault(beta * c0, {})
                    c[w] = c.get(w, 0) + 1
            beta += 1
    out = {}
    for c in sorted(acc):
        h = vals.reduce(acc[c])
        if h != vals.zero:
            out[c] = h
    return out


def plethystic(f: GradedSeries, direction: str) -> GradedSeries:
    """Plethystic Exp (exp after the Adams sum, needs constant term 0) or
    Log (Moebius-inverted Adams sum after log, needs constant term 1).
    Keeps the tag of f."""
    g, G = f.graph, f.symmetry
    vals = _values_for(g)
    vectors = _vectors(g, f.trunc)
    d = direction.lower()
    if d == "exp":
        if 0 in f.handles:
            raise ValueError("plethystic Exp needs constant term 0")
        psi = _psi(f.handles, f.trunc, vals, vectors, inverse=False)
        out = _solve(
            g, f.trunc, G, _derive(psi, vals, vectors), out0=vals.one,
            alpha=lambda k: Fraction(1, k),
        )
    elif d == "log":
        if f.handles.get(0) != vals.one:
            raise ValueError("plethystic Log needs constant term 1")
        rest = {c: h for c, h in f.handles.items() if c}
        neg = {c: vals.scale(h, -1) for c, h in rest.items()}
        h = _solve(g, f.trunc, G, neg, rhs=_derive(rest, vals, vectors))
        ell = {c: vals.scale(v, Fraction(1, vectors[c].total)) for c, v in h.items()}
        out = _psi(ell, f.trunc, vals, vectors, inverse=True)
    else:
        raise ValueError(f"unknown plethystic direction {direction!r}")
    return _series(g, f.trunc, out, G)


# ---------------------------------------------------------------------------
# the counting pipeline
# ---------------------------------------------------------------------------

def _integer_polys(f: GradedSeries) -> dict:
    """{DimVector: Poly} of the coefficients of f at every key, converted
    once per distinct value; zeros absent.  Raises
    NonPolynomialCoefficient at the first key that fails."""
    value = _values_for(f.graph).value
    polys = {}
    out = {}
    for m, h in _every_key(f):
        p = polys.get(h)
        if p is None:
            p = polys[h] = value[h].as_integer_poly()
            if p is None:
                raise NonPolynomialCoefficient(m, value[h])
        out[m] = p
    return out


def _absim(g: GraphOfGroups, trunc: int, y_func) -> tuple:
    """(compute_absim's table, the absim series (1-s) * Log(unshift(F^-1))
    it came from, kept at the codes of its tag)."""
    cache_key = ("absim", trunc, y_func)
    cached = g._pipeline_cache.get(cache_key)
    if cached is None:
        vals = _values_for(g)
        log = plethystic(shift(invert(build_F(g, trunc, y_func)), "inverse", y_func), "log")
        one_minus_s = vals.intern(RatFunc.from_poly(Poly((1, -1))))
        handles = {c: vals.mul(one_minus_s, h) for c, h in log.handles.items()}
        series = _series(g, trunc, handles, log.symmetry)
        cached = g._pipeline_cache[cache_key] = (_integer_polys(series), series)
    return cached


def compute_absim(g: GraphOfGroups, trunc: int, y_func=None) -> dict:
    """Counting polynomials of absolutely simple modules per dimension
    vector: (1-s) * Log(unshift(F^-1)), coefficients forced into Z[s].

    Returns {DimVector: Poly} with zero entries absent.  Raises
    NonPolynomialCoefficient if any coefficient fails to normalize.
    """
    return _absim(g, trunc, y_func)[0]


def compute_ss(g: GraphOfGroups, trunc: int, y_func=None) -> dict:
    """Counting polynomials of semisimple modules per dimension vector:
    plethystic Exp of the absolutely simple series, which carries the tag
    of the Log it came from.  The zero vector maps to the constant 1 (the
    zero module)."""
    cache_key = ("ss", trunc, y_func)
    cached = g._pipeline_cache.get(cache_key)
    if cached is None:
        absim = _absim(g, trunc, y_func)[1]
        cached = g._pipeline_cache[cache_key] = _integer_polys(plethystic(absim, "exp"))
    return cached


def compute_sim(g: GraphOfGroups, trunc: int):
    """Counting polynomials of simple modules.

    Returns (per_pair, per_vector): per_pair maps (m, c) with c | m to the
    rational-coefficient polynomial counting simples of dimension vector m
    with endomorphism field of degree c; per_vector sums those over c.
    Both are computed at orbit representatives and copied to the other
    keys; m/c is the vector with code m.code // c.
    """
    cache_key = ("sim", trunc)
    cached = g._pipeline_cache.get(cache_key)
    if cached is not None:
        return cached
    absim, series = _absim(g, trunc, None)
    G = series.symmetry
    vectors = _vectors(g, trunc)
    per_pair = {}
    per_vector = {}
    for r in _codes(g, trunc, G):
        if r:
            pairs, total = _sim_at(absim, vectors, vectors[r])
            for m in (vectors[r],) if G is None else G.orbits[r]:
                for c, val in pairs:
                    per_pair[(m, c)] = val
                if not total.is_zero():
                    per_vector[m] = total
    out = (per_pair, per_vector)
    g._pipeline_cache[cache_key] = out
    return out


def _sim_at(absim: dict, vectors: dict, m: DimVector) -> tuple:
    """([(c, simple count with endomorphism degree c)], their sum) at m."""
    _, divisors = dimmonoid.gcd_div(m)
    pairs = []
    total = Poly(())
    for c in divisors:
        p = absim.get(vectors[m.code // c])
        acc = Poly(())
        if p is not None:
            for gamma in range(1, c + 1):
                mu = mobius(gamma) if c % gamma == 0 else 0
                if mu:
                    acc = acc + p.subs_power(c // gamma).scale(mu)
        val = acc.scale(Fraction(1, c))
        pairs.append((c, val))
        total = total + val
    return pairs, total


# ---------------------------------------------------------------------------
# counting tables and E-polynomials
# ---------------------------------------------------------------------------

@dataclass
class CountingTable:
    """All counting polynomials of one group up to a truncation.

    Each kind is computed on first use and cached on the graph, so a
    request for one kind pays for no other: absim, ss and sim map
    DimVector -> Poly with zero entries absent (ss includes the zero
    vector; sim is the per-vector half of compute_sim).
    """

    graph: GraphOfGroups
    trunc: int

    @property
    def absim(self) -> dict:
        return compute_absim(self.graph, self.trunc)

    @property
    def ss(self) -> dict:
        return compute_ss(self.graph, self.trunc)

    @property
    def sim(self) -> dict:
        return compute_sim(self.graph, self.trunc)[1]

    def per_vector(self, kind: str) -> dict:
        if kind not in ("absim", "ss", "sim"):
            raise KeyError(kind)
        return getattr(self, kind)

    def aggregate(self, kind: str) -> dict:
        """Per total dimension: sum of the per-vector polynomials."""
        table = self.per_vector(kind)
        out = {}
        for m, p in table.items():
            out[m.total] = out.get(m.total, Poly(())) + p
        for d in range(self.trunc + 1):
            if kind == "ss" and d == 0:
                out.setdefault(0, POLY_ONE)
            else:
                out.setdefault(d, Poly(()))
        return dict(sorted(out.items()))


def epoly_text(p: Poly) -> str:
    """E-polynomial as text: the verbatim substitution s -> xy."""
    return p.text("x*y")


def epoly_latex(p: Poly) -> str:
    return p.latex("xy")
