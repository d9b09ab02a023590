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
runs are bit-identical.  Coefficient values are interned per graph and all
scalar operations are memoized on interned values; dimension vectors with
symmetric data therefore cost one polynomial operation per distinct value,
which is what makes desk-scale truncations (D around 12) fast in exact
arithmetic.

Inside the convolutions a term is a pair of ints: the dimension vector's
code (DimVector.code, its per-vertex entries in 16-bit fields) and the
coefficient's handle in the per-graph value table (_Values).  Adding two
codes is one int addition without carries, and int order is the monoid
order, so no DimVector is built per product; a code is looked up in the
graph's intern table only when a coefficient is stored, and handles turn
back into RatFunc values once, when a public operation returns.

invert, plethystic Log and plethystic Exp are three instances of one
graded triangular solve, out_d = alpha(d) * (rhs_d + sum_{k>=1} a_k *
out_{d-k}), with D the degree derivation (the coefficient at m times |m|):
the inverse of f has a = -f_0^-1 f_+ and out_0 = f_0^-1; h = D(log f)
solves f h = D f, so a = -f_+ and rhs = D f_+; g = exp(psi) solves
D g = (D psi) g, so a = D psi, out_0 = 1 and alpha(d) = 1/d.  These agree
with the defining power sums truncated at total degree D; the test suite
checks the two against each other on small truncations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    """Truncated series: dimension vector -> rational function, zero absent."""

    __slots__ = ("graph", "trunc", "coeffs")

    def __init__(self, graph: GraphOfGroups, trunc: int, coeffs=None):
        if trunc < 0:
            raise ValueError("truncation must be nonnegative")
        self.graph = graph
        self.trunc = trunc
        clean = {}
        for m, v in (coeffs or {}).items():
            if m.graph is not graph:
                raise ValueError("coefficient key belongs to a different graph")
            if m.total > trunc:
                raise ValueError(f"key {m} exceeds truncation {trunc}")
            if not v.is_zero():
                clean[m] = v
        self.coeffs = clean

    def coefficient(self, m: DimVector) -> RatFunc:
        return self.coeffs.get(m, RF_ZERO)

    def __eq__(self, other):
        return (
            isinstance(other, GradedSeries)
            and self.graph is other.graph
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
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
    and whole reduction sums take and return handles and are memoized on
    them.  Symmetric dimension vectors share values, so each distinct
    polynomial operation happens once no matter how many keys need it.
    Handle 0 is zero and handle 1 is one.
    """

    def __init__(self):
        self.handle = {}
        self.value = []
        self.mul_memo = {}
        self.scale_memo = {}
        self.adams_memo = {}
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
        if beta == 1:
            return a
        key = (a, beta)
        r = self.adams_memo.get(key)
        if r is None:
            r = self.adams_memo[key] = self.intern(self.value[a].adams(beta))
        return r

    def reduce(self, counter: dict) -> int:
        """Sum of value*multiplicity over a {handle: multiplicity} dict."""
        key = tuple(sorted(counter.items()))
        r = self.sum_memo.get(key)
        if r is not None:
            return r
        by_den = {}
        for h, mult in key:
            v = self.value[self.scale(h, mult)]
            if v.is_zero():
                continue
            den = (v.factors, v.residual)
            prev = by_den.get(den)
            by_den[den] = v.num if prev is None else prev + v.num
        acc = RF_ZERO
        for (factors, residual), num in by_den.items():
            acc = acc + RatFunc._reduced(num, dict(factors), residual)
        r = self.sum_memo[key] = self.intern(acc)
        return r


def _values_for(g: GraphOfGroups) -> _Values:
    vals = g._pipeline_cache.get("values")
    if vals is None:
        vals = _Values()
        g._pipeline_cache["values"] = vals
    return vals


def _handles(f: GradedSeries, vals: _Values) -> dict:
    return {m: vals.intern(v) for m, v in f.coeffs.items()}


def _series(g: GraphOfGroups, trunc: int, handles: dict, vals: _Values) -> GradedSeries:
    return GradedSeries(g, trunc, {m: vals.value[h] for m, h in handles.items()})


def _vectors(g: GraphOfGroups, trunc: int) -> dict:
    """The graph's {code: DimVector} intern table, holding every vector of
    total <= trunc."""
    for d in range(trunc + 1):
        enumerate_dimvectors(g, d)
    return g._dv_cache


def _by_degree(handles: dict):
    """Split {DimVector: handle} into degree buckets of sorted (code, handle)
    lists."""
    out = {}
    for m, h in handles.items():
        out.setdefault(m.total, []).append((m.code, h))
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


def _solve(g, trunc, a, rhs=None, out0=None, alpha=lambda d: 1):
    """The graded triangular solve behind invert, Log and Exp.

    For d = 1..trunc, out_d = alpha(d) * (rhs_d + sum_{k>=1} a_k *
    out_{d-k}), where a and rhs are {DimVector: handle} without constant
    term and the constant term of out is the handle out0 (absent when
    None).  Returns {DimVector: handle}, zeros absent.
    """
    vals = _values_for(g)
    vectors = _vectors(g, trunc)
    ad = _by_degree(a)
    rd = _by_degree(rhs or {})
    out = {}
    out_by_deg = {}
    if out0 is not None:
        out[zero_vector(g)] = out0
        out_by_deg[0] = [(0, out0)]
    for d in range(1, trunc + 1):
        acc = {c: {h: 1} for c, h in rd.get(d, ())}
        for k in range(1, d + 1):
            items1 = ad.get(k)
            items2 = out_by_deg.get(d - k)
            if items1 and items2:
                _accumulate(acc, items1, items2, vals)
        bucket = []
        for c in sorted(acc):
            h = vals.scale(vals.reduce(acc[c]), alpha(d))
            if h != vals.zero:
                out[vectors[c]] = h
                bucket.append((c, h))
        out_by_deg[d] = bucket
    return out


def _derive(handles: dict, vals: _Values) -> dict:
    """The degree derivation D on handles: the coefficient at m times |m|."""
    return {m: vals.scale(h, m.total) for m, h in handles.items()}


# ---------------------------------------------------------------------------
# public series operations
# ---------------------------------------------------------------------------

def mul(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Convolution product, truncated at the common truncation."""
    if f.graph is not g.graph:
        raise ValueError("series over different graphs")
    if f.trunc != g.trunc:
        raise ValueError("series with different truncations")
    vals = _values_for(f.graph)
    vectors = _vectors(f.graph, f.trunc)
    fd = _by_degree(_handles(f, vals))
    gd = _by_degree(_handles(g, vals))
    acc = {}
    for d1, items1 in fd.items():
        for d2, items2 in gd.items():
            if d1 + d2 <= f.trunc:
                _accumulate(acc, items1, items2, vals)
    out = {vectors[c]: vals.reduce(acc[c]) for c in sorted(acc)}
    return _series(f.graph, f.trunc, out, vals)


def invert(f: GradedSeries) -> GradedSeries:
    """Multiplicative inverse up to truncation; needs a unit constant term."""
    vals = _values_for(f.graph)
    f0 = f.coefficient(zero_vector(f.graph))
    if f0.is_zero():
        raise ValueError("series with zero constant term has no inverse")
    inv0 = vals.intern(RF_ONE / f0)
    neg_inv0 = vals.scale(inv0, -1)
    a = {m: vals.mul(neg_inv0, vals.intern(v)) for m, v in f.coeffs.items() if m.total}
    return _series(f.graph, f.trunc, _solve(f.graph, f.trunc, a, out0=inv0), vals)


def shift(f: GradedSeries, direction: str, y_func=None) -> GradedSeries:
    """Multiply the coefficient at m by s^(+-shift_exponent(m)).

    "forward" turns the twisted product into the plain one; "inverse"
    undoes it.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown shift direction {direction!r}")
    sign = 1 if direction == "forward" else -1
    vals = _values_for(f.graph)
    powers = {}
    out = {}
    for m, v in f.coeffs.items():
        e = sign * shift_exponent(f.graph, m, y_func)
        p = powers.get(e)
        if p is None:
            p = powers[e] = vals.intern(RatFunc.s_power(e))
        out[m] = vals.mul(vals.intern(v), p)
    return _series(f.graph, f.trunc, out, vals)


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
    value is built by exponent arithmetic on cyclotomic factors.
    """
    factor_memo = g._pipeline_cache.setdefault("F_factors", {})
    out = {}
    for d in range(trunc + 1):
        for m in enumerate_dimvectors(g, d):
            exps = _gl_exponents(g, m)
            if d:
                exps[d] = exps.get(d, 0) - 1  # divide by gl_d
            sigma = shift_exponent(g, m, y_func)
            key = (tuple(sorted((k, e) for k, e in exps.items() if e)), sigma)
            v = factor_memo.get(key)
            if v is None:
                v = factor_memo[key] = gl_product(dict(key[0]), sigma)
            out[m] = v
    return GradedSeries(g, trunc, out)


def rep_space_count(g: GraphOfGroups, m: DimVector) -> RatFunc:
    """Counting polynomial P_m of one representation-space component."""
    return gl_product(_gl_exponents(g, m))


# ---------------------------------------------------------------------------
# exp / log / plethystic operations
# ---------------------------------------------------------------------------

def _psi(handles, trunc, vals, vectors, inverse: bool):
    """Adams-operation sum: Psi or its Moebius inverse.  The code of
    beta*m is beta*m.code, carry-free while beta*total stays within D."""
    acc = {}
    for m, h in handles.items():
        dm = m.total
        if dm == 0:
            raise ValueError("Adams sums need vanishing constant term")
        beta = 1
        while beta * dm <= trunc:
            mu = mobius(beta) if inverse else 1
            if mu:
                w = vals.scale(vals.adams(h, beta), Fraction(mu, beta))
                if w != vals.zero:
                    c = acc.setdefault(beta * m.code, {})
                    c[w] = c.get(w, 0) + 1
            beta += 1
    return {vectors[c]: vals.reduce(acc[c]) for c in sorted(acc)}


def plethystic(f: GradedSeries, direction: str) -> GradedSeries:
    """Plethystic Exp (exp after the Adams sum, needs constant term 0) or
    Log (Moebius-inverted Adams sum after log, needs constant term 1)."""
    vals = _values_for(f.graph)
    vectors = _vectors(f.graph, f.trunc)
    zero = zero_vector(f.graph)
    d = direction.lower()
    if d == "exp":
        if not f.coefficient(zero).is_zero():
            raise ValueError("plethystic Exp needs constant term 0")
        psi = _psi(_handles(f, vals), f.trunc, vals, vectors, inverse=False)
        out = _solve(
            f.graph, f.trunc, _derive(psi, vals), out0=vals.one, alpha=lambda k: Fraction(1, k)
        )
    elif d == "log":
        if not f.coefficient(zero).is_one():
            raise ValueError("plethystic Log needs constant term 1")
        rest = {m: h for m, h in _handles(f, vals).items() if m.total}
        neg = {m: vals.scale(h, -1) for m, h in rest.items()}
        h = _solve(f.graph, f.trunc, neg, rhs=_derive(rest, vals))
        ell = {m: vals.scale(v, Fraction(1, m.total)) for m, v in h.items()}
        out = _psi(ell, f.trunc, vals, vectors, inverse=True)
    else:
        raise ValueError(f"unknown plethystic direction {direction!r}")
    return _series(f.graph, f.trunc, out, vals)


# ---------------------------------------------------------------------------
# the counting pipeline
# ---------------------------------------------------------------------------

def compute_absim(g: GraphOfGroups, trunc: int, y_func=None) -> dict:
    """Counting polynomials of absolutely simple modules per dimension
    vector: (1-s) * Log(unshift(F^-1)), coefficients forced into Z[s].

    Returns {DimVector: Poly} with zero entries absent.  Raises
    NonPolynomialCoefficient if any coefficient fails to normalize.
    """
    cache_key = ("absim", trunc, y_func)
    cached = g._pipeline_cache.get(cache_key)
    if cached is not None:
        return cached
    vals = _values_for(g)
    f = build_F(g, trunc, y_func)
    series = plethystic(shift(invert(f), "inverse", y_func), "log")
    one_minus_s = vals.intern(RatFunc.from_poly(Poly((1, -1))))
    out = {}
    for m, v in series.coeffs.items():
        w = vals.value[vals.mul(one_minus_s, vals.intern(v))]
        if w.is_zero():
            continue
        p = w.as_integer_poly()
        if p is None:
            raise NonPolynomialCoefficient(m, w)
        out[m] = p
    g._pipeline_cache[cache_key] = out
    return out


def compute_ss(g: GraphOfGroups, trunc: int, y_func=None) -> dict:
    """Counting polynomials of semisimple modules per dimension vector:
    plethystic Exp of the absolutely simple series.  The zero vector maps
    to the constant 1 (the zero module)."""
    cache_key = ("ss", trunc, y_func)
    cached = g._pipeline_cache.get(cache_key)
    if cached is not None:
        return cached
    absim = compute_absim(g, trunc, y_func)
    as_series = GradedSeries(g, trunc, {m: RatFunc.from_poly(p) for m, p in absim.items()})
    out = {}
    for m, v in plethystic(as_series, "exp").coeffs.items():
        p = v.as_integer_poly()
        if p is None:
            raise NonPolynomialCoefficient(m, v)
        if not p.is_zero():
            out[m] = p
    g._pipeline_cache[cache_key] = out
    return out


def compute_sim(g: GraphOfGroups, trunc: int):
    """Counting polynomials of simple modules.

    Returns (per_pair, per_vector): per_pair maps (m, c) with c | m to the
    rational-coefficient polynomial counting simples of dimension vector m
    with endomorphism field of degree c; per_vector sums those over c.
    """
    absim = compute_absim(g, trunc)
    per_pair = {}
    per_vector = {}
    for d in range(1, trunc + 1):
        for m in enumerate_dimvectors(g, d):
            gcd_m, divisors = dimmonoid.gcd_div(m)
            total = Poly(())
            for c in divisors:
                base = dimmonoid.divide(m, c)
                acc = Poly(())
                for gamma in range(1, c + 1):
                    if c % gamma:
                        continue
                    mu = mobius(gamma)
                    if not mu:
                        continue
                    p = absim.get(base)
                    if p is not None:
                        acc = acc + p.subs_power(c // gamma).scale(mu)
                val = acc.scale(Fraction(1, c))
                per_pair[(m, c)] = val
                total = total + val
            if not total.is_zero():
                per_vector[m] = total
    return per_pair, per_vector


# ---------------------------------------------------------------------------
# counting tables and E-polynomials
# ---------------------------------------------------------------------------

@dataclass
class CountingTable:
    """All counting polynomials of one group up to a truncation.

    Each kind is computed on first use, so a request for one kind pays for
    no other: absim and ss map DimVector -> Poly with zero entries absent
    (ss includes the zero vector); sim_pairs and sim are as returned by
    compute_sim.
    """

    graph: GraphOfGroups
    trunc: int

    @property
    def absim(self) -> dict:
        return compute_absim(self.graph, self.trunc)

    @property
    def ss(self) -> dict:
        return compute_ss(self.graph, self.trunc)

    @cached_property
    def _sim(self) -> tuple:
        return compute_sim(self.graph, self.trunc)

    @property
    def sim_pairs(self) -> dict:
        return self._sim[0]

    @property
    def sim(self) -> dict:
        return self._sim[1]

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


def epoly_and_euler(table: CountingTable, kind: str = "ss", by: str = "total"):
    """E-polynomial text (substitution s -> xy) and Euler characteristic
    (evaluation at 1) for every table entry."""
    if by == "total":
        entries = table.aggregate(kind)
    else:
        entries = table.per_vector(kind)
    out = {}
    for key, p in entries.items():
        out[key] = (epoly_text(p), int(p.eval(1)))
    return out
