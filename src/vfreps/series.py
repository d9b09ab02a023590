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

Inside the convolutions a dimension vector is a packed int (_KeyCodec):
its per-vertex entries in base D+1.  Adding two keys whose totals sum to
at most D is one int addition without carries, and int order is the monoid
order, so no DimVector is built per product; codes are mapped back to the
interned vectors only when a coefficient is stored.

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

    Every coefficient flowing through the pipeline is replaced by a unique
    representative; products, scalings, Adams substitutions and whole
    reduction sums are memoized on representative indices.  Symmetric
    dimension vectors share values, so each distinct polynomial operation
    happens once no matter how many keys need it.
    """

    def __init__(self):
        self.rep = {}
        self.index = {}
        self.by_index = []
        self.mul_memo = {}
        self.scale_memo = {}
        self.adams_memo = {}
        self.sum_memo = {}
        self.one = self.intern(RF_ONE)
        self.zero = self.intern(RF_ZERO)

    def intern(self, v: RatFunc) -> RatFunc:
        r = self.rep.get(v)
        if r is None:
            self.rep[v] = v
            self.index[id(v)] = len(self.by_index)
            self.by_index.append(v)
            return v
        return r

    def mul(self, a: RatFunc, b: RatFunc) -> RatFunc:
        ia, ib = self.index[id(a)], self.index[id(b)]
        if ib < ia:
            ia, ib = ib, ia
        key = (ia, ib)
        r = self.mul_memo.get(key)
        if r is None:
            r = self.intern(a * b)
            self.mul_memo[key] = r
        return r

    def scale(self, a: RatFunc, c) -> RatFunc:
        if c == 1:
            return a
        key = (self.index[id(a)], c)
        r = self.scale_memo.get(key)
        if r is None:
            r = self.intern(a.scale(c))
            self.scale_memo[key] = r
        return r

    def adams(self, a: RatFunc, beta: int) -> RatFunc:
        if beta == 1:
            return a
        key = (self.index[id(a)], beta)
        r = self.adams_memo.get(key)
        if r is None:
            r = self.intern(a.adams(beta))
            self.adams_memo[key] = r
        return r

    def reduce(self, counter: dict) -> RatFunc:
        """Sum of value*multiplicity over a {value: multiplicity} dict."""
        items = sorted((self.index[id(v)], mult) for v, mult in counter.items())
        key = tuple(items)
        r = self.sum_memo.get(key)
        if r is not None:
            return r
        by_den = {}
        for idx, mult in items:
            v = self.scale(self.by_index[idx], mult)
            if v.is_zero():
                continue
            den = (v.factors, v.residual)
            prev = by_den.get(den)
            by_den[den] = v.num if prev is None else prev + v.num
        acc = RF_ZERO
        for (factors, residual), num in by_den.items():
            acc = acc + RatFunc._reduced(num, dict(factors), residual)
        r = self.intern(acc)
        self.sum_memo[key] = r
        return r


def _values_for(g: GraphOfGroups) -> _Values:
    vals = g._pipeline_cache.get("values")
    if vals is None:
        vals = _Values()
        g._pipeline_cache["values"] = vals
    return vals


class _KeyCodec:
    """Dimension vectors of total <= D packed into ints.

    A code is the concatenation of the per_vertex entries in base D+1,
    most significant first.  Simple dimensions are >= 1, so no entry
    exceeds the total; the code of m1 + m2 is therefore code(m1) +
    code(m2) with no carries whenever the sum stays within D, and int
    order is per_vertex order.  `code` maps interned vectors to codes and
    `vector` maps codes back.
    """

    __slots__ = ("code", "vector")

    def __init__(self, g: GraphOfGroups, trunc: int):
        base = trunc + 1
        self.code = {}
        self.vector = {}
        for d in range(trunc + 1):
            for m in enumerate_dimvectors(g, d):
                c = 0
                for v in m.per_vertex:
                    for x in v:
                        c = c * base + x
                self.code[m] = c
                self.vector[c] = m


def _codec_for(g: GraphOfGroups, trunc: int) -> _KeyCodec:
    key = ("codec", trunc)
    codec = g._pipeline_cache.get(key)
    if codec is None:
        codec = _KeyCodec(g, trunc)
        g._pipeline_cache[key] = codec
    return codec


def _by_degree(coeffs: dict, vals: _Values, codec: _KeyCodec):
    """Split {key: value} into degree buckets of sorted (code, interned) lists."""
    out = {}
    for m, v in coeffs.items():
        out.setdefault(m.total, []).append((codec.code[m], vals.intern(v)))
    for bucket in out.values():
        bucket.sort(key=lambda kv: kv[0])
    return out


def _accumulate(acc, items1, items2, vals):
    """Add the products of two degree buckets into per-code counters."""
    mul, zero = vals.mul, vals.zero
    for c1, v1 in items1:
        for c2, v2 in items2:
            p = mul(v1, v2)
            if p is zero:
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
    out_{d-k}), where a and rhs are {DimVector: RatFunc} without constant
    term and the constant term of out is out0 (absent when None).
    Returns {DimVector: interned value}, zeros absent.
    """
    vals = _values_for(g)
    codec = _codec_for(g, trunc)
    ad = _by_degree(a, vals, codec)
    rd = _by_degree(rhs or {}, vals, codec)
    out = {}
    out_by_deg = {}
    if out0 is not None:
        out[zero_vector(g)] = out0
        out_by_deg[0] = [(0, out0)]
    for d in range(1, trunc + 1):
        acc = {c: {v: 1} for c, v in rd.get(d, ())}
        for k in range(1, d + 1):
            items1 = ad.get(k)
            items2 = out_by_deg.get(d - k)
            if items1 and items2:
                _accumulate(acc, items1, items2, vals)
        bucket = []
        for c in sorted(acc):
            v = vals.scale(vals.reduce(acc[c]), alpha(d))
            if not v.is_zero():
                out[codec.vector[c]] = v
                bucket.append((c, v))
        out_by_deg[d] = bucket
    return out


def _derive(coeffs: dict, vals: _Values) -> dict:
    """The degree derivation D on interned values: the coefficient at m
    times |m|."""
    return {m: vals.scale(v, m.total) for m, v in coeffs.items()}


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
    codec = _codec_for(f.graph, f.trunc)
    fd = _by_degree(f.coeffs, vals, codec)
    gd = _by_degree(g.coeffs, vals, codec)
    acc = {}
    for d1, items1 in fd.items():
        for d2, items2 in gd.items():
            if d1 + d2 <= f.trunc:
                _accumulate(acc, items1, items2, vals)
    out = {codec.vector[c]: vals.reduce(acc[c]) for c in sorted(acc)}
    return GradedSeries(f.graph, f.trunc, out)


def invert(f: GradedSeries) -> GradedSeries:
    """Multiplicative inverse up to truncation; needs a unit constant term."""
    vals = _values_for(f.graph)
    f0 = f.coefficient(zero_vector(f.graph))
    if f0.is_zero():
        raise ValueError("series with zero constant term has no inverse")
    inv0 = vals.intern(RF_ONE / f0)
    neg_inv0 = vals.intern(-inv0)
    a = {m: vals.mul(neg_inv0, vals.intern(v)) for m, v in f.coeffs.items() if m.total}
    return GradedSeries(f.graph, f.trunc, _solve(f.graph, f.trunc, a, out0=inv0))


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
    return GradedSeries(f.graph, f.trunc, out)


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
    vals = _values_for(g)
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
                v = vals.intern(gl_product(dict(key[0]), sigma))
                factor_memo[key] = v
            out[m] = v
    return GradedSeries(g, trunc, out)


def rep_space_count(g: GraphOfGroups, m: DimVector) -> RatFunc:
    """Counting polynomial P_m of one representation-space component."""
    return gl_product(_gl_exponents(g, m))


# ---------------------------------------------------------------------------
# exp / log / plethystic operations
# ---------------------------------------------------------------------------

def _psi(coeffs, trunc, vals, codec, inverse: bool):
    """Adams-operation sum: Psi or its Moebius inverse.  The code of
    beta*m is beta*code(m), carry-free while beta*total stays within D."""
    acc = {}
    code = codec.code
    for m, v in sorted(coeffs.items(), key=lambda kv: (kv[0].total, code[kv[0]])):
        dm = m.total
        if dm == 0:
            raise ValueError("Adams sums need vanishing constant term")
        beta = 1
        while beta * dm <= trunc:
            mu = mobius(beta) if inverse else 1
            if mu:
                w = vals.scale(vals.adams(vals.intern(v), beta), Fraction(mu, beta))
                if not w.is_zero():
                    c = acc.setdefault(beta * code[m], {})
                    c[w] = c.get(w, 0) + 1
            beta += 1
    return {codec.vector[key]: vals.reduce(acc[key]) for key in sorted(acc)}


def plethystic(f: GradedSeries, direction: str) -> GradedSeries:
    """Plethystic Exp (exp after the Adams sum, needs constant term 0) or
    Log (Moebius-inverted Adams sum after log, needs constant term 1)."""
    vals = _values_for(f.graph)
    codec = _codec_for(f.graph, f.trunc)
    zero = zero_vector(f.graph)
    d = direction.lower()
    if d == "exp":
        if not f.coefficient(zero).is_zero():
            raise ValueError("plethystic Exp needs constant term 0")
        psi = _psi(f.coeffs, f.trunc, vals, codec, inverse=False)
        out = _solve(
            f.graph, f.trunc, _derive(psi, vals), out0=vals.one, alpha=lambda k: Fraction(1, k)
        )
    elif d == "log":
        if not f.coefficient(zero).is_one():
            raise ValueError("plethystic Log needs constant term 1")
        rest = {m: vals.intern(v) for m, v in f.coeffs.items() if m.total}
        neg = {m: vals.scale(v, -1) for m, v in rest.items()}
        h = _solve(f.graph, f.trunc, neg, rhs=_derive(rest, vals))
        ell = {m: vals.scale(v, Fraction(1, m.total)) for m, v in h.items()}
        out = _psi(ell, f.trunc, vals, codec, inverse=True)
    else:
        raise ValueError(f"unknown plethystic direction {direction!r}")
    return GradedSeries(f.graph, f.trunc, out)


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
        w = vals.mul(one_minus_s, vals.intern(v))
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


def build_counting_table(g: GraphOfGroups, trunc: int) -> CountingTable:
    return CountingTable(g, trunc)


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
