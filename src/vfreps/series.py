"""Truncated graded series over the dimension-vector monoid and the full
counting-polynomial pipeline.

A GradedSeries keeps one exact rational-function coefficient per dimension
vector up to a total-dimension truncation D.  The pipeline is

    F            product-form point counts of representation spaces,
                 divided by the general-linear count, shift applied
    F^-1         inversion in the completed monoid algebra
    inverse shift, plethystic Log, scalar (1-s)   ->  absolutely simple counts
    plethystic Exp of those                       ->  semisimple counts
    Moebius/Adams combination of absim handles    ->  simple counts
    one reduce per total, weighted by orbit size  ->  per-total sums

All reductions iterate keys in the deterministic monoid order, so repeated
runs are bit-identical.  Coefficient values are interned per graph in
_Values, the one seam to the scalar ring: the stages move int handles and
get every scalar from its methods (mul, scale, adams, reduce, inverse,
s_power, gl), and read values back as Polys with poly and integer_poly
only when a table is handed out, so a test can swap the ring.  Products,
scalings and sums are memoized on handles, so symmetric dimension vectors
cost one polynomial operation per distinct value.

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
automorphism group G (orbits.automorphisms) permutes the dimension
vectors and fixes every count, so the pipeline's series are constant on
the orbits of G.  Every series carries in its tag, `symmetry`, a subgroup
of G on whose orbits it is constant.  build_F tags with the subgroup H
generated by the generators of G that y_func respects
(Automorphisms.respecting): G itself when y_func is None or constant on
the orbits of G.  shift tags with the subgroup of its input's tag that
its y_func respects, invert and plethystic keep the tag of their input,
and mul keeps a tag that both factors share.  A series built by hand, and
a product of differently tagged factors, carry the graph's trivial group
(orbits.trivial), whose orbits are single keys.  A series holds handles
at the representatives of its tag only and is computed there: the tag's
quotient generates them without enumerating the other keys, and _solve
sums, for each representative m, over its decompositions m = m1 + (m -
m1), which a join over the sub-vectors of m finds and which name
a[rep(m1)] and right[rep(m - m1)].  Other keys take their
representative's value only where a caller reads every key, the only
places that enumerate the keys: GradedSeries.coeffs and the per-key Poly
tables (built on their first read, _per_key).

The tests keep the solve that multiplies whole degree buckets pairwise as
the reference, and check mul, invert, Log and Exp under G, a proper
subgroup and the trivial group against it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from . import dimmonoid
from .dimmonoid import DimVector, shift_exponent, zero_vector
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
from .orbits import automorphisms, trivial


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

    symmetry is the tag of the orbit quotient (module docstring): a
    subgroup of the graph's automorphism group on whose orbits the series
    is constant.  A series built by hand carries the trivial group.  The
    one stored form is `handles`, {code: handle} into the graph's value
    table at the representatives of the tag (_codes), zeros absent;
    `coeffs`, the {DimVector: RatFunc} view at every key, is built on its
    first read.
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
        self.symmetry = trivial(graph)
        self._coeffs = None

    @property
    def coeffs(self) -> dict:
        if self._coeffs is None:
            value, G = _values_for(self.graph).value, self.symmetry
            G.representatives(self.trunc)  # fills the orbits
            self._coeffs = {m: value[h] for c, h in self.handles.items() for m in G.orbits[c]}
        return self._coeffs

    def coefficient(self, m: DimVector) -> RatFunc:
        if m.total > self.trunc:
            return RF_ZERO
        self.symmetry.quotient(self.trunc)
        return _values_for(self.graph).value[self.handles.get(self.symmetry.rep(m), 0)]

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
    """Per-graph intern table for RatFunc values: the one seam between the
    series stages and the scalar ring.

    Every coefficient flowing through the pipeline is named by an int
    handle, its index in `value`, and the stages only move handles: every
    scalar they need comes from a method here.  mul, scale, adams and
    reduce (a sum with int multiplicities, so 1 - s is reduce({one: 1,
    s_power(1): -1})) combine handles; inverse, s_power and gl (a product
    of general-linear counts) make them; poly reads one in Q[s] back as a
    Poly, once per handle, and integer_poly is poly for values in Z[s].
    All but adams, inverse and gl are memoized, s_power by exponent.  A
    reduction sum is one exactalg.rf_sum over the counter's (value,
    multiplicity) pairs, so its terms are neither scaled nor interned one
    by one.  Handle 0 is zero and handle 1 is one.
    """

    def __init__(self):
        self.handle = {}
        self.value = []
        self.mul_memo = {}
        self.scale_memo = {}
        self.sum_memo = {}
        self.power_memo = {}
        self.polys = {}
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
        one rf_sum per distinct counter; a one-term counter {h: k} is
        scale(h, k)."""
        if len(counter) == 1:
            (h, k), = counter.items()
            return self.scale(h, k)
        key = tuple(sorted(counter.items()))
        r = self.sum_memo.get(key)
        if r is None:
            r = self.sum_memo[key] = self.intern(rf_sum((self.value[h], k) for h, k in key))
        return r

    def inverse(self, a: int) -> int:
        return self.intern(RF_ONE / self.value[a])

    def s_power(self, k: int) -> int:
        r = self.power_memo.get(k)
        if r is None:
            r = self.power_memo[k] = self.intern(RatFunc.s_power(k))
        return r

    def gl(self, exps: dict, k: int) -> int:
        """s^k * prod_n gl_count(n)^e over exps = {n: e}."""
        return self.intern(gl_product(exps, k))

    def poly(self, a: int):
        """The value as a Poly when it lies in Q[s], else None; one Poly
        per handle, so tables sharing a value share its Poly."""
        p = self.polys.get(a)
        if p is None:
            v = self.value[a]
            p = self.polys[a] = None if v.factors or v.residual is not POLY_ONE else v.num
        return p

    def integer_poly(self, a: int):
        """The value as a Poly when it lies in Z[s], else None."""
        p = self.poly(a)
        return p if p is not None and p.den == 1 else None


def _values_for(g: GraphOfGroups) -> _Values:
    vals = g._pipeline_cache.get("values")
    if vals is None:
        vals = _Values()
        g._pipeline_cache["values"] = vals
    return vals


def _codes(G, trunc: int):
    """The codes a series tagged G works at: its representatives, by
    total, ascending within a total."""
    G.quotient(trunc)
    for d in range(trunc + 1):
        yield from G.reps(d)


def _handles(f: GradedSeries, G) -> dict:
    """{code: handle} of f at the codes of G, a subgroup of its tag (see
    _codes): f.handles when G is the tag, else f read at every
    representative of G through the tag's rep."""
    if G is f.symmetry:
        return f.handles
    f.symmetry.quotient(f.trunc)
    rep, handles, vectors = f.symmetry.rep, f.handles, f.graph._dv_cache
    return {c: h for c in _codes(G, f.trunc) if (h := handles.get(rep(vectors[c]))) is not None}


def _series(g: GraphOfGroups, trunc: int, handles: dict, G) -> GradedSeries:
    """The series whose table is handles ({code: handle} at the codes of
    G, zeros absent), tagged with G; the table is not copied."""
    f = GradedSeries.__new__(GradedSeries)
    f.graph, f.trunc, f.handles, f.symmetry, f._coeffs = g, trunc, handles, G, None
    return f


def _orbit_sum(acc, decompositions, left, right, vals):
    """Add sum k * left[r1] * right[r2] over the flat decompositions (r1,
    r2, k, ...) of one representative into the counter acc."""
    mul, zero = vals.mul, vals.zero
    it = iter(decompositions)
    for r1, r2, k in zip(it, it, it):
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
    every other degree.  The operands and the result hold the
    representatives of the tag G only, and each representative sums over
    its decompositions.  Returns {code: handle}, zeros absent.
    """
    vals = _values_for(g)
    rhs = rhs or {}
    out = {} if out0 is None else {0: out0}
    if right is None:
        right = out
    G.quotient(trunc)
    for d in range(0 if out0 is None else 1, trunc + 1):
        factor = alpha(d)
        for c in G.reps(d):
            h = rhs.get(c)
            acc = _orbit_sum({} if h is None else {h: 1}, G.decompositions(c), a, right, vals)
            if acc:
                h = vals.scale(vals.reduce(acc), factor)
                if h != vals.zero:
                    out[c] = h
    return out


def _derive(handles: dict, vals: _Values, vectors: dict) -> dict:
    """The degree derivation D on handles: the coefficient at m times |m|."""
    return {c: vals.scale(h, vectors[c].total) for c, h in handles.items()}


# ---------------------------------------------------------------------------
# public series operations
# ---------------------------------------------------------------------------

def mul(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    """Convolution product, truncated at the common truncation; tagged
    with the tag both factors share, else with the trivial group."""
    if f.graph is not g.graph:
        raise ValueError("series over different graphs")
    if f.trunc != g.trunc:
        raise ValueError("series with different truncations")
    G = f.symmetry if f.symmetry is g.symmetry else trivial(f.graph)
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
    inv0 = vals.inverse(f0)
    neg_inv0 = vals.scale(inv0, -1)
    a = {c: vals.mul(neg_inv0, h) for c, h in f.handles.items() if c}
    return _series(f.graph, f.trunc, _solve(f.graph, f.trunc, G, a, out0=inv0), G)


def shift(f: GradedSeries, direction: str, y_func=None) -> GradedSeries:
    """Multiply the coefficient at m by s^(+-shift_exponent(m)).

    "forward" turns the twisted product into the plain one; "inverse"
    undoes it.  Tagged with the subgroup of the tag of f that y_func
    respects (Automorphisms.respecting): the tag itself when y_func is
    None or constant on its orbits.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown shift direction {direction!r}")
    sign = 1 if direction == "forward" else -1
    g = f.graph
    G = f.symmetry.respecting(y_func, f.trunc)
    vals = _values_for(g)
    vectors = g._dv_cache
    out = {}
    for c, h in _handles(f, G).items():
        out[c] = vals.mul(h, vals.s_power(sign * shift_exponent(g, vectors[c], y_func)))
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
    series is tagged with the subgroup of the graph's automorphism group
    whose generators keep y_func on every key (Automorphisms.respecting),
    so it is constant on the orbits of its tag, and is evaluated at their
    representatives only.
    """
    G = automorphisms(g).respecting(y_func, trunc)
    vals = _values_for(g)
    vectors = g._dv_cache
    out = {}
    for c in _codes(G, trunc):
        m = vectors[c]
        exps = _gl_exponents(g, m)
        if m.total:
            exps[m.total] = exps.get(m.total, 0) - 1  # divide by gl_d
        out[c] = vals.gl(exps, shift_exponent(g, m, y_func))
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
    G.quotient(f.trunc)  # interns every representative, and so every multiple of one
    vals = _values_for(g)
    vectors = g._dv_cache
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

def _counts(g: GraphOfGroups, kind: str, trunc: int, y_func=None) -> tuple:
    """(handles, G, polys, pairs_at) of one kind of count, the one table
    builder: {code: handle} at the representatives of the tag G, zeros
    absent, their values read back as Polys, and for sim the (c, handle)
    pairs at each representative (else None).  Built on first use and
    cached on the graph, so a request for one kind pays for no other
    (ss and sim build absim).  absim is (1-s) * Log(unshift(F^-1)) and ss
    its plethystic Exp, both checked to lie in Z[s] before anything is
    cached; sim (compute_sim) needs the correction None.  No per-key
    table is built here: the readers are by_representative and aggregate
    at the representatives, and compute_<kind> through _per_key."""
    key = (kind, trunc, y_func)
    cached = g._pipeline_cache.get(key)
    if cached is not None:
        return cached
    vals = _values_for(g)
    vectors = g._dv_cache
    read, pairs_at = vals.integer_poly, None
    if kind == "absim":
        log = plethystic(shift(invert(build_F(g, trunc, y_func)), "inverse", y_func), "log")
        one_minus_s = vals.reduce({vals.one: 1, vals.s_power(1): -1})
        handles = {c: vals.mul(one_minus_s, h) for c, h in log.handles.items()}
        G = log.symmetry
    elif kind == "ss":
        absim, G, _, _ = _counts(g, "absim", trunc, y_func)
        handles = plethystic(_series(g, trunc, absim, G), "exp").handles
    elif kind == "sim":
        absim, G, _, _ = _counts(g, "absim", trunc)
        read = vals.poly
        handles, pairs_at = {}, {}
        for r in _codes(G, trunc):
            if not r:
                continue
            pairs = []
            for c in dimmonoid.gcd_div(vectors[r])[1]:
                # psi fixes a constant, so the terms are counted, not keyed
                h, acc = absim.get(r // c), Counter()
                for gamma in range(1, c + 1):
                    if h is not None and c % gamma == 0 and mobius(gamma):
                        acc[vals.adams(h, c // gamma)] += mobius(gamma)
                pairs.append((c, vals.scale(vals.reduce(acc), Fraction(1, c)) if acc else vals.zero))
            h = vals.reduce(Counter(v for _, v in pairs))
            if h != vals.zero:
                handles[r] = h
            pairs_at[r] = pairs
    else:
        raise KeyError(kind)
    polys = {}
    for c, h in handles.items():
        p = polys[c] = read(h)
        if p is None:
            raise NonPolynomialCoefficient(vectors[c], vals.value[h])
    cached = g._pipeline_cache[key] = (handles, G, polys, pairs_at)
    return cached


def _per_key(g: GraphOfGroups, kind: str, trunc: int, y_func=None) -> dict:
    """One kind's {DimVector: Poly} table, each key taking its
    representative's Poly: built on its first read and cached on the graph."""
    key = ("per_key", kind, trunc, y_func)
    table = g._pipeline_cache.get(key)
    if table is None:
        _, G, polys, _ = _counts(g, kind, trunc, y_func)
        G.representatives(trunc)
        table = g._pipeline_cache[key] = {m: p for c, p in polys.items() for m in G.orbits[c]}
    return table


def compute_absim(g: GraphOfGroups, trunc: int, y_func=None) -> dict:
    """Counting polynomials of absolutely simple modules per dimension
    vector: (1-s) * Log(unshift(F^-1)), coefficients forced into Z[s].

    Returns {DimVector: Poly} with zero entries absent (_per_key).  Raises
    NonPolynomialCoefficient if any coefficient fails to normalize.
    """
    return _per_key(g, "absim", trunc, y_func)


def compute_ss(g: GraphOfGroups, trunc: int, y_func=None) -> dict:
    """Counting polynomials of semisimple modules per dimension vector:
    plethystic Exp of the absolutely simple series, which carries the tag
    of the Log it came from.  The zero vector maps to the constant 1 (the
    zero module).  Built like compute_absim's table."""
    return _per_key(g, "ss", trunc, y_func)


def compute_sim(g: GraphOfGroups, trunc: int):
    """Counting polynomials of simple modules.

    Returns (per_pair, per_vector): per_pair maps (m, c) with c | m to the
    rational-coefficient polynomial counting simples of dimension vector m
    with endomorphism field of degree c, zeros included; per_vector sums
    those over c, zeros absent.  At a representative r of the absim
    table's tag, the (r, c) value is the handle
        scale(reduce({adams(absim[r // c], c // gamma): mu(gamma)}), 1/c),
    r // c being a representative too; both tables are read back at every
    key of r's orbit.  The per-vector table is built with the sim handles
    (_per_key); the per-pair one only here, since no command reads it
    (count reads sim through by_representative and aggregate).
    """
    _, G, _, pairs_at = _counts(g, "sim", trunc)
    G.representatives(trunc)
    vals = _values_for(g)
    per_pair = {}
    for r, pairs in pairs_at.items():
        pairs = [(c, vals.poly(h)) for c, h in pairs]
        for m in G.orbits[r]:
            for c, p in pairs:
                per_pair[(m, c)] = p
    return per_pair, _per_key(g, "sim", trunc)


# ---------------------------------------------------------------------------
# counting tables and E-polynomials
# ---------------------------------------------------------------------------

def by_representative(g: GraphOfGroups, kind: str, trunc: int) -> tuple:
    """One kind's table read at the orbit representatives, with no per-key
    table built: (G, values), G the table's tag, whose rep and labelled
    give every key's representative (a key takes its representative's
    value), and values {representative's code: Poly}, zeros absent."""
    _, G, polys, _ = _counts(g, kind, trunc)
    return G, polys


def aggregate(g: GraphOfGroups, kind: str, trunc: int) -> dict:
    """{d: Poly} for every total d in 0..trunc: the sum of the kind's
    values of total d, one reduce over the representatives, each
    weighted by the size of its orbit (Automorphisms.sizes), with no key
    enumerated."""
    handles, G, _, _ = _counts(g, kind, trunc)
    vals = _values_for(g)
    acc = [Counter() for _ in range(trunc + 1)]
    for c, h in handles.items():
        acc[g._dv_cache[c].total][h] += G.sizes[c]
    return {d: vals.poly(vals.reduce(a) if a else vals.zero) for d, a in enumerate(acc)}


def epoly_text(p: Poly) -> str:
    """E-polynomial as text: the verbatim substitution s -> xy."""
    return p.text("x*y")


def epoly_latex(p: Poly) -> str:
    return p.latex("xy")
