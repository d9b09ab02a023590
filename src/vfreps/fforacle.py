"""Brute-force verification over small finite fields.

Counts tuples of invertible matrices satisfying the defining relations of
a preset group, classifies which tuples generate absolutely simple
modules, and reads the dimension vector off a tuple by eigenvalue
multiplicities.  Everything here is deliberately independent of the
series pipeline: matrix enumeration, orbit counting and linear algebra
over F_q only, so agreement with the pipeline is a real cross-check.

Conjugation by GL_d preserves every count taken here, so generator 0 runs
over one representative per conjugacy class (`power_solutions` lists the
solutions class by class, keyed by the scalar or else by trace and det),
weighted by the class size counted in the enumerated set, never by a
centralizer or pipeline formula.

Nothing sweeps M_2(F_q): X^k = 1 is tested once per class, whose members
are generated from (trace, det); powers are alpha*X + beta*I (`ch_power`,
Cayley-Hamilton), invariant lines are eigenlines, and absolute simplicity
is a commutation test (`commutant_dimension` is the tests' reference).

What depends on a class only is computed once per class: characteristic
roots (a table on the field, keyed by trace and det), the generator-1
candidates of an equality relation (solved per class of generator 1 and
per distinct x0^a), and generator 0's invariant lines.  No point is
visited, and no candidate list is flattened: it is blocks, each a whole
conjugacy class, tallied from its key alone, or one solved member
(`_classes`).  Each list gets one tally per call: for
count_absim_orbits, its members by invariant-line set and its
irreducible members by the field F_q[y] they span; for
dimvector_census, its members by eigenvalue multiplicities, with
dimvector() called once per distinct dimension vector.  Each class of
generator 0 combines the tallies: the tuples without a common line are a
sum over line-set combinations with an empty intersection, less the
commuting ones, counted per field; the census is a product of counters.
The tallies live for one call, so nothing outlives a cache_clear of the
public functions.  Each call resolves its preset and tests q's
suitability once.

Supported: d <= 2, q <= 13 with q = 4, 9 realized through fixed
irreducible polynomials.  Character indexing over F_q fixes the canonical
primitive element g0 (the smallest generator of the multiplicative
group); the n-th root of unity underlying character gamma of a cyclic
vertex group is g0^((q-1)/n) raised to gamma.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import prod

from .dimmonoid import dimvector
from .exactalg import prime_power
from .groupgraph import _parse_preset_name, cyclic_amalgam_orders, is_suitable_prime_power, preset


# ---------------------------------------------------------------------------
# small finite fields with table arithmetic
# ---------------------------------------------------------------------------

# modulus coefficients (low degree first, without the leading 1) of the
# irreducible polynomials realizing the supported prime-power fields
_IRREDUCIBLE = {4: (1, 1), 9: (1, 0)}  # x^2+x+1 over F_2, x^2+1 over F_3


class SmallField:
    """F_q for q <= 13 with precomputed operation tables.

    Elements are integers 0..q-1.  For prime q they are the residues; for
    q = 4, 9 the element a + b*x is encoded as a + b*p.
    """

    def __init__(self, q: int):
        p, e = prime_power(q)
        if q > 13:
            raise ValueError("oracle fields are limited to q <= 13")
        self.q = q
        if e == 1:
            add = [[(a + b) % q for b in range(q)] for a in range(q)]
            mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        elif q in _IRREDUCIBLE:
            add, mul = self._extension_tables(p, _IRREDUCIBLE[q])
        else:
            raise ValueError(f"no irreducible polynomial on file for q={q}")
        self.add = add
        self.mul = mul
        self.neg = [add[a].index(0) for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = mul[a].index(1)
        self.generator = self._find_generator()
        # discrete powers of the canonical generator
        self.pow_of_gen = [1]
        for _ in range(q - 2):
            self.pow_of_gen.append(self.mul[self.pow_of_gen[-1]][self.generator])
        # roots of t^2 - tr*t + det by (tr, det): (t - r)(t - s) for r <= s
        # has tr = r + s and det = r*s, and an irreducible one has no entry
        self.char_roots = {
            (add[r][s], mul[r][s]): (r,) if r == s else (r, s)
            for r in range(q) for s in range(r, q)
        }

    def _extension_tables(self, p, modulus):
        q = p * p
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            a0, a1 = a % p, a // p
            for b in range(q):
                b0, b1 = b % p, b // p
                add[a][b] = (a0 + b0) % p + p * ((a1 + b1) % p)
                # (a0 + a1 x)(b0 + b1 x) reduced modulo x^2 + m1 x + m0
                c0 = a0 * b0
                c1 = a0 * b1 + a1 * b0
                c2 = a1 * b1
                m0, m1 = modulus
                c0 -= c2 * m0
                c1 -= c2 * m1
                mul[a][b] = c0 % p + p * (c1 % p)
        return add, mul

    def _find_generator(self):
        for g in range(2, self.q):
            seen = set()
            x = 1
            for _ in range(self.q - 1):
                x = self.mul[x][g]
                seen.add(x)
            if len(seen) == self.q - 1:
                return g
        return 1  # F_2 has trivial multiplicative group

    def root_of_unity(self, n: int) -> int:
        """Canonical primitive n-th root of unity; needs n | q-1."""
        if (self.q - 1) % n:
            raise ValueError(f"F_{self.q} has no primitive {n}-th root of unity")
        if n == 1:
            return 1
        return self.pow_of_gen[(self.q - 1) // n]


@lru_cache(maxsize=None)
def field(q: int) -> SmallField:
    return SmallField(q)


# ---------------------------------------------------------------------------
# 2x2 matrices as flat tuples
# ---------------------------------------------------------------------------

def mat_mul(F, A, B):
    a, b, c, d = A
    e, f_, g, h = B
    M, P = F.mul, F.add
    return (
        P[M[a][e]][M[b][g]], P[M[a][f_]][M[b][h]],
        P[M[c][e]][M[d][g]], P[M[c][f_]][M[d][h]],
    )


def mat_pow(F, A, k):
    out = (1, 0, 0, 1)
    base = A
    while k:
        if k & 1:
            out = mat_mul(F, out, base)
        base = mat_mul(F, base, base)
        k >>= 1
    return out


def mat_det(F, A):
    a, b, c, d = A
    return F.add[F.mul[a][d]][F.neg[F.mul[b][c]]]


def _char_roots(F, A):
    """Roots t of the characteristic polynomial t^2 - tr*t + det of A, in
    increasing order, read from the field's table."""
    return F.char_roots.get((F.add[A[0]][A[3]], mat_det(F, A)), ())


def ch_power(F, tr, det, k):
    """(alpha, beta) with X^k = alpha*X + beta*I for every 2x2 matrix X of
    trace tr and determinant det, by the Cayley-Hamilton recurrence
    X^(n+1) = (alpha*tr + beta)*X - alpha*det*I from X^2 = tr*X - det*I."""
    M, P, n = F.mul, F.add, F.neg
    alpha, beta = 0, 1
    for _ in range(k):
        alpha, beta = P[M[alpha][tr]][beta], n[M[alpha][det]]
    return alpha, beta


def _class_members(F, tr, det):
    """The non-scalar matrices (a, b, c, tr - a) of trace tr and determinant
    det: for each a, bc = a(tr - a) - det fixes c by b when bc != 0; when
    bc = 0, one of b, c is 0 and the other is free (not both, if a = d)."""
    M, P, n, inv = F.mul, F.add, F.neg, F.inv
    out = []
    for a in range(F.q):
        d = P[tr][n[a]]
        bc = P[M[a][d]][n[det]]
        if bc:
            out += [(a, b, M[bc][inv[b]], d) for b in range(1, F.q)]
        else:
            out += [(a, 0, c, d) for c in range(a == d, F.q)]
            out += [(a, b, 0, d) for b in range(1, F.q)]
    return out


@lru_cache(maxsize=None)
def power_solutions(q: int, d: int, k):
    """The X in GL_d(F_q) with X^k = 1 (all of GL_d when k is None), by
    GL_d conjugacy class: ((class key, members), ...).  A scalar a*I has
    key ("s", a), as has every element at d = 1; a non-scalar 2x2 matrix
    is cyclic, so its class is keyed by (trace, det).  At d = 2, X^k = 1
    is tested once per class, and the members of each class that passes
    are generated from its (trace, det), not found by a sweep of M_2(F_q)."""
    F = field(q)
    scalars = [x for x in range(1, q) if k is None or _field_pow(F, x, k) == 1]
    if d == 1:
        return tuple((("s", a), (a,)) for a in scalars)
    if d == 2:
        out = [(("s", a), ((a, 0, 0, a),)) for a in scalars]
        for key in product(range(q), range(1, q)):
            # a non-scalar X is cyclic, so X^k = I exactly when alpha = 0, beta = 1
            if k is None or ch_power(F, *key, k) == (0, 1):
                out.append((key, tuple(_class_members(F, *key))))
        return tuple(out)
    raise ValueError("oracle supports d <= 2 only")


def invariant_lines(q: int, A):
    """Indices of the projective lines of F_q^2 mapped to themselves by A
    (index x for the line through (1, x), q for the line through (0, 1)):
    every line for a scalar A, else the kernel line of A - t*I for each
    root t of the characteristic polynomial."""
    F = field(q)
    M, P, n = F.mul, F.add, F.neg
    a, b, c, d = A
    if b == c == 0 and a == d:
        return frozenset(range(q + 1))
    out = []
    for t in _char_roots(F, A):
        # A - tI has rank 1; its kernel is spanned by (b, t - a) or (t - d, c)
        v0, v1 = (b, P[t][n[a]]) if b or a != t else (P[t][n[d]], c)
        out.append(M[v1][F.inv[v0]] if v0 else q)
    return frozenset(out)


def commutant_dimension(q: int, mats) -> int:
    """Dimension of {X : AX = XA for all generator images A}, by rank of
    the stacked centralizer equations over F_q."""
    F = field(q)
    rows = []
    for A in mats:
        a, b, c, d = A
        n = F.neg
        # AX - XA = 0 in the basis (x00, x01, x10, x11)
        rows.append((0, n[c], b, 0))
        rows.append((n[b], F.add[a][n[d]], 0, b))
        rows.append((c, 0, F.add[d][n[a]], n[c]))
        rows.append((0, c, n[b], 0))
    return 4 - _rank(F, rows)


def _rank(F, rows):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = 4
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = F.inv[rows[rank][col]]
        rows[rank] = [F.mul[x][inv] for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [
                    F.add[x][F.neg[F.mul[factor][y]]]
                    for x, y in zip(rows[r], rows[rank])
                ]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# presentations of the oracle-supported presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PresentationData:
    """Generators and relations in the two shapes the presets need:
    one power relation per generator (g_i^k = 1, k None when free) and at
    most one equality relation g_i^a = g_j^b.

    Generator i corresponds to vertex group i of the preset's graph
    (free groups: one trivial vertex, all generators HNN letters).
    """

    preset_name: str
    generators: int
    power_orders: tuple
    equality: tuple = None  # (i, a, j, b) meaning  g_i^a = g_j^b


def presentation(name: str) -> PresentationData:
    """Presentation paired with the preset's graph-of-groups data: the
    cyclic amalgam C_a *_{C_c} C_b is <x, y | x^a, y^b, x^(a/c) = y^(b/c)>,
    with no equality relation when c = 1, cyclic(n) is <x | x^n> and
    free(a) has a generators and no relation."""
    orders = cyclic_amalgam_orders(name)
    if orders is not None:
        a, c, b = orders
        return PresentationData(name, 2, (a, b), None if c == 1 else (0, a // c, 1, b // c))
    key, args = _parse_preset_name(name)
    if key == "cyclic(n)":
        return PresentationData(name, 1, args)
    if key == "free(a)":
        return PresentationData(name, args[0], (None,) * args[0])
    raise ValueError(f"no oracle presentation for preset {name!r}")


def _check_supported(p: PresentationData, d: int, q: int):
    """The preset's graph, once d, q and the presentation pass the
    oracle's limits and q is suitable for the graph; else ValueError."""
    if d > 2 or d < 1:
        raise ValueError("oracle supports dimensions 1 and 2 only")
    if q > 13:
        raise ValueError("oracle supports q <= 13 only")
    if not p.generators:
        raise ValueError(f"oracle needs at least one generator, and {p.preset_name} has none")
    g = preset(p.preset_name)
    if not is_suitable_prime_power(g, q):
        raise ValueError(f"q={q} is not suitable for {p.preset_name}")
    return g


def _field_pow(F, x, k):
    y = 1
    for _ in range(k):
        y = F.mul[y][x]
    return y


def _class_power(F, d, key, x, k):
    """x^k for a member x of the class with this power_solutions key: the
    scalar's power, or alpha*x + beta*I with (alpha, beta) = ch_power."""
    if key[0] == "s":
        c = _field_pow(F, key[1], k)
        return c if d == 1 else (c, 0, 0, c)
    alpha, beta = ch_power(F, *key, k)
    m, P = F.mul[alpha], F.add
    a, b, c, e = x
    return (P[m[a]][beta], m[b], m[c], P[m[e]][beta])


def _power_preimages(F, d, classes, k, X):
    """The members y of classes with y^k = X as blocks (see _classes), in
    class order, found once per class.  y^k is constant on a scalar class,
    and on a non-scalar one with alpha = 0 (y^k = beta*I), so such a class
    is one whole block or absent.  Otherwise y^k = alpha*y + beta*I, so y =
    (X - beta*I)/alpha is the one candidate, the block (None, (y,)) when it
    is non-scalar with the class's (trace, det)."""
    M, P, n = F.mul, F.add, F.neg
    out = []
    for key, members in classes:
        alpha, beta = (0, 0) if key[0] == "s" else ch_power(F, *key, k)
        if not alpha:
            if _class_power(F, d, key, members[0], k) == X:
                out.append((key, members))
            continue
        m, nb = M[F.inv[alpha]], n[beta]
        a, b, c, e = X
        y = (m[P[a][nb]], m[b], m[c], m[P[e][nb]])
        if (y[1] or y[2] or y[0] != y[3]) and (P[y[0]][y[3]], mat_det(F, y)) == key:
            out.append((None, (y,)))
    return out


def _classes(p: PresentationData, d: int, q: int, tally=lambda i, blocks: blocks):
    """Per conjugacy class of generator 0's power solutions: (class size,
    x0 = the class's first member, [tally(i, blocks of generator i at x0)
    for each generator i > 0]).  Every tuple of x0 and one candidate per
    list satisfies the relations.  A list is never flattened: its blocks
    (key, members) are whole power_solutions classes, or single members
    solved for by _power_preimages under the key None.  tally runs once
    per distinct list: without an equality relation every class shares
    generator i's power_solutions, and an equality relation g_0^a =
    g_1^b takes generator 1 from the preimages of x0^a under y -> y^b,
    solved per class of generator 1 and once per distinct x0^a."""
    sets = [power_solutions(q, d, k) for k in p.power_orders]
    if p.equality is None:
        rest = [tally(i, s) for i, s in enumerate(sets[1:], 1)]
        for _, members in sets[0]:
            yield len(members), members[0], rest
        return
    i, a, j, b = p.equality
    if (i, j, p.generators) != (0, 1, 2):
        raise ValueError("equality relations are handled for two generators only")
    F = field(q)
    solved = {}
    for key, members in sets[0]:
        xa = _class_power(F, d, key, members[0], a)
        if xa not in solved:
            solved[xa] = [tally(1, _power_preimages(F, d, sets[1], b, xa))]
        yield len(members), members[0], solved[xa]


def _size(blocks) -> int:
    """The number of generated members in a list of blocks."""
    return sum(len(members) for _, members in blocks)


def count_hom(p: PresentationData, d: int, q: int) -> int:
    """Number of generator tuples in GL_d(F_q) satisfying all relations:
    over the conjugacy classes of generator 0, the class size times the
    number of completions of its first member."""
    _check_supported(p, d, q)
    return sum(w * prod(rest) for w, _, rest in _classes(p, d, q, lambda i, blocks: _size(blocks)))


def _field_key(F, y):
    """The direction of (b, c, e - a) for a non-scalar y = (a, b, c, e).
    F_q[y] is the span of I and y, whose members with a zero top-left
    entry form the line through y - a*I; so two non-scalar matrices span
    the same F_q[y] exactly when their keys agree."""
    a, b, c, e = y
    v = (b, c, F.add[e][F.neg[a]])
    u = F.mul[F.inv[next(x for x in v if x)]]
    return tuple(u[x] for x in v)


def _line_tally(F, blocks):
    """One candidate list, counted for count_absim_orbits: (its members by
    invariant-line set, its irreducible members by _field_key).  A solved
    member (key None) is read directly, a whole class from its key.  A
    scalar has every line.  A non-scalar member is fixed by its eigenlines:
    a split class gives each of the q(q+1)/2 pairs of lines twice (one per
    order of its roots), a repeated root gives each line q - 1 times (one
    per nonzero nilpotent part with that kernel), and an irreducible class
    has no line and 2 members, y and its conjugate, in each field F_q[y],
    the same fields for every irreducible class."""
    q = F.q
    by_lines, fields, kinds = Counter(), Counter(), Counter()
    field_keys = ()
    for key, members in blocks:
        if key is None:
            (y,) = members
            lines = invariant_lines(q, y)
            by_lines[lines] += 1
            if not lines:
                fields[_field_key(F, y)] += 1
        elif key[0] == "s":
            by_lines[frozenset(range(q + 1))] += len(members)
        else:
            roots = len(F.char_roots.get(key, ()))
            kinds[roots] += 1
            if not roots:
                by_lines[frozenset()] += len(members)
                field_keys = field_keys or {_field_key(F, y) for y in members}
    if kinds[2]:
        by_lines.update(dict.fromkeys(map(frozenset, combinations(range(q + 1), 2)), 2 * kinds[2]))
    if kinds[1]:
        by_lines.update({frozenset((line,)): (q - 1) * kinds[1] for line in range(q + 1)})
    fields.update(dict.fromkeys(field_keys, 2 * kinds[0]))
    return by_lines, fields


def count_absim_orbits(p: PresentationData, d: int, q: int) -> int:
    """Number of isomorphism classes of absolutely simple d-dimensional
    modules: absolutely simple points over |GL_d|/(q-1), the size of a
    conjugation orbit.  Points are counted at class representatives of
    generator 0, whose invariant lines are read once per class, and
    weighted by class size; PGL_d acts freely on them, so each class's
    weighted count and the total must be multiples of the orbit size.

    A point is absolutely simple when its generators have no common
    invariant line and two of them do not commute.  Without a common line
    the commutant is a finite division algebra, so a field K (Wedderburn).
    Commuting generators span a field F_{q^2} inside K; if K = F_{q^2},
    every generator lies in End_K(F_q^2) = K, so all commute.  Hence
    K = F_q exactly when two generators do not commute.

    No point is visited.  Each candidate list is tallied once per call,
    a whole class from its key (_line_tally).  Per class of x0, the tuples
    without a common line are a fold of the tallies' line sets by
    intersection, from x0's lines, less the commuting ones.  A non-scalar
    2x2 matrix with an eigenline is cyclic, so whatever commutes with it
    is a polynomial in it and keeps that line; so in a commuting tuple
    without a common line every generator is a scalar or irreducible,
    some y is irreducible, and all lie in the field F_q[y], whose units
    are the q^2 - 1 matrices alpha*y + beta*I, the scalars included.
    Conversely every non-scalar unit of F_q[y] is irreducible, so a tuple
    of units of F_q[y], not all scalar, has no common line and commutes.
    Hence the commuting tuples number, over the fields K = F_q[y] that
    hold a candidate, prod_i (scalars_i + members of K in list i), less
    prod_i scalars_i when x0 is scalar; when x0 is irreducible, only
    K = F_q[x0] counts, and when x0 has an eigenline there are none."""
    _check_supported(p, d, q)
    if d != 2:
        raise ValueError("absolutely simple orbit counting needs d = 2")
    F = field(q)
    orbit_size = (q * q - 1) * (q * q - q) // (q - 1)
    none, every = frozenset(), frozenset(range(q + 1))
    points = 0
    for weight, x0, tallies in _classes(p, d, q, lambda i, blocks: _line_tally(F, blocks)):
        lines0 = invariant_lines(q, x0)
        common = {lines0: 1}  # at most 2^|lines0| entries
        for by_lines, _ in tallies:
            step = Counter()
            for c, n in common.items():
                for lines, k in by_lines.items():
                    step[c & lines] += n * k
            common = step
        scalars = [by_lines[every] for by_lines, _ in tallies]
        if lines0 == every:
            fields, all_scalar = set().union(*(f for _, f in tallies)), prod(scalars)
        else:
            fields, all_scalar = (() if lines0 else (_field_key(F, x0),)), 0
        commuting = sum(
            prod(s + f[K] for s, (_, f) in zip(scalars, tallies)) - all_scalar for K in fields
        )
        n = weight * (common.get(none, 0) - commuting)
        if n % orbit_size:
            raise ArithmeticError(
                f"class of size {weight}: {n} absim points not divisible by {orbit_size}"
            )
        points += n
    if points % orbit_size:
        raise ArithmeticError(
            f"absim point count {points} not divisible by orbit size {orbit_size}"
        )
    return points // orbit_size


class _Multiplicities(dict):
    """One vertex generator's eigenvalue multiplicities by matrix, against
    the vertex's index {root of unity: position}, read on first use."""

    def __init__(self, F, index):
        super().__init__()
        self.F, self.index = F, index

    def __missing__(self, x):
        mult = [0] * len(self.index)
        for ev, count in _eigenvalues(self.F, x):
            k = self.index.get(ev)
            if k is None:
                raise ArithmeticError(
                    f"eigenvalue outside the expected roots of unity at q={self.F.q}"
                )
            mult[k] += count
        m = self[x] = tuple(mult)
        return m


def _vertex_multiplicities(g, q: int) -> list:
    """Per vertex of g, the graph _check_supported returned: None for a
    trivial vertex, else its generator's _Multiplicities.  Generator i is
    vertex i's; free(a) has one trivial vertex and a generators.  Each
    vertex's index of roots of unity is set up once here, not once per
    point."""
    F = field(q)
    out = []
    for v in g.vertices:
        if v.order == 1:
            out.append(None)
            continue
        n = v.order  # cyclic vertex groups only
        if v.simple_dims != (1,) * n:
            raise ValueError("eigenvalue readout implemented for cyclic vertex groups")
        omega = F.root_of_unity(n)
        roots = [1]
        for _ in range(n - 1):
            roots.append(F.mul[roots[-1]][omega])
        out.append(_Multiplicities(F, {r: k for k, r in enumerate(roots)}))
    return out


def dimvector_of_point(p: PresentationData, mats, q: int):
    """Dimension vector of one relation-satisfying tuple, each vertex
    generator's multiplicities read and the result validated by
    dimvector(); the per-point reference for dimvector_census.  d is read
    off the tuple and checked like the census's."""
    d = 2 if mats and not isinstance(mats[0], int) else 1
    g = _check_supported(p, d, q)
    mults = _vertex_multiplicities(g, q)
    return dimvector(g, [(d,) if m is None else m[mats[i]] for i, m in enumerate(mults)])


def _eigenvalues(F, x):
    """Eigenvalues with multiplicities for d <= 2 (diagonalizable inputs)."""
    if isinstance(x, int):
        return [(x, 1)]
    a, b, c, d = x
    if b == 0 and c == 0 and a == d:
        return [(a, 2)]
    roots = _char_roots(F, x)
    if len(roots) != 2:
        raise ArithmeticError("characteristic polynomial does not split simply")
    return [(roots[0], 1), (roots[1], 1)]


def _census_tally(reader, blocks):
    """One candidate list, counted for dimvector_census: its members by
    the reader's multiplicities, a conjugation invariant read at each
    block's first member (a solved block has one), or {None: count}
    without a reader."""
    if reader is None:
        return {None: _size(blocks)}
    out = Counter()
    for _, members in blocks:
        out[reader[members[0]]] += len(members)
    return out


def dimvector_census(p: PresentationData, d: int, q: int):
    """Per-dimension-vector point counts, refining count_hom.  The
    dimension vector of a point is a conjugation invariant, so each point
    at a class representative of generator 0 counts once per class member.
    No point is visited: each candidate list is tallied once per call by
    its generator's multiplicities (_census_tally, read once per block),
    each class's counts are the product of x0's multiplicities with those
    tallies, and dimvector() validates each distinct per-vertex tuple
    once.  Generator i is vertex i's; one beyond the vertices, or at a
    trivial vertex, has no multiplicities and is tallied by its count."""
    g = _check_supported(p, d, q)
    mults = _vertex_multiplicities(g, q)
    readers = mults + [None] * (p.generators - len(mults))

    counts = Counter()
    for weight, x0, tallies in _classes(p, d, q, lambda i, blocks: _census_tally(readers[i], blocks)):
        combos = {(None if readers[0] is None else readers[0][x0],): weight}
        for t in tallies:
            combos = {key + (m,): n * k for key, n in combos.items() for m, k in t.items()}
        counts.update(combos)
    return {
        dimvector(g, [(d,) if m is None else key[i] for i, m in enumerate(mults)]): n
        for key, n in counts.items()
    }
