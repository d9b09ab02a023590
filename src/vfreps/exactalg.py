"""Exact scalar arithmetic: univariate polynomials and rational functions
over arbitrary-precision rationals.

Everything downstream (graded series, counting tables) uses these scalars,
so there is no floating point anywhere.  A Poly is a primitive integer
coefficient list (low degree first) over a positive integer denominator.

A RatFunc is kept in a unique canonical form (numerator and denominator
coprime, denominator monic), so equal values compare equal whatever the
arithmetic path.  The denominator is stored factored: s^a times powers of
cyclotomic polynomials Phi_n, as an exponent tuple, times a monic residual
coprime to them.  Pipeline denominators come from general-linear counts
and their Adams substitutes, so their residual is 1; only the constructor
RatFunc(num, den) handles another (outside data), by the primitive-PRS
gcd.

The numerator is Kronecker-packed (von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 8): the integer polynomial N is stored as the one
int N(2^B), beside its rational denominator and a bound on its
coefficients' bit length.  The slot width B is a function of the value
alone, the least multiple of 64 that holds every coefficient with two
bits to spare, so equal values have equal packed ints.  A product of
numerators is one int product; rf_sum, the n-ary sum behind +, adds each
denominator group with int multiply-adds, brings it to the common
denominator with one int product by its cofactor s^a * prod Phi_n^e
(evaluated at 2^64 once per exponent tuple, _cofactor) and adds the
groups.  Each operation bounds its result's bits from its operands' and
repacks wider when the bound passes its width.  Slots are read back only
to learn the exact bits of a sum, to cancel, and for the Poly view num.

Cancellation stays a proof.  The power of s is the count of zero low
slots.  A nonzero N(2^B) mod Phi_n(2^B) proves that Phi_n does not divide
N.  On a zero remainder the quotient unpacks with signed slots to Q, and
bits(Q) + log2 ||Phi_n||_1 < B - 1 makes Q * Phi_n = N an identity of
polynomials: both sides have coefficients below 2^(B-1) and the same
value at 2^B, and such a base-2^B expansion is unique.  Otherwise the
exact list division decides.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from typing import Iterable, Optional

NEG_INF = float("-inf")
INF = float("inf")


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a root of its denominator."""


# ---------------------------------------------------------------------------
# integer coefficient-list helpers (low degree first, no trailing zeros)
# ---------------------------------------------------------------------------

def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _max_bits(ints) -> int:
    """Bit length of the largest coefficient, 0 for the zero polynomial."""
    return max(map(abs, ints)).bit_length() if ints else 0


def _horner(ints, x):
    """Value of the coefficient list ints (low degree first) at x."""
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _exact_div_lists(num, den):
    """Exact division of integer polynomials over Q: (coeffs, |c|) with
    num / den = coeffs / |c|, or None when inexact.  den = c * p, c its
    content signed like its leading coefficient: an exact num / p lies in
    Z[s] (Gauss's lemma), so a remainder at any step proves it inexact."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return [], 1
    qdeg = len(num) - len(den)
    if qdeg < 0:
        return None
    c = math.gcd(*den)
    if den[-1] < 0:
        c = -c
    den = [y // c for y in den]
    n = len(den) - 1
    lead = den[-1]
    rem = list(num)
    quo = [0] * (qdeg + 1)
    for k in range(qdeg, -1, -1):
        x = rem[k + n]
        if x:
            q, r = divmod(x, lead)
            if r:
                return None
            quo[k] = q
            for j in range(n):
                rem[k + j] -= q * den[j]
    if any(rem[:n]):
        return None
    if c < 0:
        return [-x for x in quo], -c
    return quo, c


def _prem(f, g):
    """Pseudo-remainder lc(g)^t * f mod g of integer polynomials, for some
    t: all the primitive PRS needs, as it strips content afterwards."""
    dg = len(g) - 1
    lg = g[-1]
    rem = _trim(list(f))
    while rem and len(rem) - 1 >= dg:
        k = len(rem) - 1 - dg
        c = rem[-1]
        rem = [x * lg for x in rem]
        for j, y in enumerate(g):
            rem[k + j] -= c * y
        rem = _trim(rem)
    return rem


def _gcd_lists(a, b):
    """Primitive gcd of integer polynomials via the primitive PRS, with a
    positive leading coefficient.  A pseudo-remainder by a longer divisor
    is the dividend, so the loop itself swaps a shorter a behind b, and a
    zero operand leaves the other."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    if a and a[-1] < 0:
        a = [-x for x in a]
    return a


def _primitive(c):
    c = _trim(list(c))
    g = math.gcd(*c)
    if g > 1:
        c = [x // g for x in c]
    return c


# ---------------------------------------------------------------------------
# Kronecker packing: an integer polynomial as its value at s = 2^B
# ---------------------------------------------------------------------------

_SLOT = 64


def _width(bits: int) -> int:
    """The least multiple of 64 holding `bits`-bit coefficients and 2 more."""
    return (bits + _SLOT + 1) // _SLOT * _SLOT


def _offset(n: int, B: int) -> int:
    """2^(B-1) in each of n slots of B bits."""
    return int.from_bytes((bytes(B // 8 - 1) + b"\x80") * n, "little")


def _pack(ints, B: int) -> int:
    """The value at 2^B of ints; OverflowError outside [-2^(B-1), 2^(B-1))."""
    h = 1 << (B - 1)
    raw = b"".join([(c + h).to_bytes(B // 8, "little") for c in ints])
    return int.from_bytes(raw, "little") - _offset(len(ints), B)


def _unpack(P: int, B: int) -> list:
    """The coefficients in [-2^(B-1), 2^(B-1)) of the polynomial valued P at
    2^B: slot by slot, or if long at width 64 from P + _offset's bytes."""
    n = (P.bit_length() + 1) // B + 1
    h = 1 << (B - 1)
    if B == _SLOT and n > 8 and sys.byteorder == "little":
        raw = (P + _offset(n, B)).to_bytes(8 * n, "little")
        return _trim([x - h for x in memoryview(raw).cast("Q").tolist()])
    out, mask = [], (1 << B) - 1
    while P:
        c = ((P + h) & mask) - h
        out.append(c)
        P = (P - c) >> B
    return out


def _repack(P: int, B: int, W: int) -> int:
    return P if B == W else _pack(_unpack(P, B), W)


def _canonical(ints, P: int = 0, B: int = 0) -> tuple:
    """(value at 2^width, width, bits) of the integer polynomial ints,
    bits exact; its value P at width B is reused when B is the width."""
    bits = _max_bits(ints)
    W = _width(bits)
    return (P if W == B else _pack(ints, W)), W, bits


def _fit(P: int, B: int) -> tuple:
    """_canonical for the polynomial P packs at B; at width 64, bits may be 1
    above exact, as P's two's complement words are its slots but a borrow."""
    if B == _SLOT and sys.byteorder == "little":
        w = memoryview(P.to_bytes(P.bit_length() // 8 + 8 & -8, "little", signed=True)).cast("q").tolist()
        bits = (max(max(w), -min(w)) + 1).bit_length()
        if bits <= _SLOT - 2:
            return P, _SLOT, bits
    return _canonical(_unpack(P, B), P, B)


def _content_gcd(P: int, B: int, d: int) -> int:
    """gcd(content, d) of the polynomial P packs at B: gcd(P, d), unless
    that is not 1, as the content divides P."""
    g = math.gcd(P, d)
    return g if g == 1 else math.gcd(g, *_unpack(P, B))


class Poly:
    """Univariate polynomial with exact rational coefficients: `ints` (low
    degree first, no trailing zeros) over `den` >= 1, coprime to them."""

    __slots__ = ("ints", "den", "_hash")

    def __init__(self, ints: Iterable[int], den: int = 1):
        c = _trim(list(ints))
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            c = [-x for x in c]
        if den != 1 and c:
            g = math.gcd(den, *c)
            if g > 1:
                c = [x // g for x in c]
                den //= g
        if not c:
            den = 1
        self.ints = tuple(c)
        self.den = den
        self._hash = hash((self.ints, self.den))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Iterable) -> "Poly":
        """Build from exact rationals (ints, Fractions), low degree first."""
        fr = [Fraction(c) for c in coeffs]
        d = 1
        for c in fr:
            d = d * c.denominator // math.gcd(d, c.denominator)
        return cls([int(c * d) for c in fr], d)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls.from_coeffs([c])

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        c = Fraction(c)
        return cls((0,) * k + (c.numerator,), c.denominator)

    # -- structure --------------------------------------------------------

    @property
    def degree(self):
        """Degree, with -inf for the zero polynomial."""
        return len(self.ints) - 1 if self.ints else NEG_INF

    def coefficients(self) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.ints)

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self.ints[k], self.den) if k < len(self.ints) else Fraction(0)

    def is_zero(self) -> bool:
        return not self.ints

    def is_one(self) -> bool:
        return self.ints == (1,) and self.den == 1

    def leading(self) -> Fraction:
        if not self.ints:
            return Fraction(0)
        return Fraction(self.ints[-1], self.den)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        g = math.gcd(self.den, other.den)
        da, db = other.den // g, self.den // g
        pairs = zip_longest(self.ints, other.ints, fillvalue=0)
        return Poly([x * da + y * db for x, y in pairs], self.den * da)

    def __neg__(self) -> "Poly":
        return Poly([-x for x in self.ints], self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        """One int product at a width that holds the product's coefficients:
        each is a sum of at most min(len) products of two coefficients."""
        a, b = self.ints, other.ints
        if not a or not b:
            return POLY_ZERO
        B = _width(_max_bits(a) + _max_bits(b) + (min(len(a), len(b)) - 1).bit_length())
        return Poly(_unpack(_pack(a, B) * _pack(b, B), B), self.den * other.den)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly([x * c.numerator for x in self.ints], self.den * c.denominator)

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        return math.prod([self] * e, start=POLY_ONE)

    def subs_power(self, a: int) -> "Poly":
        """Substitute s -> s^a (a >= 1)."""
        if a == 1 or not self.ints:
            return self
        out = [0] * ((len(self.ints) - 1) * a + 1)
        for i, x in enumerate(self.ints):
            out[i * a] = x
        return Poly(out, self.den)

    def eval(self, x) -> Fraction:
        """Value at x; at an int x, Horner runs on ints and divides by den once."""
        return Fraction(_horner(self.ints, x if isinstance(x, int) else Fraction(x)), self.den)

    def monic(self) -> "Poly":
        if not self.ints:
            return self
        return self.scale(Fraction(self.den, self.ints[-1]))

    # -- division & gcd ---------------------------------------------------

    def exact_div(self, other: "Poly") -> "Poly":
        """Exact quotient self/other; raises InexactDivision otherwise."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        res = _exact_div_lists(self.ints, other.ints)
        if res is None:
            raise InexactDivision(f"{self} is not divisible by {other}")
        coeffs, extra = res
        return Poly([x * other.den for x in coeffs], self.den * extra)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd over the rationals."""
        g = _gcd_lists(list(self.ints), list(other.ints))
        return Poly(g).monic() if g else Poly(())

    # -- rendering & comparison --------------------------------------------

    # an int renders as the equal Fraction does, so integral polynomials
    # skip building Fractions

    def text(self, var: str = "s") -> str:
        return _poly_text(self.ints if self.den == 1 else self.coefficients(), var)

    def latex(self, var: str = "s") -> str:
        return _poly_latex(self.ints if self.den == 1 else self.coefficients(), var)

    def json_coeffs(self) -> list:
        """Coefficients low degree first; ints stay ints, rationals "p/q"."""
        if self.den == 1:
            return list(self.ints)
        out = []
        for c in self.coefficients():
            out.append(int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}")
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ints == other.ints
            and self.den == other.den
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Poly({self.text()})"


class InexactDivision(ArithmeticError):
    pass


POLY_ZERO = Poly(())
POLY_ONE = Poly((1,))
S = Poly((0, 1))


def _fmt_frac(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _poly_join(coeffs, term, sep: str) -> str:
    """Descending powers with explicit signs, with sep on both sides of a
    sign between terms and no leading +; term(mag, k) renders a nonzero
    coefficient's magnitude mag times var^k."""
    out = ""
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            if out:
                out += sep + ("-" if c < 0 else "+") + sep
            elif c < 0:
                out = "-"
            out += term(abs(c), k)
    return out or "0"


def _poly_text(coeffs, var: str) -> str:
    """A variable longer than one character, such as x*y, is parenthesised
    in powers: (x*y)^2."""
    power = var if len(var) == 1 else f"({var})"

    def term(mag, k):
        if k == 0:
            return _fmt_frac(mag)
        x = var if k == 1 else f"{power}^{k}"
        return x if mag == 1 else f"{_fmt_frac(mag)}*{x}"

    return _poly_join(coeffs, term, "")


def _poly_latex(coeffs, var: str) -> str:
    power = var if len(var) == 1 else f"({var})"

    def term(mag, k):
        if mag.denominator == 1:
            head = str(mag)
        else:
            head = rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        if k == 0:
            return head
        x = var if k == 1 else f"{power}^{{{k}}}"
        return x if mag == 1 else f"{head} {x}"

    return _poly_join(coeffs, term, " ")


# ---------------------------------------------------------------------------
# cyclotomic factors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial Phi_n, built
    on first use from s^n - 1 = prod_{d | n} Phi_d."""
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            p = _exact_div_lists(p, _cyclotomic(d))[0]
    return tuple(p)


@lru_cache(maxsize=None)
def _max_order(k: int) -> int:
    """An upper bound on the n with phi(n) <= k: their distinct primes p
    have prod (p - 1) <= k, so n / phi(n) = prod p/(p - 1) is at most that
    product over the first primes with that property."""
    num = den = 1
    p = 2
    while den * (p - 1) <= k:
        num *= p
        den *= p - 1
        p += 1
        while factorize(p) != {p: 1}:
            p += 1
    return k * num // den


@lru_cache(maxsize=None)
def _adams_factors(n: int, beta: int) -> tuple:
    """Phi_n(s^beta) as ((m, e), ...), with n = 0 standing for s: s^beta,
    and prime by prime Phi_n(s^p) = Phi_np if p | n, else Phi_np * Phi_n."""
    if n == 0:
        return ((0, beta),)
    orders = [n]
    for p, k in factorize(beta).items():
        for _ in range(k):
            orders = [x for m in orders for x in ((m * p,) if m % p == 0 else (m * p, m))]
    return tuple((m, 1) for m in orders)


def _norm_bits(factors) -> int:
    """Bits a product by s^a * prod Phi_n^e adds: log2 of its 1-norm, bounded
    by ||fg||_1 <= ||f||_1 ||g||_1."""
    return sum(e * (sum(map(abs, _cyclotomic(n))) - 1).bit_length() for n, e in factors if n)


def _evaluate(factors, B: int) -> int:
    """The value at 2^B of s^a * prod Phi_n^e, factors = ((n, e), ...)."""
    v = 1
    for n, e in factors:
        v = v << (B * e) if n == 0 else v * _pack(_cyclotomic(n), B) ** e
    return v


@lru_cache(maxsize=None)
def _cofactor(factors: tuple) -> int:
    """_evaluate(factors, 64), one int per sorted exponent tuple, for every
    numerator brought over it and every division by Phi_n (((n, 1),))."""
    return _evaluate(factors, _SLOT)


def _expanded(factors) -> tuple:
    """s^a * prod Phi_n^e as a canonical (value, width, bits); its
    coefficients are at most ||.||_1 <= 2^deg, or 2^_norm_bits."""
    C = _cofactor(factors)
    if C.bit_length() // _SLOT < _SLOT - 2:
        return _fit(C, _SLOT)
    B = _width(_norm_bits(factors))
    return _fit(_evaluate(factors, B), B)


def _strip(t: tuple, n: int, e: int) -> tuple:
    """Divide the nonzero packed numerator t = (N(2^B), B, bits) by s
    (n = 0) or Phi_n as often as it divides, at most e times: (quotient, e
    minus the divisions made), each one proved as the module says."""
    P, B, bits = t
    if n == 0:
        k = min(((P & -P).bit_length() - 1) // B, e)
        return ((P >> (k * B), B, bits) if k else t), e - k
    while e:
        q, r = divmod(P, _cofactor(((n, 1),)) if B == _SLOT else _pack(_cyclotomic(n), B))
        if r:
            break
        quo = _unpack(q, B)
        if _max_bits(quo) + _norm_bits(((n, 1),)) >= B - 1:
            exact = _exact_div_lists(_unpack(P, B), _cyclotomic(n))
            if exact is None:
                break
            quo = exact[0]
        P, B, bits = _canonical(quo, q, B)
        e -= 1
    return (P, B, bits), e


def _may_divide(t: tuple, n: int) -> bool:
    """False when a nonzero remainder at width 64 proves that Phi_n does not
    divide the packed numerator t: _strip's usual outcome, at less cost."""
    return not n or t[1] != _SLOT or not t[0] % _cofactor(((n, 1),))


def _cancel(t: tuple, exps: dict) -> tuple:
    """_strip t by each n in exps as far as exps[n] allows, lowering exps
    to the exponents left."""
    for n in list(exps):
        t, e = _strip(t, n, exps[n]) if _may_divide(t, n) else (t, exps[n])
        if e:
            exps[n] = e
        else:
            del exps[n]
    return t


def _split_cyclotomic(ints) -> tuple:
    """ints = s^a * prod Phi_n^e * rest, rest coprime to s and each Phi_n, as
    ({n: e}, rest), n = 0 for s; only Phi_n with phi(n) <= deg(rest) tried."""
    t, exps, n = _canonical(ints), {}, 0
    while n <= _max_order(t[0].bit_length() // t[1]):
        cap = t[0].bit_length() // t[1] + 1
        t, e = _strip(t, n, cap)
        if e < cap:
            exps[n] = cap - e
        n += 1
    return exps, _unpack(t[0], t[1])


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Rational function num/den in canonical form: num and den coprime,
    den monic, so equal values have equal parts.

    `packed` is N(2^width) for the integer polynomial N, `bits` bounds its
    coefficients' bit length, width = _width(bits) = _width(exact bits),
    and num = N / `nden`, gcd(content(N), nden) = 1.  den = s^a * prod
    Phi_n^e * residual: `factors` is the sorted tuple ((n, e), ...), e > 0,
    n = 0 standing for s, and `residual` a monic Poly coprime to s and each
    Phi_n.  `num` and `den` expand them into Polys.  The canonical zero is
    0/1; values are immutable and hashable, so the series layer interns
    them.
    """

    __slots__ = ("packed", "width", "bits", "nden", "factors", "residual", "_hash")

    def __init__(self, num: Poly, den: Poly = POLY_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        exps, residual = {}, POLY_ONE
        if not num.is_zero() and not den.is_one():
            exps, rest = _split_cyclotomic(den.ints)
            num = num.scale(Fraction(den.den, rest[-1]))
            t = _cancel(_canonical(num.ints), exps)
            residual = Poly(rest, rest[-1])
            num = Poly(_unpack(t[0], t[1]), num.den)
            if not residual.is_one():
                g = num.gcd(residual)
                num, residual = num.exact_div(g), residual.exact_div(g)
        self._set(*_canonical(num.ints), num.den, tuple(sorted(exps.items())), residual)

    def _set(self, P: int, B: int, bits: int, nden: int, factors: tuple, residual: Poly) -> "RatFunc":
        self.packed, self.width, self.bits, self.nden = P, B, bits, nden
        self.factors = factors
        # a residual 1 is always POLY_ONE itself, tested for by identity
        self.residual = POLY_ONE if residual.ints == (1,) else residual
        self._hash = hash((P, B, nden, factors, self.residual))
        return self

    @classmethod
    def _make(cls, P: int, B: int, bits: int, nden: int, factors: tuple, residual=POLY_ONE) -> "RatFunc":
        """A value already in canonical form."""
        return object.__new__(cls)._set(P, B, bits, nden, factors, residual)

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls._make(*_canonical(p.ints), p.den, ())

    @classmethod
    def s_power(cls, k: int) -> "RatFunc":
        """s^k for any integer k; negative k gives denominator s^(-k)."""
        if k >= 0:
            return cls._make(1 << (_SLOT * k), _SLOT, 1, 1, ())
        return cls._make(1, _SLOT, 1, 1, ((0, -k),))

    @property
    def num(self) -> Poly:
        return Poly(_unpack(self.packed, self.width), self.nden)

    @property
    def den(self) -> Poly:
        """The monic denominator s^a * prod Phi_n^e * residual, expanded."""
        P, B, _ = _expanded(self.factors)
        d = Poly(_unpack(P, B))
        return d if self.residual is POLY_ONE else d * self.residual

    def is_zero(self) -> bool:
        return not self.packed

    def is_one(self) -> bool:
        return self.packed == 1 and self.nden == 1 and not self.factors and self.residual.is_one()

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return rf_sum(((self, 1), (other, 1)))

    def __neg__(self) -> "RatFunc":
        return RatFunc._make(-self.packed, self.width, self.bits, self.nden, self.factors, self.residual)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        """One int product of the numerators, stripped by _merge_factors; a
        coefficient is a sum of at most deg + 1 products of two."""
        if not self.packed or not other.packed:
            return RF_ZERO
        if self.residual is not POLY_ONE or other.residual is not POLY_ONE:
            return RatFunc(self.num * other.num, self.den * other.den)
        (P1, B1, b1), (P2, B2, b2), factors = _merge_factors(self, other)
        d1, d2 = self.nden, other.nden
        g = 1 if d1 == d2 == 1 else _content_gcd(P1, B1, d2) * _content_gcd(P2, B2, d1)
        bits = b1 + b2 + min(P1.bit_length() // B1, P2.bit_length() // B2).bit_length()
        if bits <= _SLOT - 2:  # then both operands have width 64, and so has the product
            return RatFunc._make(P1 * P2 // g, _SLOT, bits, d1 * d2 // g, factors)
        B = _width(bits)
        return RatFunc._make(*_fit(_repack(P1, B1, B) * _repack(P2, B2, B) // g, B), d1 * d2 // g, factors)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self * RatFunc(other.den, other.num)

    def scale(self, c) -> "RatFunc":
        c = Fraction(c)
        if c == 0:
            return RF_ZERO
        cn, cd = c.numerator, c.denominator
        g = math.gcd(cn, self.nden) * _content_gcd(self.packed, self.width, cd)
        bits = self.bits + (abs(cn) - 1).bit_length()
        B = _width(bits)
        P = _repack(self.packed, self.width, B) * cn // g
        t = (P, B, bits) if B == _SLOT else _fit(P, B)
        return RatFunc._make(*t, self.nden * cd // g, self.factors, self.residual)

    def __pow__(self, e: int) -> "RatFunc":
        if e < 0:
            return RatFunc(self.den, self.num) ** (-e)
        return math.prod([self] * e, start=RF_ONE)

    def adams(self, a: int) -> "RatFunc":
        """Adams substitution s -> s^a in numerator and denominator."""
        if a < 1:
            raise ValueError("Adams substitution needs a >= 1")
        if a == 1:
            return self
        exps = {}
        for n, e in self.factors:
            for m, k in _adams_factors(n, a):
                exps[m] = exps.get(m, 0) + e * k
        return RatFunc._make(
            _pack(self.num.subs_power(a).ints, self.width), self.width, self.bits, self.nden,
            tuple(sorted(exps.items())), self.residual.subs_power(a),
        )

    def eval(self, x) -> Fraction:
        """Value at x, with the denominator evaluated factor by factor:
        x^a * prod Phi_n(x)^e * residual(x), never expanded."""
        y = x if isinstance(x, int) else Fraction(x)
        d = math.prod((_horner(_cyclotomic(n), y) if n else y) ** e for n, e in self.factors)
        if not self.residual.is_one():
            d *= self.residual.eval(y)
        if d == 0:
            raise PoleError(f"pole at {x}")
        return Fraction(_horner(_unpack(self.packed, self.width), y), self.nden) / d

    def as_integer_poly(self) -> Optional[Poly]:
        """The underlying polynomial when the value lies in Z[s], else None."""
        if self.factors or not self.residual.is_one() or self.nden != 1:
            return None
        return self.num

    def text(self, var: str = "s") -> str:
        if not self.factors and self.residual.is_one():
            return self.num.text(var)
        return f"({self.num.text(var)})/({self.den.text(var)})"

    def __eq__(self, other):
        return isinstance(other, RatFunc) and (
            self.packed, self.width, self.nden, self.factors, self.residual
        ) == (other.packed, other.width, other.nden, other.factors, other.residual)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RatFunc({self.text()})"


RF_ZERO = RatFunc._make(0, _SLOT, 0, 1, ())
RF_ONE = RatFunc._make(1, _SLOT, 1, 1, ())


def _merge_factors(a: RatFunc, b: RatFunc) -> tuple:
    """(t1, t2, factors) for a * b: t1, t2 their packed numerators after one
    pass over the sorted exponent tuples strips a factor that only one has
    from the other's numerator, the only one it can divide."""
    t1, f1, t2, f2 = (a.packed, a.width, a.bits), a.factors, (b.packed, b.width, b.bits), b.factors
    out = []
    i = j = 0
    l1, l2 = len(f1), len(f2)
    while i < l1 or j < l2:
        m = f1[i][0] if i < l1 else INF
        n = f2[j][0] if j < l2 else INF
        if m < n:
            t2, e = _strip(t2, m, f1[i][1]) if _may_divide(t2, m) else (t2, f1[i][1])
            i += 1
        elif n < m:
            t1, e = _strip(t1, n, f2[j][1]) if _may_divide(t1, n) else (t1, f2[j][1])
            m = n
            j += 1
        else:
            e = f1[i][1] + f2[j][1]
            i += 1
            j += 1
        if e:
            out.append((m, e))
    return t1, t2, tuple(out)


def _group_sum(groups: dict, common: tuple, lcm: int, B: int) -> tuple:
    """(total, bits) of rf_sum's groups at width B, or (None, bits) once a
    coefficient bound passes B - 2: m terms add log2 m to their largest
    bits, a cofactor C log2 ||C||_1 <= deg C - a (Phi_n's roots have modulus
    1) or else _norm_bits to the group's exact bits, and the groups' count
    its log2."""
    limit = B - 2
    total = top = 0
    for factors, members in groups.items():
        acc = bound = 0
        for v, k in members:
            c = k * (lcm // v.nden)
            acc += c * (v.packed if v.width == B else _repack(v.packed, v.width, B))
            b = v.bits + (abs(c) - 1).bit_length()
            if b > bound:
                bound = b
        if not acc:
            continue
        bound += (len(members) - 1).bit_length()
        if bound > limit:
            return None, bound
        if factors != common:
            own = dict(factors)
            up = tuple([(n, d) for n, e in common if (d := e - own.get(n, 0))])
            C = _cofactor(up) if B == _SLOT else _evaluate(up, B)
            bound += C.bit_length() // B - (up[0][1] if up[0][0] == 0 else 0)
            if bound > limit and (bound := _max_bits(_unpack(acc, B)) + _norm_bits(up)) > limit:
                return None, bound
            acc *= C
        total += acc
        if bound > top:
            top = bound
    top += (len(groups) - 1).bit_length()
    return (total, top) if top <= limit else (None, top)


def rf_sum(terms) -> RatFunc:
    """The canonical sum of value * k over (RatFunc, int k) pairs: grouped by
    exponent tuple, each group times k * (L / nden), L the nden's lcm, over
    the exponent-wise maximum (_group_sum), then cancelled once.  A residual
    other than 1 hands the terms to the constructor, over the running lcm
    of their expanded denominators."""
    groups = {}
    lcm = 1
    B = _SLOT
    terms = iter(terms)
    for v, k in terms:
        if k and v.packed:
            if v.residual is not POLY_ONE:
                num, den = POLY_ZERO, POLY_ONE
                for v, k in chain(chain.from_iterable(groups.values()), ((v, k),), terms):
                    d = v.den
                    common = den.gcd(d)
                    up = d.exact_div(common)
                    num = num * up + v.num.scale(k) * den.exact_div(common)
                    den = den * up
                return RatFunc(num, den)
            if v.nden != 1:
                lcm = math.lcm(lcm, v.nden)
            if v.width > B:
                B = v.width
            members = groups.get(v.factors)
            if members is None:
                groups[v.factors] = [(v, k)]
            else:
                members.append((v, k))
    exps = {}
    for factors in groups:
        for n, e in factors:
            if e > exps.get(n, 0):
                exps[n] = e
    common = tuple(sorted(exps.items()))
    total, bound = _group_sum(groups, common, lcm, B)
    while total is None:
        B = _width(bound)
        total, bound = _group_sum(groups, common, lcm, B)
    if not total:
        return RF_ZERO
    if lcm != 1:
        g = _content_gcd(total, B, lcm)
        total, lcm = total // g, lcm // g
    P, B, bits = _cancel(_fit(total, B), exps)
    return RatFunc._make(P, B, bits, lcm, tuple(sorted(exps.items())))


# ---------------------------------------------------------------------------
# point counts of general linear groups
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gl_count(d: int) -> Poly:
    """Counting polynomial of the invertible d x d matrices:
    prod_{k=0}^{d-1} (s^d - s^k), with the empty product 1 for d = 0."""
    if d < 0:
        raise ValueError("negative dimension")
    out = POLY_ONE
    for k in range(d):
        out = out * (Poly.monomial(d) - Poly.monomial(k))
    return out


def gl_product(exps: dict, s_exponent: int = 0) -> RatFunc:
    """s^s_exponent * prod_k gl_count(k)^e over exps = {k: e}, any signs,
    by exponent arithmetic on gl_count(k) = s^(k(k-1)/2) * prod_{i<=k}
    (s^i - 1) = s^(k(k-1)/2) * prod_{n<=k} Phi_n^(k//n)."""
    net = {0: s_exponent}
    for k, e in exps.items():
        net[0] += e * (k * (k - 1) // 2)
        for n in range(1, k + 1):
            net[n] = net.get(n, 0) + e * (k // n)
    num = _expanded(tuple(sorted((n, e) for n, e in net.items() if e > 0)))
    return RatFunc._make(*num, 1, tuple(sorted((n, -e) for n, e in net.items() if e < 0)))


# ---------------------------------------------------------------------------
# elementary number theory
# ---------------------------------------------------------------------------

def factorize(n: int) -> dict:
    """Prime factorization by trial division (desk-scale inputs)."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(n: int) -> int:
    """Classical Moebius function."""
    if n < 1:
        raise ValueError("mobius expects n >= 1")
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def prime_power(q: int) -> tuple:
    """(p, e) with q = p^e and p prime; ValueError when q is not a prime
    power."""
    f = factorize(q) if q >= 2 else {}
    if len(f) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p, e), = f.items()
    return p, e
