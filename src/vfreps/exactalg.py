"""Exact scalar arithmetic: univariate polynomials and rational functions
over arbitrary-precision rationals.

Everything downstream (graded series, counting tables) uses these scalars,
so there is no floating point anywhere.  A polynomial is stored as a
primitive integer coefficient vector together with a positive integer
denominator, so its arithmetic runs on ints while the public face stays
"list of exact rationals, low degree first".  Exact division works on ints
alone: the divisor is split into content times a primitive part, and by
Gauss's lemma an exact quotient by a primitive integer polynomial is again
an integer polynomial, so the long division never leaves Z and a remainder
at any step proves it inexact.

Rational functions are kept in a unique canonical form (numerator and
denominator coprime, denominator monic), so equal values constructed along
different arithmetic paths compare equal coefficient-by-coefficient.  The
denominator is stored factored: s^a times powers of cyclotomic polynomials
Phi_n, as an exponent tuple, times a monic residual coprime to all of
them.  Every denominator of the counting pipeline is built from
general-linear counts and their Adams substitutes, so its residual is 1;
products and sums are then exponent arithmetic plus exact division of the
numerator by the Phi_n present.  A residual other than 1 comes only from
outside data, and only the constructor RatFunc(num, den) handles one, by
the primitive-PRS gcd: a product or sum that meets one hands it the
expanded numerator and denominator.

Every sum goes through one n-ary sum, rf_sum, over (value, int
multiplicity) pairs, on plain int lists: the numerators that share a
denominator are added over the lcm of their Poly.den, each group is
multiplied once by its cofactor up to the common denominator, the groups
are added into one list, and only that total becomes a Poly, cancelled
once.  a + b is rf_sum of two terms.

The cofactor s^a * prod Phi_n^e of a sorted exponent tuple is expanded
once and cached by that tuple (_cofactor), like Phi_n itself, so no
numerator is multiplied by one Phi_n at a time; RatFunc.den and
gl_product read the same table.

Most trial divisions of a numerator f by a Phi_n fail, so _divides
rejects them cheaply and exactly before any division runs.  A degree
below phi(n) rules Phi_n out.  Otherwise f is evaluated, as one dot
product, at omega, an element of multiplicative order n modulo the least
prime p = 1 (mod n) above 2^20 (the modular method of von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 5-6).  Since p does not divide n,
omega is a root of Phi_n mod p; Phi_n is monic, so if it divides f then
f = Phi_n * g with g in Z[s] and f(omega) = 0 mod p.  A nonzero value is
therefore a proof that Phi_n does not divide f, and only a zero value,
which may be a coincidence mod p, runs the exact division.  Every
cancellation, in products, in rf_sum and in RatFunc(num, den), stays
exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import mul
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


def _int_content(c) -> int:
    g = 0
    for x in c:
        g = math.gcd(g, x)
        if g == 1:
            return 1
    return g


def _horner(ints, x):
    """Value of the coefficient list ints (low degree first) at x."""
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _mul_lists(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _exact_div_lists(num, den):
    """Exact division of integer polynomials over Q; None when inexact.

    The divisor is split as c * p with c its content, signed like its
    leading coefficient, and p primitive.  By Gauss's lemma an exact
    quotient num / p lies in Z[s], so the long division runs on ints, and a
    step where the leading coefficient of p leaves a remainder proves the
    division inexact.  The result is (coeffs, |c|) with num / den =
    coeffs / |c|.
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return [], 1
    qdeg = len(num) - len(den)
    if qdeg < 0:
        return None
    c = _int_content(den)
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
    """Pseudo-remainder of integer polynomials (low-first lists).

    Result equals lc(g)^t * f mod g for some t, which is all the primitive
    PRS needs (content is stripped afterwards anyway).
    """
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
    g = _int_content(c)
    if g > 1:
        c = [x // g for x in c]
    return c


class Poly:
    """Univariate polynomial with exact rational coefficients.

    Internal form: integer coefficients `ints` (low degree first, no
    trailing zeros) scaled by 1/`den` with den >= 1 and
    gcd(content(ints), den) = 1.
    """

    __slots__ = ("ints", "den", "_hash")

    def __init__(self, ints: Iterable[int], den: int = 1):
        c = _trim(list(ints))
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            c = [-x for x in c]
        if den != 1 and c:
            g = math.gcd(_int_content(c), den)
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

    def is_integral(self) -> bool:
        return self.den == 1

    def leading(self) -> Fraction:
        if not self.ints:
            return Fraction(0)
        return Fraction(self.ints[-1], self.den)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        g = math.gcd(self.den, other.den)
        da, db = other.den // g, self.den // g
        acc = [x * da for x in self.ints]
        _add_into(acc, other.ints, db)
        return Poly(acc, self.den * da)

    def __neg__(self) -> "Poly":
        return Poly([-x for x in self.ints], self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(_mul_lists(self.ints, other.ints), self.den * other.den)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly([x * c.numerator for x in self.ints], self.den * c.denominator)

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly((1,))
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

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
def _totient(n: int) -> int:
    """Euler's phi(n), the degree of Phi_n."""
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


@lru_cache(maxsize=None)
def _max_order(k: int) -> int:
    """An upper bound on the n with phi(n) <= k.  The t distinct primes p of
    such an n have prod (p - 1) <= phi(n) <= k, so t is at most the number
    r of leading primes with that property, and n / phi(n) = prod p/(p - 1)
    is at most the same product over the first r primes."""
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


def _split_cyclotomic(ints) -> tuple:
    """Write the integer polynomial ints as s^a * prod Phi_n^e * rest with
    rest coprime to s and to every Phi_n; returns ({n: e}, rest) with n = 0
    for s.  Only the Phi_n with phi(n) <= deg(rest) are tried."""
    exps = {}
    n = 0
    while n <= _max_order(len(ints) - 1):
        cap = len(ints)
        ints, e = _strip(ints, n, cap)
        if e < cap:
            exps[n] = cap - e
        n += 1
    return exps, ints


# n -> (p, [omega^i mod p for i = 0, 1, ...]): p the least prime = 1 (mod n)
# above 2^20 and omega of multiplicative order n mod p; the list is
# n-periodic and grown to the longest polynomial met so far
_ROOT_POWERS = {}


def _root_powers(n: int, length: int) -> tuple:
    """(p, powers) with at least length powers of a primitive n-th root of
    unity mod p."""
    entry = _ROOT_POWERS.get(n)
    if entry is None:
        p = -(-(1 << 20) // n) * n + 1
        while factorize(p) != {p: 1}:
            p += n
        # g^((p-1)/n) has order dividing n, and exactly n when no
        # (n/l)-th power is 1 for a prime l | n
        g = 2
        while True:
            w = pow(g, (p - 1) // n, p)
            if all(pow(w, n // l, p) != 1 for l in factorize(n)):
                break
            g += 1
        entry = _ROOT_POWERS[n] = (p, [pow(w, i, p) for i in range(n)])
    p, powers = entry
    if len(powers) < length:
        powers.extend(powers[:n] * -(-(length - len(powers)) // n))
    return p, powers


def _divides(n: int, ints) -> bool:
    """Whether Phi_n divides the nonzero integer polynomial ints.

    A degree below phi(n) rules it out.  Otherwise the value of ints at a
    primitive n-th root of unity omega mod p is one dot product; omega is
    a root of Phi_n mod p, so if Phi_n (monic) divides ints, with an
    integer quotient, that value is 0.  A nonzero value therefore proves
    that Phi_n does not divide ints, and only a zero runs the exact test on
    ints mod s^n - 1, which Phi_n divides and which has degree below n."""
    if len(ints) <= _totient(n):
        return False
    p, powers = _root_powers(n, len(ints))
    if sum(map(mul, ints, powers)) % p:
        return False
    r = _trim([sum(ints[i::n]) for i in range(n)])
    return not r or _exact_div_lists(r, _cyclotomic(n)) is not None


@lru_cache(maxsize=None)
def _cofactor(factors: tuple) -> tuple:
    """Integer coefficients of s^a * prod Phi_n^e, expanded, for the sorted
    exponent tuple factors = ((n, e), ...) with n = 0 standing for s.  Like
    _cyclotomic a pure function of its key, so one expansion serves every
    numerator brought over the same factors."""
    ints = [1]
    a = 0
    for n, e in factors:
        if n == 0:
            a = e
        else:
            for _ in range(e):
                ints = _mul_lists(ints, _cyclotomic(n))
    return (0,) * a + tuple(ints)


def _strip(ints, n: int, e: int) -> tuple:
    """Divide the nonzero integer polynomial ints by s (n = 0) or by Phi_n
    as often as it divides, at most e times; returns (quotient, e minus the
    number of divisions)."""
    if n == 0:
        k = 0
        while k < e and not ints[k]:
            k += 1
        return (ints[k:], e - k) if k else (ints, e)
    while e and _divides(n, ints):
        ints = _exact_div_lists(ints, _cyclotomic(n))[0]
        e -= 1
    return ints, e


def _cancel(num: Poly, exps: dict) -> Poly:
    """Divide the nonzero num by s (n = 0) and by Phi_n, for each n in
    exps, as often as it divides and exps[n] allows, lowering exps to
    match."""
    ints = num.ints
    for n in list(exps):
        ints, e = _strip(ints, n, exps[n])
        if e:
            exps[n] = e
        else:
            del exps[n]
    return num if ints is num.ints else Poly(ints, num.den)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Rational function num/den in canonical form: num and den coprime,
    den monic, so equal values have equal (num, den).

    den is kept factored as s^a * prod Phi_n^e * residual.  `factors` is
    the sorted exponent tuple ((n, e), ...) with e > 0 and n = 0 standing
    for s; `residual` is a monic Poly coprime to s and to every Phi_n, and
    `den` expands the product on demand.  Every pipeline value has residual
    1: products add exponents, sums (rf_sum, also behind +) take their
    maximum, Adams substitution maps Phi_n(s^beta) to cyclotomic factors,
    and cancellation is exact division of the numerator by the Phi_n
    present.  Only RatFunc(num, den) factors a polynomial, and only it
    handles a residual other than 1 (a denominator from outside data, such
    as s - 2), by the primitive-PRS gcd; a product or sum with such an
    operand passes it the expanded numerator and denominator.

    The canonical zero is 0/1.  Values are immutable and hashable, so they
    can be interned and memoized by the series layer.
    """

    __slots__ = ("num", "factors", "residual", "_hash")

    def __init__(self, num: Poly, den: Poly = POLY_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        exps, residual = {}, POLY_ONE
        if num.is_zero():
            num = POLY_ZERO
        elif not den.is_one():
            exps, rest = _split_cyclotomic(den.ints)
            num = _cancel(num.scale(Fraction(den.den, rest[-1])), exps)
            residual = Poly(rest, rest[-1])
            if not residual.is_one():
                g = num.gcd(residual)
                num, residual = num.exact_div(g), residual.exact_div(g)
        self._set(num, tuple(sorted(exps.items())), residual)

    def _set(self, num: Poly, factors: tuple, residual: Poly) -> "RatFunc":
        self.num = num
        self.factors = factors
        # a residual 1 is always POLY_ONE itself, so products and sums can
        # test for it by identity
        self.residual = POLY_ONE if residual.ints == (1,) else residual
        self._hash = hash((num, factors, self.residual))
        return self

    @classmethod
    def _make(cls, num: Poly, factors: tuple, residual: Poly = POLY_ONE) -> "RatFunc":
        """A value already in canonical form."""
        return object.__new__(cls)._set(num, factors, residual)

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls._make(p, ())

    @classmethod
    def s_power(cls, k: int) -> "RatFunc":
        """s^k for any integer k; negative k gives denominator s^(-k)."""
        if k >= 0:
            return cls._make(Poly.monomial(k), ())
        return cls._make(POLY_ONE, ((0, -k),))

    @property
    def den(self) -> Poly:
        """The monic denominator s^a * prod Phi_n^e * residual, expanded."""
        r = self.residual
        return Poly(_mul_lists(_cofactor(self.factors), r.ints), r.den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and not self.factors and self.residual.is_one()

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return rf_sum(((self, 1), (other, 1)))

    def __neg__(self) -> "RatFunc":
        return RatFunc._make(-self.num, self.factors, self.residual)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        n1, n2 = self.num, other.num
        if not n1.ints or not n2.ints:
            return RF_ZERO
        if self.residual is not POLY_ONE or other.residual is not POLY_ONE:
            return RatFunc(n1 * n2, self.den * other.den)
        ints1, ints2, factors = _merge_factors(n1.ints, self.factors, n2.ints, other.factors)
        return RatFunc._make(Poly(_mul_lists(ints1, ints2), n1.den * n2.den), factors)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self * RatFunc(other.den, other.num)

    def scale(self, c) -> "RatFunc":
        c = Fraction(c)
        if c == 0:
            return RF_ZERO
        return RatFunc._make(self.num.scale(c), self.factors, self.residual)

    def __pow__(self, e: int) -> "RatFunc":
        if e < 0:
            return RatFunc(self.den, self.num) ** (-e)
        out = RF_ONE
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

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
            self.num.subs_power(a), tuple(sorted(exps.items())), self.residual.subs_power(a)
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
        return self.num.eval(y) / d

    def as_integer_poly(self) -> Optional[Poly]:
        """The underlying polynomial when the value lies in Z[s], else None."""
        if self.factors or not self.residual.is_one() or not self.num.is_integral():
            return None
        return self.num

    def text(self, var: str = "s") -> str:
        if not self.factors and self.residual.is_one():
            return self.num.text(var)
        return f"({self.num.text(var)})/({self.den.text(var)})"

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.factors == other.factors
            and self.residual == other.residual
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RatFunc({self.text()})"


RF_ZERO = RatFunc._make(POLY_ZERO, ())
RF_ONE = RatFunc._make(POLY_ONE, ())


def _merge_factors(ints1, f1: tuple, ints2, f2: tuple) -> tuple:
    """The cyclotomic part of (ints1 / f1) * (ints2 / f2) for canonical
    values: (ints1', ints2', factors).  One pass merges the sorted exponent
    tuples; a factor that only one operand has is stripped from the other's
    numerator, the only one it can divide, since each numerator is coprime
    to its own denominator."""
    out = []
    i = j = 0
    while i < len(f1) or j < len(f2):
        m = f1[i][0] if i < len(f1) else INF
        n = f2[j][0] if j < len(f2) else INF
        if m < n:
            ints2, e = _strip(ints2, m, f1[i][1])
            i += 1
        elif n < m:
            ints1, e = _strip(ints1, n, f2[j][1])
            m = n
            j += 1
        else:
            e = f1[i][1] + f2[j][1]
            i += 1
            j += 1
        if e:
            out.append((m, e))
    return ints1, ints2, tuple(out)


def _add_into(acc: list, ints, c: int) -> None:
    """acc += c * ints in place, acc growing as needed."""
    if len(ints) > len(acc):
        acc.extend([0] * (len(ints) - len(acc)))
    for i, x in enumerate(ints):
        acc[i] += c * x


def rf_sum(terms) -> RatFunc:
    """The canonical sum of value * k over (RatFunc, int k) pairs.

    One pass over the terms groups them by their exponent tuple alone, so
    no Poly is hashed per term, and finds the lcm L of the numerators'
    Poly.den.  The common denominator is the exponent-wise maximum of the
    s and Phi_n exponents.  Each group adds k * (L / den) * ints into a
    plain int list (a lone member is scaled in one pass), multiplies it
    once by its cyclotomic cofactor, and adds it into the total, which
    starts as the first group's list; the total becomes one Poly,
    cancelled once against every factor.  A value whose residual is not 1
    (never in the pipeline) hands the terms read so far and the rest over
    to the constructor, brought over the running lcm of their expanded
    denominators.
    """
    groups = {}
    lcm = 1
    terms = iter(terms)
    for v, k in terms:
        num = v.num
        if k and num.ints:
            if v.residual is not POLY_ONE:
                num, den = POLY_ZERO, POLY_ONE
                for v, k in chain(chain.from_iterable(groups.values()), ((v, k),), terms):
                    d = v.den
                    common = den.gcd(d)
                    up = d.exact_div(common)
                    num = num * up + v.num.scale(k) * den.exact_div(common)
                    den = den * up
                return RatFunc(num, den)
            if num.den != 1:
                lcm = math.lcm(lcm, num.den)
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
    total = None
    for factors, members in groups.items():
        if len(members) == 1:
            v, k = members[0]
            num = v.num
            c = k * (lcm // num.den)
            acc = [c * x for x in num.ints]
        else:
            acc = []
            for v, k in members:
                num = v.num
                _add_into(acc, num.ints, k * (lcm // num.den))
            if not _trim(acc):
                continue
        if factors != common:
            own = dict(factors)
            up = tuple((n, e - own.get(n, 0)) for n, e in common if e > own.get(n, 0))
            acc = _mul_lists(_cofactor(up), acc)
        if total is None:
            total = acc
        else:
            _add_into(total, acc, 1)
    if total is None or not _trim(total):
        return RF_ZERO
    total = _cancel(Poly(total, lcm), exps)
    return RatFunc._make(total, tuple(sorted(exps.items())))


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
    num = Poly(_cofactor(tuple(sorted((n, e) for n, e in net.items() if e > 0))))
    return RatFunc._make(num, tuple(sorted((n, -e) for n, e in net.items() if e < 0)))


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


class QPower:
    """A prime power q = p^e with its exact integer value."""

    __slots__ = ("p", "e", "value")

    def __init__(self, p: int, e: int):
        if e < 1:
            raise ValueError("exponent must be >= 1")
        if len(factorize(p)) != 1 or factorize(p)[p] != 1:
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.e = e
        self.value = p ** e

    @classmethod
    def from_value(cls, q: int) -> "QPower":
        if q < 2:
            raise ValueError(f"{q} is not a prime power")
        f = factorize(q)
        if len(f) != 1:
            raise ValueError(f"{q} is not a prime power")
        (p, e), = f.items()
        return cls(p, e)

    def __repr__(self):
        return f"QPower({self.p}^{self.e})"


def is_prime_power(q: int) -> bool:
    try:
        QPower.from_value(q)
        return True
    except ValueError:
        return False
