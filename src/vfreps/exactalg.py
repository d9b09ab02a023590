"""Exact scalar arithmetic: univariate polynomials and rational functions
over arbitrary-precision rationals.

Everything downstream (graded series, counting tables) uses these scalars,
so there is no floating point anywhere.  A polynomial is stored as a
primitive integer coefficient vector together with a positive integer
denominator; this keeps gcd computations in fast integer arithmetic while
the public face stays "list of exact rationals, low degree first".  Exact
division works on ints alone: the divisor is split into content times a
primitive part, and by Gauss's lemma an exact quotient by a primitive
integer polynomial is again an integer polynomial, so the long division
never leaves Z and a remainder at any step proves it inexact.

Rational functions are kept in a unique canonical form (numerator and
denominator coprime, denominator monic), so equal values constructed along
different arithmetic paths compare equal coefficient-by-coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

NEG_INF = float("-inf")


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


def _add_lists(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _trim(out)


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
    """Primitive gcd of integer polynomials via the primitive PRS."""
    if not a:
        return _primitive(b)
    if not b:
        return _primitive(a)
    a = _primitive(a)
    b = _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, _primitive(r)
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
        return cls.from_coeffs([0] * k + [Fraction(c)])

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

    def is_monic(self) -> bool:
        return bool(self.ints) and self.ints[-1] == self.den

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if self.den == other.den:
            return Poly(_add_lists(self.ints, other.ints), self.den)
        g = math.gcd(self.den, other.den)
        da, db = other.den // g, self.den // g
        return Poly(
            _add_lists([x * da for x in self.ints], [x * db for x in other.ints]),
            self.den * da,
        )

    def __neg__(self) -> "Poly":
        return Poly([-x for x in self.ints], self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(_mul_lists(self.ints, other.ints), self.den * other.den)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly([x * c.numerator for x in self.ints], self.den * c.denominator)

    def shift_up(self, k: int) -> "Poly":
        """Multiply by s^k (k >= 0)."""
        if not self.ints:
            return self
        return Poly((0,) * k + self.ints, self.den)

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
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.ints):
            acc = acc * x + c
        return acc / self.den

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

    def text(self, var: str = "s") -> str:
        return _poly_text(self.coefficients(), var)

    def latex(self, var: str = "s") -> str:
        return _poly_latex(self.coefficients(), var)

    def json_coeffs(self) -> list:
        """Coefficients low degree first; ints stay ints, rationals "p/q"."""
        out = []
        for c in self.coefficients():
            out.append(int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}")
        return out

    @classmethod
    def from_json_coeffs(cls, coeffs) -> "Poly":
        return cls.from_coeffs([Fraction(c) for c in coeffs])

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


def _poly_text(coeffs, var: str) -> str:
    """Descending powers with explicit signs; a variable longer than one
    character, such as x*y, is parenthesised in powers: (x*y)^2."""
    power = var if len(var) == 1 else f"({var})"
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if k == 0:
            body = _fmt_frac(mag)
        else:
            head = "" if mag == 1 else _fmt_frac(mag) + "*"
            body = head + (var if k == 1 else f"{power}^{k}")
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += sign + body
    return out


def _poly_latex(coeffs, var: str) -> str:
    power = var if len(var) == 1 else f"({var})"
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if mag.denominator == 1:
            head = "" if (mag == 1 and k > 0) else str(mag)
        else:
            head = rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        if k == 0:
            body = head if head else "1"
        elif k == 1:
            body = (head + " " if head else "") + var
        else:
            body = (head + " " if head else "") + f"{power}^{{{k}}}"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Rational function in canonical form: gcd(num, den) = 1, den monic.

    The canonical zero is 0/1.  Values are immutable and hashable, so they
    can be interned and memoized by the series layer.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly = POLY_ONE, _canonical: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        if not _canonical:
            if num.is_zero():
                num, den = POLY_ZERO, POLY_ONE
            else:
                g = num.gcd(den)
                if g.degree and g.degree > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
                if not den.is_monic():
                    lead = den.leading()
                    den = den.scale(1 / lead)
                    num = num.scale(1 / lead)
        self.num = num
        self.den = den
        self._hash = hash((num, den))

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls(p, POLY_ONE, _canonical=True)

    @classmethod
    def s_power(cls, k: int) -> "RatFunc":
        """s^k for any integer k; negative k gives denominator s^(-k)."""
        if k >= 0:
            return cls(Poly.monomial(k), POLY_ONE, _canonical=True)
        return cls(POLY_ONE, Poly.monomial(-k), _canonical=True)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den.is_one() and other.den.is_one():
            return RatFunc.from_poly(self.num + other.num)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        g = self.den.gcd(other.den)
        if g.degree and g.degree > 0:
            da = other.den.exact_div(g)
            db = self.den.exact_div(g)
        else:
            da, db = other.den, self.den
        return RatFunc(self.num * da + other.num * db, self.den * da)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, _canonical=True)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.is_zero() or other.is_zero():
            return RF_ZERO
        if self.den.is_one() and other.den.is_one():
            return RatFunc.from_poly(self.num * other.num)
        # cross-cancel before multiplying to keep degrees low
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g = n1.gcd(d2)
        if g.degree and g.degree > 0:
            n1 = n1.exact_div(g)
            d2 = d2.exact_div(g)
        g = n2.gcd(d1)
        if g.degree and g.degree > 0:
            n2 = n2.exact_div(g)
            d1 = d1.exact_div(g)
        num, den = n1 * n2, d1 * d2
        if not den.is_monic():
            lead = den.leading()
            den = den.scale(1 / lead)
            num = num.scale(1 / lead)
        return RatFunc(num, den, _canonical=True)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self * RatFunc(other.den, other.num)

    def scale(self, c) -> "RatFunc":
        c = Fraction(c)
        if c == 0:
            return RF_ZERO
        return RatFunc(self.num.scale(c), self.den, _canonical=True)

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
        return RatFunc(self.num.subs_power(a), self.den.subs_power(a), _canonical=True)

    def eval(self, x) -> Fraction:
        d = self.den.eval(x)
        if d == 0:
            raise PoleError(f"pole at {x}")
        return self.num.eval(x) / d

    def as_integer_poly(self) -> Optional[Poly]:
        """The underlying polynomial when the value lies in Z[s], else None."""
        if not self.den.is_one():
            return None
        if not self.num.is_integral():
            return None
        return self.num

    def text(self, var: str = "s") -> str:
        if self.den.is_one():
            return self.num.text(var)
        return f"({self.num.text(var)})/({self.den.text(var)})"

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RatFunc({self.text()})"


RF_ZERO = RatFunc(POLY_ZERO, POLY_ONE, _canonical=True)
RF_ONE = RatFunc(POLY_ONE, POLY_ONE, _canonical=True)


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
