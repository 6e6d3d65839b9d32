"""Exact polynomial and rational-function arithmetic over the integers.

A polynomial is a tuple of int coefficients in ascending order of degree
with no trailing zero; the zero polynomial is the empty tuple.  A rational
function is a pair num/den of such polynomials kept in canonical form:
num and den are coprime, their joint integer content is 1, and the
lowest-order nonzero coefficient of den is positive.  Canonical form makes
equality plain structural equality, so every public constructor goes
through ``rf_normalize``.

Series prefixes are computed from the denominator's linear recurrence.
When the denominator has constant term 1 the recurrence stays in int
arithmetic; otherwise exact Fractions are used and a non-integer
coefficient raises.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, ascending coefficients, no trailing zeros."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _strip(self.coeffs))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int):
        """Multiply by x**k."""
        if not self.coeffs:
            return ZERO
        return IntPolynomial((0,) * k + self.coeffs)

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self):
        c = self.content()
        if c <= 1:
            return self
        return IntPolynomial(tuple(v // c for v in self.coeffs))

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        return poly_str(self)


def _as_poly(v) -> IntPolynomial:
    if isinstance(v, IntPolynomial):
        return v
    if isinstance(v, int):
        return IntPolynomial((v,))
    return IntPolynomial(tuple(v))


def poly(*coeffs: int) -> IntPolynomial:
    """Build a polynomial from ascending coefficients: poly(1, 0, -2) = 1 - 2x^2."""
    return IntPolynomial(coeffs)


ZERO = IntPolynomial(())
ONE = IntPolynomial((1,))
X = IntPolynomial((0, 1))


def exact_div(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Divide a by b in Z[x], raising ValueError unless the division is exact."""
    a, b = _as_poly(a), _as_poly(b)
    if not b:
        raise ValueError("division by zero polynomial")
    if not a:
        return ZERO
    if a.degree < b.degree:
        raise ValueError("not divisible")
    r = list(a.coeffs)
    bc = b.coeffs
    lb = bc[-1]
    q = [0] * (len(r) - len(bc) + 1)
    for i in reversed(range(len(q))):
        c = r[i + len(bc) - 1]
        if c % lb:
            raise ValueError("not divisible")
        qc = c // lb
        q[i] = qc
        if qc:
            for j, bj in enumerate(bc):
                r[i + j] -= qc * bj
    if any(r):
        raise ValueError("not divisible")
    return IntPolynomial(q)


def _pseudo_rem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while len(r) - 1 >= db:
        lead = r.pop()
        if lead % lb:
            # scale only when lb does not divide lead: every scaling adds the
            # bits of lb to every coefficient
            r = [c * lb for c in r]
        else:
            lead //= lb
        off = len(r) - db
        for j in range(db):
            r[off + j] -= lead * b[j]
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Gcd in Z[x] via the primitive polynomial remainder sequence.

    The result's leading coefficient is positive and its content is the
    gcd of the inputs' contents.
    """
    a, b = _as_poly(a), _as_poly(b)
    if not a and not b:
        raise ValueError("gcd of two zero polynomials")
    cont = math.gcd(a.content(), b.content())
    pa, pb = a.primitive().coeffs, b.primitive().coeffs
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        r = _pseudo_rem(pa, pb)
        pa, pb = pb, IntPolynomial(r).primitive().coeffs
    g = IntPolynomial(pa)
    if g.coeffs[-1] < 0:
        g = -g
    return cont * g


@dataclass(frozen=True)
class RationalFunction:
    """Canonical reduced quotient of integer polynomials.

    Construct through ``rf_normalize``; direct construction only checks
    the cheap invariants (nonzero, sign-normalized denominator).
    """

    num: IntPolynomial
    den: IntPolynomial

    def __post_init__(self):
        if not self.den:
            raise ValueError("zero denominator")
        low = next(c for c in self.den.coeffs if c)
        if low < 0:
            raise ValueError("denominator not sign-normalized")

    def __add__(self, other):
        return rf_add(self, other)

    def __sub__(self, other):
        return rf_sub(self, other)

    def __mul__(self, other):
        return rf_mul(self, other)

    def __truediv__(self, other):
        return rf_div(self, other)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def prefix(self, order: int) -> "SeriesPrefix":
        return series_prefix(self, order)

    def __str__(self) -> str:
        return rf_str(self)

    def to_json(self) -> dict:
        return rf_to_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "RationalFunction":
        return rf_from_json(obj)


def rf_normalize(num, den) -> RationalFunction:
    """Reduce num/den to canonical form."""
    return rf_reduce(num, (den,))


def rf_reduce(num, factors) -> RationalFunction:
    """Reduce num over the product of factors to canonical form, one factor
    at a time: gcd(a, bc) = gcd(a, b) gcd(a / gcd(a, b), c).  Against small
    factors this costs far less than one gcd against their product."""
    num = _as_poly(num)
    factors = [_as_poly(d) for d in factors]
    if not all(factors):
        raise ValueError("zero denominator")
    if not num:
        return RationalFunction(ZERO, ONE)
    den = ONE
    for d in factors:
        g = poly_gcd(num, d)
        if g != ONE:
            num = exact_div(num, g)
            d = exact_div(d, g)
        den = den * d
    low = next(c for c in den.coeffs if c)
    if low < 0:
        num, den = -num, -den
    return RationalFunction(num, den)


def rf_add(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    return rf_normalize(f.num * g.den + g.num * f.den, f.den * g.den)


def rf_sub(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    return rf_normalize(f.num * g.den - g.num * f.den, f.den * g.den)


def rf_mul(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    return rf_normalize(f.num * g.num, f.den * g.den)


def rf_div(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    if not g.num:
        raise ZeroDivisionError("division by zero rational function")
    return rf_normalize(f.num * g.den, f.den * g.num)


@dataclass(frozen=True)
class SeriesPrefix:
    """Initial coefficients c_0..c_n of an integer power series."""

    coeffs: tuple[int, ...]

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, k):
        return self.coeffs[k]

    def __str__(self) -> str:
        return ", ".join(str(c) for c in self.coeffs)

    def to_json(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "SeriesPrefix":
        return cls(tuple(int(c) for c in obj["coeffs"]))


def series_prefix(f, order: int) -> SeriesPrefix:
    """Coefficients of x^0..x^order of f's power series at 0.

    f may be a RationalFunction or an IntPolynomial.  Raises ValueError if
    the denominator vanishes at 0, if a coefficient is not an integer, or
    if order is negative.
    """
    if order < 0:
        raise ValueError("negative series order")
    if isinstance(f, IntPolynomial):
        num, den = f, ONE
    else:
        num, den = f.num, f.den
    nc, dc = num.coeffs, den.coeffs
    if not dc or dc[0] == 0:
        raise ValueError("series undefined at x = 0")
    d0 = dc[0]
    out: list = []
    for k in range(order + 1):
        acc = nc[k] if k < len(nc) else 0
        for j in range(1, min(k, len(dc) - 1) + 1):
            acc -= dc[j] * out[k - j]
        if d0 != 1:
            acc = Fraction(acc, d0)
            if acc.denominator != 1:
                raise ValueError(f"non-integer series coefficient at x^{k}")
            acc = int(acc)
        out.append(acc)
    return SeriesPrefix(tuple(out))


# ---------------------------------------------------------------------------
# rendering and JSON

def _poly_terms(p: IntPolynomial, power) -> str:
    if not p.coeffs:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            term = str(mag)
        else:
            xs = "x" if k == 1 else power(k)
            term = xs if mag == 1 else f"{mag}{xs}"
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+" if c > 0 else "-") + term)
    return "".join(parts)


def poly_str(p: IntPolynomial) -> str:
    """Render ascending, e.g. 1+4x+4x^2."""
    return _poly_terms(p, lambda k: f"x^{k}")


def poly_latex(p: IntPolynomial) -> str:
    return _poly_terms(p, lambda k: f"x^{{{k}}}")


def rf_str(f: RationalFunction) -> str:
    if f.den == ONE:
        return poly_str(f.num)
    return f"({poly_str(f.num)})/({poly_str(f.den)})"


def rf_latex(f: RationalFunction) -> str:
    if f.den == ONE:
        return poly_latex(f.num)
    return f"\\frac{{{poly_latex(f.num)}}}{{{poly_latex(f.den)}}}"


def rf_to_json(f: RationalFunction) -> dict:
    return {
        "num": [str(c) for c in f.num.coeffs],
        "den": [str(c) for c in f.den.coeffs],
    }


def rf_from_json(obj: dict) -> RationalFunction:
    num = IntPolynomial(tuple(int(c) for c in obj["num"]))
    den = IntPolynomial(tuple(int(c) for c in obj["den"]))
    return rf_normalize(num, den)
