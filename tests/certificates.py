"""Second derivations that only the tests read.

The package needs none of these to compute or verify: the tests check
it against them.  inverse is the group's inverse rule, cap_poly_recursive
builds growth.cap_poly by peeling one coordinate at a time, rf_add
sums two rational functions, as full_series once summed its level terms,
and prs_gcd takes the gcd by the primitive remainder sequence that
series.poly_gcd once ran.
"""
from __future__ import annotations

import math

from horogrowth.group import GroupElement, _canonical
from horogrowth.growth import _check_rank
from horogrowth.series import IntPolynomial, RationalFunction, X, poly, rf_normalize


def inverse(g: GroupElement) -> GroupElement:
    s, e, u = g
    # -3^(-s) u / 3^e over the denominator 3^d
    d = max(e + s, 0)
    return _canonical(-s, d, [-x * 3 ** (d - e - s) for x in u])


def cap_poly_recursive(m: int) -> IntPolynomial:
    """The cap polynomial computed by peeling one coordinate at a time."""
    _check_rank(m)
    v1 = poly(0, 0, 1, 1, 1)
    v = v1
    for k in range(2, m + 1):
        lower = X ** (2 * (k - 1))
        v = poly(0, 1, 2) * (v - lower) + lower * v1
    return v


def rf_add(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    return rf_normalize(f.num * g.den + g.num * f.den, f.den * g.den)


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


def prs_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Gcd in Z[x] via the primitive polynomial remainder sequence, with
    series.poly_gcd's normalization: a positive leading coefficient, and
    content the gcd of the inputs' contents."""
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
