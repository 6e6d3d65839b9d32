"""Second derivations that only the tests read.

The package needs none of these to compute or verify: the tests check
it against them.  inverse is the group's inverse rule, cap_poly_recursive
builds growth.cap_poly by peeling one coordinate at a time, and rf_add
sums two rational functions, as full_series once summed its level terms.
"""
from __future__ import annotations

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
