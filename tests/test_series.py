"""Tests for exact polynomial and rational-function arithmetic.

Golden values below were computed by hand from the defining recurrences
(long division for series prefixes, Euclid for gcds) before the module
was written, so they are independent of the implementation.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horogrowth.series import (
    ONE,
    X,
    ZERO,
    IntPolynomial,
    RationalFunction,
    exact_div,
    poly,
    poly_gcd,
    poly_latex,
    poly_str,
    rf_latex,
    rf_mul,
    rf_normalize,
    rf_str,
    rf_to_json,
    series_prefix,
)

from certificates import prs_gcd, rf_add, rf_div, rf_sub

# ---------------------------------------------------------------------------
# strategies

coeffs = st.integers(min_value=-6, max_value=6)
polys = st.lists(coeffs, max_size=6).map(lambda cs: IntPolynomial(tuple(cs)))
nonzero_polys = polys.filter(bool)
# denominators with constant term 1: their reciprocals are integer series
unit_polys = st.lists(coeffs, max_size=5).map(lambda t: IntPolynomial((1, *t)))


def led_polys(width):
    # a lead of +-2^j, as in D_j = 1 - x^2 (1 + 2x)^j, over coefficients in
    # [-width, width]
    return st.builds(
        lambda cs, j, sign: IntPolynomial((*cs, sign * 2**j)),
        st.lists(st.integers(min_value=-width, max_value=width), max_size=5),
        st.integers(min_value=0, max_value=8),
        st.sampled_from((1, -1)),
    )


# ---------------------------------------------------------------------------
# polynomials

def test_trailing_zeros_are_stripped():
    assert IntPolynomial((1, 2, 0, 0)) == IntPolynomial((1, 2))
    assert IntPolynomial((0, 0)) == ZERO
    assert not ZERO
    assert ZERO.degree == -1
    assert poly(1, 2).degree == 1


def test_poly_helper_and_constants():
    assert poly(0, 1) == X
    assert poly(1) == ONE
    assert poly() == ZERO
    assert X * X + 1 == poly(1, 0, 1)


def test_poly_arithmetic_hand_values():
    a = poly(1, 2)       # 1 + 2x
    b = poly(1, -1)      # 1 - x
    assert a + b == poly(2, 1)
    assert a - b == poly(0, 3)
    assert a * b == poly(1, 1, -2)
    assert a**3 == poly(1, 6, 12, 8)
    assert -a == poly(-1, -2)
    assert 2 * a == poly(2, 4)
    assert a.shift(2) == poly(0, 0, 1, 2)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 16, 24, 31])
def test_power_squares_once_per_bit_below_the_top(monkeypatch, n):
    a = poly(1, 2, -1)
    want = ONE
    for _ in range(n):
        want = want * a
    products = []
    mul = IntPolynomial.__mul__

    def counted(self, other):
        products.append(self is other)
        return mul(self, other)

    monkeypatch.setattr(IntPolynomial, "__mul__", counted)
    assert a**n == want
    # one product per set bit, and a square per bit below the top one
    assert products.count(True) == max(n.bit_length() - 1, 0)
    assert products.count(False) == bin(n).count("1")


def test_content_and_primitive():
    p = poly(2, 4, -6)
    assert p.content() == 2
    assert p.primitive() == poly(1, 2, -3)
    assert ZERO.content() == 0
    assert ZERO.primitive() == ZERO


def test_exact_div_hand_values():
    assert exact_div(poly(-1, 0, 1), poly(1, 1)) == poly(-1, 1)
    assert exact_div(poly(2, 2), poly(1, 1)) == poly(2)
    with pytest.raises(ValueError):
        exact_div(poly(1, 1, 1), poly(1, 1))
    with pytest.raises(ValueError):
        exact_div(poly(1), ZERO)


def test_poly_gcd_hand_values():
    # (1 - x - 2x^2) = (1 + x)(1 - 2x)
    assert poly_gcd(poly(1, -1, -2), poly(1, 1)) == poly(1, 1)
    assert poly_gcd(poly(2, 2), poly(4)) == poly(2)
    assert poly_gcd(ZERO, poly(0, -3)) == poly(0, 3)
    assert poly_gcd(poly(1, 2), poly(1, -1)).degree == 0


def test_poly_gcd_divisor_led_by_minus_a_power_of_two():
    # D_2 = 1 - x^2 (1 + 2x)^2 leads with -4, like every D_j the closed
    # forms reduce against: the gcd leads positive, and the trial division
    # of a candidate divides by a lead that is not a unit
    d2 = poly(1, 0, -1, -4, -4)
    assert poly_gcd(poly(1, 1) * d2, d2) == -d2
    assert poly_gcd(poly(3, 1, 5) * d2 * d2, poly(1, -3) * d2) == -d2
    assert poly_gcd(poly(1, 1) * d2 * d2, poly(2, 0, 5) * d2) == -d2
    assert poly_gcd(poly(6, 0, 0, 0, 0, 0, 2) * d2, poly(4, 2) * d2) == -2 * d2
    assert poly_gcd(poly(1, 1, 1, 1, 1, 1, 1), d2).degree == 0


def test_poly_gcd_zero_constant_and_content():
    with pytest.raises(ValueError):
        poly_gcd(ZERO, ZERO)
    assert poly_gcd(poly(0, -3), ZERO) == poly(0, 3)
    assert poly_gcd(ZERO, poly(-4, 0, -6)) == poly(4, 0, 6)
    assert poly_gcd(poly(-6), poly(4, 8)) == poly(2)
    assert poly_gcd(poly(5), poly(-5)) == poly(5)
    assert poly_gcd(poly(-1), poly(3, 1, 4)) == ONE
    # the content is the gcd of the contents, the rest is primitive
    assert poly_gcd(poly(6, 6), poly(-4, 0, 4)) == poly(2, 2)
    assert poly_gcd(poly(12, -18), poly(8, 0, -18)) == poly(-4, 6)
    assert poly_gcd(poly(9, 3), poly(6, 0, 6)) == poly(3)


def test_poly_gcd_retries_after_a_false_candidate():
    # at the first evaluation point each gcd of the values carries a spurious
    # factor, whose digits give a candidate that fails the trial division
    assert poly_gcd(poly(4, 6, 0, 4), poly(4, -4)) == poly(2)
    assert poly_gcd(poly(0, 1, 5, 6), poly(3, 10, 2, -3)) == poly(1, 3)
    assert poly_gcd(
        poly(3, -3, -4, 15, -13, 6), poly(9, -6, -3, -1, 5, -6)
    ) == poly(3, -3, 2)


@settings(max_examples=300)
@given(st.one_of(st.just(ZERO), led_polys(6)), led_polys(6), led_polys(1000))
def test_poly_gcd_matches_the_remainder_sequence(a, b, g):
    # a wide planted factor g over narrow cofactors: the cofactors' values
    # at the first point often share a factor as large as the point, so
    # the retry path runs
    assert poly_gcd(a * g, b * g) == prs_gcd(a * g, b * g)


@given(polys, polys, polys)
def test_poly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a + b) * c == a * c + b * c


@given(nonzero_polys, nonzero_polys)
def test_poly_degree_of_product(a, b):
    assert (a * b).degree == a.degree + b.degree


@given(polys, polys)
def test_poly_gcd_divides_both(a, b):
    if not a and not b:
        return
    g = poly_gcd(a, b)
    assert g.coeffs[-1] > 0
    if a:
        assert exact_div(a, g) * g == a
    if b:
        assert exact_div(b, g) * g == b


# ---------------------------------------------------------------------------
# rational functions

def test_rf_normalize_pinned():
    # (1 - x)(1 + x) / (1 - x)  ->  (1 + x) / 1
    f = rf_normalize(poly(1, 0, -1), poly(1, -1))
    assert f == RationalFunction(poly(1, 1), ONE)


def test_rf_normalize_sign_and_content():
    # joint content removed, lowest-order denominator coefficient positive
    f = rf_normalize(poly(-2, -2), poly(-2, 2))
    assert f.num == poly(1, 1)
    assert f.den == poly(1, -1)
    z = rf_normalize(ZERO, poly(0, 0, 5))
    assert z == RationalFunction(ZERO, ONE)


def test_rf_normalize_zero_denominator():
    with pytest.raises(ValueError):
        rf_normalize(poly(1), ZERO)


def test_rf_arithmetic_hand_values():
    one = rf_normalize(1, 1)
    f = rf_normalize(1, poly(1, -1))           # 1/(1-x)
    g = rf_normalize(poly(0, 1), poly(1, -1))  # x/(1-x)
    assert rf_sub(f, g) == one
    assert rf_add(g, one) == f
    assert rf_mul(f, rf_normalize(poly(1, -1), 1)) == one
    assert rf_div(g, f) == rf_normalize(poly(0, 1), 1)
    with pytest.raises(ZeroDivisionError):
        rf_div(f, rf_normalize(0, 1))


@given(nonzero_polys, unit_polys, nonzero_polys)
def test_rf_normalize_scaling_invariance(a, b, c):
    assert rf_normalize(a * c, b * c) == rf_normalize(a, b)


@given(polys, unit_polys)
def test_rf_normalize_is_canonical(a, b):
    f = rf_normalize(a, b)
    assert poly_gcd(f.num, f.den).degree <= 0
    low = next(c for c in f.den.coeffs if c)
    assert low > 0
    if f.num:
        import math
        joint = math.gcd(f.num.content(), f.den.content())
        assert joint == 1


# ---------------------------------------------------------------------------
# series prefixes

def test_series_prefix_pinned_recurrence():
    # 1/(1 - x^2 - 2x^3), hand-expanded through x^7
    f = rf_normalize(1, poly(1, 0, -1, -2))
    assert list(series_prefix(f, 7)) == [1, 0, 1, 2, 1, 4, 5, 6]


def test_series_prefix_geometric_square():
    # x^2/(1-x)^2 = sum (k-1) x^k
    f = rf_normalize(poly(0, 0, 1), poly(1, -2, 1))
    assert list(series_prefix(f, 6)) == [0, 0, 1, 2, 3, 4, 5]


def test_series_prefix_of_polynomial():
    assert list(series_prefix(rf_normalize(poly(1, 4, 4), ONE), 4)) == [1, 4, 4, 0, 0]
    assert list(series_prefix(rf_normalize(ZERO, ONE), 2)) == [0, 0, 0]


def test_series_prefix_errors():
    with pytest.raises(ValueError):
        series_prefix(rf_normalize(1, X), 3)
    with pytest.raises(ValueError):
        # 1/(2 - x) has non-integer coefficients
        series_prefix(rf_normalize(1, poly(2, -1)), 3)
    with pytest.raises(ValueError):
        series_prefix(rf_normalize(ONE, ONE), -1)


def test_series_prefix_divides_by_a_constant_term_above_one():
    # (2 - 2x + 4x^2 - 7x^3)/(2 - x^3) = 1 - x + 2x^2 - 3x^3 - x^4/2 + ...,
    # expanded by hand: integral through x^3, with negative coefficients
    f = rf_normalize(poly(2, -2, 4, -7), poly(2, 0, 0, -1))
    assert f.den.coeffs[0] == 2
    assert list(series_prefix(f, 3)) == [1, -1, 2, -3]
    with pytest.raises(ValueError, match=r"non-integer series coefficient at x\^4"):
        series_prefix(f, 4)


def test_series_prefix_container_behaviour():
    s = series_prefix(rf_normalize(poly(3, 1), ONE), 2)
    assert len(s) == 3
    assert s[1] == 1
    assert tuple(s) == (3, 1, 0)
    assert str(s) == "3, 1, 0"


@given(unit_polys, unit_polys)
@settings(max_examples=60)
def test_series_prefix_multiplicative(a, b):
    n = 6
    fa = rf_normalize(1, a)
    fb = rf_normalize(1, b)
    sa = series_prefix(fa, n)
    sb = series_prefix(fb, n)
    sab = series_prefix(rf_mul(fa, fb), n)
    for k in range(n + 1):
        conv = sum(sa[i] * sb[k - i] for i in range(k + 1))
        assert sab[k] == conv


@given(polys, unit_polys, polys, unit_polys)
@settings(max_examples=60)
def test_series_prefix_additive(na, da, nb, db):
    n = 5
    fa = rf_normalize(na, da)
    fb = rf_normalize(nb, db)
    sa = series_prefix(fa, n)
    sb = series_prefix(fb, n)
    ssum = series_prefix(rf_add(fa, fb), n)
    assert [sa[k] + sb[k] for k in range(n + 1)] == list(ssum)


# ---------------------------------------------------------------------------
# rendering and JSON

def test_poly_str_rendering():
    assert poly_str(poly(1, 4, 4)) == "1+4x+4x^2"
    assert poly_str(poly(0, 1, 1, 0, -1)) == "x+x^2-x^4"
    assert poly_str(poly(-1, 1)) == "-1+x"
    assert poly_str(ZERO) == "0"
    assert str(poly(1, -1)) == "1-x"


def test_poly_latex_rendering():
    assert poly_latex(poly(1, 2, 2)) == "1+2x+2x^{2}"
    assert poly_latex(poly(0, -1, 0, 3)) == "-x+3x^{3}"


def test_rf_rendering():
    f = rf_normalize(poly(0, 1, 1, 0, -1), poly(1, 0, -1, -2))
    assert rf_str(f) == "(x+x^2-x^4)/(1-x^2-2x^3)"
    assert rf_latex(f) == "\\frac{x+x^{2}-x^{4}}{1-x^{2}-2x^{3}}"
    p = rf_normalize(poly(1, 2), 1)
    assert rf_str(p) == "1+2x"
    assert rf_latex(p) == "1+2x"


def test_rf_json_roundtrip():
    f = rf_normalize(1, poly(1, 0, -1, -2))
    obj = rf_to_json(f)
    assert obj == {"num": ["1"], "den": ["1", "0", "-1", "-2"]}


def test_series_prefix_json():
    s = series_prefix(rf_normalize(poly(1, 0, -12), ONE), 2)
    assert s.to_json() == {"coeffs": ["1", "0", "-12"]}
