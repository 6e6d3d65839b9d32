"""Second derivations that only the tests read.

The package needs none of these to compute or verify: the tests check
it against them.  inverse is the group's inverse rule, cap_poly_recursive
builds growth.cap_poly by peeling one coordinate at a time, rf_add
sums two rational functions, as full_series once summed its level terms,
and prs_gcd takes the gcd by the primitive remainder sequence that
series.poly_gcd once ran.  matrix_growth solves an automaton's linear
system u = A u + e by Gauss-Jordan elimination over the rational function
field with solve_linear_system, as gfsa.automaton_growth once did before
it eliminated states, and positive_orthant_machine builds the growth
automaton of the lattice vectors with every coordinate >= 1.
"""
from __future__ import annotations

import math

from horogrowth.gfsa import GrowthAutomaton
from horogrowth.group import GroupElement, _canonical
from horogrowth.growth import _check_rank, cap_poly, suffix_poly
from horogrowth.series import (
    IntPolynomial,
    RationalFunction,
    X,
    poly,
    rf_mul,
    rf_normalize,
)


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


def rf_sub(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    return rf_normalize(f.num * g.den - g.num * f.den, f.den * g.den)


def rf_div(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    if not g.num:
        raise ZeroDivisionError("division by zero rational function")
    return rf_normalize(f.num * g.den, f.den * g.num)


def solve_linear_system(
    matrix: list[list[RationalFunction]], rhs: list[RationalFunction]
) -> list[RationalFunction]:
    """Solve matrix * u = rhs exactly over the rational function field.

    Pivots are chosen to keep entries small: lowest denominator degree,
    then lowest numerator degree.  Raises ValueError on a singular matrix.
    """
    n = len(matrix)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        candidates = [r for r in range(col, n) if aug[r][col].num]
        if not candidates:
            raise ValueError("singular matrix")
        r = min(
            candidates,
            key=lambda i: (aug[i][col].den.degree, aug[i][col].num.degree, i),
        )
        aug[col], aug[r] = aug[r], aug[col]
        piv = aug[col][col]
        for j in range(col, n + 1):
            aug[col][j] = rf_div(aug[col][j], piv)
        for i in range(n):
            if i != col and aug[i][col].num:
                factor = aug[i][col]
                for j in range(col, n + 1):
                    aug[i][j] = rf_sub(aug[i][j], rf_mul(factor, aug[col][j]))
    return [aug[i][n] for i in range(n)]


def matrix_growth(machine: GrowthAutomaton) -> RationalFunction:
    """The machine's growth series from the whole system (I - A) u = e."""
    n = machine.n_states
    zero, one = rf_normalize(0, 1), rf_normalize(1, 1)
    a = [[zero] * n for _ in range(n)]
    for src, dst, label in machine.edges:
        a[src][dst] = rf_normalize(label, 1)
    matrix = [
        [rf_sub(one if i == j else zero, a[i][j]) for j in range(n)]
        for i in range(n)
    ]
    rhs = [one if p in machine.accepts else zero for p in range(n)]
    return solve_linear_system(matrix, rhs)[machine.start]


def positive_orthant_machine(m: int) -> GrowthAutomaton:
    """Growth automaton of the rank-m lattice vectors with every
    coordinate >= 1, whose growth is growth.positive_series(m).

    It walks the levels down from the top as geodesic.enumerate_level
    does, its state the number c of coordinates already started.  States:
    0 the start, 1 the corner (every coordinate 1, one edge x^m), F_c
    (c coordinates have started) and E_c (a block has just entered, so
    that c have now started) for c = 1..m.  The start enters F_a through
    one of C(m, a) caps on a coordinates; a level below keeps F_c, or
    leaves E_c, by a descent and a sign word on the c started coordinates,
    x^2 W_c; and a block of a - c new coordinates enters F_c -> E_a, one
    letter each.  A word is accepted once every coordinate has started.
    """
    _check_rank(m)

    def f(c):
        return 1 + c

    def e(c):
        return 1 + m + c

    edges = [(0, 1, X**m)]
    for a in range(1, m + 1):
        edges.append((0, f(a), math.comb(m, a) * cap_poly(a)))
    for c in range(1, m + 1):
        level = suffix_poly(c).shift(2)
        edges += [(f(c), f(c), level), (e(c), f(c), level)]
        edges += [
            (f(c), e(a), math.comb(m - c, a - c) * X ** (a - c))
            for a in range(c + 1, m + 1)
        ]
    return GrowthAutomaton(2 * m + 2, 0, frozenset({1, f(m), e(m)}), tuple(edges))


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
