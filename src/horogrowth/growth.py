"""Closed-form growth series of the lattice subgroup, its cosets, and the
full group, plus an exact dynamic-programming census of coset distances.

Every series is an ordinary generating function in x counting by word
length over the standard generators. All arithmetic is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .errors import BudgetError, FitError
from .series import (
    IntPolynomial,
    ONE,
    ZERO,
    RationalFunction,
    X,
    poly,
    rf_mul,
    rf_normalize,
    rf_reduce,
    series_prefix,
)

# public census horizon cap; deeper tables exist only behind the fitted series
CENSUS_RMAX = 24
# largest rank with closed forms: a cold full_series(30) takes about 2 s on
# a 2-vCPU host, and each doubling of the rank costs about 16x
RANK_CAP = 30
# largest stem depth of relative_growth_series: at rank 30, depth 24 takes
# under 1 s and depth 32 about 4 s
STEM_DEPTH_CAP = 24


def _check_rank(m: int) -> None:
    if m < 1:
        raise ValueError("rank m must be at least 1")
    if m > RANK_CAP:
        raise BudgetError(f"rank {m} exceeds the supported cap {RANK_CAP}")


# ---------------------------------------------------------------------------
# building-block polynomials and series


@lru_cache(maxsize=None)
def suffix_poly(m: int) -> IntPolynomial:
    """Length polynomial (1+2x)^m of the 3^m single-level sign words."""
    _check_rank(m)
    return poly(1, 2) ** m


@lru_cache(maxsize=None)
def cap_poly(m: int) -> IntPolynomial:
    """Length polynomial of the 3^m cap words that finish a climb."""
    _check_rank(m)
    return X ** (2 * m) + suffix_poly(m).shift(m + 2) - X ** (2 * m + 2)


def cap_poly_recursive(m: int) -> IntPolynomial:
    """Same polynomial computed by peeling one coordinate at a time."""
    _check_rank(m)
    v1 = poly(0, 0, 1, 1, 1)
    v = v1
    for k in range(2, m + 1):
        lower = X ** (2 * (k - 1))
        v = poly(0, 1, 2) * (v - lower) + lower * v1
    return v


@lru_cache(maxsize=None)
def _block_denominator(k: int) -> IntPolynomial:
    # 1 - x^2 (1+2x)^k
    return ONE - suffix_poly(k).shift(2)


@lru_cache(maxsize=None)
def prefix_suffix_series(m: int) -> RationalFunction:
    """Series 1/(1 - x^2 W_m) counting chains of climb-and-refill blocks."""
    _check_rank(m)
    return rf_normalize(ONE, _block_denominator(m))


@lru_cache(maxsize=None)
def _positive_raw(m: int) -> tuple[IntPolynomial, IntPolynomial, IntPolynomial]:
    """Numerator num_m of the positive-orthant series over Q_m = D_1...D_m,
    with D_k = 1 - x^2 W_k, then Q_m and the boundary term g_m.

    The series sums one term per composition of m, weighted by the
    multinomial count of ways to split the coordinates into its blocks.
    Cutting each composition at its last proper prefix sum c turns the sum
    into a recurrence over block boundaries, with V_a = cap_poly(a):

      h_a   = V_a Q_{a-1} + sum_{c<a} C(a,c) x^(a-c) g_c D_{c+1}...D_{a-1}
      num_a = x^a Q_a + h_a
      g_a   = V_a Q_{a-1} + x^2 W_a (h_a - V_a Q_{a-1})

    g_c is h_c with c as an interior boundary, which adds x^2 W_c to every
    term but the one-block term.  The sum over c runs by Horner's rule.
    """
    prev = _positive_raw(m - 1)[1] if m > 1 else ONE
    lone = cap_poly(m) * prev
    jumps = ZERO
    for c in range(1, m):
        jumps = (jumps * _block_denominator(c)).shift(1)
        jumps = jumps + math.comb(m, c) * _positive_raw(c)[2]
    h = lone + jumps.shift(1)
    den = prev * _block_denominator(m)
    return den.shift(m) + h, den, lone + (suffix_poly(m) * (h - lone)).shift(2)


@lru_cache(maxsize=None)
def positive_series(m: int) -> RationalFunction:
    """Growth series of the lattice vectors with every coordinate >= 1."""
    _check_rank(m)
    return rf_reduce(_positive_raw(m)[0], map(_block_denominator, range(1, m + 1)))


@lru_cache(maxsize=None)
def subgroup_series(m: int) -> RationalFunction:
    """Growth series of the rank-m lattice subgroup inside the whole group:
    Q_m + sum_i C(m,i) 2^i num_i D_{i+1}...D_m over Q_m, by Horner's rule."""
    _check_rank(m)
    total = ONE
    for i in range(1, m + 1):
        num_i = _positive_raw(i)[0]
        total = total * _block_denominator(i) + math.comb(m, i) * 2**i * num_i
    return rf_reduce(total, map(_block_denominator, range(1, m + 1)))


# ---------------------------------------------------------------------------
# coset census


@dataclass(frozen=True)
class CosetCensus:
    """Counts chi(level, r) of lattice cosets by level and graph distance."""

    m: int
    rmax: int
    columns: Mapping[int, tuple[int, ...]]

    def chi(self, level: int, r: int) -> int:
        if level > 0:
            raise ValueError("coset levels are nonpositive")
        if not 0 <= r <= self.rmax:
            raise ValueError("distance outside the census horizon")
        col = self.columns.get(level)
        return col[r] if col is not None else 0

    def column(self, level: int) -> tuple[int, ...]:
        if level > 0:
            raise ValueError("coset levels are nonpositive")
        return tuple(self.columns.get(level, (0,) * (self.rmax + 1)))

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "rmax": self.rmax,
            "chi": {
                str(level): list(self.columns[level])
                for level in sorted(self.columns, reverse=True)
            },
        }


@lru_cache(maxsize=None)
def _stem_columns(m: int, rmax: int) -> dict[int, tuple[int, ...]]:
    """chi table from the stem normal form: T^n then j nonempty-or-lone-t
    blocks, the first block nonempty whenever n >= 1."""
    block_cost = [0] * (m + 2)
    for letters in range(m + 1):
        block_cost[letters + 1] = math.comb(m, letters) * 2**letters
    table = {level: [0] * (rmax + 1) for level in range(0, -(rmax + 1), -1)}
    for n in range(rmax + 1):
        table[-max(0, n)][n] += 1
        dist = [0] * (rmax + 1)
        for cost, ways in enumerate(block_cost):
            if ways and not (n >= 1 and cost == 1) and n + cost <= rmax:
                dist[n + cost] += ways
        j = 1
        while any(dist):
            col = table[-max(0, n - j)]
            for r, cnt in enumerate(dist):
                col[r] += cnt
            nxt = [0] * (rmax + 1)
            for r, cnt in enumerate(dist):
                if cnt:
                    for cost, ways in enumerate(block_cost):
                        if ways and r + cost <= rmax:
                            nxt[r + cost] += cnt * ways
            dist = nxt
            j += 1
    return {level: tuple(col) for level, col in table.items()}


def coset_census(m: int, rmax: int) -> CosetCensus:
    """Exact counts of cosets of the lattice subgroup by level and distance."""
    _check_rank(m)
    if rmax < 0:
        raise ValueError("census horizon must be nonnegative")
    if rmax > CENSUS_RMAX:
        raise BudgetError(
            f"census horizon {rmax} exceeds the supported cap {CENSUS_RMAX}"
        )
    return CosetCensus(m, rmax, _stem_columns(m, rmax))


# ---------------------------------------------------------------------------
# level series fitted against the census


@dataclass(frozen=True)
class LevelSeries:
    """Certified generating functions of coset counts at levels -1 and 0."""

    X_minus1: RationalFunction
    X_0: RationalFunction
    p_hat: IntPolynomial
    q_hat: IntPolynomial
    certified_to: int


def _column_times(column, p: IntPolynomial) -> list[int]:
    pc = p.coeffs
    return [
        sum(pc[j] * column[k - j] for j in range(min(k, len(pc) - 1) + 1))
        for k in range(len(column))
    ]


@lru_cache(maxsize=None)
def level_series(m: int) -> LevelSeries:
    """Fit numerators for the level -1 and level 0 coset series and certify
    both expansions against the census through a horizon that exceeds twice
    the permitted numerator degree."""
    _check_rank(m)
    horizon = 2 * (m + 4) + 6
    columns = _stem_columns(m, horizon)
    col1 = columns[-1]
    col0 = columns[0]
    d2 = _block_denominator(m)
    d1 = ONE - suffix_poly(m).shift(1)
    xw = suffix_poly(m).shift(1)

    p_full = _column_times(col1, d2)
    for k in range(m + 5, horizon + 1):
        if p_full[k]:
            raise FitError(f"level -1 census leaves a residual at x^{k}")
    p_hat = IntPolynomial(tuple(p_full[: m + 5]))

    q_full = [
        a - b
        for a, b in zip(_column_times(col0, d1), _column_times(col1, xw))
    ]
    for k in range(m + 2, horizon + 1):
        if q_full[k]:
            raise FitError(f"level 0 census leaves a residual at x^{k}")
    q_hat = IntPolynomial(tuple(q_full[: m + 2]))

    x_minus1 = rf_normalize(p_hat, d2)
    x_zero = rf_normalize(xw * p_hat + q_hat * d2, d1 * d2)
    if list(series_prefix(x_minus1, horizon)) != list(col1):
        raise FitError("level -1 series fails certification against the census")
    if list(series_prefix(x_zero, horizon)) != list(col0):
        raise FitError("level 0 series fails certification against the census")
    return LevelSeries(x_minus1, x_zero, p_hat, q_hat, horizon)


# ---------------------------------------------------------------------------
# relative and full-group growth


def relative_growth_series(m: int, n: int) -> RationalFunction:
    """Growth series of the coset T^n times the lattice, counted relative to
    the stem length: W_m^n times the subgroup series."""
    _check_rank(m)
    if n < 0:
        raise ValueError("stem depth n must be nonnegative")
    if n > STEM_DEPTH_CAP:
        raise BudgetError(f"stem depth {n} exceeds the supported cap {STEM_DEPTH_CAP}")
    s = subgroup_series(m)
    return rf_normalize(suffix_poly(m) ** n * s.num, s.den)


@lru_cache(maxsize=None)
def full_series(m: int) -> RationalFunction:
    """Growth series of the whole group, assembled from the subgroup series
    and the certified level series.  The census suite checks it against
    its product form."""
    _check_rank(m)
    s = subgroup_series(m)
    ls = level_series(m)
    w = suffix_poly(m)
    return rf_mul(s, ls.X_0) + rf_mul(
        rf_mul(s, ls.X_minus1), rf_normalize(w, ONE - w.shift(1))
    )


def published_full_form(m: int) -> RationalFunction:
    """Previously published closed forms for the full-group series, kept only
    for diagnostic comparison: their x coefficients contradict the forced
    sphere count 2m+2, so full_series never uses them."""
    if m == 1:
        return rf_normalize(
            poly(1, 1) * poly(1, -1) ** 2 * poly(1, 1, 2),
            poly(1, -2) * poly(1, 0, -1, -2) ** 2,
        )
    if m == 2:
        return rf_normalize(
            poly(1, -1) ** 2 * poly(1, 1) * poly(1, 2, 2) ** 2 * poly(1, 0, 4),
            poly(1, -2) ** 2 * poly(1, 1, 2) * poly(1, -1, -4, -4),
        )
    raise ValueError("no published form is transcribed for this rank")
