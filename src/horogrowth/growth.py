"""Closed-form growth series of the lattice subgroup, its cosets, and the
full group, each proved in its docstring, and the coset census they give.

Every series is an ordinary generating function in x counting by word
length over the standard generators. All arithmetic is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .errors import BudgetError
from .series import (
    IntPolynomial,
    ONE,
    ZERO,
    RationalFunction,
    X,
    exact_div,
    poly,
    rf_normalize,
    rf_reduce,
    series_prefix,
)

# public census horizon cap; deeper tables serve only the level-series check
CENSUS_RMAX = 24
# largest rank with closed forms: on a 2-vCPU host a cold positive_series(30),
# the slowest, takes about 0.1-0.2 s and a cold full_series(30) about 2 ms
RANK_CAP = 30
# largest stem depth of relative_growth_series: at rank 30, depth 24 takes
# about 0.3 s and depth 32 about 3 s
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


@lru_cache(maxsize=None)
def _block_denominator(k: int) -> IntPolynomial:
    # D_k = 1 - x^2 (1+2x)^k, with D_0 = 1 - x^2
    return ONE - (poly(1, 2) ** k).shift(2)


@lru_cache(maxsize=None)
def prefix_suffix_series(m: int) -> RationalFunction:
    """Series 1/(1 - x^2 W_m) counting chains of climb-and-refill blocks."""
    _check_rank(m)
    return rf_normalize(ONE, _block_denominator(m))


@lru_cache(maxsize=None)
def _orthant_term(j: int) -> IntPolynomial:
    # T_j = c^j D_0...D_(j-1), the same at every rank
    if j == 0:
        return ONE
    return _orthant_term(j - 1) * _block_denominator(j - 1) * poly(1, 2, 2)


@lru_cache(maxsize=None)
def positive_series(m: int) -> RationalFunction:
    """Growth series of the lattice vectors with every coordinate >= 1,
    (1 - x^2) sum_j C(m,j) (-1)^(m-j) c^j / (2^m D_j) over j = 0..m, with
    c = 1 + 2x + 2x^2 and D_j = 1 - x^2 W_j.

    By the digit rule (see subgroup_series) one signed coordinate sums
    x^(w_N) to G_N on its band, the zero once and v, -v alike, so one
    coordinate >= 1 sums it to P_N = (G_N - 1)/2, and to P_(N-1) on the
    band below, with P_(-1) = 0.  The vectors of top index exactly N
    contribute x^(2N) (P_N^m - P_(N-1)^m), which sum over N to
    (1 - x^2) sum_N x^(2N) P_N^m.  Expanding (2 P_N)^m = (c W_1^N - 1)^m by
    the binomial theorem, with W_1^(jN) = W_j^N, and summing each geometric
    series in x^2 W_j gives the form above.  Over D_1...D_m its numerator
    is one Horner pass in j, acc D_j + C(m,j) (-1)^(m-j) T_j."""
    _check_rank(m)
    acc = ZERO
    for j in range(m + 1):
        acc = acc * _block_denominator(j) + (-1) ** (m - j) * math.comb(m, j) * _orthant_term(j)
    return rf_reduce(exact_div(acc, 2**m), map(_block_denominator, range(1, m + 1)))


@lru_cache(maxsize=None)
def subgroup_series(m: int) -> RationalFunction:
    """Growth series of the rank-m lattice subgroup inside the whole group,
    c^m (1 - x^2)/D_m with c = 1 + 2x + 2x^2 and D_m = 1 - x^2 W_m.

    word_length(v) = 2N + sum_i w_N(|v_i|), where N, the top index, is the
    least n with max |v_i| <= (5 3^n - 1)/2.  Over one signed coordinate
    the sum of x^(w_N) is G_N = c (1+2x)^N on the band |v| <= (5 3^N - 1)/2
    and G_(N-1) on the band below it, with G_(-1) = 0.  So the vectors of
    top index exactly N contribute x^(2N) (G_N^m - G_(N-1)^m), and with
    G_N^m = c^m W_m^N the sum over N is c^m (1 - x^2)/(1 - x^2 W_m)."""
    _check_rank(m)
    return rf_reduce(poly(1, 2, 2) ** m * poly(1, 0, -1), (_block_denominator(m),))


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


def _level_horizon(m: int) -> int:
    # the census suite certifies the level series through x^(2(m + 4) + 6)
    # against the stem table: it stays there because certified_to reports
    # it in the census output and the suite, and it is well past 2m + 5, the
    # degrees of the numerator and denominator of X_0 added
    return 2 * (m + 4) + 6


@lru_cache(maxsize=None)
def _stem_columns(m: int) -> dict[int, tuple[int, ...]]:
    """chi table from the stem normal form T^n (w_1 t)...(w_j t) at level
    -max(0, n - j): a block w t with |w| = l costs l + 1 in C(m,l) 2^l
    ways, and w_1 is nonempty whenever n >= 1.

    One table per rank, at horizon rmax = max(CENSUS_RMAX, the level-series
    horizon), which only the census suite and the tests read.  One pass
    over d = n - j, from rmax - 1 down to -rmax, carries the length
    coefficients of the stems with j >= 1 at that d, up to x^rmax.  Each
    step multiplies them by x W, which adds one block to every stem of the
    step before, and adds T^(d+1) with its first block: x^(d+1) (x W - x)
    for d + 1 >= 1, and x W for the empty T^0.  Multiplying by x W only
    raises degrees, so the coefficients up to x^r, and the levels down to
    -r, equal those of a pass at horizon r."""
    rmax = max(CENSUS_RMAX, _level_horizon(m))
    w = suffix_poly(m).coeffs
    table = {-n: [0] * n + [1] + [0] * (rmax - n) for n in range(rmax + 1)}
    stems = [0] * (rmax + 1)
    for d in range(rmax - 1, -rmax - 1, -1):
        new = [0] * (rmax + 1)  # x W times stems, up to x^rmax
        for i, s in enumerate(stems[:rmax]):
            if s:
                for l, wl in enumerate(w[: rmax - i]):
                    new[i + 1 + l] += s * wl
        if d >= -1:  # T^(d+1) and its first block
            for l in range(0 if d < 0 else 1, min(m, rmax - d - 2) + 1):
                new[d + 2 + l] += w[l]
        stems = new
        col = table[-max(0, d)]
        for r, cnt in enumerate(stems):
            col[r] += cnt
    return {level: tuple(col) for level, col in table.items()}


@lru_cache(maxsize=None)
def _census_columns(m: int) -> dict[int, tuple[int, ...]]:
    ls = level_series(m)
    minus1 = series_prefix(ls.X_minus1, CENSUS_RMAX).coeffs
    table = {0: series_prefix(ls.X_0, CENSUS_RMAX).coeffs}
    for k in range(1, CENSUS_RMAX + 1):
        table[-k] = (0,) * (k - 1) + minus1[: CENSUS_RMAX + 2 - k]
    return table


def coset_census(m: int, rmax: int) -> CosetCensus:
    """Exact counts of cosets of the lattice subgroup by level and distance:
    the prefixes of X_0 at level 0 and of x^k (1 - x^2)/D_m = x^(k-1) X_-1
    at level -k (see level_series)."""
    _check_rank(m)
    if rmax < 0:
        raise ValueError("census horizon must be nonnegative")
    if rmax > CENSUS_RMAX:
        raise BudgetError(
            f"census horizon {rmax} exceeds the supported cap {CENSUS_RMAX}"
        )
    table = _census_columns(m)
    return CosetCensus(m, rmax, {-n: table[-n][: rmax + 1] for n in range(rmax + 1)})


# ---------------------------------------------------------------------------
# level series in closed form


@dataclass(frozen=True)
class LevelSeries:
    """Generating functions of coset counts at levels -1 and 0."""

    X_minus1: RationalFunction
    X_0: RationalFunction
    p_hat: IntPolynomial
    q_hat: IntPolynomial
    certified_to: int  # the census suite checks both against the stem table to here


@lru_cache(maxsize=None)
def level_series(m: int) -> LevelSeries:
    """Coset series at levels -1 and 0, summed from the stem normal form
    (see _stem_columns).

    The blocks w t together count x W, with W = (1+2x)^m, and the first
    block after T^n with n >= 1 counts x (W - 1), since it is nonempty.
    Level -k with k >= 1 therefore counts

      x^k (1 + x^2 (W-1)/(1 - x^2 W)) = x^k (1 - x^2)/(1 - x^2 W),

    and level 0 counts (1 - x^2)/((1 - x W)(1 - x^2 W)).  So at every rank
    p_hat = (1 - x^2 W) X_-1 = x - x^3 and
    q_hat = (1 - x W) X_0 - x W X_-1 = 1 - x^2."""
    _check_rank(m)
    p_hat, q_hat, d = poly(0, 1, 0, -1), poly(1, 0, -1), _block_denominator(m)
    x_zero = rf_normalize(q_hat, (ONE - suffix_poly(m).shift(1)) * d)
    return LevelSeries(rf_normalize(p_hat, d), x_zero, p_hat, q_hat, _level_horizon(m))


# ---------------------------------------------------------------------------
# relative and full-group growth


def relative_growth_series(m: int, n: int) -> RationalFunction:
    """Growth series of the coset T^n times the lattice, counted relative to
    the stem length: W_m^n times the subgroup series S.

    W^n S.num over S.den is already canonical.  S.den divides D_m, and
    D_m(-1/2) = 1, so 1 + 2x, the one prime factor of W = (1+2x)^m, is
    prime to S.den, as S.num is.  W is primitive, so by Gauss's lemma the
    content of W^n S.num is that of S.num.  The denominator is S's own."""
    _check_rank(m)
    if n < 0:
        raise ValueError("stem depth n must be nonnegative")
    if n > STEM_DEPTH_CAP:
        raise BudgetError(f"stem depth {n} exceeds the supported cap {STEM_DEPTH_CAP}")
    s = subgroup_series(m)
    return RationalFunction(suffix_poly(m) ** n * s.num, s.den)


@lru_cache(maxsize=None)
def full_series(m: int) -> RationalFunction:
    """Growth series of the whole group, S X_0 + S X_-1 W/(1 - x W) with S
    the subgroup series and X_0, X_-1 the level series.  Since
    X_0 = q_hat/((1 - x W) D) and X_-1 = p_hat/D, with D = 1 - x^2 W, the
    sum is S (q_hat + p_hat W) / ((1 - x W) D), reduced against the
    subgroup denominator, 1 - x W and D one factor at a time.  The census
    suite checks it against its product form."""
    _check_rank(m)
    s = subgroup_series(m)
    ls = level_series(m)
    w = suffix_poly(m)
    return rf_reduce(
        s.num * (ls.q_hat + ls.p_hat * w),
        (s.den, ONE - w.shift(1), _block_denominator(m)),
    )


def published_full_form(m: int) -> RationalFunction:
    """Previously published closed forms for the full-group series, kept only
    for diagnostic comparison: their x coefficients contradict the forced
    sphere count 2m+2, so full_series never uses them.  Each is off by one
    factor: full / published is 1 + 2x + 2x^2 at rank 1, 1/(1 + x + 2x^2) at
    rank 2."""
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
