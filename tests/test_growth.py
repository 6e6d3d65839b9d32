"""Tests for the closed-form growth series and the coset census.

Golden prefixes were derived by hand (direct enumeration of short words
and vectors) or by brute-force counting routines defined in this file,
before the closed forms were implemented.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
from collections import Counter
from itertools import product

import pytest

from horogrowth import growth, series, verify
from horogrowth.errors import BudgetError
from horogrowth.geodesic import word_length
from horogrowth.growth import (
    CENSUS_RMAX,
    RANK_CAP,
    STEM_DEPTH_CAP,
    CosetCensus,
    cap_poly,
    coset_census,
    full_series,
    level_series,
    positive_series,
    prefix_suffix_series,
    published_full_form,
    relative_growth_series,
    subgroup_series,
    suffix_poly,
)
from horogrowth.series import (
    IntPolynomial,
    ONE,
    RationalFunction,
    X,
    ZERO,
    exact_div,
    poly,
    poly_gcd,
    rf_mul,
    rf_normalize,
    rf_to_json,
    series_prefix,
)

from certificates import cap_poly_recursive, prs_gcd, rf_add, rf_div, rf_sub
from word_families import cap_words, suffix_words


def one_minus_x2w(m: int) -> IntPolynomial:
    return ONE - (X**2) * suffix_poly(m)


def one_minus_xw(m: int) -> IntPolynomial:
    return ONE - X * suffix_poly(m)


# ---------------------------------------------------------------------------
# suffix polynomial W_m


def test_suffix_poly_goldens():
    assert suffix_poly(1) == poly(1, 2)
    assert suffix_poly(2) == poly(1, 4, 4)
    assert suffix_poly(3) == poly(1, 6, 12, 8)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_suffix_poly_counts_suffix_words(m):
    # coefficient of x^l = number of suffix words with l letters
    hist = Counter(w.length for w in suffix_words(m))
    coeffs = suffix_poly(m).coeffs
    assert list(coeffs) == [hist.get(l, 0) for l in range(len(coeffs))]


def test_suffix_poly_rejects_bad_rank():
    with pytest.raises(ValueError):
        suffix_poly(0)


# ---------------------------------------------------------------------------
# cap polynomial V_m


def test_cap_poly_goldens():
    assert cap_poly(1) == poly(0, 0, 1, 1, 1)
    assert cap_poly(2) == poly(0, 0, 0, 0, 2, 4, 3)
    assert cap_poly(3) == poly(0, 0, 0, 0, 0, 1, 7, 12, 7)


@pytest.mark.parametrize("m", range(1, 11))
def test_cap_poly_closed_equals_recursive(m):
    assert cap_poly(m) == cap_poly_recursive(m)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_cap_poly_counts_cap_words(m):
    hist = Counter(w.length for w in cap_words(m))
    coeffs = cap_poly(m).coeffs
    assert list(coeffs) == [hist.get(l, 0) for l in range(len(coeffs))]


# ---------------------------------------------------------------------------
# prefix/suffix series R_m


def test_prefix_suffix_series_goldens():
    assert prefix_suffix_series(1) == rf_normalize(ONE, poly(1, 0, -1, -2))
    assert list(series_prefix(prefix_suffix_series(1), 7)) == [1, 0, 1, 2, 1, 4, 5, 6]
    assert list(series_prefix(prefix_suffix_series(2), 7)) == [1, 0, 1, 4, 5, 8, 25, 44]
    assert list(series_prefix(prefix_suffix_series(3), 7)) == [1, 0, 1, 6, 13, 20, 61, 178]


@pytest.mark.parametrize("m", range(1, 11))
def test_prefix_suffix_series_inverts_denominator(m):
    assert rf_mul(
        prefix_suffix_series(m), rf_normalize(one_minus_x2w(m), ONE)
    ) == rf_normalize(ONE, ONE)


# ---------------------------------------------------------------------------
# positive-orthant series P_m


def count_positive_by_length(m: int, nmax: int) -> list[int]:
    # Any word of length n over the positive orthant climbs to height at
    # most (n - m) // 2 since each coordinate still needs one letter, so
    # every counted vector fits in [1, (3**(top+2) - 1) // 2]^m.
    top = (nmax - m) // 2
    limit = (3 ** (top + 2) - 1) // 2
    counts = [0] * (nmax + 1)

    def rec(prefix):
        if len(prefix) == m:
            n = word_length(m, prefix)
            if n <= nmax:
                counts[n] += 1
            return
        for c in range(1, limit + 1):
            rec(prefix + (c,))

    rec(())
    return counts


@functools.lru_cache(maxsize=None)
def reference_positive_raw(m: int) -> tuple[IntPolynomial, IntPolynomial, IntPolynomial]:
    """Numerator num_m of the positive-orthant series over Q_m = D_1...D_m,
    with D_k = 1 - x^2 W_k, then Q_m and the boundary term g_m; a second
    derivation of positive_series, independent of the digit rule.

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
    prev = reference_positive_raw(m - 1)[1] if m > 1 else ONE
    lone = cap_poly(m) * prev
    jumps = ZERO
    for c in range(1, m):
        jumps = (jumps * one_minus_x2w(c)).shift(1)
        jumps = jumps + math.comb(m, c) * reference_positive_raw(c)[2]
    h = lone + jumps.shift(1)
    den = prev * one_minus_x2w(m)
    return den.shift(m) + h, den, lone + (suffix_poly(m) * (h - lone)).shift(2)


@pytest.mark.parametrize("m", range(1, RANK_CAP + 1))
def test_positive_series_is_the_composition_recurrence(m):
    # p.num/p.den == num/Q_m with no gcd taken: the reduced denominator
    # divides Q_m = D_1...D_m exactly, and the cofactor, of degree m//2, makes
    # the check far cheaper than p.num * Q_m == num * p.den
    num, q, _ = reference_positive_raw(m)
    p = positive_series(m)
    assert p.num * exact_div(q, p.den) == num


def test_positive_series_closed_forms():
    assert positive_series(1) == rf_normalize(poly(0, 1, 1, 0, -1), poly(1, 0, -1, -2))
    assert positive_series(2) == rf_normalize(
        poly(0, 0, 1, 1, 1, -1, -1, -1, 2),
        poly(-1, 0, 1, 2) * poly(-1, 1, 0, 4),
    )


def test_positive_series_prefix_goldens():
    assert list(series_prefix(positive_series(1), 7)) == [0, 1, 1, 1, 2, 3, 4, 7]
    assert list(series_prefix(positive_series(2), 7)) == [0, 0, 1, 2, 4, 10, 21, 42]
    assert list(series_prefix(positive_series(3), 8)) == [0, 0, 0, 1, 3, 10, 34, 94, 251]


@pytest.mark.parametrize("m,nmax", [(1, 10), (2, 8), (3, 6), (4, 7)])
def test_positive_series_counts_orthant_vectors(m, nmax):
    assert list(series_prefix(positive_series(m), nmax)) == count_positive_by_length(m, nmax)


# ---------------------------------------------------------------------------
# subgroup series


SUBGROUP_PREFIXES = {
    1: [1, 2, 2, 2, 4, 6, 8, 14, 20, 30, 48],
    2: [1, 4, 8, 12, 24, 52, 100, 196, 404, 804, 1588],
    3: [1, 6, 18, 38, 84, 218, 548, 1298, 3160, 7874, 19268],
    10: [1, 20, 200, 1340, 7000, 32964, 160820, 847124, 4542980],
}


def count_lattice_by_length(m: int, nmax: int) -> list[int]:
    top = (nmax - 1) // 2
    limit = (3 ** (top + 2) - 1) // 2
    counts = [0] * (nmax + 1)

    def rec(prefix):
        if len(prefix) == m:
            n = word_length(m, prefix)
            if n <= nmax:
                counts[n] += 1
            return
        for c in range(-limit, limit + 1):
            rec(prefix + (c,))

    rec(())
    return counts


def test_subgroup_series_closed_forms():
    assert subgroup_series(1) == rf_normalize(poly(1, 2, 1, -2, -2), poly(1, 0, -1, -2))
    assert subgroup_series(2) == rf_normalize(
        poly(1, -1) * poly(1, 2, 2) ** 2, poly(1, -2) * poly(1, 1, 2)
    )
    assert subgroup_series(3) == rf_normalize(
        poly(-1, 0, 1) * poly(1, 2, 2) ** 3, poly(-1, 0, 1, 6, 12, 8)
    )


@pytest.mark.parametrize("m", sorted(SUBGROUP_PREFIXES))
def test_subgroup_series_prefixes(m):
    row = SUBGROUP_PREFIXES[m]
    assert list(series_prefix(subgroup_series(m), len(row) - 1)) == row


@pytest.mark.parametrize("m,nmax", [(1, 10), (2, 8), (3, 6)])
def test_subgroup_series_counts_lattice_vectors(m, nmax):
    assert list(series_prefix(subgroup_series(m), nmax)) == count_lattice_by_length(m, nmax)


@pytest.mark.parametrize("m", [11, 12, 16, 20])
def test_subgroup_series_low_order_beyond_the_appendix(m):
    # spheres of radius 0..3: the identity; the 2m unit vectors; sums of two
    # unit vectors; and three distinct units, a doubled unit beside another,
    # or a lone +-3 (spelled t a t^-1)
    want = [1, 2 * m, 2 * m * m, 8 * math.comb(m, 3) + 4 * m * (m - 1) + 2 * m]
    assert list(series_prefix(subgroup_series(m), 3)) == want


# sha256 of the canonical JSON of each form, recorded from the
# composition-enumeration implementation these forms replaced
POSITIVE_DIGESTS = {
    4: "f198a16b1f4a11a72c8ec7205548f2d535a653e27544da48600b31430579bfd1",
    5: "77f296ffc6a6cf6ce79c02dcbedb5999d4d86d2cd74fe6a0a12bd81ea3e6fd13",
    6: "927c99118e99ee383ab7fb288e5a37e039ba25df55cb4550954642ab3840f77b",
    7: "39c8060634c837d510f4bc65cbb89e19996f127ff1ce8b58c4391ef33c864c25",
    8: "e361eb8891b611ea7906d5633094d4d244b53c3e8a1c141a4ec5f63ce347bd5a",
    9: "dffac9af6b10d50a8b91102201633f939e5a75a3e38a012ebe5b4fa2a66a72d6",
    10: "4a9cc09d5f96593ccba16586803d2e464eb8e873e695a3faeddc5adcb492915e",
    11: "c93403abb95f3ec1a99027bfc54e6f7ce247170e458fbc9a2d5d315279d9a888",
    12: "e7a0306d3476595eb6aa5df31f36f3249f173fa0a1efeeeb7b3de96ae1014476",
}
SUBGROUP_DIGESTS = {
    11: "93e839070d51063dc1eb37029153842cce489734becde3b07621d52c1c9bfc5e",
    12: "9d869beeba44e77a2af56442f07b911b741a1305f556bfab930a2a6957b200bf",
}


def json_digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def rf_digest(f) -> str:
    return json_digest(rf_to_json(f))


@pytest.mark.parametrize("m", sorted(POSITIVE_DIGESTS))
def test_positive_series_digests(m):
    assert rf_digest(positive_series(m)) == POSITIVE_DIGESTS[m]


@pytest.mark.parametrize("m", sorted(SUBGROUP_DIGESTS))
def test_subgroup_series_digests(m):
    assert rf_digest(subgroup_series(m)) == SUBGROUP_DIGESTS[m]


def test_positive_series_digest_at_the_rank_cap():
    # recorded from the pseudo-remainder that scaled at every step
    assert rf_digest(positive_series(30)) == (
        "7003689f748ff2eb08be097d37d0eed9e15905cef2cd4db13ae4a2cf982b10aa"
    )


def test_subgroup_and_full_series_digests_at_the_rank_cap():
    # recorded from the orthant-sum assembly that the closed form replaced
    assert rf_digest(subgroup_series(30)) == (
        "b71fdb3225601f69b70c04c93ea137117f420cdbc5d1ac45a1295ff08381c273"
    )
    assert rf_digest(full_series(30)) == (
        "94602dc5b5b32b7ba6f38338475e9ed1983c4bcd878fdf9393aa6619d560b984"
    )


@pytest.mark.parametrize("m", range(1, RANK_CAP + 1))
def test_subgroup_series_is_the_orthant_sum(m):
    # S_m = sum_i C(m,i) 2^i P_i, with P_i = num_i/(D_1...D_i), summed over
    # D_1...D_m by Horner's rule and cross-multiplied, so no gcd is taken
    total = ONE
    for i in range(1, m + 1):
        num_i = reference_positive_raw(i)[0]
        total = total * one_minus_x2w(i) + math.comb(m, i) * 2**i * num_i
    q = math.prod(map(one_minus_x2w, range(1, m + 1)), start=ONE)
    s = subgroup_series(m)
    assert s.num * q == total * s.den


def band_sums(m: int, top: int, positive: bool = False) -> list[IntPolynomial]:
    """For N = 0..top, the sum of x^(word_length - 2N) over the rank-m
    vectors of top index N, the least n with max |v_i| <= (5 3^n - 1)/2;
    with positive, over those with every coordinate >= 1."""
    bounds = [(5 * 3**n - 1) // 2 for n in range(top + 1)]
    index = [
        next(n for n, b in enumerate(bounds) if e <= b) for e in range(bounds[-1] + 1)
    ]
    sums = [[0] * (2 * m * (top + 2) + 1) for _ in range(top + 1)]
    low = 1 if positive else -bounds[-1]
    for v in product(range(low, bounds[-1] + 1), repeat=m):
        n = index[max(map(abs, v))]
        sums[n][word_length(m, v) - 2 * n] += 1
    return [poly(*row) for row in sums]


@pytest.mark.parametrize("m,top", [(1, 7), (2, 4)])
def test_band_lemma(m, top):
    # the top-index-N vectors count G_N^m - G_(N-1)^m, G_N = c (1+2x)^N, c =
    # 1 + 2x + 2x^2 and G_(-1) = 0: at N = 0 that is c^m, zero vector included
    band = [poly(1, 2, 2) * poly(1, 2) ** n for n in range(top + 1)]
    want = [band[0] ** m] + [band[n] ** m - band[n - 1] ** m for n in range(1, top + 1)]
    assert band_sums(m, top) == want
    # every coordinate >= 1: P_N = (G_N - 1)/2 in place of G_N, P_(-1) = 0
    half = [exact_div(g - ONE, 2) for g in band]
    want = [half[0] ** m] + [half[n] ** m - half[n - 1] ** m for n in range(1, top + 1)]
    assert band_sums(m, top, positive=True) == want


def test_subgroup_series_rejects_bad_rank():
    with pytest.raises(ValueError):
        subgroup_series(0)


@pytest.mark.parametrize(
    "build",
    [positive_series, subgroup_series, full_series, lambda m: coset_census(m, 4)],
    ids=["positive", "subgroup", "full", "census"],
)
def test_rank_cap(build):
    with pytest.raises(BudgetError):
        build(RANK_CAP + 1)


def test_every_closed_form_gcd_matches_the_remainder_sequence(monkeypatch):
    # every gcd the closed forms take at ranks 1-30, from cold caches,
    # against the primitive remainder sequence
    for f in vars(growth).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    pairs = []

    def spy(a, b):
        pairs.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(series, "poly_gcd", spy)
    for m in range(1, RANK_CAP + 1):
        subgroup_series(m), positive_series(m), full_series(m), level_series(m)
    monkeypatch.undo()
    assert len(pairs) == 645
    for a, b in pairs:
        assert poly_gcd(a, b) == prs_gcd(a, b)


# ---------------------------------------------------------------------------
# coset census


def brute_stem_table(m: int, rmax: int) -> Counter:
    """Count stems T^n (w_1 t)...(w_j t) by (level, length) directly.

    Suffix words w_i may be empty except that w_1 must be nonempty when
    n >= 1; level is -max(0, n - j); length is n + j + sum of letter counts.
    """
    letter_counts = [math.comb(m, l) * 2**l for l in range(m + 1)]
    table: Counter = Counter()
    for n in range(rmax + 1):
        table[(-max(0, n), n)] += 1
        frontier = {n: 1}
        j = 0
        while frontier:
            nxt: Counter = Counter()
            for length, cnt in frontier.items():
                for l, ways in enumerate(letter_counts):
                    if j == 0 and n >= 1 and l == 0:
                        continue
                    nl = length + 1 + l
                    if nl <= rmax:
                        nxt[nl] += cnt * ways
            j += 1
            for length, cnt in nxt.items():
                table[(-max(0, n - j), length)] += cnt
            frontier = dict(nxt)
    return table


def test_coset_census_goldens():
    census = coset_census(1, 8)
    assert [census.chi(0, r) for r in range(4)] == [1, 1, 3, 7]
    assert [census.chi(-1, r) for r in range(1, 5)] == [1, 0, 0, 2]
    assert coset_census(2, 6).chi(-1, 4) == 4
    for m in (1, 2):
        for n in range(1, 6):
            assert coset_census(m, 6).chi(-n, n) == 1


def test_coset_census_structure():
    census = coset_census(2, 7)
    assert census.m == 2 and census.rmax == 7
    assert census.chi(0, 0) == 1
    for level in range(0, -8, -1):
        for r in range(8):
            assert census.chi(level, r) >= 0
            if r < -level:
                assert census.chi(level, r) == 0
    with pytest.raises(ValueError):
        census.chi(1, 3)
    with pytest.raises(ValueError):
        census.chi(0, 8)
    # levels deeper than the horizon hold no reachable cosets
    assert census.chi(-9, 7) == 0


@pytest.mark.parametrize("m,rmax", [(1, 10), (2, 8), (3, 12), (6, 24), (12, 24)])
def test_coset_census_matches_brute_enumeration(m, rmax):
    census = coset_census(m, rmax)
    table = brute_stem_table(m, rmax)
    for level in range(0, -(rmax + 1), -1):
        for r in range(rmax + 1):
            assert census.chi(level, r) == table.get((level, r), 0), (level, r)


# sha256 of the canonical JSON of coset_census(m, 24), recorded from the
# per-depth stem loop that the one-pass table replaced
CENSUS_DIGESTS = {
    3: "36c6e14475465a7810976659802bada789957c930b6b8306d48bbb3a302b53ba",
    12: "c04bccc58c1be79e431cf0ebd2212ef0b91b16704560e8cd6bbfda885dbeea4c",
    30: "4906d4efa94b1365cbbcc112c5fe81be3ee6df1239d873023c4482402705131b",
}


@pytest.mark.parametrize("m", sorted(CENSUS_DIGESTS))
def test_coset_census_digests(m):
    assert json_digest(coset_census(m, 24).to_json()) == CENSUS_DIGESTS[m]


def direct_stem_pass(m: int, rmax: int) -> dict[int, tuple[int, ...]]:
    """The stem table at horizon rmax by its own pass, on whole polynomials
    cut at x^rmax after each step: the reference that slices of a rank's
    shared table must equal."""
    xw = suffix_poly(m).shift(1)
    table = {-n: [0] * n + [1] + [0] * (rmax - n) for n in range(rmax + 1)}
    stems = IntPolynomial()
    for d in range(rmax - 1, -rmax - 1, -1):
        stems = stems * xw
        if d >= -1:
            stems = stems + (xw - X if d >= 0 else xw).shift(d + 1)
        stems = IntPolynomial(stems.coeffs[: rmax + 1])
        col = table[-max(0, d)]
        for r, cnt in enumerate(stems.coeffs):
            col[r] += cnt
    return {level: tuple(col) for level, col in table.items()}


SLICED_RADII = {**{m: range(CENSUS_RMAX + 1) for m in range(1, 7)}, 30: (0, 3, 24)}


@pytest.mark.parametrize("m", sorted(SLICED_RADII))
def test_coset_census_slices_equal_a_direct_pass(m):
    for rmax in SLICED_RADII[m]:
        assert coset_census(m, rmax).columns == direct_stem_pass(m, rmax), rmax


def test_coset_census_horizon_cap():
    with pytest.raises(BudgetError):
        coset_census(1, 25)
    with pytest.raises(BudgetError):
        coset_census(2, 30)


# ---------------------------------------------------------------------------
# level series fits


@pytest.mark.parametrize("m", [1, 2, 3, 4, 12, 30])
def test_level_series_fitted_numerators(m):
    ls = level_series(m)
    assert ls.p_hat == poly(0, 1, 0, -1)
    assert ls.q_hat == poly(1, 0, -1)
    assert ls.certified_to == 2 * (m + 4) + 6
    assert ls.X_minus1 == rf_normalize(poly(0, 1, 0, -1), one_minus_x2w(m))
    assert ls.X_0 == rf_normalize(poly(1, 0, -1), one_minus_xw(m) * one_minus_x2w(m))


def test_level_series_digest_at_the_rank_cap():
    # recorded from the numerator fit that the closed forms replaced
    ls = level_series(RANK_CAP)
    obj = {
        "X_minus1": rf_to_json(ls.X_minus1),
        "X_0": rf_to_json(ls.X_0),
        "p_hat": [str(c) for c in ls.p_hat.coeffs],
        "q_hat": [str(c) for c in ls.q_hat.coeffs],
        "certified_to": ls.certified_to,
    }
    assert json_digest(obj) == (
        "ce9b8fab2851fde7615c76c6c09558350a13c479d99e9383eee9637c81cc6cff"
    )


@pytest.mark.parametrize("m", [1, 3])
def test_census_suite_fails_on_a_broken_stem_table(monkeypatch, m):
    # rank 3 is the largest the suite's graph search reaches
    table = growth._stem_columns(m)
    broken = list(table[-1])
    broken[3] += 1
    monkeypatch.setattr(verify, "_stem_columns", lambda rank: {**table, -1: tuple(broken)})
    report = verify.verify_census(m, radius=4)
    assert report["pass"] is False
    checks = {c["name"]: c for c in report["checks"]}
    fit = checks[f"rank {m}: level series certified through x^{2 * (m + 4) + 6}"]
    assert fit["witness"] == {"level": -1, "power": 3, "closed_form": 0, "stem_table": 1}
    census = checks[f"rank {m}: stem count equals enumerated census to radius 4"]
    assert census["pass"] is False
    assert census["witness"]["level"] == -1
    assert census["witness"]["stem"][3] == census["witness"]["derived"][3] + 1
    assert census["witness"]["enumerated"] == census["witness"]["derived"]
    assert [c["name"] for c in report["checks"] if not c["pass"]] == [census["name"], fit["name"]]


def test_public_calls_never_read_the_stem_table(monkeypatch):
    m = 17
    want = (
        full_series(m), level_series(m), coset_census(m, CENSUS_RMAX),
        relative_growth_series(m, 3),
    )

    def no_stems(rank):
        raise AssertionError("a public call read the stem table")

    for f in vars(growth).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    monkeypatch.setattr(growth, "_stem_columns", no_stems)
    got = (
        full_series(m), level_series(m), coset_census(m, CENSUS_RMAX),
        relative_growth_series(m, 3),
    )
    assert got == want


def test_level_series_prefix_goldens():
    ls = level_series(1)
    assert list(series_prefix(ls.X_minus1, 9)) == [0, 1, 0, 0, 2, 0, 2, 4, 2, 8]
    assert list(series_prefix(ls.X_0, 5)) == [1, 1, 3, 7, 13, 29]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_level_series_functional_relation(m):
    ls = level_series(m)
    w = rf_normalize(suffix_poly(m), ONE)
    x_rf = rf_normalize(X, ONE)
    lhs = rf_sub(
        rf_mul(ls.X_0, rf_normalize(one_minus_xw(m), ONE)),
        rf_mul(rf_mul(x_rf, w), ls.X_minus1),
    )
    assert lhs == rf_normalize(ls.q_hat, ONE)
    assert rf_mul(ls.X_minus1, rf_normalize(one_minus_x2w(m), ONE)) == rf_normalize(
        ls.p_hat, ONE
    )


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_level_series_matches_census_through_horizon(m):
    ls = level_series(m)
    horizon = ls.certified_to
    table = brute_stem_table(m, horizon)
    col_minus1 = [table.get((-1, r), 0) for r in range(horizon + 1)]
    col_zero = [table.get((0, r), 0) for r in range(horizon + 1)]
    assert list(series_prefix(ls.X_minus1, horizon)) == col_minus1
    assert list(series_prefix(ls.X_0, horizon)) == col_zero


# ---------------------------------------------------------------------------
# the stem DP against the closed forms at every rank: what makes the census
# output's "certified through x^h" hold at every rank the CLI accepts


def stem_census(m: int, rmax: int) -> dict[int, tuple[int, ...]]:
    table = growth._stem_columns(m)
    return {-n: table[-n][: rmax + 1] for n in range(rmax + 1)}


def truncated_product(a, b, h: int) -> list[int]:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(h + 1)]


def stem_full_prefix(m: int, h: int) -> list[int]:
    """The full series through x^h assembled from the stem table's level
    columns, S (X_0 + X_-1 W/(1 - x W))."""
    table = growth._stem_columns(m)
    climb = series_prefix(rf_normalize(suffix_poly(m), one_minus_xw(m)), h)
    levels = [a + b for a, b in zip(table[0], truncated_product(table[-1], climb, h))]
    return truncated_product(series_prefix(subgroup_series(m), h), levels, h)


def one_line_full(m: int, climb=True, squared=True) -> RationalFunction:
    """c^m (1 - x^2)^2 (1 + x W)/((1 - x W) D_m^2), unreduced; climb=False
    drops the (1 + x W) factor and squared=False leaves one D_m."""
    num = poly(1, 2, 2) ** m * poly(1, 0, -1) ** 2
    den = one_minus_xw(m) * one_minus_x2w(m) ** (2 if squared else 1)
    return RationalFunction(num * (ONE + X * suffix_poly(m)) if climb else num, den)


@pytest.mark.parametrize("m", range(1, RANK_CAP + 1))
def test_stem_table_equals_the_closed_form_census(m):
    assert coset_census(m, CENSUS_RMAX).columns == stem_census(m, CENSUS_RMAX)


@pytest.mark.parametrize("m", range(1, RANK_CAP + 1))
def test_level_series_equal_the_stem_table(m):
    ls = level_series(m)
    h = ls.certified_to
    assert h == growth._level_horizon(m)
    table = growth._stem_columns(m)
    assert list(series_prefix(ls.X_minus1, h)) == list(table[-1][: h + 1])
    assert list(series_prefix(ls.X_0, h)) == list(table[0][: h + 1])


@pytest.mark.parametrize("m", range(1, RANK_CAP + 1))
def test_full_series_equals_the_stem_assembly(m):
    h = growth._level_horizon(m)
    f, g = full_series(m), one_line_full(m)
    assert f.num * g.den == g.num * f.den
    assert list(series_prefix(f, h)) == stem_full_prefix(m, h)


@pytest.mark.parametrize(
    "mutant",
    [lambda m: one_line_full(m, climb=False), lambda m: one_line_full(m, squared=False)],
    ids=["no-climb-factor", "single-D"],
)
def test_full_series_mutants_fail_the_stem_assembly(mutant):
    for m in range(1, RANK_CAP + 1):
        h = growth._level_horizon(m)
        assert list(series_prefix(mutant(m), h)) != stem_full_prefix(m, h), m


@pytest.mark.parametrize("m", range(1, RANK_CAP + 1))
def test_suffix_poly_is_prime_to_the_subgroup_denominator(m):
    # the fact that lets relative_growth_series skip its reduction
    assert poly_gcd(suffix_poly(m), subgroup_series(m).den) == ONE


@pytest.mark.parametrize("m", range(1, RANK_CAP + 1))
def test_relative_growth_series_is_already_reduced(m):
    s = subgroup_series(m)
    depths = [0, 1, 2] + ([STEM_DEPTH_CAP] if m <= 3 else [])
    for n in depths:
        assert relative_growth_series(m, n) == rf_normalize(suffix_poly(m) ** n * s.num, s.den), n


# ---------------------------------------------------------------------------
# relative growth of coset stems


def test_relative_growth_series():
    assert relative_growth_series(1, 0) == subgroup_series(1)
    assert relative_growth_series(2, 0) == subgroup_series(2)
    assert list(series_prefix(relative_growth_series(1, 1), 5)) == [1, 4, 6, 6, 8, 14]
    assert relative_growth_series(1, 2) == rf_mul(
        rf_normalize(poly(1, 4, 4), ONE), subgroup_series(1)
    )
    with pytest.raises(ValueError):
        relative_growth_series(1, -1)


def test_stem_depth_cap():
    assert relative_growth_series(1, STEM_DEPTH_CAP) == rf_mul(
        rf_normalize(suffix_poly(1) ** STEM_DEPTH_CAP, ONE), subgroup_series(1)
    )
    with pytest.raises(BudgetError):
        relative_growth_series(1, STEM_DEPTH_CAP + 1)


# ---------------------------------------------------------------------------
# full-group series


def test_full_series_closed_form_rank_one():
    expected = rf_normalize(
        poly(1, -1) ** 2 * poly(1, 1) * poly(1, 2, 2) * poly(1, 1, 2),
        poly(1, -2) * poly(1, 0, -1, -2) ** 2,
    )
    assert full_series(1) == expected


def test_full_series_low_coefficients():
    # two-letter words: (2m+2)^2 total, 2m+2 cancel to the identity, and for
    # m = 2 four products of distinct commuting letters coincide in pairs
    assert list(series_prefix(full_series(1), 2)) == [1, 4, 12]
    assert list(series_prefix(full_series(2), 2)) == [1, 6, 26]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_full_series_equals_assembled_product(m):
    w = suffix_poly(m)
    expected = rf_mul(
        subgroup_series(m),
        rf_normalize(
            poly(1, 0, -1) * (ONE + X * w),
            one_minus_xw(m) * one_minus_x2w(m),
        ),
    )
    assert full_series(m) == expected


@pytest.mark.parametrize("m", range(1, 13))
def test_full_series_equals_the_level_series_sum(m):
    # the additive assembly that the factored reduction replaced
    s, ls = subgroup_series(m), level_series(m)
    climb = rf_normalize(suffix_poly(m), one_minus_xw(m))
    assert full_series(m) == rf_add(
        rf_mul(s, ls.X_0), rf_mul(rf_mul(s, ls.X_minus1), climb)
    )


def test_published_full_form_diagnostics():
    # transcribed historical forms; their linear coefficients disagree with
    # the forced sphere count 2m+2, so they are diagnostics only
    one = published_full_form(1)
    two = published_full_form(2)
    assert series_prefix(one, 1)[1] == 2
    assert series_prefix(two, 1)[1] == 7
    # each is off by exactly one factor
    assert rf_div(full_series(1), one) == rf_normalize(poly(1, 2, 2), ONE)
    assert rf_div(full_series(2), two) == rf_normalize(ONE, poly(1, 1, 2))
    with pytest.raises(ValueError):
        published_full_form(3)
